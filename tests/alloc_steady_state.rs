//! Allocation-free decode steady state: once the scheduler has run one
//! step of a given flight shape, every later step of that shape draws all
//! of its forward temporaries (hidden states, Q/K/V, attention context,
//! activation-LUT tables, logits) from the scheduler's [`ScratchArena`]
//! without allocating — pinned via the arena's `grows` checkout counter,
//! and surfaced through the engine's `StatsSnapshot`.

use edkm::core::engine::{EngineConfig, Request, ServeEngine};
use edkm::core::{
    CompressSpec, KvBlockConfig, PalettizedModel, SamplingConfig, Scheduler, ServeRequest,
    StepEvents,
};
use edkm::nn::{LlamaConfig, LlamaModel};
use edkm::tensor::{runtime, DType, Device};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// A counting global allocator so the steady-state contract can be pinned at
// the malloc layer, not just the arena's `grows` counter. Counts are
// thread-local: the hot path under test runs inline on the calling thread
// (decode-sized GEMMs sit below the kernel's fan-out threshold, and a thread
// spawn would allocate on this thread), and allocations made by *other*
// concurrently running tests never pollute the measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn served() -> PalettizedModel {
    let cfg = LlamaConfig {
        max_seq: 64,
        ..LlamaConfig::tiny()
    };
    let dense = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 7);
    let mut spec = CompressSpec::with_bits(3);
    spec.dkm.iters = 2;
    PalettizedModel::from_dense(&dense, &spec).unwrap()
}

#[test]
fn steady_state_decode_steps_do_not_grow_the_arena() {
    runtime::reset();
    let model = served();
    let mut sched = Scheduler::new(&model, 4);
    // Four same-shaped requests with budgets long enough that the flight
    // stays constant through the measurement window.
    for id in 0..4u64 {
        sched.submit(ServeRequest::new(
            id,
            vec![1 + id as usize, 2, 3],
            40,
            SamplingConfig::greedy(),
        ));
    }
    // Warmup: the prefill step plus a few decode steps to touch every
    // buffer shape (the decode flight is 4 one-token chunks every step).
    for _ in 0..4 {
        sched.step();
    }
    let warm_grows = sched.scratch().grows();
    let warm_checkouts = sched.scratch().checkouts();
    assert!(warm_grows > 0, "warmup must have populated the arena");

    // Measurement window: 20 more decode steps of the same flight shape.
    for _ in 0..20 {
        sched.step();
    }
    assert!(
        sched.scratch().checkouts() > warm_checkouts,
        "the window must actually have exercised the arena"
    );
    assert_eq!(
        sched.scratch().grows(),
        warm_grows,
        "steady-state decode must perform zero arena growth"
    );
    assert_eq!(sched.active(), 4, "flight must have stayed constant");
    sched.run_to_completion();
}

/// Run `requests` same-shaped requests on `model` and assert that warm
/// decode steps perform zero heap allocations on this thread.
fn assert_warm_decode_allocates_nothing(model: PalettizedModel, requests: u64) {
    // 64-token KV blocks: one block holds each request's whole lifetime
    // (3-token prompt + 40 generated), so no block-boundary growth can
    // land inside the measurement window.
    let model = model.with_kv_config(KvBlockConfig {
        block_tokens: 64,
        max_blocks: 0,
    });
    let mut sched = Scheduler::new(&model, requests as usize);
    for id in 0..requests {
        sched.submit(ServeRequest::new(
            id,
            vec![1 + id as usize, 2, 3],
            40,
            SamplingConfig::greedy(),
        ));
    }
    // The reusable event buffer the engine's worker loop also uses: after
    // warmup its vecs hold their high-water capacity across `clear()`.
    let mut events = StepEvents::default();
    // Warmup: admission, prefill, and a few decode steps to touch every
    // buffer shape and fill the arena's free lists.
    for _ in 0..6 {
        sched.step_events_into(&mut events);
    }
    // Measurement window: the scheduler side of each step — flat-chunk
    // assembly, forward, sampling, event emission — must be entirely
    // allocation-free, counted at the global-allocator layer.
    let before = allocs_on_this_thread();
    for _ in 0..16 {
        sched.step_events_into(&mut events);
    }
    let window_allocs = allocs_on_this_thread() - before;
    assert_eq!(
        sched.active(),
        requests as usize,
        "flight must have stayed constant"
    );
    assert_eq!(
        window_allocs, 0,
        "warm decode steps must perform zero heap allocations ({window_allocs} counted)"
    );
    sched.run_to_completion();
}

#[test]
fn warm_decode_window_performs_zero_heap_allocations() {
    runtime::reset();
    assert_warm_decode_allocates_nothing(served(), 4);
}

#[test]
fn fleet_geometry_decode_spawns_no_thread_and_allocates_nothing() {
    runtime::reset();
    // The served benchmark's layer geometry: its gate/up/down projections
    // are the largest a 1-row decode step runs. Each must stay on the
    // calling thread, since spawning a worker allocates on the caller.
    let cfg = LlamaConfig {
        vocab: 256,
        d_model: 256,
        n_heads: 4,
        n_layers: 1,
        d_ff: 512,
        max_seq: 64,
    };
    let dense = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 7);
    let mut spec = CompressSpec::with_bits(3);
    spec.dkm.iters = 2;
    let model = PalettizedModel::from_dense(&dense, &spec).unwrap();
    assert_warm_decode_allocates_nothing(model, 1);
}

#[test]
fn engine_stats_expose_the_scratch_counters() {
    runtime::reset();
    let engine = ServeEngine::new(served(), EngineConfig::default());
    let handle = engine.handle();
    let (_, mut stream) = handle
        .submit(Request::new(vec![1, 2]).max_new_tokens(12))
        .unwrap();
    stream.wait().expect("request finishes");
    let stats = handle.stats();
    assert!(stats.scratch_checkouts > 0, "worker publishes checkouts");
    assert!(
        stats.scratch_grows <= stats.scratch_checkouts,
        "grows is a subset of checkouts"
    );
    engine.shutdown();
}

#[test]
fn retire_and_readmit_reuses_the_warm_arena() {
    runtime::reset();
    let model = served();
    let mut sched = Scheduler::new(&model, 2);
    sched.submit(ServeRequest::new(
        0,
        vec![1, 2, 3],
        10,
        SamplingConfig::greedy(),
    ));
    sched.run_to_completion();
    let grows = sched.scratch().grows();
    // A second, same-shaped request after everything retired: the arena
    // is already warm, so the whole run allocates nothing new.
    sched.submit(ServeRequest::new(
        1,
        vec![4, 5, 6],
        10,
        SamplingConfig::greedy(),
    ));
    sched.run_to_completion();
    assert_eq!(
        sched.scratch().grows(),
        grows,
        "a same-shaped rerun must be served entirely from the warm arena"
    );
}
