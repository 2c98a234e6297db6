//! Streaming-engine contracts:
//!
//! * **Parity** — for a fixed submission order and seeds, the concatenated
//!   `TokenEvent` streams from `ServeEngine` are bit-identical to
//!   `Scheduler::run_to_completion` outputs, at batch 1/4/8 and under
//!   forced preemption (where replayed tokens must be emitted exactly
//!   once).
//! * **Cancellation** — once `cancel` returns, the request never emits
//!   another token and its KV blocks are already back in the pool.
//! * **Deadlines** — a request past its step budget terminates with
//!   `DeadlineExceeded` and frees its blocks.
//! * **Backpressure** — `try_submit` refuses at `queue_capacity`;
//!   blocking `submit` unblocks when a slot frees.
//! * **Pool bound** — a request a bounded KV pool cannot hold even alone
//!   is refused at submit, and the engine keeps serving.

use edkm::core::{
    CancelOutcome, CompressSpec, EngineConfig, FinishReason, KvBlockConfig, PalettizedModel,
    Priority, Request, SamplingConfig, Scheduler, ServeEngine, ServeRequest, ServeResponse,
    StreamPoll, SubmitError, TokenEvent,
};
use edkm::nn::{LlamaConfig, LlamaModel};
use edkm::tensor::{runtime, DType, Device};

fn served(seed: u64) -> PalettizedModel {
    served_with_max_seq(seed, 48)
}

fn served_with_max_seq(seed: u64, max_seq: usize) -> PalettizedModel {
    let cfg = LlamaConfig {
        vocab: 32,
        d_model: 16,
        n_heads: 2,
        n_layers: 2,
        d_ff: 32,
        max_seq,
    };
    let dense = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, seed);
    let mut spec = CompressSpec::with_bits(3);
    spec.dkm.iters = 3;
    PalettizedModel::from_dense(&dense, &spec).expect("servable export")
}

/// The request mix used by every parity check: uneven prompts and budgets,
/// mixed greedy/temperature/top-k sampling.
fn request_mix() -> Vec<ServeRequest> {
    (0..6u64)
        .map(|id| {
            let plen = 1 + (id as usize * 3) % 5;
            let prompt: Vec<usize> = (0..plen).map(|i| (i * 5 + id as usize) % 32).collect();
            let sampling = match id % 3 {
                0 => SamplingConfig::greedy(),
                1 => SamplingConfig::with_temperature(0.8, 1000 + id),
                _ => SamplingConfig::with_top_k(1.2, 5, 2000 + id),
            };
            ServeRequest::new(id, prompt, 2 + (id as usize * 7) % 9, sampling)
        })
        .collect()
}

/// Submit `reqs` (in order) to an engine over `model`, drain every stream,
/// and return `(streamed_generated_tokens, response)` per request in
/// submission order. Asserts the stream protocol along the way: in-order
/// indices, exactly one terminal event, nothing after it.
fn stream_all(
    model: PalettizedModel,
    reqs: &[ServeRequest],
    max_batch: usize,
) -> (Vec<(Vec<usize>, ServeResponse)>, edkm::core::StatsSnapshot) {
    let engine = ServeEngine::new(
        model,
        EngineConfig {
            max_batch,
            queue_capacity: reqs.len().max(1),
        },
    );
    let handle = engine.handle();
    // Hold the worker for about 50 ms while every request is submitted, so
    // all of them are admitted before the first step, as in the scheduler
    // runs they are compared against (the forced-preemption case needs
    // both requests in flight together).
    handle.inject_stall(50);
    let mut streams = Vec::new();
    for r in reqs {
        let request = Request::new(r.prompt.clone())
            .max_new_tokens(r.max_new)
            .sampling(r.sampling)
            .stop_tokens(r.stop_tokens.clone());
        streams.push(handle.submit(request).expect("engine accepts submissions"));
    }
    let mut out = Vec::new();
    for (_, mut stream) in streams {
        let mut tokens = Vec::new();
        let mut response = None;
        while let Some(ev) = stream.next_event() {
            match ev {
                TokenEvent::Token { index, token } => {
                    assert_eq!(index, tokens.len(), "token indices arrive in order");
                    assert!(response.is_none(), "no token after the terminal event");
                    tokens.push(token);
                }
                TokenEvent::Finished(r) => {
                    assert!(response.is_none(), "exactly one terminal event");
                    response = Some(r);
                }
            }
        }
        out.push((tokens, response.expect("stream ends with a terminal event")));
    }
    let stats = handle.stats();
    engine.shutdown();
    (out, stats)
}

/// Engine streams must match `run_to_completion` bit for bit.
fn assert_parity(streamed: &[(Vec<usize>, ServeResponse)], want: &[ServeResponse]) {
    assert_eq!(streamed.len(), want.len());
    for ((tokens, resp), w) in streamed.iter().zip(want) {
        let plen = w.tokens.len() - w.generated;
        assert_eq!(
            tokens,
            &w.tokens[plen..],
            "request {}: streamed tokens diverged from run_to_completion",
            w.id
        );
        assert_eq!(resp.tokens, w.tokens, "request {}: response tokens", w.id);
        assert_eq!(resp.generated, w.generated);
    }
}

#[test]
fn engine_streams_match_run_to_completion_at_batch_1_4_8() {
    runtime::reset();
    let model = served(7);
    let reqs = request_mix();
    let mut sched = Scheduler::new(&model, 4);
    for r in &reqs {
        sched.submit(r.clone());
    }
    let want = sched.run_to_completion(); // sorted by id == submission order
    for max_batch in [1usize, 4, 8] {
        let (streamed, stats) = stream_all(model.clone(), &reqs, max_batch);
        assert_parity(&streamed, &want);
        assert_eq!(
            stats.tokens_generated,
            want.iter().map(|r| r.generated as u64).sum::<u64>()
        );
        assert_eq!(stats.finished, reqs.len() as u64);
        assert_eq!(stats.ttft_steps.total(), reqs.len() as u64);
    }
    assert_eq!(
        model.kv_pool().blocks_in_use(),
        0,
        "engine leaked KV blocks"
    );
}

#[test]
fn engine_streams_survive_forced_preemption_without_duplicates() {
    runtime::reset();
    // Same geometry as the scheduler preemption test: two 22-token
    // sequences at 2 tokens/block can never both fit 12 blocks, so the
    // engine must preempt and replay — and each stream must still carry
    // every generated token exactly once, bit-identical to the unbounded
    // run.
    let reqs: Vec<ServeRequest> = (0..2u64)
        .map(|id| {
            ServeRequest::new(
                id,
                vec![1 + id as usize, 5],
                20,
                SamplingConfig::with_top_k(0.9, 4, 40 + id),
            )
        })
        .collect();
    let unbounded = served(9);
    let mut free_sched = Scheduler::new(&unbounded, 2);
    for r in &reqs {
        free_sched.submit(r.clone());
    }
    let want = free_sched.run_to_completion();

    let tight = served(9).with_kv_config(KvBlockConfig {
        block_tokens: 2,
        max_blocks: 12,
    });
    let pool = std::sync::Arc::clone(tight.kv_pool());
    let (streamed, stats) = stream_all(tight, &reqs, 2);
    assert!(stats.preemptions > 0, "the tight pool must preempt");
    assert_parity(&streamed, &want);
    for (tokens, resp) in &streamed {
        assert_eq!(
            tokens.len(),
            resp.generated,
            "replayed tokens must not be re-emitted"
        );
    }
    assert!(streamed
        .iter()
        .any(|(_, r)| r.finish == FinishReason::PreemptedThenFinished));
    assert_eq!(pool.blocks_in_use(), 0);
}

#[test]
fn cancelled_request_emits_nothing_after_cancel_returns_and_frees_blocks() {
    runtime::reset();
    // A budget far past what the worker can decode while this thread waits
    // to be scheduled after the first token (a few hundred tokens were
    // seen), so the request is still decoding when the stall and the
    // cancel below land.
    const BUDGET: usize = 4000;
    let model = served_with_max_seq(10, 4096);
    let pool = std::sync::Arc::clone(model.kv_pool());
    let engine = ServeEngine::new(model, EngineConfig::default());
    let handle = engine.handle();
    let (id, mut stream) = handle
        .submit(Request::new(vec![1, 2, 3]).max_new_tokens(BUDGET))
        .expect("submit");
    // Let the request actually start decoding, then hold the worker
    // between steps: a stalled worker still serves cancels.
    let first = stream.next_event().expect("first event");
    assert!(matches!(first, TokenEvent::Token { index: 0, .. }));
    handle.inject_stall(1_000_000);
    assert!(handle.cancel(id).was_cancelled(), "request was in flight");
    // Cancel is acknowledged by the worker: the KV blocks are already back
    // in the pool, before any further decode step.
    assert_eq!(pool.blocks_in_use(), 0, "cancel must free blocks eagerly");
    // Whatever is still buffered was emitted before cancel returned; the
    // stream ends with the Cancelled terminal and nothing after it.
    let rest: Vec<TokenEvent> = stream.by_ref().collect();
    let last = rest.last().expect("terminal event");
    let TokenEvent::Finished(resp) = last else {
        panic!("stream must end with the terminal event");
    };
    assert_eq!(resp.finish, FinishReason::Cancelled);
    assert!(
        resp.generated < BUDGET,
        "cancellation cut generation short ({} tokens)",
        resp.generated
    );
    // 1 (already consumed) + buffered tokens + terminal = generated + 1.
    assert_eq!(1 + rest.len(), resp.generated + 1);
    assert!(stream.next_event().is_none(), "nothing after the terminal");
    assert_eq!(
        handle.cancel(id),
        CancelOutcome::AlreadyFinished,
        "second cancel finds nothing"
    );
    let stats = handle.stats();
    assert_eq!(stats.cancelled, 1);
    engine.shutdown();
}

/// The pinned contract for cancelling a request that already reached its
/// terminal event: an idempotent no-op with a typed result. However many
/// times (and from however many handle clones) it is repeated, the engine
/// reports [`CancelOutcome::AlreadyFinished`], counts no extra
/// cancellation, and disturbs nothing.
#[test]
fn cancel_after_finish_is_an_idempotent_typed_no_op() {
    runtime::reset();
    let model = served(14);
    let engine = ServeEngine::new(model, EngineConfig::default());
    let handle = engine.handle();
    let (id, mut stream) = handle
        .submit(Request::new(vec![1, 2, 3]).max_new_tokens(4))
        .expect("submit");
    let resp = stream.wait().expect("terminal event");
    assert_eq!(resp.finish, FinishReason::MaxTokens);
    for _ in 0..3 {
        assert_eq!(
            handle.cancel(id),
            CancelOutcome::AlreadyFinished,
            "cancel of a finished request must be a typed no-op"
        );
    }
    // A cloned handle sees the same answer — the contract is engine-wide,
    // not per-handle.
    assert_eq!(engine.handle().cancel(id), CancelOutcome::AlreadyFinished);
    let stats = handle.stats();
    assert_eq!(stats.cancelled, 0, "no phantom cancellations were counted");
    assert_eq!(stats.finished, 1);
    engine.shutdown();
}

#[test]
fn deadline_exceeded_terminates_with_partial_output() {
    runtime::reset();
    let model = served(11);
    let pool = std::sync::Arc::clone(model.kv_pool());
    let engine = ServeEngine::new(model, EngineConfig::default());
    let handle = engine.handle();
    let (_, mut stream) = handle
        .submit(
            Request::new(vec![3, 1, 4])
                .max_new_tokens(40)
                .deadline_steps(2),
        )
        .expect("submit");
    let resp = stream.wait().expect("terminal event");
    assert_eq!(resp.finish, FinishReason::DeadlineExceeded);
    assert!(resp.finish.is_aborted());
    assert!(
        resp.generated <= 2,
        "at most one token per step before the deadline, got {}",
        resp.generated
    );
    assert_eq!(&resp.tokens[..3], &[3, 1, 4], "prompt is preserved");
    let stats = handle.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(pool.blocks_in_use(), 0);
    engine.shutdown();
}

#[test]
fn try_submit_refuses_at_capacity_and_submit_unblocks() {
    runtime::reset();
    let model = served(12);
    let engine = ServeEngine::new(
        model,
        EngineConfig {
            max_batch: 1,
            queue_capacity: 2,
        },
    );
    let handle = engine.handle();
    let a = handle
        .submit(Request::new(vec![1]).max_new_tokens(30))
        .expect("first fits");
    let b = handle
        .submit(Request::new(vec![2]).max_new_tokens(30))
        .expect("second fits");
    let err = handle
        .try_submit(Request::new(vec![3]).max_new_tokens(1))
        .expect_err("third must be refused");
    assert_eq!(err, SubmitError::Full);
    assert_eq!(handle.in_flight(), 2);
    // Blocking submit parks until a terminal event frees a slot.
    let (_, mut c_stream) = handle
        .submit(Request::new(vec![3]).max_new_tokens(1))
        .expect("blocking submit succeeds once a slot frees");
    let (mut a_stream, mut b_stream) = (a.1, b.1);
    assert!(a_stream.wait().is_some());
    assert!(b_stream.wait().is_some());
    assert!(c_stream.wait().is_some());
    engine.shutdown();
}

#[test]
fn priorities_and_stop_tokens_flow_through_the_engine() {
    runtime::reset();
    let model = served(13);
    // Find greedily generated tokens solo, then stop on the second one.
    let solo = edkm::core::Generator::new(&model).generate_greedy(&[1, 2], 10);
    let stop = solo[3]; // second generated token
    let first_hit = solo[2..].iter().position(|&t| t == stop).unwrap();
    let engine = ServeEngine::new(model, EngineConfig::default());
    let handle = engine.handle();
    let (_, mut stream) = handle
        .submit(
            Request::new(vec![1, 2])
                .max_new_tokens(10)
                .stop_token(stop)
                .priority(Priority::High),
        )
        .expect("submit");
    let resp = stream.wait().expect("terminal");
    assert_eq!(resp.finish, FinishReason::StopToken);
    assert_eq!(resp.generated, first_hit + 1, "cut at the stop token");
    assert_eq!(*resp.tokens.last().unwrap(), stop, "stop token is kept");
    engine.shutdown();
}

#[test]
fn submit_after_shutdown_is_refused() {
    runtime::reset();
    let model = served(14);
    let engine = ServeEngine::new(model, EngineConfig::default());
    let handle = engine.handle();
    engine.shutdown();
    assert_eq!(
        handle
            .submit(Request::new(vec![1]).max_new_tokens(1))
            .expect_err("engine is gone"),
        SubmitError::ShutDown
    );
    assert_eq!(
        handle
            .try_submit(Request::new(vec![1]).max_new_tokens(1))
            .expect_err("engine is gone"),
        SubmitError::ShutDown
    );
}

#[test]
fn concurrent_cancels_of_the_same_request_both_return() {
    // Two handles racing to cancel one request must both come back
    // (no deadlock), and exactly one of them observes the cancellation.
    runtime::reset();
    let model = served(15);
    let engine = ServeEngine::new(model, EngineConfig::default());
    let handle = engine.handle();
    // Stall the worker before the request arrives: it is admitted, but no
    // step runs until both cancels have returned (a stalled worker still
    // serves cancels), so the request cannot finish first.
    handle.inject_stall(1_000_000);
    let (id, mut stream) = handle
        .submit(Request::new(vec![1, 2]).max_new_tokens(40))
        .expect("submit");
    let h2 = engine.handle();
    let racer = std::thread::spawn(move || h2.cancel(id));
    let a = handle.cancel(id);
    let b = racer.join().expect("racing cancel returns");
    assert!(
        a.was_cancelled() ^ b.was_cancelled(),
        "exactly one cancel wins, got ({a:?}, {b:?})"
    );
    let resp = stream.wait().expect("terminal event");
    assert_eq!(resp.finish, FinishReason::Cancelled);
    let stats = handle.stats();
    assert_eq!(stats.cancelled, 1, "one cancellation, not two");
    engine.shutdown();
}

#[test]
fn cancelling_a_preempted_request_keeps_its_streamed_tokens() {
    // A preempted request sits requeued with tokens already delivered to
    // its stream; cancelling it there must return a response that still
    // carries those tokens (generated > 0), matching what the caller saw.
    runtime::reset();
    let model = served(16).with_kv_config(KvBlockConfig {
        block_tokens: 2,
        max_blocks: 12,
    });
    let reqs: Vec<ServeRequest> = (0..2u64)
        .map(|id| {
            ServeRequest::new(
                id,
                vec![1 + id as usize, 5],
                20,
                SamplingConfig::with_top_k(0.9, 4, 40 + id),
            )
        })
        .collect();
    let mut sched = Scheduler::new(&model, 2);
    for r in &reqs {
        sched.submit(r.clone());
    }
    // Step until the victim (id 1, the tail admission) is parked in the
    // queue: it ping-pongs admit/preempt while both fit, and stays queued
    // once the survivor's growth leaves fewer free blocks than its prompt
    // needs. Collect everything emitted for it along the way.
    let mut streamed: Vec<usize> = Vec::new();
    let mut finished_in_loop = Vec::new();
    while !(sched.preemptions() > 0 && sched.queued() == 1) {
        assert!(!sched.is_idle(), "tight pool must strand the victim");
        let events = sched.step_events();
        streamed.extend(events.tokens.iter().filter(|t| t.id == 1).map(|t| t.token));
        // The survivor may retire on the very step that strands the
        // victim; the victim itself must still be unresolved.
        assert!(events.finished.iter().all(|r| r.id == 0));
        finished_in_loop.extend(events.finished);
    }
    assert!(!streamed.is_empty(), "the victim streamed tokens first");
    let resp = sched.cancel(1).expect("the queued victim is found");
    assert_eq!(resp.finish, FinishReason::Cancelled);
    assert_eq!(
        resp.generated,
        streamed.len(),
        "terminal response counts the already-streamed tokens"
    );
    assert_eq!(
        &resp.tokens[resp.tokens.len() - streamed.len()..],
        &streamed[..],
        "terminal response carries exactly the streamed tokens"
    );
    // The survivor still drains cleanly and nothing leaks.
    finished_in_loop.extend(sched.run_to_completion());
    assert_eq!(finished_in_loop.len(), 1);
    assert_eq!(finished_in_loop[0].id, 0);
    assert_eq!(model.kv_pool().blocks_in_use(), 0);
}

#[test]
fn poll_event_delivers_events_then_reports_typed_ends() {
    use std::time::Duration;
    runtime::reset();
    let engine = ServeEngine::new(served(17), EngineConfig::default());
    let handle = engine.handle();

    // Stall the worker long enough that a short wait sees no event: the
    // typed `TimedOut` distinguishes "slow" from "over".
    handle.inject_stall(200);
    let (_, mut stream) = handle
        .submit(
            Request::new(vec![1, 2, 3])
                .max_new_tokens(3)
                .sampling(SamplingConfig::greedy()),
        )
        .expect("submit");
    assert!(
        matches!(
            stream.poll_event(Duration::from_millis(5)),
            StreamPoll::TimedOut
        ),
        "a stalled engine yields nothing within a short deadline"
    );

    // With a generous deadline every event of a live request arrives.
    let mut tokens = 0usize;
    loop {
        match stream.poll_event(Duration::from_secs(30)) {
            StreamPoll::Event(TokenEvent::Token { .. }) => tokens += 1,
            StreamPoll::Event(TokenEvent::Finished(resp)) => {
                assert_eq!(resp.generated, 3);
                break;
            }
            other => panic!("live stream must deliver within the deadline: {other:?}"),
        }
    }
    assert_eq!(tokens, 3);

    // Past the terminal the stream is over — `Ended`, idempotently, and
    // without waiting out the timeout.
    let t0 = std::time::Instant::now();
    for _ in 0..2 {
        assert!(matches!(
            stream.poll_event(Duration::from_secs(30)),
            StreamPoll::Ended
        ));
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "a finished stream must report Ended immediately"
    );
    engine.shutdown();
}

#[test]
fn a_request_too_large_for_a_bounded_pool_is_refused_at_submit() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;
    runtime::reset();
    // 4-token blocks, 2 of them. A lone 4-token prompt holds
    // blocks_for(4 + 1) = 2 at admission and blocks_for(4 + max_new - 1)
    // by its last step: max_new 5 fits exactly, max_new 6 needs a third.
    let model = served(18).with_kv_config(KvBlockConfig {
        block_tokens: 4,
        max_blocks: 2,
    });
    let engine = ServeEngine::new(model, EngineConfig::default());
    let handle = engine.handle();
    let greedy = |max_new: usize| {
        Request::new(vec![1, 2, 3, 4])
            .max_new_tokens(max_new)
            .sampling(SamplingConfig::greedy())
    };

    let (_, mut fits) = handle.submit(greedy(5)).expect("submit");
    let resp = fits.wait().expect("terminal event");
    assert_eq!(resp.finish, FinishReason::MaxTokens);
    assert_eq!(resp.generated, 5);

    // One token more is refused on the caller's thread, by both entry
    // points, before the request reaches the worker.
    for refused in [
        catch_unwind(AssertUnwindSafe(|| handle.submit(greedy(6)))).map(|_| ()),
        catch_unwind(AssertUnwindSafe(|| handle.try_submit(greedy(6)))).map(|_| ()),
    ] {
        let payload = refused.expect_err("a request that cannot run alone is refused");
        let msg = payload
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("pool caps at 2"), "unexpected refusal: {msg}");
    }

    // The engine is unharmed: a small request still completes, and
    // shutdown joins a worker that never panicked.
    let (_, mut small) = handle.submit(greedy(2)).expect("submit");
    let resp = loop {
        match small.poll_event(Duration::from_secs(30)) {
            StreamPoll::Event(TokenEvent::Token { .. }) => {}
            StreamPoll::Event(TokenEvent::Finished(resp)) => break resp,
            other => panic!("the engine must keep serving after a refusal: {other:?}"),
        }
    };
    assert_eq!(resp.finish, FinishReason::MaxTokens);
    assert_eq!(resp.generated, 2);
    assert_eq!(
        handle.stats().submitted,
        2,
        "refused requests are not admitted"
    );
    engine.shutdown();
}
