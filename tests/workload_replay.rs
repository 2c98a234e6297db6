//! Deterministic-replay contract of the workload layer: a seed names a
//! trace byte-for-byte, and replaying a trace is a pure function of
//! `(model, trace, max_batch)` — identical token streams and aggregate
//! counters across runs, batch caps, and engine worker interleavings.

use edkm::cluster::{Cluster, ClusterConfig};
use edkm::core::{CompressSpec, EngineConfig, KvBlockConfig, PalettizedModel};
use edkm::nn::{LlamaConfig, LlamaModel};
use edkm::tensor::{runtime, DType, Device};
use edkm::workload::{replay_router, replay_trace, ReplayReport, Trace, TraceConfig, TraceKind};

fn model_config() -> LlamaConfig {
    LlamaConfig {
        vocab: 64,
        d_model: 32,
        n_heads: 2,
        n_layers: 2,
        d_ff: 64,
        max_seq: 48,
    }
}

/// A tiny palettized model (untrained — replay determinism is a property
/// of the serving stack, not of model quality).
fn tiny_model() -> PalettizedModel {
    let dense = LlamaModel::new(model_config(), DType::Bf16, Device::Cpu, 0);
    let mut spec = CompressSpec::with_bits(3);
    spec.dkm.iters = 2;
    PalettizedModel::from_dense(&dense, &spec).expect("servable export")
}

fn trace_for(kind: TraceKind, seed: u64) -> Trace {
    let cfg = model_config();
    Trace::generate(&TraceConfig::new(kind, seed, 10, cfg.vocab, cfg.max_seq))
}

/// `model` over a pool of 8-token blocks that holds three of `trace`'s
/// largest request, so long-context kinds contend for blocks and preempt.
fn bounded(model: &PalettizedModel, trace: &Trace) -> PalettizedModel {
    let per_req = trace.max_tokens_per_request().div_ceil(8);
    model.clone().with_kv_config(KvBlockConfig {
        block_tokens: 8,
        max_blocks: per_req * 3,
    })
}

/// Replay `trace` live through a fresh fleet, one engine per model, behind
/// the router (affinity on). One model is the bare-engine replay.
fn live_replay(models: Vec<PalettizedModel>, trace: &Trace, engine: EngineConfig) -> ReplayReport {
    let cluster = Cluster::new(
        models,
        ClusterConfig {
            engine,
            ..ClusterConfig::default()
        },
    );
    let report = replay_router(&cluster.handle(), trace);
    cluster.shutdown();
    report
}

#[test]
fn same_seed_traces_are_byte_identical() {
    for kind in TraceKind::ALL {
        let a = trace_for(kind, 42);
        let b = trace_for(kind, 42);
        assert_eq!(a.to_bytes(), b.to_bytes(), "{kind}: same seed diverged");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = trace_for(kind, 43);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "{kind}: different seeds must name different traces"
        );
    }
}

#[test]
fn step_replay_is_deterministic_across_runs() {
    runtime::reset();
    let model = tiny_model();
    for kind in TraceKind::ALL {
        let trace = trace_for(kind, 42);
        // A bounded pool keeps the preemption path in the replayed set too.
        let served = bounded(&model, &trace);
        let a = replay_trace(&served, &trace, 4);
        let b = replay_trace(&served, &trace, 4);
        assert_eq!(
            a, b,
            "{kind}: two replays of the same trace must agree on every \
             token, finish reason, TTFT, and counter"
        );
        assert_eq!(a.counters.submitted, trace.requests().len() as u64);
    }
}

/// The serving SLO on the virtual clock: every trace kind (seed 7, 8
/// requests) over a bounded pool of 8-token blocks, three of the largest
/// request, at batch 8. The worst kind may miss at most 35% of its
/// deadlines and must emit its first token within 96 steps at p99.
#[test]
fn every_trace_kind_meets_the_deadline_and_ttft_slo_on_a_bounded_pool() {
    runtime::reset();
    let cfg = model_config();
    let model = tiny_model();
    for kind in TraceKind::ALL {
        let trace = Trace::generate(&TraceConfig::new(kind, 7, 8, cfg.vocab, cfg.max_seq));
        let rep = replay_trace(&bounded(&model, &trace), &trace, 8);
        let miss = rep.counters.deadline_miss_rate();
        assert!(miss <= 0.35, "{kind}: deadline-miss rate {miss:.3} > 0.35");
        let ttft = rep.ttft_steps_p(0.99);
        assert!(ttft <= 96, "{kind}: TTFT p99 {ttft} steps > 96");
    }
}

#[test]
fn tokens_and_counters_are_identical_across_batch_caps() {
    runtime::reset();
    let model = tiny_model();
    // Deadline-free kinds: every request finishes naturally at any batch
    // cap, so the full outcome set must be batch-independent.
    for kind in [TraceKind::Bursty, TraceKind::Chat, TraceKind::Summarize] {
        let trace = trace_for(kind, 7);
        let baseline = replay_trace(&model, &trace, 2);
        for max_batch in [4usize, 8] {
            let run = replay_trace(&model, &trace, max_batch);
            assert_eq!(run.outcomes.len(), baseline.outcomes.len());
            for (a, b) in run.outcomes.iter().zip(&baseline.outcomes) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.tokens, b.tokens,
                    "{kind}: request {} tokens changed with batch cap {max_batch}",
                    a.id
                );
                assert_eq!(a.finish, b.finish);
            }
            assert_eq!(run.counters.submitted, baseline.counters.submitted);
            assert_eq!(run.counters.finished, baseline.counters.finished);
            assert_eq!(run.counters.expired, 0);
            assert_eq!(
                run.counters.tokens_generated,
                baseline.counters.tokens_generated
            );
        }
    }
}

/// Chat-trace regression for prefix sharing: multi-turn sessions replay
/// their history, so with the prefix cache on later turns adopt the
/// earlier turn's KV blocks copy-on-write. Tokens must not move at all;
/// the cache must actually engage (`prefix_hit_rate > 0`) and concurrent
/// turns mapping the same physical blocks must lower the deduplicated
/// peak KV footprint strictly below the private-blocks replay.
#[test]
fn chat_trace_prefix_sharing_reuses_blocks_without_changing_tokens() {
    runtime::reset();
    let cfg = model_config();
    let model = tiny_model();
    // Enough sessions that turns sharing a history overlap in flight at
    // the peak step (a handful of sessions rarely line that up).
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        11,
        24,
        cfg.vocab,
        cfg.max_seq,
    ));
    let kv = KvBlockConfig {
        block_tokens: 8,
        max_blocks: 0,
    };
    let off = replay_trace(&model.clone().with_kv_config(kv), &trace, 8);
    let on = replay_trace(
        &model.clone().with_kv_config(kv).with_prefix_cache(true),
        &trace,
        8,
    );

    assert_eq!(off.outcomes.len(), on.outcomes.len());
    for (a, b) in off.outcomes.iter().zip(&on.outcomes) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.tokens, b.tokens,
            "prefix sharing changed tokens of request {}",
            a.id
        );
        assert_eq!(a.finish, b.finish);
    }
    assert_eq!(off.counters.prefix_hits, 0);
    assert!(
        on.counters.prefix_hit_rate() > 0.0,
        "chat trace must hit the prefix cache (hits {})",
        on.counters.prefix_hits
    );
    assert!(
        on.counters.prefix_tokens_reused >= on.counters.prefix_hits * kv.block_tokens as u64,
        "every hit adopts at least one full block"
    );
    assert!(
        on.counters.kv_peak_bytes < off.counters.kv_peak_bytes,
        "sharing must strictly lower peak KV ({} vs {})",
        on.counters.kv_peak_bytes,
        off.counters.kv_peak_bytes
    );
}

/// One engine behind the router must reproduce the virtual-clock replay
/// of `trace` over `model`, whatever the batch cap and admission capacity.
/// Requests that finished naturally in both runs carry the same tokens.
/// Without deadlines every request must finish naturally in both, so every
/// request's tokens and every counter must agree.
fn live_replay_matches_step_replay(model: &PalettizedModel, trace: &Trace) {
    let kind = trace.config().kind;
    let step = replay_trace(model, trace, 4);

    // Two engine shapes: different batch caps and admission capacities
    // change thread interleavings and queue pressure, never tokens.
    for (max_batch, queue_capacity) in [(4usize, 10usize), (8, 2)] {
        let eng = live_replay(
            vec![model.clone()],
            trace,
            EngineConfig {
                max_batch,
                queue_capacity,
            },
        );
        let stats = &eng.cluster.replicas[0].1;
        assert_eq!(eng.outcomes.len(), step.outcomes.len());
        for (e, s) in eng.outcomes.iter().zip(&step.outcomes) {
            assert_eq!(e.id, s.id);
            let natural = !e.finish.is_aborted() && !s.finish.is_aborted();
            if natural || !trace.has_deadlines() {
                assert_eq!(
                    e.tokens, s.tokens,
                    "{kind}: engine (batch {max_batch}, queue {queue_capacity}) \
                     diverged from the virtual-clock replay on request {}",
                    e.id
                );
            }
        }
        assert_eq!(stats.submitted, step.counters.submitted);
        assert_eq!(stats.cancelled, 0);
        if !trace.has_deadlines() {
            assert_eq!(stats.finished, step.counters.finished);
            assert_eq!(stats.expired, 0);
            assert_eq!(stats.tokens_generated, step.counters.tokens_generated);
        }
        assert_eq!(stats.kv_live_bytes, 0, "drained engine leaked KV");
    }
}

#[test]
fn engine_replay_matches_step_replay_across_worker_interleavings() {
    runtime::reset();
    let model = tiny_model();
    live_replay_matches_step_replay(&model, &trace_for(TraceKind::Chat, 11));
    // Every kind over a bounded pool (8-token blocks, three of the largest
    // request), so preemption and admission stalls replay live too.
    for kind in TraceKind::ALL {
        let trace = trace_for(kind, 11);
        live_replay_matches_step_replay(&bounded(&model, &trace), &trace);
    }
}

#[test]
fn cluster_replay_is_token_identical_to_engine_replay_at_any_replica_count() {
    runtime::reset();
    let model = tiny_model();
    let trace = trace_for(TraceKind::Chat, 42);
    let kv = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };
    let replica = || model.clone().with_kv_config(kv).with_prefix_cache(true);
    // The reference is the scheduler itself on the virtual clock: no
    // router, no engine thread.
    let bare = replay_trace(&replica(), &trace, 4);
    for replicas in [1usize, 2, 4] {
        let rep = live_replay(
            (0..replicas).map(|_| replica()).collect(),
            &trace,
            EngineConfig {
                max_batch: 4,
                queue_capacity: trace.requests().len(),
            },
        );
        assert_eq!(rep.outcomes.len(), bare.outcomes.len());
        for (c, b) in rep.outcomes.iter().zip(&bare.outcomes) {
            assert_eq!(c.id, b.id);
            assert_eq!(
                c.tokens, b.tokens,
                "{replicas}-replica cluster diverged from the bare engine \
                 on request {}",
                c.id
            );
        }
    }
}

#[test]
fn affinity_routing_lowers_fleet_resident_kv_peak() {
    runtime::reset();
    let model = tiny_model();
    let cfg = model_config();
    // Enough chat sessions that placement matters.
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        7,
        24,
        cfg.vocab,
        cfg.max_seq,
    ));
    let kv = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };
    let replica = || model.clone().with_kv_config(kv).with_prefix_cache(true);
    let step = replay_trace(&replica(), &trace, 8);
    let run = |affinity: bool| -> (usize, f64) {
        let fleet: Vec<PalettizedModel> = (0..4).map(|_| replica()).collect();
        let cluster = Cluster::new(
            fleet,
            ClusterConfig {
                engine: EngineConfig {
                    max_batch: 8,
                    queue_capacity: trace.requests().len(),
                },
                affinity,
                ..ClusterConfig::default()
            },
        );
        let rep = replay_router(&cluster.handle(), &trace);
        let peak = cluster.resident_peak_bytes();
        cluster.shutdown();
        // Placement never changes sampled output.
        assert_eq!(rep.outcomes.len(), step.outcomes.len());
        for (c, s) in rep.outcomes.iter().zip(&step.outcomes) {
            assert_eq!(c.id, s.id);
            assert_eq!(
                c.tokens, s.tokens,
                "affinity {affinity}: request {} diverged from the step replay",
                c.id
            );
        }
        (peak, rep.cluster.affinity_hit_rate())
    };
    let (peak_on, hit_rate) = run(true);
    let (peak_off, _) = run(false);
    assert!(hit_rate > 0.0, "chat turns should rediscover their replica");
    assert!(
        peak_on < peak_off,
        "sticky sessions dedup their history into one radix index, so the \
         fleet must hold strictly less resident KV with affinity on \
         ({peak_on} B) than off ({peak_off} B)"
    );
}
