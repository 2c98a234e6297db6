//! Property suite for [`StatsSnapshot`] accounting: under arbitrary
//! submit/cancel/deadline interleavings, once every stream has delivered
//! its terminal event the engine's books must balance —
//! `finished + cancelled + expired == submitted`, no KV bytes left
//! charged, and the TTFT histogram counting exactly the requests that
//! emitted at least one token. `spec_proposed` reads 0 throughout.
//!
//! [`StatsSnapshot`]: edkm::core::StatsSnapshot

use edkm::core::{
    CompressSpec, EngineConfig, KvBlockConfig, PalettizedModel, Priority, Request, SamplingConfig,
    ServeEngine, TokenEvent,
};
use edkm::nn::{LlamaConfig, LlamaModel};
use edkm::tensor::{DType, Device};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One generated request of the interleaving: shape, optional deadline,
/// and whether the driver cancels it right after submission.
#[derive(Debug, Clone, Copy)]
struct Op {
    prompt_len: usize,
    max_new: usize,
    deadline_steps: Option<u64>,
    priority: Priority,
    cancel: bool,
}

impl Op {
    /// Decode an arbitrary word into an op (the offline proptest shim has
    /// no `prop_map`, so structure comes from bit-slicing raw draws).
    fn decode(w: u64) -> Op {
        Op {
            prompt_len: 1 + (w & 0x7) as usize % 5,
            max_new: 1 + ((w >> 3) & 0x7) as usize % 5,
            deadline_steps: if (w >> 6) & 1 == 1 {
                Some(1 + ((w >> 7) & 0x7))
            } else {
                None
            },
            priority: match (w >> 10) % 3 {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            },
            cancel: (w >> 12) & 1 == 1,
        }
    }
}

/// The shared serve model (tiny and untrained — accounting invariants are
/// properties of the engine, not of model quality).
fn model() -> &'static PalettizedModel {
    static MODEL: OnceLock<PalettizedModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = LlamaConfig {
            vocab: 64,
            d_model: 32,
            n_heads: 2,
            n_layers: 2,
            d_ff: 64,
            max_seq: 48,
        };
        let dense = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 0);
        let mut spec = CompressSpec::with_bits(3);
        spec.dkm.iters = 2;
        PalettizedModel::from_dense(&dense, &spec).expect("servable export")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_stats_accounting_balances_at_drain(
        ops_raw in proptest::collection::vec(any::<u64>(), 1..10),
        max_batch in 1usize..5,
        seed in any::<u64>(),
    ) {
        let ops: Vec<Op> = ops_raw.iter().map(|&w| Op::decode(w)).collect();
        let config = EngineConfig {
            max_batch,
            queue_capacity: ops.len(),
        };
        // A third of the interleavings run with the prefix cache on (over
        // a private pool so cases stay independent). The books must
        // balance either way.
        let featured = seed.is_multiple_of(3);
        let served = if featured {
            model()
                .clone()
                .with_kv_config(KvBlockConfig {
                    block_tokens: 8,
                    max_blocks: 0,
                })
                .with_prefix_cache(true)
        } else {
            model().clone()
        };
        let engine = ServeEngine::new(served, config);
        let handle = engine.handle();
        let mut streams = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let prompt: Vec<usize> =
                (0..op.prompt_len).map(|t| (t * 7 + i) % 64).collect();
            let mut request = Request::new(prompt)
                .max_new_tokens(op.max_new)
                .sampling(if seed.is_multiple_of(2) {
                    SamplingConfig::greedy()
                } else {
                    SamplingConfig::with_top_k(0.8, 8, seed ^ i as u64)
                })
                .priority(op.priority);
            if let Some(d) = op.deadline_steps {
                request = request.deadline_steps(d);
            }
            let (rid, stream) = handle.submit(request).expect("engine accepts");
            if op.cancel {
                // Cancel immediately: races admission, prefill, and decode
                // depending on worker timing — exactly the interleavings the
                // accounting must absorb.
                handle.cancel(rid);
            }
            streams.push(stream);
        }

        // Drain every stream, counting delivered tokens per request, and
        // snapshot the stats after each: the cumulative counters must be
        // monotone and internally consistent at every observation point,
        // not just at drain.
        let mut streams_with_tokens = 0u64;
        let mut terminals = 0u64;
        let mut prev = handle.stats();
        for mut stream in streams {
            let mut tokens = 0u64;
            while let Some(ev) = stream.next_event() {
                match ev {
                    TokenEvent::Token { .. } => tokens += 1,
                    TokenEvent::Finished(_) => terminals += 1,
                }
            }
            if tokens > 0 {
                streams_with_tokens += 1;
            }
            let snap = handle.stats();
            prop_assert!(snap.prefix_hits >= prev.prefix_hits);
            prop_assert!(snap.prefix_tokens_reused >= prev.prefix_tokens_reused);
            prop_assert_eq!(snap.spec_proposed, 0);
            prop_assert!(
                snap.prefix_tokens_reused >= snap.prefix_hits,
                "every prefix hit adopts at least one token"
            );
            prev = snap;
        }
        prop_assert_eq!(terminals, ops.len() as u64);

        // The worker publishes stats before each terminal delivery, so by
        // the time all streams are drained the books are final; poll only
        // to absorb the last publish's lock handoff.
        let deadline = Instant::now() + Duration::from_secs(5);
        let stats = loop {
            let s = handle.stats();
            if s.finished + s.cancelled + s.expired == s.submitted || Instant::now() > deadline {
                break s;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        engine.shutdown();

        prop_assert_eq!(stats.submitted, ops.len() as u64);
        prop_assert_eq!(
            stats.finished + stats.cancelled + stats.expired,
            stats.submitted,
            "retirement classes must partition submissions"
        );
        prop_assert_eq!(
            stats.kv_live_bytes,
            0,
            "drained engine still charges KV bytes"
        );
        prop_assert_eq!(
            stats.ttft_steps.total(),
            streams_with_tokens,
            "TTFT histogram must count exactly the requests that emitted \
             a first token"
        );
        prop_assert_eq!(stats.rejected_full, 0);
        prop_assert_eq!(stats.spec_proposed, 0);
        prop_assert!(stats.prefix_tokens_reused >= stats.prefix_hits);
        if !featured {
            prop_assert_eq!(stats.prefix_hits, 0);
            prop_assert_eq!(stats.prefix_tokens_reused, 0);
        }
    }
}

/// Deterministic end-to-end check that the prefix counters actually
/// populate through the engine: six greedy requests sharing a 16-token
/// prompt prefix, prefix cache on. Late admissions adopt the early
/// requests' prefill blocks.
#[test]
fn prefix_counters_populate_through_the_engine() {
    let m = model()
        .clone()
        .with_kv_config(KvBlockConfig {
            block_tokens: 8,
            max_blocks: 0,
        })
        .with_prefix_cache(true);
    let engine = ServeEngine::new(
        m,
        EngineConfig {
            max_batch: 2,
            queue_capacity: 6,
        },
    );
    let handle = engine.handle();
    let shared: Vec<usize> = (0..16).map(|t| (t * 5 + 3) % 64).collect();
    let mut streams = Vec::new();
    for i in 0..6usize {
        let mut prompt = shared.clone();
        prompt.push(i); // diverge after the shared prefix
        let (_, stream) = handle
            .submit(
                Request::new(prompt)
                    .max_new_tokens(8)
                    .sampling(SamplingConfig::greedy()),
            )
            .expect("engine accepts");
        streams.push(stream);
    }
    for mut s in streams {
        s.wait().expect("request finishes");
    }
    let stats = handle.stats();
    engine.shutdown();
    assert_eq!(stats.finished, 6);
    assert!(
        stats.prefix_hits > 0,
        "admissions behind a warm cache must hit ({:?} hits)",
        stats.prefix_hits
    );
    assert!(stats.prefix_tokens_reused >= stats.prefix_hits * 8);
    assert_eq!(stats.spec_proposed, 0);
    assert_eq!(stats.kv_live_bytes, 0, "drained engine still charges KV");
}
