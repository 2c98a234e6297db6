//! Failure injection across crates: simulated device-capacity exhaustion
//! (the paper's motivating constraint — the dense DKM attention map does
//! not fit on real hardware), corrupt serialized artifacts, and API misuse.

use edkm::autograd::SavedTensorHooks;
use edkm::core::pipeline::CompressedTensor;
use edkm::core::{
    AffineQuantized, CompressSpec, CompressedModel, CompressionPipeline, EdkmConfig, EdkmHooks,
    PalettizedTensor,
};
use edkm::nn::{LlamaConfig, LlamaModel};
use edkm::tensor::{runtime, DType, Device, Tensor};
use proptest::prelude::*;

/// The Table 1 scenario under a CPU budget: the naive offload of a tensor
/// and its view would have OOMed a 5 MB host budget, while marshaling fits.
#[test]
fn naive_offload_blows_budget_marshaling_fits() {
    // Baseline: two independent 4 MB copies against a 5 MB budget.
    runtime::reset();
    runtime::set_device_capacity(Device::Cpu, 5 << 20);
    let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 0);
    let x1 = x0.reshape(&[1024 * 1024, 1]);
    let hooks = EdkmHooks::new(EdkmConfig::baseline());
    let _p0 = hooks.pack(&x0);
    assert!(runtime::device_fits(Device::Cpu), "first copy fits");
    let _p1 = hooks.pack(&x1);
    assert!(
        !runtime::device_fits(Device::Cpu),
        "duplicate copy must blow the 5 MB budget"
    );
    assert_eq!(runtime::device_oom_events(Device::Cpu), 1);

    // Marshaling: the view is a reference, not a copy.
    runtime::reset();
    runtime::set_device_capacity(Device::Cpu, 5 << 20);
    let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 0);
    let x1 = x0.reshape(&[1024 * 1024, 1]);
    let hooks = EdkmHooks::new(EdkmConfig::marshal_only());
    let _p0 = hooks.pack(&x0);
    let _p1 = hooks.pack(&x1);
    assert!(
        runtime::device_fits(Device::Cpu),
        "marshaled saves must stay within budget"
    );
}

/// GPU capacity accounting sees the model's own allocations too.
#[test]
fn gpu_budget_flags_oversized_allocations() {
    runtime::reset();
    runtime::set_device_capacity(Device::gpu(), 1 << 20); // 1 MB
    let _t = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 1); // 4 MB
    assert!(!runtime::device_fits(Device::gpu()));
    // CPU budget is independent.
    assert!(runtime::device_fits(Device::Cpu));
}

#[test]
fn corrupted_compressed_model_is_rejected_not_misread() {
    runtime::reset();
    let model = LlamaModel::new(LlamaConfig::tiny(), DType::Bf16, Device::Cpu, 0);
    let mut spec = CompressSpec::with_bits(3);
    spec.dkm.iters = 2;
    let bytes = CompressionPipeline::new(spec).export(&model).to_bytes();

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(
        CompressedModel::from_bytes(&bad).is_err(),
        "bad magic must fail"
    );

    // Truncations at every prefix length must error, never panic.
    for cut in [0, 1, 7, 8, 9, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            CompressedModel::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // The pristine buffer still decodes.
    assert!(CompressedModel::from_bytes(&bytes).is_ok());
}

/// Compressing and applying across models with different architectures is
/// a usage error that must be caught loudly.
#[test]
#[should_panic(expected = "size mismatch")]
fn applying_to_mismatched_architecture_panics() {
    runtime::reset();
    let small = LlamaModel::new(LlamaConfig::tiny(), DType::Bf16, Device::Cpu, 0);
    let mut spec = CompressSpec::with_bits(3);
    spec.dkm.iters = 2;
    let compressed = CompressionPipeline::new(spec).export(&small);

    let mut bigger_cfg = LlamaConfig::tiny();
    bigger_cfg.d_model *= 2;
    bigger_cfg.n_heads *= 2;
    let bigger = LlamaModel::new(bigger_cfg, DType::Bf16, Device::Cpu, 0);
    compressed.apply_to(&bigger);
}

/// An arbitrary synthetic container: one palettized entry at an arbitrary
/// palette size/bit width, one affine entry, one native entry.
fn arbitrary_container(bits: u8, k: usize, rows: usize, cols: usize, seed: u64) -> CompressedModel {
    let w = Tensor::randn(&[rows, cols], DType::F32, Device::Cpu, seed);
    let centroids = Tensor::randn(&[k, 1], DType::F32, Device::Cpu, seed ^ 0xABCD);
    let pal = PalettizedTensor::from_nearest(&w, &centroids, bits, 1);
    let e = Tensor::randn(&[rows, cols], DType::F32, Device::Cpu, seed ^ 0x1234);
    let aff = AffineQuantized::encode(&e, 1 + (bits % 8));
    let norm = Tensor::randn(&[cols], DType::Bf16, Device::Cpu, seed ^ 0x77);
    CompressedModel::from_entries(vec![
        ("proj".into(), CompressedTensor::Palettized(pal)),
        ("embed".into(), CompressedTensor::Affine(aff)),
        (
            "norm".into(),
            CompressedTensor::Native {
                values: norm.to_vec(),
                shape: vec![cols],
            },
        ),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary palette sizes and bit widths round-trip the container
    /// exactly: same entry names, decoded values, and accounted sizes.
    #[test]
    fn prop_container_roundtrips_arbitrary_palettes(
        bits in 1u8..=16,
        kf in 0.0f64..1.0,
        rows in 1usize..10,
        cols in 1usize..12,
        seed in any::<u64>(),
    ) {
        runtime::reset();
        let k_max = (1usize << bits).min(64);
        let k = 1 + ((kf * k_max as f64) as usize).min(k_max - 1);
        let m = arbitrary_container(bits, k, rows, cols, seed);
        let back = CompressedModel::from_bytes(&m.to_bytes()).expect("roundtrip");
        prop_assert_eq!(back.entries().len(), m.entries().len());
        for ((n1, e1), (n2, e2)) in m.entries().iter().zip(back.entries()) {
            prop_assert_eq!(n1, n2);
            prop_assert_eq!(e1.decode_values(), e2.decode_values());
            prop_assert_eq!(e1.size_bytes(), e2.size_bytes());
        }
    }

    /// Any truncation yields a typed `DecodeError`, never a panic.
    #[test]
    fn prop_truncation_yields_typed_error(
        cut_f in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        runtime::reset();
        let bytes = arbitrary_container(3, 5, 4, 6, seed).to_bytes();
        let cut = ((cut_f * bytes.len() as f64) as usize).min(bytes.len() - 1);
        prop_assert!(CompressedModel::from_bytes(&bytes[..cut]).is_err());
    }

    /// Any single bit flip yields a typed `DecodeError` (the v2 integrity
    /// trailer catches whatever the structural checks let through), never a
    /// panic and never a silently corrupted model.
    #[test]
    fn prop_bit_flip_yields_typed_error(
        pos_f in 0.0f64..1.0,
        bit in 0u8..8,
        seed in any::<u64>(),
    ) {
        runtime::reset();
        let mut bytes = arbitrary_container(4, 9, 3, 8, seed).to_bytes();
        let pos = ((pos_f * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        prop_assert!(CompressedModel::from_bytes(&bytes).is_err());
    }
}

/// Mid-workload cancel storm: replay a chat trace through the live engine,
/// cancel a seeded-random half of the in-flight streams once tokens are
/// flowing, and require (a) zero leaked KV blocks at drain, (b) every
/// surviving stream bit-identical to an undisturbed virtual-clock replay,
/// and (c) every cancelled stream a strict prefix of its undisturbed
/// counterpart.
#[test]
fn cancel_storm_leaks_nothing_and_leaves_survivors_bit_identical() {
    use edkm::core::{
        EngineConfig, FinishReason, PalettizedModel, Request, ServeEngine, TokenEvent,
    };
    use edkm::workload::{replay_trace, Trace, TraceConfig, TraceKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    runtime::reset();
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
    let model = PalettizedModel::from_dense(&dense, &spec).expect("servable export");
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        5,
        12,
        cfg.vocab,
        cfg.max_seq,
    ));

    // Reference: the same trace with nobody pulling the plug, on the
    // scheduler's virtual clock.
    let undisturbed = replay_trace(&model, &trace, 4);

    // Storm run: submit everything, then cancel a random half mid-flight.
    let engine = ServeEngine::new(
        model,
        EngineConfig {
            max_batch: 4,
            queue_capacity: trace.requests().len(),
        },
    );
    let handle = engine.handle();
    let mut streams = Vec::new();
    for r in trace.requests() {
        let req = Request::new(r.prompt.clone())
            .max_new_tokens(r.max_new)
            .sampling(r.sampling)
            .priority(r.priority);
        let (rid, stream) = handle.submit(req).expect("engine accepts the trace");
        streams.push((r.id, rid, stream));
    }
    let mut rng = StdRng::seed_from_u64(17);
    let mut order: Vec<usize> = (0..streams.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    let victims: Vec<usize> = order[..streams.len() / 2].to_vec();
    let t0 = std::time::Instant::now();
    while handle.stats().tokens_generated == 0 && t0.elapsed().as_secs() < 5 {
        std::thread::yield_now();
    }
    for &v in &victims {
        handle.cancel(streams[v].1);
    }

    let mut outcomes = Vec::new();
    for (trace_id, _, mut stream) in streams {
        let mut resp = None;
        while let Some(ev) = stream.next_event() {
            if let TokenEvent::Finished(r) = ev {
                resp = Some(r);
            }
        }
        outcomes.push((trace_id, resp.expect("terminal event")));
    }
    outcomes.sort_by_key(|(id, _)| *id);

    for ((id, resp), want) in outcomes.iter().zip(&undisturbed.outcomes) {
        assert_eq!(*id, want.id);
        if resp.finish == FinishReason::Cancelled {
            assert!(
                want.tokens.starts_with(&resp.tokens),
                "request {id}: a cancelled stream must be a prefix of the \
                 undisturbed run, got {:?} vs {:?}",
                resp.tokens,
                want.tokens
            );
        } else {
            assert_eq!(
                resp.tokens, want.tokens,
                "request {id}: a stream that survived the cancel storm must \
                 be bit-identical to the undisturbed run"
            );
        }
    }

    let stats = handle.stats();
    engine.shutdown();
    assert_eq!(stats.kv_live_bytes, 0, "cancel storm leaked KV blocks");
    assert_eq!(
        stats.finished + stats.cancelled + stats.expired,
        stats.submitted,
        "retirement classes must partition submissions after the storm"
    );
}

/// Kill one replica of a three-replica fleet mid-replay. No request may be
/// lost and no token duplicated: every stream — including those that were
/// in flight on the dead engine and failed over — must deliver strictly
/// consecutive token indices, finish naturally, and match an undisturbed
/// single-engine run bit for bit (sampling is per-request-seeded, so a
/// re-dispatched request regenerates the same tokens). The dead replica's
/// block ledger must audit to zero.
#[test]
fn killed_replica_mid_replay_loses_no_request_and_leaks_no_block() {
    use edkm::cluster::{Cluster, ClusterConfig, ReplicaState};
    use edkm::core::{
        EngineConfig, KvBlockConfig, PalettizedModel, Request, SamplingConfig, ServeEngine,
        TokenEvent,
    };
    use edkm::workload::{Trace, TraceConfig, TraceKind};

    runtime::reset();
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
    let model = PalettizedModel::from_dense(&dense, &spec).expect("servable export");
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        5,
        12,
        cfg.vocab,
        cfg.max_seq,
    ));
    let kv = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };

    // Nine long "anchor" requests (load-aware dispatch spreads them ~3 per
    // replica) keep every engine busy for ~hundreds of decode steps, so
    // the kill below can catch replica 0 with work in flight — the short
    // chat requests alone drain too fast to kill reliably.
    let mut requests: Vec<Request> = (0..9u64)
        .map(|i| {
            Request::new(vec![1 + i as usize])
                .max_new_tokens(cfg.max_seq - 1)
                .sampling(SamplingConfig::with_top_k(0.8, 8, 1000 + i))
        })
        .collect();
    for r in trace.requests() {
        requests.push(
            Request::new(r.prompt.clone())
                .max_new_tokens(r.max_new)
                .sampling(r.sampling)
                .priority(r.priority),
        );
    }
    let engine_cfg = EngineConfig {
        max_batch: 4,
        queue_capacity: requests.len(),
    };

    // Reference: the same requests on one engine, nobody pulling the plug.
    let reference: Vec<Vec<usize>> = {
        let engine = ServeEngine::new(model.clone().with_kv_config(kv), engine_cfg);
        let handle = engine.handle();
        let streams: Vec<_> = requests
            .iter()
            .map(|r| handle.submit(r.clone()).expect("engine accepts").1)
            .collect();
        let tokens = streams
            .into_iter()
            .map(|mut s| s.wait().expect("finishes").tokens)
            .collect();
        engine.shutdown();
        tokens
    };

    // The kill-window race is real: on a loaded machine the fleet can
    // drain the whole request set before this thread lands the kill. The
    // correctness assertions (bit-identical tokens, exact-once indices,
    // zero-leak ledger) hold on every attempt; only catching the fleet
    // mid-flight (`rerouted >= 1`) may need another try.
    let mut rerouted = 0u64;
    for _attempt in 0..5 {
        // No prefix cache on the fleet: the radix index retains blocks
        // past retirement (they count in `blocks_in_use`), which would
        // mask the zero-leak audit on the dead replica's ledger.
        let fleet: Vec<PalettizedModel> =
            (0..3).map(|_| model.clone().with_kv_config(kv)).collect();
        let mut cluster = Cluster::new(
            fleet,
            ClusterConfig {
                engine: engine_cfg,
                ..ClusterConfig::default()
            },
        );
        let router = cluster.handle();
        let mut streams = Vec::new();
        for (pos, req) in requests.iter().enumerate() {
            let (rid, stream) = router
                .submit(req.clone())
                .expect("router accepts the trace");
            streams.push((pos, rid, stream));
        }

        // Yank replica 0 once it has emitted tokens with work still in
        // flight (its anchors alone run for ~hundreds of steps).
        let t0 = std::time::Instant::now();
        loop {
            let stats = router.stats();
            let (_, r0) = &stats.replicas[0];
            let in_flight = r0.submitted - r0.finished - r0.cancelled - r0.expired;
            if (r0.tokens_generated > 0 && in_flight > 0) || t0.elapsed().as_secs() >= 5 {
                break;
            }
            std::thread::yield_now();
        }
        cluster.kill(0);
        assert_eq!(cluster.replica_state(0), ReplicaState::Dead);

        let mut outcomes = Vec::new();
        for (pos, _rid, mut stream) in streams {
            let mut next = 0usize;
            let mut resp = None;
            while let Some(ev) = stream.next_event() {
                match ev {
                    TokenEvent::Token { index, .. } => {
                        assert_eq!(
                            index, next,
                            "request {pos}: failover must neither duplicate \
                             nor skip a token index"
                        );
                        next += 1;
                    }
                    TokenEvent::Finished(r) => {
                        assert!(resp.is_none(), "exactly one terminal event per stream");
                        resp = Some(r);
                    }
                }
            }
            outcomes.push((pos, resp.expect("every request survives the kill")));
        }

        for (pos, resp) in &outcomes {
            assert!(
                !resp.finish.is_aborted(),
                "request {pos}: a kill must re-dispatch, not abort ({:?})",
                resp.finish
            );
            assert_eq!(
                resp.tokens, reference[*pos],
                "request {pos}: tokens after failover must be bit-identical \
                 to the undisturbed run"
            );
        }

        assert_eq!(
            cluster.pool(0).blocks_in_use(),
            0,
            "dead replica's block ledger must audit to zero"
        );
        rerouted = router.stats().rerouted;
        cluster.shutdown();
        if rerouted >= 1 {
            break;
        }
    }
    assert!(
        rerouted >= 1,
        "killing a replica with tokens flowing must re-dispatch something \
         in at least one of five attempts"
    );
}

/// Budgets reset with the runtime: a fresh runtime has no capacity and no
/// stale OOM events.
#[test]
fn reset_clears_capacity_and_oom_state() {
    runtime::reset();
    runtime::set_device_capacity(Device::Cpu, 16);
    let _v = Tensor::rand(&[1024], DType::F32, Device::Cpu, 2);
    assert!(!runtime::device_fits(Device::Cpu));
    runtime::reset();
    assert!(runtime::device_fits(Device::Cpu));
    assert_eq!(runtime::device_oom_events(Device::Cpu), 0);
    let _v = Tensor::rand(&[1024], DType::F32, Device::Cpu, 2);
    assert!(
        runtime::device_fits(Device::Cpu),
        "no capacity => unlimited"
    );
}

/// The chaos plan is a pure function of its inputs: regenerating under
/// the same `(profile, seed, replicas, horizon)` must reproduce the exact
/// bytes, and each knob must change them.
#[test]
fn fault_plans_replay_byte_identically() {
    use edkm::chaos::{FaultPlan, FaultProfile};
    for profile in FaultProfile::ALL {
        let a = FaultPlan::generate(profile, 7, 4, 400);
        let b = FaultPlan::generate(profile, 7, 4, 400);
        assert_eq!(a.to_bytes(), b.to_bytes(), "{profile}: bytes must match");
        assert_eq!(a.fingerprint(), b.fingerprint(), "{profile}: fingerprint");
        assert_ne!(
            a.fingerprint(),
            FaultPlan::generate(profile, 8, 4, 400).fingerprint(),
            "{profile}: the seed must matter"
        );
    }
}

/// The acceptance gate of the chaos subsystem: replay one fixed trace
/// under every shipped fault profile, with the prefix cache off and on,
/// and assert that faults were actually applied and the global
/// invariants held — no request lost, no duplicate or skipped token
/// index, survivors bit-identical to the tokens their requests produce
/// run to their natural end, and every KV pool back at its ledger
/// baseline at drain.
#[test]
fn chaos_profiles_preserve_global_invariants() {
    use edkm::chaos::{FaultPlan, FaultProfile};
    use edkm::core::EngineConfig;
    use edkm::core::{CompressSpec, KvBlockConfig, PalettizedModel};
    use edkm::workload::{
        audit_invariants, fault_horizon, replay_cluster_chaos, ChaosReplayConfig, Trace,
        TraceConfig, TraceKind,
    };

    runtime::reset();
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
    let model = PalettizedModel::from_dense(&dense, &spec).expect("servable export");
    let kv = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Mixed,
        11,
        16,
        cfg.vocab,
        cfg.max_seq,
    ));

    // Size the fault band as `edkm serve` does, so the plan's faults land
    // while this short trace is still in flight.
    let max_batch = 4;
    let horizon = fault_horizon(&trace, max_batch);

    for (profile, prefix_cache) in FaultProfile::ALL
        .into_iter()
        .flat_map(|p| [(p, false), (p, true)])
    {
        let plan = FaultPlan::generate(profile, 7, 3, horizon);
        let report = replay_cluster_chaos(
            || {
                model
                    .clone()
                    .with_kv_config(kv)
                    .with_prefix_cache(prefix_cache)
            },
            3,
            &trace,
            &plan,
            ChaosReplayConfig {
                engine: EngineConfig {
                    max_batch,
                    queue_capacity: 32,
                },
                affinity: true,
            },
        );
        let profile = format!("{profile} (prefix cache {prefix_cache})");
        assert!(
            !report.faults.is_empty(),
            "{profile}: the trace drained before any of the plan's {} \
             fault(s) fired",
            plan.events().len()
        );
        assert_eq!(
            report.plan_fingerprint,
            plan.fingerprint(),
            "{profile}: the report pins the plan it actually injected"
        );
        let violations = audit_invariants(&report);
        assert!(
            violations.is_empty(),
            "{profile}: robustness invariants violated: {violations:?}\n\
             faults applied: {:?}",
            report.faults
        );
        assert_eq!(report.requests_lost(), 0, "{profile}: zero lost");
        assert_eq!(
            report.replay.index_violations, 0,
            "{profile}: exact-once indices"
        );
        assert!(
            report.survivors_bit_identical,
            "{profile}: survivors must match their natural-end tokens"
        );
        assert!(report.pools_at_baseline, "{profile}: ledgers at baseline");
    }
}
