//! Chaos replay: drive a trace and a [`FaultPlan`] through a live
//! [`Cluster`] together, and audit the global robustness invariants
//! afterwards.
//!
//! The harness owns the fleet on the calling thread and runs the trace
//! on a worker thread through [`replay_router`], the same driver every
//! live replay uses (losses are recorded there, not fatal). Meanwhile the
//! calling thread reads the **virtual step clock** (the fleet-wide
//! decode-step count), applies every [`FaultEvent`] whose step has come
//! due through the [`FaultHook`] seam, and restores each squeezed KV pool
//! once its time is up. Recovery is the router's own failover: a killed
//! replica stays dead, and its requests finish on the survivors.
//!
//! The resulting [`ChaosReplayReport`] carries exactly the invariants
//! the acceptance gate checks: `requests_lost == 0`, zero duplicate or
//! skipped token indices, survivors bit-identical to the tokens each
//! request produces run to its natural end, and every pool's block
//! ledger back at its prefix-cache baseline at drain.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::replay::{replay_router, replay_trace, ReplayReport, RequestOutcome};
use crate::trace::Trace;
use edkm_chaos::{FaultApplied, FaultEvent, FaultHook, FaultKind, FaultPlan};
use edkm_cluster::{Cluster, ClusterConfig};
use edkm_core::{EngineConfig, FinishReason, ServeModel};

/// How often the harness reads the step clock to fire due faults. A
/// small model runs a decode step in well under a millisecond, so a
/// slower read lets a fault due in a trace's last few steps find the
/// trace already drained.
const FAULT_POLL_INTERVAL: Duration = Duration::from_micros(250);

/// Sizing and policy of a chaos replay.
#[derive(Debug, Clone)]
pub struct ChaosReplayConfig {
    /// Per-replica engine sizing.
    pub engine: EngineConfig,
    /// Route follow-up prompts to the replica holding their prefix.
    pub affinity: bool,
}

impl Default for ChaosReplayConfig {
    fn default() -> Self {
        ChaosReplayConfig {
            engine: EngineConfig {
                max_batch: 4,
                queue_capacity: 64,
            },
            affinity: true,
        }
    }
}

/// One fault as it was actually applied during a chaos replay.
#[derive(Debug, Clone)]
pub struct AppliedFault {
    /// Virtual step at which the harness applied it (>= the scheduled
    /// step — faults fire on the first clock read at or after their step).
    pub at_step: u64,
    /// The scheduled event.
    pub event: FaultEvent,
    /// What the hook did with it.
    pub applied: FaultApplied,
}

/// Result of [`replay_cluster_chaos`]: the replay metrics plus the
/// robustness audit.
#[derive(Debug, Clone)]
pub struct ChaosReplayReport {
    /// Fingerprint of the injected [`FaultPlan`] — pin this to assert two
    /// runs faced the same schedule.
    pub plan_fingerprint: u64,
    /// The chaos run's replay: outcomes, losses, token-index violations,
    /// goodput and wall time.
    pub replay: ReplayReport,
    /// Requests that finished naturally under chaos.
    pub survivors: usize,
    /// `true` iff every survivor's token stream is bit-identical to the
    /// tokens its request produces run to its natural end.
    pub survivors_bit_identical: bool,
    /// `true` iff, at drain, every replica pool's `blocks_in_use` equals
    /// its prefix-cache-retained block count (no leaked blocks) and its
    /// capacity cap is back at its pre-squeeze baseline.
    pub pools_at_baseline: bool,
    /// Every fault as applied, in firing order.
    pub faults: Vec<AppliedFault>,
}

impl ChaosReplayReport {
    /// Number of requests the audit counts as lost.
    pub fn requests_lost(&self) -> u64 {
        self.replay.lost.len() as u64
    }
}

/// The virtual-step horizon a [`FaultPlan`] for `trace` spans: the
/// trace's total completion budget over the batch width, since
/// continuous batching decodes up to `max_batch` tokens per engine step.
pub fn fault_horizon(trace: &Trace, max_batch: usize) -> u64 {
    let total_new: usize = trace.requests().iter().map(|r| r.max_new).sum();
    (total_new / max_batch.max(1)) as u64
}

/// The tokens each request of `trace` produces run to its natural end:
/// [`replay_trace`] on the trace with its deadlines removed. A request
/// that finishes naturally under any placement, batching or fault
/// produces exactly these; one cut short by its deadline, a prefix.
fn reference_tokens<M: ServeModel>(
    model: &M,
    trace: &Trace,
    max_batch: usize,
) -> HashMap<u64, Vec<usize>> {
    replay_trace(model, &trace.without_deadlines(), max_batch)
        .outcomes
        .into_iter()
        .map(|o| (o.id, o.tokens))
        .collect()
}

/// Replay `trace` under `plan` through a fleet of `replicas` models from
/// `build` and audit the robustness invariants. See the module docs for
/// the architecture.
pub fn replay_cluster_chaos<M, F>(
    mut build: F,
    replicas: usize,
    trace: &Trace,
    plan: &FaultPlan,
    config: ChaosReplayConfig,
) -> ChaosReplayReport
where
    M: ServeModel + 'static,
    F: FnMut() -> M,
{
    let reference = reference_tokens(&build(), trace, config.engine.max_batch);

    let models: Vec<M> = (0..replicas).map(|_| build()).collect();
    // The scheduler's liveness precondition: a pool must always hold one
    // full-length request (it panics on a pool it can never drain). The
    // harness clamps every squeeze to that floor — the squeeze then
    // degrades service (contention, preemption, admission stalls) instead
    // of wedging a replica beyond recovery.
    let max_seq = models[0].config().max_seq;
    let mut cluster = Cluster::new(
        models,
        ClusterConfig {
            engine: config.engine,
            affinity: config.affinity,
            ..ClusterConfig::default()
        },
    );
    let baseline_caps: Vec<usize> = (0..replicas)
        .map(|r| cluster.pool(r).max_blocks())
        .collect();

    let router = cluster.handle();
    let trace_owned = trace.clone();
    let replay = std::thread::spawn(move || replay_router(&router, &trace_owned));

    let router = cluster.handle();
    let events = plan.events();
    let mut next_event = 0usize;
    // (due_step, wall_deadline, replica, cap) — pending KV-squeeze
    // restorations. The wall deadline is a liveness fallback: if every
    // decode on the fleet is blocked on squeezed pools, the virtual clock
    // freezes and a step-only restore would never come due.
    let mut restores: Vec<(u64, Instant, usize, usize)> = Vec::new();
    let mut faults = Vec::new();
    while !replay.is_finished() {
        let vstep: u64 = router
            .stats()
            .replicas
            .iter()
            .map(|(_, snap)| snap.decode_steps)
            .sum();

        while next_event < events.len() && events[next_event].step <= vstep {
            let mut event = events[next_event];
            next_event += 1;
            if let FaultKind::KvSqueeze {
                replica,
                ref mut blocks,
                ..
            } = event.kind
            {
                let floor = cluster.pool(replica).blocks_for(max_seq);
                *blocks = (*blocks).max(floor);
            }
            let applied = cluster.apply_fault(&event);
            if let (
                FaultApplied::KvSqueezed {
                    replica,
                    previous_blocks,
                },
                FaultKind::KvSqueeze { restore_after, .. },
            ) = (applied, event.kind)
            {
                restores.push((
                    vstep + restore_after,
                    Instant::now() + Duration::from_millis(500),
                    replica,
                    previous_blocks,
                ));
            }
            faults.push(AppliedFault {
                at_step: vstep,
                event,
                applied,
            });
        }

        restores.retain(|&(due, wall_deadline, replica, cap)| {
            if vstep >= due || Instant::now() >= wall_deadline {
                cluster.pool(replica).set_max_blocks(cap);
                false
            } else {
                true
            }
        });
        std::thread::sleep(FAULT_POLL_INTERVAL);
    }
    let replay = replay.join().expect("chaos replay thread");

    // Any squeeze still pending restoration is undone now, so the
    // capacity audit below checks real recovery, not scheduling luck.
    for (_, _, replica, cap) in restores.drain(..) {
        cluster.pool(replica).set_max_blocks(cap);
    }

    let survivors: Vec<&RequestOutcome> = replay
        .outcomes
        .iter()
        .filter(|o| !o.finish.is_aborted())
        .collect();
    let survivors_bit_identical = survivors
        .iter()
        .all(|o| reference.get(&o.id).is_some_and(|t| *t == o.tokens));
    let survivors = survivors.len();
    let pools_at_baseline = (0..replicas).all(|r| {
        let pool = cluster.pool(r);
        pool.blocks_in_use() == pool.prefix_cached_blocks() && pool.max_blocks() == baseline_caps[r]
    });
    cluster.shutdown();

    ChaosReplayReport {
        plan_fingerprint: plan.fingerprint(),
        replay,
        survivors,
        survivors_bit_identical,
        pools_at_baseline,
        faults,
    }
}

/// Audit a [`ChaosReplayReport`] against the robustness gate, returning
/// every violated invariant as a human-readable line (empty = pass).
pub fn audit_invariants(report: &ChaosReplayReport) -> Vec<String> {
    let mut violations = Vec::new();
    if !report.replay.lost.is_empty() {
        violations.push(format!("requests lost: {:?}", report.replay.lost));
    }
    if report.replay.index_violations > 0 {
        violations.push(format!(
            "token index violations (duplicate or skipped): {}",
            report.replay.index_violations
        ));
    }
    if !report.survivors_bit_identical {
        violations.push("survivor token streams diverge from their natural-end tokens".into());
    }
    if !report.pools_at_baseline {
        violations.push("a KV pool did not drain to its ledger baseline".into());
    }
    for o in &report.replay.outcomes {
        if o.finish == FinishReason::Cancelled {
            violations.push(format!("request {} was cancelled by the fault path", o.id));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceConfig, TraceKind};
    use edkm_core::{CompressSpec, KvBlockConfig, PalettizedModel};
    use edkm_nn::{LlamaConfig, LlamaModel};
    use edkm_tensor::{runtime, DType, Device};

    /// The reference runs every request to its natural end: on a trace
    /// whose tight deadlines expire on the virtual clock, each expired
    /// request's tokens are a proper prefix of its reference, each
    /// naturally finished one equals it, and every reference spends its
    /// whole completion budget (the trace sets no stop tokens).
    #[test]
    fn reference_runs_expiring_requests_to_their_natural_end() {
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
        let model = PalettizedModel::from_dense(&dense, &spec)
            .expect("servable export")
            .with_kv_config(KvBlockConfig {
                block_tokens: 4,
                max_blocks: 0,
            });
        let trace = Trace::generate(&TraceConfig::new(
            TraceKind::Classify,
            3,
            24,
            cfg.vocab,
            cfg.max_seq,
        ));
        let max_batch = 1;
        let with_deadlines = replay_trace(&model, &trace, max_batch);
        assert!(
            with_deadlines.counters.expired > 0,
            "the trace must expire some deadlines at batch {max_batch}"
        );

        let reference = reference_tokens(&model, &trace, max_batch);
        assert_eq!(reference.len(), trace.requests().len());
        for r in trace.requests() {
            assert_eq!(
                reference[&r.id].len(),
                r.prompt.len() + r.max_new,
                "request {} runs its whole budget",
                r.id
            );
        }
        for o in &with_deadlines.outcomes {
            let want = &reference[&o.id];
            if o.finish == FinishReason::DeadlineExceeded {
                assert!(
                    o.tokens.len() < want.len() && want[..o.tokens.len()] == o.tokens[..],
                    "request {}: an expired run is a proper prefix of its reference",
                    o.id
                );
            } else {
                assert_eq!(&o.tokens, want, "request {}", o.id);
            }
        }
    }
}
