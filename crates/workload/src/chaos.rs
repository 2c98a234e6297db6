//! Chaos replay: drive a trace and a [`FaultPlan`] through a live
//! [`Cluster`] together, with the [`Supervisor`] closing the loop, and
//! audit the global robustness invariants afterwards.
//!
//! The harness owns the fleet on the calling thread and runs the trace
//! on a worker thread through [`replay_router`], the same driver every
//! live replay uses (degrade-ladder sheds and losses are recorded there,
//! not fatal). Meanwhile the calling thread runs the supervision loop:
//! it advances the **virtual step clock** (the monotonic fleet-wide
//! decode-step count, respawn-proof via per-slot high-water bases),
//! applies every [`FaultEvent`] whose step has come due through the
//! [`FaultHook`] seam, schedules KV-squeeze restores, ticks the
//! [`Supervisor`] once per heartbeat, and applies its actions (gates,
//! drains, respawns — honouring deferred respawn bit-flips via the
//! caller's model factory — and degrade-ladder moves).
//!
//! The resulting [`ChaosReplayReport`] carries exactly the invariants
//! the acceptance gate checks: `requests_lost == 0`, zero duplicate or
//! skipped token indices, survivors bit-identical to an undisturbed
//! reference run of the same trace, and every pool's block ledger back
//! at its prefix-cache baseline at drain.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::replay::{replay_router, ReplayReport, RequestOutcome};
use crate::report::percentile_u64;
use crate::trace::Trace;
use edkm_chaos::{FaultApplied, FaultEvent, FaultHook, FaultKind, FaultPlan};
use edkm_cluster::supervisor::HEARTBEAT_INTERVAL;
use edkm_cluster::{Cluster, ClusterConfig, Supervisor, SupervisorAction, SupervisorConfig};
use edkm_core::{EngineConfig, FinishReason, ServeModel};

/// How often the supervision loop reads the step clock to fire due
/// faults. A heartbeat spans several decode steps of a small model, so a
/// fault due in a trace's last few steps would otherwise find the trace
/// already drained.
const FAULT_POLL_INTERVAL: Duration = Duration::from_micros(250);

/// Sizing and policy of a chaos replay.
#[derive(Debug, Clone)]
pub struct ChaosReplayConfig {
    /// Per-replica engine sizing.
    pub engine: EngineConfig,
    /// Route follow-up prompts to the replica holding their prefix.
    pub affinity: bool,
    /// Supervisor tuning (breaker thresholds, backoffs, ladder
    /// hysteresis). The supervisor seed is what makes recovery decisions
    /// replayable.
    pub supervisor: SupervisorConfig,
}

impl Default for ChaosReplayConfig {
    fn default() -> Self {
        ChaosReplayConfig {
            engine: EngineConfig {
                max_batch: 4,
                queue_capacity: 64,
            },
            affinity: true,
            supervisor: SupervisorConfig::default(),
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
    /// The chaos run's replay: outcomes, sheds, losses, token-index
    /// violations, goodput and wall time, with the fleet snapshot taken
    /// once the supervisor stopped.
    pub replay: ReplayReport,
    /// Requests that finished naturally under chaos.
    pub survivors: usize,
    /// `true` iff every survivor's token stream is bit-identical to the
    /// undisturbed reference run of the same trace.
    pub survivors_bit_identical: bool,
    /// `true` iff, at drain, every replica pool's `blocks_in_use` equals
    /// its prefix-cache-retained block count (no leaked blocks) and its
    /// capacity cap is back at its pre-squeeze baseline.
    pub pools_at_baseline: bool,
    /// Corrupted model loads rejected during respawn (bit-flip faults
    /// that the reload verification caught before retrying clean).
    pub corrupted_reloads: u64,
    /// Virtual steps from each replica kill to its completed respawn,
    /// ascending.
    pub recovery_steps: Vec<u64>,
    /// Every fault as applied, in firing order.
    pub faults: Vec<AppliedFault>,
}

impl ChaosReplayReport {
    /// p99 of kill-to-respawn recovery time, in virtual steps (0 when the
    /// plan killed nothing).
    pub fn recovery_p99_steps(&self) -> u64 {
        percentile_u64(&self.recovery_steps, 0.99)
    }

    /// Number of requests the audit counts as lost.
    pub fn requests_lost(&self) -> u64 {
        self.replay.lost.len() as u64
    }
}

/// Replay `trace` under `plan` through a supervised fleet and audit the
/// robustness invariants. See the module docs for the architecture.
///
/// `build(corrupt)` constructs one replica model; `corrupt = true` asks
/// for a bit-flipped load and **must** fail (the harness uses it to model
/// a container image corrupted on respawn — the reload verification
/// rejects it and the respawn retries clean). It is called once per
/// replica up front (clean), once per respawn, and once extra per
/// deferred bit-flip.
///
/// The harness first runs the same trace undisturbed on an identically
/// sized fleet to obtain the reference token streams survivors are
/// audited against.
pub fn replay_cluster_chaos<M, F>(
    mut build: F,
    replicas: usize,
    trace: &Trace,
    plan: &FaultPlan,
    config: ChaosReplayConfig,
) -> ChaosReplayReport
where
    M: ServeModel + 'static,
    F: FnMut(bool) -> Result<M, String>,
{
    let cluster_cfg = ClusterConfig {
        engine: config.engine,
        affinity: config.affinity,
        ..ClusterConfig::default()
    };

    // Reference run: the same trace, the same fleet shape, no faults.
    let reference: HashMap<u64, Vec<usize>> = {
        let models: Vec<M> = (0..replicas)
            .map(|_| build(false).expect("clean reference build"))
            .collect();
        let cluster = Cluster::new(models, cluster_cfg.clone());
        let out = replay_router(&cluster.handle(), trace);
        cluster.shutdown();
        out.outcomes.into_iter().map(|o| (o.id, o.tokens)).collect()
    };

    // Chaos run.
    let models: Vec<M> = (0..replicas)
        .map(|_| build(false).expect("clean build"))
        .collect();
    // The scheduler's liveness precondition: a pool must always hold one
    // full-length request (it panics on a pool it can never drain). The
    // harness clamps every squeeze to that floor — the squeeze then
    // degrades service (contention, preemption, admission stalls) instead
    // of wedging a replica beyond recovery.
    let max_seq = models[0].config().max_seq;
    let mut cluster = Cluster::new(models, cluster_cfg);
    let baseline_caps: Vec<usize> = (0..replicas)
        .map(|r| cluster.pool(r).max_blocks())
        .collect();
    let mut supervisor = Supervisor::new(replicas, config.supervisor.clone());

    let router = cluster.handle();
    let trace_owned = trace.clone();
    let replay = std::thread::spawn(move || replay_router(&router, &trace_owned));

    let router = cluster.handle();
    let events = plan.events();
    let mut next_event = 0usize;
    // Virtual step clock, respawn-proof: per-slot high-water base plus
    // the slot's current (resetting) decode_steps counter.
    let mut bases = vec![0u64; replicas];
    let mut lasts = vec![0u64; replicas];
    // (due_step, wall_deadline, replica, cap) — pending KV-squeeze
    // restorations. The wall deadline is a liveness fallback: if every
    // decode on the fleet is blocked on squeezed pools, the virtual clock
    // freezes and a step-only restore would never come due.
    let mut restores: Vec<(u64, Instant, usize, usize)> = Vec::new();
    let mut bitflip = vec![false; replicas];
    let mut kill_at: HashMap<usize, u64> = HashMap::new();
    let mut recovery_steps = Vec::new();
    let mut corrupted_reloads = 0u64;
    let mut faults = Vec::new();
    let mut next_heartbeat = Instant::now();
    while !replay.is_finished() {
        let stats = router.stats();
        for (i, (_, snap)) in stats.replicas.iter().enumerate().take(replicas) {
            if snap.decode_steps < lasts[i] {
                bases[i] += lasts[i];
            }
            lasts[i] = snap.decode_steps;
        }
        let vstep: u64 = bases.iter().sum::<u64>() + lasts.iter().sum::<u64>();

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
            match applied {
                FaultApplied::Killed { replica } => {
                    kill_at.insert(replica, vstep);
                }
                FaultApplied::KvSqueezed {
                    replica,
                    previous_blocks,
                } => {
                    if let FaultKind::KvSqueeze { restore_after, .. } = event.kind {
                        restores.push((
                            vstep + restore_after,
                            Instant::now() + Duration::from_millis(500),
                            replica,
                            previous_blocks,
                        ));
                    }
                }
                FaultApplied::Deferred => {
                    bitflip[event.kind.replica()] = true;
                }
                _ => {}
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

        let actions = if Instant::now() >= next_heartbeat {
            next_heartbeat = Instant::now() + HEARTBEAT_INTERVAL;
            supervisor.tick(&stats)
        } else {
            Vec::new()
        };
        for action in actions {
            match action {
                SupervisorAction::OpenBreaker { replica } => {
                    router.set_dispatch_gate(replica, false);
                }
                SupervisorAction::HalfOpenBreaker { replica }
                | SupervisorAction::CloseBreaker { replica } => {
                    router.set_dispatch_gate(replica, true);
                }
                SupervisorAction::DrainReplica { replica } => {
                    let _ = cluster.drain(replica);
                }
                SupervisorAction::RespawnReplica { replica } => {
                    if bitflip[replica] {
                        bitflip[replica] = false;
                        if build(true).is_err() {
                            corrupted_reloads += 1;
                        }
                    }
                    if let Ok(model) = build(false) {
                        cluster.respawn(replica, model);
                        router.set_dispatch_gate(replica, true);
                        if let Some(killed) = kill_at.remove(&replica) {
                            recovery_steps.push(vstep.saturating_sub(killed));
                        }
                    }
                }
                SupervisorAction::SetDegradeLevel { level } => {
                    router.set_degrade_level(level, vstep);
                }
            }
        }
        std::thread::sleep(FAULT_POLL_INTERVAL);
    }
    let mut replay = replay.join().expect("chaos replay thread");

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
    recovery_steps.sort_unstable();
    // The supervisor may have moved the ladder after the replay's own
    // snapshot; report the fleet as the supervision loop left it.
    replay.cluster = router.stats();
    cluster.shutdown();

    ChaosReplayReport {
        plan_fingerprint: plan.fingerprint(),
        replay,
        survivors,
        survivors_bit_identical,
        pools_at_baseline,
        corrupted_reloads,
        recovery_steps,
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
        violations.push("survivor token streams diverge from the undisturbed run".into());
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
