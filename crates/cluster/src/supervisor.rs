//! Self-healing fleet supervision: per-replica health tracking, a circuit
//! breaker gating dispatch, capped-backoff respawn scheduling, and a
//! graceful-degradation ladder.
//!
//! The [`Supervisor`] is a pure policy machine driven by an external
//! clock: each [`Supervisor::tick`] consumes one fleet
//! [`ClusterStats`] observation and returns the
//! [`SupervisorAction`]s the driver should apply (open/close dispatch
//! gates via [`RouterHandle`](crate::RouterHandle), drain or respawn via
//! [`Cluster`](crate::Cluster), move the degrade ladder). Keeping the
//! decisions separate from their application makes the whole recovery
//! policy unit-testable without a fleet, and lets the chaos-replay
//! harness drive it on the deterministic virtual step clock.
//!
//! **Health model.** A replica is suspected *wedged* when its published
//! [`StatsSnapshot`] is bit-identical across consecutive probes while it
//! still holds queued or active work — a live engine always moves some
//! counter per scheduling step, so a frozen snapshot under load means the
//! worker stopped stepping (the slow-replica fault signature, or a stuck
//! kernel).
//!
//! **Breaker.** Closed → Open on sustained staleness; Open → HalfOpen
//! after a seeded-jitter exponential backoff (doubling per open, capped);
//! HalfOpen → Closed after the replica demonstrates progress, or back to
//! Open (longer backoff) if it wedges again. The proactive-drain
//! threshold retires a replica that stays wedged well past the breaker
//! horizon — the conditional-handover discipline: move traffic away
//! *before* the hard failure, and recycle the replica once it empties.

use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{ClusterStats, ReplicaState};
use edkm_core::engine::StatsSnapshot;

/// Graceful-degradation ladder: each level sheds one more class of work,
/// cheapest first, so the fleet keeps serving its highest-value traffic
/// under sustained pressure. Levels are cumulative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum DegradeLevel {
    /// Full service.
    Full = 0,
    /// Stop arming hedged duplicates: the first capacity reclaimed is the
    /// capacity spent on redundant work.
    NoHedging = 1,
    /// Refuse `Priority::Low` requests at admission with
    /// [`RouteError::Shed`](crate::RouteError::Shed).
    RejectLow = 2,
    /// Additionally refuse normal-priority requests with no session-prefix
    /// affinity hit: ongoing chat turns (which extend a prefix the fleet
    /// already holds, and are cheap thanks to the radix cache) and
    /// high-priority work keep flowing; cold new traffic waits.
    ChatOnly = 3,
}

impl DegradeLevel {
    /// The level encoded by `v`, saturating above the top rung.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => DegradeLevel::Full,
            1 => DegradeLevel::NoHedging,
            2 => DegradeLevel::RejectLow,
            _ => DegradeLevel::ChatOnly,
        }
    }

    /// One rung harsher (saturating).
    pub fn escalate(self) -> Self {
        DegradeLevel::from_u8((self as u8).saturating_add(1))
    }

    /// One rung gentler (saturating).
    pub fn recover(self) -> Self {
        DegradeLevel::from_u8((self as u8).saturating_sub(1))
    }
}

impl std::fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DegradeLevel::Full => "full",
            DegradeLevel::NoHedging => "no-hedging",
            DegradeLevel::RejectLow => "reject-low",
            DegradeLevel::ChatOnly => "chat-only",
        };
        write!(f, "{name}")
    }
}

/// One degrade-ladder transition, recorded in
/// [`ClusterStats::degrade_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Virtual step (or supervisor tick) at which the ladder moved.
    pub step: u64,
    /// Level before the transition.
    pub from: u8,
    /// Level after the transition.
    pub to: u8,
}

impl DegradeEvent {
    /// `true` when the ladder moved to a harsher level.
    pub fn is_escalation(&self) -> bool {
        self.to > self.from
    }
}

impl std::fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: {} -> {}",
            self.step,
            DegradeLevel::from_u8(self.from),
            DegradeLevel::from_u8(self.to)
        )
    }
}

/// Circuit-breaker state of one replica's dispatch gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: dispatch flows.
    Closed,
    /// Tripped: the gate is shut; waiting out a seeded-jitter exponential
    /// backoff before probing again.
    Open,
    /// Probing: the gate is reopened, and the breaker closes only after
    /// the replica demonstrates progress (or re-opens on another wedge).
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        write!(f, "{name}")
    }
}

/// Tuning for a [`Supervisor`]. All horizons are in supervisor ticks
/// (whatever cadence the driver calls [`Supervisor::tick`] at — the
/// chaos-replay harness ticks on the virtual step clock).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Seed for the breaker/respawn backoff jitter; same seed + same
    /// observation sequence ⇒ same decisions (replayable recovery).
    pub seed: u64,
    /// Consecutive unchanged-snapshot-under-load probes before a replica
    /// is suspected wedged and its breaker opens.
    pub stale_probes: u32,
    /// Base backoff (ticks) an open breaker waits before half-opening;
    /// doubles per consecutive open.
    pub breaker_backoff_base: u64,
    /// Backoff cap for the breaker.
    pub breaker_backoff_max: u64,
    /// Progress probes a half-open breaker requires before closing.
    pub half_open_probes: u32,
    /// Staleness horizon at which a wedged replica is proactively drained
    /// (then recycled once empty). Should be well past `stale_probes`.
    pub drain_stale_probes: u32,
    /// Base backoff (ticks) before respawning a dead replica; doubles per
    /// consecutive respawn of the same slot.
    pub respawn_backoff_base: u64,
    /// Backoff cap for respawns.
    pub respawn_backoff_max: u64,
    /// Escalate the ladder when the unhealthy-replica fraction is at or
    /// above this for `ladder_patience` ticks.
    pub pressure_up: f64,
    /// Recover one rung when the fraction is at or below this for
    /// `ladder_patience` ticks.
    pub pressure_down: f64,
    /// Ticks a pressure (or calm) condition must persist before the
    /// ladder moves — the hysteresis that stops flapping.
    pub ladder_patience: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            seed: 0,
            stale_probes: 3,
            breaker_backoff_base: 2,
            breaker_backoff_max: 64,
            half_open_probes: 2,
            drain_stale_probes: 12,
            respawn_backoff_base: 2,
            respawn_backoff_max: 32,
            pressure_up: 0.5,
            pressure_down: 0.25,
            ladder_patience: 2,
        }
    }
}

/// One decision from a [`Supervisor::tick`], to be applied by the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SupervisorAction {
    /// Close replica's dispatch gate
    /// ([`RouterHandle::set_dispatch_gate`](crate::RouterHandle::set_dispatch_gate)
    /// `false`).
    OpenBreaker {
        /// Slot index.
        replica: usize,
    },
    /// Reopen the gate for probing (`set_dispatch_gate true`).
    HalfOpenBreaker {
        /// Slot index.
        replica: usize,
    },
    /// The replica proved healthy; the gate stays open.
    CloseBreaker {
        /// Slot index.
        replica: usize,
    },
    /// Proactively retire a wedged replica
    /// ([`Cluster::drain`](crate::Cluster::drain)).
    DrainReplica {
        /// Slot index.
        replica: usize,
    },
    /// Bring a dead or drained-empty slot back
    /// ([`Cluster::respawn`](crate::Cluster::respawn)) — the backoff has
    /// elapsed.
    RespawnReplica {
        /// Slot index.
        replica: usize,
    },
    /// Move the degrade ladder
    /// ([`RouterHandle::set_degrade_level`](crate::RouterHandle::set_degrade_level)).
    SetDegradeLevel {
        /// Target level.
        level: DegradeLevel,
    },
}

/// Per-replica health bookkeeping.
#[derive(Debug)]
struct ReplicaHealth {
    breaker: BreakerState,
    last_snapshot: Option<StatsSnapshot>,
    stale: u32,
    /// Consecutive breaker opens (exponential-backoff exponent).
    opens: u32,
    /// Tick at which an Open breaker half-opens.
    reopen_at: Option<u64>,
    half_open_progress: u32,
    /// Tick at which a Dead slot's respawn is due.
    respawn_at: Option<u64>,
    /// Consecutive respawns of this slot (backoff exponent).
    respawns: u32,
    /// This supervisor proactively drained the replica and intends to
    /// recycle it once empty.
    draining_for_recycle: bool,
}

impl ReplicaHealth {
    fn fresh() -> Self {
        ReplicaHealth {
            breaker: BreakerState::Closed,
            last_snapshot: None,
            stale: 0,
            opens: 0,
            reopen_at: None,
            half_open_progress: 0,
            respawn_at: None,
            respawns: 0,
            draining_for_recycle: false,
        }
    }
}

/// The self-healing policy machine: owns per-replica health state and the
/// degrade ladder, consumes fleet observations, and emits the actions
/// that keep the fleet serving. See the module docs for the model.
#[derive(Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    rng: StdRng,
    replicas: Vec<ReplicaHealth>,
    tick: u64,
    pressure_streak: u64,
    calm_streak: u64,
    level: DegradeLevel,
}

/// Seeded-jitter exponential backoff: `base << exponent` capped at `max`,
/// scaled by a uniform factor in `[0.75, 1.25)` so synchronized failures
/// don't retry in lockstep. Always at least 1 tick.
fn jittered_backoff(rng: &mut StdRng, base: u64, exponent: u32, max: u64) -> u64 {
    let raw = base.saturating_shl(exponent.min(16)).min(max).max(1);
    let factor = rng.gen_range(0.75f64..1.25f64);
    ((raw as f64 * factor).round() as u64).max(1)
}

trait SaturatingShl {
    fn saturating_shl(self, by: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, by: u32) -> u64 {
        self.checked_shl(by).unwrap_or(u64::MAX)
    }
}

impl Supervisor {
    /// A supervisor over `replicas` slots.
    pub fn new(replicas: usize, cfg: SupervisorConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x50be_7150_0000_0001u64);
        Supervisor {
            cfg,
            rng,
            replicas: (0..replicas).map(|_| ReplicaHealth::fresh()).collect(),
            tick: 0,
            pressure_streak: 0,
            calm_streak: 0,
            level: DegradeLevel::Full,
        }
    }

    /// The ladder level the supervisor currently intends.
    pub fn level(&self) -> DegradeLevel {
        self.level
    }

    /// One replica's breaker state.
    pub fn breaker(&self, replica: usize) -> BreakerState {
        self.replicas[replica].breaker
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Consume one fleet observation and return the actions the driver
    /// should apply, in order. Deterministic given the seed and the
    /// observation sequence.
    pub fn tick(&mut self, stats: &ClusterStats) -> Vec<SupervisorAction> {
        self.tick += 1;
        let now = self.tick;
        let mut actions = Vec::new();
        let Supervisor {
            cfg, rng, replicas, ..
        } = self;
        for (i, (state, snap)) in stats.replicas.iter().enumerate() {
            let Some(h) = replicas.get_mut(i) else { break };
            match state {
                ReplicaState::Dead => match h.respawn_at {
                    None => {
                        let wait = jittered_backoff(
                            rng,
                            cfg.respawn_backoff_base,
                            h.respawns,
                            cfg.respawn_backoff_max,
                        );
                        h.respawn_at = Some(now + wait);
                    }
                    Some(due) if now >= due => {
                        h.respawn_at = None;
                        h.respawns = h.respawns.saturating_add(1);
                        let respawns = h.respawns;
                        *h = ReplicaHealth::fresh();
                        h.respawns = respawns;
                        actions.push(SupervisorAction::RespawnReplica { replica: i });
                    }
                    Some(_) => {}
                },
                ReplicaState::Draining => {
                    // A replica this supervisor drained for being wedged is
                    // recycled once it has emptied out.
                    if h.draining_for_recycle && snap.active == 0 && snap.queued == 0 {
                        let respawns = h.respawns.saturating_add(1);
                        *h = ReplicaHealth::fresh();
                        h.respawns = respawns;
                        actions.push(SupervisorAction::RespawnReplica { replica: i });
                    }
                }
                ReplicaState::Active => {
                    let busy = snap.active > 0 || snap.queued > 0;
                    let stalled = busy && h.last_snapshot.as_ref() == Some(snap);
                    h.last_snapshot = Some(snap.clone());
                    if stalled {
                        h.stale = h.stale.saturating_add(1);
                    } else {
                        h.stale = 0;
                    }
                    match h.breaker {
                        BreakerState::Closed => {
                            if h.stale >= cfg.stale_probes {
                                h.breaker = BreakerState::Open;
                                h.opens = h.opens.saturating_add(1);
                                let wait = jittered_backoff(
                                    rng,
                                    cfg.breaker_backoff_base,
                                    h.opens - 1,
                                    cfg.breaker_backoff_max,
                                );
                                h.reopen_at = Some(now + wait);
                                actions.push(SupervisorAction::OpenBreaker { replica: i });
                            }
                        }
                        BreakerState::Open => {
                            // A wedge that outlives the drain horizon is
                            // proactively retired (conditional handover:
                            // prepare the failover before the hard
                            // failure), then recycled once empty.
                            if h.stale >= cfg.drain_stale_probes && !h.draining_for_recycle {
                                h.draining_for_recycle = true;
                                actions.push(SupervisorAction::DrainReplica { replica: i });
                            } else if h.reopen_at.is_some_and(|due| now >= due) {
                                h.reopen_at = None;
                                h.breaker = BreakerState::HalfOpen;
                                h.half_open_progress = 0;
                                actions.push(SupervisorAction::HalfOpenBreaker { replica: i });
                            }
                        }
                        BreakerState::HalfOpen => {
                            if stalled {
                                h.breaker = BreakerState::Open;
                                h.opens = h.opens.saturating_add(1);
                                let wait = jittered_backoff(
                                    rng,
                                    cfg.breaker_backoff_base,
                                    h.opens - 1,
                                    cfg.breaker_backoff_max,
                                );
                                h.reopen_at = Some(now + wait);
                                actions.push(SupervisorAction::OpenBreaker { replica: i });
                            } else {
                                h.half_open_progress = h.half_open_progress.saturating_add(1);
                                if h.half_open_progress >= cfg.half_open_probes {
                                    h.breaker = BreakerState::Closed;
                                    h.opens = 0;
                                    actions.push(SupervisorAction::CloseBreaker { replica: i });
                                }
                            }
                        }
                    }
                }
            }
        }

        // Degrade ladder: move one rung at a time, with hysteresis on both
        // edges. "Unhealthy" counts dead, draining, and breaker-gated
        // replicas — every slot not currently taking normal dispatch.
        let total = stats.replicas.len().max(1);
        let unhealthy = stats
            .replicas
            .iter()
            .enumerate()
            .filter(|(i, (state, _))| {
                *state != ReplicaState::Active
                    || self
                        .replicas
                        .get(*i)
                        .is_some_and(|h| h.breaker != BreakerState::Closed)
            })
            .count();
        let frac = unhealthy as f64 / total as f64;
        if frac >= self.cfg.pressure_up {
            self.pressure_streak += 1;
            self.calm_streak = 0;
        } else if frac <= self.cfg.pressure_down {
            self.calm_streak += 1;
            self.pressure_streak = 0;
        } else {
            self.pressure_streak = 0;
            self.calm_streak = 0;
        }
        if self.pressure_streak >= self.cfg.ladder_patience && self.level < DegradeLevel::ChatOnly {
            self.level = self.level.escalate();
            self.pressure_streak = 0;
            actions.push(SupervisorAction::SetDegradeLevel { level: self.level });
        } else if self.calm_streak >= self.cfg.ladder_patience && self.level > DegradeLevel::Full {
            self.level = self.level.recover();
            self.calm_streak = 0;
            actions.push(SupervisorAction::SetDegradeLevel { level: self.level });
        }
        actions
    }
}

/// Suggested wall-clock pause between supervisor ticks for drivers that
/// poll a live fleet rather than a virtual clock.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(5);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterStats, ReplicaState};

    fn stats(replicas: Vec<(ReplicaState, StatsSnapshot)>) -> ClusterStats {
        ClusterStats {
            replicas,
            routed: 0,
            affinity_hits: 0,
            spills: 0,
            hedges: 0,
            rerouted: 0,
            shed: 0,
            degrade_level: 0,
            degrade_events: Vec::new(),
        }
    }

    fn busy(decode_steps: u64) -> StatsSnapshot {
        StatsSnapshot {
            active: 1,
            decode_steps,
            ..StatsSnapshot::default()
        }
    }

    fn tight() -> SupervisorConfig {
        SupervisorConfig {
            stale_probes: 2,
            breaker_backoff_base: 1,
            breaker_backoff_max: 1,
            half_open_probes: 1,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn wedged_replica_trips_the_breaker_and_progress_closes_it() {
        let mut sup = Supervisor::new(1, tight());
        assert!(sup
            .tick(&stats(vec![(ReplicaState::Active, busy(1))]))
            .is_empty());
        // Bit-identical snapshot under load: one stale probe, then two —
        // the breaker opens.
        let _ = sup.tick(&stats(vec![(ReplicaState::Active, busy(1))]));
        let acts = sup.tick(&stats(vec![(ReplicaState::Active, busy(1))]));
        assert!(acts.contains(&SupervisorAction::OpenBreaker { replica: 0 }));
        assert_eq!(sup.breaker(0), BreakerState::Open);
        // Backoff (1 tick at this config) elapses: half-open probe.
        let mut half_opened = false;
        for _ in 0..4 {
            let acts = sup.tick(&stats(vec![(ReplicaState::Active, busy(1))]));
            if acts.contains(&SupervisorAction::HalfOpenBreaker { replica: 0 }) {
                half_opened = true;
                break;
            }
        }
        assert!(half_opened, "open breaker must half-open after backoff");
        // A progressing snapshot closes it.
        let acts = sup.tick(&stats(vec![(ReplicaState::Active, busy(2))]));
        assert!(acts.contains(&SupervisorAction::CloseBreaker { replica: 0 }));
        assert_eq!(sup.breaker(0), BreakerState::Closed);
    }

    #[test]
    fn dead_replica_respawns_after_capped_backoff() {
        let mut sup = Supervisor::new(1, SupervisorConfig::default());
        let dead = || stats(vec![(ReplicaState::Dead, StatsSnapshot::default())]);
        let mut respawned_at = None;
        for tick in 1..=64u64 {
            let acts = sup.tick(&dead());
            if acts.contains(&SupervisorAction::RespawnReplica { replica: 0 }) {
                respawned_at = Some(tick);
                break;
            }
        }
        let first = respawned_at.expect("a dead replica must be respawned");
        assert!(first >= 2, "the backoff must actually wait");
        // Dying again backs off longer (doubled, jittered).
        let mut second = None;
        for tick in 1..=64u64 {
            let acts = sup.tick(&dead());
            if acts.contains(&SupervisorAction::RespawnReplica { replica: 0 }) {
                second = Some(tick);
                break;
            }
        }
        assert!(
            second.expect("second respawn") >= first,
            "repeat respawns must not come sooner than the first"
        );
    }

    #[test]
    fn ladder_escalates_under_pressure_and_recovers_with_hysteresis() {
        let cfg = SupervisorConfig {
            ladder_patience: 2,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(2, cfg);
        let mut step = 0u64;
        // Half the fleet dead: unhealthy fraction 0.5 >= pressure_up.
        let mut escalated = false;
        for _ in 0..4 {
            step += 1;
            let acts = sup.tick(&stats(vec![
                (ReplicaState::Dead, StatsSnapshot::default()),
                (ReplicaState::Active, busy(step)),
            ]));
            if acts.contains(&SupervisorAction::SetDegradeLevel {
                level: DegradeLevel::NoHedging,
            }) {
                escalated = true;
                break;
            }
        }
        assert!(escalated, "sustained pressure must move the ladder");
        assert_eq!(sup.level(), DegradeLevel::NoHedging);
        // Full health: recovery after the same patience, one rung at a time.
        let mut recovered = false;
        for _ in 0..4 {
            step += 1;
            let acts = sup.tick(&stats(vec![
                (ReplicaState::Active, busy(step)),
                (ReplicaState::Active, busy(step)),
            ]));
            if acts.contains(&SupervisorAction::SetDegradeLevel {
                level: DegradeLevel::Full,
            }) {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "sustained calm must walk the ladder back down");
        assert_eq!(sup.level(), DegradeLevel::Full);
    }

    #[test]
    fn decisions_are_deterministic_for_a_seed() {
        let run = || {
            let mut sup = Supervisor::new(2, tight());
            let mut log = Vec::new();
            for t in 0..32u64 {
                // A scripted observation sequence: replica 0 wedges, then
                // dies, then the fleet heals.
                let obs = match t {
                    0..=5 => vec![
                        (ReplicaState::Active, busy(1)),
                        (ReplicaState::Active, busy(t + 1)),
                    ],
                    6..=12 => vec![
                        (ReplicaState::Dead, StatsSnapshot::default()),
                        (ReplicaState::Active, busy(t + 1)),
                    ],
                    _ => vec![
                        (ReplicaState::Active, busy(t + 1)),
                        (ReplicaState::Active, busy(t + 1)),
                    ],
                };
                log.push(sup.tick(&stats(obs)));
            }
            log
        };
        assert_eq!(
            run(),
            run(),
            "same seed + same observations => same actions"
        );
    }
}
