//! # edkm-chaos
//!
//! Deterministic, seeded fault injection for the edkm serving fleet.
//!
//! A [`FaultPlan`] is to failures what a
//! [`Trace`](../edkm_workload/struct.Trace.html) is to load: a fully
//! reproducible schedule, generated from a `(profile, seed)` pair,
//! pinned on the **virtual step clock** (the fleet's monotonically
//! accumulated decode-step count), with a canonical byte encoding
//! ([`FaultPlan::to_bytes`]) and an FNV-1a [`FaultPlan::fingerprint`]
//! so CI can assert that two runs injected *exactly* the same faults at
//! exactly the same logical times. Physical timing still varies run to
//! run; the invariants the chaos harness checks (no request lost, no
//! duplicate token index, survivors bit-identical, pools at baseline)
//! hold regardless of where in real time each fault lands.
//!
//! Faults are applied through the [`FaultHook`] trait, implemented here
//! for [`Cluster`] — the hook maps each [`FaultKind`] onto the fleet's
//! own control surface (kill, stall injection, KV-capacity squeeze,
//! stream severing), so chaos costs nothing when it is not driving:
//! there is no chaos branch anywhere in the serving hot path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::{rngs::StdRng, Rng, SeedableRng};

use edkm_cluster::{Cluster, ReplicaState};

/// One kind of injected fault. Replica indices refer to cluster slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Abrupt worker kill: the replica dies mid-step; in-flight requests
    /// fail over to survivors via the router's redispatch path.
    ReplicaKill {
        /// Slot to kill.
        replica: usize,
    },
    /// Slow-replica brownout: the worker sleeps one stall tick per step
    /// for `steps` scheduling steps before doing real work again.
    Stall {
        /// Slot to slow down.
        replica: usize,
        /// Number of decode steps to stall.
        steps: u64,
    },
    /// KV-pool exhaustion squeeze: the replica's block pool cap shrinks
    /// to `blocks` (never revoking checked-out blocks, only refusing new
    /// checkouts), restored to its original cap `restore_after` virtual
    /// steps later.
    KvSqueeze {
        /// Slot whose pool is squeezed.
        replica: usize,
        /// Temporary cap in blocks.
        blocks: usize,
        /// Virtual steps until the original cap is restored.
        restore_after: u64,
    },
    /// Channel drop between router and replica: every live token stream
    /// on the replica is severed without a terminal event, as if the
    /// connection was cut. Streams recover via cluster redispatch.
    ChannelDrop {
        /// Slot whose streams are severed.
        replica: usize,
    },
    /// Container bit-flip on respawn reload: the *next* respawn of this
    /// slot must first attempt a corrupted model load (which fails
    /// checksum verification) before retrying clean. Applied by the
    /// replay harness's respawn path, not by the cluster hook.
    RespawnBitFlip {
        /// Slot whose next respawn is corrupted.
        replica: usize,
    },
}

impl FaultKind {
    /// The slot this fault targets.
    pub fn replica(&self) -> usize {
        match *self {
            FaultKind::ReplicaKill { replica }
            | FaultKind::Stall { replica, .. }
            | FaultKind::KvSqueeze { replica, .. }
            | FaultKind::ChannelDrop { replica }
            | FaultKind::RespawnBitFlip { replica } => replica,
        }
    }

    fn tag(&self) -> u64 {
        match self {
            FaultKind::ReplicaKill { .. } => 1,
            FaultKind::Stall { .. } => 2,
            FaultKind::KvSqueeze { .. } => 3,
            FaultKind::ChannelDrop { .. } => 4,
            FaultKind::RespawnBitFlip { .. } => 5,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::ReplicaKill { replica } => write!(f, "kill(r{replica})"),
            FaultKind::Stall { replica, steps } => write!(f, "stall(r{replica}, {steps} steps)"),
            FaultKind::KvSqueeze {
                replica,
                blocks,
                restore_after,
            } => write!(
                f,
                "kv-squeeze(r{replica}, {blocks} blocks, restore after {restore_after})"
            ),
            FaultKind::ChannelDrop { replica } => write!(f, "channel-drop(r{replica})"),
            FaultKind::RespawnBitFlip { replica } => write!(f, "respawn-bit-flip(r{replica})"),
        }
    }
}

/// One scheduled fault: a [`FaultKind`] pinned to a virtual step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual step (fleet-wide accumulated decode steps) at which the
    /// fault fires.
    pub step: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {}", self.step, self.kind)
    }
}

/// A named fault mix. Each profile stresses a different failure mode of
/// the fleet; CI replays a fixed trace under every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Abrupt replica kills (some with corrupted-respawn reloads) plus a
    /// channel drop: exercises failover bit-identity and respawn backoff.
    ReplicaChurn,
    /// Stalled decode steps across the fleet: exercises wedge detection,
    /// the circuit breaker, and the degrade ladder.
    SlowBrownout,
    /// KV-pool capacity squeezes: exercises admission under memory
    /// pressure and pool-ledger integrity on restore.
    KvPressure,
}

impl FaultProfile {
    /// Every shipped profile, in canonical order.
    pub const ALL: [FaultProfile; 3] = [
        FaultProfile::ReplicaChurn,
        FaultProfile::SlowBrownout,
        FaultProfile::KvPressure,
    ];

    /// Stable tag mixed into the generation seed and the byte encoding.
    pub(crate) fn tag(&self) -> u64 {
        match self {
            FaultProfile::ReplicaChurn => 0xc4a5_0001_0000_0011,
            FaultProfile::SlowBrownout => 0xc4a5_0002_0000_0022,
            FaultProfile::KvPressure => 0xc4a5_0003_0000_0033,
        }
    }

    /// Parse a profile name as accepted by `--chaos-profile`.
    pub fn parse(name: &str) -> Option<FaultProfile> {
        match name {
            "replica-churn" | "churn" => Some(FaultProfile::ReplicaChurn),
            "slow-brownout" | "brownout" => Some(FaultProfile::SlowBrownout),
            "kv-pressure" | "kv" => Some(FaultProfile::KvPressure),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultProfile::ReplicaChurn => "replica-churn",
            FaultProfile::SlowBrownout => "slow-brownout",
            FaultProfile::KvPressure => "kv-pressure",
        };
        write!(f, "{name}")
    }
}

/// A deterministic fault schedule: same `(profile, seed, replicas,
/// horizon)` ⇒ byte-identical plan, checkable via
/// [`FaultPlan::fingerprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    profile: FaultProfile,
    seed: u64,
    replicas: usize,
    horizon: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generate the schedule for `profile` over a fleet of `replicas`
    /// slots and a virtual-step `horizon`. All draws come from
    /// `StdRng::seed_from_u64(seed ^ profile.tag())`, so the plan is a
    /// pure function of its inputs.
    pub fn generate(profile: FaultProfile, seed: u64, replicas: usize, horizon: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ profile.tag());
        let replicas = replicas.max(1);
        let horizon = horizon.max(16);
        let mut events = Vec::new();
        // Faults land in the middle band of the horizon: early enough that
        // recovery completes inside the run, late enough that the fleet
        // has real in-flight state to disturb.
        let lo = horizon / 8;
        let hi = (horizon * 3 / 4).max(lo + 1);
        match profile {
            FaultProfile::ReplicaChurn => {
                // Kill up to half the fleet (never all of it), sometimes
                // corrupting the respawn reload first.
                let kills = (replicas / 2).max(1);
                for _ in 0..kills {
                    let replica = rng.gen_range(0..replicas);
                    let step = rng.gen_range(lo..hi);
                    if rng.gen_bool(0.5) {
                        events.push(FaultEvent {
                            step,
                            kind: FaultKind::RespawnBitFlip { replica },
                        });
                    }
                    events.push(FaultEvent {
                        step,
                        kind: FaultKind::ReplicaKill { replica },
                    });
                }
                events.push(FaultEvent {
                    step: rng.gen_range(lo..hi),
                    kind: FaultKind::ChannelDrop {
                        replica: rng.gen_range(0..replicas),
                    },
                });
            }
            FaultProfile::SlowBrownout => {
                // Stall most of the fleet at staggered times; one channel
                // drop rides along so brownout recovery also exercises the
                // redispatch path.
                let stalls = replicas.max(2);
                for _ in 0..stalls {
                    events.push(FaultEvent {
                        step: rng.gen_range(lo..hi),
                        kind: FaultKind::Stall {
                            replica: rng.gen_range(0..replicas),
                            steps: rng.gen_range(20..80),
                        },
                    });
                }
                events.push(FaultEvent {
                    step: rng.gen_range(lo..hi),
                    kind: FaultKind::ChannelDrop {
                        replica: rng.gen_range(0..replicas),
                    },
                });
            }
            FaultProfile::KvPressure => {
                // Squeeze a majority of pools hard, restore later; one
                // stall keeps the breaker honest under memory pressure.
                let squeezes = (replicas * 2 / 3).max(1);
                for _ in 0..squeezes {
                    events.push(FaultEvent {
                        step: rng.gen_range(lo..hi),
                        kind: FaultKind::KvSqueeze {
                            replica: rng.gen_range(0..replicas),
                            blocks: rng.gen_range(4..12),
                            restore_after: rng.gen_range(16..64),
                        },
                    });
                }
                events.push(FaultEvent {
                    step: rng.gen_range(lo..hi),
                    kind: FaultKind::Stall {
                        replica: rng.gen_range(0..replicas),
                        steps: rng.gen_range(10..40),
                    },
                });
            }
        }
        // Canonical order: by step, ties broken by generation order
        // (stable sort), so the byte encoding is unique per input.
        events.sort_by_key(|e| e.step);
        FaultPlan {
            profile,
            seed,
            replicas,
            horizon,
            events,
        }
    }

    /// The scheduled faults, sorted by virtual step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Canonical little-endian byte encoding: header (profile tag, seed,
    /// replicas, horizon, event count) followed by one fixed-shape record
    /// per event. Two plans are the same schedule iff their bytes match.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        push(&mut out, self.profile.tag());
        push(&mut out, self.seed);
        push(&mut out, self.replicas as u64);
        push(&mut out, self.horizon);
        push(&mut out, self.events.len() as u64);
        for e in &self.events {
            push(&mut out, e.step);
            push(&mut out, e.kind.tag());
            push(&mut out, e.kind.replica() as u64);
            let (a, b) = match e.kind {
                FaultKind::Stall { steps, .. } => (steps, 0),
                FaultKind::KvSqueeze {
                    blocks,
                    restore_after,
                    ..
                } => (blocks as u64, restore_after),
                _ => (0, 0),
            };
            push(&mut out, a);
            push(&mut out, b);
        }
        out
    }

    /// FNV-1a hash of [`FaultPlan::to_bytes`] — the plan's identity in
    /// logs, bench JSON, and CI assertions.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// What a [`FaultHook`] did with one [`FaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultApplied {
    /// The replica was killed.
    Killed {
        /// Slot killed.
        replica: usize,
    },
    /// Stall steps were queued on the replica's engine.
    Stalled {
        /// Slot stalled.
        replica: usize,
        /// Steps queued.
        steps: u64,
    },
    /// The replica's KV pool cap was shrunk.
    KvSqueezed {
        /// Slot squeezed.
        replica: usize,
        /// The cap before the squeeze, for later restore.
        previous_blocks: usize,
    },
    /// Live token streams on the replica were severed.
    StreamsDropped {
        /// Slot affected.
        replica: usize,
        /// Streams severed.
        severed: usize,
    },
    /// The fault applies at a later lifecycle point (respawn bit-flip);
    /// the driver must honour it when it respawns the slot.
    Deferred,
    /// The fault was a no-op in the current fleet state (for example a
    /// kill aimed at an already-dead slot).
    Skipped {
        /// Why nothing happened.
        reason: &'static str,
    },
}

impl std::fmt::Display for FaultApplied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultApplied::Killed { replica } => write!(f, "killed r{replica}"),
            FaultApplied::Stalled { replica, steps } => {
                write!(f, "stalled r{replica} for {steps} steps")
            }
            FaultApplied::KvSqueezed {
                replica,
                previous_blocks,
            } => write!(f, "squeezed r{replica} (was {previous_blocks} blocks)"),
            FaultApplied::StreamsDropped { replica, severed } => {
                write!(f, "dropped {severed} streams on r{replica}")
            }
            FaultApplied::Deferred => write!(f, "deferred to respawn"),
            FaultApplied::Skipped { reason } => write!(f, "skipped: {reason}"),
        }
    }
}

/// The seam through which a [`FaultPlan`] touches a system under test.
///
/// The production serving path has no chaos branches at all — the hook
/// maps faults onto control surfaces that already exist for operations
/// (kill, drain, stall injection, pool retuning), so chaos off means
/// literally zero added cost.
pub trait FaultHook {
    /// Apply one scheduled fault, returning what actually happened.
    fn apply_fault(&mut self, event: &FaultEvent) -> FaultApplied;
}

impl FaultHook for Cluster {
    fn apply_fault(&mut self, event: &FaultEvent) -> FaultApplied {
        let replica = event.kind.replica();
        if replica >= self.replicas() {
            return FaultApplied::Skipped {
                reason: "replica index out of range",
            };
        }
        match event.kind {
            FaultKind::ReplicaKill { replica } => {
                if self.replica_state(replica) == ReplicaState::Dead {
                    return FaultApplied::Skipped {
                        reason: "replica already dead",
                    };
                }
                self.kill(replica);
                FaultApplied::Killed { replica }
            }
            FaultKind::Stall { replica, steps } => {
                self.engine_handle(replica).inject_stall(steps);
                FaultApplied::Stalled { replica, steps }
            }
            FaultKind::KvSqueeze {
                replica, blocks, ..
            } => {
                let previous_blocks = self.pool(replica).set_max_blocks(blocks);
                FaultApplied::KvSqueezed {
                    replica,
                    previous_blocks,
                }
            }
            FaultKind::ChannelDrop { replica } => {
                let severed = self.engine_handle(replica).drop_streams();
                FaultApplied::StreamsDropped { replica, severed }
            }
            FaultKind::RespawnBitFlip { .. } => FaultApplied::Deferred,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        for profile in FaultProfile::ALL {
            let a = FaultPlan::generate(profile, 7, 4, 512);
            let b = FaultPlan::generate(profile, 7, 4, 512);
            assert_eq!(a, b, "{profile}: same inputs must give same plan");
            assert_eq!(a.to_bytes(), b.to_bytes(), "{profile}: bytes");
            assert_eq!(a.fingerprint(), b.fingerprint(), "{profile}: fingerprint");
            let c = FaultPlan::generate(profile, 8, 4, 512);
            assert_ne!(
                a.fingerprint(),
                c.fingerprint(),
                "{profile}: different seed must change the plan"
            );
            assert!(!a.events().is_empty(), "{profile}: plan must have faults");
            assert!(
                a.events().windows(2).all(|w| w[0].step <= w[1].step),
                "{profile}: events sorted by step"
            );
        }
    }

    #[test]
    fn profiles_have_distinct_fingerprints() {
        let fps: Vec<u64> = FaultProfile::ALL
            .iter()
            .map(|p| FaultPlan::generate(*p, 7, 4, 512).fingerprint())
            .collect();
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[1], fps[2]);
        assert_ne!(fps[0], fps[2]);
    }

    #[test]
    fn profile_parse_round_trips() {
        for profile in FaultProfile::ALL {
            assert_eq!(FaultProfile::parse(&profile.to_string()), Some(profile));
        }
        assert_eq!(FaultProfile::parse("nope"), None);
    }

    #[test]
    fn events_stay_inside_horizon() {
        for profile in FaultProfile::ALL {
            let plan = FaultPlan::generate(profile, 3, 3, 256);
            for e in plan.events() {
                assert!(e.step < 256, "{profile}: {e} past horizon");
                assert!(e.kind.replica() < 3, "{profile}: {e} targets ghost replica");
            }
        }
    }
}
