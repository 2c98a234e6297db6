//! # edkm-cluster
//!
//! A multi-replica serving fleet behind a load- and prefix-aware router.
//!
//! A [`Cluster`] owns N [`ServeEngine`] replicas — each wrapping a
//! [`ServeModel`] — and hands out cloneable [`RouterHandle`]s exposing the
//! same submit/stream/cancel surface as [`EngineHandle`]. The router
//! layers four policies on top of replica dispatch:
//!
//! * **Load-aware scoring** — each replica is scored
//!   `in_flight + min(1, kv_live/kv_peak)` from its live handle and
//!   published [`StatsSnapshot`]; dispatch goes to the minimum.
//! * **Prefix affinity** — prompts are fingerprinted with the same
//!   block-granular radix chunking the KV pool's prefix index uses
//!   ([`edkm_core::prefix_fingerprints`]), and follow-up chat turns are
//!   routed to the replica that already holds their prefix blocks, with
//!   spill to the least-loaded replica when the sticky one is saturated.
//! * **Tenant fairness** — optional per-tenant in-flight caps and a
//!   token-bucket rate limit, rejected with typed [`RouteError`]s.
//! * **Hedged dispatch** — a request whose first token has not arrived
//!   within a straggler threshold is re-submitted to a second replica;
//!   the first responder wins and the loser is cancelled synchronously,
//!   so every token index is delivered exactly once.
//!
//! Replicas can be [drained](Cluster::drain) (no new dispatch, in-flight
//! finishes), [killed](Cluster::kill) (in-flight work is transparently
//! re-submitted to survivors from the original prompts — bit-identical
//! tokens, since sampling is seeded per request, never per placement), and
//! [respawned](Cluster::respawn).
//!
//! ```
//! use edkm_cluster::{Cluster, ClusterConfig};
//! use edkm_core::{CompressSpec, KvBlockConfig, PalettizedModel, Request, TokenEvent};
//! use edkm_nn::{LlamaConfig, LlamaModel};
//! use edkm_tensor::{DType, Device};
//!
//! let cfg = LlamaConfig { vocab: 64, d_model: 32, n_heads: 2, n_layers: 2, d_ff: 64, max_seq: 48 };
//! let dense = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 0);
//! let mut spec = CompressSpec::with_bits(3);
//! spec.dkm.iters = 2;
//! let model = PalettizedModel::from_dense(&dense, &spec).unwrap();
//! let kv = KvBlockConfig { block_tokens: 4, max_blocks: 0 };
//! // Each replica must own its own KV pool: `with_kv_config` replaces it.
//! let replicas: Vec<_> = (0..2)
//!     .map(|_| model.clone().with_kv_config(kv).with_prefix_cache(true))
//!     .collect();
//! let cluster = Cluster::new(replicas, ClusterConfig::default());
//! let router = cluster.handle();
//! let (_id, mut stream) = router.submit(Request::new(vec![1, 2, 3]).max_new_tokens(4)).unwrap();
//! let resp = stream.wait().unwrap();
//! assert_eq!(resp.generated, 4);
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod supervisor;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use edkm_core::engine::{
    CancelOutcome, EngineConfig, EngineHandle, Request, RequestId, ServeEngine, StatsSnapshot,
    StreamPoll, SubmitError, TokenEvent, TokenStream,
};
use edkm_core::infer::ServeModel;
use edkm_core::kv::{prefix_fingerprints, KvBlockPool, PrefixHasher};
use edkm_core::serve::{Priority, ServeResponse};

pub use supervisor::{
    BreakerState, DegradeEvent, DegradeLevel, Supervisor, SupervisorAction, SupervisorConfig,
};

/// How many distinct prefix fingerprints the affinity map retains before
/// evicting the oldest (FIFO) entries.
const AFFINITY_CAPACITY: usize = 4096;

/// Rounds of pick-and-submit the router retries when replicas disappear
/// between scoring and submission before giving up.
const DISPATCH_ROUNDS: usize = 8;

/// Polling slice used while racing a hedged duplicate against the primary.
const HEDGE_SLICE: Duration = Duration::from_millis(2);

// ---------------------------------------------------------------------------
// Public configuration and error types
// ---------------------------------------------------------------------------

/// Per-tenant admission policy: a concurrent in-flight cap plus a token
/// bucket refilled continuously at `refill_per_sec`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPolicy {
    /// Maximum requests a single tenant may have in flight at once.
    pub max_in_flight: usize,
    /// Token-bucket capacity; each admission spends one token.
    pub bucket_capacity: f64,
    /// Bucket refill rate in tokens per second.
    pub refill_per_sec: f64,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            max_in_flight: 64,
            bucket_capacity: 256.0,
            refill_per_sec: 64.0,
        }
    }
}

/// Router configuration for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Configuration applied to every replica engine.
    pub engine: EngineConfig,
    /// Route follow-up prompts to the replica already holding their prefix.
    pub affinity: bool,
    /// In-flight count at which a sticky replica overflows to the
    /// least-loaded replica instead. `0` means `2 * engine.max_batch`.
    pub spill_threshold: usize,
    /// Hedge a request to a second replica when its first token has not
    /// arrived within this budget. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Per-tenant fairness policy for the `*_for` submit variants.
    /// `None` admits every tenant unconditionally.
    pub tenancy: Option<TenantPolicy>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            engine: EngineConfig::default(),
            affinity: true,
            spill_threshold: 0,
            hedge_after: None,
            tenancy: None,
        }
    }
}

/// Typed rejection from the router's admission and dispatch path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// No replica is accepting work: all are dead or draining.
    NoReplicas,
    /// Every active replica refused the request at capacity
    /// ([`RouterHandle::try_submit`] only — the blocking path waits).
    Saturated,
    /// The tenant's token bucket is empty.
    RateLimited {
        /// The tenant that was rejected.
        tenant: String,
    },
    /// The tenant is at its in-flight cap.
    TenantSaturated {
        /// The tenant that was rejected.
        tenant: String,
    },
    /// The request was shed by the degrade ladder: under sustained
    /// pressure the router stops admitting low-value traffic before it
    /// stops serving anyone (see [`DegradeLevel`]).
    Shed {
        /// The ladder level that refused the request.
        level: u8,
    },
    /// The cluster was shut down.
    ShutDown,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoReplicas => write!(f, "no replica is accepting work"),
            RouteError::Saturated => write!(f, "every active replica is at capacity"),
            RouteError::RateLimited { tenant } => {
                write!(f, "tenant {tenant:?} is rate-limited")
            }
            RouteError::TenantSaturated { tenant } => {
                write!(f, "tenant {tenant:?} is at its in-flight cap")
            }
            RouteError::Shed { level } => {
                write!(f, "request shed by degrade ladder level {level}")
            }
            RouteError::ShutDown => write!(f, "cluster is shut down"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Typed result of [`Cluster::drain`], mirroring
/// [`CancelOutcome`]: draining is idempotent, and every
/// outcome says what the slot was already doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// The replica was active and is now draining: no new dispatch, and
    /// in-flight work runs to its terminal events.
    Draining,
    /// The replica was already draining — nothing changed. Repeating the
    /// call returns this again.
    AlreadyDraining,
    /// The replica is dead; there is nothing to drain. (A dead slot stays
    /// dead until [`Cluster::respawn`].)
    Dead,
}

impl DrainOutcome {
    /// `true` if this call is the one that started the drain.
    pub fn started_drain(self) -> bool {
        matches!(self, DrainOutcome::Draining)
    }
}

impl std::fmt::Display for DrainOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrainOutcome::Draining => write!(f, "draining"),
            DrainOutcome::AlreadyDraining => write!(f, "already draining"),
            DrainOutcome::Dead => write!(f, "dead"),
        }
    }
}

/// Cluster-level request identifier, assigned by the router. Stable across
/// hedging and replica failover; the [`ServeResponse::id`] delivered on a
/// [`ClusterStream`] is rewritten to this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(u64);

impl RouteId {
    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RouteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "route-{}", self.0)
    }
}

/// Lifecycle state of one replica slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Accepting dispatch.
    Active,
    /// No new dispatch; in-flight work runs to its terminal event.
    Draining,
    /// Worker gone; slot awaits [`Cluster::respawn`].
    Dead,
}

/// A point-in-time view of the fleet: per-replica engine snapshots plus the
/// router's own counters.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Lifecycle state and latest [`StatsSnapshot`] per replica, slot order.
    pub replicas: Vec<(ReplicaState, StatsSnapshot)>,
    /// Requests the router dispatched over its lifetime.
    pub routed: u64,
    /// Dispatches that landed on their prefix-affinity replica.
    pub affinity_hits: u64,
    /// Dispatches whose sticky replica was saturated and spilled elsewhere.
    pub spills: u64,
    /// Hedged duplicates submitted for straggling first tokens.
    pub hedges: u64,
    /// Requests re-submitted to a survivor after their replica died.
    pub rerouted: u64,
    /// Requests refused by the degrade ladder ([`RouteError::Shed`]).
    pub shed: u64,
    /// Current degrade-ladder level (0 = full service).
    pub degrade_level: u8,
    /// Every ladder transition so far, in order (see [`DegradeEvent`]).
    pub degrade_events: Vec<DegradeEvent>,
}

impl ClusterStats {
    /// Fraction of routed requests that hit their affinity replica.
    pub fn affinity_hit_rate(&self) -> f64 {
        if self.routed == 0 {
            0.0
        } else {
            self.affinity_hits as f64 / self.routed as f64
        }
    }

    /// Sum of per-replica KV high-water marks — the fleet-wide cache
    /// footprint a placement policy commits to.
    pub fn aggregate_kv_peak_bytes(&self) -> usize {
        self.replicas.iter().map(|(_, s)| s.kv_peak_bytes).sum()
    }

    /// Total tokens generated across the fleet.
    pub fn tokens_generated(&self) -> u64 {
        self.replicas.iter().map(|(_, s)| s.tokens_generated).sum()
    }
}

// ---------------------------------------------------------------------------
// Router internals
// ---------------------------------------------------------------------------

struct Slot {
    handle: EngineHandle,
    state: ReplicaState,
    /// Circuit-breaker dispatch gate: a closed (`false`) gate keeps the
    /// replica out of the candidate list even while its engine is Active.
    /// Owned by the supervisor; `true` on (re)spawn.
    gate_open: bool,
}

struct TenantState {
    in_flight: usize,
    bucket: f64,
    last_refill: Instant,
}

/// FIFO-bounded map from prefix fingerprint to the replica holding those
/// KV blocks. Re-inserting an existing fingerprint updates the replica
/// without extending its lifetime.
struct AffinityMap {
    map: HashMap<u64, usize>,
    order: VecDeque<u64>,
    cap: usize,
}

impl AffinityMap {
    fn insert(&mut self, fp: u64, replica: usize) {
        if self.map.insert(fp, replica).is_none() {
            self.order.push_back(fp);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// Live bookkeeping for one routed request. `replica`/`engine_id` always
/// name the engine currently producing the stream (updated under the routes
/// lock on hedge promotion and failover).
struct RouteEntry {
    replica: usize,
    engine_id: RequestId,
    request: Request,
    tenant: Option<String>,
}

/// One candidate replica for a dispatch, in preference order.
struct Pick {
    replica: usize,
    handle: EngineHandle,
    affinity_hit: bool,
    spilled: bool,
}

/// A request placed on a concrete engine: the unit swapped in on hedge
/// wins and failover.
struct Placement {
    replica: usize,
    engine_id: RequestId,
    stream: TokenStream,
}

struct RouterInner {
    cfg: ClusterConfig,
    block_tokens: usize,
    slots: Mutex<Vec<Slot>>,
    affinity: Mutex<AffinityMap>,
    tenants: Mutex<HashMap<String, TenantState>>,
    routes: Mutex<HashMap<u64, RouteEntry>>,
    shutdown: AtomicBool,
    next_route: AtomicU64,
    routed: AtomicU64,
    affinity_hits: AtomicU64,
    spills: AtomicU64,
    hedges: AtomicU64,
    rerouted: AtomicU64,
    shed: AtomicU64,
    /// Current degrade-ladder level; admission and hedging consult it with
    /// one relaxed load (the chaos-off cost).
    degrade_level: AtomicU8,
    degrade_events: Mutex<Vec<DegradeEvent>>,
}

impl RouterInner {
    fn effective_spill_threshold(&self) -> usize {
        if self.cfg.spill_threshold == 0 {
            2 * self.cfg.engine.max_batch.max(1)
        } else {
            self.cfg.spill_threshold
        }
    }

    /// Longest cached prefix of `prompt` → owning replica, probing the
    /// rolling fingerprint at every prefix length, longest first.
    fn affinity_probe(&self, prompt: &[usize]) -> Option<usize> {
        if prompt.is_empty() {
            return None;
        }
        let mut hasher = PrefixHasher::new();
        let fps: Vec<u64> = prompt.iter().map(|&t| hasher.push(t)).collect();
        let map = self.affinity.lock().expect("affinity map poisoned");
        fps.iter().rev().find_map(|fp| map.map.get(fp).copied())
    }

    /// Record that `replica` now holds `prompt`'s prefix blocks: every
    /// block-aligned prefix plus the whole prompt, matching the radix
    /// index granularity in the KV pool.
    fn record_affinity(&self, prompt: &[usize], replica: usize) {
        if !self.cfg.affinity || prompt.is_empty() {
            return;
        }
        let fps = prefix_fingerprints(prompt, self.block_tokens);
        let mut map = self.affinity.lock().expect("affinity map poisoned");
        for (_, fp) in fps {
            map.insert(fp, replica);
        }
    }

    /// Score the active replicas for `prompt` and return them in dispatch
    /// preference order: the sticky (affinity) replica first when present
    /// and under the spill threshold, then ascending load score.
    fn candidates(
        &self,
        prompt: &[usize],
        exclude: Option<usize>,
        use_affinity: bool,
    ) -> Result<Vec<Pick>, RouteError> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(RouteError::ShutDown);
        }
        fn load_score(slot: &Slot) -> f64 {
            let stats = slot.handle.stats();
            let kv_frac = if stats.kv_peak_bytes == 0 {
                0.0
            } else {
                (stats.kv_live_bytes as f64 / stats.kv_peak_bytes as f64).min(1.0)
            };
            slot.handle.in_flight() as f64 + kv_frac
        }
        let mut scored: Vec<(usize, EngineHandle, f64)> = Vec::new();
        {
            let slots = self.slots.lock().expect("slots poisoned");
            let mut gated_out = false;
            for (i, slot) in slots.iter().enumerate() {
                if slot.state != ReplicaState::Active || Some(i) == exclude {
                    continue;
                }
                if !slot.gate_open {
                    gated_out = true;
                    continue;
                }
                scored.push((i, slot.handle.clone(), load_score(slot)));
            }
            // Every active replica is breaker-gated: dispatch to them
            // anyway. An open breaker sheds load from a struggling replica
            // while alternatives exist; it never turns a degraded fleet
            // into a total outage.
            if scored.is_empty() && gated_out {
                for (i, slot) in slots.iter().enumerate() {
                    if slot.state != ReplicaState::Active || Some(i) == exclude {
                        continue;
                    }
                    scored.push((i, slot.handle.clone(), load_score(slot)));
                }
            }
        }
        if scored.is_empty() {
            return Err(RouteError::NoReplicas);
        }
        scored.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));

        let mut sticky_pos = None;
        let mut spilled = false;
        if use_affinity && self.cfg.affinity {
            if let Some(rep) = self.affinity_probe(prompt) {
                if let Some(pos) = scored.iter().position(|(i, ..)| *i == rep) {
                    if scored[pos].1.in_flight() < self.effective_spill_threshold() {
                        sticky_pos = Some(pos);
                    } else {
                        spilled = true;
                    }
                }
            }
        }

        let mut picks = Vec::with_capacity(scored.len());
        if let Some(pos) = sticky_pos {
            let (i, h, _) = scored.remove(pos);
            picks.push(Pick {
                replica: i,
                handle: h,
                affinity_hit: true,
                spilled: false,
            });
        }
        for (i, h, _) in scored {
            picks.push(Pick {
                replica: i,
                handle: h,
                affinity_hit: false,
                spilled,
            });
        }
        Ok(picks)
    }

    /// Mark a replica Draining after its engine refused a submit with
    /// `ShutDown` — its state was changed behind the router's back.
    fn note_unavailable(&self, replica: usize) {
        let mut slots = self.slots.lock().expect("slots poisoned");
        if let Some(slot) = slots.get_mut(replica) {
            if slot.state == ReplicaState::Active {
                slot.state = ReplicaState::Draining;
            }
        }
    }

    fn after_dispatch(&self, pick: &Pick, prompt: &[usize]) {
        self.routed.fetch_add(1, Ordering::Relaxed);
        if pick.affinity_hit {
            self.affinity_hits.fetch_add(1, Ordering::Relaxed);
        }
        if pick.spilled {
            self.spills.fetch_add(1, Ordering::Relaxed);
        }
        self.record_affinity(prompt, pick.replica);
    }

    /// Place `request` on the best replica. Blocking mode waits on the
    /// chosen replica's queue; non-blocking mode walks the candidate list
    /// and reports [`RouteError::Saturated`] when everyone is full.
    fn dispatch(&self, request: &Request, blocking: bool) -> Result<Placement, RouteError> {
        for _ in 0..DISPATCH_ROUNDS {
            let picks = self.candidates(request.prompt(), None, true)?;
            if blocking {
                let pick = &picks[0];
                match pick.handle.submit(request.clone()) {
                    Ok((engine_id, stream)) => {
                        self.after_dispatch(pick, request.prompt());
                        return Ok(Placement {
                            replica: pick.replica,
                            engine_id,
                            stream,
                        });
                    }
                    Err(_) => {
                        self.note_unavailable(pick.replica);
                        continue;
                    }
                }
            }
            let mut saw_full = false;
            for pick in &picks {
                match pick.handle.try_submit(request.clone()) {
                    Ok((engine_id, stream)) => {
                        self.after_dispatch(pick, request.prompt());
                        return Ok(Placement {
                            replica: pick.replica,
                            engine_id,
                            stream,
                        });
                    }
                    Err(SubmitError::Full) => saw_full = true,
                    Err(SubmitError::ShutDown) => self.note_unavailable(pick.replica),
                }
            }
            if saw_full {
                return Err(RouteError::Saturated);
            }
        }
        Err(RouteError::ShutDown)
    }

    /// Token-bucket + in-flight admission for one tenant. Reserves a slot
    /// on success; the caller must release it via [`Self::tenant_release`]
    /// (terminal) or [`Self::tenant_rollback`] (dispatch failed).
    fn tenant_admit(&self, tenant: &str) -> Result<(), RouteError> {
        let policy = match &self.cfg.tenancy {
            Some(p) => p,
            None => return Ok(()),
        };
        let mut tenants = self.tenants.lock().expect("tenant table poisoned");
        let now = Instant::now();
        let state = tenants.entry(tenant.to_string()).or_insert(TenantState {
            in_flight: 0,
            bucket: policy.bucket_capacity,
            last_refill: now,
        });
        let dt = now.duration_since(state.last_refill).as_secs_f64();
        state.bucket = (state.bucket + dt * policy.refill_per_sec).min(policy.bucket_capacity);
        state.last_refill = now;
        if state.in_flight >= policy.max_in_flight {
            return Err(RouteError::TenantSaturated {
                tenant: tenant.to_string(),
            });
        }
        if state.bucket < 1.0 {
            return Err(RouteError::RateLimited {
                tenant: tenant.to_string(),
            });
        }
        state.bucket -= 1.0;
        state.in_flight += 1;
        Ok(())
    }

    fn tenant_release(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().expect("tenant table poisoned");
        if let Some(state) = tenants.get_mut(tenant) {
            state.in_flight = state.in_flight.saturating_sub(1);
        }
    }

    /// Undo a reservation whose dispatch never happened: refund the
    /// in-flight slot *and* the bucket token.
    fn tenant_rollback(&self, tenant: &str) {
        let cap = match &self.cfg.tenancy {
            Some(p) => p.bucket_capacity,
            None => return,
        };
        let mut tenants = self.tenants.lock().expect("tenant table poisoned");
        if let Some(state) = tenants.get_mut(tenant) {
            state.in_flight = state.in_flight.saturating_sub(1);
            state.bucket = (state.bucket + 1.0).min(cap);
        }
    }

    /// Degrade-ladder admission: at `RejectLow` and above the router
    /// refuses `Priority::Low` work outright; at `ChatOnly` only
    /// high-priority requests and requests whose prompt extends a known
    /// session prefix (an affinity hit — the signature of an ongoing chat
    /// turn in this stack) are admitted. One relaxed load when the ladder
    /// is at full service.
    fn shed_check(&self, request: &Request) -> Result<(), RouteError> {
        let level = self.degrade_level.load(Ordering::Relaxed);
        if level < DegradeLevel::RejectLow as u8 {
            return Ok(());
        }
        let refuse = match request.priority_class() {
            Priority::Low => true,
            Priority::High => false,
            Priority::Normal => {
                level >= DegradeLevel::ChatOnly as u8
                    && self.affinity_probe(request.prompt()).is_none()
            }
        };
        if refuse {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(RouteError::Shed { level });
        }
        Ok(())
    }

    fn route(
        self: &Arc<Self>,
        tenant: Option<&str>,
        request: Request,
        blocking: bool,
    ) -> Result<(RouteId, ClusterStream), RouteError> {
        self.shed_check(&request)?;
        if let Some(t) = tenant {
            self.tenant_admit(t)?;
        }
        let placed = match self.dispatch(&request, blocking) {
            Ok(p) => p,
            Err(e) => {
                if let Some(t) = tenant {
                    self.tenant_rollback(t);
                }
                return Err(e);
            }
        };
        let id = RouteId(self.next_route.fetch_add(1, Ordering::Relaxed));
        let hedge_deadline = self.cfg.hedge_after.map(|d| Instant::now() + d);
        {
            let mut routes = self.routes.lock().expect("route table poisoned");
            routes.insert(
                id.0,
                RouteEntry {
                    replica: placed.replica,
                    engine_id: placed.engine_id,
                    request,
                    tenant: tenant.map(String::from),
                },
            );
        }
        let stream = ClusterStream {
            inner: Arc::clone(self),
            id,
            replica: placed.replica,
            engine_id: placed.engine_id,
            stream: placed.stream,
            hedge: None,
            next_index: 0,
            saw_first: false,
            hedge_deadline,
            done: false,
        };
        Ok((id, stream))
    }

    fn handle_for(&self, replica: usize) -> Option<EngineHandle> {
        let slots = self.slots.lock().expect("slots poisoned");
        slots.get(replica).map(|s| s.handle.clone())
    }
}

// ---------------------------------------------------------------------------
// RouterHandle
// ---------------------------------------------------------------------------

/// Cloneable front door to the fleet: the [`EngineHandle`] surface
/// (submit / try_submit / cancel / stats) routed across replicas.
#[derive(Clone)]
pub struct RouterHandle {
    inner: Arc<RouterInner>,
}

impl RouterHandle {
    /// Route and submit a request, blocking while the chosen replica's
    /// admission queue is full. Returns the cluster-level [`RouteId`] and
    /// the token stream.
    pub fn submit(&self, request: Request) -> Result<(RouteId, ClusterStream), RouteError> {
        self.inner.route(None, request, true)
    }

    /// Non-blocking [`RouterHandle::submit`]: walks replicas in preference
    /// order and returns [`RouteError::Saturated`] if every active replica
    /// is at capacity.
    pub fn try_submit(&self, request: Request) -> Result<(RouteId, ClusterStream), RouteError> {
        self.inner.route(None, request, false)
    }

    /// [`RouterHandle::submit`] under a tenant's fairness policy.
    pub fn submit_for(
        &self,
        tenant: &str,
        request: Request,
    ) -> Result<(RouteId, ClusterStream), RouteError> {
        self.inner.route(Some(tenant), request, true)
    }

    /// [`RouterHandle::try_submit`] under a tenant's fairness policy.
    pub fn try_submit_for(
        &self,
        tenant: &str,
        request: Request,
    ) -> Result<(RouteId, ClusterStream), RouteError> {
        self.inner.route(Some(tenant), request, false)
    }

    /// Cancel a routed request. Idempotent like
    /// [`EngineHandle::cancel`]: once the route has reached a terminal
    /// event (or was never known), this is a no-op reporting
    /// [`CancelOutcome::AlreadyFinished`].
    pub fn cancel(&self, id: RouteId) -> CancelOutcome {
        // The target engine can change under us (hedge win, failover), and
        // a cancel against the stale engine reports AlreadyFinished. Retry
        // against the refreshed target a bounded number of times.
        for _ in 0..3 {
            let target = {
                let routes = self.inner.routes.lock().expect("route table poisoned");
                routes.get(&id.0).map(|e| (e.replica, e.engine_id))
            };
            let (replica, engine_id) = match target {
                Some(t) => t,
                None => return CancelOutcome::AlreadyFinished,
            };
            if let Some(handle) = self.inner.handle_for(replica) {
                if handle.cancel(engine_id) == CancelOutcome::Cancelled {
                    return CancelOutcome::Cancelled;
                }
            }
            let moved = {
                let routes = self.inner.routes.lock().expect("route table poisoned");
                routes.get(&id.0).map(|e| (e.replica, e.engine_id)) != Some((replica, engine_id))
            };
            if !moved {
                return CancelOutcome::AlreadyFinished;
            }
        }
        CancelOutcome::AlreadyFinished
    }

    /// Routed requests that have not yet reached a terminal event.
    pub fn in_flight(&self) -> usize {
        self.inner
            .routes
            .lock()
            .expect("route table poisoned")
            .len()
    }

    /// Per-replica engine snapshots plus router counters.
    pub fn stats(&self) -> ClusterStats {
        let replicas = {
            let slots = self.inner.slots.lock().expect("slots poisoned");
            slots.iter().map(|s| (s.state, s.handle.stats())).collect()
        };
        ClusterStats {
            replicas,
            routed: self.inner.routed.load(Ordering::Relaxed),
            affinity_hits: self.inner.affinity_hits.load(Ordering::Relaxed),
            spills: self.inner.spills.load(Ordering::Relaxed),
            hedges: self.inner.hedges.load(Ordering::Relaxed),
            rerouted: self.inner.rerouted.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            degrade_level: self.inner.degrade_level.load(Ordering::Relaxed),
            degrade_events: self
                .inner
                .degrade_events
                .lock()
                .expect("degrade events poisoned")
                .clone(),
        }
    }

    /// Open (`true`) or close (`false`) one replica's circuit-breaker
    /// dispatch gate. A closed gate keeps the replica out of the candidate
    /// list while its engine stays alive — the [`Supervisor`]'s lever for
    /// shedding load from a replica it suspects is unhealthy. If every
    /// active replica ends up gated, dispatch falls back to ignoring the
    /// gates: the breaker degrades routing, it never causes a total
    /// outage. Out-of-range `replica` is a no-op.
    pub fn set_dispatch_gate(&self, replica: usize, open: bool) {
        let mut slots = self.inner.slots.lock().expect("slots poisoned");
        if let Some(slot) = slots.get_mut(replica) {
            slot.gate_open = open;
        }
    }

    /// Whether one replica's dispatch gate is open (`true` for unknown
    /// slots, matching the default).
    pub fn dispatch_gate(&self, replica: usize) -> bool {
        let slots = self.inner.slots.lock().expect("slots poisoned");
        slots.get(replica).map(|s| s.gate_open).unwrap_or(true)
    }

    /// Move the degrade ladder to `level` as of virtual step `step`,
    /// recording a typed [`DegradeEvent`] when the level actually changes.
    /// Effects per level are cumulative (each includes everything below):
    ///
    /// 1. [`DegradeLevel::NoHedging`] — stop arming hedged duplicates.
    /// 2. [`DegradeLevel::RejectLow`] — refuse `Priority::Low` at
    ///    admission with [`RouteError::Shed`].
    /// 3. [`DegradeLevel::ChatOnly`] — additionally refuse normal-priority
    ///    requests with no session-prefix affinity hit.
    pub fn set_degrade_level(&self, level: DegradeLevel, step: u64) {
        let to = level as u8;
        let from = self.inner.degrade_level.swap(to, Ordering::Relaxed);
        if from == to {
            return;
        }
        self.inner
            .degrade_events
            .lock()
            .expect("degrade events poisoned")
            .push(DegradeEvent { step, from, to });
    }

    /// The current degrade-ladder level.
    pub fn degrade_level(&self) -> u8 {
        self.inner.degrade_level.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// ClusterStream
// ---------------------------------------------------------------------------

/// A routed token stream with the [`TokenStream`] surface, plus the
/// router's delivery guarantees layered on top:
///
/// * **Exact-once** — a high-water mark on token indices suppresses any
///   replay from hedged duplicates or failover re-submissions, so every
///   `Token { index, .. }` is delivered at most once and in order.
/// * **Failover** — if the producing replica dies mid-stream, the request
///   is transparently re-submitted (from its original prompt) to a
///   survivor; deterministic per-request-seeded sampling makes the
///   re-generated tokens bit-identical, and delivery resumes at the
///   high-water mark.
/// * **Hedging** — before the first token, a straggling request may race a
///   duplicate on a second replica; the first responder wins and the loser
///   is cancelled synchronously before any of its events are forwarded.
///
/// Dropping the stream cancels whatever is still running, exactly like
/// dropping a [`TokenStream`].
pub struct ClusterStream {
    inner: Arc<RouterInner>,
    id: RouteId,
    replica: usize,
    engine_id: RequestId,
    stream: TokenStream,
    hedge: Option<Placement>,
    next_index: usize,
    saw_first: bool,
    hedge_deadline: Option<Instant>,
    done: bool,
}

impl std::fmt::Debug for ClusterStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterStream")
            .field("id", &self.id)
            .field("replica", &self.replica)
            .field("engine_id", &self.engine_id)
            .field("next_index", &self.next_index)
            .field("hedged", &self.hedge.is_some())
            .field("done", &self.done)
            .finish()
    }
}

impl ClusterStream {
    /// The cluster-level route id (matches the rewritten
    /// [`ServeResponse::id`]).
    pub fn id(&self) -> RouteId {
        self.id
    }

    /// Next token event, blocking until one is available. `None` after the
    /// terminal event, or if the whole fleet died under the request.
    pub fn next_event(&mut self) -> Option<TokenEvent> {
        loop {
            if self.done {
                return None;
            }
            if self.hedge.is_some() {
                if let Some(ev) = self.race_step() {
                    if let Some(out) = self.admit(ev) {
                        return Some(out);
                    }
                }
                continue;
            }
            let ev = match self.hedge_deadline {
                Some(deadline) if !self.saw_first => {
                    let now = Instant::now();
                    if now >= deadline {
                        self.hedge_deadline = None;
                        self.arm_hedge();
                        continue;
                    }
                    match self.stream.poll_event(deadline - now) {
                        StreamPoll::Event(ev) => Some(ev),
                        StreamPoll::TimedOut => {
                            self.hedge_deadline = None;
                            self.arm_hedge();
                            continue;
                        }
                        StreamPoll::Ended => None,
                    }
                }
                _ => self.stream.next_event(),
            };
            match ev {
                Some(ev) => {
                    if let Some(out) = self.admit(ev) {
                        return Some(out);
                    }
                }
                None => {
                    // Disconnect without a terminal: the producing engine
                    // died. Re-place ourselves on a survivor.
                    if !self.redispatch_self() {
                        self.done = true;
                        self.finish_route();
                        return None;
                    }
                }
            }
        }
    }

    /// Block until the terminal event and return the final response.
    /// `None` if the stream ended without one (fleet lost).
    pub fn wait(&mut self) -> Option<ServeResponse> {
        while let Some(ev) = self.next_event() {
            if let TokenEvent::Finished(resp) = ev {
                return Some(resp);
            }
        }
        None
    }

    /// Apply the exact-once filter and terminal bookkeeping to a raw
    /// engine event. `None` means the event was suppressed (failover
    /// replay below the high-water mark).
    fn admit(&mut self, ev: TokenEvent) -> Option<TokenEvent> {
        match ev {
            TokenEvent::Token { index, token } => {
                if index < self.next_index {
                    return None;
                }
                self.next_index = index + 1;
                self.saw_first = true;
                Some(TokenEvent::Token { index, token })
            }
            TokenEvent::Finished(mut resp) => {
                self.cancel_hedge();
                resp.id = self.id.raw();
                self.done = true;
                self.finish_route();
                Some(TokenEvent::Finished(resp))
            }
        }
    }

    /// One round of the primary-vs-hedge race: alternate short polls until
    /// either side produces an event or dies. `Some(ev)` hands the winning
    /// event up (the loser is already cancelled); `None` means "state
    /// changed, poll again".
    fn race_step(&mut self) -> Option<TokenEvent> {
        match self.stream.poll_event(HEDGE_SLICE) {
            StreamPoll::Event(ev) => {
                self.cancel_hedge();
                return Some(ev);
            }
            StreamPoll::Ended => {
                // Primary died mid-race: the hedge becomes the primary.
                let p = self.hedge.take().expect("race requires a hedge");
                self.install(p);
                return None;
            }
            StreamPoll::TimedOut => {}
        }
        let hedge = self.hedge.as_mut().expect("race requires a hedge");
        match hedge.stream.poll_event(HEDGE_SLICE) {
            StreamPoll::Event(ev) => {
                let p = self.hedge.take().expect("hedge present");
                let loser_replica = self.replica;
                let loser_id = self.engine_id;
                self.install(p);
                // Synchronous cancel: after this returns the loser can
                // never emit another token, and nothing it already emitted
                // was forwarded.
                self.cancel_on(loser_replica, loser_id);
                Some(ev)
            }
            StreamPoll::Ended => {
                self.hedge = None;
                None
            }
            StreamPoll::TimedOut => None,
        }
    }

    /// Duplicate the request onto the best replica other than the current
    /// one. Failure to place a hedge is silent — the primary still runs.
    /// Suppressed entirely while the degrade ladder is at
    /// [`DegradeLevel::NoHedging`] or above: under pressure, duplicate
    /// work is the first thing to go.
    fn arm_hedge(&mut self) {
        if self.inner.degrade_level.load(Ordering::Relaxed) >= DegradeLevel::NoHedging as u8 {
            return;
        }
        let request = {
            let routes = self.inner.routes.lock().expect("route table poisoned");
            match routes.get(&self.id.0) {
                Some(e) => e.request.clone(),
                None => return,
            }
        };
        let picks = match self
            .inner
            .candidates(request.prompt(), Some(self.replica), false)
        {
            Ok(p) => p,
            Err(_) => return,
        };
        for pick in &picks {
            if let Ok((engine_id, stream)) = pick.handle.try_submit(request.clone()) {
                self.inner.hedges.fetch_add(1, Ordering::Relaxed);
                self.hedge = Some(Placement {
                    replica: pick.replica,
                    engine_id,
                    stream,
                });
                return;
            }
        }
    }

    /// The producing engine died without a terminal event: re-submit the
    /// original request to a survivor and resume at the high-water mark.
    fn redispatch_self(&mut self) -> bool {
        if let Some(p) = self.hedge.take() {
            // The hedge already has a live copy running — promote it.
            self.install(p);
            return true;
        }
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        let request = {
            let routes = self.inner.routes.lock().expect("route table poisoned");
            match routes.get(&self.id.0) {
                Some(e) => e.request.clone(),
                None => return false,
            }
        };
        for _ in 0..DISPATCH_ROUNDS {
            let picks = match self
                .inner
                .candidates(request.prompt(), Some(self.replica), true)
            {
                Ok(p) => p,
                Err(_) => return false,
            };
            let pick = &picks[0];
            match pick.handle.submit(request.clone()) {
                Ok((engine_id, stream)) => {
                    self.inner.rerouted.fetch_add(1, Ordering::Relaxed);
                    self.inner.record_affinity(request.prompt(), pick.replica);
                    self.install(Placement {
                        replica: pick.replica,
                        engine_id,
                        stream,
                    });
                    return true;
                }
                Err(_) => self.inner.note_unavailable(pick.replica),
            }
        }
        false
    }

    /// Swap the producing engine and update the route entry so cancel and
    /// stats target the right engine.
    fn install(&mut self, p: Placement) {
        {
            let mut routes = self.inner.routes.lock().expect("route table poisoned");
            if let Some(e) = routes.get_mut(&self.id.0) {
                e.replica = p.replica;
                e.engine_id = p.engine_id;
            }
        }
        self.replica = p.replica;
        self.engine_id = p.engine_id;
        self.stream = p.stream;
    }

    fn cancel_on(&self, replica: usize, engine_id: RequestId) {
        if let Some(handle) = self.inner.handle_for(replica) {
            let _ = handle.cancel(engine_id);
        }
    }

    fn cancel_hedge(&mut self) {
        if let Some(p) = self.hedge.take() {
            let replica = p.replica;
            let engine_id = p.engine_id;
            drop(p.stream);
            self.cancel_on(replica, engine_id);
        }
    }

    /// Remove the route entry and release the tenant slot. Idempotent.
    fn finish_route(&mut self) {
        let entry = {
            let mut routes = self.inner.routes.lock().expect("route table poisoned");
            routes.remove(&self.id.0)
        };
        if let Some(e) = entry {
            if let Some(t) = e.tenant {
                self.inner.tenant_release(&t);
            }
        }
    }
}

impl Drop for ClusterStream {
    fn drop(&mut self) {
        // Dropping `self.stream` auto-cancels the live copy engine-side;
        // the hedge needs the same treatment, and the route entry must go.
        self.cancel_hedge();
        self.finish_route();
    }
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

/// A fleet of [`ServeEngine`] replicas behind one [`RouterHandle`].
///
/// Each replica must own its *own* KV block pool — pass freshly configured
/// models (e.g. `model.clone().with_kv_config(..)`), not clones sharing a
/// pool. [`Cluster::new`] panics if two replicas share a pool, because
/// affinity accounting and the kill-time leak check would silently lie.
pub struct Cluster {
    engines: Vec<Option<ServeEngine>>,
    pools: Vec<Arc<KvBlockPool>>,
    inner: Arc<RouterInner>,
}

impl Cluster {
    /// Spin up one [`ServeEngine`] per model, all sharing `config.engine`.
    pub fn new<M: ServeModel + 'static>(models: Vec<M>, config: ClusterConfig) -> Self {
        assert!(!models.is_empty(), "a cluster needs at least one replica");
        let block_tokens = models[0].kv_pool().block_tokens();
        let mut pools: Vec<Arc<KvBlockPool>> = Vec::with_capacity(models.len());
        for model in &models {
            let pool = Arc::clone(model.kv_pool());
            assert!(
                !pools.iter().any(|p| Arc::ptr_eq(p, &pool)),
                "replicas must not share a KV pool; configure each model \
                 with its own via with_kv_config"
            );
            pools.push(pool);
        }
        let mut engines = Vec::with_capacity(models.len());
        let mut slots = Vec::with_capacity(models.len());
        for model in models {
            let engine = ServeEngine::new(model, config.engine);
            slots.push(Slot {
                handle: engine.handle(),
                state: ReplicaState::Active,
                gate_open: true,
            });
            engines.push(Some(engine));
        }
        let inner = Arc::new(RouterInner {
            cfg: config,
            block_tokens,
            slots: Mutex::new(slots),
            affinity: Mutex::new(AffinityMap {
                map: HashMap::new(),
                order: VecDeque::new(),
                cap: AFFINITY_CAPACITY,
            }),
            tenants: Mutex::new(HashMap::new()),
            routes: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            next_route: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            affinity_hits: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            degrade_level: AtomicU8::new(0),
            degrade_events: Mutex::new(Vec::new()),
        });
        Cluster {
            engines,
            pools,
            inner,
        }
    }

    /// A cloneable router handle to the fleet.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of replica slots (live or not).
    pub fn replicas(&self) -> usize {
        self.engines.len()
    }

    /// Lifecycle state of one replica slot.
    pub fn replica_state(&self, replica: usize) -> ReplicaState {
        self.inner.slots.lock().expect("slots poisoned")[replica].state
    }

    /// The KV block pool behind one replica — the ledger a failure test
    /// audits for leaks after a kill.
    pub fn pool(&self, replica: usize) -> Arc<KvBlockPool> {
        Arc::clone(&self.pools[replica])
    }

    /// The engine handle behind one replica slot, for out-of-band control
    /// (fault injection, stall/stream-drop hooks). The handle outlives a
    /// kill — operations on a dead engine are harmless no-ops.
    pub fn engine_handle(&self, replica: usize) -> EngineHandle {
        self.inner.slots.lock().expect("slots poisoned")[replica]
            .handle
            .clone()
    }

    /// Fleet-wide high-water mark of physical resident KV bytes: the sum
    /// over replicas of each pool's peak of owned plus distinct shared
    /// blocks. This is the capacity number placement policy moves —
    /// prefix-affinity routing dedups a session's history into one
    /// replica's radix index instead of replicating it across the fleet,
    /// so it shows up here even though per-request peaks are unchanged.
    pub fn resident_peak_bytes(&self) -> usize {
        self.pools.iter().map(|p| p.peak_bytes()).sum()
    }

    /// Drain one replica: the router stops dispatching to it and its
    /// engine refuses new work, while everything in flight runs to its
    /// terminal event.
    ///
    /// Idempotent with a typed [`DrainOutcome`] (mirroring
    /// [`CancelOutcome`]): exactly one call observes
    /// [`DrainOutcome::Draining`]; repeats report
    /// [`DrainOutcome::AlreadyDraining`], and draining a dead slot is a
    /// [`DrainOutcome::Dead`] no-op.
    pub fn drain(&self, replica: usize) -> DrainOutcome {
        let handle = {
            let mut slots = self.inner.slots.lock().expect("slots poisoned");
            match slots[replica].state {
                ReplicaState::Dead => return DrainOutcome::Dead,
                ReplicaState::Draining => return DrainOutcome::AlreadyDraining,
                ReplicaState::Active => {}
            }
            slots[replica].state = ReplicaState::Draining;
            slots[replica].handle.clone()
        };
        handle.drain();
        DrainOutcome::Draining
    }

    /// Kill one replica abruptly: its worker exits within a step and every
    /// in-flight stream it served disconnects. Each such request is
    /// re-submitted to a survivor from its original prompt the next time
    /// its [`ClusterStream`] is polled; deterministic sampling makes the
    /// re-generated tokens bit-identical, and the stream's high-water mark
    /// suppresses re-delivery of anything already seen.
    pub fn kill(&mut self, replica: usize) {
        {
            let mut slots = self.inner.slots.lock().expect("slots poisoned");
            slots[replica].state = ReplicaState::Dead;
        }
        if let Some(engine) = self.engines[replica].take() {
            engine.kill();
        }
    }

    /// Bring a dead (or drained) slot back with a fresh model. The slot
    /// re-enters dispatch immediately; any prior engine is shut down.
    pub fn respawn<M: ServeModel + 'static>(&mut self, replica: usize, model: M) {
        if let Some(engine) = self.engines[replica].take() {
            engine.shutdown();
        }
        self.pools[replica] = Arc::clone(model.kv_pool());
        let engine = ServeEngine::new(model, self.inner.cfg.engine);
        {
            let mut slots = self.inner.slots.lock().expect("slots poisoned");
            slots[replica] = Slot {
                handle: engine.handle(),
                state: ReplicaState::Active,
                gate_open: true,
            };
        }
        self.engines[replica] = Some(engine);
    }

    /// Stop dispatch fleet-wide, drain every replica to its terminal
    /// events, and join the workers.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        {
            let mut slots = self.inner.slots.lock().expect("slots poisoned");
            for slot in slots.iter_mut() {
                if slot.state == ReplicaState::Active {
                    slot.state = ReplicaState::Draining;
                }
            }
        }
        for engine in self.engines.iter_mut() {
            if let Some(engine) = engine.take() {
                engine.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_core::serve::{FinishReason, SamplingConfig};
    use edkm_core::{CompressSpec, KvBlockConfig, PalettizedModel};
    use edkm_nn::{LlamaConfig, LlamaModel};
    use edkm_tensor::{runtime, DType, Device};

    const KV: KvBlockConfig = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };

    fn base_model() -> PalettizedModel {
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
        PalettizedModel::from_dense(&dense, &spec).expect("servable export")
    }

    fn fleet(model: &PalettizedModel, n: usize) -> Vec<PalettizedModel> {
        (0..n)
            .map(|_| model.clone().with_kv_config(KV).with_prefix_cache(true))
            .collect()
    }

    /// Replicas without the engine-level prefix cache: the radix index
    /// retains blocks past request retirement (counted by
    /// `blocks_in_use`), which would mask the zero-leak assertion after a
    /// kill.
    fn fleet_plain(model: &PalettizedModel, n: usize) -> Vec<PalettizedModel> {
        (0..n).map(|_| model.clone().with_kv_config(KV)).collect()
    }

    fn req(prompt: Vec<usize>, seed: u64, max_new: usize) -> Request {
        Request::new(prompt)
            .max_new_tokens(max_new)
            .sampling(SamplingConfig {
                temperature: 0.8,
                top_k: 8,
                seed,
            })
    }

    fn collect(stream: &mut ClusterStream) -> (Vec<usize>, ServeResponse) {
        let mut toks = Vec::new();
        let mut last = 0usize;
        let mut first = true;
        loop {
            match stream.next_event().expect("stream ended without terminal") {
                TokenEvent::Token { index, token } => {
                    if !first {
                        assert!(index > last, "token indices must strictly increase");
                    }
                    first = false;
                    last = index;
                    toks.push(token);
                }
                TokenEvent::Finished(resp) => return (toks, resp),
            }
        }
    }

    #[test]
    fn single_replica_cluster_matches_bare_engine_bit_for_bit() {
        let model = base_model();
        let prompts: Vec<Vec<usize>> = (0..4).map(|i| vec![1 + i, 2, 3, 4 + i]).collect();

        // Bare engine reference.
        let engine = ServeEngine::new(
            model.clone().with_kv_config(KV).with_prefix_cache(true),
            EngineConfig::default(),
        );
        let handle = engine.handle();
        let mut reference = Vec::new();
        for (i, p) in prompts.iter().enumerate() {
            let (_, mut s) = handle.submit(req(p.clone(), 40 + i as u64, 6)).unwrap();
            reference.push(s.wait().unwrap().tokens);
        }
        engine.shutdown();

        let cluster = Cluster::new(fleet(&model, 1), ClusterConfig::default());
        let router = cluster.handle();
        for (i, p) in prompts.iter().enumerate() {
            let (_, mut s) = router.submit(req(p.clone(), 40 + i as u64, 6)).unwrap();
            let (streamed, resp) = collect(&mut s);
            assert_eq!(
                resp.tokens, reference[i],
                "placement must not change tokens"
            );
            let gen_tail = &resp.tokens[resp.tokens.len() - resp.generated..];
            assert_eq!(streamed, gen_tail, "streamed tokens match the response");
        }
        cluster.shutdown();
    }

    #[test]
    fn chat_turns_stick_to_their_prefix_replica() {
        let model = base_model();
        let cluster = Cluster::new(fleet(&model, 3), ClusterConfig::default());
        let router = cluster.handle();

        // Turn 1 of a session lands somewhere.
        let turn1: Vec<usize> = vec![9, 8, 7, 6, 5];
        let (_, mut s) = router.submit(req(turn1.clone(), 7, 4)).unwrap();
        let resp1 = s.wait().unwrap();

        // Turn 2 extends turn 1's prompt (history replay, as gen_chat does).
        let mut turn2 = turn1.clone();
        turn2.extend(resp1.tokens[turn1.len()..].iter().copied());
        turn2.extend([11, 12, 13]);
        let (_, mut s2) = router.submit(req(turn2.clone(), 8, 4)).unwrap();
        s2.wait().unwrap();

        let stats = router.stats();
        assert_eq!(stats.routed, 2);
        assert_eq!(
            stats.affinity_hits, 1,
            "the follow-up turn must rediscover its session replica"
        );
        assert!(stats.affinity_hit_rate() > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn tenant_policy_rejects_with_typed_errors() {
        let model = base_model();
        let cluster = Cluster::new(
            fleet(&model, 1),
            ClusterConfig {
                tenancy: Some(TenantPolicy {
                    max_in_flight: 1,
                    bucket_capacity: 2.0,
                    refill_per_sec: 0.0,
                }),
                ..ClusterConfig::default()
            },
        );
        let router = cluster.handle();

        let (_, s1) = router.submit_for("acme", req(vec![1, 2, 3], 1, 8)).unwrap();
        // Second concurrent request: in-flight cap.
        match router.submit_for("acme", req(vec![4, 5, 6], 2, 4)) {
            Err(RouteError::TenantSaturated { tenant }) => assert_eq!(tenant, "acme"),
            other => panic!("expected TenantSaturated, got {other:?}"),
        }
        // Another tenant is unaffected by acme's cap.
        let (_, mut s3) = router.submit_for("beta", req(vec![7, 8, 9], 3, 2)).unwrap();
        s3.wait().unwrap();

        drop(s1); // release acme's slot
                  // Bucket: capacity 2, one token spent, zero refill — one more
                  // admission succeeds, the next is rate-limited.
        let (_, mut s4) = router.submit_for("acme", req(vec![1, 2, 4], 4, 2)).unwrap();
        s4.wait().unwrap();
        match router.submit_for("acme", req(vec![1, 2, 5], 5, 2)) {
            Err(RouteError::RateLimited { tenant }) => assert_eq!(tenant, "acme"),
            other => panic!("expected RateLimited, got {other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn router_cancel_is_idempotent_and_typed() {
        let model = base_model();
        let cluster = Cluster::new(fleet(&model, 2), ClusterConfig::default());
        let router = cluster.handle();

        let (id, mut s) = router.submit(req(vec![1, 2, 3], 11, 32)).unwrap();
        let first = router.cancel(id);
        assert_eq!(first, CancelOutcome::Cancelled);
        let resp = s.wait().expect("cancel still delivers a terminal");
        assert_eq!(resp.finish, FinishReason::Cancelled);
        // Every later cancel — same id, terminal already delivered — is a
        // typed no-op.
        assert_eq!(router.cancel(id), CancelOutcome::AlreadyFinished);
        assert_eq!(router.cancel(id), CancelOutcome::AlreadyFinished);
        cluster.shutdown();
    }

    #[test]
    fn hedging_delivers_every_token_exactly_once() {
        let model = base_model();
        // Reference tokens from an un-hedged run.
        let reference = {
            let cluster = Cluster::new(fleet(&model, 1), ClusterConfig::default());
            let (_, mut s) = cluster
                .handle()
                .submit(req(vec![3, 1, 4, 1], 21, 8))
                .unwrap();
            let resp = s.wait().unwrap();
            cluster.shutdown();
            resp.tokens
        };
        // Hedge immediately: the duplicate races the primary from step one.
        let cluster = Cluster::new(
            fleet(&model, 2),
            ClusterConfig {
                hedge_after: Some(Duration::from_millis(0)),
                ..ClusterConfig::default()
            },
        );
        let router = cluster.handle();
        let (_, mut s) = router.submit(req(vec![3, 1, 4, 1], 21, 8)).unwrap();
        let (streamed, resp) = collect(&mut s); // asserts strictly increasing indices
        assert_eq!(resp.tokens, reference, "hedging must not change tokens");
        assert_eq!(streamed.len(), resp.generated, "no duplicate deliveries");
        assert!(router.stats().hedges >= 1, "the hedge must have been armed");
        cluster.shutdown();
    }

    #[test]
    fn drained_replica_gets_no_new_work_but_finishes_in_flight() {
        let model = base_model();
        let mut requests = Vec::new();
        let cluster = Cluster::new(fleet(&model, 2), ClusterConfig::default());
        let router = cluster.handle();

        let (_, s0) = router.submit(req(vec![2, 7, 1, 8], 31, 16)).unwrap();
        let victim = s0.replica;
        cluster.drain(victim);
        assert_eq!(cluster.replica_state(victim), ReplicaState::Draining);

        // New work only lands on the survivor.
        for i in 0..4 {
            let (_, s) = router
                .submit(req(vec![5 + i, 6, 7], 50 + i as u64, 2))
                .unwrap();
            assert_ne!(s.replica, victim, "drained replica must get no dispatch");
            requests.push(s);
        }
        for mut s in requests {
            s.wait().unwrap();
        }
        // The in-flight request on the drained replica still finishes.
        let mut s0 = s0;
        let resp = s0.wait().expect("in-flight work survives a drain");
        assert_eq!(resp.generated, 16);
        cluster.shutdown();
    }

    #[test]
    fn drain_is_idempotent_with_typed_outcomes() {
        let model = base_model();
        let mut cluster = Cluster::new(fleet(&model, 2), ClusterConfig::default());
        // Exactly one call observes the transition; repeats are typed
        // no-ops, mirroring `CancelOutcome`.
        assert_eq!(cluster.drain(0), DrainOutcome::Draining);
        assert!(DrainOutcome::Draining.started_drain());
        assert_eq!(cluster.drain(0), DrainOutcome::AlreadyDraining);
        assert_eq!(cluster.drain(0), DrainOutcome::AlreadyDraining);
        assert!(!DrainOutcome::AlreadyDraining.started_drain());
        assert_eq!(cluster.replica_state(0), ReplicaState::Draining);
        // Draining a dead slot reports Dead and changes nothing.
        cluster.kill(1);
        assert_eq!(cluster.drain(1), DrainOutcome::Dead);
        assert_eq!(cluster.replica_state(1), ReplicaState::Dead);
        cluster.shutdown();
    }

    #[test]
    fn degrade_ladder_sheds_by_priority_and_recovers() {
        let model = base_model();
        let cluster = Cluster::new(fleet(&model, 2), ClusterConfig::default());
        let router = cluster.handle();
        router.set_degrade_level(DegradeLevel::RejectLow, 10);

        // Low priority is refused with a typed error; normal still flows.
        let low = req(vec![9, 8, 7], 70, 2).priority(Priority::Low);
        match router.submit(low) {
            Err(RouteError::Shed { level }) => {
                assert_eq!(level, DegradeLevel::RejectLow as u8)
            }
            other => panic!("Low must be shed at RejectLow, got {other:?}"),
        }
        let (_, mut ok) = router
            .submit(req(vec![1, 2, 3], 71, 2))
            .expect("normal priority survives RejectLow");
        ok.wait().expect("finishes");

        // ChatOnly also refuses cold normal-priority prompts; High flows.
        router.set_degrade_level(DegradeLevel::ChatOnly, 20);
        match router.submit(req(vec![4, 5, 6], 72, 2)) {
            Err(RouteError::Shed { .. }) => {}
            other => panic!("cold normal prompt must be shed at ChatOnly, got {other:?}"),
        }
        let (_, mut hi) = router
            .submit(req(vec![2, 4, 6], 73, 2).priority(Priority::High))
            .expect("High survives ChatOnly");
        hi.wait().expect("finishes");

        // Recovery restores full admission, and stats carry the history.
        router.set_degrade_level(DegradeLevel::Full, 30);
        let (_, mut back) = router
            .submit(req(vec![9, 8, 7], 74, 2).priority(Priority::Low))
            .expect("Low flows again at Full");
        back.wait().expect("finishes");
        let stats = router.stats();
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.degrade_level, DegradeLevel::Full as u8);
        assert_eq!(stats.degrade_events.len(), 3);
        assert!(stats.degrade_events[0].is_escalation());
        assert!(!stats.degrade_events[2].is_escalation());
        cluster.shutdown();
    }

    #[test]
    fn gated_replica_gets_no_dispatch_until_reopened() {
        let model = base_model();
        let cluster = Cluster::new(fleet(&model, 2), ClusterConfig::default());
        let router = cluster.handle();
        router.set_dispatch_gate(0, false);
        assert!(!router.dispatch_gate(0));
        let mut streams = Vec::new();
        for i in 0..4 {
            let (_, s) = router
                .submit(req(vec![3 + i, 1, 4], 80 + i as u64, 2))
                .unwrap();
            assert_eq!(s.replica, 1, "gated replica must take no dispatch");
            streams.push(s);
        }
        // All-gated never means outage: the router falls back to ignoring
        // gates rather than refusing everyone.
        router.set_dispatch_gate(1, false);
        let (_, s) = router.submit(req(vec![7, 7, 7], 90, 2)).unwrap();
        streams.push(s);
        router.set_dispatch_gate(0, true);
        assert!(router.dispatch_gate(0));
        for mut s in streams {
            s.wait().expect("finishes");
        }
        cluster.shutdown();
    }

    #[test]
    fn killed_replica_fails_over_with_bit_identical_tokens_and_no_leak() {
        let model = base_model();
        let prompts: Vec<Vec<usize>> = (0..6).map(|i| vec![1 + i, 3, 5, 7 + i]).collect();

        // Undisturbed reference.
        let reference: Vec<Vec<usize>> = {
            let cluster = Cluster::new(fleet_plain(&model, 1), ClusterConfig::default());
            let router = cluster.handle();
            let out = prompts
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let (_, mut s) = router.submit(req(p.clone(), 60 + i as u64, 8)).unwrap();
                    s.wait().unwrap().tokens
                })
                .collect();
            cluster.shutdown();
            out
        };

        let mut cluster = Cluster::new(fleet_plain(&model, 2), ClusterConfig::default());
        let router = cluster.handle();
        let mut streams = Vec::new();
        for (i, p) in prompts.iter().enumerate() {
            let (_, s) = router.submit(req(p.clone(), 60 + i as u64, 8)).unwrap();
            streams.push(s);
        }
        // Kill replica 0 while everything is in flight.
        cluster.kill(0);
        assert_eq!(cluster.replica_state(0), ReplicaState::Dead);

        for (i, mut s) in streams.into_iter().enumerate() {
            let (streamed, resp) = collect(&mut s); // strictly increasing indices
            assert_eq!(
                resp.tokens, reference[i],
                "failover must reproduce tokens bit-for-bit"
            );
            assert_eq!(streamed.len(), resp.generated, "exact-once delivery");
            assert_eq!(resp.id, i as u64, "terminal carries the route id");
        }
        assert_eq!(
            cluster.pool(0).blocks_in_use(),
            0,
            "dead replica's ledger must hold zero live blocks"
        );
        cluster.shutdown();
    }

    #[test]
    fn respawned_replica_rejoins_dispatch() {
        let model = base_model();
        let mut cluster = Cluster::new(fleet(&model, 2), ClusterConfig::default());
        let router = cluster.handle();
        cluster.kill(1);
        cluster.respawn(1, model.clone().with_kv_config(KV).with_prefix_cache(true));
        assert_eq!(cluster.replica_state(1), ReplicaState::Active);
        // Saturate nothing; just prove both replicas serve again.
        let mut streams = Vec::new();
        for i in 0..6 {
            let (_, s) = router
                .submit(req(vec![i + 1, 2, 3], 70 + i as u64, 2))
                .unwrap();
            streams.push(s);
        }
        let replicas: std::collections::HashSet<usize> =
            streams.iter().map(|s| s.replica).collect();
        for mut s in streams {
            s.wait().unwrap();
        }
        assert!(replicas.contains(&1), "respawned slot must take dispatch");
        cluster.shutdown();
    }

    #[test]
    fn empty_fleet_errors_are_typed() {
        let model = base_model();
        let mut cluster = Cluster::new(fleet(&model, 1), ClusterConfig::default());
        let router = cluster.handle();
        cluster.kill(0);
        match router.submit(req(vec![1, 2], 80, 2)) {
            Err(RouteError::NoReplicas) => {}
            other => panic!("expected NoReplicas, got {other:?}"),
        }
        cluster.shutdown();
    }
}
