//! # edkm-cluster
//!
//! A multi-replica serving fleet behind a load- and prefix-aware router.
//!
//! A [`Cluster`] owns N [`ServeEngine`] replicas — each wrapping a
//! [`ServeModel`] — and hands out cloneable [`RouterHandle`]s exposing the
//! same submit/stream/cancel surface as [`EngineHandle`]. The router
//! layers three policies on top of replica dispatch:
//!
//! * **Load-aware scoring** — each replica is scored
//!   `in_flight + min(1, kv_live/kv_peak)` from its live handle and
//!   published [`StatsSnapshot`]; dispatch goes to the minimum.
//! * **Prefix affinity** — prompts are fingerprinted with the same
//!   block-granular radix chunking the KV pool's prefix index uses
//!   ([`edkm_core::prefix_fingerprints`]), and follow-up chat turns are
//!   routed to the replica that already holds their prefix blocks, with
//!   spill to the least-loaded replica when the sticky one is saturated.
//! * **Hedged dispatch** — a request whose first token has not arrived
//!   within a straggler threshold is re-submitted to a second replica;
//!   the first responder wins and the loser is cancelled synchronously,
//!   so every token index is delivered exactly once.
//!
//! A replica can be [killed](Cluster::kill): its in-flight work is
//! transparently re-submitted to survivors from the original prompts —
//! bit-identical tokens, since sampling is seeded per request, never per
//! placement.
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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use edkm_core::engine::{
    EngineConfig, EngineHandle, Request, RequestId, ServeEngine, StatsSnapshot, StreamPoll,
    SubmitError, TokenEvent, TokenStream,
};
use edkm_core::infer::ServeModel;
use edkm_core::kv::{prefix_fingerprints, KvBlockPool, PrefixHasher};
use edkm_core::serve::ServeResponse;

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

/// Router configuration for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Configuration applied to every replica engine.
    pub engine: EngineConfig,
    /// Route follow-up prompts to the replica already holding their prefix.
    pub affinity: bool,
    /// Hedge a request to a second replica when its first token has not
    /// arrived within this budget. `None` disables hedging.
    pub hedge_after: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            engine: EngineConfig::default(),
            affinity: true,
            hedge_after: None,
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
    /// The cluster was shut down.
    ShutDown,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoReplicas => write!(f, "no replica is accepting work"),
            RouteError::Saturated => write!(f, "every active replica is at capacity"),
            RouteError::ShutDown => write!(f, "cluster is shut down"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Cluster-level request identifier, assigned by the router. Stable across
/// hedging and replica failover; the [`ServeResponse::id`] delivered on a
/// [`ClusterStream`] is rewritten to this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(u64);

impl RouteId {
    /// The raw numeric id.
    pub(crate) fn raw(self) -> u64 {
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
    /// No new dispatch: its engine refused a submit as shut down, or the
    /// cluster is shutting down.
    Draining,
    /// Worker gone ([`Cluster::kill`]); the slot takes no more work.
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
    pub(crate) affinity_hits: u64,
    /// Dispatches whose sticky replica was saturated and spilled elsewhere.
    pub spills: u64,
    /// Hedged duplicates submitted for straggling first tokens.
    pub hedges: u64,
    /// Requests re-submitted to a survivor after their replica died.
    pub rerouted: u64,
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
    routes: Mutex<HashMap<u64, RouteEntry>>,
    shutdown: AtomicBool,
    next_route: AtomicU64,
    routed: AtomicU64,
    affinity_hits: AtomicU64,
    spills: AtomicU64,
    hedges: AtomicU64,
    rerouted: AtomicU64,
}

impl RouterInner {
    /// In-flight count at which a sticky replica overflows to the
    /// least-loaded replica instead.
    fn spill_at(&self) -> usize {
        2 * self.cfg.engine.max_batch.max(1)
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
            for (i, slot) in slots.iter().enumerate() {
                if slot.state != ReplicaState::Active || Some(i) == exclude {
                    continue;
                }
                scored.push((i, slot.handle.clone(), load_score(slot)));
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
                    if scored[pos].1.in_flight() < self.spill_at() {
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

    fn route(
        self: &Arc<Self>,
        request: Request,
        blocking: bool,
    ) -> Result<(RouteId, ClusterStream), RouteError> {
        let placed = self.dispatch(&request, blocking)?;
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
        self.inner.route(request, true)
    }

    /// Non-blocking [`RouterHandle::submit`]: walks replicas in preference
    /// order and returns [`RouteError::Saturated`] if every active replica
    /// is at capacity.
    pub fn try_submit(&self, request: Request) -> Result<(RouteId, ClusterStream), RouteError> {
        self.inner.route(request, false)
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
        }
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
    fn arm_hedge(&mut self) {
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

    /// Remove the route entry. Idempotent.
    fn finish_route(&mut self) {
        self.inner
            .routes
            .lock()
            .expect("route table poisoned")
            .remove(&self.id.0);
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
            routes: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            next_route: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            affinity_hits: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
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
    use edkm_core::serve::SamplingConfig;
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
