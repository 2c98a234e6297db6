//! Streaming serve-engine façade: a [`ServeEngine`] owns the
//! continuous-batching [`Scheduler`] loop on a background worker thread,
//! and cheap cloneable [`EngineHandle`]s are what clients talk to.
//!
//! The request surface is a typed [`Request`] builder (prompt, sampling,
//! token budget, stop tokens, [`Priority`], optional deadline-in-steps).
//! Submission returns a [`RequestId`] plus a [`TokenStream`] that yields
//! incremental [`TokenEvent`]s — the first token, every decode token, then
//! one terminal event carrying the full [`ServeResponse`] with its typed
//! [`FinishReason`]. Admission is bounded: [`EngineHandle::try_submit`]
//! refuses when the engine is full, [`EngineHandle::submit`] blocks until
//! capacity frees up. [`EngineHandle::cancel`] removes a request wherever
//! it is — its KV blocks return to the pool before the next decode step,
//! and once `cancel` returns, the request will never emit another token.
//!
//! ## Thread model
//!
//! One worker thread owns the model and the scheduler; it binds the
//! runtime of the thread that called [`ServeEngine::new`], so every FLOP
//! and KV byte lands in the same ledgers as inline serving. Handles and
//! worker meet at a mutex-protected inbox (submissions, cancellations,
//! shutdown) with a condvar for wakeups; tokens travel back over
//! per-request channels, so a slow consumer never blocks the decode loop.
//! A dropped [`TokenStream`] auto-cancels its request on the next step.
//!
//! Because sampling is per-request-seeded and logits rows never depend on
//! batch composition, the streamed tokens are **bit-identical** to what
//! [`Scheduler::run_to_completion`] returns for the same requests — the
//! parity `tests/engine_stream.rs` pins, including under forced
//! preemption (replayed tokens are emitted exactly once).

use crate::infer::ServeModel;
use crate::serve::{
    FinishReason, Priority, SamplingConfig, Scheduler, ServeRequest, ServeResponse, StepEvents,
};
use edkm_tensor::runtime;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Engine-assigned identifier of one submitted request: echoed in every
/// [`ServeResponse`] (as its raw `u64`) and the key [`EngineHandle::cancel`]
/// takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Default token budget of a [`Request`] when
/// [`Request::max_new_tokens`] is not called.
pub(crate) const DEFAULT_MAX_NEW_TOKENS: usize = 16;

/// A typed generation request, built fluently and handed to
/// [`EngineHandle::submit`] / [`EngineHandle::try_submit`].
///
/// Defaults: greedy sampling, `DEFAULT_MAX_NEW_TOKENS` new tokens, no
/// stop tokens, [`Priority::Normal`], no deadline.
#[derive(Debug, Clone)]
pub struct Request {
    prompt: Vec<usize>,
    max_new: usize,
    sampling: SamplingConfig,
    stop_tokens: Vec<usize>,
    priority: Priority,
    deadline_steps: Option<u64>,
}

impl Request {
    /// A request for `prompt` with default policy.
    #[must_use]
    pub fn new(prompt: Vec<usize>) -> Self {
        Request {
            prompt,
            max_new: DEFAULT_MAX_NEW_TOKENS,
            sampling: SamplingConfig::default(),
            stop_tokens: Vec::new(),
            priority: Priority::Normal,
            deadline_steps: None,
        }
    }

    /// Generate at most `n` new tokens.
    #[must_use]
    pub fn max_new_tokens(mut self, n: usize) -> Self {
        self.max_new = n;
        self
    }

    /// Sample under `sampling` instead of greedy argmax.
    #[must_use]
    pub fn sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = sampling;
        self
    }

    /// End generation when any of `tokens` is sampled (the stop token is
    /// kept in the output; KV blocks free on the same step).
    #[must_use]
    pub fn stop_tokens(mut self, tokens: Vec<usize>) -> Self {
        self.stop_tokens = tokens;
        self
    }

    /// Add one stop token.
    #[must_use]
    pub fn stop_token(mut self, token: usize) -> Self {
        self.stop_tokens.push(token);
        self
    }

    /// Scheduling class; [`Priority::High`] requests are admitted ahead of
    /// FIFO age.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Give up with [`FinishReason::DeadlineExceeded`] once `steps`
    /// scheduler steps have elapsed since submission without finishing.
    #[must_use]
    pub fn deadline_steps(mut self, steps: u64) -> Self {
        self.deadline_steps = Some(steps);
        self
    }

    /// The prompt tokens this request will be prefilled with.
    pub fn prompt(&self) -> &[usize] {
        &self.prompt
    }

    fn into_serve(self, id: u64) -> ServeRequest {
        ServeRequest {
            id,
            prompt: self.prompt,
            max_new: self.max_new,
            sampling: self.sampling,
            stop_tokens: self.stop_tokens,
            priority: self.priority,
            deadline_steps: self.deadline_steps,
        }
    }
}

/// One event on a request's [`TokenStream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenEvent {
    /// A freshly generated token. `index` 0 is the first token (the TTFT
    /// marker); replays after a preemption are never re-emitted.
    Token {
        /// 0-based position among the request's generated tokens.
        index: usize,
        /// The sampled token id.
        token: usize,
    },
    /// The terminal event: the request reached a [`FinishReason`]. No
    /// further events follow.
    Finished(ServeResponse),
}

impl TokenEvent {
    /// The finish reason, for the terminal event.
    pub fn finish_reason(&self) -> Option<FinishReason> {
        match self {
            TokenEvent::Token { .. } => None,
            TokenEvent::Finished(r) => Some(r.finish),
        }
    }
}

/// Receiving end of one request's token stream.
///
/// Iterate it (blocking) to consume [`TokenEvent`]s as the worker produces
/// them; iteration ends after the terminal [`TokenEvent::Finished`].
/// Dropping the stream early cancels the request on the engine's next
/// step, freeing its KV blocks.
#[derive(Debug)]
pub struct TokenStream {
    rx: mpsc::Receiver<TokenEvent>,
    done: bool,
}

impl TokenStream {
    /// Block for the next event; `None` after the terminal event (or if
    /// the engine died without finishing the request).
    pub fn next_event(&mut self) -> Option<TokenEvent> {
        if self.done {
            return None;
        }
        match self.rx.recv() {
            Ok(ev) => {
                if matches!(ev, TokenEvent::Finished(_)) {
                    self.done = true;
                }
                Some(ev)
            }
            Err(_) => {
                self.done = true;
                None
            }
        }
    }

    /// Wait at most `timeout` for the next event. Unlike
    /// [`TokenStream::next_event`], a timeout is distinguishable from the
    /// stream ending — routers hedging on a straggler threshold need that
    /// distinction.
    pub fn poll_event(&mut self, timeout: std::time::Duration) -> StreamPoll {
        if self.done {
            return StreamPoll::Ended;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(ev) => {
                if matches!(ev, TokenEvent::Finished(_)) {
                    self.done = true;
                }
                StreamPoll::Event(ev)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => StreamPoll::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.done = true;
                StreamPoll::Ended
            }
        }
    }

    /// Drain the stream to its terminal event and return the full
    /// [`ServeResponse`]. `None` only if the engine worker died before
    /// finishing the request.
    pub fn wait(&mut self) -> Option<ServeResponse> {
        while let Some(ev) = self.next_event() {
            if let TokenEvent::Finished(resp) = ev {
                return Some(resp);
            }
        }
        None
    }
}

impl Iterator for TokenStream {
    type Item = TokenEvent;

    fn next(&mut self) -> Option<TokenEvent> {
        self.next_event()
    }
}

/// Outcome of one [`TokenStream::poll_event`] wait.
#[derive(Debug)]
pub enum StreamPoll {
    /// An event arrived within the timeout.
    Event(TokenEvent),
    /// Nothing arrived within the timeout; the stream is still live.
    TimedOut,
    /// The stream is over: the terminal event was already consumed, or the
    /// engine died without finishing the request.
    Ended,
}

/// Typed result of [`EngineHandle::cancel`]: cancellation is an idempotent
/// no-op on a request that already reached a terminal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The request was live (queued or mid-flight) and is now cancelled;
    /// its stream receives a terminal [`FinishReason::Cancelled`] event.
    Cancelled,
    /// The request had already finished (or was never submitted): nothing
    /// changed, its stream already holds a terminal event. Repeating the
    /// call returns this again — cancel is an idempotent no-op here.
    AlreadyFinished,
}

impl CancelOutcome {
    /// `true` if this call is the one that cancelled the request.
    pub fn was_cancelled(self) -> bool {
        matches!(self, CancelOutcome::Cancelled)
    }
}

impl std::fmt::Display for CancelOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelOutcome::Cancelled => write!(f, "request cancelled"),
            CancelOutcome::AlreadyFinished => write!(f, "request had already finished"),
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is at capacity
    /// ([`EngineHandle::try_submit`] only; [`EngineHandle::submit`] blocks
    /// instead).
    Full,
    /// The engine is shutting down and accepts no new work.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "engine admission queue is full"),
            SubmitError::ShutDown => write!(f, "engine is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Wall-clock duration one injected stall step burns in the worker loop
/// (see [`EngineHandle::inject_stall`]).
pub(crate) const STALL_TICK: std::time::Duration = std::time::Duration::from_millis(1);

/// Upper bucket bounds (inclusive, in scheduler steps) of the TTFT
/// histogram; one overflow bucket follows the last bound.
pub const TTFT_BUCKET_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Histogram of time-to-first-token, measured in scheduler steps between a
/// request's submission and its first emitted token (deterministic, unlike
/// wall time).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TtftHistogram {
    counts: [u64; TTFT_BUCKET_BOUNDS.len() + 1],
}

impl TtftHistogram {
    /// Record one first-token latency of `steps` scheduler steps.
    pub(crate) fn record(&mut self, steps: u64) {
        let i = TTFT_BUCKET_BOUNDS
            .iter()
            .position(|&b| steps <= b)
            .unwrap_or(TTFT_BUCKET_BOUNDS.len());
        self.counts[i] += 1;
    }

    /// Bucket counts; entry `i` counts latencies `≤ TTFT_BUCKET_BOUNDS[i]`
    /// (the final entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total first tokens recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Point-in-time view of the engine, refreshed by the worker after every
/// scheduling step (and before terminal events are delivered, so stats
/// read after a stream finished already cover that request).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Requests admitted into the engine over its lifetime. At drain
    /// (every stream terminal) `finished + cancelled + expired` equals
    /// this — the accounting invariant the proptest suite pins.
    pub submitted: u64,
    /// [`EngineHandle::try_submit`] refusals at capacity — the engine's
    /// backpressure-rejection count.
    pub rejected_full: u64,
    /// Requests waiting for admission (handle inbox + scheduler queue).
    pub queued: usize,
    /// Sequences currently in flight.
    pub active: usize,
    /// Tokens generated so far, all requests.
    pub tokens_generated: u64,
    /// Batched forward steps executed so far.
    pub decode_steps: u64,
    /// Sequences preempted so far (blocks reclaimed, replayed later).
    pub preemptions: u64,
    /// Requests that finished naturally (budget or stop token).
    pub finished: u64,
    /// Requests cancelled (explicitly or by a dropped stream).
    pub cancelled: u64,
    /// Requests that hit their step deadline.
    pub expired: u64,
    /// KV-cache bytes currently charged by in-flight sequences.
    pub kv_live_bytes: usize,
    /// High-water mark of `kv_live_bytes` over the engine's lifetime.
    pub kv_peak_bytes: usize,
    /// Forward-scratch checkouts served by the scheduler's arena.
    pub scratch_checkouts: u64,
    /// Forward-scratch checkouts that had to allocate. Flat across
    /// steady-state decode — the allocation-free decode contract.
    pub scratch_grows: u64,
    /// Time-to-first-token histogram, in scheduler steps.
    pub ttft_steps: TtftHistogram,
    /// Requests admitted with a non-empty prefix-cache match.
    pub prefix_hits: u64,
    /// Prompt tokens served from the prefix cache instead of prefilled.
    pub prefix_tokens_reused: u64,
    /// Always 0: the serving stack has one decode path and proposes no
    /// speculative tokens. The field stays only because the benchmark
    /// crate reports it as `serve.spec_proposed`; it goes when a
    /// benchmark change drops that metric.
    pub spec_proposed: u64,
}

impl std::fmt::Display for StatsSnapshot {
    /// Compact one-line readout for router debugging and bench logs:
    /// `q2 a4 | 312 tok / 87 steps | kv 4096/8192 B | fin 5 can 1 exp 0`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "q{} a{} | {} tok / {} steps | kv {}/{} B | fin {} can {} exp {}",
            self.queued,
            self.active,
            self.tokens_generated,
            self.decode_steps,
            self.kv_live_bytes,
            self.kv_peak_bytes,
            self.finished,
            self.cancelled,
            self.expired
        )
    }
}

/// Sizing of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Concurrent sequences the scheduler may keep in flight.
    pub max_batch: usize,
    /// Bound on requests inside the engine at once (queued + active):
    /// [`EngineHandle::try_submit`] refuses past it,
    /// [`EngineHandle::submit`] blocks until a terminal event frees a slot.
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 8,
            queue_capacity: 256,
        }
    }
}

/// A pending submission: the request plus the sending half of its stream.
type PendingReq = (ServeRequest, mpsc::Sender<TokenEvent>);

/// Handle-to-worker mailbox.
#[derive(Debug)]
struct Inbox {
    pending: VecDeque<PendingReq>,
    /// Cancellation requests as `(ticket, request id)`. Tickets are unique
    /// per `cancel` call, so two concurrent cancels of the same id each
    /// get their own acknowledgement (exactly one sees `true`).
    cancels: Vec<(u64, u64)>,
    /// Worker acknowledgements, keyed by ticket.
    cancel_results: HashMap<u64, bool>,
    /// Ids submitted and not yet terminal; its size is the in-flight count
    /// the admission capacity bounds.
    live: HashSet<u64>,
    next_id: u64,
    next_ticket: u64,
    shutdown: bool,
    /// Kill mode: the worker aborts at its next inbox visit without
    /// delivering terminal events — in-flight streams disconnect, KV
    /// blocks free as the scheduler drops (a simulated replica crash).
    kill: bool,
    /// Channel-drop fault: at its next inbox visit the worker severs every
    /// live token stream without a terminal event (senders dropped, KV
    /// freed) but stays alive — the router sees disconnects and fails the
    /// requests over, while the replica keeps serving new work.
    drop_streams: bool,
}

#[derive(Debug)]
struct Shared {
    inbox: Mutex<Inbox>,
    cv: Condvar,
    stats: Mutex<StatsSnapshot>,
    capacity: usize,
    max_seq: usize,
    /// The KV pool's block size and its block cap at construction (`0` =
    /// unbounded): what [`EngineHandle::validate`] checks a lone request
    /// against. A KV-squeeze fault lowers the live cap only for a while,
    /// and the scheduler's admission gate waits it out.
    kv_block_tokens: usize,
    kv_max_blocks: usize,
    /// Lifetime admissions (monotone; folded into every published
    /// snapshot).
    submitted: AtomicU64,
    /// Lifetime `try_submit` capacity refusals.
    rejected_full: AtomicU64,
    /// Outstanding injected stall steps (slow-replica fault): while
    /// positive, the worker burns one per iteration sleeping instead of
    /// decoding. One relaxed load per step when zero — the chaos-off cost.
    stall_steps: AtomicU64,
}

impl Shared {
    /// Lock order is always inbox → stats; never the reverse.
    fn lock_inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().expect("engine worker panicked")
    }
}

/// Cheap cloneable client of a [`ServeEngine`]: submit requests, cancel
/// them, read stats. All methods are safe to call from any thread.
#[derive(Debug, Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
}

impl EngineHandle {
    /// Submit `request`, blocking while the engine is at
    /// [`EngineConfig::queue_capacity`]. Returns the engine-assigned id and
    /// the request's token stream.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] once [`ServeEngine::shutdown`] began.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty, if `prompt + max_new_tokens` exceeds
    /// the model's `max_seq` (same contract as [`Scheduler::submit`]), or
    /// if a bounded KV pool cannot hold the request even running alone
    /// (the condition that panics [`Scheduler::step`]). The panic is on
    /// the caller's thread, before the request reaches the worker, so the
    /// engine keeps serving.
    pub fn submit(&self, request: Request) -> Result<(RequestId, TokenStream), SubmitError> {
        self.validate(&request);
        let mut inbox = self.shared.lock_inbox();
        loop {
            if inbox.shutdown {
                return Err(SubmitError::ShutDown);
            }
            if inbox.live.len() < self.shared.capacity {
                break;
            }
            inbox = self.shared.cv.wait(inbox).expect("engine worker panicked");
        }
        Ok(self.admit(&mut inbox, request))
    }

    /// Submit `request` without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] at capacity, [`SubmitError::ShutDown`] once
    /// shutdown began.
    ///
    /// # Panics
    ///
    /// Same contract as [`EngineHandle::submit`].
    pub fn try_submit(&self, request: Request) -> Result<(RequestId, TokenStream), SubmitError> {
        self.validate(&request);
        let mut inbox = self.shared.lock_inbox();
        if inbox.shutdown {
            return Err(SubmitError::ShutDown);
        }
        if inbox.live.len() >= self.shared.capacity {
            self.shared.rejected_full.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Full);
        }
        Ok(self.admit(&mut inbox, request))
    }

    fn validate(&self, request: &Request) {
        let (prompt, max_new) = (request.prompt.len(), request.max_new);
        assert!(prompt > 0, "prompt must be non-empty");
        assert!(
            prompt + max_new <= self.shared.max_seq,
            "prompt {prompt} + {max_new} new tokens exceed max_seq {}",
            self.shared.max_seq
        );
        // What the scheduler reserves for a lone sequence: the prompt plus
        // one decode slot at admission, `prompt + max_new - 1` positions by
        // its last step. A zero-budget request never touches the pool.
        let cap = self.shared.kv_max_blocks;
        if cap > 0 && max_new > 0 {
            let need = (prompt + max_new.max(2) - 1).div_ceil(self.shared.kv_block_tokens);
            assert!(
                need <= cap,
                "prompt {prompt} + {max_new} new tokens need {need} KV blocks running alone, \
                 pool caps at {cap}"
            );
        }
    }

    fn admit(&self, inbox: &mut Inbox, request: Request) -> (RequestId, TokenStream) {
        let id = inbox.next_id;
        inbox.next_id += 1;
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        inbox.pending.push_back((request.into_serve(id), tx));
        inbox.live.insert(id);
        self.shared.cv.notify_all();
        (RequestId(id), TokenStream { rx, done: false })
    }

    /// Cancel a request wherever it is: still queued, or mid-flight (its
    /// KV blocks return to the pool before the next decode step). Blocks
    /// until the worker acknowledges, so once `cancel` returns the request
    /// will never emit another token; its stream receives a terminal
    /// [`FinishReason::Cancelled`] event carrying whatever was generated.
    ///
    /// Cancelling a request that already finished (or was never submitted)
    /// is an **idempotent no-op**: nothing changes, its stream already
    /// holds a terminal event, and the call returns
    /// [`CancelOutcome::AlreadyFinished`] — on every repeat too. Exactly
    /// one call can ever observe [`CancelOutcome::Cancelled`] for a given
    /// request, even under concurrent cancels (`tests/engine_stream.rs`
    /// pins both properties).
    pub fn cancel(&self, id: RequestId) -> CancelOutcome {
        let mut inbox = self.shared.lock_inbox();
        if !inbox.live.contains(&id.0) {
            return CancelOutcome::AlreadyFinished;
        }
        let ticket = inbox.next_ticket;
        inbox.next_ticket += 1;
        inbox.cancels.push((ticket, id.0));
        self.shared.cv.notify_all();
        loop {
            if let Some(found) = inbox.cancel_results.remove(&ticket) {
                return if found {
                    CancelOutcome::Cancelled
                } else {
                    CancelOutcome::AlreadyFinished
                };
            }
            inbox = self.shared.cv.wait(inbox).expect("engine worker panicked");
        }
    }

    /// Requests inside the engine right now (queued + active).
    pub fn in_flight(&self) -> usize {
        self.shared.lock_inbox().live.len()
    }

    /// Inject `steps` stalled decode steps — the slow-replica fault. The
    /// worker burns one stalled step per loop iteration (sleeping
    /// `STALL_TICK` instead of decoding), so in-flight streams stop
    /// producing while the engine stays alive and cancellable.
    /// Additive across calls; a no-op engine-side once the balance drains.
    pub fn inject_stall(&self, steps: u64) {
        self.shared.stall_steps.fetch_add(steps, Ordering::Relaxed);
        self.shared.cv.notify_all();
    }

    /// Sever every live token stream — the router↔replica channel-drop
    /// fault. At its next inbox visit the worker drops all per-request
    /// senders **without** terminal events (consumers see a disconnect,
    /// exactly as if the replica died), cancels the underlying sequences so
    /// their KV blocks return to the pool, and keeps serving new work.
    /// Returns the number of streams that were live when the fault landed.
    pub fn drop_streams(&self) -> usize {
        let mut inbox = self.shared.lock_inbox();
        let live = inbox.live.len();
        inbox.drop_streams = true;
        self.shared.cv.notify_all();
        live
    }

    /// The latest [`StatsSnapshot`], refreshed by the worker after every
    /// scheduling step.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared
            .stats
            .lock()
            .expect("engine worker panicked")
            .clone()
    }
}

/// The streaming serving engine: owns a [`ServeModel`] and its
/// [`Scheduler`] on a background worker thread; clients interact through
/// [`EngineHandle`]s.
///
/// Dropping the engine (or calling [`ServeEngine::shutdown`]) stops
/// admissions, drains every in-flight request to its terminal event, and
/// joins the worker.
///
/// ```
/// use edkm_core::engine::{EngineConfig, Request, ServeEngine, TokenEvent};
/// use edkm_core::{CompressSpec, FinishReason, PalettizedModel, SamplingConfig};
/// use edkm_nn::{LlamaConfig, LlamaModel};
/// use edkm_tensor::{runtime, DType, Device};
///
/// runtime::reset();
/// let dense = LlamaModel::new(LlamaConfig::tiny(), DType::Bf16, Device::Cpu, 0);
/// let mut spec = CompressSpec::with_bits(2);
/// spec.dkm.iters = 2;
/// let served = PalettizedModel::from_dense(&dense, &spec).unwrap();
///
/// let engine = ServeEngine::new(served, EngineConfig::default());
/// let handle = engine.handle();
/// let (_id, mut stream) = handle
///     .submit(Request::new(vec![1, 2]).max_new_tokens(4))
///     .unwrap();
/// // Tokens arrive incrementally; the final event carries the response.
/// let events: Vec<TokenEvent> = stream.by_ref().collect();
/// assert_eq!(events.len(), 5); // 4 tokens + the terminal event
/// assert_eq!(
///     events.last().unwrap().finish_reason(),
///     Some(FinishReason::MaxTokens)
/// );
/// assert!(handle.stats().tokens_generated >= 4);
/// engine.shutdown();
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Spawn the worker thread over `model`. The worker binds the calling
    /// thread's runtime, so all serving FLOPs and KV bytes charge the same
    /// ledgers as inline use of the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` or `config.queue_capacity` is 0.
    pub fn new<M: ServeModel + 'static>(model: M, config: EngineConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.queue_capacity > 0, "queue_capacity must be positive");
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Inbox {
                pending: VecDeque::new(),
                cancels: Vec::new(),
                cancel_results: HashMap::new(),
                live: HashSet::new(),
                next_id: 0,
                next_ticket: 0,
                shutdown: false,
                kill: false,
                drop_streams: false,
            }),
            cv: Condvar::new(),
            stats: Mutex::new(StatsSnapshot::default()),
            capacity: config.queue_capacity,
            max_seq: model.config().max_seq,
            kv_block_tokens: model.kv_pool().block_tokens(),
            kv_max_blocks: model.kv_pool().max_blocks(),
            submitted: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            stall_steps: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let rt = runtime::current();
        let worker = std::thread::Builder::new()
            .name("edkm-serve-engine".into())
            .spawn(move || {
                let _g = runtime::bind(&rt);
                worker_loop(model, worker_shared, config.max_batch);
            })
            .expect("spawn engine worker");
        ServeEngine {
            shared,
            worker: Some(worker),
        }
    }

    /// A new client handle (cheap; clone freely across threads).
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop accepting requests, drain everything in flight to its terminal
    /// event, and join the worker.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic (e.g. a KV pool too small for a single
    /// request — the same condition that panics [`Scheduler::step`]).
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(worker) = self.worker.take() {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }

    fn begin_shutdown(&self) {
        let mut inbox = self.shared.lock_inbox();
        inbox.shutdown = true;
        self.shared.cv.notify_all();
    }

    /// Abrupt termination — a simulated replica crash. Unlike
    /// [`ServeEngine::shutdown`], in-flight requests get **no** terminal
    /// event: the worker stops at its next inbox visit (within one
    /// scheduling step), every live stream disconnects
    /// ([`TokenStream::next_event`] returns `None`), queued-but-unadmitted
    /// requests are discarded, and all KV blocks return to the pool as the
    /// scheduler drops. A fronting router observes the disconnects and
    /// re-submits the affected requests to surviving replicas.
    ///
    /// Blocked [`EngineHandle::submit`] / [`EngineHandle::cancel`] callers
    /// are woken and return [`SubmitError::ShutDown`] /
    /// [`CancelOutcome::AlreadyFinished`] respectively. Worker panics are
    /// swallowed (the engine is being declared dead regardless).
    pub fn kill(mut self) {
        {
            let mut inbox = self.shared.lock_inbox();
            inbox.kill = true;
            inbox.shutdown = true;
            self.shared.cv.notify_all();
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(worker) = self.worker.take() {
            // Swallow worker panics during drop (a panicking drop aborts);
            // `shutdown()` is the propagating path.
            let _ = worker.join();
        }
    }
}

/// Worker-local tallies folded into each published [`StatsSnapshot`].
#[derive(Default)]
struct Tallies {
    finished: u64,
    cancelled: u64,
    expired: u64,
    kv_peak: usize,
    ttft: TtftHistogram,
}

fn publish_stats<M: ServeModel>(
    shared: &Shared,
    sched: &Scheduler<'_, M>,
    pending: usize,
    tallies: &Tallies,
) {
    let mut stats = shared.stats.lock().expect("stats lock");
    *stats = StatsSnapshot {
        submitted: shared.submitted.load(Ordering::Relaxed),
        rejected_full: shared.rejected_full.load(Ordering::Relaxed),
        queued: pending + sched.queued(),
        active: sched.active(),
        tokens_generated: sched.tokens_generated(),
        decode_steps: sched.decode_steps(),
        preemptions: sched.preemptions(),
        finished: tallies.finished,
        cancelled: tallies.cancelled,
        expired: tallies.expired,
        kv_live_bytes: sched.kv_live_bytes(),
        kv_peak_bytes: tallies.kv_peak,
        scratch_checkouts: sched.scratch().checkouts(),
        scratch_grows: sched.scratch().grows(),
        ttft_steps: tallies.ttft.clone(),
        prefix_hits: sched.prefix_hits(),
        prefix_tokens_reused: sched.prefix_tokens_reused(),
        spec_proposed: 0,
    };
}

fn worker_loop<M: ServeModel>(model: M, shared: Arc<Shared>, max_batch: usize) {
    let mut sched = Scheduler::new(&model, max_batch);
    let mut streams: HashMap<u64, mpsc::Sender<TokenEvent>> = HashMap::new();
    let mut submit_step: HashMap<u64, u64> = HashMap::new();
    let mut tallies = Tallies::default();
    // One event buffer for the life of the worker: `step_events_into`
    // clears and refills it each step, so steady-state stepping performs
    // no per-step event allocations.
    let mut events = StepEvents::default();

    'serve: loop {
        // Phase 1 — drain the inbox (cancellations first, so a cancel
        // issued against a queued submission wins; then new submissions),
        // sleeping on the condvar while there is nothing to do.
        {
            let mut inbox = shared.lock_inbox();
            loop {
                if inbox.kill {
                    // Crash teardown: acknowledge blocked cancellers (the
                    // request is as finished as it will ever get), discard
                    // queued submissions (dropping their senders
                    // disconnects the streams), and forget live ids so
                    // capacity-blocked submitters wake into ShutDown.
                    let cancels: Vec<(u64, u64)> = inbox.cancels.drain(..).collect();
                    for (ticket, _) in cancels {
                        inbox.cancel_results.insert(ticket, false);
                    }
                    inbox.pending.clear();
                    inbox.live.clear();
                    shared.cv.notify_all();
                    break 'serve;
                }
                if inbox.drop_streams {
                    // Channel-drop fault: sever every live stream with no
                    // terminal event — queued submissions are discarded and
                    // in-flight sequences cancelled (KV freed) while the
                    // worker keeps running. Consumers observe a disconnect
                    // exactly as on a kill; the engine itself stays
                    // routable. Severed requests count as cancelled so the
                    // `finished + cancelled + expired == submitted`
                    // invariant still closes at drain.
                    inbox.drop_streams = false;
                    while let Some((req, _tx)) = inbox.pending.pop_front() {
                        inbox.live.remove(&req.id);
                        tallies.cancelled += 1;
                    }
                    let ids: Vec<u64> = streams.keys().copied().collect();
                    for id in ids {
                        if sched.cancel(id).is_some() {
                            tallies.cancelled += 1;
                        }
                        streams.remove(&id);
                        submit_step.remove(&id);
                        inbox.live.remove(&id);
                    }
                    shared.cv.notify_all();
                }
                let cancels: Vec<(u64, u64)> = inbox.cancels.drain(..).collect();
                let acked = !cancels.is_empty();
                for (ticket, id) in cancels {
                    let resp = if let Some(pos) = inbox.pending.iter().position(|(r, _)| r.id == id)
                    {
                        let (req, tx) = inbox.pending.remove(pos).expect("position in range");
                        streams.insert(id, tx);
                        Some(ServeResponse {
                            id,
                            tokens: req.prompt,
                            generated: 0,
                            finish: FinishReason::Cancelled,
                        })
                    } else {
                        sched.cancel(id)
                    };
                    let found = resp.is_some();
                    if let Some(resp) = resp {
                        if let Some(tx) = streams.remove(&id) {
                            let _ = tx.send(TokenEvent::Finished(resp));
                        }
                        submit_step.remove(&id);
                        inbox.live.remove(&id);
                        tallies.cancelled += 1;
                    }
                    inbox.cancel_results.insert(ticket, found);
                }
                while let Some((req, tx)) = inbox.pending.pop_front() {
                    submit_step.insert(req.id, sched.decode_steps());
                    streams.insert(req.id, tx);
                    sched.submit(req);
                }
                if acked {
                    shared.cv.notify_all();
                }
                if !sched.is_idle() {
                    break;
                }
                publish_stats(&shared, &sched, inbox.pending.len(), &tallies);
                if inbox.shutdown {
                    break 'serve;
                }
                inbox = shared.cv.wait(inbox).expect("inbox lock");
            }
        }

        // Phase 2 — one scheduling step into the reusable event buffer.
        // An injected stall burns this iteration sleeping instead: streams
        // stop producing, stats stop moving, the replica wedges — the
        // chaos path is one relaxed load when no stall is pending.
        if shared.stall_steps.load(Ordering::Relaxed) > 0 {
            shared.stall_steps.fetch_sub(1, Ordering::Relaxed);
            std::thread::sleep(STALL_TICK);
            continue 'serve;
        }
        sched.step_events_into(&mut events);
        tallies.kv_peak = tallies.kv_peak.max(sched.kv_live_bytes());
        for t in &events.tokens {
            if t.index == 0 {
                if let Some(&s0) = submit_step.get(&t.id) {
                    tallies.ttft.record(sched.decode_steps().saturating_sub(s0));
                }
            }
        }
        for resp in &events.finished {
            if resp.finish == FinishReason::DeadlineExceeded {
                tallies.expired += 1;
            } else {
                tallies.finished += 1;
            }
        }

        // Phase 3 — publish stats BEFORE delivering terminal events, so a
        // client that saw its stream finish reads stats that include it.
        publish_stats(&shared, &sched, 0, &tallies);

        // Phase 4 — deliver. A send error means the client dropped its
        // stream: cancel the request so its KV blocks go back to the pool.
        let mut dropped: Vec<u64> = Vec::new();
        for t in &events.tokens {
            if let Some(tx) = streams.get(&t.id) {
                if tx
                    .send(TokenEvent::Token {
                        index: t.index,
                        token: t.token,
                    })
                    .is_err()
                {
                    dropped.push(t.id);
                }
            }
        }
        let mut terminals: Vec<u64> = Vec::with_capacity(events.finished.len());
        for resp in events.finished.drain(..) {
            let id = resp.id;
            if let Some(tx) = streams.remove(&id) {
                let _ = tx.send(TokenEvent::Finished(resp));
            }
            submit_step.remove(&id);
            terminals.push(id);
        }
        for &id in &dropped {
            if sched.cancel(id).is_some() {
                tallies.cancelled += 1;
                streams.remove(&id);
                submit_step.remove(&id);
                terminals.push(id);
            }
        }
        if !terminals.is_empty() {
            let mut inbox = shared.lock_inbox();
            for id in terminals {
                inbox.live.remove(&id);
            }
            shared.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_compact_line() {
        let s = StatsSnapshot {
            queued: 2,
            active: 4,
            tokens_generated: 312,
            decode_steps: 87,
            kv_live_bytes: 4096,
            kv_peak_bytes: 8192,
            finished: 5,
            cancelled: 1,
            ..StatsSnapshot::default()
        };
        let line = s.to_string();
        assert_eq!(
            line,
            "q2 a4 | 312 tok / 87 steps | kv 4096/8192 B | fin 5 can 1 exp 0"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn snapshots_compare_by_value() {
        let a = StatsSnapshot {
            submitted: 3,
            ..StatsSnapshot::default()
        };
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, StatsSnapshot::default());
    }
}
