//! Serving layer over [`PalettizedModel`]: KV-cached autoregressive
//! generation and a continuous-batching scheduler.
//!
//! The [`Generator`] drives one sequence (greedy or seeded
//! temperature/top-k sampling). The [`Scheduler`] keeps a request queue and
//! a set of in-flight sequences of *uneven* lengths: each step it admits
//! waiting requests up to the batch budget, runs one batched forward (new
//! requests contribute their whole prompt, running ones their latest
//! token — so projection GEMMs batch across everything), samples one token
//! per sequence, and retires finished requests, returning their KV-cache
//! bytes to the pool.
//!
//! Sampling state is **per request** (its own seeded RNG), and every
//! logits row depends only on its own sequence, so a request produces
//! exactly the same tokens whether it runs alone or batched with arbitrary
//! neighbours — the invariant the scheduler test suite pins.

use crate::infer::{ChunkView, KvCache, PalettizedModel, ServeModel};
use crate::scratch::ScratchArena;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

pub use crate::kv::{KvBlockConfig, KvBlockPool};

/// How to turn a logits row into the next token.
///
/// The `Default` config is greedy argmax decoding (the same config
/// [`SamplingConfig::greedy`] returns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Softmax temperature; `0.0` means greedy argmax.
    pub temperature: f32,
    /// Keep only the `top_k` most likely tokens (`0` keeps all).
    pub top_k: usize,
    /// Seed of the per-request RNG (ignored when greedy).
    pub seed: u64,
}

impl Default for SamplingConfig {
    /// Greedy argmax decoding.
    fn default() -> Self {
        SamplingConfig::greedy()
    }
}

impl SamplingConfig {
    /// Deterministic argmax decoding.
    #[must_use]
    pub fn greedy() -> Self {
        SamplingConfig {
            temperature: 0.0,
            top_k: 0,
            seed: 0,
        }
    }

    /// Seeded temperature sampling over the full vocabulary.
    #[must_use]
    pub fn with_temperature(temperature: f32, seed: u64) -> Self {
        SamplingConfig {
            temperature,
            top_k: 0,
            seed,
        }
    }

    /// Seeded temperature sampling restricted to the `top_k` best tokens.
    #[must_use]
    pub fn with_top_k(temperature: f32, top_k: usize, seed: u64) -> Self {
        SamplingConfig {
            temperature,
            top_k,
            seed,
        }
    }

    /// `true` when this config never consumes randomness.
    pub fn is_greedy(&self) -> bool {
        self.temperature <= 0.0
    }
}

/// Scheduling class of a request: higher classes are admitted ahead of
/// lower ones; within a class admission is FIFO by submission age.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Admitted only when nothing at `Normal` or `High` is waiting.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Admitted ahead of everything else.
    High,
}

/// Why a request stopped generating — the terminal state of every request
/// that enters the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FinishReason {
    /// Generated its full `max_new` budget (also zero-budget requests).
    MaxTokens,
    /// Sampled one of its stop tokens (the stop token is included in the
    /// output; KV blocks are freed on the same step).
    StopToken,
    /// Cancelled by the caller before finishing.
    Cancelled,
    /// Its step deadline elapsed before it finished.
    DeadlineExceeded,
    /// Finished its generation (by budget or stop token) after surviving
    /// at least one preemption-and-replay.
    PreemptedThenFinished,
}

impl FinishReason {
    /// `true` for reasons that cut a request short ([`Cancelled`]
    /// / [`DeadlineExceeded`]), `false` when generation ran to its natural
    /// end.
    ///
    /// [`Cancelled`]: FinishReason::Cancelled
    /// [`DeadlineExceeded`]: FinishReason::DeadlineExceeded
    pub fn is_aborted(&self) -> bool {
        matches!(
            self,
            FinishReason::Cancelled | FinishReason::DeadlineExceeded
        )
    }
}

/// Pick the next token from one logits row. Greedy takes the first argmax
/// (ties break low, matching `ops::argmax_lastdim`); sampling scales by
/// temperature, keeps the top-k, softmaxes and draws from `rng`.
pub fn sample_token(row: &[f32], sampling: &SamplingConfig, rng: &mut StdRng) -> usize {
    assert!(!row.is_empty(), "empty logits row");
    if sampling.is_greedy() {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        return best;
    }
    let mut scaled: Vec<f32> = row.iter().map(|&v| v / sampling.temperature).collect();
    if sampling.top_k > 0 && sampling.top_k < row.len() {
        // The top_k-th largest value is the cut. Everything strictly above
        // it always survives; values *equal* to the cut fill the remaining
        // budget in index order (so ties straddling the cut can never push
        // out a strictly larger logit). `total_cmp` sorts a NaN logit
        // without panicking; the IEEE `>`/`==` tests below never keep it
        // (a NaN cut drops every token and the draw falls back to 0).
        let mut sorted = scaled.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let cut = sorted[sampling.top_k - 1];
        let above = scaled.iter().filter(|&&v| v > cut).count();
        let mut tie_budget = sampling.top_k - above;
        for v in scaled.iter_mut() {
            if *v > cut {
                continue;
            }
            if *v == cut && tie_budget > 0 {
                tie_budget -= 1;
            } else {
                *v = f32::NEG_INFINITY;
            }
        }
    }
    // Stable softmax, then inverse-CDF draw.
    let mx = scaled.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in scaled.iter_mut() {
        *v = (*v - mx).exp();
        sum += *v;
    }
    let u: f32 = rng.gen::<f32>() * sum;
    let mut acc = 0.0f32;
    let mut last = 0usize;
    for (i, &p) in scaled.iter().enumerate() {
        if p > 0.0 {
            acc += p;
            last = i;
            if u < acc {
                return i;
            }
        }
    }
    last // rounding fell off the end: return the last viable token
}

/// KV-cached autoregressive generation over a [`ServeModel`]
/// (a [`PalettizedModel`] unless a wrapper stands in for it).
///
/// ```
/// use edkm_core::{CompressSpec, Generator, PalettizedModel};
/// use edkm_nn::{LlamaConfig, LlamaModel};
/// use edkm_tensor::{runtime, DType, Device};
///
/// runtime::reset();
/// let dense = LlamaModel::new(LlamaConfig::tiny(), DType::Bf16, Device::Cpu, 0);
/// let mut spec = CompressSpec::with_bits(2);
/// spec.dkm.iters = 2;
/// let served = PalettizedModel::from_dense(&dense, &spec).unwrap();
/// let out = Generator::new(&served).generate_greedy(&[1, 2], 4);
/// assert_eq!(out.len(), 6); // prompt + 4 generated tokens
/// assert_eq!(&out[..2], &[1, 2]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Generator<'m, M: ServeModel = PalettizedModel> {
    model: &'m M,
}

impl<'m, M: ServeModel> Generator<'m, M> {
    /// Generator over `model`.
    pub fn new(model: &'m M) -> Self {
        Generator { model }
    }

    /// Continue `prompt` by `n_new` tokens under `sampling`. Returns the
    /// full sequence (prompt + generated).
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or `prompt.len() + n_new` exceeds the
    /// model's `max_seq`.
    pub fn generate(
        &self,
        prompt: &[usize],
        n_new: usize,
        sampling: &SamplingConfig,
    ) -> Vec<usize> {
        // A thin wrapper over a solo scheduler: one request, batch budget 1
        // — exactly the loop `ServeEngine` drives, run inline. Tokens are
        // identical either way because sampling is per-request-seeded and
        // logits rows never depend on batch composition.
        let mut sched = Scheduler::new(self.model, 1);
        sched.submit(ServeRequest::new(0, prompt.to_vec(), n_new, *sampling));
        let mut out = sched.run_to_completion();
        out.pop().expect("solo request completes").tokens
    }

    /// Greedy continuation (sugar for [`SamplingConfig::greedy`]).
    pub fn generate_greedy(&self, prompt: &[usize], n_new: usize) -> Vec<usize> {
        self.generate(prompt, n_new, &SamplingConfig::greedy())
    }
}

/// One generation request submitted to the [`Scheduler`].
///
/// [`ServeRequest::new`] fills the policy fields with their defaults (no
/// stop tokens, [`Priority::Normal`], no deadline); set them directly for
/// anything fancier.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Prompt token ids (non-empty).
    pub prompt: Vec<usize>,
    /// How many tokens to generate at most.
    pub max_new: usize,
    /// Per-request sampling configuration.
    pub sampling: SamplingConfig,
    /// Token ids that end generation early when sampled (the stop token is
    /// kept in the output and the sequence retires on the same step).
    pub stop_tokens: Vec<usize>,
    /// Scheduling class: higher classes are admitted first.
    pub priority: Priority,
    /// Give up with [`FinishReason::DeadlineExceeded`] once this many
    /// scheduler steps have elapsed since submission without finishing.
    pub deadline_steps: Option<u64>,
}

impl ServeRequest {
    /// A request with default policy: no stop tokens, [`Priority::Normal`],
    /// no deadline.
    #[must_use]
    pub fn new(id: u64, prompt: Vec<usize>, max_new: usize, sampling: SamplingConfig) -> Self {
        ServeRequest {
            id,
            prompt,
            max_new,
            sampling,
            stop_tokens: Vec::new(),
            priority: Priority::Normal,
            deadline_steps: None,
        }
    }
}

/// A finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeResponse {
    /// The request id.
    pub id: u64,
    /// Full sequence: prompt followed by the generated continuation.
    pub tokens: Vec<usize>,
    /// Number of generated tokens.
    pub generated: usize,
    /// Why generation stopped.
    pub finish: FinishReason,
}

/// One token sampled during a [`Scheduler::step_events`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEmission {
    /// The request that produced the token.
    pub id: u64,
    /// The sampled token id.
    pub token: usize,
    /// 0-based index among the request's generated tokens (`0` is the
    /// first token, i.e. the TTFT marker).
    pub index: usize,
}

/// Everything one scheduling step produced: freshly sampled tokens (replays
/// after a preemption are suppressed — each generated token is emitted
/// exactly once) plus the requests that reached a terminal state.
#[derive(Debug, Clone, Default)]
pub struct StepEvents {
    /// Tokens sampled this step, one per in-flight sequence that advanced
    /// past its previously emitted high-water mark.
    pub tokens: Vec<TokenEmission>,
    /// Requests that finished (any [`FinishReason`]) during this step.
    pub finished: Vec<ServeResponse>,
}

impl StepEvents {
    /// Empty both event lists, keeping their capacity — what lets a
    /// driving loop pass one `StepEvents` to
    /// [`Scheduler::step_events_into`] every step without reallocating.
    pub fn clear(&mut self) {
        self.tokens.clear();
        self.finished.clear();
    }
}

/// A queued request plus the scheduler-side bookkeeping that survives
/// preemption: its admission rank, its absolute deadline, and the tokens
/// already emitted to the caller.
#[derive(Debug)]
struct QueuedReq {
    req: ServeRequest,
    /// Monotone submission rank; FIFO tiebreak within a priority class.
    arrival: u64,
    /// Absolute `decode_steps` value at which the request expires.
    expire_at: Option<u64>,
    /// Generated tokens already emitted before a preemption (empty for a
    /// fresh submission). Replays below this mark are not re-emitted, and
    /// a terminal response produced while requeued (cancel, deadline) must
    /// still carry these tokens — the caller already received them.
    emitted: Vec<usize>,
    /// `true` once the request has been preempted at least once.
    preempted: bool,
}

impl QueuedReq {
    /// Terminal response for a request that ends while waiting in the
    /// queue: the prompt plus whatever was emitted before a preemption.
    fn into_response(self, finish: FinishReason) -> ServeResponse {
        let generated = self.emitted.len();
        let mut tokens = self.req.prompt;
        tokens.extend(self.emitted);
        ServeResponse {
            id: self.req.id,
            tokens,
            generated,
            finish,
        }
    }
}

/// An in-flight sequence.
#[derive(Debug)]
struct ActiveSeq {
    id: u64,
    tokens: Vec<usize>,
    /// Tokens to feed next step: whole prompt right after admission, the
    /// latest sample afterwards.
    next_input: Vec<usize>,
    produced: usize,
    max_new: usize,
    sampling: SamplingConfig,
    stop_tokens: Vec<usize>,
    priority: Priority,
    arrival: u64,
    expire_at: Option<u64>,
    /// Tokens already emitted to the caller; `len()` is the emit-once
    /// high-water mark. During a replay after preemption `produced` can
    /// trail `emitted.len()` — the tail is what the caller already holds.
    emitted: Vec<usize>,
    preempted: bool,
    stop_hit: bool,
    rng: StdRng,
}

impl ActiveSeq {
    /// The terminal reason for a sequence that completed its generation.
    fn natural_finish(&self) -> FinishReason {
        if self.preempted {
            FinishReason::PreemptedThenFinished
        } else if self.stop_hit {
            FinishReason::StopToken
        } else {
            FinishReason::MaxTokens
        }
    }

    /// Terminal response for a sequence cut short mid-flight (cancel,
    /// deadline). Mid-replay, `produced` may trail the emitted high-water
    /// mark; the response must still carry every token the caller already
    /// received (the replay would have regenerated them identically).
    fn into_response(self, finish: FinishReason) -> ServeResponse {
        let mut tokens = self.tokens;
        let generated = self.produced.max(self.emitted.len());
        if self.emitted.len() > self.produced {
            tokens.extend_from_slice(&self.emitted[self.produced..]);
        }
        ServeResponse {
            id: self.id,
            tokens,
            generated,
            finish,
        }
    }
}

/// Draft-model bookkeeping for one speculative sequence: the draft's own
/// KV cache plus the exact token stream already fed into it, so a
/// mis-speculation rolls the draft back to the longest common prefix with
/// the committed stream instead of re-prefilling from scratch.
#[derive(Debug)]
struct DraftSeq {
    cache: KvCache,
    fed: Vec<usize>,
}

/// The in-flight sequences, their KV caches, and (when speculative
/// decoding is on) their draft-model state, in aligned vecs (entry `i` of
/// each belongs to the same request, in admission order). Splitting the
/// caches out of [`ActiveSeq`] is what lets one step hand the model a
/// contiguous `&mut [KvCache]` slab while the per-sequence bookkeeping
/// stays independently borrowable — no per-step `Vec<&mut KvCache>` of
/// reborrows.
#[derive(Debug, Default)]
struct Flight {
    seqs: Vec<ActiveSeq>,
    caches: Vec<KvCache>,
    drafts: Vec<Option<DraftSeq>>,
}

impl Flight {
    fn len(&self) -> usize {
        debug_assert_eq!(self.seqs.len(), self.caches.len());
        debug_assert_eq!(self.seqs.len(), self.drafts.len());
        self.seqs.len()
    }

    fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    fn push(&mut self, seq: ActiveSeq, cache: KvCache) {
        self.seqs.push(seq);
        self.caches.push(cache);
        self.drafts.push(None);
    }

    /// Order-preserving removal (the active set stays in admission order,
    /// which is what makes tail preemption hit the newest sequence). Any
    /// draft state drops with the slot.
    fn remove(&mut self, i: usize) -> (ActiveSeq, KvCache) {
        self.drafts.remove(i);
        (self.seqs.remove(i), self.caches.remove(i))
    }

    fn pop(&mut self) -> Option<(ActiveSeq, KvCache)> {
        let seq = self.seqs.pop()?;
        let cache = self.caches.pop().expect("vecs stay aligned");
        self.drafts.pop().expect("vecs stay aligned");
        Some((seq, cache))
    }
}

/// Speculative-decoding state: the aggressively palettized draft model,
/// the per-step proposals it produced, and dedicated scratch so draft
/// forward shapes never thrash the target's arena.
struct SpecState {
    draft: std::sync::Arc<dyn ServeModel>,
    draft_k: usize,
    scratch: ScratchArena,
    /// Per-flight-slot proposals for the current step, rebuilt in place.
    proposals: Vec<Vec<usize>>,
    /// Per-flight-slot KV rollback length after verification (`Some` only
    /// for slots that speculated this step).
    rollbacks: Vec<Option<usize>>,
    /// Flat batch buffers for the draft forwards.
    draft_tokens: Vec<usize>,
    draft_ends: Vec<usize>,
    /// Never consumed: greedy sampling ignores randomness, but
    /// [`sample_token`] wants an RNG handle.
    rng: StdRng,
}

impl std::fmt::Debug for SpecState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecState")
            .field("draft_k", &self.draft_k)
            .finish_non_exhaustive()
    }
}

/// Continuous-batching scheduler: admits/retires sequences of uneven
/// lengths every step and batches all projection GEMMs across whatever is
/// in flight.
///
/// KV state is paged ([`KvBlockPool`]): admission takes the *actual*
/// blocks a prompt needs right now (never a worst-case
/// `prompt + max_new` reservation), so a request is admitted as soon as a
/// retirement frees enough blocks. If the pool runs dry mid-decode, the
/// most recently admitted sequence is preempted — its blocks return to
/// the pool and its request goes back to the head of the queue. Because
/// sampling is per-request-seeded and logits rows are batch-independent,
/// a preempted request regenerates exactly the same tokens when it is
/// re-admitted.
///
/// ```
/// use edkm_core::{
///     CompressSpec, PalettizedModel, SamplingConfig, Scheduler, ServeRequest,
/// };
/// use edkm_nn::{LlamaConfig, LlamaModel};
/// use edkm_tensor::{runtime, DType, Device};
///
/// runtime::reset();
/// let dense = LlamaModel::new(LlamaConfig::tiny(), DType::Bf16, Device::Cpu, 0);
/// let mut spec = CompressSpec::with_bits(2);
/// spec.dkm.iters = 2;
/// let served = PalettizedModel::from_dense(&dense, &spec).unwrap();
/// let mut sched = Scheduler::new(&served, 2);
/// for id in 0..3 {
///     sched.submit(ServeRequest::new(
///         id,
///         vec![1 + id as usize],
///         3,
///         SamplingConfig::greedy(),
///     ));
/// }
/// let responses = sched.run_to_completion();
/// assert_eq!(responses.len(), 3);
/// assert!(responses.iter().all(|r| r.generated == 3));
/// // Every KV block returned to the pool at retirement.
/// assert_eq!(served.kv_pool().blocks_in_use(), 0);
/// ```
#[derive(Debug)]
pub struct Scheduler<'m, M: ServeModel = PalettizedModel> {
    model: &'m M,
    max_batch: usize,
    queue: VecDeque<QueuedReq>,
    flight: Flight,
    arrivals: u64,
    decode_steps: u64,
    tokens_generated: u64,
    preemptions: u64,
    prefix_hits: u64,
    prefix_tokens_reused: u64,
    spec_proposed: u64,
    spec_accepted: u64,
    /// Speculative-decoding state; `None` runs plain one-token decode.
    spec: Option<SpecState>,
    /// Reusable forward-pass scratch: after one step of a given flight
    /// shape, later steps of the same shape allocate nothing.
    scratch: ScratchArena,
    /// Scheduler-owned flat batch descriptor (every sequence's new tokens
    /// concatenated + cumulative chunk ends), rebuilt in place each step —
    /// the buffers behind the [`ChunkView`] handed to the model. The ends
    /// double as the cumulative logits row offsets at sampling time.
    flat_tokens: Vec<usize>,
    chunk_ends: Vec<usize>,
}

impl<'m, M: ServeModel> Scheduler<'m, M> {
    /// Scheduler over `model` admitting at most `max_batch` concurrent
    /// sequences.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is 0.
    pub fn new(model: &'m M, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        Scheduler {
            model,
            max_batch,
            queue: VecDeque::new(),
            flight: Flight::default(),
            arrivals: 0,
            decode_steps: 0,
            tokens_generated: 0,
            preemptions: 0,
            prefix_hits: 0,
            prefix_tokens_reused: 0,
            spec_proposed: 0,
            spec_accepted: 0,
            spec: None,
            scratch: ScratchArena::new(),
            flat_tokens: Vec::new(),
            chunk_ends: Vec::new(),
        }
    }

    /// A scheduler that speculatively decodes greedy requests: `draft`
    /// (typically a 2-bit palettization of the same architecture) proposes
    /// up to `draft_k` tokens per step and the target model verifies them
    /// in one batched forward. Acceptance is exact — a proposal survives
    /// only if it equals the target's own greedy argmax at that position —
    /// so the emitted tokens are bit-identical to non-speculative greedy
    /// decoding; a bad draft only lowers the accepted-per-step rate.
    /// Non-greedy requests decode on the standard one-token path.
    ///
    /// The draft should draw from an **unbounded** KV pool (the default):
    /// draft cache pressure must never preempt target sequences.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `draft_k` is 0, or if the draft's
    /// vocabulary or context length differ from the target's.
    pub fn with_speculative(
        model: &'m M,
        max_batch: usize,
        draft: std::sync::Arc<dyn ServeModel>,
        draft_k: usize,
    ) -> Self {
        assert!(draft_k > 0, "draft_k must be positive");
        assert_eq!(
            draft.config().vocab,
            model.config().vocab,
            "draft and target must share a vocabulary"
        );
        assert!(
            draft.config().max_seq >= model.config().max_seq,
            "draft max_seq must cover the target's"
        );
        let mut sched = Self::new(model, max_batch);
        sched.spec = Some(SpecState {
            draft,
            draft_k,
            scratch: ScratchArena::new(),
            proposals: Vec::new(),
            rollbacks: Vec::new(),
            draft_tokens: Vec::new(),
            draft_ends: Vec::new(),
            rng: StdRng::seed_from_u64(0),
        });
        sched
    }

    /// Current speculative draft budget, `None` when this scheduler
    /// decodes plainly.
    pub fn draft_k(&self) -> Option<usize> {
        self.spec.as_ref().map(|s| s.draft_k)
    }

    /// Retune the speculative draft budget mid-flight (clamped to ≥ 1; a
    /// no-op on a plain scheduler). Exact acceptance makes this safe at
    /// any moment: a smaller `k` only shortens the proposal walk, never
    /// changes an emitted token — the degrade ladder's cheap way to shed
    /// draft-model compute under pressure.
    pub fn set_draft_k(&mut self, k: usize) {
        if let Some(spec) = self.spec.as_mut() {
            spec.draft_k = k.max(1);
        }
    }

    /// Enqueue a request. Admission during [`Scheduler::step`] picks the
    /// highest [`Priority`] class first and is FIFO by submission age
    /// within a class; a `deadline_steps` budget starts counting now.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or the request cannot fit `max_seq`.
    pub fn submit(&mut self, req: ServeRequest) {
        assert!(!req.prompt.is_empty(), "prompt must be non-empty");
        assert!(
            req.prompt.len() + req.max_new <= self.model.config().max_seq,
            "request {}: prompt {} + {} new tokens exceed max_seq {}",
            req.id,
            req.prompt.len(),
            req.max_new,
            self.model.config().max_seq
        );
        let arrival = self.arrivals;
        self.arrivals += 1;
        let expire_at = req.deadline_steps.map(|d| self.decode_steps + d);
        self.queue.push_back(QueuedReq {
            req,
            arrival,
            expire_at,
            emitted: Vec::new(),
            preempted: false,
        });
    }

    /// Remove a request from the scheduler, wherever it is: still queued
    /// (the response carries the bare prompt) or mid-flight (its KV blocks
    /// return to the pool immediately, before any further decode step).
    /// Returns `None` if no such request is queued or active — it already
    /// finished, or was never submitted.
    ///
    /// Tokens the request generated before cancellation stay counted in
    /// [`Scheduler::tokens_generated`]: they were delivered.
    pub fn cancel(&mut self, id: u64) -> Option<ServeResponse> {
        if let Some(i) = self.queue.iter().position(|q| q.req.id == id) {
            let q = self.queue.remove(i).expect("position is in range");
            return Some(q.into_response(FinishReason::Cancelled));
        }
        let i = self.flight.seqs.iter().position(|s| s.id == id)?;
        // Removing the sequence drops its cache: blocks are freed now, not
        // on some later step.
        let (seq, cache) = self.flight.remove(i);
        drop(cache);
        Some(seq.into_response(FinishReason::Cancelled))
    }

    /// Requests waiting for admission.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Sequences currently in flight.
    pub fn active(&self) -> usize {
        self.flight.len()
    }

    /// `true` when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.flight.is_empty()
    }

    /// Batched forward steps executed so far.
    pub fn decode_steps(&self) -> u64 {
        self.decode_steps
    }

    /// Tokens generated so far (all requests).
    pub fn tokens_generated(&self) -> u64 {
        self.tokens_generated
    }

    /// KV-cache bytes currently charged to the pool by in-flight
    /// sequences, counting each *physical* block once: a prefix block
    /// mapped read-only by several block tables contributes a single
    /// `block_bytes` no matter how many sequences share it. Without prefix
    /// sharing this equals the plain per-cache sum.
    pub fn kv_live_bytes(&self) -> usize {
        let mut owned = 0usize;
        let mut shared_ids: Vec<usize> = Vec::new();
        for c in &self.flight.caches {
            for (id, is_shared) in c.block_entries() {
                if !is_shared {
                    owned += 1;
                } else if !shared_ids.contains(&id) {
                    shared_ids.push(id);
                }
            }
        }
        (owned + shared_ids.len()) * self.model.kv_pool().block_bytes()
    }

    /// Requests admitted with a non-empty prefix-cache match.
    pub fn prefix_hits(&self) -> u64 {
        self.prefix_hits
    }

    /// Prompt tokens served straight from the prefix cache instead of
    /// being prefilled.
    pub fn prefix_tokens_reused(&self) -> u64 {
        self.prefix_tokens_reused
    }

    /// Tokens proposed by the speculative draft model so far.
    pub fn spec_proposed(&self) -> u64 {
        self.spec_proposed
    }

    /// Proposed tokens the target model accepted (always `<=`
    /// [`Scheduler::spec_proposed`]).
    pub fn spec_accepted(&self) -> u64 {
        self.spec_accepted
    }

    /// Sequences preempted so far (blocks reclaimed, request requeued).
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// The scheduler's reusable forward-pass scratch arena. Its
    /// [`ScratchArena::grows`] counter is flat across steady-state decode
    /// steps — the allocation-free contract `tests/alloc_steady_state.rs`
    /// pins.
    pub fn scratch(&self) -> &ScratchArena {
        &self.scratch
    }

    /// Requeue `seq`, returning its blocks to the pool. The regenerated
    /// tokens are identical: sampling restarts from the request's own seed
    /// and rows never depend on batch composition. The request keeps its
    /// original arrival rank (so it sorts ahead of everything that was
    /// still queued behind it) and its absolute deadline.
    fn preempt(&mut self, mut seq: ActiveSeq, cache: KvCache) {
        let prompt_len = seq.tokens.len() - seq.produced;
        let prompt = seq.tokens[..prompt_len].to_vec();
        self.queue.push_front(QueuedReq {
            req: ServeRequest {
                id: seq.id,
                prompt,
                max_new: seq.max_new,
                sampling: seq.sampling,
                stop_tokens: std::mem::take(&mut seq.stop_tokens),
                priority: seq.priority,
                deadline_steps: None, // expire_at already absolute
            },
            arrival: seq.arrival,
            expire_at: seq.expire_at,
            emitted: std::mem::take(&mut seq.emitted),
            preempted: true,
        });
        self.preemptions += 1;
        // Discarded tokens are re-generated (identically) after
        // re-admission; keep the counter equal to what callers receive.
        self.tokens_generated -= seq.produced as u64;
        drop(cache); // returns the sequence's KV blocks
    }

    /// Index of the next queue entry to admit: highest priority class
    /// first, earliest arrival within a class.
    fn next_admission(&self) -> Option<usize> {
        self.queue
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (std::cmp::Reverse(q.req.priority), q.arrival))
            .map(|(i, _)| i)
    }

    /// Expire every queued or active request whose step deadline has
    /// passed, appending their terminal responses to `finished`. An active
    /// sequence's KV blocks return to the pool immediately.
    fn expire_deadlines(&mut self, finished: &mut Vec<ServeResponse>) {
        let now = self.decode_steps;
        let mut i = 0usize;
        while i < self.queue.len() {
            if self.queue[i].expire_at.is_some_and(|e| now >= e) {
                let q = self.queue.remove(i).expect("position is in range");
                finished.push(q.into_response(FinishReason::DeadlineExceeded));
            } else {
                i += 1;
            }
        }
        let mut i = 0usize;
        while i < self.flight.len() {
            if self.flight.seqs[i].expire_at.is_some_and(|e| now >= e) {
                // Dropping the cache returns the sequence's KV blocks.
                let (seq, cache) = self.flight.remove(i);
                drop(cache);
                finished.push(seq.into_response(FinishReason::DeadlineExceeded));
            } else {
                i += 1;
            }
        }
    }

    /// One scheduling step: admit, run one batched forward, sample, retire.
    /// Returns the requests that finished during this step; the per-token
    /// emissions are discarded (use [`Scheduler::step_events`] to stream).
    ///
    /// # Panics
    ///
    /// Panics if the KV pool cannot hold even a single request's working
    /// set (one sequence running alone still starves) — the pool must be
    /// sized for at least `blocks_for(prompt + max_new)` of the largest
    /// request.
    pub fn step(&mut self) -> Vec<ServeResponse> {
        self.step_events().finished
    }

    /// One scheduling step with per-token reporting — the streaming core
    /// [`crate::engine::ServeEngine`] drives. Expires deadlines, admits by
    /// priority, runs one batched forward, samples one token per in-flight
    /// sequence (emitting every token exactly once, replays excluded), and
    /// retires sequences that hit their budget or a stop token.
    ///
    /// # Panics
    ///
    /// Panics under the same pool-starvation condition as
    /// [`Scheduler::step`].
    pub fn step_events(&mut self) -> StepEvents {
        let mut events = StepEvents::default();
        self.step_events_into(&mut events);
        events
    }

    /// [`Scheduler::step_events`] writing into a caller-owned (and
    /// reusable) [`StepEvents`] — the entry point the engine's worker loop
    /// drives so that a steady-state decode step performs **zero** heap
    /// allocations anywhere in the scheduler: the batch descriptor, the
    /// caches, the sampled-token bookkeeping and the event lists all live
    /// in buffers that persist across steps. `events` is cleared first.
    ///
    /// # Panics
    ///
    /// Panics under the same pool-starvation condition as
    /// [`Scheduler::step`].
    pub fn step_events_into(&mut self, events: &mut StepEvents) {
        events.clear();
        // Deadlines expire before any admission or compute: a request past
        // its budget must not consume another forward pass.
        self.expire_deadlines(&mut events.finished);

        // Every in-flight sequence reserves its next chunk *before* any
        // admission, so a newcomer can never grab the blocks a running
        // sequence is about to need (which would admit it only to preempt
        // it in the same step, discarding its prefill). When the pool runs
        // dry, preempt from the tail (most recently admitted) until the
        // rest fit.
        let mut i = 0usize;
        while i < self.flight.len() {
            let need = self.flight.seqs[i].next_input.len();
            if self.flight.caches[i].try_reserve(need) {
                i += 1;
                continue;
            }
            assert!(
                self.flight.len() > 1,
                "KV pool too small for request {}: {} cached + {need} new tokens, pool caps at {} blocks",
                self.flight.seqs[i].id,
                self.flight.caches[i].len(),
                self.model.kv_pool().max_blocks()
            );
            let (victim, cache) = self.flight.pop().expect("non-empty active set");
            self.preempt(victim, cache);
        }

        // Admit while there is batch budget *and* the pool has the blocks
        // each prompt actually needs now (prompt rows + the first decode
        // slot) — never a worst-case prompt+max_new reservation. Admission
        // picks the highest priority class, FIFO within it; when the best
        // candidate does not fit, admission stops entirely (no skip-ahead:
        // a stream of small requests must not starve a large one).
        // Zero-generation requests complete immediately without touching
        // the model.
        while self.flight.len() < self.max_batch {
            let Some(i) = self.next_admission() else {
                break;
            };
            let q = self.queue.remove(i).expect("position is in range");
            if q.req.max_new == 0 {
                events.finished.push(ServeResponse {
                    id: q.req.id,
                    tokens: q.req.prompt,
                    generated: 0,
                    finish: FinishReason::MaxTokens,
                });
                continue;
            }
            let mut cache = self.model.new_cache();
            // With the prefix cache on, adopt the longest indexed prefix
            // read-only (charged once pool-wide) and prefill only the
            // suffix. The lookup is capped one token short of the prompt,
            // so the suffix forward always produces a logits row.
            let reused = self
                .model
                .kv_pool()
                .prefix_lookup(&q.req.prompt, &mut cache);
            if !cache.try_reserve(q.req.prompt.len() + 1 - reused) {
                assert!(
                    !self.flight.is_empty(),
                    "KV pool too small for request {}: prompt {} + 1 needs {} blocks, pool caps at {}",
                    q.req.id,
                    q.req.prompt.len(),
                    self.model.kv_pool().blocks_for(q.req.prompt.len() + 1),
                    self.model.kv_pool().max_blocks()
                );
                // Not enough free blocks yet: keep queue order and retry
                // once a retirement frees some. Dropping the cache releases
                // any adopted prefix references.
                self.queue.insert(i.min(self.queue.len()), q);
                break;
            }
            if reused > 0 {
                self.prefix_hits += 1;
                self.prefix_tokens_reused += reused as u64;
            }
            // Admission pre-sizes every per-sequence vec for the whole
            // generation (tokens, emitted high-water mark), so steady-state
            // pushes below never reallocate mid-flight.
            let mut tokens = Vec::with_capacity(q.req.prompt.len() + q.req.max_new);
            tokens.extend_from_slice(&q.req.prompt);
            let mut emitted = q.emitted;
            emitted.reserve(q.req.max_new.saturating_sub(emitted.len()));
            // The prefill chunk is only the un-adopted prompt suffix; the
            // forward starts writing at `cache.len()`, i.e. right after
            // the adopted prefix, so RoPE positions line up for free.
            let mut next_input = q.req.prompt;
            next_input.drain(..reused);
            self.flight.push(
                ActiveSeq {
                    id: q.req.id,
                    tokens,
                    next_input,
                    produced: 0,
                    max_new: q.req.max_new,
                    sampling: q.req.sampling,
                    stop_tokens: q.req.stop_tokens,
                    priority: q.req.priority,
                    arrival: q.arrival,
                    expire_at: q.expire_at,
                    emitted,
                    preempted: q.preempted,
                    stop_hit: false,
                    rng: StdRng::seed_from_u64(q.req.sampling.seed),
                },
                cache,
            );
        }
        if self.flight.is_empty() {
            return;
        }

        // Draft proposal phase: every greedy decode-phase sequence gets up
        // to `draft_k` continuation tokens from the low-bit draft model,
        // verified below in the same batched target forward as everything
        // else.
        if self.spec.is_some() {
            self.propose_drafts();
        }
        let (props_all, mut rollbacks) = match self.spec.as_mut() {
            Some(s) => (
                std::mem::take(&mut s.proposals),
                std::mem::take(&mut s.rollbacks),
            ),
            None => (Vec::new(), Vec::new()),
        };
        if self.spec.is_some() {
            // Reused across steps (taken from and returned to SpecState),
            // so the resize is warm after the first speculative step. The
            // plain path leaves both vecs empty — steady-state decode
            // stays allocation-free.
            rollbacks.clear();
            rollbacks.resize(self.flight.len(), None);
        }

        // One batched forward over every in-flight sequence's new tokens
        // (plus its draft proposals, if any), described by the
        // scheduler-owned flat buffers (rebuilt in place — no per-step
        // vecs) while the caches go in as one aligned slab.
        self.flat_tokens.clear();
        self.chunk_ends.clear();
        for (i, seq) in self.flight.seqs.iter().enumerate() {
            self.flat_tokens.extend_from_slice(&seq.next_input);
            if let Some(p) = props_all.get(i) {
                self.flat_tokens.extend_from_slice(p);
            }
            self.chunk_ends.push(self.flat_tokens.len());
        }
        let view = ChunkView::new(&self.flat_tokens, &self.chunk_ends);
        let data = self
            .model
            .forward_chunks_into(view, &mut self.flight.caches, &mut self.scratch);
        self.decode_steps += 1;

        // Sample per sequence (rows map by this step's order; the
        // cumulative chunk ends are exactly the logits row offsets), then
        // retire in a second pass so the row mapping stays intact. A token
        // is emitted only past the sequence's high-water mark, so
        // preemption replays never duplicate a stream.
        let vocab = self.model.config().vocab;
        let mut chunk_start = 0usize;
        for (i, (seq, &end)) in self
            .flight
            .seqs
            .iter_mut()
            .zip(&self.chunk_ends)
            .enumerate()
        {
            let props: &[usize] = props_all.get(i).map_or(&[], Vec::as_slice);
            if props.is_empty() {
                // Plain path: one sampled token from the chunk's last row.
                let row = &data[(end - 1) * vocab..end * vocab];
                let next = sample_token(row, &seq.sampling, &mut seq.rng);
                seq.tokens.push(next);
                seq.next_input.clear();
                seq.next_input.push(next);
                seq.produced += 1;
                self.tokens_generated += 1;
                if seq.produced > seq.emitted.len() {
                    events.tokens.push(TokenEmission {
                        id: seq.id,
                        token: next,
                        index: seq.produced - 1,
                    });
                    seq.emitted.push(next);
                }
                if seq.stop_tokens.contains(&next) {
                    seq.stop_hit = true;
                }
                chunk_start = end;
                continue;
            }
            // Speculative verification. The chunk was `[t, d1..dk]`, so
            // row `r` is the target's distribution *after* consuming chunk
            // token `r` — exactly the row plain greedy decode would see at
            // that position. Walk the rows in order: a proposal survives
            // only if it equals the target's own argmax (exact
            // acceptance); the first mismatching row contributes the
            // correction token instead, and a full match yields a bonus
            // token from the final row. Either way every emitted token is
            // the one non-speculative greedy decoding would have produced.
            let k = props.len();
            debug_assert_eq!(end - chunk_start, 1 + k, "verify chunk shape");
            for r in 0..=k {
                let off = chunk_start + r;
                let row = &data[off * vocab..(off + 1) * vocab];
                let next = sample_token(row, &seq.sampling, &mut seq.rng);
                let matched = props.get(r) == Some(&next);
                if matched {
                    self.spec_accepted += 1;
                }
                seq.tokens.push(next);
                seq.produced += 1;
                self.tokens_generated += 1;
                if seq.produced > seq.emitted.len() {
                    events.tokens.push(TokenEmission {
                        id: seq.id,
                        token: next,
                        index: seq.produced - 1,
                    });
                    seq.emitted.push(next);
                }
                if seq.stop_tokens.contains(&next) {
                    seq.stop_hit = true;
                }
                if seq.stop_hit || !matched {
                    break;
                }
            }
            seq.next_input.clear();
            seq.next_input
                .push(*seq.tokens.last().expect("just pushed"));
            // KV rows written for rejected proposals roll back below, so
            // the cache again holds exactly `committed - 1` positions.
            rollbacks[i] = Some(seq.tokens.len() - 1);
            chunk_start = end;
        }
        self.scratch.put(data); // logits buffer back to the arena

        for (i, rb) in rollbacks.iter().enumerate() {
            if let Some(new_len) = rb {
                self.flight.caches[i].truncate(*new_len);
            }
        }
        if let Some(s) = self.spec.as_mut() {
            s.proposals = props_all;
            s.rollbacks = rollbacks;
        }

        let model = self.model;
        if model.kv_pool().prefix_cache_enabled() {
            // Newly prefilled prompts publish their full blocks to the
            // prefix index immediately — concurrent requests sharing the
            // prefix adopt them while this sequence is still in flight,
            // which is what makes sharing cut *peak* (not just total) KV.
            for (seq, cache) in self.flight.seqs.iter().zip(self.flight.caches.iter_mut()) {
                if seq.produced == 1 {
                    model.kv_pool().prefix_insert(&seq.tokens, cache);
                }
            }
        }

        let mut i = 0usize;
        while i < self.flight.len() {
            let seq = &self.flight.seqs[i];
            if seq.produced == seq.max_new || seq.stop_hit {
                // `remove`, not `swap_remove`: the active set stays in
                // admission order, which is what makes tail preemption hit
                // the most recently admitted sequence. A stop token retires
                // the sequence on the very step that sampled it, so its KV
                // blocks go back to the pool before the next forward.
                let (seq, mut cache) = self.flight.remove(i);
                // Natural retirement publishes the whole sequence (prompt
                // + generation) to the prefix index: a later multi-turn
                // prompt extending this conversation adopts the blocks
                // wholesale. No-op while the prefix cache is off.
                model.kv_pool().prefix_insert(&seq.tokens, &mut cache);
                drop(cache); // unshared KV blocks back to the pool now
                events.finished.push(ServeResponse {
                    id: seq.id,
                    generated: seq.produced,
                    finish: seq.natural_finish(),
                    tokens: seq.tokens,
                });
            } else {
                i += 1;
            }
        }
    }

    /// Run the draft model for every greedy decode-phase sequence, filling
    /// `spec.proposals[i]` with up to `draft_k` continuation tokens per
    /// flight slot. The draft rolls back to its longest common prefix with
    /// the committed stream, catches up on unseen committed tokens in one
    /// chunk, then extends greedily one token at a time; the last proposal
    /// is never fed back (the target's verdict decides its fate).
    fn propose_drafts(&mut self) {
        let max_seq = self.model.config().max_seq;
        let n = self.flight.len();
        let spec = self.spec.as_mut().expect("speculative state");
        let SpecState {
            draft,
            draft_k,
            scratch,
            proposals,
            draft_tokens,
            draft_ends,
            rng,
            ..
        } = spec;
        let vocab = draft.config().vocab;
        proposals.clear();
        proposals.resize_with(n, Vec::new);
        for (i, slot) in proposals.iter_mut().enumerate() {
            let seq = &self.flight.seqs[i];
            // Prefill chunks and stochastic sampling take the plain path,
            // and the final budgeted token is never worth drafting.
            if !seq.sampling.is_greedy() || seq.produced == 0 {
                continue;
            }
            let rem = seq.max_new - seq.produced;
            let k = (*draft_k)
                .min(rem.saturating_sub(1))
                .min(max_seq.saturating_sub(seq.tokens.len()));
            if k == 0 {
                continue;
            }
            // The verify chunk needs target capacity for the committed
            // token plus `k` proposals; if a bounded pool cannot cover it,
            // fall back to plain decode instead of preempting anyone.
            if !self.flight.caches[i].try_reserve(1 + k) {
                continue;
            }
            let dseq = self.flight.drafts[i].get_or_insert_with(|| DraftSeq {
                cache: draft.new_cache(),
                fed: Vec::new(),
            });
            let committed = &seq.tokens;
            let mut lcp = 0usize;
            while lcp < dseq.fed.len() && lcp < committed.len() && dseq.fed[lcp] == committed[lcp] {
                lcp += 1;
            }
            if lcp < dseq.fed.len() {
                dseq.fed.truncate(lcp);
                dseq.cache.truncate(lcp);
            }
            if dseq.fed.len() >= committed.len() {
                // The draft already saw every committed token (unreachable:
                // verification always commits a token the draft never ate).
                debug_assert!(false, "draft ahead of committed stream");
                continue;
            }
            draft_tokens.clear();
            draft_tokens.extend_from_slice(&committed[dseq.fed.len()..]);
            for _ in 0..k {
                draft_ends.clear();
                draft_ends.push(draft_tokens.len());
                let view = ChunkView::new(draft_tokens, draft_ends);
                let data =
                    draft.forward_chunks_into(view, std::slice::from_mut(&mut dseq.cache), scratch);
                let row = &data[(draft_tokens.len() - 1) * vocab..draft_tokens.len() * vocab];
                let next = sample_token(row, &SamplingConfig::greedy(), rng);
                scratch.put(data);
                dseq.fed.extend_from_slice(draft_tokens);
                slot.push(next);
                draft_tokens.clear();
                draft_tokens.push(next);
            }
            self.spec_proposed += k as u64;
        }
    }

    /// Drive [`Scheduler::step`] until every submitted request finished.
    ///
    /// The responses are **sorted by request id** — a documented contract
    /// (pinned by test), not an accident of scheduling order.
    pub fn run_to_completion(&mut self) -> Vec<ServeResponse> {
        let mut all = Vec::new();
        while !self.is_idle() {
            all.extend(self.step());
        }
        all.sort_by_key(|r| r.id);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CompressSpec;
    use edkm_nn::{LlamaConfig, LlamaModel};
    use edkm_tensor::{runtime, DType, Device};

    fn served(bits_spec: &CompressSpec) -> PalettizedModel {
        let cfg = LlamaConfig {
            max_seq: 32,
            ..LlamaConfig::tiny()
        };
        let dense = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 42);
        PalettizedModel::from_dense(&dense, bits_spec).unwrap()
    }

    #[test]
    fn greedy_sampling_is_argmax_with_low_tie() {
        let mut rng = StdRng::seed_from_u64(0);
        let row = [0.5f32, 2.0, 2.0, -1.0];
        assert_eq!(sample_token(&row, &SamplingConfig::greedy(), &mut rng), 1);
    }

    #[test]
    fn temperature_zero_and_tiny_temperature_agree_eventually() {
        let mut rng = StdRng::seed_from_u64(1);
        let row = [0.1f32, 8.0, 0.2, 0.3];
        // At a tiny temperature the distribution collapses onto the argmax.
        for _ in 0..20 {
            assert_eq!(
                sample_token(&row, &SamplingConfig::with_temperature(1e-3, 7), &mut rng),
                1
            );
        }
    }

    #[test]
    fn top_k_filters_the_tail() {
        let mut rng = StdRng::seed_from_u64(2);
        let row = [1.0f32, 5.0, 4.0, -3.0, 2.0];
        for _ in 0..50 {
            let tok = sample_token(&row, &SamplingConfig::with_top_k(1.0, 2, 3), &mut rng);
            assert!(tok == 1 || tok == 2, "top-2 must exclude token {tok}");
        }
    }

    #[test]
    fn top_k_ties_at_the_cut_never_evict_the_argmax() {
        // Two 5.0s tie at the top-2 cut while 9.0 sits above it at a later
        // index: the strict maximum must always survive the filter, and the
        // one remaining slot goes to the first tied value.
        let mut rng = StdRng::seed_from_u64(4);
        let row = [5.0f32, 5.0, 9.0];
        let mut saw_argmax = false;
        for _ in 0..80 {
            let tok = sample_token(&row, &SamplingConfig::with_top_k(1.0, 2, 9), &mut rng);
            assert!(tok == 2 || tok == 0, "top-2 kept token {tok}");
            saw_argmax |= tok == 2;
        }
        assert!(saw_argmax, "the argmax must be sampleable");
    }

    #[test]
    fn top_k_row_with_a_nan_still_returns_an_in_range_token() {
        // A NaN logit must not panic the sort that finds the cut (one
        // panicking step would take the engine worker down with it).
        let row = [1.0f32, f32::NAN, 3.0, 2.0];
        for top_k in 1..row.len() {
            let s = SamplingConfig::with_top_k(1.0, top_k, 5);
            let mut rng = StdRng::seed_from_u64(top_k as u64);
            for _ in 0..20 {
                assert!(sample_token(&row, &s, &mut rng) < row.len());
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = served(&CompressSpec::with_bits(3));
        let gen = Generator::new(&model);
        let s = SamplingConfig::with_top_k(0.8, 4, 123);
        let a = gen.generate(&[1, 2, 3], 10, &s);
        let b = gen.generate(&[1, 2, 3], 10, &s);
        assert_eq!(a, b, "same seed must reproduce the same tokens");
        let c = gen.generate(&[1, 2, 3], 10, &SamplingConfig::with_top_k(0.8, 4, 124));
        assert_eq!(a.len(), c.len());
    }

    #[test]
    fn generator_respects_prompt_and_length() {
        runtime::reset();
        let model = served(&CompressSpec::with_bits(3));
        let gen = Generator::new(&model);
        let out = gen.generate_greedy(&[1, 2, 3], 8);
        assert_eq!(out.len(), 11);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < model.config().vocab));
        assert_eq!(gen.generate_greedy(&[4, 5], 0), vec![4, 5]);
    }

    #[test]
    fn scheduler_matches_solo_generation_exactly() {
        runtime::reset();
        let model = served(&CompressSpec::with_bits(3));
        let gen = Generator::new(&model);
        // Uneven prompts, mixed greedy and seeded sampling.
        let reqs = vec![
            ServeRequest::new(1, vec![1, 2, 3, 4, 5], 9, SamplingConfig::greedy()),
            ServeRequest::new(2, vec![7], 4, SamplingConfig::with_temperature(0.9, 77)),
            ServeRequest::new(3, vec![9, 8], 12, SamplingConfig::with_top_k(1.1, 3, 5)),
        ];
        let solo: Vec<Vec<usize>> = reqs
            .iter()
            .map(|r| gen.generate(&r.prompt, r.max_new, &r.sampling))
            .collect();
        let mut sched = Scheduler::new(&model, 2); // forces queueing too
        for r in &reqs {
            sched.submit(r.clone());
        }
        let out = sched.run_to_completion();
        assert_eq!(out.len(), 3);
        for (resp, want) in out.iter().zip(&solo) {
            assert_eq!(
                &resp.tokens, want,
                "request {} must not depend on batch composition",
                resp.id
            );
            assert_eq!(resp.finish, FinishReason::MaxTokens);
        }
        assert!(sched.is_idle());
        assert_eq!(sched.tokens_generated(), 9 + 4 + 12);
    }

    #[test]
    fn kv_bytes_return_to_baseline_after_retirement() {
        runtime::reset();
        let model = served(&CompressSpec::with_bits(2));
        let baseline = runtime::cpu_live_bytes();
        let mut sched = Scheduler::new(&model, 8);
        for id in 0..5u64 {
            sched.submit(ServeRequest::new(
                id,
                vec![1 + id as usize],
                3 + id as usize,
                SamplingConfig::greedy(),
            ));
        }
        sched.step();
        assert!(sched.kv_live_bytes() > 0, "in-flight caches are charged");
        assert!(runtime::cpu_live_bytes() > baseline);
        sched.run_to_completion();
        assert_eq!(sched.kv_live_bytes(), 0);
        assert_eq!(
            runtime::cpu_live_bytes(),
            baseline,
            "all KV bytes must drain when requests retire"
        );
    }

    #[test]
    fn zero_new_tokens_complete_without_forward() {
        runtime::reset();
        let model = served(&CompressSpec::with_bits(2));
        let mut sched = Scheduler::new(&model, 4);
        sched.submit(ServeRequest::new(
            9,
            vec![3, 1],
            0,
            SamplingConfig::greedy(),
        ));
        let out = sched.step();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tokens, vec![3, 1]);
        assert_eq!(out[0].generated, 0);
        assert_eq!(out[0].finish, FinishReason::MaxTokens);
        assert_eq!(sched.decode_steps(), 0);
    }

    #[test]
    fn bounded_pool_defers_admission_until_blocks_exist() {
        runtime::reset();
        // 4 tokens/block, room for 3 blocks: an 8-token prompt (needs
        // ceil(9/4) = 3 blocks at admission) fills the pool alone.
        let model = served(&CompressSpec::with_bits(2)).with_kv_config(KvBlockConfig {
            block_tokens: 4,
            max_blocks: 3,
        });
        let mut sched = Scheduler::new(&model, 4);
        for id in 0..2u64 {
            sched.submit(ServeRequest::new(
                id,
                vec![1; 8],
                2,
                SamplingConfig::greedy(),
            ));
        }
        sched.step();
        assert_eq!(sched.active(), 1, "only the first request fits the pool");
        assert_eq!(sched.queued(), 1, "the second waits for free blocks");
        let out = sched.run_to_completion();
        assert_eq!(out.len(), 2, "deferred admission must still complete");
        assert_eq!(model.kv_pool().blocks_in_use(), 0);
    }

    #[test]
    fn preemption_reclaims_blocks_and_replays_identically() {
        runtime::reset();
        let unbounded = served(&CompressSpec::with_bits(3));
        let reqs: Vec<ServeRequest> = (0..2u64)
            .map(|id| {
                ServeRequest::new(
                    id,
                    vec![1 + id as usize, 5],
                    20,
                    SamplingConfig::with_top_k(0.9, 4, 40 + id),
                )
            })
            .collect();
        let mut free_sched = Scheduler::new(&unbounded, 2);
        for r in &reqs {
            free_sched.submit(r.clone());
        }
        let want = free_sched.run_to_completion();

        // Two 22-token sequences need 22 blocks total at 2 tokens/block;
        // 12 blocks can hold either alone but never both — the scheduler
        // must preempt, and the preempted request must regenerate the
        // exact same tokens after re-admission.
        let tight = served(&CompressSpec::with_bits(3)).with_kv_config(KvBlockConfig {
            block_tokens: 2,
            max_blocks: 12,
        });
        let mut sched = Scheduler::new(&tight, 2);
        for r in &reqs {
            sched.submit(r.clone());
        }
        let got = sched.run_to_completion();
        assert!(sched.preemptions() > 0, "the tight pool must preempt");
        assert!(
            got.iter()
                .any(|r| r.finish == FinishReason::PreemptedThenFinished),
            "the preempted request must report PreemptedThenFinished"
        );
        assert_eq!(
            sched.tokens_generated(),
            2 * 20,
            "replayed tokens are not double-counted"
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                g.tokens, w.tokens,
                "request {}: preemption must not change generated tokens",
                g.id
            );
        }
        assert_eq!(tight.kv_pool().blocks_in_use(), 0, "no leaked blocks");
    }

    #[test]
    #[should_panic(expected = "KV pool too small")]
    fn single_request_larger_than_the_pool_panics() {
        runtime::reset();
        let model = served(&CompressSpec::with_bits(2)).with_kv_config(KvBlockConfig {
            block_tokens: 2,
            max_blocks: 2,
        });
        let mut sched = Scheduler::new(&model, 1);
        sched.submit(ServeRequest::new(
            0,
            vec![1; 8], // needs ceil(9/2) = 5 blocks, pool caps at 2
            4,
            SamplingConfig::greedy(),
        ));
        sched.step();
    }

    #[test]
    #[should_panic(expected = "exceed max_seq")]
    fn oversized_request_is_rejected_at_submit() {
        let model = served(&CompressSpec::with_bits(2));
        let mut sched = Scheduler::new(&model, 1);
        sched.submit(ServeRequest::new(
            0,
            vec![1; 30],
            30,
            SamplingConfig::greedy(),
        ));
    }
}
