//! Replay drivers: feed a [`Trace`] through the serving stack and
//! aggregate outcome and latency metrics.
//!
//! [`replay_trace`] is the deterministic layer — it owns a
//! [`Scheduler`] and advances a virtual step clock, so arrivals,
//! admissions, deadlines and preemptions replay identically on every run
//! and every machine. [`replay_router`] is the wall-clock layer — it
//! submits through a [`RouterHandle`] with one consumer thread per token
//! stream, the shape a real front-end has, and reads router and engine
//! counters from [`ClusterStats`]. A bare engine is a one-replica
//! [`Cluster`].
//!
//! [`Cluster`]: edkm_cluster::Cluster

use crate::report::{percentile_f64, percentile_u64};
use crate::trace::Trace;
use edkm_cluster::{ClusterStats, ClusterStream, RouteError, RouterHandle};
use edkm_core::{
    FinishReason, Request, Scheduler, ServeModel, ServeRequest, ServeResponse, StepEvents,
    TokenEvent,
};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Terminal record of one replayed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The trace request id.
    pub id: u64,
    /// Full sequence: prompt followed by the generated continuation.
    pub tokens: Vec<usize>,
    /// Number of generated tokens.
    pub(crate) generated: usize,
    /// Why the request retired.
    pub finish: FinishReason,
    /// Steps between submission and the first emitted token (virtual-clock
    /// replay only; `None` if no token was emitted).
    pub(crate) ttft_steps: Option<u64>,
}

/// Aggregate counters of one virtual-clock replay, comparable across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounters {
    /// Requests fed into the scheduler.
    pub submitted: u64,
    /// Requests that finished naturally (budget or stop token).
    pub finished: u64,
    /// Requests that hit their step deadline.
    pub expired: u64,
    /// Requests cancelled mid-flight.
    pub(crate) cancelled: u64,
    /// Preemption events (KV blocks reclaimed, sequence replayed later).
    pub(crate) preemptions: u64,
    /// Batched forward steps executed.
    pub decode_steps: u64,
    /// Tokens generated across all requests.
    pub tokens_generated: u64,
    /// High-water mark of live KV bytes.
    pub kv_peak_bytes: usize,
    /// Admissions that adopted at least one cached prefix block.
    pub prefix_hits: u64,
    /// Prompt tokens served from the prefix cache instead of prefill.
    pub prefix_tokens_reused: u64,
}

impl ReplayCounters {
    /// `expired / submitted` (0 when nothing was submitted).
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.expired as f64 / self.submitted as f64
        }
    }

    /// Preemptions per submitted request (0 when nothing was submitted).
    pub fn preemption_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.preemptions as f64 / self.submitted as f64
        }
    }

    /// Fraction of admissions that reused a cached prefix (0 when nothing
    /// was submitted).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / self.submitted as f64
        }
    }
}

/// Result of the deterministic virtual-clock replay ([`replay_trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StepReplayReport {
    /// Per-request outcomes, sorted by trace id.
    pub outcomes: Vec<RequestOutcome>,
    /// Aggregate counters.
    pub counters: ReplayCounters,
    /// First-token latencies in scheduler steps, ascending (one entry per
    /// request that emitted at least one token).
    pub(crate) ttft_steps: Vec<u64>,
}

impl StepReplayReport {
    /// TTFT percentile in steps (`p` in `[0, 1]`).
    pub fn ttft_steps_p(&self, p: f64) -> u64 {
        percentile_u64(&self.ttft_steps, p)
    }
}

/// Replay `trace` against a [`Scheduler`] over `model` on a virtual step
/// clock: each loop tick submits every request whose arrival step has
/// come, then runs one scheduling step. The result — every token, finish
/// reason, TTFT-in-steps, deadline miss and preemption — is a pure
/// function of `(model, trace, max_batch)`.
///
/// # Panics
///
/// Panics on the same conditions as [`Scheduler::submit`] /
/// [`Scheduler::step`] (empty prompts, context overflow, a bounded KV
/// pool too small for a single request).
pub fn replay_trace<M: ServeModel>(model: &M, trace: &Trace, max_batch: usize) -> StepReplayReport {
    let mut sched = Scheduler::new(model, max_batch);
    let mut events = StepEvents::default();
    let reqs = trace.requests();
    let mut next = 0usize;
    let mut now = 0u64;
    let mut submit_step: HashMap<u64, u64> = HashMap::new();
    let mut ttft_of: HashMap<u64, u64> = HashMap::new();
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(reqs.len());
    let mut counters = ReplayCounters::default();

    while next < reqs.len() || !sched.is_idle() {
        while next < reqs.len() && reqs[next].arrival_step <= now {
            let r = &reqs[next];
            sched.submit(ServeRequest {
                id: r.id,
                prompt: r.prompt.clone(),
                max_new: r.max_new,
                sampling: r.sampling,
                stop_tokens: Vec::new(),
                priority: r.priority,
                deadline_steps: r.deadline_steps,
            });
            submit_step.insert(r.id, sched.decode_steps());
            counters.submitted += 1;
            next += 1;
        }
        if !sched.is_idle() {
            sched.step_events_into(&mut events);
            counters.kv_peak_bytes = counters.kv_peak_bytes.max(sched.kv_live_bytes());
            for t in &events.tokens {
                if t.index == 0 {
                    if let Some(&s0) = submit_step.get(&t.id) {
                        ttft_of.insert(t.id, sched.decode_steps().saturating_sub(s0));
                    }
                }
            }
            for resp in events.finished.drain(..) {
                if resp.finish == FinishReason::DeadlineExceeded {
                    counters.expired += 1;
                } else {
                    counters.finished += 1;
                }
                outcomes.push(RequestOutcome {
                    id: resp.id,
                    generated: resp.generated,
                    finish: resp.finish,
                    ttft_steps: ttft_of.get(&resp.id).copied(),
                    tokens: resp.tokens,
                });
            }
        }
        now += 1;
    }

    counters.preemptions = sched.preemptions();
    counters.decode_steps = sched.decode_steps();
    counters.tokens_generated = sched.tokens_generated();
    counters.prefix_hits = sched.prefix_hits();
    counters.prefix_tokens_reused = sched.prefix_tokens_reused();
    outcomes.sort_by_key(|o| o.id);
    let mut ttft_steps: Vec<u64> = outcomes.iter().filter_map(|o| o.ttft_steps).collect();
    ttft_steps.sort_unstable();
    StepReplayReport {
        outcomes,
        counters,
        ttft_steps,
    }
}

/// How long [`replay_router`] keeps retrying a request the router refuses
/// for capacity ([`RouteError::Saturated`]) or because no replica accepts
/// work ([`RouteError::NoReplicas`]: every slot dead or draining
/// mid-recovery) before it records the request as lost.
const SUBMIT_PATIENCE: Duration = Duration::from_secs(30);

/// Result of a wall-clock replay ([`replay_router`]).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Outcomes of the requests that reached a terminal event, sorted by
    /// trace id (`ttft_steps` is `None` here; wall-clock TTFT lives in
    /// `ReplayReport::ttft_ms`).
    pub outcomes: Vec<RequestOutcome>,
    /// Trace ids the degrade ladder refused ([`RouteError::Shed`]):
    /// intentional refusals, not losses. Ascending.
    pub shed: Vec<u64>,
    /// Trace ids that were neither shed nor reached a terminal event: the
    /// router refused them for good, or their stream ended without one.
    /// Ascending.
    pub lost: Vec<u64>,
    /// Token events whose index was not the next expected one (a
    /// duplicate or a skip).
    pub index_violations: u64,
    /// Requests the router refused for capacity at least once before
    /// accepting them (saturation the driver absorbed).
    pub backpressure_rejections: u64,
    /// Fleet snapshot at drain: per-replica engine stats plus router
    /// counters (affinity hits, spills, hedges, re-routes, sheds).
    pub cluster: ClusterStats,
    /// Wall-clock duration of the whole replay, seconds.
    pub wall_secs: f64,
    /// Naturally finished tokens per wall second (expired and cancelled
    /// work does not count — this is goodput, not throughput).
    pub goodput_tok_s: f64,
    /// Submission → first token, per request, milliseconds, ascending.
    pub(crate) ttft_ms: Vec<f64>,
    /// Gaps between consecutive tokens of a request, milliseconds,
    /// ascending.
    pub(crate) per_token_ms: Vec<f64>,
}

impl ReplayReport {
    /// Wall-clock TTFT percentile in milliseconds (`p` in `[0, 1]`).
    pub fn ttft_ms_p(&self, p: f64) -> f64 {
        percentile_f64(&self.ttft_ms, p)
    }

    /// Per-token gap percentile in milliseconds (`p` in `[0, 1]`).
    pub fn per_token_ms_p(&self, p: f64) -> f64 {
        percentile_f64(&self.per_token_ms, p)
    }
}

/// For each request, the position of the latest earlier request whose
/// prompt is a proper prefix of its own — the prior turn of the same chat
/// session (chat traces replay the full conversation in every prompt).
/// Requests without such a predecessor are independent.
fn turn_dependencies(trace: &Trace) -> Vec<Option<usize>> {
    let requests = trace.requests();
    let mut deps = vec![None; requests.len()];
    for j in 0..requests.len() {
        let pj = &requests[j].prompt;
        deps[j] = (0..j).rev().find(|&i| {
            let pi = &requests[i].prompt;
            pi.len() < pj.len() && pj[..pi.len()] == pi[..]
        });
    }
    deps
}

/// Which trace positions are settled (finished, shed or lost), so the
/// submitter can hold a chat turn until its predecessor's reply is in.
struct Turns {
    settled: Mutex<Vec<bool>>,
    changed: Condvar,
}

impl Turns {
    fn settle(&self, pos: usize) {
        self.settled.lock().expect("turn flags")[pos] = true;
        self.changed.notify_all();
    }

    fn wait_for(&self, pos: usize) {
        let mut settled = self.settled.lock().expect("turn flags");
        while !settled[pos] {
            settled = self.changed.wait(settled).expect("turn flags");
        }
    }
}

/// Submit `request`, absorbing saturation and momentary total outage
/// until [`SUBMIT_PATIENCE`] runs out. Returns the stream and whether the
/// router refused the request for capacity at least once.
fn submit_patiently(
    router: &RouterHandle,
    request: Request,
) -> (Result<ClusterStream, RouteError>, bool) {
    let deadline = Instant::now() + SUBMIT_PATIENCE;
    let mut saturated = false;
    loop {
        match router.try_submit(request.clone()) {
            Ok((_, stream)) => return (Ok(stream), saturated),
            Err(e @ (RouteError::Saturated | RouteError::NoReplicas))
                if Instant::now() < deadline =>
            {
                saturated |= e == RouteError::Saturated;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return (Err(e), saturated),
        }
    }
}

/// What one consumer thread read off its stream.
struct Drained {
    response: Option<ServeResponse>,
    ttft_ms: Option<f64>,
    gaps_ms: Vec<f64>,
    index_violations: u64,
}

/// Drain `stream` to its end, timing the first token from `submitted` and
/// every later token from the one before it.
fn drain_stream(mut stream: ClusterStream, submitted: Instant) -> Drained {
    let mut out = Drained {
        response: None,
        ttft_ms: None,
        gaps_ms: Vec::new(),
        index_violations: 0,
    };
    let mut next = 0usize;
    let mut last = submitted;
    while let Some(ev) = stream.next_event() {
        match ev {
            TokenEvent::Token { index, .. } => {
                let now = Instant::now();
                if index != next {
                    out.index_violations += 1;
                }
                next = index + 1;
                let ms = now.duration_since(last).as_secs_f64() * 1e3;
                if index == 0 {
                    out.ttft_ms = Some(ms);
                } else {
                    out.gaps_ms.push(ms);
                }
                last = now;
            }
            TokenEvent::Finished(r) => out.response = Some(r),
        }
    }
    out
}

/// Replay `trace` through `router` on the wall clock: the one live replay
/// driver. A bare-engine replay is a one-replica [`Cluster`]; the router
/// delivers the same tokens as the engine it wraps.
///
/// Requests go in arrival order, closed loop (as fast as admission
/// allows), with one consumer thread per stream timing first-token and
/// inter-token gaps. Submission honors chat causality: a turn whose prompt
/// extends an earlier request's prompt is not sent until that request has
/// settled, exactly as a real client cannot type a follow-up before the
/// reply arrives. Ordering never changes token values (sampling is
/// per-request-seeded), but it is what lets prefix-affinity routing turn
/// session stickiness into KV reuse on the sticky replica.
///
/// Nothing the fleet does makes the driver panic. Saturation and a
/// momentary total outage are retried; a degrade-ladder refusal goes into
/// [`ReplayReport::shed`]; any other refusal, and a stream that ends
/// without a terminal event, goes into [`ReplayReport::lost`]; token
/// indices out of order are counted in
/// [`ReplayReport::index_violations`]. The caller keeps the [`Cluster`],
/// so it can drain, kill or respawn replicas mid-replay.
///
/// Per-request tokens of every request that finishes naturally are
/// bit-identical to [`replay_trace`]; only wall-clock-dependent outcomes
/// (deadline expiry) may differ.
///
/// [`Cluster`]: edkm_cluster::Cluster
pub fn replay_router(router: &RouterHandle, trace: &Trace) -> ReplayReport {
    let t0 = Instant::now();
    let requests = trace.requests();
    let deps = turn_dependencies(trace);
    let turns = Arc::new(Turns {
        settled: Mutex::new(vec![false; requests.len()]),
        changed: Condvar::new(),
    });
    let mut shed = Vec::new();
    let mut lost = Vec::new();
    let mut backpressure_rejections = 0u64;
    let mut consumers = Vec::with_capacity(requests.len());
    for (pos, r) in requests.iter().enumerate() {
        if let Some(dep) = deps[pos] {
            turns.wait_for(dep);
        }
        let mut request = Request::new(r.prompt.clone())
            .max_new_tokens(r.max_new)
            .sampling(r.sampling)
            .priority(r.priority);
        if let Some(d) = r.deadline_steps {
            request = request.deadline_steps(d);
        }
        let (submitted, saturated) = submit_patiently(router, request);
        backpressure_rejections += u64::from(saturated);
        let stream = match submitted {
            Ok(stream) => stream,
            Err(e) => {
                if matches!(e, RouteError::Shed { .. }) {
                    shed.push(r.id);
                } else {
                    lost.push(r.id);
                }
                turns.settle(pos);
                continue;
            }
        };
        let (trace_id, submitted_at, turns) = (r.id, Instant::now(), Arc::clone(&turns));
        consumers.push(std::thread::spawn(move || {
            let drained = drain_stream(stream, submitted_at);
            turns.settle(pos);
            (trace_id, drained)
        }));
    }

    let mut outcomes = Vec::with_capacity(consumers.len());
    let mut index_violations = 0u64;
    let mut ttft_ms = Vec::new();
    let mut per_token_ms = Vec::new();
    for c in consumers {
        let (trace_id, drained) = c.join().expect("stream consumer");
        index_violations += drained.index_violations;
        ttft_ms.extend(drained.ttft_ms);
        per_token_ms.extend(drained.gaps_ms);
        match drained.response {
            Some(resp) => outcomes.push(RequestOutcome {
                id: trace_id,
                generated: resp.generated,
                finish: resp.finish,
                ttft_steps: None,
                tokens: resp.tokens,
            }),
            None => lost.push(trace_id),
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let cluster = router.stats();

    outcomes.sort_by_key(|o| o.id);
    lost.sort_unstable();
    ttft_ms.sort_by(|a, b| a.total_cmp(b));
    per_token_ms.sort_by(|a, b| a.total_cmp(b));
    let good_tokens: u64 = outcomes
        .iter()
        .filter(|o| !o.finish.is_aborted())
        .map(|o| o.generated as u64)
        .sum();
    ReplayReport {
        outcomes,
        shed,
        lost,
        index_violations,
        backpressure_rejections,
        cluster,
        wall_secs,
        goodput_tok_s: good_tokens as f64 / wall_secs.max(1e-9),
        ttft_ms,
        per_token_ms,
    }
}
