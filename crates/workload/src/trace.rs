//! Seeded, fully deterministic workload traces.
//!
//! A [`Trace`] is an ordered list of [`TimedRequest`]s — each a complete
//! serving request (prompt, budget, sampling, priority, optional step
//! deadline) stamped with a virtual **arrival step**. Generation draws
//! every choice from one seeded [`StdRng`], so the same
//! [`TraceConfig`] always yields the same trace, byte for byte
//! ([`Trace::to_bytes`] / [`Trace::fingerprint`] make that checkable).

use edkm_core::{Priority, SamplingConfig};
use rand::{Rng, SeedableRng, StdRng};

/// The request-mix archetype a trace models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Bursty Poisson arrivals of medium requests with seeded top-k
    /// sampling: the open-loop traffic shape of a public endpoint.
    Bursty,
    /// Multi-turn chat sessions whose prompts grow by reusing the full
    /// conversation history (the prefix-sharing traffic shape).
    Chat,
    /// Long-context summarization: prompts near `max_seq` with tiny
    /// completion budgets at [`Priority::Low`] — the KV-pressure and
    /// preemption driver.
    Summarize,
    /// Short classification bursts: tiny prompts, 1–2 token budgets,
    /// [`Priority::High`] and tight step deadlines.
    Classify,
    /// A weighted blend of all of the above with mixed priorities and
    /// deadlines on the interactive slice.
    Mixed,
}

impl TraceKind {
    /// Every kind, in the order the bench sweeps them.
    pub const ALL: [TraceKind; 5] = [
        TraceKind::Bursty,
        TraceKind::Chat,
        TraceKind::Summarize,
        TraceKind::Classify,
        TraceKind::Mixed,
    ];

    /// Stable lowercase name (the `--trace` selector and the JSON key).
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceKind::Bursty => "bursty",
            TraceKind::Chat => "chat",
            TraceKind::Summarize => "summarize",
            TraceKind::Classify => "classify",
            TraceKind::Mixed => "mixed",
        }
    }

    /// Parse a `--trace` selector.
    ///
    /// # Errors
    ///
    /// Returns the accepted selector list when `name` is not one of them.
    pub fn parse(name: &str) -> Result<TraceKind, String> {
        match name {
            "bursty" => Ok(TraceKind::Bursty),
            "chat" => Ok(TraceKind::Chat),
            "summarize" => Ok(TraceKind::Summarize),
            "classify" => Ok(TraceKind::Classify),
            "mixed" => Ok(TraceKind::Mixed),
            other => Err(format!(
                "unknown trace kind '{other}' (expected bursty|chat|summarize|classify|mixed)"
            )),
        }
    }

    fn tag(self) -> u64 {
        match self {
            TraceKind::Bursty => 0xB0B5,
            TraceKind::Chat => 0xC4A7,
            TraceKind::Summarize => 0x50FA,
            TraceKind::Classify => 0xC1A5,
            TraceKind::Mixed => 0x313D,
        }
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a trace is generated from. Two equal configs always produce
/// byte-identical traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// The request-mix archetype.
    pub kind: TraceKind,
    /// Master seed; every prompt token, arrival gap and sampling seed
    /// derives from it.
    pub(crate) seed: u64,
    /// Number of requests in the trace.
    pub(crate) requests: usize,
    /// Vocabulary size of the model the trace targets (prompt tokens are
    /// drawn below it).
    pub(crate) vocab: usize,
    /// Context budget of the model: every request keeps
    /// `prompt.len() + max_new <= max_seq`.
    pub(crate) max_seq: usize,
}

impl TraceConfig {
    /// A config for `requests` requests of `kind` against a model with the
    /// given `vocab` and `max_seq`.
    ///
    /// # Panics
    ///
    /// Panics if `requests == 0`, `vocab == 0`, or `max_seq < 8` (too
    /// small to shape distinct request classes).
    #[must_use]
    pub fn new(kind: TraceKind, seed: u64, requests: usize, vocab: usize, max_seq: usize) -> Self {
        assert!(requests > 0, "a trace needs at least one request");
        assert!(vocab > 0, "vocab must be positive");
        assert!(max_seq >= 8, "max_seq {max_seq} too small for a trace");
        TraceConfig {
            kind,
            seed,
            requests,
            vocab,
            max_seq,
        }
    }
}

/// One request of a trace: a full serving request plus its virtual arrival
/// step.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRequest {
    /// Position in submission order (0-based); also the id the replay
    /// drivers key outcomes by.
    pub id: u64,
    /// Virtual scheduler step at which the request arrives.
    pub(crate) arrival_step: u64,
    /// Prompt token ids (non-empty, all below the config's vocab).
    pub prompt: Vec<usize>,
    /// Completion budget; `prompt.len() + max_new <= max_seq` holds.
    pub max_new: usize,
    /// Per-request sampling policy (seeded when stochastic).
    pub sampling: SamplingConfig,
    /// Scheduling class.
    pub priority: Priority,
    /// Step deadline relative to submission, if any.
    pub(crate) deadline_steps: Option<u64>,
}

impl TimedRequest {
    /// Total KV footprint of the request in tokens (prompt + budget).
    pub(crate) fn total_tokens(&self) -> usize {
        self.prompt.len() + self.max_new
    }
}

/// A generated workload trace: requests in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    config: TraceConfig,
    requests: Vec<TimedRequest>,
}

/// Intermediate request shape before ids are assigned in arrival order.
struct Proto {
    arrival: u64,
    prompt: Vec<usize>,
    max_new: usize,
    sampling: SamplingConfig,
    priority: Priority,
    deadline: Option<u64>,
}

/// Exponential inter-arrival gap (mean `mean` steps), rounded to whole
/// steps — the Poisson-process building block.
fn exp_gap(rng: &mut StdRng, mean: f64) -> u64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    (-u.ln() * mean).round() as u64
}

fn rand_prompt(rng: &mut StdRng, len: usize, vocab: usize) -> Vec<usize> {
    (0..len.max(1)).map(|_| rng.gen_range(0..vocab)).collect()
}

impl Trace {
    /// Generate the trace `config` describes. Deterministic: equal configs
    /// yield byte-identical traces.
    #[must_use]
    pub fn generate(config: &TraceConfig) -> Trace {
        let mut rng = StdRng::seed_from_u64(config.seed ^ config.kind.tag());
        let mut protos = match config.kind {
            TraceKind::Bursty => gen_bursty(&mut rng, config),
            TraceKind::Chat => gen_chat(&mut rng, config),
            TraceKind::Summarize => gen_summarize(&mut rng, config),
            TraceKind::Classify => gen_classify(&mut rng, config),
            TraceKind::Mixed => gen_mixed(&mut rng, config),
        };
        protos.truncate(config.requests);
        // Arrival order with a stable tie-break on generation order.
        let mut order: Vec<usize> = (0..protos.len()).collect();
        order.sort_by_key(|&i| (protos[i].arrival, i));
        let requests = order
            .into_iter()
            .enumerate()
            .map(|(id, i)| {
                let p = &protos[i];
                debug_assert!(!p.prompt.is_empty());
                debug_assert!(p.max_new >= 1);
                debug_assert!(p.prompt.len() + p.max_new <= config.max_seq);
                TimedRequest {
                    id: id as u64,
                    arrival_step: p.arrival,
                    prompt: p.prompt.clone(),
                    max_new: p.max_new,
                    sampling: p.sampling,
                    priority: p.priority,
                    deadline_steps: p.deadline,
                }
            })
            .collect();
        Trace {
            config: *config,
            requests,
        }
    }

    /// The config this trace was generated from.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[TimedRequest] {
        &self.requests
    }

    /// Largest `prompt + max_new` footprint over the trace, in tokens —
    /// what a bounded KV pool must at least hold.
    pub fn max_tokens_per_request(&self) -> usize {
        self.requests
            .iter()
            .map(TimedRequest::total_tokens)
            .max()
            .unwrap_or(0)
    }

    /// Whether any request carries a step deadline (deadline traces can
    /// expire differently under wall-clock vs virtual-clock replay).
    pub fn has_deadlines(&self) -> bool {
        self.requests.iter().any(|r| r.deadline_steps.is_some())
    }

    /// The same trace with every step deadline removed: each request then
    /// runs to its natural end.
    pub(crate) fn without_deadlines(&self) -> Trace {
        let mut trace = self.clone();
        for r in &mut trace.requests {
            r.deadline_steps = None;
        }
        trace
    }

    /// Canonical byte encoding of the whole trace (config + every request
    /// field, little-endian, length-prefixed). Two traces are equal iff
    /// their encodings are — the determinism tests compare these.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        push(&mut out, self.config.kind.tag());
        push(&mut out, self.config.seed);
        push(&mut out, self.config.requests as u64);
        push(&mut out, self.config.vocab as u64);
        push(&mut out, self.config.max_seq as u64);
        push(&mut out, self.requests.len() as u64);
        for r in &self.requests {
            push(&mut out, r.id);
            push(&mut out, r.arrival_step);
            push(&mut out, r.prompt.len() as u64);
            for &t in &r.prompt {
                push(&mut out, t as u64);
            }
            push(&mut out, r.max_new as u64);
            push(&mut out, u64::from(r.sampling.temperature.to_bits()));
            push(&mut out, r.sampling.top_k as u64);
            push(&mut out, r.sampling.seed);
            push(
                &mut out,
                match r.priority {
                    Priority::Low => 0,
                    Priority::Normal => 1,
                    Priority::High => 2,
                },
            );
            push(&mut out, r.deadline_steps.unwrap_or(u64::MAX));
        }
        out
    }

    /// FNV-1a hash of [`Trace::to_bytes`] — a compact identity for logs
    /// and bench JSON.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

fn gen_bursty(rng: &mut StdRng, cfg: &TraceConfig) -> Vec<Proto> {
    let mut protos = Vec::with_capacity(cfg.requests);
    let mut now = 0u64;
    let mut burst_left = 0usize;
    for i in 0..cfg.requests {
        if burst_left > 0 {
            burst_left -= 1; // same-step burst member
        } else {
            now += exp_gap(rng, 2.0);
            if rng.gen_bool(0.25) {
                burst_left = rng.gen_range(1..4usize);
            }
        }
        let budget = cfg.max_seq;
        let plen = rng.gen_range(4..13usize).min(budget - 2);
        let max_new = rng.gen_range(4..10usize).min(budget - plen);
        protos.push(Proto {
            arrival: now,
            prompt: rand_prompt(rng, plen, cfg.vocab),
            max_new,
            sampling: SamplingConfig::with_top_k(0.8, 8, cfg.seed ^ ((i as u64) << 1)),
            priority: Priority::Normal,
            deadline: None,
        });
    }
    protos
}

fn gen_chat(rng: &mut StdRng, cfg: &TraceConfig) -> Vec<Proto> {
    // Sessions of 2–4 turns; each turn's prompt replays the whole prior
    // conversation (history + a simulated reply) plus fresh user tokens,
    // sliding-window truncated to the context budget.
    let mut protos = Vec::with_capacity(cfg.requests);
    let max_new = 6.min(cfg.max_seq / 4).max(1);
    let budget = cfg.max_seq - max_new;
    let mut session_start = 0u64;
    while protos.len() < cfg.requests {
        let turns = rng.gen_range(2..5usize);
        let mut now = session_start;
        let mut history: Vec<usize> = Vec::new();
        for _ in 0..turns {
            if protos.len() >= cfg.requests {
                break;
            }
            let user_len = rng.gen_range(3..8usize);
            let user = rand_prompt(rng, user_len, cfg.vocab);
            history.extend_from_slice(&user);
            if history.len() > budget {
                history.drain(..history.len() - budget);
            }
            protos.push(Proto {
                arrival: now,
                prompt: history.clone(),
                max_new,
                sampling: SamplingConfig::greedy(),
                priority: Priority::Normal,
                deadline: None,
            });
            // The simulated assistant reply joins the history the next
            // turn replays.
            let reply = rand_prompt(rng, max_new, cfg.vocab);
            history.extend_from_slice(&reply);
            now += 3 + exp_gap(rng, 4.0); // think time between turns
        }
        session_start += exp_gap(rng, 3.0) + 1;
    }
    protos
}

fn gen_summarize(rng: &mut StdRng, cfg: &TraceConfig) -> Vec<Proto> {
    let mut protos = Vec::with_capacity(cfg.requests);
    let mut now = 0u64;
    for _ in 0..cfg.requests {
        now += exp_gap(rng, 1.0); // near-simultaneous: pile on the KV pool
        let max_new = rng.gen_range(2..7usize).min(cfg.max_seq / 4).max(1);
        let budget = cfg.max_seq - max_new;
        let lo = (cfg.max_seq * 5 / 8).clamp(1, budget);
        let plen = if lo < budget {
            rng.gen_range(lo..budget + 1)
        } else {
            budget
        };
        protos.push(Proto {
            arrival: now,
            prompt: rand_prompt(rng, plen, cfg.vocab),
            max_new,
            sampling: SamplingConfig::greedy(),
            priority: Priority::Low,
            deadline: None,
        });
    }
    protos
}

fn gen_classify(rng: &mut StdRng, cfg: &TraceConfig) -> Vec<Proto> {
    let mut protos = Vec::with_capacity(cfg.requests);
    let mut now = 0u64;
    let mut burst_left = 0usize;
    for _ in 0..cfg.requests {
        if burst_left == 0 {
            now += 2 + exp_gap(rng, 3.0);
            burst_left = rng.gen_range(4..9usize);
        }
        burst_left -= 1;
        let plen = rng.gen_range(2..7usize).min(cfg.max_seq - 2);
        protos.push(Proto {
            arrival: now,
            prompt: rand_prompt(rng, plen, cfg.vocab),
            max_new: rng.gen_range(1..3usize),
            sampling: SamplingConfig::greedy(),
            priority: Priority::High,
            deadline: Some(rng.gen_range(4..11u64)),
        });
    }
    protos
}

fn gen_mixed(rng: &mut StdRng, cfg: &TraceConfig) -> Vec<Proto> {
    let mut protos = Vec::with_capacity(cfg.requests);
    let mut now = 0u64;
    for i in 0..cfg.requests {
        now += exp_gap(rng, 1.5);
        let roll = rng.gen_range(0..100u32);
        let proto = if roll < 35 {
            // Interactive medium request, sampled.
            let plen = rng.gen_range(4..11usize).min(cfg.max_seq - 2);
            let max_new = rng.gen_range(4..9usize).min(cfg.max_seq - plen);
            Proto {
                arrival: now,
                prompt: rand_prompt(rng, plen, cfg.vocab),
                max_new,
                sampling: SamplingConfig::with_top_k(0.7, 8, cfg.seed ^ 0x5EED ^ (i as u64)),
                priority: Priority::Normal,
                deadline: None,
            }
        } else if roll < 60 {
            // Chat-ish follow-up: medium prompt, greedy.
            let plen = rng.gen_range(6..15usize).min(cfg.max_seq - 2);
            let max_new = rng.gen_range(3..7usize).min(cfg.max_seq - plen);
            Proto {
                arrival: now,
                prompt: rand_prompt(rng, plen, cfg.vocab),
                max_new,
                sampling: SamplingConfig::greedy(),
                priority: Priority::Normal,
                deadline: None,
            }
        } else if roll < 80 {
            // Classification: short, urgent, deadlined.
            let plen = rng.gen_range(2..6usize);
            Proto {
                arrival: now,
                prompt: rand_prompt(rng, plen, cfg.vocab),
                max_new: rng.gen_range(1..3usize),
                sampling: SamplingConfig::greedy(),
                priority: Priority::High,
                deadline: Some(rng.gen_range(5..13u64)),
            }
        } else {
            // Background summarization: long prompt, low priority.
            let max_new = rng.gen_range(2..5usize);
            let budget = cfg.max_seq - max_new;
            let lo = (cfg.max_seq / 2).clamp(1, budget);
            let plen = if lo < budget {
                rng.gen_range(lo..budget + 1)
            } else {
                budget
            };
            Proto {
                arrival: now,
                prompt: rand_prompt(rng, plen, cfg.vocab),
                max_new,
                sampling: SamplingConfig::greedy(),
                priority: Priority::Low,
                deadline: None,
            }
        };
        protos.push(proto);
    }
    protos
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: TraceKind) -> TraceConfig {
        TraceConfig::new(kind, 42, 16, 64, 48)
    }

    #[test]
    fn every_kind_respects_the_contract() {
        for kind in TraceKind::ALL {
            let trace = Trace::generate(&cfg(kind));
            assert_eq!(trace.requests().len(), 16, "{kind}");
            let mut last = 0u64;
            for (i, r) in trace.requests().iter().enumerate() {
                assert_eq!(r.id, i as u64, "{kind}: ids follow arrival order");
                assert!(r.arrival_step >= last, "{kind}: arrivals sorted");
                last = r.arrival_step;
                assert!(!r.prompt.is_empty(), "{kind}");
                assert!(r.max_new >= 1, "{kind}");
                assert!(r.total_tokens() <= 48, "{kind}: context budget");
                assert!(r.prompt.iter().all(|&t| t < 64), "{kind}: vocab");
            }
        }
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        for kind in TraceKind::ALL {
            let a = Trace::generate(&cfg(kind));
            let b = Trace::generate(&cfg(kind));
            assert_eq!(a.to_bytes(), b.to_bytes(), "{kind}");
            assert_eq!(a.fingerprint(), b.fingerprint(), "{kind}");
            let mut other = cfg(kind);
            other.seed = 43;
            assert_ne!(
                Trace::generate(&other).to_bytes(),
                a.to_bytes(),
                "{kind}: different seeds must differ"
            );
        }
    }

    #[test]
    fn kinds_shape_their_traffic() {
        let classify = Trace::generate(&cfg(TraceKind::Classify));
        assert!(classify.has_deadlines());
        assert!(classify
            .requests()
            .iter()
            .all(|r| r.priority == Priority::High && r.max_new <= 2));

        let summarize = Trace::generate(&cfg(TraceKind::Summarize));
        assert!(!summarize.has_deadlines());
        assert!(summarize
            .requests()
            .iter()
            .all(|r| r.priority == Priority::Low && r.prompt.len() >= 48 * 5 / 8));

        let mixed = Trace::generate(&cfg(TraceKind::Mixed));
        assert!(mixed.has_deadlines());
        let prios: std::collections::HashSet<_> =
            mixed.requests().iter().map(|r| r.priority).collect();
        assert!(prios.len() >= 2, "mixed trace carries mixed priorities");
    }

    #[test]
    fn parse_roundtrips_and_rejects() {
        for kind in TraceKind::ALL {
            assert_eq!(TraceKind::parse(kind.name()).unwrap(), kind);
        }
        assert!(TraceKind::parse("poisson").is_err());
    }
}
