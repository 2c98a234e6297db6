//! Compressed serving throughput under the streaming engine: sequential
//! single-request decoding vs the handle-based [`ServeEngine`] at batch
//! 1/4/8 over a whole palettized decoder, plus TTFT and per-token latency
//! percentiles measured off the token streams.
//!
//! On top of the microbenchmark, two macro sections:
//!
//! - **Workload sweep** — every [`TraceKind`] replayed twice over a
//!   bounded-KV model: once deterministically against the scheduler
//!   (TTFT-in-steps percentiles, deadline-miss and preemption rates —
//!   the numbers CI SLO gates pin), once live through one engine behind
//!   the router (goodput, wall-clock TTFT/per-token percentiles,
//!   backpressure rejections). Naturally finished requests must generate
//!   identical tokens in both replays.
//! - **Quality/throughput frontier** — a pretrained model exported at
//!   lossless (2^16 palette), 4-bit, and 3-bit; each setting reports
//!   perplexity and multichoice accuracy from `edkm-eval` next to the
//!   serving goodput of the same palettes.
//!
//! Writes `BENCH_serve.json`. The deployment-shaped full run uses a
//! 4-layer / d_model 256 model; `--smoke` shrinks everything so CI can
//! exercise the serving path on every PR in seconds.
//!
//! Run with `cargo run --release -p edkm-bench --bin serve [-- --smoke]`.
//! `--slo` turns the gates (`--max-deadline-miss`, `--max-ttft-p99-steps`,
//! the lossless accuracy floor) into a non-zero exit.
//!
//! `batch8_speedup` is recorded, not gated: the LUT-GEMM kernel decodes
//! a column's weights once for up to six batch rows, so batch 8 runs
//! faster than sequential, by an amount that moves with the host
//! (EXPERIMENTS.md).

use edkm_chaos::{FaultPlan, FaultProfile};
use edkm_cluster::{Cluster, ClusterConfig};
use edkm_core::{
    CompressSpec, CompressionPipeline, EngineConfig, Generator, KvBlockConfig, PalettizedModel,
    SamplingConfig, ServeEngine, ServeResponse, TokenEvent,
};
use edkm_data::{Corpus, Grammar, TaskSuite};
use edkm_eval::{evaluate_suite, perplexity};
use edkm_nn::{AdamWConfig, LlamaConfig, LlamaModel, LmBatch, LrSchedule, TrainConfig, Trainer};
use edkm_tensor::{runtime, DType, Device};
use edkm_workload::{
    audit_invariants, replay_cluster_chaos, replay_router, replay_trace, ChaosReplayConfig,
    ReplayReport, Trace, TraceConfig, TraceKind,
};
use std::time::Instant;

struct Workload {
    config: LlamaConfig,
    bits: u8,
    dkm_iters: usize,
    n_requests: usize,
    gen_tokens: usize,
    /// Requests per generated trace in the workload sweep.
    trace_requests: usize,
    /// Pretraining steps for the quality/throughput frontier model.
    frontier_steps: usize,
}

impl Workload {
    fn full() -> Self {
        Workload {
            config: LlamaConfig {
                vocab: 256,
                d_model: 256,
                n_heads: 4,
                n_layers: 4,
                d_ff: 512,
                max_seq: 96,
            },
            bits: 3,
            dkm_iters: 4,
            n_requests: 8,
            gen_tokens: 48,
            trace_requests: 24,
            frontier_steps: 300,
        }
    }

    fn smoke() -> Self {
        Workload {
            config: LlamaConfig {
                vocab: 64,
                d_model: 32,
                n_heads: 2,
                n_layers: 2,
                d_ff: 64,
                max_seq: 48,
            },
            bits: 3,
            dkm_iters: 2,
            n_requests: 4,
            gen_tokens: 8,
            trace_requests: 8,
            frontier_steps: 40,
        }
    }

    fn prompts(&self) -> Vec<Vec<usize>> {
        (0..self.n_requests as u64)
            .map(|id| {
                (0..4 + (id as usize % 5))
                    .map(|i| (i * 7 + id as usize) % self.config.vocab)
                    .collect()
            })
            .collect()
    }
}

fn tok_per_sec(tokens: u64, secs: f64) -> f64 {
    tokens as f64 / secs.max(1e-9)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Wall-clock latency record of one engine run.
struct Latencies {
    /// Submission → first token, per request, milliseconds.
    ttft_ms: Vec<f64>,
    /// Gap between consecutive tokens of a request, milliseconds.
    per_token_ms: Vec<f64>,
}

impl Latencies {
    fn sorted(mut self) -> Self {
        self.ttft_ms.sort_by(|a, b| a.total_cmp(b));
        self.per_token_ms.sort_by(|a, b| a.total_cmp(b));
        self
    }
}

/// One engine run over `prompts`: wall seconds, the final stats
/// snapshot, responses (sorted by id) and stream latencies.
/// Every consumer drains its stream on its own thread so token arrival
/// times are real, not serialized by the measuring loop.
fn run_engine(
    model: PalettizedModel,
    prompts: &[Vec<usize>],
    gen_tokens: usize,
    max_batch: usize,
) -> (f64, edkm_core::StatsSnapshot, Vec<ServeResponse>, Latencies) {
    let engine = ServeEngine::new(
        model,
        EngineConfig {
            max_batch,
            queue_capacity: prompts.len().max(1),
        },
    );
    let handle = engine.handle();
    let t0 = Instant::now();
    let consumers: Vec<_> = prompts
        .iter()
        .map(|prompt| {
            let (_, mut stream) = handle
                .submit(
                    edkm_core::Request::new(prompt.clone())
                        .max_new_tokens(gen_tokens)
                        .sampling(SamplingConfig::greedy()),
                )
                .expect("engine accepts the workload");
            let submitted = Instant::now();
            std::thread::spawn(move || {
                let mut ttft = None;
                let mut gaps = Vec::new();
                let mut last = submitted;
                let mut resp = None;
                while let Some(ev) = stream.next_event() {
                    match ev {
                        TokenEvent::Token { index, .. } => {
                            let now = Instant::now();
                            if index == 0 {
                                ttft = Some(now.duration_since(submitted).as_secs_f64() * 1e3);
                            } else {
                                gaps.push(now.duration_since(last).as_secs_f64() * 1e3);
                            }
                            last = now;
                        }
                        TokenEvent::Finished(r) => resp = Some(r),
                    }
                }
                (resp.expect("terminal event"), ttft, gaps)
            })
        })
        .collect();
    let mut responses = Vec::new();
    let mut lat = Latencies {
        ttft_ms: Vec::new(),
        per_token_ms: Vec::new(),
    };
    for c in consumers {
        let (resp, ttft, gaps) = c.join().expect("stream consumer");
        responses.push(resp);
        lat.ttft_ms.extend(ttft);
        lat.per_token_ms.extend(gaps);
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = handle.stats();
    engine.shutdown();
    responses.sort_by_key(|r| r.id);
    (secs, stats, responses, lat.sorted())
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Replay `trace` live through a fresh fleet, one engine per model, behind
/// the router. Returns the report and the fleet's pool-level resident KV
/// peak, read after the replay drains.
fn replay_fleet(
    models: Vec<PalettizedModel>,
    trace: &Trace,
    engine: EngineConfig,
    affinity: bool,
) -> (ReplayReport, usize) {
    let cluster = Cluster::new(
        models,
        ClusterConfig {
            engine,
            affinity,
            ..ClusterConfig::default()
        },
    );
    let report = replay_router(&cluster.handle(), trace);
    let resident_peak = cluster.resident_peak_bytes();
    cluster.shutdown();
    (report, resident_peak)
}

/// One trace kind's sweep row: deterministic step-replay metrics plus
/// wall-clock live-replay metrics over the same bounded-KV model.
struct WorkloadRow {
    kind: TraceKind,
    requests: usize,
    goodput_tok_s: f64,
    ttft_ms_p50: f64,
    ttft_ms_p99: f64,
    per_token_ms_p50: f64,
    per_token_ms_p99: f64,
    ttft_steps_p50: u64,
    ttft_steps_p99: u64,
    deadline_miss_rate: f64,
    preemption_rate: f64,
    preemptions: u64,
    expired: u64,
    backpressure_rejections: u64,
}

/// Replay every trace kind over `model` with a KV pool sized for ~3
/// max-length sequences, so long-context kinds contend for blocks and
/// exercise preemption: once on the virtual clock, once live through one
/// engine behind the router. Panics if a naturally finished request
/// generated different tokens in the two replays.
fn run_workload_sweep(model: &PalettizedModel, wl: &Workload, seed: u64) -> Vec<WorkloadRow> {
    let mut rows = Vec::new();
    for kind in TraceKind::ALL {
        let trace = Trace::generate(&TraceConfig::new(
            kind,
            seed,
            wl.trace_requests,
            wl.config.vocab,
            wl.config.max_seq,
        ));
        let block_tokens = 8;
        let per_req = trace.max_tokens_per_request().div_ceil(block_tokens);
        let bounded = model.clone().with_kv_config(KvBlockConfig {
            block_tokens,
            max_blocks: per_req * 3,
        });
        let step = replay_trace(&bounded, &trace, 8);
        let (eng, _) = replay_fleet(
            vec![bounded],
            &trace,
            EngineConfig {
                max_batch: 8,
                queue_capacity: (wl.trace_requests / 3).max(2),
            },
            true,
        );
        assert_eq!(
            step.outcomes.len(),
            eng.outcomes.len(),
            "{kind}: replays retired different request counts"
        );
        for (s, e) in step.outcomes.iter().zip(&eng.outcomes) {
            assert_eq!(s.id, e.id, "{kind}: replay outcome ids diverged");
            if !s.finish.is_aborted() && !e.finish.is_aborted() {
                assert_eq!(
                    s.tokens, e.tokens,
                    "{kind}: request {} tokens diverged between step and live replay",
                    s.id
                );
            }
        }
        rows.push(WorkloadRow {
            kind,
            requests: wl.trace_requests,
            goodput_tok_s: eng.goodput_tok_s,
            ttft_ms_p50: eng.ttft_ms_p(0.50),
            ttft_ms_p99: eng.ttft_ms_p(0.99),
            per_token_ms_p50: eng.per_token_ms_p(0.50),
            per_token_ms_p99: eng.per_token_ms_p(0.99),
            ttft_steps_p50: step.ttft_steps_p(0.50),
            ttft_steps_p99: step.ttft_steps_p(0.99),
            deadline_miss_rate: step.counters.deadline_miss_rate(),
            preemption_rate: step.counters.preemption_rate(),
            preemptions: step.counters.preemptions,
            expired: step.counters.expired,
            backpressure_rejections: eng.backpressure_rejections,
        });
    }
    rows
}

/// Metrics of the prefix-sharing section.
struct PrefixRow {
    /// Fraction of admissions that adopted cached prefix blocks.
    prefix_hit_rate: f64,
    /// Prompt tokens served from shared blocks instead of prefill.
    prefix_tokens_reused: u64,
    /// Peak live KV bytes with the prefix cache off.
    kv_peak_off: usize,
    /// Peak live KV bytes with the prefix cache on (deduplicated).
    kv_peak_on: usize,
    /// The prefix-on replay matched the plain replay token for token.
    tokens_identical: bool,
}

/// Replay the chat trace twice over an unbounded pool: plain, and with
/// the prefix cache sharing prompt blocks copy-on-write. Sharing must
/// leave every token unchanged; the row records what it bought (reused
/// prefill, deduplicated peak KV).
fn run_prefix(model: &PalettizedModel, wl: &Workload, seed: u64) -> PrefixRow {
    // Enough chat sessions that turns sharing a history overlap in
    // flight at the peak step — that concurrency is what deduplication
    // saves (the tiny smoke trace alone rarely lines it up).
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        seed,
        wl.trace_requests.max(24),
        wl.config.vocab,
        wl.config.max_seq,
    ));
    let kv = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };
    let plain = replay_trace(&model.clone().with_kv_config(kv), &trace, 8);
    let shared = replay_trace(
        &model.clone().with_kv_config(kv).with_prefix_cache(true),
        &trace,
        8,
    );
    let same = plain.outcomes.len() == shared.outcomes.len()
        && plain
            .outcomes
            .iter()
            .zip(&shared.outcomes)
            .all(|(x, y)| x.id == y.id && x.tokens == y.tokens);
    PrefixRow {
        prefix_hit_rate: shared.counters.prefix_hit_rate(),
        prefix_tokens_reused: shared.counters.prefix_tokens_reused,
        kv_peak_off: plain.counters.kv_peak_bytes,
        kv_peak_on: shared.counters.kv_peak_bytes,
        tokens_identical: same,
    }
}

/// Metrics of the multi-replica cluster section.
struct ClusterRow {
    /// Fleet goodput at 1 / 2 / 4 replicas, affinity routing on.
    replica_tok_s: [f64; 3],
    /// Fraction of dispatches that landed on their prefix replica
    /// (4 replicas, affinity on).
    affinity_hit_rate: f64,
    /// Fleet-wide peak of physical resident KV bytes (live sequences plus
    /// prefix-cache residency), 4 replicas, affinity on.
    kv_peak_affinity_on: usize,
    /// Same fleet and trace with affinity routing off: session turns
    /// scatter, every replica re-prefills and retains its own copy of the
    /// conversation, so the fleet holds strictly more resident KV.
    kv_peak_affinity_off: usize,
    /// Every cluster replay (1/2/4 replicas, affinity on and off)
    /// reproduced the virtual-clock step replay's tokens per request.
    tokens_identical: bool,
}

/// Replay the chat trace through 1-, 2- and 4-replica clusters (affinity
/// routing on) plus a 4-replica affinity-off control, next to the
/// virtual-clock step replay as the reference. Placement must never
/// change sampled output: per-request tokens are asserted bit-identical
/// across every run. The affinity-on vs -off aggregate KV peaks record
/// what session stickiness buys — co-located chat turns deduplicate their
/// history blocks inside one replica instead of prefilling them on
/// several.
fn run_cluster_sweep(model: &PalettizedModel, wl: &Workload, seed: u64) -> ClusterRow {
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        seed,
        wl.trace_requests.max(24),
        wl.config.vocab,
        wl.config.max_seq,
    ));
    let kv = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };
    let replica = || model.clone().with_kv_config(kv).with_prefix_cache(true);
    let max_batch = 8;
    let step = replay_trace(&replica(), &trace, max_batch);
    let matches_step = |rep: &ReplayReport| -> bool {
        rep.outcomes.len() == step.outcomes.len()
            && rep.outcomes.iter().zip(&step.outcomes).all(|(c, s)| {
                c.id == s.id
                    && (c.finish.is_aborted() || s.finish.is_aborted() || c.tokens == s.tokens)
            })
    };
    let run = |n: usize, affinity: bool| -> (ReplayReport, usize) {
        replay_fleet(
            (0..n).map(|_| replica()).collect(),
            &trace,
            EngineConfig {
                max_batch,
                queue_capacity: trace.requests().len(),
            },
            affinity,
        )
    };

    let mut replica_tok_s = [0.0f64; 3];
    let mut tokens_identical = true;
    let mut four_on = None;
    for (slot, &n) in [1usize, 2, 4].iter().enumerate() {
        let (rep, peak) = run(n, true);
        assert!(
            matches_step(&rep),
            "{n}-replica cluster replay diverged from the step replay"
        );
        tokens_identical &= matches_step(&rep);
        replica_tok_s[slot] = rep.goodput_tok_s;
        if n == 4 {
            four_on = Some((rep, peak));
        }
    }
    let (four_on, peak_on) = four_on.expect("4-replica run happened");
    let (four_off, peak_off) = run(4, false);
    assert!(
        matches_step(&four_off),
        "affinity-off cluster replay diverged from the step replay"
    );
    tokens_identical &= matches_step(&four_off);
    assert!(
        four_on.cluster.affinity_hit_rate() > 0.0,
        "chat trace produced no affinity hits at 4 replicas"
    );
    assert!(
        peak_on < peak_off,
        "affinity routing should dedup session KV: resident peak \
         {peak_on} B (on) vs {peak_off} B (off)"
    );
    ClusterRow {
        replica_tok_s,
        affinity_hit_rate: four_on.cluster.affinity_hit_rate(),
        kv_peak_affinity_on: peak_on,
        kv_peak_affinity_off: peak_off,
        tokens_identical,
    }
}

/// One fault profile's chaos-replay outcome.
struct ChaosRow {
    profile: FaultProfile,
    plan_fingerprint: u64,
    faults_applied: usize,
    requests_lost: u64,
    index_violations: u64,
    survivors: usize,
    shed: usize,
    survivors_bit_identical: bool,
    pools_at_baseline: bool,
    recovery_p99_steps: u64,
    corrupted_reloads: u64,
    goodput_tok_s: f64,
}

/// Replay a mixed trace through a 3-replica fleet under every seeded
/// fault profile, the supervisor driving recovery, and pin the global
/// invariants: no request lost, no token-index violation, survivors
/// bit-identical to the undisturbed run, pools back at their ledger
/// baseline. The rows land in `BENCH_serve.json` for the CI chaos gate.
fn run_chaos_sweep(model: &PalettizedModel, wl: &Workload, seed: u64) -> Vec<ChaosRow> {
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Mixed,
        seed,
        wl.trace_requests.max(16),
        wl.config.vocab,
        wl.config.max_seq,
    ));
    let kv = KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    };
    let max_batch = 4usize;
    // Fault-band horizon in virtual steps: the fleet decodes up to
    // `max_batch` tokens per engine step, so total completion budget over
    // the batch width is the order of magnitude the run actually reaches.
    let total_new: usize = trace.requests().iter().map(|r| r.max_new).sum();
    let horizon = ((total_new / max_batch) as u64).max(48);
    FaultProfile::ALL
        .iter()
        .map(|&profile| {
            let plan = FaultPlan::generate(profile, seed, 3, horizon);
            let report = replay_cluster_chaos(
                |corrupt| {
                    if corrupt {
                        Err("bit-flipped replica image fails reload verification".to_string())
                    } else {
                        Ok(model.clone().with_kv_config(kv).with_prefix_cache(true))
                    }
                },
                3,
                &trace,
                &plan,
                ChaosReplayConfig {
                    engine: EngineConfig {
                        max_batch,
                        queue_capacity: trace.requests().len().max(1),
                    },
                    ..ChaosReplayConfig::default()
                },
            );
            let violations = audit_invariants(&report);
            assert!(
                violations.is_empty(),
                "chaos profile {profile} violated global invariants: {violations:?}"
            );
            ChaosRow {
                profile,
                plan_fingerprint: report.plan_fingerprint,
                faults_applied: report.faults.len(),
                requests_lost: report.requests_lost(),
                index_violations: report.replay.index_violations,
                survivors: report.survivors,
                shed: report.replay.shed.len(),
                survivors_bit_identical: report.survivors_bit_identical,
                pools_at_baseline: report.pools_at_baseline,
                recovery_p99_steps: report.recovery_p99_steps(),
                corrupted_reloads: report.corrupted_reloads,
                goodput_tok_s: report.replay.goodput_tok_s,
            }
        })
        .collect()
}

/// One bits setting on the quality/throughput frontier.
struct FrontierRow {
    setting: &'static str,
    bits: u8,
    size_bytes: usize,
    perplexity: f32,
    accuracy: f32,
    goodput_tok_s: f64,
}

/// Pretrain a small model, export it at three palette widths, and report
/// quality (perplexity + mean multichoice accuracy, `edkm-eval`) next to
/// serving goodput (chat-trace live replay of the same palettes, one
/// engine behind the router).
/// Returns `(base_perplexity, base_accuracy, rows)`.
fn run_frontier(wl: &Workload, smoke: bool, seed: u64) -> (f32, f32, Vec<FrontierRow>) {
    let cfg = LlamaConfig {
        vocab: 64,
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        max_seq: 48,
    };
    let grammar = Grammar::default_with_seed(0);
    let corpus = Corpus::generate(&grammar, if smoke { 80 } else { 300 }, 10, 32, 1);
    let suite = TaskSuite::generate(&grammar, if smoke { 30 } else { 120 }, 2);
    let base = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 0);
    let params = base.params();
    let total = wl.frontier_steps as u64;
    let mut trainer = Trainer::new(TrainConfig {
        optim: AdamWConfig {
            lr: 3e-3,
            ..AdamWConfig::default()
        },
        schedule: LrSchedule::CosineWithWarmup {
            warmup: total / 20 + 1,
            total,
            final_frac: 0.1,
        },
        clip_norm: 1.0,
    });
    let batches: Vec<LmBatch> = corpus.batches(8).into_iter().map(LmBatch::new).collect();
    let mut step = 0usize;
    'outer: loop {
        for b in &batches {
            trainer.step(&base, b, &params, None);
            step += 1;
            if step >= wl.frontier_steps {
                break 'outer;
            }
        }
    }
    let held_out = corpus.subsample(if smoke { 9 } else { 23 });
    let base_ppl = perplexity(&base, held_out.windows());
    let base_accs = evaluate_suite(&base, &suite);
    let base_acc = base_accs.iter().map(|&(_, a)| a).sum::<f32>() / base_accs.len() as f32;

    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        seed,
        if smoke { 6 } else { 12 },
        cfg.vocab,
        cfg.max_seq,
    ));
    let settings: [(&'static str, CompressSpec); 3] = [
        ("lossless", CompressSpec::lossless()),
        ("4bit", {
            let mut s = CompressSpec::with_bits(4);
            s.dkm.iters = wl.dkm_iters;
            s
        }),
        ("3bit", {
            let mut s = CompressSpec::with_bits(3);
            s.dkm.iters = wl.dkm_iters;
            s
        }),
    ];
    let mut rows = Vec::new();
    for (setting, spec) in settings {
        let compressed = CompressionPipeline::new(spec.clone()).export(&base);
        let shipped = LlamaModel::new(cfg, base.dtype(), base.device(), 999);
        shipped.copy_weights_from(&base);
        compressed.apply_to(&shipped);
        let ppl = perplexity(&shipped, held_out.windows());
        let accs = evaluate_suite(&shipped, &suite);
        let acc = accs.iter().map(|&(_, a)| a).sum::<f32>() / accs.len() as f32;
        let servable = PalettizedModel::from_dense(&base, &spec).expect("servable export");
        let (live, _) = replay_fleet(
            vec![servable],
            &trace,
            EngineConfig {
                max_batch: 8,
                queue_capacity: trace.requests().len(),
            },
            true,
        );
        rows.push(FrontierRow {
            setting,
            bits: spec.bits,
            size_bytes: compressed.size_bytes(),
            perplexity: ppl,
            accuracy: acc,
            goodput_tok_s: live.goodput_tok_s,
        });
    }
    (base_ppl, base_acc, rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce_slo = args.iter().any(|a| a == "--slo");
    let max_deadline_miss: f64 = parse_or(&args, "--max-deadline-miss", 0.35);
    let max_ttft_p99_steps: u64 = parse_or(&args, "--max-ttft-p99-steps", 96);
    let workload_seed: u64 = parse_or(&args, "--seed", 7);
    let wl = if smoke {
        Workload::smoke()
    } else {
        Workload::full()
    };
    runtime::reset();
    let threads = rayon::current_num_threads();
    println!("== palettized serving: sequential vs streaming engine ==");
    println!(
        "d_model {} x {} layers, {}-bit palettes, {} requests x {} tokens, {} threads{}\n",
        wl.config.d_model,
        wl.config.n_layers,
        wl.bits,
        wl.n_requests,
        wl.gen_tokens,
        threads,
        if smoke { " (smoke)" } else { "" }
    );

    let dense = LlamaModel::new(wl.config, DType::Bf16, Device::Cpu, 0);
    let mut spec = CompressSpec::with_bits(wl.bits);
    spec.dkm.iters = wl.dkm_iters;
    let t0 = Instant::now();
    let model = PalettizedModel::from_dense(&dense, &spec).expect("servable export");
    println!(
        "palettized {} -> {} bytes ({:.1}x) in {:.1}s",
        dense.native_size_bytes(),
        model.size_bytes(),
        dense.native_size_bytes() as f64 / model.size_bytes() as f64,
        t0.elapsed().as_secs_f64()
    );

    let prompts = wl.prompts();
    let total_tokens = (wl.n_requests * wl.gen_tokens) as u64;

    // Sequential baseline: one request at a time, Generator-driven.
    let gen = Generator::new(&model);
    let t0 = Instant::now();
    let sequential: Vec<Vec<usize>> = prompts
        .iter()
        .map(|p| gen.generate(p, wl.gen_tokens, &SamplingConfig::greedy()))
        .collect();
    let sequential_s = t0.elapsed().as_secs_f64();

    // The streaming engine at increasing batch caps.
    let mut batched = Vec::new();
    let mut batch8_lat = None;
    let mut batch8_scratch = (0u64, 0u64);
    for &max_batch in &[1usize, 4, 8] {
        let (secs, stats, out, lat) = run_engine(model.clone(), &prompts, wl.gen_tokens, max_batch);
        // Throughput must never change results: greedy tokens are identical
        // to the sequential run at every batch size.
        for (resp, want) in out.iter().zip(&sequential) {
            assert_eq!(
                &resp.tokens, want,
                "batch {max_batch}: request {} diverged from sequential",
                resp.id
            );
        }
        batched.push((max_batch, secs, stats.decode_steps));
        if max_batch == 8 {
            batch8_lat = Some(lat);
            batch8_scratch = (stats.scratch_checkouts, stats.scratch_grows);
        }
    }
    let batch8_lat = batch8_lat.expect("batch 8 ran");

    // Paged vs monolithic KV (batch 8): small blocks vs one max_seq-sized
    // block per sequence (the monolithic worst case the pool replaces).
    let paged_model = model.clone().with_kv_config(KvBlockConfig {
        block_tokens: 4,
        max_blocks: 0,
    });
    let (_, paged_stats, paged_out, _) = run_engine(paged_model, &prompts, wl.gen_tokens, 8);
    let mono_model = model.clone().with_kv_config(KvBlockConfig {
        block_tokens: wl.config.max_seq,
        max_blocks: 0,
    });
    let (_, mono_stats, mono_out, _) = run_engine(mono_model, &prompts, wl.gen_tokens, 8);
    for (a, b) in paged_out.iter().zip(&mono_out) {
        assert_eq!(a.tokens, b.tokens, "paging granularity changed tokens");
    }
    let (paged_peak, mono_peak) = (paged_stats.kv_peak_bytes, mono_stats.kv_peak_bytes);
    let kv_saving = mono_peak as f64 / paged_peak.max(1) as f64;

    // Heterogeneous workload sweep + quality/throughput frontier.
    println!("\nreplaying workload traces (seed {workload_seed})...");
    let workload_rows = run_workload_sweep(&model, &wl, workload_seed);
    println!("replaying chat trace with prefix sharing...");
    let ps = run_prefix(&model, &wl, workload_seed);
    println!("replaying chat trace through 1/2/4-replica clusters...");
    let cl = run_cluster_sweep(&model, &wl, workload_seed);
    println!("replaying mixed trace under seeded fault profiles (3 replicas)...");
    let chaos_rows = run_chaos_sweep(&model, &wl, workload_seed);
    println!(
        "building quality/throughput frontier ({} pretrain steps)...",
        wl.frontier_steps
    );
    let (base_ppl, base_acc, frontier_rows) = run_frontier(&wl, smoke, workload_seed);

    let seq_tps = tok_per_sec(total_tokens, sequential_s);
    println!("\n  {:<24} {:>10} {:>12}", "mode", "tok/s", "steps");
    println!(
        "  {:<24} {:>10.1} {:>12}",
        "sequential",
        seq_tps,
        wl.n_requests * wl.gen_tokens
    );
    for &(mb, secs, steps) in &batched {
        println!(
            "  {:<24} {:>10.1} {:>12}",
            format!("engine batch {mb}"),
            tok_per_sec(total_tokens, secs),
            steps
        );
    }
    let batch8_tps = tok_per_sec(total_tokens, batched[2].1);
    let speedup = batch8_tps / seq_tps;
    println!("  batch-8 speedup          {speedup:>10.2}x");

    let ttft_p50 = percentile(&batch8_lat.ttft_ms, 0.50);
    let ttft_p95 = percentile(&batch8_lat.ttft_ms, 0.95);
    let tok_p50 = percentile(&batch8_lat.per_token_ms, 0.50);
    let tok_p95 = percentile(&batch8_lat.per_token_ms, 0.95);
    println!(
        "\n  stream latency (batch 8): TTFT p50 {ttft_p50:.2} ms / p95 {ttft_p95:.2} ms, \
         per-token p50 {tok_p50:.3} ms / p95 {tok_p95:.3} ms"
    );

    println!(
        "\n  peak KV: paged (4-token blocks) {} B vs monolithic {} B = {:.2}x saved",
        paged_peak, mono_peak, kv_saving
    );
    println!(
        "  forward scratch (batch 8): {} checkouts, {} allocations ({:.2}% cold)",
        batch8_scratch.0,
        batch8_scratch.1,
        100.0 * batch8_scratch.1 as f64 / (batch8_scratch.0.max(1)) as f64
    );

    println!(
        "\n  {:<12} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "trace", "goodput", "ttft p50", "ttft p99", "p50 st", "p99 st", "miss", "preempt"
    );
    for r in &workload_rows {
        println!(
            "  {:<12} {:>10.1} {:>10.2} {:>10.2} {:>8} {:>8} {:>8.3} {:>8.3}",
            r.kind.name(),
            r.goodput_tok_s,
            r.ttft_ms_p50,
            r.ttft_ms_p99,
            r.ttft_steps_p50,
            r.ttft_steps_p99,
            r.deadline_miss_rate,
            r.preemption_rate
        );
    }

    println!(
        "\n  prefix cache (chat trace): hit rate {:.3}, {} prompt tokens reused, \
         peak KV {} -> {} bytes, tokens {}",
        ps.prefix_hit_rate,
        ps.prefix_tokens_reused,
        ps.kv_peak_off,
        ps.kv_peak_on,
        if ps.tokens_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    println!(
        "\n  cluster (chat trace, affinity on): {:.1} / {:.1} / {:.1} tok/s at 1/2/4 replicas",
        cl.replica_tok_s[0], cl.replica_tok_s[1], cl.replica_tok_s[2]
    );
    println!(
        "  affinity hit rate {:.3}, resident KV peak {} B (on) vs {} B (off), tokens {}",
        cl.affinity_hit_rate,
        cl.kv_peak_affinity_on,
        cl.kv_peak_affinity_off,
        if cl.tokens_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    println!(
        "\n  {:<16} {:>6} {:>5} {:>5} {:>6} {:>8} {:>10}",
        "chaos profile", "faults", "lost", "shed", "viols", "rec p99", "goodput"
    );
    for r in &chaos_rows {
        println!(
            "  {:<16} {:>6} {:>5} {:>5} {:>6} {:>8} {:>10.1}  tokens {}",
            format!("{}", r.profile),
            r.faults_applied,
            r.requests_lost,
            r.shed,
            r.index_violations,
            r.recovery_p99_steps,
            r.goodput_tok_s,
            if r.survivors_bit_identical {
                "identical"
            } else {
                "DIVERGED"
            }
        );
    }

    println!(
        "\n  {:<12} {:>5} {:>12} {:>10} {:>9} {:>10}",
        "setting", "bits", "size B", "ppl", "acc %", "goodput"
    );
    println!(
        "  {:<12} {:>5} {:>12} {:>10.3} {:>9.2} {:>10}",
        "base", 16, "-", base_ppl, base_acc, "-"
    );
    for r in &frontier_rows {
        println!(
            "  {:<12} {:>5} {:>12} {:>10.3} {:>9.2} {:>10.1}",
            r.setting, r.bits, r.size_bytes, r.perplexity, r.accuracy, r.goodput_tok_s
        );
    }

    let worst_miss = workload_rows
        .iter()
        .map(|r| r.deadline_miss_rate)
        .fold(0.0f64, f64::max);
    let worst_ttft_steps = workload_rows
        .iter()
        .map(|r| r.ttft_steps_p99)
        .max()
        .unwrap_or(0);
    // CompressSpec::lossless() round-trips every weight bit-exactly, so the
    // compressed serving path must score exactly what the base model does.
    let lossless = &frontier_rows[0];
    let lossless_acc_ok =
        lossless.accuracy >= base_acc - 1e-4 && lossless.perplexity <= base_ppl + 1e-3;
    let slo_ok = worst_miss <= max_deadline_miss
        && worst_ttft_steps <= max_ttft_p99_steps
        && lossless_acc_ok;
    println!(
        "\n  SLO: deadline-miss max {worst_miss:.3} (ceiling {max_deadline_miss}), \
         TTFT p99 max {worst_ttft_steps} steps (ceiling {max_ttft_p99_steps}), \
         lossless quality {} -> {}",
        if lossless_acc_ok {
            "intact"
        } else {
            "DEGRADED"
        },
        if slo_ok { "ok" } else { "VIOLATED" }
    );

    let workload_json: String = workload_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"trace\": \"{}\", \"requests\": {}, \"goodput_tok_s\": {:.1}, \
                 \"ttft_ms_p50\": {:.3}, \"ttft_ms_p99\": {:.3}, \
                 \"per_token_ms_p50\": {:.4}, \"per_token_ms_p99\": {:.4}, \
                 \"ttft_steps_p50\": {}, \"ttft_steps_p99\": {}, \
                 \"deadline_miss_rate\": {:.4}, \"preemption_rate\": {:.4}, \
                 \"preemptions\": {}, \"expired\": {}, \"backpressure_rejections\": {}}}",
                r.kind.name(),
                r.requests,
                r.goodput_tok_s,
                r.ttft_ms_p50,
                r.ttft_ms_p99,
                r.per_token_ms_p50,
                r.per_token_ms_p99,
                r.ttft_steps_p50,
                r.ttft_steps_p99,
                r.deadline_miss_rate,
                r.preemption_rate,
                r.preemptions,
                r.expired,
                r.backpressure_rejections
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let frontier_json: String = frontier_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"setting\": \"{}\", \"bits\": {}, \"size_bytes\": {}, \
                 \"perplexity\": {:.4}, \"accuracy\": {:.2}, \"goodput_tok_s\": {:.1}}}",
                r.setting, r.bits, r.size_bytes, r.perplexity, r.accuracy, r.goodput_tok_s
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let chaos_json: String = chaos_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"profile\": \"{}\", \"plan_fingerprint\": \"{:016x}\", \
                 \"faults_applied\": {}, \"requests_lost\": {}, \
                 \"index_violations\": {}, \"survivors\": {}, \"shed\": {}, \
                 \"survivors_bit_identical\": {}, \"pools_at_baseline\": {}, \
                 \"recovery_p99_steps\": {}, \"corrupted_reloads\": {}, \
                 \"goodput_tok_s\": {:.1}}}",
                r.profile,
                r.plan_fingerprint,
                r.faults_applied,
                r.requests_lost,
                r.index_violations,
                r.survivors,
                r.shed,
                r.survivors_bit_identical,
                r.pools_at_baseline,
                r.recovery_p99_steps,
                r.corrupted_reloads,
                r.goodput_tok_s
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let chaos_tokens_identical = chaos_rows.iter().all(|r| r.survivors_bit_identical);
    let chaos_requests_lost: u64 = chaos_rows.iter().map(|r| r.requests_lost).sum();
    let chaos_recovery_p99_steps = chaos_rows
        .iter()
        .map(|r| r.recovery_p99_steps)
        .max()
        .unwrap_or(0);
    let chaos_goodput_min = chaos_rows
        .iter()
        .map(|r| r.goodput_tok_s)
        .fold(f64::INFINITY, f64::min);

    let (kernel_backend, kernel_lanes) = edkm_core::infer::launch::active();
    let cpu_features = edkm_core::infer::launch::cpu_features();
    let record = format!(
        "{{\n  \"bench\": \"palettized_serve\",\n  \"smoke\": {smoke},\n  \
         \"kernel_backend\": \"{kernel_backend}\",\n  \
         \"kernel_lanes\": {kernel_lanes},\n  \
         \"cpu_features\": \"{cpu_features}\",\n  \
         \"d_model\": {},\n  \"n_layers\": {},\n  \"bits\": {},\n  \
         \"requests\": {},\n  \"gen_tokens\": {},\n  \"threads\": {threads},\n  \
         \"sequential_tok_s\": {:.1},\n  \"batch1_tok_s\": {:.1},\n  \
         \"batch4_tok_s\": {:.1},\n  \"batch8_tok_s\": {:.1},\n  \
         \"batch8_speedup\": {:.3},\n  \
         \"ttft_p50_ms\": {ttft_p50:.3},\n  \"ttft_p95_ms\": {ttft_p95:.3},\n  \
         \"per_token_p50_ms\": {tok_p50:.4},\n  \"per_token_p95_ms\": {tok_p95:.4},\n  \
         \"kv_paged_peak_bytes\": {paged_peak},\n  \
         \"kv_monolithic_peak_bytes\": {mono_peak},\n  \
         \"kv_paged_saving\": {kv_saving:.3},\n  \
         \"scratch_checkouts\": {},\n  \"scratch_grows\": {},\n  \
         \"workload_seed\": {workload_seed},\n  \
         \"workload\": [\n{workload_json}\n  ],\n  \
         \"base_perplexity\": {base_ppl:.4},\n  \"base_accuracy\": {base_acc:.2},\n  \
         \"frontier\": [\n{frontier_json}\n  ],\n  \
         \"workload_deadline_miss_max\": {worst_miss:.4},\n  \
         \"workload_ttft_p99_steps_max\": {worst_ttft_steps},\n  \
         \"max_deadline_miss\": {max_deadline_miss},\n  \
         \"max_ttft_p99_steps\": {max_ttft_p99_steps},\n  \
         \"prefix_hit_rate\": {:.4},\n  \
         \"prefix_tokens_reused\": {},\n  \
         \"kv_prefix_off_peak_bytes\": {},\n  \
         \"kv_prefix_on_peak_bytes\": {},\n  \
         \"replicas_1_tok_s\": {:.1},\n  \
         \"replicas_2_tok_s\": {:.1},\n  \
         \"replicas_4_tok_s\": {:.1},\n  \
         \"affinity_hit_rate\": {:.4},\n  \
         \"cluster_kv_peak_affinity_on\": {},\n  \
         \"cluster_kv_peak_affinity_off\": {},\n  \
         \"cluster_tokens_identical\": {},\n  \
         \"chaos\": [\n{chaos_json}\n  ],\n  \
         \"chaos_tokens_identical\": {chaos_tokens_identical},\n  \
         \"chaos_requests_lost\": {chaos_requests_lost},\n  \
         \"chaos_recovery_p99_steps\": {chaos_recovery_p99_steps},\n  \
         \"chaos_goodput_min_tok_s\": {chaos_goodput_min:.1},\n  \
         \"lossless_acc_ok\": {lossless_acc_ok},\n  \
         \"slo_ok\": {slo_ok},\n  \
         \"tokens_identical\": {}\n}}\n",
        wl.config.d_model,
        wl.config.n_layers,
        wl.bits,
        wl.n_requests,
        wl.gen_tokens,
        seq_tps,
        tok_per_sec(total_tokens, batched[0].1),
        tok_per_sec(total_tokens, batched[1].1),
        batch8_tps,
        speedup,
        batch8_scratch.0,
        batch8_scratch.1,
        ps.prefix_hit_rate,
        ps.prefix_tokens_reused,
        ps.kv_peak_off,
        ps.kv_peak_on,
        cl.replica_tok_s[0],
        cl.replica_tok_s[1],
        cl.replica_tok_s[2],
        cl.affinity_hit_rate,
        cl.kv_peak_affinity_on,
        cl.kv_peak_affinity_off,
        cl.tokens_identical,
        ps.tokens_identical,
    );
    std::fs::write("BENCH_serve.json", &record).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");
    if enforce_slo && !slo_ok {
        eprintln!(
            "SLO violation: deadline-miss max {worst_miss:.3} (ceiling {max_deadline_miss}), \
             TTFT p99 max {worst_ttft_steps} steps (ceiling {max_ttft_p99_steps}), \
             lossless_acc_ok {lossless_acc_ok}"
        );
        std::process::exit(1);
    }
}
