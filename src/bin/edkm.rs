//! `edkm` — command-line front end for the eDKM reproduction.
//!
//! Subcommands drive the library end to end on the synthetic substrate:
//!
//! ```text
//! edkm compress [--bits N] [--dim D] [--epochs E] [--learners L] [--group-rows G]
//! edkm sweep    [--bits 2,3,4] [--dim D]
//! edkm inspect  [--bits N] [--dim D] [--group-rows G]
//! edkm ablate   [--d-model N] [--learners L]
//! edkm table1
//! edkm help
//! ```
//!
//! `edkm help` lists `serve` and `bench workload` too. A flag the
//! subcommand does not list, or a missing or unparsable flag value,
//! prints the usage text and exits 2.
//!
//! The heavyweight paper tables have dedicated binaries in `edkm-bench`
//! (`cargo run --release -p edkm-bench --bin table3`); this CLI is the
//! quick interactive path a downstream user reaches for first.

use edkm::autograd::SavedTensorHooks;
use edkm::chaos::{FaultPlan, FaultProfile};
use edkm::cluster::{Cluster, ClusterConfig};
use edkm::core::{render_table2, run_table2, AblationSetup};
use edkm::core::{CompressSpec, CompressedTensor, CompressionPipeline, EdkmConfig, EdkmHooks};
use edkm::core::{
    EngineConfig, KvBlockConfig, PalettizedModel, Priority, Request, SamplingConfig, ServeEngine,
};
use edkm::data::{AlpacaSet, Corpus, Grammar};
use edkm::eval::perplexity;
use edkm::nn::{AdamWConfig, LlamaConfig, LlamaModel, LmBatch, TrainConfig, Trainer};
use edkm::tensor::{runtime, DType, Device, Tensor};
use edkm::workload::{
    audit_invariants, replay_cluster_chaos, replay_engine, replay_trace, ChaosReplayConfig,
    EngineReplayConfig, Trace, TraceConfig, TraceKind,
};
use std::process::ExitCode;

/// Print `msg` and the usage text, then exit 2: the command line is
/// malformed.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n");
    usage();
    std::process::exit(2);
}

/// Exit 2, naming the flag and printing the usage text, on any `--flag` in
/// `args` that the subcommand does not list: `valued` flags take a value
/// (`--name v` or `--name=v`), `switches` take none.
fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) {
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            continue;
        }
        let (name, has_value) = a
            .split_once('=')
            .map_or((a.as_str(), false), |(n, _)| (n, true));
        if valued.contains(&name) {
            if !has_value {
                rest.next(); // the value; `flag_value` reports a missing one
            }
        } else if switches.contains(&name) {
            if has_value {
                usage_error(&format!("{name} takes no value"));
            }
        } else {
            usage_error(&format!("unknown flag {name}"));
        }
    }
}

/// Value of `--name v` or `--name=v` in `args`, if the flag is present. A
/// present flag with no value after it is a usage error.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    for (i, a) in args.iter().enumerate() {
        if a == name {
            let Some(v) = args.get(i + 1) else {
                usage_error(&format!("{name} needs a value"));
            };
            return Some(v.clone());
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    None
}

/// `text` parsed as `T`; an unparsable value of flag `name` is a usage
/// error.
fn parse_value<T: std::str::FromStr>(name: &str, text: &str) -> T {
    text.trim()
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{name}: cannot parse {text:?}")))
}

/// `--name`'s value, or `default` when the flag is absent.
fn parse_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_value(args, name).map_or(default, |v| parse_value(name, &v))
}

/// `text` as a palette bit width; a width outside `1..=8` is a usage
/// error naming `--bits`.
fn parse_bits(text: &str) -> u8 {
    let bits: u8 = parse_value("--bits", text);
    if !(1..=8).contains(&bits) {
        usage_error(&format!("--bits {bits} is outside 1..=8"));
    }
    bits
}

/// `--bits N`, or 3 when the flag is absent.
fn bits_flag(args: &[String]) -> u8 {
    flag_value(args, "--bits").map_or(3, |v| parse_bits(&v))
}

fn usage() {
    eprintln!(
        "usage: edkm <command> [flags]

commands:
  compress   pretrain a small model, fine-tune-and-compress with eDKM,
             report size and perplexity
             flags: --bits N (3)  --dim D (1)  --epochs E (1)  --learners L (8)
                    --group-rows G (0 = one LUT)
  sweep      compress at several bit widths and compare
             flags: --bits 2,3,4  --dim D (1)
  inspect    per-parameter compression report (packed vs entropy-coded)
             flags: --bits N (3)  --dim D (1)  --group-rows G (0 = one LUT)
  ablate     the Table 2 M/U/S ablation at CLI scale
             flags: --d-model N (256)  --learners L (8)
  serve      compress a small pretrained model and serve sampled requests
             through the streaming engine (handle-based token streams over
             the continuous-batching scheduler, paged KV cache)
             flags: --bits N (3)  --batch B (4)  --requests R (6)
                    --new T (16)  --temp F (0.8, 0 = greedy)
                    --kv-block-tokens T (16)
                    --kv-blocks B (0 = unbounded pool)
                    --prefix-cache (share cached prompt-prefix KV blocks
                    copy-on-write across requests)
                    --replicas R (1; R > 1 serves a fleet of R engine
                    replicas behind the load-aware edkm-cluster router —
                    per-request tokens identical to a single engine)
                    --affinity (with --replicas: route follow-up prompts
                    to the replica already holding their prefix KV)
                    --chaos-seed S (off; replay a seeded trace through the
                    fleet while a deterministic fault plan kills, stalls,
                    and KV-squeezes replicas — the supervisor respawns,
                    breaks circuits, and rides the degrade ladder; exits
                    non-zero if any global invariant is violated)
                    --chaos-profile replica-churn|slow-brownout|kv-pressure
                    (replica-churn; which fault mix the plan draws)
  bench workload
             generate a seeded request trace and replay it twice: once
             deterministically against the scheduler (step metrics), once
             through the live engine (wall-clock metrics)
             flags: --trace bursty|chat|summarize|classify|mixed (mixed)
                    --seed N (0)  --requests R (12)  --batch B (4)
  table1     the Table 1 cross-device copy scenario
  help       this text

full paper tables: cargo run --release -p edkm-bench --bin table{{1,2,3}}"
    );
}

/// A small pretrained model plus its data, shared by the subcommands.
struct Workbench {
    model: LlamaModel,
    corpus: Corpus,
    alpaca: AlpacaSet,
}

impl Workbench {
    fn build(steps: usize) -> Self {
        let cfg = LlamaConfig {
            vocab: 64,
            d_model: 64,
            n_heads: 4,
            n_layers: 2,
            d_ff: 128,
            max_seq: 33,
        };
        let grammar = Grammar::default_with_seed(0);
        let corpus = Corpus::generate(&grammar, 200, 10, 32, 1);
        let alpaca = AlpacaSet::generate(&grammar, 128, 12, 2);
        let model = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 0);
        let params = model.params();
        let mut trainer = Trainer::new(TrainConfig {
            optim: AdamWConfig {
                lr: 3e-3,
                ..AdamWConfig::default()
            },
            ..TrainConfig::default()
        });
        let batches: Vec<LmBatch> = corpus.batches(8).into_iter().map(LmBatch::new).collect();
        for step in 0..steps {
            trainer.step(&model, &batches[step % batches.len()], &params, None);
        }
        Workbench {
            model,
            corpus,
            alpaca,
        }
    }

    fn fresh_copy(&self) -> LlamaModel {
        let m = LlamaModel::new(
            *self.model.config(),
            self.model.dtype(),
            self.model.device(),
            1,
        );
        m.copy_weights_from(&self.model);
        m
    }

    fn mixed_batches(&self, n: usize) -> Vec<LmBatch> {
        let corpus_b = self.corpus.batches(4);
        let alpaca_b = self.alpaca.batches(4);
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    LmBatch::new(corpus_b[i % corpus_b.len()].clone())
                } else {
                    LmBatch::new(alpaca_b[i % alpaca_b.len()].clone())
                }
            })
            .collect()
    }
}

fn spec_from_flags(args: &[String]) -> CompressSpec {
    let bits = bits_flag(args);
    let dim: usize = parse_or(args, "--dim", 1);
    let mut spec = if dim > 1 {
        CompressSpec::vector(bits, dim)
    } else {
        CompressSpec::with_bits(bits)
    };
    spec.epochs = parse_or(args, "--epochs", 1);
    spec.edkm = EdkmConfig::full(parse_or(args, "--learners", 8));
    spec.lut_group_rows = parse_or(args, "--group-rows", 0);
    spec.dkm.iters = 4;
    spec.train.optim.lr = 3e-4;
    spec
}

fn cmd_compress(args: &[String]) {
    check_flags(
        args,
        &["--bits", "--dim", "--epochs", "--learners", "--group-rows"],
        &[],
    );
    let spec = spec_from_flags(args);
    println!(
        "compressing at {} bits (cluster_dim {}, {:.2} bits/weight), {} epoch(s), {} learners",
        spec.bits,
        spec.dkm.cluster_dim,
        spec.dkm.effective_bits_per_weight(),
        spec.epochs,
        spec.edkm.learners
    );
    let wb = Workbench::build(120);
    let held_out = wb.corpus.subsample(23);
    let base_ppl = perplexity(&wb.model, held_out.windows());
    println!(
        "base model: ppl {:.2}, {} bytes (bf16)",
        base_ppl,
        wb.model.native_size_bytes()
    );

    let target = wb.fresh_copy();
    let result =
        CompressionPipeline::new(spec).fine_tune_and_compress(&target, &wb.mixed_batches(40));
    let shipped = wb.fresh_copy();
    result.compressed.apply_to(&shipped);
    let ppl = perplexity(&shipped, held_out.windows());
    println!(
        "compressed: ppl {:.2}, {} bytes packed, {} bytes entropy-coded",
        ppl,
        result.compressed.size_bytes(),
        result.compressed.entropy_size_bytes()
    );
    if let Some(stats) = result.final_step_stats {
        println!(
            "final step hooks: {} packs, {:.0}% deduped, {} bytes offloaded",
            stats.packs,
            stats.dedup_rate() * 100.0,
            stats.offloaded_bytes
        );
    }
}

fn cmd_sweep(args: &[String]) {
    check_flags(args, &["--bits", "--dim"], &[]);
    let bits_list: Vec<u8> = flag_value(args, "--bits")
        .unwrap_or_else(|| "2,3,4".into())
        .split(',')
        .map(parse_bits)
        .collect();
    let dim: usize = parse_or(args, "--dim", 1);
    let wb = Workbench::build(120);
    let held_out = wb.corpus.subsample(23);
    let base_ppl = perplexity(&wb.model, held_out.windows());
    println!(
        "{:<10} {:>12} {:>14} {:>10}",
        "config", "bits/weight", "size (bytes)", "ppl"
    );
    println!(
        "{:<10} {:>12} {:>14} {:>10.2}",
        "bf16",
        16,
        wb.model.native_size_bytes(),
        base_ppl
    );
    for &bits in &bits_list {
        let mut spec = if dim > 1 {
            CompressSpec::vector(bits, dim)
        } else {
            CompressSpec::with_bits(bits)
        };
        spec.epochs = 1;
        spec.edkm = EdkmConfig::full(8);
        spec.dkm.iters = 4;
        spec.train.optim.lr = 3e-4;
        let target = wb.fresh_copy();
        let result = CompressionPipeline::new(spec.clone())
            .fine_tune_and_compress(&target, &wb.mixed_batches(30));
        let shipped = wb.fresh_copy();
        result.compressed.apply_to(&shipped);
        let ppl = perplexity(&shipped, held_out.windows());
        println!(
            "{:<10} {:>12.2} {:>14} {:>10.2}",
            format!("eDKM-{bits}b/d{dim}"),
            spec.dkm.effective_bits_per_weight(),
            result.compressed.size_bytes(),
            ppl
        );
    }
}

fn cmd_inspect(args: &[String]) {
    check_flags(args, &["--bits", "--dim", "--group-rows"], &[]);
    let spec = spec_from_flags(args);
    let wb = Workbench::build(60);
    let compressed = CompressionPipeline::new(spec).export(&wb.model);
    println!(
        "{:<28} {:<12} {:>10} {:>12}",
        "parameter", "kind", "packed B", "entropy B"
    );
    for (name, entry) in compressed.entries() {
        let (kind, packed, entropy) = match entry {
            CompressedTensor::Palettized(p) => (
                format!("palette {}b/d{}", p.bits(), p.cluster_dim()),
                p.size_bytes(),
                p.entropy_size_bytes(),
            ),
            CompressedTensor::PalettizedGrouped(g) => (
                format!("palette {}b x{}", g.bits(), g.groups().len()),
                g.size_bytes(),
                g.entropy_size_bytes(),
            ),
            CompressedTensor::Affine(a) => (
                "affine".to_string() + &format!(" {}b", a.bits()),
                a.size_bytes(),
                a.size_bytes(),
            ),
            CompressedTensor::Native { values, .. } => (
                "native 16b".to_string(),
                edkm::core::palettize::native16_size_bytes(values.len()),
                edkm::core::palettize::native16_size_bytes(values.len()),
            ),
        };
        println!("{name:<28} {kind:<12} {packed:>10} {entropy:>12}");
    }
    println!(
        "\ntotal: {} bytes packed, {} bytes entropy-coded ({} bytes bf16)",
        compressed.size_bytes(),
        compressed.entropy_size_bytes(),
        wb.model.native_size_bytes()
    );
}

fn cmd_ablate(args: &[String]) {
    check_flags(args, &["--d-model", "--learners"], &[]);
    let setup = AblationSetup {
        d_model: parse_or(args, "--d-model", 256),
        ..AblationSetup::default()
    };
    // 8 heads of an even (RoPE) head dimension.
    if setup.d_model == 0 || !setup.d_model.is_multiple_of(16) {
        usage_error("--d-model must be a positive multiple of 16");
    }
    let learners: usize = parse_or(args, "--learners", 8);
    println!(
        "M/U/S ablation: one attention layer, d_model={}, 3-bit DKM, {} learners\n",
        setup.d_model, learners
    );
    let rows = run_table2(&setup, learners);
    print!("{}", render_table2(&rows));
}

/// Drive handle-based serving of `model`: the engine owns the scheduler
/// loop on its worker thread, the CLI consumes each request's token stream
/// and prints the responses plus throughput/KV/TTFT stats.
fn serve_with_model(
    model: PalettizedModel,
    max_batch: usize,
    n_requests: usize,
    n_new: usize,
    temperature: f32,
) {
    // Leave room for at least one prompt token (CLI convention: clamp bad
    // flag values instead of crashing).
    let max_seq = model.config().max_seq;
    if n_new >= max_seq {
        eprintln!(
            "--new {n_new} exceeds max_seq {max_seq}; clamping to {}",
            max_seq - 1
        );
    }
    let n_new = n_new.min(max_seq - 1);
    let max_prompt = max_seq - n_new;
    let vocab = model.config().vocab;
    let (block_tokens, block_bytes) = {
        let pool = model.kv_pool();
        (pool.block_tokens(), pool.block_bytes())
    };

    let config = EngineConfig {
        max_batch,
        queue_capacity: n_requests.max(1),
    };
    let engine = ServeEngine::new(model, config);
    let handle = engine.handle();
    let t0 = std::time::Instant::now();
    let sim0 = runtime::sim_seconds();
    let mut streams = Vec::new();
    for id in 0..n_requests as u64 {
        // Every 4th request jumps the FIFO queue — tokens are identical
        // either way (batch-independent sampling), only admission order
        // moves.
        let request = serve_request(id, max_prompt, vocab, n_new, temperature);
        let (rid, stream) = handle.submit(request).expect("engine accepts submissions");
        streams.push((rid, stream));
    }
    // Consume the streams; tokens buffered in each channel while we drain
    // an earlier one are not lost.
    let mut responses = Vec::new();
    for (rid, mut stream) in streams {
        let resp = stream.wait().expect("engine finishes every request");
        responses.push((rid, resp));
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = handle.stats();
    for (rid, r) in &responses {
        println!("  {rid} ({:?}): {:?}", r.finish, r.tokens);
    }
    println!(
        "\n{} tokens in {:.3}s = {:.1} tok/s over {} batched steps ({:.3} sim s)",
        stats.tokens_generated,
        secs,
        stats.tokens_generated as f64 / secs.max(1e-9),
        stats.decode_steps,
        runtime::sim_seconds() - sim0,
    );
    println!(
        "peak KV {} bytes ({}-token blocks, peak {} blocks, {} preemptions)",
        stats.kv_peak_bytes,
        block_tokens,
        stats.kv_peak_bytes / block_bytes.max(1),
        stats.preemptions
    );
    println!(
        "TTFT (steps ≤ bound): {:?} over bounds {:?} (+overflow)",
        stats.ttft_steps.counts(),
        edkm::core::engine::TTFT_BUCKET_BOUNDS
    );
    if stats.prefix_hits > 0 {
        println!(
            "prefix cache: {} hits, {} prompt tokens served from shared blocks",
            stats.prefix_hits, stats.prefix_tokens_reused
        );
    }
    engine.shutdown();
}

/// The request set both serve drivers submit: short seeded prompts with a
/// deterministic per-request sampling seed, every 4th request high
/// priority.
fn serve_request(id: u64, max_prompt: usize, vocab: usize, n_new: usize, temp: f32) -> Request {
    let plen = (2 + id as usize % 5).min(max_prompt);
    let prompt: Vec<usize> = (0..plen)
        .map(|i| (3 + i * 11 + id as usize * 7) % vocab)
        .collect();
    Request::new(prompt)
        .max_new_tokens(n_new)
        .sampling(if temp > 0.0 {
            SamplingConfig::with_top_k(temp, 8, 100 + id)
        } else {
            SamplingConfig::greedy()
        })
        .priority(if id % 4 == 3 {
            Priority::High
        } else {
            Priority::Normal
        })
}

/// Multi-replica variant of [`serve_with_model`]: the same requests
/// submitted through the prefix-affinity router of an [`edkm::cluster`]
/// fleet. Placement never changes sampled output — per-request tokens are
/// bit-identical to the single-engine path.
fn serve_with_cluster(
    models: Vec<PalettizedModel>,
    max_batch: usize,
    n_requests: usize,
    n_new: usize,
    temperature: f32,
    affinity: bool,
) {
    let max_seq = models[0].config().max_seq;
    let n_new = n_new.min(max_seq - 1);
    let max_prompt = max_seq - n_new;
    let vocab = models[0].config().vocab;
    let replicas = models.len();
    let cluster = Cluster::new(
        models,
        ClusterConfig {
            engine: EngineConfig {
                max_batch,
                queue_capacity: n_requests.max(1),
            },
            affinity,
            ..ClusterConfig::default()
        },
    );
    let router = cluster.handle();
    let t0 = std::time::Instant::now();
    let mut streams = Vec::new();
    for id in 0..n_requests as u64 {
        let request = serve_request(id, max_prompt, vocab, n_new, temperature);
        let (rid, stream) = router.submit(request).expect("router accepts submissions");
        streams.push((rid, stream));
    }
    let mut responses = Vec::new();
    for (rid, mut stream) in streams {
        let resp = stream.wait().expect("cluster finishes every request");
        responses.push((rid, resp));
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = router.stats();
    for (rid, r) in &responses {
        println!("  {rid} ({:?}): {:?}", r.finish, r.tokens);
    }
    println!(
        "\n{} tokens in {:.3}s = {:.1} tok/s over {replicas} replicas",
        stats.tokens_generated(),
        secs,
        stats.tokens_generated() as f64 / secs.max(1e-9),
    );
    println!(
        "router: {} dispatched, affinity hit rate {:.3}, {} spills, {} re-routes",
        stats.routed,
        stats.affinity_hit_rate(),
        stats.spills,
        stats.rerouted
    );
    println!(
        "resident KV peak {} bytes across the fleet",
        cluster.resident_peak_bytes()
    );
    cluster.shutdown();
}

/// Flags of the `--chaos-seed` serve path, bundled so the driver stays a
/// plain function call.
struct ChaosServe {
    replicas: usize,
    max_batch: usize,
    n_requests: usize,
    affinity: bool,
    seed: u64,
    profile: FaultProfile,
}

/// `edkm serve --chaos-seed S`: replay a seeded trace through a fleet
/// while a deterministic [`FaultPlan`] kills, stalls, KV-squeezes, and
/// corrupts replicas, with the cluster supervisor driving recovery.
/// Prints the applied faults and the invariant audit; exits non-zero if
/// any global invariant is violated.
fn serve_with_chaos(
    model: PalettizedModel,
    kv: KvBlockConfig,
    prefix_cache: bool,
    run: ChaosServe,
) {
    let cfg = model.config();
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Mixed,
        run.seed,
        run.n_requests,
        cfg.vocab,
        cfg.max_seq,
    ));
    // Virtual-step horizon for the fault band: continuous batching decodes
    // up to `max_batch` tokens per engine step, so fleet-wide decode steps
    // scale with the trace's total completion budget over the batch width.
    let total_new: usize = trace.requests().iter().map(|r| r.max_new).sum();
    let horizon = ((total_new / run.max_batch.max(1)) as u64).max(48);
    let plan = FaultPlan::generate(run.profile, run.seed, run.replicas, horizon);
    println!(
        "chaos profile {}, seed {}: {} scheduled fault(s) over a {horizon}-step horizon \
         (plan fingerprint {:016x})",
        run.profile,
        run.seed,
        plan.events().len(),
        plan.fingerprint()
    );
    for event in plan.events() {
        println!("  {event}");
    }
    let report = replay_cluster_chaos(
        |corrupt| {
            if corrupt {
                Err("bit-flipped replica image fails reload verification".to_string())
            } else {
                Ok(model
                    .clone()
                    .with_kv_config(kv)
                    .with_prefix_cache(prefix_cache))
            }
        },
        run.replicas,
        &trace,
        &plan,
        ChaosReplayConfig {
            engine: EngineReplayConfig {
                max_batch: run.max_batch,
                queue_capacity: run.n_requests.max(1),
            },
            affinity: run.affinity,
            ..ChaosReplayConfig::default()
        },
    );
    println!("\nfaults applied:");
    for fault in &report.faults {
        println!(
            "  step {:>4}: {} -> {}",
            fault.at_step, fault.event, fault.applied
        );
    }
    println!(
        "\n{} of {} request(s) survived chaos ({} shed by the degrade ladder), \
         {:.1} tok/s goodput over {:.3}s",
        report.survivors,
        run.n_requests,
        report.shed.len(),
        report.goodput_tok_s,
        report.wall_secs
    );
    if !report.recovery_steps.is_empty() || report.corrupted_reloads > 0 {
        println!(
            "recovery: {} respawn(s), p99 {} virtual steps, {} corrupted reload(s) rejected",
            report.recovery_steps.len(),
            report.recovery_p99_steps(),
            report.corrupted_reloads
        );
    }
    for event in &report.degrade_events {
        println!("degrade: {event}");
    }
    println!(
        "invariants: requests_lost={} index_violations={} survivors_bit_identical={} \
         pools_at_baseline={}",
        report.requests_lost(),
        report.index_violations,
        report.survivors_bit_identical,
        report.pools_at_baseline
    );
    let violations = audit_invariants(&report);
    if violations.is_empty() {
        println!("all chaos invariants hold");
    } else {
        for violation in &violations {
            eprintln!("invariant violated: {violation}");
        }
        std::process::exit(1);
    }
}

fn cmd_serve(args: &[String]) {
    check_flags(
        args,
        &[
            "--bits",
            "--batch",
            "--requests",
            "--new",
            "--temp",
            "--kv-block-tokens",
            "--kv-blocks",
            "--replicas",
            "--chaos-seed",
            "--chaos-profile",
        ],
        &["--prefix-cache", "--affinity"],
    );
    let bits = bits_flag(args);
    let max_batch: usize = parse_or(args, "--batch", 4);
    if max_batch == 0 {
        usage_error("--batch must be positive");
    }
    let n_requests: usize = parse_or(args, "--requests", 6);
    let n_new: usize = parse_or(args, "--new", 16);
    let temperature: f32 = parse_or(args, "--temp", 0.8);
    let replicas: usize = parse_or(args, "--replicas", 1).max(1);
    let affinity = args.iter().any(|a| a == "--affinity");
    let kv_block_tokens: usize = parse_or(args, "--kv-block-tokens", 16).max(1);
    let kv_blocks: usize = parse_or(args, "--kv-blocks", 0);
    let prefix_cache = args.iter().any(|a| a == "--prefix-cache");
    let chaos_seed: Option<u64> =
        flag_value(args, "--chaos-seed").map(|v| parse_value("--chaos-seed", &v));
    let profile_name =
        flag_value(args, "--chaos-profile").unwrap_or_else(|| "replica-churn".into());
    let Some(profile) = FaultProfile::parse(&profile_name) else {
        usage_error(&format!(
            "unknown --chaos-profile {profile_name:?} \
             (want replica-churn, slow-brownout, or kv-pressure)"
        ));
    };
    println!(
        "serving a {bits}-bit compressed model: {n_requests} requests x {n_new} tokens, \
         continuous batching at batch {max_batch}, \
         {kv_block_tokens}-token KV blocks\n"
    );
    let wb = Workbench::build(80);
    let mut spec = CompressSpec::with_bits(bits);
    spec.dkm.iters = 4;
    // Clamp a bounded pool so the largest request this command submits can
    // always run alone (CLI convention: clamp bad flag values instead of
    // crashing — the scheduler panics on a pool it can never drain).
    let max_seq = wb.model.config().max_seq;
    let n_new_eff = n_new.min(max_seq - 1);
    let plen_max = (2 + n_requests.saturating_sub(1).min(4)).min(max_seq - n_new_eff);
    let min_blocks = (plen_max + n_new_eff).div_ceil(kv_block_tokens);
    let kv_blocks = if kv_blocks != 0 && kv_blocks < min_blocks {
        eprintln!(
            "--kv-blocks {kv_blocks} cannot hold one {}-token request at \
             {kv_block_tokens} tokens/block; raising to {min_blocks}",
            plen_max + n_new_eff
        );
        min_blocks
    } else {
        kv_blocks
    };
    let kv = KvBlockConfig {
        block_tokens: kv_block_tokens,
        max_blocks: kv_blocks,
    };
    let model = match PalettizedModel::from_dense(&wb.model, &spec) {
        Ok(m) => m.with_kv_config(kv).with_prefix_cache(prefix_cache),
        Err(e) => {
            eprintln!("cannot serve this export: {e}");
            return;
        }
    };
    println!(
        "palettized {} -> {} bytes ({:.1}x)",
        wb.model.native_size_bytes(),
        model.size_bytes(),
        wb.model.native_size_bytes() as f64 / model.size_bytes() as f64
    );
    if let Some(seed) = chaos_seed {
        if replicas < 2 {
            eprintln!("note: chaos needs survivors; raising --replicas to 2");
        }
        serve_with_chaos(
            model,
            kv,
            prefix_cache,
            ChaosServe {
                replicas: replicas.max(2),
                max_batch,
                n_requests,
                affinity,
                seed,
                profile,
            },
        );
        return;
    }
    if replicas > 1 {
        println!(
            "fleet of {replicas} replicas behind the {} router",
            if affinity {
                "prefix-affinity"
            } else {
                "load-aware"
            }
        );
        // Each replica gets an independent KV pool (`with_kv_config`
        // replaces the pool a clone would otherwise share).
        let fleet: Vec<_> = (0..replicas)
            .map(|_| {
                model
                    .clone()
                    .with_kv_config(kv)
                    .with_prefix_cache(prefix_cache)
            })
            .collect();
        serve_with_cluster(fleet, max_batch, n_requests, n_new, temperature, affinity);
    } else {
        serve_with_model(model, max_batch, n_requests, n_new, temperature);
    }
}

/// `edkm bench workload`: seeded trace generation + the two replay layers
/// at CLI scale (an untrained model — replay measures the serving stack,
/// not model quality).
fn cmd_bench_workload(args: &[String]) -> ExitCode {
    check_flags(args, &["--trace", "--seed", "--requests", "--batch"], &[]);
    let kind_name = flag_value(args, "--trace").unwrap_or_else(|| "mixed".into());
    let kind =
        TraceKind::parse(&kind_name).unwrap_or_else(|e| usage_error(&format!("--trace: {e}")));
    let seed: u64 = parse_or(args, "--seed", 0);
    let requests: usize = parse_or(args, "--requests", 12).max(1);
    let max_batch: usize = parse_or(args, "--batch", 4).max(1);
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
    let model = match PalettizedModel::from_dense(&dense, &spec) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot serve this export: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = Trace::generate(&TraceConfig::new(
        kind,
        seed,
        requests,
        cfg.vocab,
        cfg.max_seq,
    ));
    println!(
        "trace {kind} (seed {seed}): {} requests, fingerprint {:016x}",
        trace.requests().len(),
        trace.fingerprint()
    );

    let step = replay_trace(&model, &trace, max_batch);
    println!(
        "\nstep replay (deterministic, batch {max_batch}):\n  \
         {} decode steps, {} tokens, TTFT p50 {} / p99 {} steps\n  \
         deadline-miss rate {:.3}, preemption rate {:.3}, peak KV {} bytes",
        step.counters.decode_steps,
        step.counters.tokens_generated,
        step.ttft_steps_p(0.50),
        step.ttft_steps_p(0.99),
        step.counters.deadline_miss_rate(),
        step.counters.preemption_rate(),
        step.counters.kv_peak_bytes
    );

    let eng = replay_engine(
        model,
        &trace,
        EngineReplayConfig {
            max_batch,
            queue_capacity: requests,
        },
    );
    println!(
        "\nengine replay (wall clock, batch {max_batch}):\n  \
         goodput {:.1} tok/s in {:.3}s, TTFT p50 {:.2} / p99 {:.2} ms\n  \
         per-token p50 {:.3} / p99 {:.3} ms, {} backpressure rejections",
        eng.goodput_tok_s,
        eng.wall_secs,
        eng.ttft_ms_p(0.50),
        eng.ttft_ms_p(0.99),
        eng.per_token_ms_p(0.50),
        eng.per_token_ms_p(0.99),
        eng.backpressure_rejections
    );
    ExitCode::SUCCESS
}

fn cmd_bench(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("workload") => cmd_bench_workload(&args[1..]),
        other => {
            if let Some(other) = other {
                eprintln!("unknown bench: {other}\n");
            }
            usage();
            ExitCode::FAILURE
        }
    }
}

fn cmd_table1() {
    println!("Table 1: GPU/CPU footprint of the cross-device copy scenario\n");
    println!("{:<42} {:>8} {:>8}", "line", "GPU(MB)", "CPU(MB)");
    runtime::reset();
    let report = |line: &str| {
        println!(
            "{:<42} {:>8.0} {:>8.0}",
            line,
            runtime::gpu_live_bytes() as f64 / (1 << 20) as f64,
            runtime::cpu_live_bytes() as f64 / (1 << 20) as f64
        );
    };
    let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 0);
    report("0: x0 = rand([1024,1024]) on gpu");
    let x1 = x0.reshape(&[1024 * 1024, 1]);
    report("1: x1 = x0.view(-1, 1)");
    let _y0 = x0.to_device(Device::Cpu);
    report("2: y0 = x0.to('cpu')");
    let _y1 = x1.to_device(Device::Cpu);
    report("3: y1 = x1.to('cpu')   <- duplicate!");

    println!("\nsame saves through eDKM marshaling hooks:");
    runtime::reset();
    let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 0);
    let x1 = x0.reshape(&[1024 * 1024, 1]);
    let hooks = EdkmHooks::new(EdkmConfig::marshal_only());
    let _p0 = hooks.pack(&x0);
    let _p1 = hooks.pack(&x1);
    println!(
        "  pack(x0); pack(x1) -> CPU {} MB ({} copy, {} reference)",
        runtime::cpu_live_bytes() / (1 << 20),
        hooks.stats().misses,
        hooks.stats().direct_hits
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compress") => cmd_compress(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("ablate") => cmd_ablate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench") => return cmd_bench(&args[1..]),
        Some("table1") => {
            check_flags(&args[1..], &[], &[]);
            cmd_table1();
        }
        Some("help") | None => {
            usage();
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            usage();
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
