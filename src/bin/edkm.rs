//! `edkm` — command-line front end for the eDKM reproduction.
//!
//! Subcommands drive the library end to end on the synthetic substrate:
//!
//! ```text
//! edkm compress [--bits N] [--dim D] [--epochs E] [--learners L] [--group-rows G]
//! edkm sweep    [--bits 2,3,4] [--dim D]
//! edkm inspect  [--bits N] [--dim D] [--group-rows G]
//! edkm help
//! ```
//!
//! `edkm help` lists `serve` and `bench workload` too. An unknown command,
//! a flag the subcommand does not list, or a missing or unparsable flag
//! value prints the usage text and exits 2.
//!
//! Each paper table and figure has one front end, its binary in
//! `edkm-bench` (`cargo run --release -p edkm-bench --bin table2`); this
//! CLI is the quick interactive path a downstream user reaches for first.

use edkm::chaos::{FaultPlan, FaultProfile};
use edkm::cluster::{Cluster, ClusterConfig};
use edkm::core::{CompressSpec, CompressedTensor, CompressionPipeline, EdkmConfig};
use edkm::core::{EngineConfig, KvBlockConfig, PalettizedModel, Priority, Request, SamplingConfig};
use edkm::data::{AlpacaSet, Corpus, Grammar};
use edkm::eval::perplexity;
use edkm::nn::{AdamWConfig, LlamaConfig, LlamaModel, LmBatch, TrainConfig, Trainer};
use edkm::tensor::{runtime, DType, Device};
use edkm::workload::{
    audit_invariants, fault_horizon, replay_cluster_chaos, replay_router, replay_trace,
    ChaosReplayConfig, Trace, TraceConfig, TraceKind,
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

/// `--name`'s value, or `default` when the flag is absent; zero is a
/// usage error.
fn parse_positive(args: &[String], name: &str, default: usize) -> usize {
    let value = parse_or(args, name, default);
    if value == 0 {
        usage_error(&format!("{name} must be positive"));
    }
    value
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
  serve      compress a small pretrained model and serve sampled requests
             through the edkm-cluster router over streaming engine replicas
             (token streams over the continuous-batching scheduler, paged
             KV cache)
             flags: --bits N (3)  --batch B (4)  --requests R (6)
                    --new T (16)  --temp F (0.8, 0 = greedy)
                    --kv-block-tokens T (16)
                    --kv-blocks B (0 = unbounded pool)
                    --prefix-cache (share cached prompt-prefix KV blocks
                    copy-on-write across requests)
                    --replicas R (1; engine replicas behind the
                    load-aware router — per-request tokens identical
                    whatever R)
                    --affinity (with --replicas: route follow-up prompts
                    to the replica already holding their prefix KV)
                    --chaos-seed S (off; replay a seeded trace through the
                    fleet while a deterministic fault plan kills, stalls,
                    KV-squeezes and cuts the streams of replicas — their
                    requests fail over to the survivors; exits non-zero
                    if any global invariant is violated)
                    --chaos-profile replica-churn|slow-brownout|kv-pressure
                    (replica-churn; which fault mix the plan draws)
  bench workload
             generate a seeded request trace and replay it twice: once
             deterministically against the scheduler (step metrics), once
             live through one engine behind the router (wall-clock metrics)
             flags: --trace bursty|chat|summarize|classify|mixed (mixed)
                    --seed N (0)  --requests R (12)  --batch B (4)
  help       this text

paper tables and figures: cargo run --release -p edkm-bench --bin table1|table2|table3|figures"
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
            optim: AdamWConfig { lr: 3e-3 },
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
    let dim = parse_positive(args, "--dim", 1);
    let mut spec = if dim > 1 {
        CompressSpec::vector(bits, dim)
    } else {
        CompressSpec::with_bits(bits)
    };
    spec.epochs = parse_or(args, "--epochs", 1);
    spec.edkm = EdkmConfig::full(parse_positive(args, "--learners", 8));
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
    let dim = parse_positive(args, "--dim", 1);
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

/// The request set `edkm serve` submits: short seeded prompts with a
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

/// Serve the CLI's request set through a fleet of one or more engine
/// replicas behind the [`edkm::cluster`] router: each engine owns its
/// scheduler loop on a worker thread, the CLI consumes each request's token
/// stream and prints the responses plus throughput, KV, TTFT and router
/// stats. Placement never changes sampled output: per-request tokens are
/// the same whatever the replica count. `n_new` is below `max_seq`, so
/// every prompt keeps at least one token.
fn serve_fleet(
    models: Vec<PalettizedModel>,
    max_batch: usize,
    n_requests: usize,
    n_new: usize,
    temperature: f32,
    affinity: bool,
) {
    let max_prompt = models[0].config().max_seq - n_new;
    let vocab = models[0].config().vocab;
    let (block_tokens, block_bytes) = {
        let pool = models[0].kv_pool();
        (pool.block_tokens(), pool.block_bytes())
    };
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
    let sim0 = runtime::sim_seconds();
    let mut streams = Vec::new();
    for id in 0..n_requests as u64 {
        // Every 4th request jumps the FIFO queue — tokens are identical
        // either way (batch-independent sampling), only admission order
        // moves.
        let request = serve_request(id, max_prompt, vocab, n_new, temperature);
        let (rid, stream) = router.submit(request).expect("router accepts submissions");
        streams.push((rid, stream));
    }
    // Consume the streams; tokens buffered in each channel while we drain
    // an earlier one are not lost.
    let mut responses = Vec::new();
    for (rid, mut stream) in streams {
        let resp = stream.wait().expect("the fleet finishes every request");
        responses.push((rid, resp));
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = router.stats();
    let engines = || stats.replicas.iter().map(|(_, s)| s);
    for (rid, r) in &responses {
        println!("  {rid} ({:?}): {:?}", r.finish, r.tokens);
    }
    println!(
        "\n{} tokens in {:.3}s = {:.1} tok/s over {} batched steps on {replicas} \
         replica(s) ({:.3} sim s)",
        stats.tokens_generated(),
        secs,
        stats.tokens_generated() as f64 / secs.max(1e-9),
        engines().map(|s| s.decode_steps).sum::<u64>(),
        runtime::sim_seconds() - sim0,
    );
    let kv_peak = stats.aggregate_kv_peak_bytes();
    println!(
        "peak KV {kv_peak} bytes ({block_tokens}-token blocks, peak {} blocks, {} preemptions); \
         resident KV peak {} bytes",
        kv_peak / block_bytes.max(1),
        engines().map(|s| s.preemptions).sum::<u64>(),
        cluster.resident_peak_bytes()
    );
    let mut ttft = vec![0u64; edkm::core::engine::TTFT_BUCKET_BOUNDS.len() + 1];
    for s in engines() {
        for (total, n) in ttft.iter_mut().zip(s.ttft_steps.counts()) {
            *total += n;
        }
    }
    println!(
        "TTFT (steps ≤ bound): {ttft:?} over bounds {:?} (+overflow)",
        edkm::core::engine::TTFT_BUCKET_BOUNDS
    );
    println!(
        "router: {} dispatched, affinity hit rate {:.3}, {} spills, {} re-routes",
        stats.routed,
        stats.affinity_hit_rate(),
        stats.spills,
        stats.rerouted
    );
    let prefix_hits: u64 = engines().map(|s| s.prefix_hits).sum();
    if prefix_hits > 0 {
        println!(
            "prefix cache: {prefix_hits} hits, {} prompt tokens served from shared blocks",
            engines().map(|s| s.prefix_tokens_reused).sum::<u64>()
        );
    }
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
/// while a deterministic [`FaultPlan`] kills, stalls, KV-squeezes and
/// cuts the streams of replicas. Prints the applied faults and the
/// invariant audit; exits non-zero if any global invariant is violated.
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
    let horizon = fault_horizon(&trace, run.max_batch);
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
        || {
            model
                .clone()
                .with_kv_config(kv)
                .with_prefix_cache(prefix_cache)
        },
        run.replicas,
        &trace,
        &plan,
        ChaosReplayConfig {
            engine: EngineConfig {
                max_batch: run.max_batch,
                queue_capacity: run.n_requests.max(1),
            },
            affinity: run.affinity,
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
        "\n{} of {} request(s) survived chaos, {:.1} tok/s goodput over {:.3}s",
        report.survivors, run.n_requests, report.replay.goodput_tok_s, report.replay.wall_secs
    );
    println!(
        "invariants: requests_lost={} index_violations={} survivors_bit_identical={} \
         pools_at_baseline={}",
        report.requests_lost(),
        report.replay.index_violations,
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
    let max_batch = parse_positive(args, "--batch", 4);
    let n_requests = parse_positive(args, "--requests", 6);
    let n_new: usize = parse_or(args, "--new", 16);
    let temperature: f32 = parse_or(args, "--temp", 0.8);
    if !(temperature.is_finite() && temperature >= 0.0) {
        usage_error(&format!("--temp {temperature} must be finite and >= 0"));
    }
    let replicas = parse_positive(args, "--replicas", 1);
    let affinity = args.iter().any(|a| a == "--affinity");
    let kv_block_tokens = parse_positive(args, "--kv-block-tokens", 16);
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
    if n_new_eff < n_new {
        eprintln!("--new {n_new} exceeds max_seq {max_seq}; clamping to {n_new_eff}");
    }
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
    println!(
        "{replicas} replica(s) behind the {} router",
        if affinity {
            "prefix-affinity"
        } else {
            "load-aware"
        }
    );
    // Each replica gets an independent KV pool (`with_kv_config` replaces
    // the pool a clone would otherwise share).
    let fleet: Vec<_> = (0..replicas)
        .map(|_| {
            model
                .clone()
                .with_kv_config(kv)
                .with_prefix_cache(prefix_cache)
        })
        .collect();
    serve_fleet(
        fleet,
        max_batch,
        n_requests,
        n_new_eff,
        temperature,
        affinity,
    );
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
    let requests = parse_positive(args, "--requests", 12);
    let max_batch = parse_positive(args, "--batch", 4);
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

    let cluster = Cluster::new(
        vec![model],
        ClusterConfig {
            engine: EngineConfig {
                max_batch,
                queue_capacity: requests,
            },
            ..ClusterConfig::default()
        },
    );
    let live = replay_router(&cluster.handle(), &trace);
    cluster.shutdown();
    println!(
        "\nlive replay (wall clock, one engine behind the router, batch {max_batch}):\n  \
         goodput {:.1} tok/s in {:.3}s, TTFT p50 {:.2} / p99 {:.2} ms\n  \
         per-token p50 {:.3} / p99 {:.3} ms, {} backpressure rejections",
        live.goodput_tok_s,
        live.wall_secs,
        live.ttft_ms_p(0.50),
        live.ttft_ms_p(0.99),
        live.per_token_ms_p(0.50),
        live.per_token_ms_p(0.99),
        live.backpressure_rejections
    );
    ExitCode::SUCCESS
}

fn cmd_bench(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("workload") => cmd_bench_workload(&args[1..]),
        Some(other) => usage_error(&format!("unknown bench {other}")),
        None => usage_error("bench needs a subcommand: workload"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compress") => cmd_compress(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench") => return cmd_bench(&args[1..]),
        Some("help") | None => {
            usage();
            return ExitCode::SUCCESS;
        }
        Some(other) => usage_error(&format!("unknown command {other}")),
    }
    ExitCode::SUCCESS
}
