//! Reproduce Table 3 of the eDKM paper: accuracy of compressed models on
//! the benchmark suite, plus model sizes.
//!
//! Pipeline (the paper's Section 3 at simulation scale, DESIGN.md §2):
//!
//! 1. pretrain a LLaMA-style model on the SynLang corpus (stand-in for
//!    LLaMA-7B's pretraining);
//! 2. compress with each baseline: RTN, GPTQ g128, AWQ g128 (4 and 3 bit),
//!    LLM-QAT (4 bit, data-free), and eDKM (3 bit, fine-tuned on
//!    SynAlpaca with full M+U+S hooks);
//! 3. evaluate every model on Syn-{PIQA, HellaSwag, Winogrande, ARC-e,
//!    ARC-c, TriviaQA, MMLU} and report accuracy + serialized size.
//!
//! Run with `cargo run --release -p edkm-bench --bin table3 [pretrain_steps]`;
//! an unparsable or extra argument exits 2.

use edkm_core::{CompressSpec, CompressionPipeline, EdkmConfig};
use edkm_data::{AlpacaSet, Corpus, Grammar, TaskSuite};
use edkm_eval::{evaluate_suite, perplexity, render_table3, Table3Row};
use edkm_nn::{AdamWConfig, LlamaConfig, LlamaModel, LmBatch, LrSchedule, TrainConfig, Trainer};
use edkm_quant::{
    capture_calibration, quantize_model, AwqQuantizer, GptqQuantizer, QatPipeline, QatSpec,
    RtnQuantizer, WeightQuantizer,
};
use edkm_tensor::{DType, Device};

fn model_config() -> LlamaConfig {
    // Small enough that 3-bit compression visibly damages the model — the
    // regime Table 3 studies. (A larger model saturates every Syn-task even
    // at 3 bits because the grammar is much simpler than natural language.)
    LlamaConfig {
        vocab: 64,
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        max_seq: 40,
    }
}

fn fresh_copy(base: &LlamaModel) -> LlamaModel {
    let m = LlamaModel::new(*base.config(), base.dtype(), base.device(), 999);
    m.copy_weights_from(base);
    m
}

fn train_cfg(lr: f32, total: u64) -> TrainConfig {
    TrainConfig {
        optim: AdamWConfig { lr },
        schedule: LrSchedule::CosineWithWarmup {
            warmup: total / 20 + 1,
            total,
            final_frac: 0.1,
        },
        clip_norm: 1.0,
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\nusage: table3 [pretrain_steps]   (default 1500)");
    std::process::exit(2);
}

/// Pretraining steps from the command line.
fn parse_args() -> usize {
    let mut args = std::env::args().skip(1);
    let steps = args.next().map_or(1500, |a| {
        a.parse()
            .unwrap_or_else(|_| usage_error(&format!("bad pretrain_steps {a:?}")))
    });
    if let Some(extra) = args.next() {
        usage_error(&format!("unexpected argument {extra:?}"));
    }
    steps
}

fn main() {
    let pretrain_steps = parse_args();
    let t0 = std::time::Instant::now();
    let cfg = model_config();
    let grammar = Grammar::default_with_seed(0);
    let corpus = Corpus::generate(&grammar, 600, 12, 32, 1);
    let suite = TaskSuite::generate(&grammar, 200, 2);
    let alpaca = AlpacaSet::generate(&grammar, 512, 12, 3);

    // ---- 1. Pretrain the base model (the "LLaMA-7B" stand-in). ----
    eprintln!("[table3] pretraining base model ({pretrain_steps} steps)...");
    let base = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 0);
    let params = base.params();
    let mut trainer = Trainer::new(train_cfg(3e-3, pretrain_steps as u64));
    let batches: Vec<LmBatch> = corpus.batches(8).into_iter().map(LmBatch::new).collect();
    let mut step = 0usize;
    'outer: loop {
        for b in &batches {
            let loss = trainer.step(&base, b, &params, None);
            step += 1;
            if step.is_multiple_of(100) {
                eprintln!("[table3]   step {step}: loss {loss:.3}");
            }
            if step >= pretrain_steps {
                break 'outer;
            }
        }
    }
    let held_out = corpus.subsample(37);
    eprintln!(
        "[table3] base perplexity: {:.2} (elapsed {:.0}s)",
        perplexity(&base, held_out.windows()),
        t0.elapsed().as_secs_f64()
    );

    let mut rows: Vec<Table3Row> = Vec::new();
    rows.push(Table3Row {
        method: "LLaMA-sim".into(),
        bits: 16,
        size_bytes: base.native_size_bytes(),
        accuracies: evaluate_suite(&base, &suite),
    });

    // ---- 2. Post-training baselines. ----
    let calib_windows: Vec<Vec<usize>> = corpus.windows().iter().take(8).cloned().collect();
    let calib = capture_calibration(&base, &calib_windows, 256);

    let ptq: Vec<Box<dyn WeightQuantizer>> = vec![
        Box::new(RtnQuantizer::new(4, 0)),
        Box::new(GptqQuantizer::new(4, 128)),
        Box::new(AwqQuantizer::new(4, 128)),
        Box::new(GptqQuantizer::new(3, 128)),
        Box::new(AwqQuantizer::new(3, 128)),
    ];
    for q in &ptq {
        let m = fresh_copy(&base);
        let report = quantize_model(&m, q.as_ref(), Some(&calib));
        eprintln!(
            "[table3] {} done ({:.1} KB, elapsed {:.0}s)",
            report.method,
            report.size_bytes as f64 / 1024.0,
            t0.elapsed().as_secs_f64()
        );
        rows.push(Table3Row {
            method: report.method.clone(),
            bits: report.bits,
            size_bytes: report.size_bytes,
            accuracies: evaluate_suite(&m, &suite),
        });
    }

    // ---- 3. LLM-QAT (4 bit, data-free). ----
    eprintln!("[table3] LLM-QAT fine-tuning...");
    let qat_model = fresh_copy(&base);
    let qat_steps = (pretrain_steps / 8).max(10);
    let qat = QatPipeline::new(QatSpec {
        bits: 4,
        group: 0,
        train: train_cfg(1e-4, qat_steps as u64),
        epochs: 1,
    });
    let gen = qat.generate_training_data(&qat_model, qat_steps * 4, 12, 7);
    let qat_batches: Vec<LmBatch> = gen
        .chunks_exact(4)
        .map(|c| LmBatch::new(c.to_vec()))
        .collect();
    qat.fine_tune(&qat_model, &qat_batches);
    let qat_report = quantize_model(&qat_model, &RtnQuantizer::new(4, 0), None);
    rows.push(Table3Row {
        method: "LLM-QAT".into(),
        bits: 4,
        size_bytes: qat_report.size_bytes,
        accuracies: evaluate_suite(&qat_model, &suite),
    });
    eprintln!(
        "[table3] LLM-QAT done (elapsed {:.0}s)",
        t0.elapsed().as_secs_f64()
    );

    // ---- 4. eDKM (3 bit, train-time clustering on SynAlpaca). ----
    eprintln!("[table3] eDKM fine-tune-and-compress...");
    let edkm_model = fresh_copy(&base);
    let edkm_steps = (pretrain_steps / 8).max(10);
    let mut spec = CompressSpec::with_bits(3);
    spec.epochs = 1;
    spec.edkm = EdkmConfig::full(8);
    spec.train = train_cfg(3e-4, edkm_steps as u64);
    spec.dkm.iters = 4;
    // Fine-tune on instructions mixed with pretraining-distribution windows
    // (our SynAlpaca is far narrower than the real Alpaca set; the mix keeps
    // the fine-tune distribution comparably broad — DESIGN.md §2).
    let mut edkm_batches: Vec<LmBatch> = Vec::new();
    let corpus_b = corpus.batches(4);
    let alpaca_b = alpaca.batches(4);
    for i in 0..edkm_steps {
        if i % 2 == 0 {
            edkm_batches.push(LmBatch::new(alpaca_b[i % alpaca_b.len()].clone()));
        } else {
            edkm_batches.push(LmBatch::new(corpus_b[i % corpus_b.len()].clone()));
        }
    }
    let pipeline = CompressionPipeline::new(spec);
    let result = pipeline.fine_tune_and_compress(&edkm_model, &edkm_batches);
    // Evaluate the *hardened* compressed model, exactly what ships.
    let shipped = fresh_copy(&base);
    result.compressed.apply_to(&shipped);
    rows.push(Table3Row {
        method: "eDKM".into(),
        bits: 3,
        size_bytes: result.compressed.size_bytes(),
        accuracies: evaluate_suite(&shipped, &suite),
    });
    if let Some(stats) = result.final_step_stats {
        eprintln!(
            "[table3] eDKM final-step hooks: packs={} dedup={:.0}% offloaded={:.1}KB",
            stats.packs,
            100.0 * stats.dedup_rate(),
            stats.offloaded_bytes as f64 / 1024.0
        );
    }

    // ---- 5. Report. ----
    println!("\n== Table 3: accuracy of compressed models (Syn-benchmarks) ==");
    println!("(paper: LLaMA-7B, real benchmarks — levels differ, ordering is the claim)\n");
    println!("{}", render_table3(&rows));
    println!("chance:    PIQA/Winogrande 50.0 | HellaSwag/ARC/MMLU 25.0 | TriviaQA 0.0");
    eprintln!("\n(wall time: {:.0}s)", t0.elapsed().as_secs_f64());
}
