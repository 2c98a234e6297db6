//! End-to-end LLM compression: pretrain a small LLaMA-style model on the
//! synthetic corpus, fine-tune-and-compress it with eDKM at 3 bits, and
//! compare against round-to-nearest quantization.
//!
//! This is the paper's headline workflow (Section 3) at example scale.
//!
//! Run with `cargo run --release --example compress_llm`.

use edkm::core::{CompressSpec, CompressionPipeline, EdkmConfig};
use edkm::data::{AlpacaSet, Corpus, Grammar};
use edkm::eval::perplexity;
use edkm::nn::{AdamWConfig, LlamaConfig, LlamaModel, LmBatch, TrainConfig, Trainer};
use edkm::quant::{quantize_model, RtnQuantizer};
use edkm::tensor::{DType, Device};

fn fresh_copy(base: &LlamaModel) -> LlamaModel {
    let m = LlamaModel::new(*base.config(), base.dtype(), base.device(), 1);
    m.copy_weights_from(base);
    m
}

fn main() {
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
    let alpaca = AlpacaSet::generate(&grammar, 256, 12, 2);

    // 1. Pretrain (stand-in for the released LLaMA-7B checkpoint).
    println!("pretraining on {} token windows...", corpus.windows().len());
    let base = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 0);
    let params = base.params();
    let mut trainer = Trainer::new(TrainConfig {
        optim: AdamWConfig { lr: 3e-3 },
        ..TrainConfig::default()
    });
    let batches: Vec<LmBatch> = corpus.batches(8).into_iter().map(LmBatch::new).collect();
    for step in 0..150 {
        let b = &batches[step % batches.len()];
        let loss = trainer.step(&base, b, &params, None);
        if step % 50 == 0 {
            println!("  step {step}: loss {loss:.3}");
        }
    }
    let held_out = corpus.subsample(23);
    let base_ppl = perplexity(&base, held_out.windows());
    println!(
        "base model: ppl {:.2}, {} bytes (bf16)\n",
        base_ppl,
        base.native_size_bytes()
    );

    // 2. RTN 3-bit (post-training, no fine-tuning).
    let rtn_model = fresh_copy(&base);
    let rtn_report = quantize_model(&rtn_model, &RtnQuantizer::new(3, 0), None);
    let rtn_ppl = perplexity(&rtn_model, held_out.windows());
    println!(
        "RTN 3-bit : ppl {:.2}, {} bytes",
        rtn_ppl, rtn_report.size_bytes
    );

    // 3. eDKM 3-bit (train-time clustering; fine-tune on instructions mixed
    //    with pretraining-distribution windows, as in the table3 binary).
    let edkm_model = fresh_copy(&base);
    let mut spec = CompressSpec::with_bits(3);
    spec.epochs = 1;
    spec.edkm = EdkmConfig::full(8);
    spec.dkm.iters = 4;
    spec.train.optim.lr = 3e-4;
    let corpus_b = corpus.batches(4);
    let alpaca_b = alpaca.batches(4);
    let mixed: Vec<LmBatch> = (0..60)
        .map(|i| {
            if i % 2 == 0 {
                LmBatch::new(corpus_b[i % corpus_b.len()].clone())
            } else {
                LmBatch::new(alpaca_b[i % alpaca_b.len()].clone())
            }
        })
        .collect();
    let result = CompressionPipeline::new(spec).fine_tune_and_compress(&edkm_model, &mixed);
    let shipped = fresh_copy(&base);
    result.compressed.apply_to(&shipped);
    let edkm_ppl = perplexity(&shipped, held_out.windows());
    println!(
        "eDKM 3-bit: ppl {:.2}, {} bytes (palettized + 8-bit embeddings)",
        edkm_ppl,
        result.compressed.size_bytes()
    );

    println!(
        "\nsummary: base {base_ppl:.2} | eDKM {edkm_ppl:.2} | RTN {rtn_ppl:.2}  (lower is better)"
    );
    if edkm_ppl < rtn_ppl {
        println!("eDKM beats RTN at equal bit width, as in the paper's Table 3.");
    }
}
