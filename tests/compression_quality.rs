//! Integration test: the Table 3 quality claim at test scale — train-time
//! clustering (eDKM) beats post-training RTN at 3 bits, and the lossless
//! export scores what the base model does.

use edkm::core::{CompressSpec, CompressionPipeline, EdkmConfig};
use edkm::data::{Corpus, Grammar, TaskSuite};
use edkm::eval::{evaluate_suite, perplexity};
use edkm::nn::{AdamWConfig, LlamaConfig, LlamaModel, LmBatch, TrainConfig, Trainer};
use edkm::quant::{quantize_model, RtnQuantizer};
use edkm::tensor::{runtime, DType, Device};

fn pretrained() -> (LlamaModel, Corpus) {
    runtime::reset();
    let cfg = LlamaConfig {
        vocab: 64,
        d_model: 32,
        n_heads: 2,
        n_layers: 1,
        d_ff: 64,
        max_seq: 17,
    };
    let grammar = Grammar::default_with_seed(0);
    let corpus = Corpus::generate(&grammar, 80, 8, 16, 1);
    let model = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 0);
    let params = model.params();
    let mut trainer = Trainer::new(TrainConfig {
        optim: AdamWConfig { lr: 3e-3 },
        ..TrainConfig::default()
    });
    let batches: Vec<LmBatch> = corpus.batches(8).into_iter().map(LmBatch::new).collect();
    for step in 0..60 {
        trainer.step(&model, &batches[step % batches.len()], &params, None);
    }
    (model, corpus)
}

fn copy_of(base: &LlamaModel) -> LlamaModel {
    let m = LlamaModel::new(*base.config(), base.dtype(), base.device(), 9);
    m.copy_weights_from(base);
    m
}

#[test]
fn edkm_3bit_beats_rtn_3bit_on_perplexity() {
    let (base, corpus) = pretrained();
    let eval_windows: Vec<Vec<usize>> = corpus.windows().iter().take(12).cloned().collect();
    let base_ppl = perplexity(&base, &eval_windows);

    // RTN 3-bit, post-training.
    let rtn_model = copy_of(&base);
    quantize_model(&rtn_model, &RtnQuantizer::new(3, 0), None);
    let rtn_ppl = perplexity(&rtn_model, &eval_windows);

    // eDKM 3-bit, train-time (brief fine-tune on the same distribution).
    let edkm_model = copy_of(&base);
    let mut spec = CompressSpec::with_bits(3);
    spec.epochs = 1;
    spec.edkm = EdkmConfig::full(2);
    spec.dkm.iters = 3;
    spec.train.optim.lr = 1e-3;
    let batches: Vec<LmBatch> = corpus
        .batches(8)
        .into_iter()
        .take(12)
        .map(LmBatch::new)
        .collect();
    let result = CompressionPipeline::new(spec).fine_tune_and_compress(&edkm_model, &batches);
    let shipped = copy_of(&base);
    result.compressed.apply_to(&shipped);
    let edkm_ppl = perplexity(&shipped, &eval_windows);

    assert!(
        edkm_ppl < rtn_ppl,
        "train-time clustering must beat RTN at 3 bits: eDKM {edkm_ppl:.2} vs RTN {rtn_ppl:.2} (base {base_ppl:.2})"
    );
    // Note: eDKM may legitimately beat the *base* perplexity here because
    // its fine-tuning continues training on the same distribution; the
    // claim under test is only the ordering against RTN.
    assert!(edkm_ppl.is_finite() && base_ppl.is_finite());
}

#[test]
fn edkm_model_is_smallest_shipped_artifact() {
    let (base, _corpus) = pretrained();
    // eDKM ships 3-bit LUT weights + 8-bit embeddings; RTN baselines ship
    // 16-bit embeddings — eDKM must be the smaller file, as in Table 3.
    let pipeline = CompressionPipeline::new(CompressSpec::with_bits(3));
    let compressed = pipeline.export(&base);

    let rtn_model = copy_of(&base);
    let rtn_report = quantize_model(&rtn_model, &RtnQuantizer::new(3, 0), None);

    assert!(
        compressed.size_bytes() < rtn_report.size_bytes,
        "eDKM {} B vs RTN {} B",
        compressed.size_bytes(),
        rtn_report.size_bytes
    );
    assert!(compressed.size_bytes() * 3 < base.native_size_bytes());
}

/// Mean multichoice accuracy over the seven synthetic Table 3 tasks.
fn mean_accuracy(model: &LlamaModel, suite: &TaskSuite) -> f32 {
    let accs = evaluate_suite(model, suite);
    accs.iter().map(|&(_, a)| a).sum::<f32>() / accs.len() as f32
}

#[test]
fn lossless_export_keeps_base_accuracy_and_perplexity() {
    let (base, corpus) = pretrained();
    let eval_windows: Vec<Vec<usize>> = corpus.windows().iter().take(12).cloned().collect();
    let suite = TaskSuite::generate(&Grammar::default_with_seed(0), 30, 2);
    let base_ppl = perplexity(&base, &eval_windows);
    let base_acc = mean_accuracy(&base, &suite);

    // The lossless export round-trips every bf16 weight bit for bit, so
    // the shipped model must score what the base model does.
    let compressed = CompressionPipeline::new(CompressSpec::lossless()).export(&base);
    let shipped = copy_of(&base);
    compressed.apply_to(&shipped);
    let ppl = perplexity(&shipped, &eval_windows);
    let acc = mean_accuracy(&shipped, &suite);

    assert!(
        acc >= base_acc - 1e-4,
        "lossless export lost accuracy: {acc} vs base {base_acc}"
    );
    assert!(
        ppl <= base_ppl + 1e-3,
        "lossless export raised perplexity: {ppl} vs base {base_ppl}"
    );
}
