//! Deployment-level end-to-end check: a model that has memorized a pattern
//! keeps generating it after 3-bit eDKM compression — the compressed
//! artifact is a *working language model*, not just a smaller file.

use edkm::core::{CompressSpec, CompressionPipeline, EdkmConfig};
use edkm::nn::{AdamWConfig, LlamaConfig, LlamaModel, LmBatch, TrainConfig, Trainer};
use edkm::tensor::{runtime, DType, Device};

fn cfg() -> LlamaConfig {
    LlamaConfig {
        max_seq: 16, // room for a 3-token prompt + 8 generated tokens
        ..LlamaConfig::tiny()
    }
}

fn pattern_batch() -> LmBatch {
    // A deterministic 4-cycle the tiny model can memorize exactly.
    LmBatch::new(vec![
        vec![1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4],
        vec![2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1],
    ])
}

fn memorize() -> LlamaModel {
    let model = LlamaModel::new(cfg(), DType::Bf16, Device::Cpu, 0);
    let params = model.params();
    let mut trainer = Trainer::new(TrainConfig {
        optim: AdamWConfig { lr: 5e-3 },
        ..TrainConfig::default()
    });
    let batch = pattern_batch();
    for _ in 0..120 {
        trainer.step(&model, &batch, &params, None);
    }
    model
}

#[test]
fn compressed_model_still_generates_the_pattern() {
    runtime::reset();
    let base = memorize();
    let continuation = base.generate_greedy(&[1, 2, 3], 8);
    assert_eq!(
        continuation,
        vec![1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3],
        "base model must have memorized the cycle"
    );

    // Fine-tune-and-compress at 3 bits on the same pattern.
    let mut spec = CompressSpec::with_bits(3);
    spec.epochs = 8;
    spec.edkm = EdkmConfig::full(4);
    spec.dkm.iters = 3;
    spec.tau_anneal = 0.7; // harden assignments toward export
    spec.train.optim.lr = 1e-3;
    let result = CompressionPipeline::new(spec).fine_tune_and_compress(&base, &[pattern_batch()]);

    let shipped = LlamaModel::new(cfg(), DType::Bf16, Device::Cpu, 1);
    result.compressed.apply_to(&shipped);
    let compressed_continuation = shipped.generate_greedy(&[1, 2, 3], 8);
    assert_eq!(
        compressed_continuation,
        vec![1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3],
        "3-bit compressed model must keep generating the memorized cycle"
    );
    // At this toy scale the per-matrix LUTs and 16-bit norms dominate, so
    // the ratio is well under the ~5x of LLaMA-7B — but it must still be a
    // real reduction.
    assert!(
        result.compressed.size_bytes() < shipped.native_size_bytes() / 2,
        "and it must actually be small: {} vs {}",
        result.compressed.size_bytes(),
        shipped.native_size_bytes()
    );
}

#[test]
fn generation_is_deterministic() {
    runtime::reset();
    let model = memorize();
    let a = model.generate_greedy(&[2, 3], 6);
    let b = model.generate_greedy(&[2, 3], 6);
    assert_eq!(a, b, "greedy decoding must be deterministic");
}
