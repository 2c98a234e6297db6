//! Serving parity suite: compressed whole-model inference must be faithful
//! to the dense model.
//!
//! * At the 2¹⁶-entry lossless palette (the u16 case — a bf16 model's
//!   distinct values always fit), [`PalettizedModel`] greedy generation is
//!   **token-exact** with dense generation for ≥ 64 steps.
//! * At 3/4-bit palettes, per-step logits of the served model stay within
//!   tolerance of the dense model carrying the same decoded weights (the
//!   regime `generation_parity.rs` pins at the token level).

use edkm::core::{
    CompressSpec, CompressedModel, CompressionPipeline, EdkmConfig, Generator, PalettizedModel,
};
use edkm::nn::{AdamWConfig, LlamaConfig, LlamaModel, LmBatch, TrainConfig, Trainer};
use edkm::tensor::{ops, runtime, DType, Device};

const PARITY_STEPS: usize = 64;

fn cfg() -> LlamaConfig {
    LlamaConfig {
        max_seq: 3 + PARITY_STEPS + 8, // prompt + ≥64 generated tokens
        ..LlamaConfig::tiny()
    }
}

fn pattern_batch() -> LmBatch {
    // A deterministic 4-cycle the tiny model memorizes exactly, giving the
    // greedy argmax a wide margin at every step.
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
fn lossless_palette_generation_is_token_exact_for_64_steps() {
    runtime::reset();
    let dense = memorize();
    let want = dense.generate_greedy(&[1, 2, 3], PARITY_STEPS);
    assert_eq!(want.len(), 3 + PARITY_STEPS);

    let served = PalettizedModel::from_dense(&dense, &CompressSpec::lossless())
        .expect("lossless export must serve");
    let got = Generator::new(&served).generate_greedy(&[1, 2, 3], PARITY_STEPS);
    assert_eq!(
        got, want,
        "lossless compressed serving must be token-exact with the dense model"
    );

    // And it still round-trips through the on-disk container losslessly.
    let compressed = CompressionPipeline::new(CompressSpec::lossless()).export(&dense);
    let back = CompressedModel::from_bytes(&compressed.to_bytes()).expect("container roundtrip");
    let reserved = PalettizedModel::from_compressed(&back, cfg()).expect("served from bytes");
    assert_eq!(
        Generator::new(&reserved).generate_greedy(&[1, 2, 3], PARITY_STEPS),
        want,
        "serving from the deserialized artifact must stay token-exact"
    );
}

/// Per-step logits of the served model vs the dense model carrying the same
/// decoded (lossy) weights, teacher-forced along the dense trajectory.
fn assert_per_step_logits_close(bits: u8, tol: f32) {
    runtime::reset();
    let base = memorize();
    // Fine-tune-and-compress as generation_parity.rs does.
    let mut spec = CompressSpec::with_bits(bits);
    spec.epochs = 4;
    spec.edkm = EdkmConfig::full(4);
    spec.dkm.iters = 3;
    spec.tau_anneal = 0.7;
    spec.train.optim.lr = 1e-3;
    let result =
        CompressionPipeline::new(spec.clone()).fine_tune_and_compress(&base, &[pattern_batch()]);

    // Dense reference carrying the decoded weights, at f32 so the LUT
    // centroids are stored exactly (a bf16 store would round them and the
    // comparison would measure dtype rounding, not the serving kernel).
    let shipped = LlamaModel::new(cfg(), DType::F32, Device::Cpu, 1);
    result.compressed.apply_to(&shipped);
    let served =
        PalettizedModel::from_compressed(&result.compressed, cfg()).expect("servable export");

    // Teacher-force the dense greedy trajectory through both models and
    // compare the next-token logits at every step.
    let ids = shipped.generate_greedy(&[1, 2, 3], 24);
    let mut cache = served.new_cache();
    for step in 3..ids.len() {
        let prefix = &ids[..step];
        let dense_logits = shipped.logits(prefix, 1, step, None);
        let dense_row = dense_logits.value().slice(0, step - 1, 1);
        let served_logits = if step == 3 {
            served.prefill(prefix, &mut cache)
        } else {
            served.decode_step(&[ids[step - 1]], std::slice::from_mut(&mut cache))
        };
        let n_rows = served_logits.shape()[0];
        let served_row = served_logits.slice(0, n_rows - 1, 1);
        let scale = ops::l2_norm(&dense_row).max(1e-6);
        let diff = ops::max_abs_diff(&served_row.contiguous(), &dense_row.contiguous());
        assert!(
            diff / scale < tol,
            "{bits}-bit step {step}: logits drifted {diff} (scale {scale})"
        );
    }
}

#[test]
fn three_bit_per_step_logits_stay_within_tolerance() {
    // Same decoded weights, different kernel (LUT-GEMM partial sums vs
    // dense matmul): only accumulation-order noise may remain.
    assert_per_step_logits_close(3, 1e-3);
}

#[test]
fn four_bit_per_step_logits_stay_within_tolerance() {
    assert_per_step_logits_close(4, 1e-3);
}

#[test]
fn three_bit_served_generation_keeps_the_memorized_pattern() {
    runtime::reset();
    let base = memorize();
    let mut spec = CompressSpec::with_bits(3);
    spec.epochs = 8;
    spec.edkm = EdkmConfig::full(4);
    spec.dkm.iters = 3;
    spec.tau_anneal = 0.7;
    spec.train.optim.lr = 1e-3;
    let result = CompressionPipeline::new(spec).fine_tune_and_compress(&base, &[pattern_batch()]);
    let served =
        PalettizedModel::from_compressed(&result.compressed, cfg()).expect("servable export");
    let out = Generator::new(&served).generate_greedy(&[1, 2, 3], 8);
    assert_eq!(
        out,
        vec![1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3],
        "3-bit compressed serving must keep generating the memorized cycle"
    );
    // Serving really runs from compressed storage: the served artifact is
    // much smaller than the dense bf16 model.
    let dense = LlamaModel::new(cfg(), DType::Bf16, Device::Cpu, 2);
    assert!(served.size_bytes() < dense.native_size_bytes() / 2);
}
