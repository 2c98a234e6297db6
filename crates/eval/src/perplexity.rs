//! Held-out perplexity.

use edkm_autograd::no_grad;
use edkm_nn::LlamaModel;

/// Perplexity of `model` over token `windows` (each ≥ 2 tokens):
/// `exp(mean next-token cross-entropy)`.
///
/// # Panics
///
/// Panics if `windows` is empty or any window is shorter than 2 tokens.
pub fn perplexity(model: &LlamaModel, windows: &[Vec<usize>]) -> f32 {
    assert!(!windows.is_empty(), "perplexity needs at least one window");
    let _ng = no_grad();
    let mut total = 0.0f64;
    let mut count = 0usize;
    for w in windows {
        assert!(w.len() >= 2, "windows must have >= 2 tokens");
        let loss = model.lm_loss(std::slice::from_ref(w), None);
        total += loss.value().item() as f64 * (w.len() - 1) as f64;
        count += w.len() - 1;
    }
    ((total / count as f64).exp()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_nn::{AdamWConfig, LlamaConfig, LmBatch, TrainConfig, Trainer};
    use edkm_tensor::{runtime, DType, Device};

    #[test]
    fn untrained_model_is_near_uniform() {
        runtime::reset();
        let cfg = LlamaConfig::tiny();
        let model = LlamaModel::new(cfg, DType::F32, Device::Cpu, 0);
        let ppl = perplexity(&model, &[vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
        let uniform = cfg.vocab as f32;
        assert!(
            ppl > uniform * 0.55 && ppl < uniform * 1.8,
            "init ppl {ppl} should be near |V| = {uniform}"
        );
    }

    #[test]
    fn training_reduces_perplexity() {
        runtime::reset();
        let model = LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0);
        let window = vec![1usize, 2, 3, 1, 2, 3, 1, 2];
        let before = perplexity(&model, std::slice::from_ref(&window));
        let mut trainer = Trainer::new(TrainConfig {
            optim: AdamWConfig { lr: 3e-3 },
            ..TrainConfig::default()
        });
        let params = model.params();
        let batch = LmBatch::new(vec![window.clone()]);
        for _ in 0..40 {
            trainer.step(&model, &batch, &params, None);
        }
        let after = perplexity(&model, &[window]);
        assert!(after < before * 0.7, "ppl should fall: {before} -> {after}");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_windows_panic() {
        runtime::reset();
        let model = LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0);
        perplexity(&model, &[]);
    }
}
