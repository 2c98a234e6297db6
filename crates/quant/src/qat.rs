//! LLM-QAT: data-free quantization-aware training (Liu et al.,
//! reimplemented).
//!
//! Two ingredients of the original method are reproduced:
//!
//! 1. **Data-free**: training sequences are *generated by the model itself*
//!    (next-token sampling from the full-precision model), so no external
//!    dataset is needed;
//! 2. **QAT with a straight-through estimator**: the forward pass uses
//!    fake-quantized weights while gradients flow to the full-precision
//!    master weights unchanged.

use crate::rtn::RtnQuantizer;
use edkm_autograd::{no_grad, Var};
use edkm_nn::{LlamaModel, LmBatch, TrainConfig, Trainer};
use edkm_tensor::ops as t;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// LLM-QAT settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QatSpec {
    /// Fake-quant bit width.
    pub bits: u8,
    /// Quantization group size (0 = per-row).
    pub group: usize,
    /// Trainer configuration.
    pub train: TrainConfig,
    /// Fine-tuning epochs over the generated data.
    pub epochs: usize,
}

/// The LLM-QAT fine-tuning pipeline.
#[derive(Debug, Clone)]
pub struct QatPipeline {
    spec: QatSpec,
}

impl QatPipeline {
    /// Pipeline with the given spec.
    pub fn new(spec: QatSpec) -> Self {
        QatPipeline { spec }
    }

    /// Data-free generation: sample `n` sequences of `len + 1` tokens from
    /// the model's own distribution (temperature 1.0), starting from a
    /// random first token.
    pub fn generate_training_data(
        &self,
        model: &LlamaModel,
        n: usize,
        len: usize,
        seed: u64,
    ) -> Vec<Vec<usize>> {
        let _ng = no_grad();
        let vocab = model.config().vocab;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a7);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut seq = vec![rng.gen_range(0..vocab)];
            while seq.len() < len + 1 {
                let tl = seq.len();
                let logits = model.logits(&seq, 1, tl, None);
                let probs = t::softmax_lastdim(&logits.value().slice(0, tl - 1, 1));
                let p = probs.to_vec();
                let mut u: f32 = rng.gen();
                let mut pick = vocab - 1;
                for (i, &pi) in p.iter().enumerate() {
                    if u < pi {
                        pick = i;
                        break;
                    }
                    u -= pi;
                }
                seq.push(pick);
            }
            out.push(seq);
        }
        out
    }

    /// Fine-tune `model` with fake-quantized weights (STE) on `batches`.
    /// Returns the per-step losses.
    pub fn fine_tune(&self, model: &LlamaModel, batches: &[LmBatch]) -> Vec<f32> {
        let clusterable: HashSet<String> = model.clusterable_names().into_iter().collect();
        let rtn = RtnQuantizer::new(self.spec.bits, self.spec.group);
        let params = model.params();
        let mut trainer = Trainer::new(self.spec.train);
        for _ in 0..self.spec.epochs {
            for batch in batches {
                let hook = |name: &str, w: &Var| -> Var {
                    if clusterable.contains(name) {
                        // STE: forward sees Q(w), backward passes through.
                        w.straight_through(rtn.fake_quant_tensor(w.value()))
                    } else {
                        w.clone()
                    }
                };
                trainer.step(model, batch, &params, Some(&hook));
            }
        }
        trainer.losses().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_nn::{AdamWConfig, LlamaConfig};
    use edkm_tensor::{runtime, DType, Device};

    /// The paper's comparison point: 4-bit QAT.
    fn paper_4bit() -> QatSpec {
        QatSpec {
            bits: 4,
            group: 0,
            train: TrainConfig::default(),
            epochs: 2,
        }
    }

    fn tiny_model() -> LlamaModel {
        LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0)
    }

    #[test]
    fn generated_data_has_right_shape_and_vocab() {
        runtime::reset();
        let model = tiny_model();
        let pipe = QatPipeline::new(paper_4bit());
        let data = pipe.generate_training_data(&model, 3, 6, 1);
        assert_eq!(data.len(), 3);
        for seq in &data {
            assert_eq!(seq.len(), 7);
            assert!(seq.iter().all(|&t| t < 16));
        }
        // Deterministic for a fixed seed.
        let again = pipe.generate_training_data(&model, 3, 6, 1);
        assert_eq!(data, again);
    }

    #[test]
    fn qat_reduces_loss_under_fake_quant() {
        runtime::reset();
        let model = tiny_model();
        let batch = LmBatch::new(vec![vec![1, 2, 3, 1, 2, 3, 1, 2]]);
        let mut spec = paper_4bit();
        spec.epochs = 30;
        spec.train.optim = AdamWConfig { lr: 5e-3 };
        let pipe = QatPipeline::new(spec);
        let losses = pipe.fine_tune(&model, &[batch]);
        assert_eq!(losses.len(), 30);
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(last < first, "QAT loss should fall: {first} -> {last}");
    }

    #[test]
    fn weights_stay_full_precision_masters() {
        runtime::reset();
        // After QAT the stored weights are NOT quantized (quantization
        // happens at export); they must have many distinct values.
        let model = tiny_model();
        let batch = LmBatch::new(vec![vec![1, 2, 3, 4, 5, 6]]);
        let mut spec = paper_4bit();
        spec.epochs = 2;
        QatPipeline::new(spec).fine_tune(&model, &[batch]);
        let w = model.layers()[0].projections()[0].weight().value().to_vec();
        let unique: HashSet<u32> = w.iter().map(|v| v.to_bits()).collect();
        assert!(unique.len() > 16, "master weights must stay continuous");
    }
}
