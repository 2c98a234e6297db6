//! Minimal training loop for causal language modeling.

use crate::{clip_grad_norm, AdamW, AdamWConfig, LlamaModel, LrSchedule, WeightHook};
use edkm_autograd::Var;

/// One batch of equal-length token sequences (each `t+1` tokens: the model
/// predicts positions `1..` from positions `..t`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LmBatch {
    /// Token sequences, all the same length ≥ 2.
    pub seqs: Vec<Vec<usize>>,
}

impl LmBatch {
    /// Build a batch, validating shape.
    ///
    /// # Panics
    ///
    /// Panics on an empty or ragged batch or sequences shorter than 2.
    pub fn new(seqs: Vec<Vec<usize>>) -> Self {
        assert!(!seqs.is_empty(), "empty batch");
        let l = seqs[0].len();
        assert!(l >= 2, "sequences must be >= 2 tokens");
        assert!(seqs.iter().all(|s| s.len() == l), "ragged batch");
        LmBatch { seqs }
    }

    /// Number of sequences.
    pub fn batch_size(&self) -> usize {
        self.seqs.len()
    }

    /// Predicted positions per sequence.
    pub fn seq_len(&self) -> usize {
        self.seqs[0].len() - 1
    }
}

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Optimizer settings.
    pub optim: AdamWConfig,
    /// LR schedule.
    pub schedule: LrSchedule,
    /// Global gradient-norm clip (the paper uses 1.0).
    pub clip_norm: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            optim: AdamWConfig::default(),
            schedule: LrSchedule::Constant,
            clip_norm: 1.0,
        }
    }
}

/// Owns the optimizer state for a training run over a model's parameters.
#[derive(Debug)]
pub struct Trainer {
    optim: AdamW,
    config: TrainConfig,
    losses: Vec<f32>,
}

impl Trainer {
    /// New trainer.
    pub fn new(config: TrainConfig) -> Self {
        Trainer {
            optim: AdamW::with_schedule(config.optim, config.schedule),
            config,
            losses: Vec::new(),
        }
    }

    /// Loss history, one entry per step.
    pub fn losses(&self) -> &[f32] {
        &self.losses
    }

    /// One optimization step on `batch`; returns the loss.
    ///
    /// `params` selects what is trained (e.g. all params, or only the
    /// centroids during clustering fine-tuning). `hook` substitutes
    /// effective weights (DKM / fake-quant).
    pub fn step(
        &mut self,
        model: &LlamaModel,
        batch: &LmBatch,
        params: &[Var],
        hook: Option<WeightHook<'_>>,
    ) -> f32 {
        let loss = model.lm_loss(&batch.seqs, hook);
        let loss_val = loss.value().item();
        loss.backward();
        clip_grad_norm(params, self.config.clip_norm);
        self.optim.step(params);
        self.losses.push(loss_val);
        loss_val
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LlamaConfig;
    use edkm_tensor::{runtime, DType, Device};

    #[test]
    fn batch_validation() {
        let b = LmBatch::new(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(b.batch_size(), 2);
        assert_eq!(b.seq_len(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_panics() {
        LmBatch::new(vec![vec![1, 2, 3], vec![4, 5]]);
    }

    #[test]
    fn training_overfits_tiny_pattern() {
        runtime::reset();
        let model = LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0);
        // A deterministic repeating pattern the model can memorize.
        let batch = LmBatch::new(vec![vec![1, 2, 3, 1, 2, 3], vec![2, 3, 1, 2, 3, 1]]);
        let mut trainer = Trainer::new(TrainConfig {
            optim: AdamWConfig { lr: 3e-3 },
            ..TrainConfig::default()
        });
        let params = model.params();
        let first = trainer.step(&model, &batch, &params, None);
        for _ in 0..60 {
            trainer.step(&model, &batch, &params, None);
        }
        let last = *trainer.losses().last().unwrap();
        assert!(
            last < first * 0.5,
            "loss must halve: first={first}, last={last}"
        );
        assert_eq!(trainer.losses().len(), 61);
        assert_eq!(trainer.optim.step_count, 61);
    }
}
