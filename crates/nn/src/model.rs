//! LLaMA-style decoder-only language model.

use crate::{DecoderLayer, Embedding, Linear, RmsNorm, WeightHook};
use edkm_autograd::Var;
use edkm_tensor::{DType, Device};
use serde::{Deserialize, Serialize};

/// Model hyper-parameters.
///
/// Defaults are a laptop-scale stand-in for LLaMA-7B (DESIGN.md documents
/// the substitution); the architecture — and therefore the set of weights a
/// compressor sees — is the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlamaConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Residual width.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Decoder layers.
    pub n_layers: usize,
    /// MLP hidden width.
    pub d_ff: usize,
    /// Longest supported sequence.
    pub max_seq: usize,
}

impl Default for LlamaConfig {
    fn default() -> Self {
        LlamaConfig {
            vocab: 64,
            d_model: 64,
            n_heads: 4,
            n_layers: 2,
            d_ff: 128,
            max_seq: 64,
        }
    }
}

impl LlamaConfig {
    /// A deliberately tiny config for unit tests.
    pub fn tiny() -> Self {
        LlamaConfig {
            vocab: 16,
            d_model: 8,
            n_heads: 2,
            n_layers: 1,
            d_ff: 16,
            max_seq: 8,
        }
    }

    /// Parameter count of a model with this config.
    pub fn param_count(&self) -> usize {
        let per_layer = 4 * self.d_model * self.d_model          // q,k,v,o
            + 3 * self.d_model * self.d_ff                        // gate,up,down
            + 2 * self.d_model; //                                   norms
        self.vocab * self.d_model                                 // embed
            + self.n_layers * per_layer
            + self.d_model                                        // final norm
            + self.vocab * self.d_model //                           lm head
    }
}

/// Decoder-only transformer: embedding → n × [`DecoderLayer`] → RMSNorm →
/// LM head.
#[derive(Debug)]
pub struct LlamaModel {
    config: LlamaConfig,
    embed: Embedding,
    layers: Vec<DecoderLayer>,
    final_norm: RmsNorm,
    lm_head: Linear,
    device: Device,
    dtype: DType,
}

impl LlamaModel {
    /// Build a model with seeded initialization.
    pub fn new(config: LlamaConfig, dtype: DType, device: Device, seed: u64) -> Self {
        let embed = Embedding::new(
            "embed_tokens",
            config.vocab,
            config.d_model,
            dtype,
            device,
            seed,
        );
        let layers = (0..config.n_layers)
            .map(|i| {
                DecoderLayer::new(
                    i,
                    config.d_model,
                    config.n_heads,
                    config.d_ff,
                    10000.0,
                    dtype,
                    device,
                    seed + 100 * (i as u64 + 1),
                )
            })
            .collect();
        let final_norm = RmsNorm::new("final_norm", config.d_model, dtype, device);
        let lm_head = Linear::new(
            "lm_head",
            config.d_model,
            config.vocab,
            dtype,
            device,
            seed + 7,
        );
        LlamaModel {
            config,
            embed,
            layers,
            final_norm,
            lm_head,
            device,
            dtype,
        }
    }

    /// Model hyper-parameters.
    pub fn config(&self) -> &LlamaConfig {
        &self.config
    }

    /// Device all parameters live on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Parameter dtype.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The token embedding table.
    pub fn embedding(&self) -> &Embedding {
        &self.embed
    }

    /// The decoder layers.
    pub fn layers(&self) -> &[DecoderLayer] {
        &self.layers
    }

    /// The LM head projection.
    pub fn lm_head(&self) -> &Linear {
        &self.lm_head
    }

    /// Logits `[b·t, vocab]` for `b` sequences of length `t` given row-major
    /// flattened `ids`.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != b*t`, `t > max_seq`, or any id is out of
    /// vocabulary.
    pub fn logits(&self, ids: &[usize], b: usize, t: usize, hook: Option<WeightHook<'_>>) -> Var {
        assert_eq!(ids.len(), b * t, "ids length must be b*t");
        assert!(t <= self.config.max_seq, "sequence too long: {t}");
        let mut x = self.embed.forward(ids);
        for layer in &self.layers {
            x = layer.forward(&x, b, t, hook);
        }
        let x = self.final_norm.forward(&x);
        self.lm_head.forward(&x, hook)
    }

    /// Mean next-token cross-entropy over `b` sequences of length `t+1`
    /// (standard causal LM shift).
    ///
    /// # Panics
    ///
    /// Panics if sequences differ in length or are shorter than 2 tokens.
    pub fn lm_loss(&self, seqs: &[Vec<usize>], hook: Option<WeightHook<'_>>) -> Var {
        assert!(!seqs.is_empty(), "lm_loss needs at least one sequence");
        let l = seqs[0].len();
        assert!(l >= 2, "sequences must have >= 2 tokens");
        assert!(seqs.iter().all(|s| s.len() == l), "ragged batch");
        let b = seqs.len();
        let t = l - 1;
        let mut inputs = Vec::with_capacity(b * t);
        let mut targets = Vec::with_capacity(b * t);
        for s in seqs {
            inputs.extend_from_slice(&s[..t]);
            targets.extend_from_slice(&s[1..]);
        }
        self.logits(&inputs, b, t, hook).cross_entropy(&targets)
    }

    /// All named parameters: projections, norms, embedding, head.
    pub fn named_params(&self) -> Vec<(String, Var)> {
        let mut out: Vec<(String, Var)> = Vec::new();
        out.push((self.embed.name().to_string(), self.embed.weight().clone()));
        for layer in &self.layers {
            for p in layer.projections() {
                out.push((p.name().to_string(), p.weight().clone()));
            }
            for n in layer.norms() {
                out.push((n.name().to_string(), n.weight().clone()));
            }
        }
        out.push((
            self.final_norm.name().to_string(),
            self.final_norm.weight().clone(),
        ));
        out.push((
            self.lm_head.name().to_string(),
            self.lm_head.weight().clone(),
        ));
        out
    }

    /// Just the parameter handles.
    pub fn params(&self) -> Vec<Var> {
        self.named_params().into_iter().map(|(_, v)| v).collect()
    }

    /// Names of the decoder projection weights — the set eDKM clusters
    /// (embeddings are handled separately at 8 bit, norms stay 16-bit).
    pub fn clusterable_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for layer in &self.layers {
            for p in layer.projections() {
                out.push(p.name().to_string());
            }
        }
        out.push(self.lm_head.name().to_string());
        out
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.value().numel()).sum()
    }

    /// Bytes of the uncompressed model at its native dtype (the paper's
    /// "Model Size" baseline: 16-bit weights).
    pub fn native_size_bytes(&self) -> usize {
        self.params()
            .iter()
            .map(|p| p.value().numel() * self.dtype.size_bytes())
            .sum()
    }

    /// Copy every parameter value from `other` (same config required).
    ///
    /// # Panics
    ///
    /// Panics if the models have different parameter sets.
    pub fn copy_weights_from(&self, other: &LlamaModel) {
        let theirs = other.named_params();
        for (name, var) in self.named_params() {
            let (_, src) = theirs
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("source model lacks parameter {name}"));
            var.value().copy_from(src.value());
        }
    }

    /// Greedy argmax continuation of `prompt` by `n_new` tokens.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or grows past `max_seq`.
    pub fn generate_greedy(&self, prompt: &[usize], n_new: usize) -> Vec<usize> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let _ng = edkm_autograd::no_grad();
        let mut ids = prompt.to_vec();
        for _ in 0..n_new {
            let t = ids.len();
            let logits = self.logits(&ids, 1, t, None);
            let row = logits.value().slice(0, t - 1, 1);
            let next = edkm_tensor::ops::argmax_lastdim(&row)[0];
            ids.push(next);
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::runtime;

    #[test]
    fn config_param_count_matches_model() {
        runtime::reset();
        let cfg = LlamaConfig::tiny();
        let model = LlamaModel::new(cfg, DType::F32, Device::Cpu, 0);
        assert_eq!(model.param_count(), cfg.param_count());
    }

    #[test]
    fn logits_shape() {
        runtime::reset();
        let model = LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0);
        let ids = vec![1usize, 2, 3, 4, 5, 6];
        let logits = model.logits(&ids, 2, 3, None);
        assert_eq!(logits.value().shape(), &[6, 16]);
    }

    #[test]
    fn loss_is_finite_and_backward_reaches_everything() {
        runtime::reset();
        let model = LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0);
        let seqs = vec![vec![1usize, 2, 3, 4], vec![5, 6, 7, 8]];
        let loss = model.lm_loss(&seqs, None);
        assert!(loss.value().item().is_finite());
        loss.backward();
        for (name, p) in model.named_params() {
            assert!(p.grad().is_some(), "{name} got no grad");
        }
    }

    #[test]
    fn loss_near_uniform_at_init() {
        runtime::reset();
        let cfg = LlamaConfig::tiny();
        let model = LlamaModel::new(cfg, DType::F32, Device::Cpu, 0);
        let seqs = vec![vec![0usize; 6]];
        let loss = model.lm_loss(&seqs, None).value().item();
        let uniform = (cfg.vocab as f32).ln();
        assert!(
            (loss - uniform).abs() < 0.5,
            "init loss {loss} vs ln|V| {uniform}"
        );
    }

    #[test]
    fn clusterable_names_cover_projections() {
        runtime::reset();
        let model = LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0);
        let names = model.clusterable_names();
        assert_eq!(names.len(), 7 + 1); // 7 per layer + lm_head
        assert!(names.iter().any(|n| n.contains("q_proj")));
        assert!(names.iter().all(|n| !n.contains("norm")));
        assert!(names.iter().all(|n| !n.contains("embed")));
    }

    #[test]
    fn native_size_counts_dtype() {
        runtime::reset();
        let cfg = LlamaConfig::tiny();
        let m16 = LlamaModel::new(cfg, DType::Bf16, Device::Cpu, 0);
        assert_eq!(m16.native_size_bytes(), 2 * cfg.param_count());
    }

    #[test]
    fn greedy_generation_extends_prompt() {
        runtime::reset();
        let model = LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0);
        let out = model.generate_greedy(&[1, 2], 3);
        assert_eq!(out.len(), 5);
        assert_eq!(&out[..2], &[1, 2]);
        assert!(out.iter().all(|&t| t < 16));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_panics() {
        runtime::reset();
        let model = LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0);
        model.lm_loss(&[vec![1, 2, 3], vec![1, 2]], None);
    }
}
