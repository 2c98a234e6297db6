//! End-to-end train-time compression pipeline: fine-tune with DKM soft
//! clustering under eDKM hooks, then export a palettized model.
//!
//! This reproduces the paper's Section 3 workflow: fine-tune a pretrained
//! model on an instruction set while clustering every decoder projection to
//! `2^bits` centroids, keep embeddings at 8 bits and norms at 16 bits, and
//! ship `LUT + packed indices`.

use crate::dkm::{DkmConfig, DkmLayer};
use crate::hooks::{EdkmConfig, EdkmHooks, HookStatsSnapshot};
use crate::palettize::{native16_size_bytes, AffineQuantized, GroupedPalettized, PalettizedTensor};
use crate::uniquify;
use edkm_autograd::{push_hooks, SavedTensorHooks, Var};
use edkm_nn::{LlamaModel, LmBatch, TrainConfig, Trainer};
use std::collections::HashSet;
use std::sync::Arc;

/// What the pipeline does to each parameter class.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressSpec {
    /// Palette bits for decoder projections and the LM head (paper: 3).
    pub bits: u8,
    /// Affine bits for embedding tables (paper: 8).
    pub(crate) embedding_bits: u8,
    /// DKM clustering hyper-parameters.
    pub dkm: DkmConfig,
    /// eDKM memory-optimization configuration for the fine-tune.
    pub edkm: EdkmConfig,
    /// Optimizer/trainer settings (paper: AdamW 5e-5, clip 1.0).
    pub train: TrainConfig,
    /// Fine-tuning epochs over the provided batches (paper: 2).
    pub epochs: usize,
    /// Per-epoch multiplier on the DKM softmax temperature τ (the DKM
    /// paper's annealing: τ shrinks over training, so the attention map
    /// sharpens and soft weights harden toward their centroids before
    /// export). 1.0 (the default) keeps τ constant.
    pub tau_anneal: f32,
    /// Rows per LUT group at export (per-grouped-channel palettization).
    /// 0 (the default) keeps one whole-matrix LUT, the paper's setting.
    pub lut_group_rows: usize,
}

impl CompressSpec {
    /// The paper's headline configuration: 3-bit weights, 8-bit embeddings,
    /// full eDKM, 2 epochs.
    pub(crate) fn paper_3bit() -> Self {
        CompressSpec {
            bits: 3,
            embedding_bits: 8,
            dkm: DkmConfig::with_bits(3),
            edkm: EdkmConfig::full(8),
            train: TrainConfig::default(),
            epochs: 2,
            tau_anneal: 1.0,
            lut_group_rows: 0,
        }
    }

    /// Same pipeline at a different palette width.
    pub fn with_bits(bits: u8) -> Self {
        CompressSpec {
            bits,
            dkm: DkmConfig::with_bits(bits),
            ..Self::paper_3bit()
        }
    }

    /// The lossless "u16 case": projections keep a 2¹⁶-entry distinct-value
    /// palette ([`PalettizedTensor::lossless`]) and the embedding stays
    /// native, so a bf16 model round-trips bit-exactly through the
    /// container — the configuration the serving parity suite pins against
    /// dense generation.
    pub fn lossless() -> Self {
        CompressSpec {
            bits: 16,
            embedding_bits: 0,
            epochs: 0,
            ..Self::paper_3bit()
        }
    }

    /// Vector-palettization preset (extension beyond the paper): `2^bits`
    /// centroids of dimension `dim`, i.e. `bits / dim` effective bits per
    /// weight — e.g. `vector(4, 2)` reaches 2 bits/weight.
    pub fn vector(bits: u8, dim: usize) -> Self {
        CompressSpec {
            bits,
            dkm: DkmConfig::with_vector(bits, dim),
            ..Self::paper_3bit()
        }
    }

    /// DKM config at the palette width [`CompressSpec::bits`], which every
    /// clusterable parameter shares.
    fn dkm_config(&self) -> DkmConfig {
        DkmConfig {
            bits: self.bits,
            ..self.dkm
        }
    }

    /// DKM config for the parameter `_name` at `epoch` (0-based), with the
    /// annealed temperature `τ · tau_anneal^epoch`.
    pub fn dkm_for_epoch(&self, _name: &str, epoch: usize) -> DkmConfig {
        let mut cfg = self.dkm_config();
        cfg.temperature *= self.tau_anneal.powi(epoch as i32).max(1e-6);
        cfg
    }
}

/// One compressed parameter.
#[derive(Debug, Clone)]
pub enum CompressedTensor {
    /// Clustered projection: LUT + packed indices.
    Palettized(PalettizedTensor),
    /// Clustered projection with per-row-group LUTs (extension:
    /// per-grouped-channel palettization).
    PalettizedGrouped(GroupedPalettized),
    /// Affine-quantized embedding.
    Affine(AffineQuantized),
    /// Kept at 16 bits (norm gains).
    Native {
        /// Raw values.
        values: Vec<f32>,
        /// Original shape.
        shape: Vec<usize>,
    },
}

impl CompressedTensor {
    /// Serialized bytes of this entry.
    pub fn size_bytes(&self) -> usize {
        match self {
            CompressedTensor::Palettized(p) => p.size_bytes(),
            CompressedTensor::PalettizedGrouped(g) => g.size_bytes(),
            CompressedTensor::Affine(a) => a.size_bytes(),
            CompressedTensor::Native { values, .. } => native16_size_bytes(values.len()),
        }
    }

    /// Decode to dense values.
    pub fn decode_values(&self) -> Vec<f32> {
        match self {
            CompressedTensor::Palettized(p) => p.decode().to_vec(),
            CompressedTensor::PalettizedGrouped(g) => g.decode().to_vec(),
            CompressedTensor::Affine(a) => a.decode().to_vec(),
            CompressedTensor::Native { values, .. } => values.clone(),
        }
    }
}

/// A fully compressed model: every parameter by name.
#[derive(Debug, Clone, Default)]
pub struct CompressedModel {
    entries: Vec<(String, CompressedTensor)>,
}

impl CompressedModel {
    /// Rebuild from entries (used by deserialization).
    pub fn from_entries(entries: Vec<(String, CompressedTensor)>) -> Self {
        CompressedModel { entries }
    }

    /// The entries in registration order.
    pub fn entries(&self) -> &[(String, CompressedTensor)] {
        &self.entries
    }

    /// Total serialized bytes.
    pub fn size_bytes(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.size_bytes()).sum()
    }

    /// Total serialized bytes when palettized entries ship Huffman-coded
    /// indices (extension; other entry kinds are unchanged).
    pub fn entropy_size_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, e)| match e {
                CompressedTensor::Palettized(p) => p.entropy_size_bytes(),
                CompressedTensor::PalettizedGrouped(g) => g.entropy_size_bytes(),
                other => other.size_bytes(),
            })
            .sum()
    }

    /// Write decoded values back into a live model's parameters (for
    /// evaluating the compressed model).
    ///
    /// # Panics
    ///
    /// Panics if a named parameter is missing or has the wrong size.
    pub fn apply_to(&self, model: &LlamaModel) {
        let params = model.named_params();
        for (name, entry) in &self.entries {
            let (_, var) = params
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("model has no parameter named {name}"));
            let values = entry.decode_values();
            assert_eq!(
                values.len(),
                var.value().numel(),
                "size mismatch for {name}"
            );
            var.value().apply_inplace(|i, _| values[i]);
        }
    }
}

/// Result of a fine-tune-and-compress run.
#[derive(Debug)]
pub struct CompressResult {
    /// The exported compressed model.
    pub compressed: CompressedModel,
    /// Per-step training losses.
    pub losses: Vec<f32>,
    /// Hook statistics of the final training step.
    pub final_step_stats: Option<HookStatsSnapshot>,
}

/// The train-time compression pipeline.
#[derive(Debug, Clone)]
pub struct CompressionPipeline {
    spec: CompressSpec,
}

impl CompressionPipeline {
    /// Pipeline with the given spec.
    pub fn new(spec: CompressSpec) -> Self {
        CompressionPipeline { spec }
    }

    /// Fine-tune `model` on `batches` with DKM clustering substituted into
    /// every clusterable projection, then export the compressed model.
    pub fn fine_tune_and_compress(
        &self,
        model: &LlamaModel,
        batches: &[LmBatch],
    ) -> CompressResult {
        let clusterable: HashSet<String> = model.clusterable_names().into_iter().collect();
        let params = model.params();
        let mut trainer = Trainer::new(self.spec.train);
        let mut final_step_stats = None;

        for epoch in 0..self.spec.epochs {
            for batch in batches {
                uniquify::clear_annotations();
                let hooks = Arc::new(EdkmHooks::new(self.spec.edkm));
                let stats_handle = Arc::clone(&hooks);
                {
                    let _guard = push_hooks(hooks as Arc<dyn SavedTensorHooks>);
                    let hook = |name: &str, w: &Var| -> Var {
                        if clusterable.contains(name) {
                            DkmLayer::new(self.spec.dkm_for_epoch(name, epoch))
                                .cluster(w)
                                .soft
                        } else {
                            w.clone()
                        }
                    };
                    trainer.step(model, batch, &params, Some(&hook));
                }
                final_step_stats = Some(stats_handle.stats());
            }
        }
        uniquify::clear_annotations();

        CompressResult {
            compressed: self.export(model),
            losses: trainer.losses().to_vec(),
            final_step_stats,
        }
    }

    /// Export the current parameters of `model` as a compressed model
    /// (no training).
    ///
    /// # Panics
    ///
    /// Panics if the spec asks for a lossless (≥ 16-bit) palette on a
    /// parameter with more than 2¹⁶ distinct values (e.g. a large f32
    /// model) — 16-bit source weights always fit.
    pub fn export(&self, model: &LlamaModel) -> CompressedModel {
        let clusterable: HashSet<String> = model.clusterable_names().into_iter().collect();
        let embed_name = model.embedding().name().to_string();
        let mut entries = Vec::new();
        for (name, var) in model.named_params() {
            let value = var.value().clone();
            let entry = if clusterable.contains(&name) {
                if self.spec.bits >= 16 {
                    // The lossless u16 case: no clustering, the palette is
                    // the distinct-value set itself.
                    CompressedTensor::Palettized(PalettizedTensor::lossless(&value))
                } else {
                    let dkm = DkmLayer::new(self.spec.dkm_config());
                    if self.spec.lut_group_rows > 0 && value.rank() == 2 {
                        CompressedTensor::PalettizedGrouped(
                            dkm.palettize_grouped(&value, self.spec.lut_group_rows),
                        )
                    } else {
                        CompressedTensor::Palettized(dkm.palettize(&value))
                    }
                }
            } else if name == embed_name && self.spec.embedding_bits > 0 {
                CompressedTensor::Affine(AffineQuantized::encode(&value, self.spec.embedding_bits))
            } else {
                CompressedTensor::Native {
                    values: value.to_vec(),
                    shape: value.shape().to_vec(),
                }
            };
            entries.push((name, entry));
        }
        CompressedModel { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_nn::LlamaConfig;
    use edkm_tensor::{runtime, DType, Device};

    fn tiny_model() -> LlamaModel {
        LlamaModel::new(LlamaConfig::tiny(), DType::Bf16, Device::Cpu, 0)
    }

    fn quick_spec() -> CompressSpec {
        let mut spec = CompressSpec::with_bits(3);
        spec.epochs = 1;
        spec.edkm = EdkmConfig::full(2);
        spec.dkm.iters = 3;
        spec
    }

    #[test]
    fn export_compresses_every_parameter() {
        runtime::reset();
        let model = tiny_model();
        let pipeline = CompressionPipeline::new(quick_spec());
        let compressed = pipeline.export(&model);
        assert_eq!(compressed.entries().len(), model.named_params().len());
        // Projections palettized, embedding affine, norms native.
        let mut pal = 0;
        let mut aff = 0;
        let mut nat = 0;
        for (name, e) in compressed.entries() {
            match e {
                CompressedTensor::Palettized(p) => {
                    pal += 1;
                    assert_eq!(p.bits(), 3, "{name}");
                }
                CompressedTensor::PalettizedGrouped(_) => {
                    panic!("{name}: grouped LUTs need lut_group_rows > 0")
                }
                CompressedTensor::Affine(a) => {
                    aff += 1;
                    assert_eq!(a.bits(), 8, "{name}");
                }
                CompressedTensor::Native { .. } => nat += 1,
            }
        }
        assert_eq!(pal, 8); // 7 per layer + lm_head
        assert_eq!(aff, 1); // embedding
        assert_eq!(nat, 3); // 2 layer norms + final norm
    }

    #[test]
    fn compressed_size_beats_native_16bit() {
        runtime::reset();
        let model = tiny_model();
        let pipeline = CompressionPipeline::new(quick_spec());
        let compressed = pipeline.export(&model);
        let native = model.native_size_bytes();
        let ratio = native as f64 / compressed.size_bytes() as f64;
        assert!(
            ratio > 2.0,
            "3-bit model must be much smaller: {native} -> {} ({ratio:.2}x)",
            compressed.size_bytes()
        );
    }

    #[test]
    fn apply_to_restores_lut_values() {
        runtime::reset();
        let model = tiny_model();
        let pipeline = CompressionPipeline::new(quick_spec());
        let compressed = pipeline.export(&model);
        let target = tiny_model();
        compressed.apply_to(&target);
        // Every projection weight now takes at most 8 distinct values.
        for layer in target.layers() {
            for p in layer.projections() {
                let unique: std::collections::HashSet<u32> = p
                    .weight()
                    .value()
                    .to_vec()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert!(
                    unique.len() <= 8,
                    "{} has {} values",
                    p.name(),
                    unique.len()
                );
            }
        }
    }

    #[test]
    fn fine_tune_and_compress_trains_and_reports_stats() {
        runtime::reset();
        let model = tiny_model();
        let batches = vec![LmBatch::new(vec![
            vec![1, 2, 3, 4, 1, 2],
            vec![3, 4, 1, 2, 3, 4],
        ])];
        let pipeline = CompressionPipeline::new(quick_spec());
        let result = pipeline.fine_tune_and_compress(&model, &batches);
        assert_eq!(result.losses.len(), 1);
        assert!(result.losses[0].is_finite());
        let stats = result.final_step_stats.expect("stats recorded");
        assert!(stats.packs > 0);
        assert!(
            stats.direct_hits + stats.walk_hits > 0,
            "DKM's repeated attention-map saves must dedup: {stats:?}"
        );
        assert!(result.compressed.size_bytes() > 0);
    }

    #[test]
    fn entropy_size_never_beats_information_but_tracks_packed() {
        runtime::reset();
        let model = tiny_model();
        let compressed = CompressionPipeline::new(quick_spec()).export(&model);
        let packed = compressed.size_bytes();
        let entropy = compressed.entropy_size_bytes();
        // Non-palettized entries are identical; palettized entries pay at
        // most the code-length table + ≤1 bit/idx over entropy, and near-
        // uniform DKM assignments sit close to the fixed width.
        assert!(entropy > 0);
        assert!(
            (entropy as f64) < packed as f64 * 1.25,
            "entropy-coded {entropy} should stay near packed {packed}"
        );
    }

    #[test]
    fn tau_anneal_schedule_math() {
        let mut spec = quick_spec();
        spec.dkm.temperature = 0.08;
        spec.tau_anneal = 0.5;
        assert!((spec.dkm_for_epoch("q_proj", 0).temperature - 0.08).abs() < 1e-7);
        assert!((spec.dkm_for_epoch("q_proj", 1).temperature - 0.04).abs() < 1e-7);
        assert!((spec.dkm_for_epoch("q_proj", 2).temperature - 0.02).abs() < 1e-7);
        // Default: constant.
        let spec = quick_spec();
        assert_eq!(
            spec.dkm_for_epoch("q_proj", 7).temperature,
            spec.dkm.temperature
        );
    }

    #[test]
    fn annealed_fine_tune_runs_and_exports() {
        runtime::reset();
        let model = tiny_model();
        let batches = vec![LmBatch::new(vec![vec![1, 2, 3, 4, 1, 2]])];
        let mut spec = quick_spec();
        spec.epochs = 3;
        spec.tau_anneal = 0.5; // τ halves each epoch: assignments sharpen
        let result = CompressionPipeline::new(spec).fine_tune_and_compress(&model, &batches);
        assert_eq!(result.losses.len(), 3);
        assert!(result.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn vector_clustering_pipeline_roundtrips() {
        runtime::reset();
        let model = tiny_model();
        let mut spec = quick_spec();
        spec.dkm.cluster_dim = 2; // block palettization: 2-vectors per entry
        let compressed = CompressionPipeline::new(spec).export(&model);
        let target = tiny_model();
        compressed.apply_to(&target);
        // 8 centroids of 2 values: at most 16 distinct scalars per matrix.
        let w = target.layers()[0].projections()[0]
            .weight()
            .value()
            .to_vec();
        let uniq: std::collections::HashSet<u32> = w.iter().map(|v| v.to_bits()).collect();
        assert!(uniq.len() <= 16, "vector palette too rich: {}", uniq.len());
        // Serialization handles vector palettes too.
        let back = CompressedModel::from_bytes(&compressed.to_bytes()).unwrap();
        assert_eq!(back.entries().len(), compressed.entries().len());
    }

    #[test]
    fn grouped_lut_export_roundtrips_through_bytes() {
        runtime::reset();
        let model = tiny_model();
        let mut spec = quick_spec();
        spec.lut_group_rows = 4; // per-grouped-channel palettization
        let compressed = CompressionPipeline::new(spec).export(&model);
        let grouped_count = compressed
            .entries()
            .iter()
            .filter(|(_, e)| matches!(e, CompressedTensor::PalettizedGrouped(_)))
            .count();
        assert_eq!(grouped_count, 8, "all projections become grouped entries");

        // Serialization handles the grouped tag.
        let back = CompressedModel::from_bytes(&compressed.to_bytes()).unwrap();
        for ((n1, e1), (n2, e2)) in compressed.entries().iter().zip(back.entries()) {
            assert_eq!(n1, n2);
            assert_eq!(e1.decode_values(), e2.decode_values(), "entry {n1}");
        }

        // And apply_to restores a runnable model with per-group palettes.
        let target = tiny_model();
        back.apply_to(&target);
        let w = target.layers()[0].projections()[0].weight().value();
        let uniq: std::collections::HashSet<u32> = w.to_vec().iter().map(|v| v.to_bits()).collect();
        // tiny d_model=8 rows split into groups of 4: 2 groups × ≤8 values.
        assert!(uniq.len() <= 16, "got {} distinct values", uniq.len());
    }

    #[test]
    fn fine_tuning_with_clustering_reduces_loss() {
        runtime::reset();
        let model = tiny_model();
        let batch = LmBatch::new(vec![vec![1, 2, 3, 1, 2, 3, 1, 2]]);
        let mut spec = quick_spec();
        spec.epochs = 25;
        spec.train.optim.lr = 5e-3;
        let pipeline = CompressionPipeline::new(spec);
        let result = pipeline.fine_tune_and_compress(&model, &[batch]);
        let first = result.losses[0];
        let last = *result.losses.last().unwrap();
        assert!(
            last < first,
            "clustered fine-tuning should reduce loss: {first} -> {last}"
        );
    }
}
