//! Whole-model quantization with tapped calibration, and Table 3-style
//! size accounting.

use crate::common::WeightQuantizer;
use edkm_autograd::no_grad;
use edkm_nn::{tap, LlamaModel};
use edkm_tensor::Tensor;
use std::collections::HashMap;

/// Per-model quantization summary.
#[derive(Debug, Clone)]
pub struct ModelQuantReport {
    /// Method name (Table 3 row label).
    pub method: String,
    /// Code bit width.
    pub bits: u8,
    /// Serialized model bytes (quantized projections + 16-bit embeddings
    /// and norms, as the PTQ baselines ship them).
    pub size_bytes: usize,
}

/// Run `windows` through the model under `no_grad` with the activation tap
/// armed, returning per-projection calibration matrices (truncated to at
/// most `max_rows` rows each).
pub fn capture_calibration(
    model: &LlamaModel,
    windows: &[Vec<usize>],
    max_rows: usize,
) -> HashMap<String, Tensor> {
    let _ng = no_grad();
    tap::start();
    for w in windows {
        let t = w.len().min(model.config().max_seq);
        model.logits(&w[..t], 1, t, None);
    }
    let captured = tap::stop();
    let mut out = HashMap::new();
    for name in captured.keys() {
        if let Some(x) = tap::concat_inputs(&captured, name) {
            let rows = x.shape()[0].min(max_rows);
            out.insert(name.clone(), x.slice(0, 0, rows).contiguous());
        }
    }
    out
}

/// Quantize every clusterable projection of `model` **in place** (weights
/// are replaced by their dequantized values) and return the size report.
///
/// Embeddings and norms are left at 16 bits, matching how the PTQ baselines
/// in Table 3 ship their models (eDKM's 8-bit embeddings are why its model
/// is smaller).
pub fn quantize_model(
    model: &LlamaModel,
    quantizer: &dyn WeightQuantizer,
    calib: Option<&HashMap<String, Tensor>>,
) -> ModelQuantReport {
    let clusterable: std::collections::HashSet<String> =
        model.clusterable_names().into_iter().collect();
    let mut size_bytes = 0usize;
    for (name, var) in model.named_params() {
        if clusterable.contains(&name) {
            let w = var.value().clone();
            let x = calib.and_then(|c| c.get(&name));
            let result = quantizer.quantize(&w, x);
            let dq = result.dequantized.to_vec();
            var.value().apply_inplace(|i, _| dq[i]);
            size_bytes += result.size_bytes;
        } else {
            // Embedding + norms stay 16-bit.
            size_bytes += var.value().numel() * 2;
        }
    }
    ModelQuantReport {
        method: quantizer.method_name(),
        bits: quantizer.bits(),
        size_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtn::RtnQuantizer;
    use edkm_nn::LlamaConfig;
    use edkm_tensor::{DType, Device};

    fn model() -> LlamaModel {
        edkm_tensor::runtime::reset();
        LlamaModel::new(LlamaConfig::tiny(), DType::F32, Device::Cpu, 0)
    }

    #[test]
    fn calibration_covers_every_projection() {
        let m = model();
        let windows = vec![vec![1usize, 2, 3, 4, 5, 6]];
        let calib = capture_calibration(&m, &windows, 64);
        for name in m.clusterable_names() {
            let x = calib.get(&name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(x.rank(), 2);
            assert!(x.shape()[0] > 0);
        }
    }

    #[test]
    fn calibration_respects_max_rows() {
        let m = model();
        let windows = vec![vec![1usize; 8], vec![2usize; 8]];
        let calib = capture_calibration(&m, &windows, 5);
        for x in calib.values() {
            assert!(x.shape()[0] <= 5);
        }
    }

    #[test]
    fn quantize_model_replaces_weights_and_counts_size() {
        let m = model();
        let before = m.layers()[0].projections()[0].weight().value().to_vec();
        let rtn = RtnQuantizer::new(3, 0);
        let report = quantize_model(&m, &rtn, None);
        let after = m.layers()[0].projections()[0].weight().value().to_vec();
        assert_ne!(before, after, "weights must change");
        // 3-bit weights: at most 8 distinct values per row.
        let unique: std::collections::HashSet<u32> =
            after.iter().take(8).map(|v| v.to_bits()).collect();
        assert!(unique.len() <= 8);
        assert_eq!(report.method, "RTN");
        assert!(report.size_bytes > 0);
        // Smaller than the native 16-bit model.
        assert!(report.size_bytes < m.native_size_bytes());
    }

    #[test]
    fn four_bit_model_is_larger_than_three_bit() {
        let m3 = model();
        let m4 = model();
        let r3 = quantize_model(&m3, &RtnQuantizer::new(3, 0), None);
        let r4 = quantize_model(&m4, &RtnQuantizer::new(4, 0), None);
        assert!(r4.size_bytes > r3.size_bytes);
    }
}
