//! Shared quantizer interface and group-affine helpers.

use edkm_tensor::Tensor;

/// Output of quantizing one weight matrix.
#[derive(Debug, Clone)]
pub struct QuantResult {
    /// Dequantized ("fake-quantized") weights, same shape as the input.
    pub(crate) dequantized: Tensor,
    /// Serialized size: packed codes + quantization parameters.
    pub(crate) size_bytes: usize,
}

/// A post-training weight quantizer for `[out, in]` projection matrices.
pub trait WeightQuantizer {
    /// Method name as it appears in Table 3 ("RTN", "GPTQ g128", …).
    fn method_name(&self) -> String;

    /// Code bit width.
    fn bits(&self) -> u8;

    /// Quantize `w`, optionally using calibration activations `calib`
    /// (`[n, in]`, the inputs the projection sees).
    fn quantize(&self, w: &Tensor, calib: Option<&Tensor>) -> QuantResult;
}

/// Affine min–max quantize a row-segment in place: returns the dequantized
/// values of `vals` at `bits`.
pub(crate) fn affine_fake_quant(vals: &[f32], bits: u8) -> Vec<f32> {
    let levels = ((1u32 << bits) - 1) as f32;
    let lo = vals.iter().cloned().fold(f32::INFINITY, f32::min);
    let hi = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let scale = if hi > lo { (hi - lo) / levels } else { 1.0 };
    vals.iter()
        .map(|&v| {
            let q = ((v - lo) / scale).round().clamp(0.0, levels);
            q * scale + lo
        })
        .collect()
}

/// Serialized bytes of a `[rows, cols]` matrix quantized at `bits` with
/// per-(row, group) affine params stored at 16 bits each.
pub(crate) fn group_quant_size_bytes(rows: usize, cols: usize, bits: u8, group: usize) -> usize {
    let codes = (rows * cols * bits as usize).div_ceil(8);
    let groups_per_row = cols.div_ceil(group);
    codes + rows * groups_per_row * 2 * 2 // scale + zero, f16 each
}

/// Effective group size: `group = 0` means one group per row.
pub(crate) fn effective_group(cols: usize, group: usize) -> usize {
    if group == 0 || group > cols {
        cols
    } else {
        group
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn affine_fake_quant_error_bound() {
        let vals = vec![-1.0, -0.3, 0.2, 0.9];
        let dq = affine_fake_quant(&vals, 4);
        let scale = (0.9 - (-1.0)) / 15.0;
        for (v, d) in vals.iter().zip(&dq) {
            assert!((v - d).abs() <= scale / 2.0 + 1e-6);
        }
    }

    #[test]
    fn affine_preserves_extremes() {
        let vals = vec![-2.0, 0.0, 3.0];
        let dq = affine_fake_quant(&vals, 2);
        assert_eq!(dq[0], -2.0);
        assert_eq!(dq[2], 3.0);
    }

    #[test]
    fn constant_segment_is_exact() {
        let dq = affine_fake_quant(&[0.7; 10], 3);
        assert!(dq.iter().all(|&v| v == 0.7));
    }

    #[test]
    fn size_formula() {
        // 128 cols at 4 bits, group 128, 4 rows: 256B codes + 4 groups × 4B.
        assert_eq!(group_quant_size_bytes(4, 128, 4, 128), 256 + 16);
        assert_eq!(effective_group(64, 128), 64);
        assert_eq!(effective_group(256, 128), 128);
        assert_eq!(effective_group(256, 0), 256);
    }

    proptest! {
        /// Quantization error is at most half a step for any segment.
        #[test]
        fn prop_affine_half_step(vals in prop::collection::vec(-10.0f32..10.0, 1..64), bits in 2u8..8) {
            let dq = affine_fake_quant(&vals, bits);
            let lo = vals.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let levels = ((1u32 << bits) - 1) as f32;
            let step = if hi > lo { (hi - lo) / levels } else { 1.0 };
            for (v, d) in vals.iter().zip(&dq) {
                prop_assert!((v - d).abs() <= step / 2.0 + 1e-4);
            }
        }
    }
}
