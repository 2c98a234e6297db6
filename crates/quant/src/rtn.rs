//! Round-to-nearest (RTN) uniform quantization.

use crate::common::{
    affine_fake_quant, effective_group, group_quant_size_bytes, QuantResult, WeightQuantizer,
};
use edkm_tensor::{DType, Tensor};

/// Per-group affine min–max quantizer (the simplest PTQ baseline in
/// Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtnQuantizer {
    bits: u8,
    /// Group size along the input dimension; 0 = per-row.
    group: usize,
}

impl RtnQuantizer {
    /// New RTN at `bits` with `group` columns per scale (0 = whole row).
    pub fn new(bits: u8, group: usize) -> Self {
        assert!((1..=8).contains(&bits), "rtn bits must be 1..=8");
        RtnQuantizer { bits, group }
    }

    /// Fake-quantize an arbitrary tensor (used by LLM-QAT's STE forward):
    /// rows are the leading dim, groups along the trailing dim.
    pub(crate) fn fake_quant_tensor(&self, w: &Tensor) -> Tensor {
        let cols = *w.shape().last().expect("rank >= 1");
        let g = effective_group(cols, self.group);
        let data = w.to_vec();
        let mut out = Vec::with_capacity(data.len());
        for row in data.chunks(cols) {
            for seg in row.chunks(g) {
                out.extend(affine_fake_quant(seg, self.bits));
            }
        }
        Tensor::from_vec(out, w.shape(), DType::F32, w.device())
    }
}

impl WeightQuantizer for RtnQuantizer {
    fn method_name(&self) -> String {
        if self.group == 0 {
            "RTN".to_string()
        } else {
            format!("RTN g{}", self.group)
        }
    }

    fn bits(&self) -> u8 {
        self.bits
    }

    fn quantize(&self, w: &Tensor, _calib: Option<&Tensor>) -> QuantResult {
        assert_eq!(w.rank(), 2, "RTN expects [out, in]");
        let (rows, cols) = (w.shape()[0], w.shape()[1]);
        let g = effective_group(cols, self.group);
        QuantResult {
            dequantized: self.fake_quant_tensor(w),
            size_bytes: group_quant_size_bytes(rows, cols, self.bits, g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::{runtime, Device};

    #[test]
    fn name_and_bits() {
        assert_eq!(RtnQuantizer::new(4, 0).method_name(), "RTN");
        assert_eq!(RtnQuantizer::new(3, 128).method_name(), "RTN g128");
        assert_eq!(RtnQuantizer::new(3, 128).bits(), 3);
    }

    #[test]
    fn error_bounded_by_group_range() {
        runtime::reset();
        let w = Tensor::randn(&[8, 32], DType::F32, Device::Cpu, 0);
        let q = RtnQuantizer::new(4, 8).quantize(&w, None);
        let orig = w.to_vec();
        let deq = q.dequantized.to_vec();
        for (r, (o_row, d_row)) in orig.chunks(32).zip(deq.chunks(32)).enumerate() {
            for (gi, (o_seg, d_seg)) in o_row.chunks(8).zip(d_row.chunks(8)).enumerate() {
                let lo = o_seg.iter().cloned().fold(f32::INFINITY, f32::min);
                let hi = o_seg.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let step = (hi - lo) / 15.0;
                for (o, d) in o_seg.iter().zip(d_seg) {
                    assert!((o - d).abs() <= step / 2.0 + 1e-6, "row {r} group {gi}");
                }
            }
        }
    }

    #[test]
    fn more_bits_means_less_error() {
        runtime::reset();
        let w = Tensor::randn(&[16, 64], DType::F32, Device::Cpu, 1);
        let err = |bits: u8| {
            let q = RtnQuantizer::new(bits, 0).quantize(&w, None);
            edkm_tensor::ops::max_abs_diff(&w, &q.dequantized)
        };
        assert!(err(8) < err(4));
        assert!(err(4) < err(2));
    }

    #[test]
    fn smaller_groups_mean_less_error_more_bytes() {
        runtime::reset();
        let w = Tensor::randn(&[16, 64], DType::F32, Device::Cpu, 2);
        let fine = RtnQuantizer::new(3, 8).quantize(&w, None);
        let coarse = RtnQuantizer::new(3, 0).quantize(&w, None);
        let mse = |q: &QuantResult| {
            let d = q.dequantized.to_vec();
            w.to_vec()
                .iter()
                .zip(&d)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        assert!(mse(&fine) < mse(&coarse));
        assert!(fine.size_bytes > coarse.size_bytes);
    }

    #[test]
    fn size_accounting() {
        runtime::reset();
        let w = Tensor::randn(&[4, 128], DType::F32, Device::Cpu, 3);
        let q = RtnQuantizer::new(4, 128).quantize(&w, None);
        assert_eq!(q.size_bytes, (4 * 128 * 4) / 8 + 4 * 4);
    }
}
