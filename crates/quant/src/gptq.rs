//! GPTQ: accurate one-shot weight quantization with second-order
//! information (Frantar et al., reimplemented from the algorithm).
//!
//! For each projection with weights `W [out, in]` and calibration inputs
//! `X [n, in]`:
//!
//! 1. `H = XᵀX + λI` (λ = 1% of the mean diagonal, "dampening");
//! 2. `U = upper Cholesky factor of H⁻¹`;
//! 3. sweep columns `j = 0..in`: quantize column `j` (per-group affine, the
//!    group parameters frozen when the sweep enters the group), compute the
//!    compensated error `e = (w_j − q_j)/U[j,j]`, and fold `e·U[j, j+1:]`
//!    into the not-yet-quantized columns.
//!
//! With no calibration the Hessian degenerates to `I` and GPTQ reduces to
//! RTN (which the tests assert).

use crate::common::{effective_group, group_quant_size_bytes, QuantResult, WeightQuantizer};
use crate::linalg::{cholesky_lower, gram, spd_inverse};
use edkm_tensor::{DType, Tensor};

/// The GPTQ quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GptqQuantizer {
    bits: u8,
    group: usize,
    damp_frac: f32,
}

impl GptqQuantizer {
    /// GPTQ at `bits` with `group` columns per scale (paper setting:
    /// `g128`).
    pub fn new(bits: u8, group: usize) -> Self {
        assert!((1..=8).contains(&bits), "gptq bits must be 1..=8");
        GptqQuantizer {
            bits,
            group,
            damp_frac: 0.01,
        }
    }

    fn quant_params(seg: &[f32], bits: u8) -> (f32, f32) {
        let levels = ((1u32 << bits) - 1) as f32;
        let lo = seg.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = seg.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let scale = if hi > lo { (hi - lo) / levels } else { 1.0 };
        (scale, lo)
    }

    fn quantize_value(v: f32, scale: f32, zero: f32, bits: u8) -> f32 {
        let levels = ((1u32 << bits) - 1) as f32;
        let q = ((v - zero) / scale).round().clamp(0.0, levels);
        q * scale + zero
    }
}

impl WeightQuantizer for GptqQuantizer {
    fn method_name(&self) -> String {
        if self.group == 0 {
            "GPTQ".to_string()
        } else {
            format!("GPTQ g{}", self.group)
        }
    }

    fn bits(&self) -> u8 {
        self.bits
    }

    fn quantize(&self, w: &Tensor, calib: Option<&Tensor>) -> QuantResult {
        assert_eq!(w.rank(), 2, "GPTQ expects [out, in]");
        let (rows, cols) = (w.shape()[0], w.shape()[1]);
        let g = effective_group(cols, self.group);

        // Hessian from calibration (identity when absent).
        let mut h = match calib {
            Some(x) => {
                assert_eq!(
                    *x.shape().last().expect("calib rank"),
                    cols,
                    "calibration width must match in_features"
                );
                let xr = x.numel() / cols;
                gram(&x.to_vec(), xr, cols)
            }
            None => {
                let mut eye = vec![0.0f32; cols * cols];
                for i in 0..cols {
                    eye[i * cols + i] = 1.0;
                }
                eye
            }
        };
        // Dead inputs + dampening.
        let mean_diag: f32 = (0..cols).map(|i| h[i * cols + i]).sum::<f32>() / cols as f32;
        let damp = (self.damp_frac * mean_diag).max(1e-6);
        for i in 0..cols {
            if h[i * cols + i] == 0.0 {
                h[i * cols + i] = 1.0;
            }
            h[i * cols + i] += damp;
        }

        // U = upper Cholesky factor of H^{-1} (row-major; U = Lᵀ of
        // chol(H^{-1})).
        let hinv = spd_inverse(&h, cols).expect("damped Hessian must be SPD");
        let l = cholesky_lower(&hinv, cols).expect("H^{-1} must be SPD");
        let u = |r: usize, c: usize| l[c * cols + r]; // transpose access

        let mut wd = w.to_vec();
        let mut params: Vec<(f32, f32)> = vec![(1.0, 0.0); rows];
        for j in 0..cols {
            if j % g == 0 {
                // Freeze group parameters from the current (compensated)
                // values of this group's columns.
                let gend = (j + g).min(cols);
                for (r, p) in params.iter_mut().enumerate() {
                    let seg: Vec<f32> = (j..gend).map(|c| wd[r * cols + c]).collect();
                    *p = Self::quant_params(&seg, self.bits);
                }
            }
            let ujj = u(j, j).max(1e-12);
            for r in 0..rows {
                let (scale, zero) = params[r];
                let v = wd[r * cols + j];
                let q = Self::quantize_value(v, scale, zero, self.bits);
                wd[r * cols + j] = q;
                let err = (v - q) / ujj;
                for c in (j + 1)..cols {
                    wd[r * cols + c] -= err * u(j, c);
                }
            }
        }

        QuantResult {
            dequantized: Tensor::from_vec(wd, &[rows, cols], DType::F32, w.device()),
            size_bytes: group_quant_size_bytes(rows, cols, self.bits, g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtn::RtnQuantizer;
    use edkm_tensor::{ops as t, runtime, Device};

    /// ‖X·Wᵀ − X·Ŵᵀ‖² on the calibration set — the loss GPTQ minimizes.
    fn output_mse(x: &Tensor, w: &Tensor, wq: &Tensor) -> f64 {
        let y = t::matmul(x, &w.t());
        let yq = t::matmul(x, &wq.t());
        y.to_vec()
            .iter()
            .zip(yq.to_vec())
            .map(|(a, b)| ((a - b) as f64).powi(2))
            .sum()
    }

    #[test]
    fn name_and_bits() {
        assert_eq!(GptqQuantizer::new(3, 128).method_name(), "GPTQ g128");
        assert_eq!(GptqQuantizer::new(4, 0).method_name(), "GPTQ");
        assert_eq!(GptqQuantizer::new(4, 0).bits(), 4);
    }

    #[test]
    fn without_calibration_matches_rtn_closely() {
        runtime::reset();
        // With H = I there is no error propagation beyond the dampening, so
        // GPTQ degenerates to per-group RTN.
        let w = Tensor::randn(&[4, 16], DType::F32, Device::Cpu, 0);
        let gptq = GptqQuantizer::new(4, 8).quantize(&w, None);
        let rtn = RtnQuantizer::new(4, 8).quantize(&w, None);
        assert!(t::allclose(&gptq.dequantized, &rtn.dequantized, 1e-4));
        assert_eq!(gptq.size_bytes, rtn.size_bytes);
    }

    #[test]
    fn beats_rtn_on_calibration_loss() {
        runtime::reset();
        // Anisotropic activations (some channels much louder) is where
        // second-order compensation pays off.
        let scales: Vec<f32> = (0..16)
            .map(|i| if i % 4 == 0 { 8.0 } else { 0.5 })
            .collect();
        let x_raw = Tensor::randn(&[128, 16], DType::F32, Device::Cpu, 1);
        let xd: Vec<f32> = x_raw
            .to_vec()
            .chunks(16)
            .flat_map(|row| {
                row.iter()
                    .zip(&scales)
                    .map(|(v, s)| v * s)
                    .collect::<Vec<_>>()
            })
            .collect();
        let x = Tensor::from_vec(xd, &[128, 16], DType::F32, Device::Cpu);
        let w = Tensor::randn(&[8, 16], DType::F32, Device::Cpu, 2);

        let gptq = GptqQuantizer::new(3, 0).quantize(&w, Some(&x));
        let rtn = RtnQuantizer::new(3, 0).quantize(&w, None);
        let e_gptq = output_mse(&x, &w, &gptq.dequantized);
        let e_rtn = output_mse(&x, &w, &rtn.dequantized);
        assert!(
            e_gptq < e_rtn,
            "GPTQ must beat RTN on calibration loss: {e_gptq} vs {e_rtn}"
        );
    }

    #[test]
    fn eight_bit_is_near_lossless() {
        runtime::reset();
        let x = Tensor::randn(&[64, 12], DType::F32, Device::Cpu, 3);
        let w = Tensor::randn(&[6, 12], DType::F32, Device::Cpu, 4);
        let q = GptqQuantizer::new(8, 0).quantize(&w, Some(&x));
        let rel = output_mse(&x, &w, &q.dequantized)
            / output_mse(&x, &w, &Tensor::zeros(&[6, 12], DType::F32, Device::Cpu));
        assert!(rel < 1e-4, "8-bit relative error {rel}");
    }

    #[test]
    fn handles_dead_channels() {
        runtime::reset();
        // One calibration channel is always zero.
        let mut xd = Tensor::randn(&[32, 8], DType::F32, Device::Cpu, 5).to_vec();
        for r in 0..32 {
            xd[r * 8 + 3] = 0.0;
        }
        let x = Tensor::from_vec(xd, &[32, 8], DType::F32, Device::Cpu);
        let w = Tensor::randn(&[4, 8], DType::F32, Device::Cpu, 6);
        let q = GptqQuantizer::new(4, 0).quantize(&w, Some(&x));
        assert!(q.dequantized.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn group_boundaries_respected() {
        runtime::reset();
        let x = Tensor::randn(&[64, 16], DType::F32, Device::Cpu, 7);
        let w = Tensor::randn(&[4, 16], DType::F32, Device::Cpu, 8);
        let q = GptqQuantizer::new(3, 4).quantize(&w, Some(&x));
        // 3 bits => at most 8 distinct values per (row, group).
        let d = q.dequantized.to_vec();
        for r in 0..4 {
            for gi in 0..4 {
                let seg: std::collections::HashSet<u32> =
                    (0..4).map(|c| d[r * 16 + gi * 4 + c].to_bits()).collect();
                assert!(seg.len() <= 8);
            }
        }
    }
}
