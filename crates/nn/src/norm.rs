//! RMS normalization layer (the LLaMA norm).

use edkm_autograd::Var;
use edkm_tensor::{DType, Device, Tensor};

/// `y = x / rms(x) ⊙ g` with a learned gain initialized to ones.
#[derive(Debug)]
pub struct RmsNorm {
    name: String,
    weight: Var,
    eps: f32,
}

impl RmsNorm {
    /// New norm over a last axis of size `dim`.
    pub(crate) fn new(name: impl Into<String>, dim: usize, dtype: DType, device: Device) -> Self {
        RmsNorm {
            name: name.into(),
            weight: Var::param(Tensor::ones(&[dim], dtype, device)),
            eps: 1e-5,
        }
    }

    /// Registered parameter name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The gain parameter.
    pub(crate) fn weight(&self) -> &Var {
        &self.weight
    }

    /// Forward over the last axis.
    pub(crate) fn forward(&self, x: &Var) -> Var {
        x.rmsnorm(&self.weight, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::runtime;

    #[test]
    fn unit_rms_output() {
        runtime::reset();
        let n = RmsNorm::new("norm", 8, DType::F32, Device::Cpu);
        let x = Var::constant(Tensor::randn(&[4, 8], DType::F32, Device::Cpu, 0).map(|v| v * 5.0));
        let y = n.forward(&x);
        for row in y.value().to_vec().chunks(8) {
            let ms = row.iter().map(|v| v * v).sum::<f32>() / 8.0;
            assert!((ms - 1.0).abs() < 1e-3, "rms must be ~1, got {}", ms.sqrt());
        }
    }

    #[test]
    fn gain_receives_grad() {
        runtime::reset();
        let n = RmsNorm::new("norm", 4, DType::F32, Device::Cpu);
        let x = Var::constant(Tensor::randn(&[2, 4], DType::F32, Device::Cpu, 1));
        n.forward(&x).sum_all().backward();
        assert!(n.weight().grad().is_some());
    }
}
