//! SwiGLU feed-forward block (LLaMA MLP).

use crate::{Linear, WeightHook};
use edkm_autograd::Var;
use edkm_tensor::{DType, Device};

/// `down( silu(gate(x)) ⊙ up(x) )`.
#[derive(Debug)]
pub(crate) struct SwiGluMlp {
    gate_proj: Linear,
    up_proj: Linear,
    down_proj: Linear,
}

impl SwiGluMlp {
    /// Build with parameter names prefixed by `prefix` (e.g. `layers.0.mlp`).
    pub(crate) fn new(
        prefix: &str,
        d_model: usize,
        d_ff: usize,
        dtype: DType,
        device: Device,
        seed: u64,
    ) -> Self {
        SwiGluMlp {
            gate_proj: Linear::new(
                format!("{prefix}.gate_proj"),
                d_model,
                d_ff,
                dtype,
                device,
                seed,
            ),
            up_proj: Linear::new(
                format!("{prefix}.up_proj"),
                d_model,
                d_ff,
                dtype,
                device,
                seed + 1,
            ),
            down_proj: Linear::new(
                format!("{prefix}.down_proj"),
                d_ff,
                d_model,
                dtype,
                device,
                seed + 2,
            ),
        }
    }

    /// The three projections (for parameter registration).
    pub(crate) fn projections(&self) -> [&Linear; 3] {
        [&self.gate_proj, &self.up_proj, &self.down_proj]
    }

    /// Forward `[n, d] → [n, d]`.
    pub(crate) fn forward(&self, x: &Var, hook: Option<WeightHook<'_>>) -> Var {
        let gate = self.gate_proj.forward(x, hook).silu();
        let up = self.up_proj.forward(x, hook);
        self.down_proj.forward(&gate.mul(&up), hook)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::{runtime, Tensor};

    #[test]
    fn shapes_and_grads() {
        runtime::reset();
        let mlp = SwiGluMlp::new("m", 6, 12, DType::F32, Device::Cpu, 0);
        let x = Var::constant(Tensor::randn(&[3, 6], DType::F32, Device::Cpu, 1));
        let y = mlp.forward(&x, None);
        assert_eq!(y.value().shape(), &[3, 6]);
        y.sum_all().backward();
        for p in mlp.projections() {
            assert!(p.weight().grad().is_some(), "{} missing grad", p.name());
        }
    }

    #[test]
    fn zero_input_gives_zero_output() {
        runtime::reset();
        let mlp = SwiGluMlp::new("m", 4, 8, DType::F32, Device::Cpu, 0);
        let x = Var::constant(Tensor::zeros(&[2, 4], DType::F32, Device::Cpu));
        let y = mlp.forward(&x, None);
        assert!(y.value().to_vec().iter().all(|&v| v == 0.0));
    }
}
