//! One pre-norm decoder layer: attention and MLP with residuals.

use crate::mlp::SwiGluMlp;
use crate::{CausalSelfAttention, Linear, RmsNorm, WeightHook};
use edkm_autograd::Var;
use edkm_tensor::{DType, Device};

/// `x += attn(norm1(x)); x += mlp(norm2(x))`.
#[derive(Debug)]
pub struct DecoderLayer {
    input_norm: RmsNorm,
    attn: CausalSelfAttention,
    post_norm: RmsNorm,
    mlp: SwiGluMlp,
}

impl DecoderLayer {
    /// Build layer `index` of a model.
    #[allow(clippy::too_many_arguments)] // explicit geometry beats a config struct here
    pub(crate) fn new(
        index: usize,
        d_model: usize,
        n_heads: usize,
        d_ff: usize,
        rope_theta: f32,
        dtype: DType,
        device: Device,
        seed: u64,
    ) -> Self {
        let prefix = format!("layers.{index}");
        DecoderLayer {
            input_norm: RmsNorm::new(format!("{prefix}.input_norm"), d_model, dtype, device),
            attn: CausalSelfAttention::new(
                &format!("{prefix}.attn"),
                d_model,
                n_heads,
                rope_theta,
                dtype,
                device,
                seed,
            ),
            post_norm: RmsNorm::new(format!("{prefix}.post_norm"), d_model, dtype, device),
            mlp: SwiGluMlp::new(
                &format!("{prefix}.mlp"),
                d_model,
                d_ff,
                dtype,
                device,
                seed + 10,
            ),
        }
    }

    /// The two norms.
    pub(crate) fn norms(&self) -> [&RmsNorm; 2] {
        [&self.input_norm, &self.post_norm]
    }

    /// All seven projection weights of this layer.
    pub fn projections(&self) -> Vec<&Linear> {
        let mut v: Vec<&Linear> = self.attn.projections().to_vec();
        v.extend(self.mlp.projections());
        v
    }

    /// Forward `[b·t, d] → [b·t, d]`.
    pub(crate) fn forward(&self, x: &Var, b: usize, t: usize, hook: Option<WeightHook<'_>>) -> Var {
        let h = x.add(&self.attn.forward(&self.input_norm.forward(x), b, t, hook));
        h.add(&self.mlp.forward(&self.post_norm.forward(&h), hook))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::{runtime, Tensor};

    #[test]
    fn forward_and_backward() {
        runtime::reset();
        let layer = DecoderLayer::new(0, 8, 2, 16, 10000.0, DType::F32, Device::Cpu, 0);
        let x = Var::constant(Tensor::randn(&[4, 8], DType::F32, Device::Cpu, 1));
        let y = layer.forward(&x, 1, 4, None);
        assert_eq!(y.value().shape(), &[4, 8]);
        y.sum_all().backward();
        assert_eq!(layer.projections().len(), 7);
        for p in layer.projections() {
            assert!(p.weight().grad().is_some(), "{} missing grad", p.name());
        }
        for n in layer.norms() {
            assert!(n.weight().grad().is_some(), "{} missing grad", n.name());
        }
    }

    #[test]
    fn residual_keeps_signal() {
        runtime::reset();
        // With zeroed projections the layer must be the identity (residuals).
        let layer = DecoderLayer::new(0, 8, 2, 16, 10000.0, DType::F32, Device::Cpu, 0);
        let zero_hook = |_: &str, w: &Var| -> Var {
            Var::constant(Tensor::zeros(
                w.value().shape(),
                w.value().dtype(),
                w.value().device(),
            ))
        };
        let x = Tensor::randn(&[4, 8], DType::F32, Device::Cpu, 2);
        let y = layer.forward(&Var::constant(x.clone()), 1, 4, Some(&zero_hook));
        assert!(edkm_tensor::ops::allclose(y.value(), &x, 1e-6));
    }
}
