//! Bias-free linear projection (as in LLaMA).

use crate::{effective_weight, init, WeightHook};
use edkm_autograd::Var;
use edkm_tensor::{DType, Device};

/// `y = x Wᵀ` with a `[out, in]` weight, no bias.
#[derive(Debug)]
pub struct Linear {
    name: String,
    weight: Var,
    in_features: usize,
}

impl Linear {
    /// New projection with seeded Kaiming-uniform init.
    pub(crate) fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        dtype: DType,
        device: Device,
        seed: u64,
    ) -> Self {
        let weight = Var::param(init::kaiming_uniform(
            &[out_features, in_features],
            dtype,
            device,
            seed,
        ));
        Linear {
            name: name.into(),
            weight,
            in_features,
        }
    }

    /// Registered parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw weight parameter.
    pub fn weight(&self) -> &Var {
        &self.weight
    }

    /// Forward `[n, in] → [n, out]`, routing the weight through `hook`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, in]`.
    pub(crate) fn forward(&self, x: &Var, hook: Option<WeightHook<'_>>) -> Var {
        assert_eq!(
            x.value().shape().last(),
            Some(&self.in_features),
            "linear {}: input {:?} incompatible with in_features {}",
            self.name,
            x.value().shape(),
            self.in_features
        );
        crate::tap::record(&self.name, x.value());
        let w = effective_weight(hook, &self.name, &self.weight);
        x.matmul(&w.t())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::{runtime, Tensor};

    #[test]
    fn forward_shapes_and_grad() {
        runtime::reset();
        let lin = Linear::new("l", 4, 3, DType::F32, Device::Cpu, 0);
        let x = Var::constant(Tensor::randn(&[5, 4], DType::F32, Device::Cpu, 1));
        let y = lin.forward(&x, None);
        assert_eq!(y.value().shape(), &[5, 3]);
        y.sum_all().backward();
        assert_eq!(lin.weight().grad().unwrap().shape(), &[3, 4]);
    }

    #[test]
    fn hook_substitutes_weight() {
        runtime::reset();
        let lin = Linear::new("proj", 2, 2, DType::F32, Device::Cpu, 0);
        let x = Var::constant(Tensor::from_vec(
            vec![1.0, 1.0],
            &[1, 2],
            DType::F32,
            Device::Cpu,
        ));
        let zero_hook = |name: &str, w: &Var| -> Var {
            assert_eq!(name, "proj");
            Var::constant(Tensor::zeros(
                w.value().shape(),
                w.value().dtype(),
                w.value().device(),
            ))
        };
        let y = lin.forward(&x, Some(&zero_hook));
        assert_eq!(y.value().to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn wrong_input_panics() {
        runtime::reset();
        let lin = Linear::new("l", 4, 3, DType::F32, Device::Cpu, 0);
        let x = Var::constant(Tensor::zeros(&[5, 3], DType::F32, Device::Cpu));
        lin.forward(&x, None);
    }
}
