//! Token embedding table.

use crate::init;
use edkm_autograd::Var;
use edkm_tensor::{DType, Device};

/// `[vocab, d]` lookup table.
#[derive(Debug)]
pub struct Embedding {
    name: String,
    weight: Var,
}

impl Embedding {
    /// New table with seeded normal(0, 0.02) init.
    pub(crate) fn new(
        name: impl Into<String>,
        vocab: usize,
        dim: usize,
        dtype: DType,
        device: Device,
        seed: u64,
    ) -> Self {
        let weight = Var::param(init::normal_init(&[vocab, dim], dtype, device, seed));
        Embedding {
            name: name.into(),
            weight,
        }
    }

    /// Registered parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw table parameter.
    pub(crate) fn weight(&self) -> &Var {
        &self.weight
    }

    /// Look up `ids`, producing `[ids.len(), d]`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary.
    pub(crate) fn forward(&self, ids: &[usize]) -> Var {
        self.weight.embedding(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::runtime;

    #[test]
    fn lookup_and_grad() {
        runtime::reset();
        let e = Embedding::new("tok", 10, 4, DType::F32, Device::Cpu, 0);
        let out = e.forward(&[1, 1, 3]);
        assert_eq!(out.value().shape(), &[3, 4]);
        out.sum_all().backward();
        let g = e.weight().grad().unwrap();
        // Row 1 hit twice, row 3 once, others zero.
        assert_eq!(g.get(&[1, 0]), 2.0);
        assert_eq!(g.get(&[3, 0]), 1.0);
        assert_eq!(g.get(&[0, 0]), 0.0);
        assert_eq!(e.weight().value().shape(), &[10, 4]);
        assert_eq!(e.name(), "tok");
    }
}
