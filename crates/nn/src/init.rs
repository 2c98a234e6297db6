//! Weight initialization helpers (seeded, deterministic).

use edkm_tensor::{DType, Device, Tensor};

/// GPT-style normal init with std 0.02.
pub(crate) fn normal_init(shape: &[usize], dtype: DType, device: Device, seed: u64) -> Tensor {
    scaled_normal(shape, 0.02, dtype, device, seed)
}

/// Normal init with explicit standard deviation.
pub(crate) fn scaled_normal(
    shape: &[usize],
    std: f32,
    dtype: DType,
    device: Device,
    seed: u64,
) -> Tensor {
    let t = Tensor::randn(shape, DType::F32, device, seed);
    t.map(|v| v * std).cast(dtype)
}

/// Kaiming-uniform-ish init for a `[out, in]` projection: U(−b, b) with
/// `b = 1/sqrt(in)`.
pub(crate) fn kaiming_uniform(shape: &[usize], dtype: DType, device: Device, seed: u64) -> Tensor {
    let fan_in = *shape.last().expect("kaiming needs a shape") as f32;
    let bound = 1.0 / fan_in.sqrt();
    Tensor::uniform(shape, -bound, bound, dtype, device, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::runtime;

    #[test]
    fn normal_init_std_is_small() {
        runtime::reset();
        let t = normal_init(&[100, 100], DType::F32, Device::Cpu, 0);
        let v = t.to_vec();
        let mean = v.iter().sum::<f32>() / v.len() as f32;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / v.len() as f32;
        assert!(mean.abs() < 5e-3);
        assert!((var.sqrt() - 0.02).abs() < 5e-3);
    }

    #[test]
    fn kaiming_bound_respected() {
        runtime::reset();
        let t = kaiming_uniform(&[64, 16], DType::F32, Device::Cpu, 1);
        let b = 1.0 / 4.0;
        assert!(t.to_vec().iter().all(|&v| v >= -b && v < b));
    }

    #[test]
    fn init_is_deterministic() {
        runtime::reset();
        let a = normal_init(&[8], DType::Bf16, Device::Cpu, 7);
        let b = normal_init(&[8], DType::Bf16, Device::Cpu, 7);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_eq!(a.dtype(), DType::Bf16);
    }
}
