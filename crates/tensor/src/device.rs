//! Logical devices.
//!
//! Devices are *simulated*: all arithmetic runs on the host, but allocations,
//! transfers, and compute time are attributed to the device a tensor lives on.
//! This is the substitution (documented in DESIGN.md) for the paper's
//! GPU + CPU-offload setup: the quantities the paper reports — bytes resident
//! per device and seconds of simulated wall-clock — are tracked exactly.

use serde::{Deserialize, Serialize};

/// A logical compute device.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum Device {
    /// Host memory ("CPU" in the paper: the offload target).
    #[default]
    Cpu,
    /// Accelerator memory; the index distinguishes learners in multi-GPU
    /// simulations.
    Gpu(u8),
}

impl Device {
    /// The default accelerator, `Gpu(0)`.
    #[inline]
    pub fn gpu() -> Self {
        Device::Gpu(0)
    }

    /// `true` if this is any GPU device.
    #[inline]
    pub fn is_gpu(self) -> bool {
        matches!(self, Device::Gpu(_))
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Device::Cpu => write!(f, "cpu"),
            Device::Gpu(i) => write!(f, "gpu:{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_predicates() {
        assert_eq!(Device::Cpu.to_string(), "cpu");
        assert_eq!(Device::Gpu(3).to_string(), "gpu:3");
        assert!(Device::gpu().is_gpu());
        assert_eq!(Device::default(), Device::Cpu);
    }

    #[test]
    fn ordering_and_hash_distinguish_devices() {
        use std::collections::HashSet;
        let set: HashSet<Device> = [Device::Cpu, Device::Gpu(0), Device::Gpu(1)].into();
        assert_eq!(set.len(), 3);
        assert!(Device::Cpu < Device::Gpu(0));
    }
}
