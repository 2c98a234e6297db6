//! Byte-accurate host buffers for offloaded payloads.
//!
//! Offloaded saved tensors are not `Tensor`s (an index list is `u16` data,
//! not `f32`), but their bytes must still show up in the CPU pool for the
//! Table 1/2 measurements to be honest. [`AccountedVec`] is a `Vec<T>` that
//! registers `len × size_of::<T>()` with a device pool on creation and
//! deregisters on drop.

use edkm_tensor::pool::PoolCell;
use edkm_tensor::{runtime, Device};
use std::sync::Arc;

/// A host-side buffer whose bytes are charged to a device pool.
#[derive(Debug)]
pub struct AccountedVec<T: Copy> {
    data: Vec<T>,
    bytes: usize,
    pool: Arc<PoolCell>,
}

impl<T: Copy> AccountedVec<T> {
    /// Take ownership of `data`, charging its bytes to `device`'s pool of
    /// the current thread runtime.
    pub(crate) fn new(data: Vec<T>, device: Device) -> Self {
        let bytes = data.len() * std::mem::size_of::<T>();
        let pool = runtime::pool(device);
        pool.alloc(bytes);
        AccountedVec { data, bytes, pool }
    }

    /// The buffer contents.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Element count.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Bytes charged to the pool.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

impl<T: Copy> Drop for AccountedVec<T> {
    fn drop(&mut self) {
        self.pool.free(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u16_buffer_charges_two_bytes_per_element() {
        runtime::reset();
        {
            let v = AccountedVec::new(vec![0u16; 100], Device::Cpu);
            assert_eq!(runtime::cpu_live_bytes(), 200);
            assert_eq!(v.bytes(), 200);
            assert_eq!(v.len(), 100);
        }
        assert_eq!(runtime::cpu_live_bytes(), 0);
        assert_eq!(runtime::peak_bytes(Device::Cpu), 200);
    }

    #[test]
    fn f32_buffer_charges_four_bytes() {
        runtime::reset();
        let v = AccountedVec::new(vec![1.0f32, 2.0], Device::Cpu);
        assert_eq!(runtime::cpu_live_bytes(), 8);
        assert_eq!(v.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn empty_buffer_is_free() {
        runtime::reset();
        let v: AccountedVec<u16> = AccountedVec::new(vec![], Device::Cpu);
        assert_eq!(runtime::cpu_live_bytes(), 0);
        assert_eq!(v.len(), 0);
    }
}
