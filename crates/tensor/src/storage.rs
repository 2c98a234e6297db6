//! Reference-counted data storage with device-pool accounting.
//!
//! A [`Storage`] is the unit of memory the paper's Table 1 talks about:
//! views share one storage; copying a tensor to another device necessarily
//! creates a *new* storage. Every storage registers its byte size with the
//! owning device's [`crate::pool::PoolCell`] at creation and deregisters on
//! drop, which is what makes "live bytes on CPU" an exact measurement.

use crate::pool::PoolCell;
use crate::{DType, Device};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_STORAGE_ID: AtomicU64 = AtomicU64::new(1);

/// Opaque identity of a storage buffer.
///
/// Two tensors with equal `StorageId` share the same underlying data (they
/// are views of one another).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StorageId(pub u64);

impl std::fmt::Display for StorageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "storage#{}", self.0)
    }
}

/// A flat `f32` buffer resident on a simulated device.
///
/// The buffer always holds `f32` values; the *device footprint* in bytes is
/// `len * dtype.size_bytes()` for the dtype the storage was created with, so
/// a BF16 tensor of N elements costs 2N device bytes even though the host
/// representation is wider.
#[derive(Debug)]
pub struct Storage {
    id: StorageId,
    device: Device,
    device_bytes: usize,
    data: RwLock<Vec<f32>>,
    pool: Arc<PoolCell>,
}

impl Storage {
    /// Allocate a storage holding `data` on `device`, charging
    /// `data.len() * dtype.size_bytes()` to `pool`.
    ///
    /// Callers normally go through [`crate::Tensor`] constructors, which fetch
    /// the pool from the active runtime (see [`crate::runtime::current`]).
    pub(crate) fn new(
        data: Vec<f32>,
        device: Device,
        dtype: DType,
        pool: Arc<PoolCell>,
    ) -> Arc<Self> {
        let device_bytes = data.len() * dtype.size_bytes();
        pool.alloc(device_bytes);
        Arc::new(Storage {
            id: StorageId(NEXT_STORAGE_ID.fetch_add(1, Ordering::Relaxed)),
            device,
            device_bytes,
            data: RwLock::new(data),
            pool,
        })
    }

    /// Identity of this buffer.
    #[inline]
    pub(crate) fn id(&self) -> StorageId {
        self.id
    }

    /// Device this buffer is resident on.
    #[inline]
    pub(crate) fn device(&self) -> Device {
        self.device
    }

    /// Number of `f32` elements in the buffer.
    pub(crate) fn len(&self) -> usize {
        self.data.read().len()
    }

    /// Run `f` with read access to the raw buffer.
    pub fn with_data<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        f(&self.data.read())
    }

    /// Run `f` with write access to the raw buffer.
    ///
    /// Mutation is visible through every view sharing this storage, exactly
    /// like an in-place op in PyTorch.
    pub(crate) fn with_data_mut<R>(&self, f: impl FnOnce(&mut [f32]) -> R) -> R {
        f(&mut self.data.write())
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        self.pool.free(self.device_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<PoolCell> {
        Arc::new(PoolCell::new())
    }

    #[test]
    fn alloc_and_drop_account_bytes() {
        let p = pool();
        {
            let _s = Storage::new(vec![0.0; 100], Device::Cpu, DType::F32, Arc::clone(&p));
            assert_eq!(p.live_bytes(), 400);
        }
        assert_eq!(p.live_bytes(), 0);
        assert_eq!(p.peak_bytes(), 400);
    }

    #[test]
    fn bf16_charges_two_bytes_per_element() {
        let p = pool();
        let _s = Storage::new(vec![0.0; 100], Device::gpu(), DType::Bf16, Arc::clone(&p));
        assert_eq!(p.live_bytes(), 200);
    }

    #[test]
    fn ids_are_unique() {
        let p = pool();
        let a = Storage::new(vec![1.0], Device::Cpu, DType::F32, Arc::clone(&p));
        let b = Storage::new(vec![1.0], Device::Cpu, DType::F32, Arc::clone(&p));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn data_access_roundtrip() {
        let p = pool();
        let s = Storage::new(vec![1.0, 2.0, 3.0], Device::Cpu, DType::F32, p);
        assert_eq!(s.len(), 3);
        s.with_data_mut(|d| d[1] = 9.0);
        let sum: f32 = s.with_data(|d| d.iter().sum());
        assert_eq!(sum, 13.0);
    }

    #[test]
    fn shared_storage_sees_mutation() {
        let p = pool();
        let s = Storage::new(vec![0.0; 4], Device::Cpu, DType::F32, p);
        let s2 = Arc::clone(&s);
        s.with_data_mut(|d| d[0] = 7.0);
        assert_eq!(s2.with_data(|d| d[0]), 7.0);
    }

    #[test]
    fn display_of_id() {
        let p = pool();
        let s = Storage::new(vec![], Device::Cpu, DType::F32, p);
        assert!(s.id().to_string().starts_with("storage#"));
    }
}
