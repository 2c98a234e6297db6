//! Cross-device tensor marshaling (Section 2.1, Fig. 2 of the paper).
//!
//! The registry maps a GPU storage id to its CPU-resident offloaded entry.
//! Before copying a saved tensor to the CPU, the eDKM hooks first check the
//! registry for the tensor's own storage, then walk the forward graph
//! (≤ `hop_limit` storage-invariant hops) looking for an ancestor whose
//! storage is already offloaded. A hit stores only a *reference* plus the
//! op-chain needed to re-derive the view — no duplicate CPU copy, no extra
//! PCIe traffic.

use crate::accounting::AccountedVec;
use crate::store::Store;
use crate::uniquify;
use edkm_tensor::layout::Layout;
use edkm_tensor::{runtime, DType, Device, InvariantOp, StorageId, Tensor};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Offloaded representation of one storage buffer.
#[derive(Debug)]
pub enum Payload {
    /// Raw f32 contents.
    Dense32(Store<f32>),
    /// 16-bit contents as bit patterns (2 bytes/element, like the source).
    Dense16(Store<u16>),
    /// Uniquified attention map: replicated attention table + (possibly
    /// sharded) index list. This is Fig. 3 of the paper.
    Uniq {
        /// `[u × k]` unique-row table (replicated on every learner).
        table: AccountedVec<f32>,
        /// Index list, one u16 per map row.
        index: Store<u16>,
        /// Columns per row (`|C|`).
        k: usize,
    },
    /// Uniquified attention map of a *vector*-clustered weight (extension):
    /// block keys can exceed 2^16 uniques, so the index is u32. Built only
    /// when profitable (see [`StoredEntry::build`]).
    UniqWide {
        /// `[u × k]` unique-row table (replicated on every learner).
        table: AccountedVec<f32>,
        /// Index list, one u32 per map row.
        index: Store<u32>,
        /// Columns per row (`|C|`).
        k: usize,
    },
}

/// One offloaded storage: payload plus reconstruction metadata.
#[derive(Debug)]
pub struct StoredEntry {
    payload: Payload,
    storage_len: usize,
    dtype: DType,
    origin: Device,
    /// Memoized reconstruction (avoids re-transferring on repeated unpacks
    /// of marshaled references).
    cache: Mutex<Option<Tensor>>,
}

impl StoredEntry {
    /// Offload the full storage behind `t`, compressing via uniquification
    /// when `keys` are provided and sharding over `group` when given.
    pub fn build(
        t: &Tensor,
        keys: Option<&uniquify::RowKeys>,
        shard_group: Option<edkm_dist::LearnerGroup>,
    ) -> StoredEntry {
        let dtype = t.dtype();
        let origin = t.device();
        let full: Vec<f32> = t.storage().with_data(|d| d.to_vec());
        let len = full.len();

        // Scalar keys always uniquify (the paper's path — the 2^16 bound
        // guarantees profit at LLM scale). Block keys (vector-clustering
        // extension) uniquify only when the observed unique count makes the
        // decomposition smaller than the dense offload.
        let uniq = match keys {
            Some(rk) if !rk.is_empty() && len.is_multiple_of(rk.len()) => {
                let k = len / rk.len();
                runtime::record_hash_pass(len * 4);
                if rk.is_scalar() {
                    let (table, index, _u) = uniquify::uniquify(&full, rk, k);
                    let index = match shard_group {
                        Some(g) => Store::sharded(index, g),
                        None => Store::whole(index),
                    };
                    Some(Payload::Uniq {
                        table: AccountedVec::new(table, Device::Cpu),
                        index,
                        k,
                    })
                } else {
                    let (table, index, u) = uniquify::uniquify_wide(&full, rk, k);
                    if uniquify::compression_ratio_wide(rk.len(), k, u) > 1.0 {
                        let index = match shard_group {
                            Some(g) => Store::sharded(index, g),
                            None => Store::whole(index),
                        };
                        Some(Payload::UniqWide {
                            table: AccountedVec::new(table, Device::Cpu),
                            index,
                            k,
                        })
                    } else {
                        None // unprofitable: fall back to a dense offload
                    }
                }
            }
            _ => None,
        };
        let payload = match uniq {
            Some(p) => p,
            None => {
                if dtype.is_16bit() {
                    let bits: Vec<u16> = full
                        .iter()
                        .map(|&v| dtype.encode16(v).expect("16-bit dtype"))
                        .collect();
                    Payload::Dense16(match shard_group {
                        Some(g) => Store::sharded(bits, g),
                        None => Store::whole(bits),
                    })
                } else {
                    Payload::Dense32(match shard_group {
                        Some(g) => Store::sharded(full, g),
                        None => Store::whole(full),
                    })
                }
            }
        };

        let entry = StoredEntry {
            payload,
            storage_len: len,
            dtype,
            origin,
            cache: Mutex::new(None),
        };
        // The offload itself: this learner's stored bytes cross PCIe.
        if origin.is_gpu() {
            runtime::record_transfer(entry.local_bytes(), origin, Device::Cpu);
        }
        entry
    }

    /// Bytes this entry keeps on *this* learner's CPU.
    pub fn local_bytes(&self) -> usize {
        match &self.payload {
            Payload::Dense32(s) => s.local_bytes(),
            Payload::Dense16(s) => s.local_bytes(),
            Payload::Uniq { table, index, .. } => table.bytes() + index.local_bytes(),
            Payload::UniqWide { table, index, .. } => table.bytes() + index.local_bytes(),
        }
    }

    /// Total bytes of the compact form across all learners (what must reach
    /// the GPU again at unpack time).
    pub fn compact_total_bytes(&self) -> usize {
        match &self.payload {
            Payload::Dense32(s) => s.total_len() * 4,
            Payload::Dense16(s) => s.total_len() * 2,
            Payload::Uniq { table, index, .. } => table.bytes() + index.total_len() * 2,
            Payload::UniqWide { table, index, .. } => table.bytes() + index.total_len() * 4,
        }
    }

    /// `true` if the payload went through uniquification.
    pub fn is_uniquified(&self) -> bool {
        matches!(
            self.payload,
            Payload::Uniq { .. } | Payload::UniqWide { .. }
        )
    }

    /// `true` if the payload's main component is sharded.
    pub fn is_sharded(&self) -> bool {
        match &self.payload {
            Payload::Dense32(s) => s.is_sharded(),
            Payload::Dense16(s) => s.is_sharded(),
            Payload::Uniq { index, .. } => index.is_sharded(),
            Payload::UniqWide { index, .. } => index.is_sharded(),
        }
    }

    /// Element length of the original storage.
    pub fn storage_len(&self) -> usize {
        self.storage_len
    }

    /// Reconstruct the full storage as a contiguous `[len]` tensor on the
    /// origin device. Returns `(tensor, was_cached)`.
    ///
    /// Sharded payloads all-gather; uniquified payloads expand table rows;
    /// GPU origins pay an H2D transfer of the compact bytes — each cost is
    /// recorded once thanks to memoization.
    pub fn reconstruct_storage(&self) -> (Tensor, bool) {
        if let Some(t) = self.cache.lock().clone() {
            return (t, true);
        }
        let data: Vec<f32> = match &self.payload {
            Payload::Dense32(s) => s.gather(),
            Payload::Dense16(s) => {
                let dt = self.dtype;
                s.gather()
                    .into_iter()
                    .map(|b| dt.decode16(b).expect("16-bit dtype"))
                    .collect()
            }
            Payload::Uniq { table, index, k } => {
                let idx = index.gather();
                uniquify::reconstruct(table.as_slice(), &idx, *k)
            }
            Payload::UniqWide { table, index, k } => {
                let idx = index.gather();
                uniquify::reconstruct_wide(table.as_slice(), &idx, *k)
            }
        };
        if self.origin.is_gpu() {
            runtime::record_transfer(self.compact_total_bytes(), Device::Cpu, self.origin);
        }
        runtime::record_compute(data.len() as f64, self.origin);
        let t = Tensor::from_vec(data, &[self.storage_len], self.dtype, self.origin);
        *self.cache.lock() = Some(t.clone());
        (t, false)
    }
}

/// The pack-time product: a reference to a stored entry plus the view
/// reconstruction recipe.
#[derive(Debug)]
pub struct EdkmPacked {
    /// The (possibly shared) offloaded storage.
    pub entry: Arc<StoredEntry>,
    /// Layout of the base view over the reconstructed storage (the saved
    /// tensor's own layout for direct hits/misses; the ancestor's layout
    /// for graph-walk hits).
    pub base_layout: Layout,
    /// Invariant ops to replay on the base view (graph-walk hits only).
    pub replay: Vec<InvariantOp>,
    /// Shape the unpacked tensor must have (sanity check).
    pub expect_shape: Vec<usize>,
}

/// Apply a storage-invariant op to a reconstructed tensor.
pub fn apply_invariant(t: &Tensor, op: &InvariantOp) -> Tensor {
    match op {
        InvariantOp::Reshape { shape } => t.reshape(shape),
        InvariantOp::Transpose { d0, d1 } => t.transpose(*d0, *d1),
        InvariantOp::Contiguous => t.contiguous(),
        InvariantOp::Slice { dim, start, len } => t.slice(*dim, *start, *len),
        InvariantOp::Alias => t.clone(),
    }
}

/// Storage-id-keyed registry of offloaded entries (one per training step).
#[derive(Debug, Default)]
pub struct MarshalRegistry {
    entries: Mutex<HashMap<u64, Arc<StoredEntry>>>,
}

impl MarshalRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entry registered for `sid`, if any.
    pub fn get(&self, sid: StorageId) -> Option<Arc<StoredEntry>> {
        self.entries.lock().get(&sid.0).cloned()
    }

    /// Register `entry` under `sid`.
    pub fn insert(&self, sid: StorageId, entry: Arc<StoredEntry>) {
        self.entries.lock().insert(sid.0, entry);
    }

    /// Number of registered storages.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_dist::LearnerGroup;
    use edkm_tensor::ops::allclose;

    #[test]
    fn dense32_roundtrip_and_bytes() {
        runtime::reset();
        let t = Tensor::randn(&[64, 4], DType::F32, Device::gpu(), 0);
        let e = StoredEntry::build(&t, None, None);
        assert_eq!(e.local_bytes(), 64 * 4 * 4);
        assert_eq!(runtime::cpu_live_bytes(), 64 * 4 * 4);
        assert!(!e.is_uniquified());
        assert!(!e.is_sharded());
        let (r, cached) = e.reconstruct_storage();
        assert!(!cached);
        assert_eq!(r.shape(), &[256]);
        assert_eq!(r.device(), Device::gpu());
        assert!(allclose(&r.reshape(&[64, 4]), &t, 0.0));
        // Second reconstruction is memoized.
        let (_r2, cached2) = e.reconstruct_storage();
        assert!(cached2);
    }

    #[test]
    fn dense16_halves_cpu_bytes() {
        runtime::reset();
        let t = Tensor::randn(&[100], DType::Bf16, Device::gpu(), 1);
        let e = StoredEntry::build(&t, None, None);
        assert_eq!(e.local_bytes(), 200, "bf16 offload is 2 bytes/element");
        let (r, _) = e.reconstruct_storage();
        assert_eq!(r.to_vec(), t.to_vec());
        assert_eq!(r.dtype(), DType::Bf16);
    }

    #[test]
    fn uniq_payload_compresses_and_roundtrips() {
        runtime::reset();
        // A [6, 2] map with 2 unique rows.
        let keys = uniquify::RowKeys::scalar(vec![10, 20, 10, 10, 20, 10]);
        let rows: Vec<f32> = keys
            .keys()
            .iter()
            .flat_map(|&k| vec![k as f32, k as f32 + 0.5])
            .collect();
        let t = Tensor::from_vec(rows.clone(), &[6, 2], DType::F32, Device::gpu());
        let e = StoredEntry::build(&t, Some(&keys), None);
        assert!(e.is_uniquified());
        // table: 2 rows × 2 cols × 4B = 16B; index: 6 × 2B = 12B.
        assert_eq!(e.local_bytes(), 16 + 12);
        let (r, _) = e.reconstruct_storage();
        assert_eq!(r.to_vec(), rows);
    }

    #[test]
    fn block_keys_use_wide_path_when_profitable() {
        runtime::reset();
        // 128 blocks drawn from only 4 distinct block keys: table has 4
        // rows, so the wide decomposition wins.
        let patterns: Vec<u16> = (0..256)
            .map(|i| [1u16, 2, 3, 4, 5, 6, 7, 8][i % 8])
            .collect();
        let keys = uniquify::RowKeys::blocks(&patterns, 2);
        let rows: Vec<f32> = keys
            .keys()
            .iter()
            .flat_map(|&k| vec![(k & 0xff) as f32, (k >> 16) as f32])
            .collect();
        let t = Tensor::from_vec(rows.clone(), &[128, 2], DType::F32, Device::gpu());
        let e = StoredEntry::build(&t, Some(&keys), None);
        assert!(e.is_uniquified());
        // table: 4 rows × 2 cols × 4B = 32B; index: 128 × 4B = 512B;
        // dense would be 128 × 2 × 4B = 1024B.
        assert_eq!(e.local_bytes(), 32 + 512);
        let (r, _) = e.reconstruct_storage();
        assert_eq!(r.to_vec(), rows);
    }

    #[test]
    fn block_keys_fall_back_to_dense_when_unprofitable() {
        runtime::reset();
        // Every block unique: uniquification would *grow* the buffer
        // (table == dense plus a u32 index), so build() stores densely.
        let patterns: Vec<u16> = (0..64u16).collect();
        let keys = uniquify::RowKeys::blocks(&patterns, 2);
        let rows: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let t = Tensor::from_vec(rows.clone(), &[32, 2], DType::F32, Device::gpu());
        let e = StoredEntry::build(&t, Some(&keys), None);
        assert!(
            !e.is_uniquified(),
            "unprofitable blocks must offload densely"
        );
        assert_eq!(e.local_bytes(), 64 * 4);
        let (r, _) = e.reconstruct_storage();
        assert_eq!(r.to_vec(), rows);
    }

    #[test]
    fn sharded_entry_stores_one_learner_share() {
        runtime::reset();
        let t = Tensor::randn(&[800], DType::F32, Device::gpu(), 2);
        let e = StoredEntry::build(&t, None, Some(LearnerGroup::new(8)));
        assert!(e.is_sharded());
        assert_eq!(e.local_bytes(), 800 * 4 / 8);
        let (r, _) = e.reconstruct_storage();
        assert_eq!(r.to_vec(), t.to_vec());
    }

    #[test]
    fn transfer_ledger_sees_offload_and_restore() {
        runtime::reset();
        let t = Tensor::randn(&[1000], DType::F32, Device::gpu(), 3);
        let e = StoredEntry::build(&t, None, None);
        let s = runtime::transfer_snapshot();
        assert_eq!(s.d2h_bytes, 4000);
        e.reconstruct_storage();
        let s = runtime::transfer_snapshot();
        assert_eq!(s.h2d_bytes, 4000);
        // Cached second unpack adds no traffic.
        e.reconstruct_storage();
        assert_eq!(runtime::transfer_snapshot().h2d_bytes, 4000);
    }

    #[test]
    fn cpu_origin_pays_no_pcie() {
        runtime::reset();
        let t = Tensor::randn(&[100], DType::F32, Device::Cpu, 4);
        let e = StoredEntry::build(&t, None, None);
        e.reconstruct_storage();
        assert_eq!(runtime::transfer_snapshot().total_bytes(), 0);
    }

    #[test]
    fn registry_roundtrip() {
        runtime::reset();
        let reg = MarshalRegistry::new();
        assert!(reg.is_empty());
        let t = Tensor::randn(&[10], DType::F32, Device::gpu(), 5);
        let e = Arc::new(StoredEntry::build(&t, None, None));
        reg.insert(t.storage_id(), Arc::clone(&e));
        assert_eq!(reg.len(), 1);
        assert!(reg.get(t.storage_id()).is_some());
        assert!(reg.get(StorageId(u64::MAX)).is_none());
    }

    #[test]
    fn apply_invariant_ops() {
        runtime::reset();
        let t = Tensor::arange(6, DType::F32, Device::Cpu).reshape(&[2, 3]);
        let r = apply_invariant(&t, &InvariantOp::Transpose { d0: 0, d1: 1 });
        assert_eq!(r.shape(), &[3, 2]);
        let r = apply_invariant(&t, &InvariantOp::Reshape { shape: vec![6] });
        assert_eq!(r.shape(), &[6]);
        let r = apply_invariant(
            &t,
            &InvariantOp::Slice {
                dim: 0,
                start: 1,
                len: 1,
            },
        );
        assert_eq!(r.to_vec(), vec![3.0, 4.0, 5.0]);
        let r = apply_invariant(&t.transpose(0, 1), &InvariantOp::Contiguous);
        assert!(r.is_contiguous());
        let r = apply_invariant(&t, &InvariantOp::Alias);
        assert_eq!(r.storage_id(), t.storage_id());
    }
}
