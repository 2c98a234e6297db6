//! The eDKM saved-tensor hooks: offload + marshal + uniquify + shard.
//!
//! This is the paper's system, assembled: every tensor autograd saves for
//! backward is packed here. Configuration bits correspond one-to-one to the
//! columns of Table 2 (M = marshaling, U = uniquification, S = sharding);
//! with all three off the hooks still *offload* (the naive CPU-offload
//! baseline of the first table row).

use crate::marshal::{apply_invariant, EdkmPacked, MarshalRegistry, StoredEntry};
use crate::uniquify;
use edkm_autograd::{PackedTensor, SavedTensorHooks};
use edkm_dist::LearnerGroup;
use edkm_tensor::{runtime, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which eDKM optimizations are active (a row of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdkmConfig {
    /// Offload saved tensors to CPU at all (paper baseline: always true;
    /// `false` keeps tensors resident like stock training).
    pub(crate) offload: bool,
    /// M: cross-device tensor marshaling (registry + graph walk).
    pub(crate) marshal: bool,
    /// U: weight uniquification of annotated attention maps.
    pub(crate) uniquify: bool,
    /// S: shard every offloaded storage of at least `min_shard_elems`
    /// elements over the learner group. For a uniquified attention map
    /// that is its index list, and its table stays whole on every
    /// learner; for a dense storage (weights, soft weights, activations)
    /// it is the whole payload.
    pub(crate) shard: bool,
    /// Number of learners `|L|` (paper: 8).
    pub learners: usize,
    /// Graph-walk depth (paper: 4 hops suffice).
    pub hop_limit: usize,
    /// Don't shard buffers smaller than this many elements.
    pub min_shard_elems: usize,
}

impl Default for EdkmConfig {
    fn default() -> Self {
        EdkmConfig::full(8)
    }
}

impl EdkmConfig {
    /// Naive CPU offloading: the first row of Table 2.
    pub fn baseline() -> Self {
        EdkmConfig {
            offload: true,
            marshal: false,
            uniquify: false,
            shard: false,
            learners: 8,
            hop_limit: 4,
            min_shard_elems: 1024,
        }
    }

    /// Marshaling only (row "M").
    pub fn marshal_only() -> Self {
        EdkmConfig {
            marshal: true,
            ..Self::baseline()
        }
    }

    /// Marshaling + uniquification (row "M+U").
    pub fn marshal_uniquify() -> Self {
        EdkmConfig {
            marshal: true,
            uniquify: true,
            ..Self::baseline()
        }
    }

    /// Marshaling + sharding (row "M+S").
    pub fn marshal_shard() -> Self {
        EdkmConfig {
            marshal: true,
            shard: true,
            ..Self::baseline()
        }
    }

    /// All techniques (row "M+U+S" — full eDKM).
    pub fn full(learners: usize) -> Self {
        EdkmConfig {
            offload: true,
            marshal: true,
            uniquify: true,
            shard: true,
            learners,
            hop_limit: 4,
            min_shard_elems: 1024,
        }
    }

    /// Table 2-style row label ("—", "M", "M+U", "M+S", "M+U+S").
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.marshal {
            parts.push("M");
        }
        if self.uniquify {
            parts.push("U");
        }
        if self.shard {
            parts.push("S");
        }
        if parts.is_empty() {
            "—".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// Pack/unpack counters.
#[derive(Debug, Default)]
pub(crate) struct HookStats {
    packs: AtomicUsize,
    direct_hits: AtomicUsize,
    walk_hits: AtomicUsize,
    misses: AtomicUsize,
    unpacks: AtomicUsize,
    cache_hits: AtomicUsize,
    offloaded_bytes: AtomicUsize,
}

/// Snapshot of `HookStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HookStatsSnapshot {
    /// Total pack calls.
    pub packs: usize,
    /// Same-storage registry hits.
    pub direct_hits: usize,
    /// Graph-walk hits (different storage, ≤ hop_limit away).
    pub walk_hits: usize,
    /// Entries actually offloaded.
    pub misses: usize,
    /// Total unpack calls.
    pub unpacks: usize,
    /// Unpacks served from the reconstruction cache.
    pub cache_hits: usize,
    /// CPU bytes stored by misses (this learner).
    pub offloaded_bytes: usize,
}

impl HookStatsSnapshot {
    /// Fraction of packs that avoided a copy.
    pub fn dedup_rate(&self) -> f64 {
        if self.packs == 0 {
            return 0.0;
        }
        (self.direct_hits + self.walk_hits) as f64 / self.packs as f64
    }
}

/// The eDKM [`SavedTensorHooks`] implementation.
///
/// Create one per training step (the registry's lifetime is the forward+
/// backward of one step, like the paper's implementation) and install with
/// [`edkm_autograd::push_hooks`].
#[derive(Debug)]
pub struct EdkmHooks {
    config: EdkmConfig,
    registry: MarshalRegistry,
    group: LearnerGroup,
    stats: HookStats,
}

impl EdkmHooks {
    /// Hooks with the given configuration.
    pub fn new(config: EdkmConfig) -> Self {
        EdkmHooks {
            config,
            registry: MarshalRegistry::new(),
            group: LearnerGroup::new(config.learners.max(1)),
            stats: HookStats::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HookStatsSnapshot {
        HookStatsSnapshot {
            packs: self.stats.packs.load(Ordering::Relaxed),
            direct_hits: self.stats.direct_hits.load(Ordering::Relaxed),
            walk_hits: self.stats.walk_hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            unpacks: self.stats.unpacks.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            offloaded_bytes: self.stats.offloaded_bytes.load(Ordering::Relaxed),
        }
    }

    fn packed(
        entry: Arc<StoredEntry>,
        base_layout: edkm_tensor::Layout,
        replay: Vec<edkm_tensor::InvariantOp>,
        expect_shape: Vec<usize>,
    ) -> PackedTensor {
        PackedTensor::Custom(Box::new(EdkmPacked {
            entry,
            base_layout,
            replay,
            expect_shape,
        }))
    }
}

impl SavedTensorHooks for EdkmHooks {
    fn pack(&self, t: &Tensor) -> PackedTensor {
        self.stats.packs.fetch_add(1, Ordering::Relaxed);
        if !self.config.offload {
            return PackedTensor::Inline(t.clone());
        }
        let sid = t.storage_id();

        if self.config.marshal {
            // Same storage already offloaded? (Fig. 2 (b): reuse y0.)
            if let Some(entry) = self.registry.get(sid) {
                self.stats.direct_hits.fetch_add(1, Ordering::Relaxed);
                return Self::packed(entry, t.layout().clone(), vec![], t.shape().to_vec());
            }
            // Walk the forward graph through invariant ops (≤ hop_limit).
            for (hop, (ops, anc)) in t
                .meta()
                .ancestors(self.config.hop_limit)
                .into_iter()
                .enumerate()
            {
                runtime::record_walk(hop + 1);
                if let Some(entry) = self.registry.get(anc.storage_id) {
                    self.stats.walk_hits.fetch_add(1, Ordering::Relaxed);
                    return Self::packed(entry, anc.layout.clone(), ops, t.shape().to_vec());
                }
            }
        }

        // Miss: offload the storage.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let keys = if self.config.uniquify {
            uniquify::annotation(sid)
        } else {
            None
        };
        let storage_elems = t.storage().with_data(|d| d.len());
        let shard_group = if self.config.shard
            && self.group.n_learners() > 1
            && storage_elems >= self.config.min_shard_elems
        {
            Some(self.group)
        } else {
            None
        };
        let entry = Arc::new(StoredEntry::build(t, keys.as_deref(), shard_group));
        self.stats
            .offloaded_bytes
            .fetch_add(entry.local_bytes(), Ordering::Relaxed);
        if self.config.marshal {
            self.registry.insert(sid, Arc::clone(&entry));
        }
        Self::packed(entry, t.layout().clone(), vec![], t.shape().to_vec())
    }

    fn unpack(&self, p: &PackedTensor) -> Tensor {
        self.stats.unpacks.fetch_add(1, Ordering::Relaxed);
        let packed = match p {
            PackedTensor::Inline(t) => return t.clone(),
            PackedTensor::Custom(b) => b
                .downcast_ref::<EdkmPacked>()
                .expect("EdkmHooks can only unpack its own payloads"),
        };
        let (storage_t, cached) = packed.entry.reconstruct_storage();
        if cached {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        let mut out = storage_t.view_with_layout(packed.base_layout.clone());
        for op in &packed.replay {
            out = apply_invariant(&out, op);
        }
        debug_assert_eq!(
            out.shape(),
            &packed.expect_shape[..],
            "marshaled reconstruction produced the wrong view"
        );
        out
    }

    fn name(&self) -> &str {
        "edkm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::ops::allclose;
    use edkm_tensor::{DType, Device};

    fn gpu_tensor(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, DType::F32, Device::gpu(), seed)
    }

    #[test]
    fn labels_match_table2_rows() {
        assert_eq!(EdkmConfig::baseline().label(), "—");
        assert_eq!(EdkmConfig::marshal_only().label(), "M");
        assert_eq!(EdkmConfig::marshal_uniquify().label(), "M+U");
        assert_eq!(EdkmConfig::marshal_shard().label(), "M+S");
        assert_eq!(EdkmConfig::full(8).label(), "M+U+S");
        assert_eq!(EdkmConfig::default(), EdkmConfig::full(8));
    }

    #[test]
    fn baseline_duplicates_views_marshal_deduplicates() {
        // The Table 1 scenario driven through the hooks.
        runtime::reset();
        let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 0);
        let x1 = x0.reshape(&[1024 * 1024, 1]);

        // Without marshaling: two independent 4 MB copies.
        {
            let h = EdkmHooks::new(EdkmConfig::baseline());
            let _p0 = h.pack(&x0);
            let _p1 = h.pack(&x1);
            assert_eq!(runtime::cpu_live_bytes(), 8 << 20);
            assert_eq!(h.stats().misses, 2);
        }
        runtime::reset();
        let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 0);
        let x1 = x0.reshape(&[1024 * 1024, 1]);
        // With marshaling: one copy plus a reference.
        {
            let h = EdkmHooks::new(EdkmConfig::marshal_only());
            let _p0 = h.pack(&x0);
            let _p1 = h.pack(&x1);
            assert_eq!(runtime::cpu_live_bytes(), 4 << 20);
            let s = h.stats();
            assert_eq!(s.misses, 1);
            assert_eq!(s.direct_hits, 1);
            assert!(s.dedup_rate() > 0.49);
        }
    }

    #[test]
    fn unpack_restores_values_device_and_shape() {
        runtime::reset();
        let h = EdkmHooks::new(EdkmConfig::marshal_only());
        let t = gpu_tensor(&[8, 8], 1);
        let p = h.pack(&t);
        let back = h.unpack(&p);
        assert_eq!(back.shape(), &[8, 8]);
        assert_eq!(back.device(), Device::gpu());
        assert!(allclose(&back, &t, 0.0));
    }

    #[test]
    fn transposed_view_hits_and_reconstructs() {
        runtime::reset();
        let h = EdkmHooks::new(EdkmConfig::marshal_only());
        let a = gpu_tensor(&[4, 6], 2);
        let at = a.transpose(0, 1);
        let _pa = h.pack(&a);
        let pat = h.pack(&at);
        assert_eq!(h.stats().direct_hits, 1, "same storage must hit directly");
        let back = h.unpack(&pat);
        assert_eq!(back.shape(), &[6, 4]);
        assert!(allclose(&back, &at.contiguous(), 0.0));
    }

    #[test]
    fn contiguous_copy_found_by_graph_walk() {
        runtime::reset();
        let h = EdkmHooks::new(EdkmConfig::marshal_only());
        let a = gpu_tensor(&[4, 6], 3);
        let at = a.transpose(0, 1);
        let ac = at.contiguous(); // new storage, 1 invariant hop from `at`
        let _p = h.pack(&at);
        let pc = h.pack(&ac);
        let s = h.stats();
        assert_eq!(s.walk_hits, 1, "contiguous() must be found via the walk");
        assert_eq!(s.misses, 1);
        let back = h.unpack(&pc);
        assert_eq!(back.shape(), &[6, 4]);
        assert!(allclose(&back, &ac, 0.0));
    }

    #[test]
    fn hop_limit_zero_disables_walk() {
        runtime::reset();
        let mut cfg = EdkmConfig::marshal_only();
        cfg.hop_limit = 0;
        let h = EdkmHooks::new(cfg);
        let a = gpu_tensor(&[4, 6], 4);
        let ac = a.transpose(0, 1).contiguous();
        let _p = h.pack(&a);
        let _pc = h.pack(&ac);
        assert_eq!(h.stats().walk_hits, 0);
        assert_eq!(h.stats().misses, 2);
    }

    #[test]
    fn multi_hop_chain_within_limit() {
        runtime::reset();
        let h = EdkmHooks::new(EdkmConfig::marshal_only());
        let a = gpu_tensor(&[2, 3, 4], 5);
        // 3 hops: transpose -> contiguous -> reshape
        let b = a.transpose(0, 2).contiguous().reshape(&[24]);
        let _pa = h.pack(&a);
        let pb = h.pack(&b);
        assert_eq!(h.stats().walk_hits, 1);
        let back = h.unpack(&pb);
        assert!(allclose(&back, &b, 0.0));
    }

    #[test]
    fn uniquify_only_applies_to_annotated_storages() {
        runtime::reset();
        let h = EdkmHooks::new(EdkmConfig::marshal_uniquify());
        // Unannotated tensor: dense offload.
        let t = gpu_tensor(&[64, 8], 6);
        let _p = h.pack(&t);
        assert_eq!(runtime::cpu_live_bytes(), 64 * 8 * 4);

        // Annotated map with few unique rows: compressed offload.
        runtime::reset();
        let keys: Vec<u16> = (0..64u16).map(|i| i % 4).collect();
        let rows: Vec<f32> = keys
            .iter()
            .flat_map(|&k| (0..8).map(move |j| k as f32 + j as f32))
            .collect();
        let map = Tensor::from_vec(rows, &[64, 8], DType::F32, Device::gpu());
        uniquify::annotate(
            map.storage_id(),
            Arc::new(uniquify::RowKeys::blocks(&keys, 1)),
        );
        let h = EdkmHooks::new(EdkmConfig::marshal_uniquify());
        let p = h.pack(&map);
        // table 4×8×4B = 128B + index 64×2B = 128B << dense 2048B.
        assert_eq!(runtime::cpu_live_bytes(), 256);
        let back = h.unpack(&p);
        assert!(allclose(&back, &map, 0.0));
        uniquify::clear_annotations();
    }

    #[test]
    fn sharding_respects_min_elems() {
        runtime::reset();
        let mut cfg = EdkmConfig::marshal_shard();
        cfg.min_shard_elems = 1000;
        let h = EdkmHooks::new(cfg);
        let small = gpu_tensor(&[10], 7);
        let big = gpu_tensor(&[4000], 8);
        let _ps = h.pack(&small);
        let cpu_after_small = runtime::cpu_live_bytes();
        assert_eq!(cpu_after_small, 40, "small tensors are not sharded");
        let _pb = h.pack(&big);
        assert_eq!(
            runtime::cpu_live_bytes() - cpu_after_small,
            4000 * 4 / 8,
            "big tensors keep 1/8 locally"
        );
    }

    #[test]
    fn unpack_memoizes_reconstruction() {
        runtime::reset();
        let h = EdkmHooks::new(EdkmConfig::marshal_only());
        let t = gpu_tensor(&[32, 32], 9);
        let p1 = h.pack(&t);
        let p2 = h.pack(&t.reshape(&[1024]));
        let _a = h.unpack(&p1);
        let h2d_once = runtime::transfer_snapshot().h2d_bytes;
        let _b = h.unpack(&p2);
        assert_eq!(
            runtime::transfer_snapshot().h2d_bytes,
            h2d_once,
            "second unpack must reuse the cached reconstruction"
        );
        assert_eq!(h.stats().cache_hits, 1);
        assert_eq!(h.stats().unpacks, 2);
    }

    #[test]
    fn no_offload_mode_keeps_tensors_inline() {
        runtime::reset();
        let mut cfg = EdkmConfig::baseline();
        cfg.offload = false;
        let h = EdkmHooks::new(cfg);
        let t = gpu_tensor(&[100], 10);
        let p = h.pack(&t);
        assert_eq!(runtime::cpu_live_bytes(), 0);
        let back = h.unpack(&p);
        assert_eq!(back.storage_id(), t.storage_id());
    }

    #[test]
    fn end_to_end_gradients_identical_with_and_without_edkm() {
        use edkm_autograd::{push_hooks, Var};
        // The optimization must be *exact*: same gradients bit-for-bit.
        let grad_with = {
            runtime::reset();
            let w = Var::param(Tensor::randn(&[8, 8], DType::F32, Device::gpu(), 11));
            let x = Var::constant(Tensor::randn(&[4, 8], DType::F32, Device::gpu(), 12));
            let hooks = Arc::new(EdkmHooks::new(EdkmConfig::full(4)));
            {
                let _g = push_hooks(hooks as Arc<dyn SavedTensorHooks>);
                let y = x.matmul(&w.t()).silu().square().sum_all();
                y.backward();
            }
            w.grad().unwrap().to_vec()
        };
        let grad_without = {
            runtime::reset();
            let w = Var::param(Tensor::randn(&[8, 8], DType::F32, Device::gpu(), 11));
            let x = Var::constant(Tensor::randn(&[4, 8], DType::F32, Device::gpu(), 12));
            let y = x.matmul(&w.t()).silu().square().sum_all();
            y.backward();
            w.grad().unwrap().to_vec()
        };
        assert_eq!(grad_with, grad_without);
    }
}
