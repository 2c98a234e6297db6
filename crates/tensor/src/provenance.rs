//! Forward-graph provenance for storage-invariant operations.
//!
//! Section 2.1 of the paper: before copying a tensor to the CPU, eDKM "turns
//! to the forward graph and checks if there exists another tensor that is
//! already on CPU and is reachable via only data-storage invariant operations
//! (i.e., view, transpose, ...) from the new tensor within a few hops".
//!
//! This module records exactly that graph: every view-like operation stamps
//! its result with a [`Provenance`] edge pointing at the parent tensor's
//! metadata, and the marshaling layer (in `edkm-core`) walks these edges.

use crate::layout::Layout;
use crate::storage::StorageId;
use std::sync::Arc;

/// A data-storage-invariant operation: the output's *contents* are fully
/// determined by the input's contents plus cheap metadata, so a CPU copy of
/// the input can stand in for a CPU copy of the output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantOp {
    /// `reshape`/`view`: same storage, new shape.
    Reshape {
        /// Target shape.
        shape: Vec<usize>,
    },
    /// Swap of two axes: same storage, permuted strides.
    Transpose {
        /// First axis.
        d0: usize,
        /// Second axis.
        d1: usize,
    },
    /// Materialization into row-major order. *New* storage, identical
    /// contents — the case that makes the graph walk necessary at all
    /// (a storage-id lookup alone would miss it).
    Contiguous,
    /// Contiguous sub-range along one axis; same storage.
    Slice {
        /// Axis being sliced.
        dim: usize,
        /// First index.
        start: usize,
        /// Length of the slice.
        len: usize,
    },
    /// Pure alias (e.g. `detach`): same storage, same layout.
    Alias,
}

impl std::fmt::Display for InvariantOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantOp::Reshape { shape } => write!(f, "reshape{shape:?}"),
            InvariantOp::Transpose { d0, d1 } => write!(f, "transpose({d0},{d1})"),
            InvariantOp::Contiguous => write!(f, "contiguous"),
            InvariantOp::Slice { dim, start, len } => {
                write!(f, "slice(dim={dim},{start}..{})", start + len)
            }
            InvariantOp::Alias => write!(f, "alias"),
        }
    }
}

/// Edge in the forward graph from a tensor to the parent it was derived from
/// by a storage-invariant op.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// The invariant operation that produced the child.
    pub(crate) op: InvariantOp,
    /// Metadata of the parent tensor.
    pub(crate) parent: Arc<TensorMeta>,
}

/// Identity + provenance metadata attached to every tensor.
///
/// `TensorMeta` is deliberately storage-free: holding it does not keep tensor
/// *data* alive, so recording provenance never leaks device memory.
#[derive(Debug)]
pub struct TensorMeta {
    /// Storage the tensor was viewing when created.
    pub storage_id: StorageId,
    /// Layout of the tensor over its storage (snapshot at creation) — lets
    /// the marshaling layer reconstruct an ancestor found by the graph walk.
    pub layout: Layout,
    /// How this tensor was derived, if it came from an invariant op.
    pub(crate) provenance: Option<Provenance>,
}

impl TensorMeta {
    /// Metadata for a freshly materialized tensor (no provenance).
    pub(crate) fn root(storage_id: StorageId, layout: Layout) -> Arc<Self> {
        Arc::new(TensorMeta {
            storage_id,
            layout,
            provenance: None,
        })
    }

    /// Metadata derived from `parent` through `op`.
    pub(crate) fn derived(
        storage_id: StorageId,
        layout: Layout,
        op: InvariantOp,
        parent: Arc<TensorMeta>,
    ) -> Arc<Self> {
        Arc::new(TensorMeta {
            storage_id,
            layout,
            provenance: Some(Provenance { op, parent }),
        })
    }

    /// Walk ancestors through invariant ops, yielding `(ops-from-ancestor-to-
    /// self, ancestor-meta)` for each ancestor within `max_hops` hops.
    ///
    /// The first yielded element is the immediate parent (1 hop). The op list
    /// is ordered parent→child so it can be replayed onto a stand-in for the
    /// ancestor to reconstruct `self`.
    pub fn ancestors(&self, max_hops: usize) -> Vec<(Vec<InvariantOp>, Arc<TensorMeta>)> {
        let mut out = Vec::new();
        let mut ops_rev: Vec<InvariantOp> = Vec::new();
        let mut cur = self.provenance.clone();
        while let Some(prov) = cur {
            if out.len() >= max_hops {
                break;
            }
            ops_rev.push(prov.op.clone());
            // Replay order is ancestor→descendant, i.e. reverse of collection.
            let ops: Vec<InvariantOp> = ops_rev.iter().rev().cloned().collect();
            out.push((ops, Arc::clone(&prov.parent)));
            cur = prov.parent.provenance.clone();
        }
        out
    }
}

impl Drop for TensorMeta {
    fn drop(&mut self) {
        // Unwind long provenance chains iteratively so deep view pipelines
        // cannot overflow the stack through recursive Arc drops.
        let mut next = self.provenance.take().map(|p| p.parent);
        while let Some(meta) = next {
            match Arc::try_unwrap(meta) {
                Ok(mut m) => next = m.provenance.take().map(|p| p.parent),
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u64) -> StorageId {
        StorageId(n)
    }

    fn lay() -> Layout {
        Layout::contiguous(&[2, 4])
    }

    #[test]
    fn root_has_no_provenance() {
        let m = TensorMeta::root(sid(1), lay());
        assert!(m.provenance.is_none());
        assert!(m.ancestors(4).is_empty());
    }

    #[test]
    fn ancestors_ordered_nearest_first() {
        // root --reshape--> a --transpose--> b
        let root = TensorMeta::root(sid(1), lay());
        let a = TensorMeta::derived(
            sid(1),
            lay(),
            InvariantOp::Reshape { shape: vec![4, 2] },
            Arc::clone(&root),
        );
        let b = TensorMeta::derived(
            sid(1),
            lay(),
            InvariantOp::Transpose { d0: 0, d1: 1 },
            Arc::clone(&a),
        );

        let anc = b.ancestors(4);
        assert_eq!(anc.len(), 2);
        assert!(Arc::ptr_eq(&anc[0].1, &a));
        assert_eq!(anc[0].0, vec![InvariantOp::Transpose { d0: 0, d1: 1 }]);
        assert!(Arc::ptr_eq(&anc[1].1, &root));
        // Replay order: first reshape (applied to root substitute), then transpose.
        assert_eq!(
            anc[1].0,
            vec![
                InvariantOp::Reshape { shape: vec![4, 2] },
                InvariantOp::Transpose { d0: 0, d1: 1 },
            ]
        );
    }

    #[test]
    fn hop_limit_truncates() {
        let mut m = TensorMeta::root(sid(1), lay());
        for _ in 0..6 {
            m = TensorMeta::derived(sid(1), lay(), InvariantOp::Alias, m);
        }
        assert_eq!(m.ancestors(4).len(), 4);
        assert_eq!(m.ancestors(0).len(), 0);
        assert_eq!(m.ancestors(10).len(), 6);
    }

    #[test]
    fn op_names_and_display() {
        assert_eq!(InvariantOp::Alias.to_string(), "alias");
        assert_eq!(
            InvariantOp::Slice {
                dim: 0,
                start: 2,
                len: 3
            }
            .to_string(),
            "slice(dim=0,2..5)"
        );
        assert_eq!(
            InvariantOp::Reshape { shape: vec![2, 2] }.to_string(),
            "reshape[2, 2]"
        );
        assert_eq!(
            InvariantOp::Transpose { d0: 0, d1: 1 }.to_string(),
            "transpose(0,1)"
        );
    }
}
