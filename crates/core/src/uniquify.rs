//! Weight uniquification (Section 2.2, Fig. 3 of the paper) — plus the
//! vector-clustering extension.
//!
//! 16-bit weights have at most 2^16 distinct bit patterns, so two weights
//! with the same pattern receive *identical* attention rows. The dense
//! `|W| × |C|` attention map therefore decomposes exactly into
//!
//! * an **attention table** with one row per unique pattern
//!   (`O(|C|)` per row, ≤ 65 536 rows), and
//! * an **index list** of `O(|W|)` 16-bit offsets into the table —
//!   the paper uses the weight's bit value itself as the offset idea; we
//!   store dense table row ids, which is the same size and collision-free.
//!
//! The DKM layer `annotate`s each attention map's storage with the split of
//! its rows by the bit patterns of its source weights ([`RowKeys`]); the
//! eDKM hooks consult the annotation at pack time.
//!
//! ## Vector clustering (extension beyond the paper)
//!
//! With vector DKM (`cluster_dim = d > 1`) each attention-map row belongs to
//! a *block* of `d` weights, keyed by the concatenation of the block's `d`
//! 16-bit patterns. The key space is `2^(16·d)`, so the ≤ 65 536-row bound —
//! and with it the u16 index — no longer holds. The wide path
//! (`uniquify_wide`) emits u32 indices and the caller is expected to fall
//! back to a dense offload when the observed unique-block count makes the
//! decomposition unprofitable (see `StoredEntry::build`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use edkm_tensor::{dtype, DType, StorageId};

/// Maximum clustering dimensionality for which block keys fit in a `u64`
/// (4 × 16-bit patterns).
pub(crate) const MAX_KEY_DIM: usize = 4;

/// Row keys of an attention map, as the split of its rows by key: one key
/// per row, derived from the 16-bit patterns of the source weights.
///
/// For scalar clustering (the paper's setting) each key is one pattern; for
/// vector clustering each key packs the block's `dim ≤ 4` patterns into a
/// `u64`. Rows with equal keys have equal attention rows, so the keys are
/// kept only as the split of the rows by key: which distinct row each row
/// is, and where each distinct row first appears.
#[derive(Debug)]
pub struct RowKeys {
    rows: DistinctRows,
    dim: usize,
}

/// `dim`'s keys fit a `u64`.
fn check_key_dim(dim: usize) {
    assert!(
        (1..=MAX_KEY_DIM).contains(&dim),
        "block key dim must be in 1..={MAX_KEY_DIM}, got {dim}"
    );
}

/// The key of one block of ≤ 4 patterns: the patterns packed from the
/// most significant end.
#[inline(always)]
fn pack(patterns: impl Iterator<Item = u16>) -> u64 {
    patterns.fold(0u64, |acc, p| (acc << 16) | u64::from(p))
}

impl RowKeys {
    /// Block keys: pack each consecutive group of `dim` patterns into one
    /// key (vector-clustering extension).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is 0 or exceeds [`MAX_KEY_DIM`], or if
    /// `patterns.len()` is not divisible by `dim`.
    #[cfg(test)]
    pub(crate) fn blocks(patterns: &[u16], dim: usize) -> Self {
        check_key_dim(dim);
        assert_eq!(
            patterns.len() % dim,
            0,
            "{} patterns do not split into blocks of {dim}",
            patterns.len()
        );
        let block = |i: usize| pack(patterns[i * dim..][..dim].iter().copied());
        let rows = DistinctRows::split(patterns.len() / dim, dim == 1, block, |_| {});
        RowKeys { rows, dim }
    }

    /// The keys of the `[n, dim]` weights `data`, each of them `dtype`'s
    /// value, in one pass: each weight's pattern is keyed, split and, on
    /// its row's first appearance, copied. Returns the keys with the
    /// `[u, dim]` distinct rows.
    ///
    /// # Panics
    ///
    /// Panics if `dtype` is not 16-bit, `dim` is 0 or exceeds
    /// [`MAX_KEY_DIM`], or `data.len()` is not divisible by `dim`.
    pub(crate) fn of_weights(data: &[f32], dtype: DType, dim: usize) -> (Self, Vec<f32>) {
        match dtype {
            DType::Bf16 => Self::of_patterns(data, dim, dtype::f32_to_bf16),
            DType::F16 => Self::of_patterns(data, dim, dtype::f32_to_f16),
            DType::F32 => panic!("f32 weights have no 16-bit patterns"),
        }
    }

    /// [`RowKeys::of_weights`] with `encode` the dtype's pattern.
    fn of_patterns(data: &[f32], dim: usize, encode: impl Fn(f32) -> u16) -> (Self, Vec<f32>) {
        check_key_dim(dim);
        assert_eq!(
            data.len() % dim,
            0,
            "{} weights do not split into rows of {dim}",
            data.len()
        );
        let n = data.len() / dim;
        let mut distinct = Vec::new();
        let rows = if dim == 1 {
            // One weight a row: no block to pack or copy.
            let first_seen = |i: usize| distinct.push(data[i]);
            DistinctRows::split(n, true, |i| u64::from(encode(data[i])), first_seen)
        } else {
            let row = |i: usize| &data[i * dim..][..dim];
            let key = |i: usize| pack(row(i).iter().map(|&v| encode(v)));
            DistinctRows::split(n, false, key, |i| distinct.extend_from_slice(row(i)))
        };
        (RowKeys { rows, dim }, distinct)
    }

    /// The keyed rows, split by key.
    pub(crate) fn rows(&self) -> &DistinctRows {
        &self.rows
    }

    /// Number of map rows keyed.
    pub(crate) fn len(&self) -> usize {
        self.rows.index.len()
    }

    /// `true` if no rows are keyed.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.index.is_empty()
    }

    /// `true` for scalar (paper-setting) keys, whose unique count is bounded
    /// by 2^16 and whose index list fits in u16.
    pub(crate) fn is_scalar(&self) -> bool {
        self.dim == 1
    }
}

thread_local! {
    static ANNOTATIONS: RefCell<HashMap<u64, Arc<RowKeys>>> = RefCell::new(HashMap::new());

    /// [`DistinctRows::split`]'s table of distinct row + 1 per 16-bit
    /// pattern (0: not seen yet). Allocated once per thread and all zeros
    /// between calls: each call zeroes only the slots it set.
    static PATTERN_SLOTS: RefCell<Vec<u32>> = RefCell::new(vec![0; 1 << 16]);
}

/// Attach row keys to the storage of an attention-map tensor.
pub(crate) fn annotate(storage: StorageId, keys: Arc<RowKeys>) {
    ANNOTATIONS.with(|a| a.borrow_mut().insert(storage.0, keys));
}

/// Row keys previously attached to `storage`, if any.
pub(crate) fn annotation(storage: StorageId) -> Option<Arc<RowKeys>> {
    ANNOTATIONS.with(|a| a.borrow().get(&storage.0).cloned())
}

/// Drop all annotations (call between training steps).
pub fn clear_annotations() {
    ANNOTATIONS.with(|a| a.borrow_mut().clear());
}

/// Distinct rows of a keyed map, numbered in first-appearance order: row
/// `i` equals distinct row `index[i]`, which first appears at row
/// `first[index[i]]`. The decomposition behind [`uniquify`], and the rows
/// DKM clusters (`DkmLayer::cluster`).
#[derive(Debug, Clone)]
pub(crate) struct DistinctRows {
    first: Vec<usize>,
    index: Vec<u32>,
}

impl DistinctRows {
    /// Split `n` rows by `key(i)`, the key of row `i`, calling
    /// `first_seen(i)` on each row that starts a distinct row. Scalar
    /// keys are 16-bit patterns and index the thread's 2^16-entry slot
    /// table; block keys go through a hash map.
    #[inline(always)]
    fn split(
        n: usize,
        scalar: bool,
        key: impl Fn(usize) -> u64,
        mut first_seen: impl FnMut(usize),
    ) -> Self {
        assert!(u32::try_from(n).is_ok(), "more than u32::MAX rows");
        let mut first = Vec::new();
        let mut index = Vec::with_capacity(n);
        if scalar {
            PATTERN_SLOTS.with(|slots| {
                let mut slot = slots.borrow_mut();
                // Scalar keys are u16 patterns, so no index here panics and
                // leaves the table dirty.
                for i in 0..n {
                    let s = &mut slot[key(i) as u16 as usize];
                    if *s == 0 {
                        first.push(i);
                        *s = first.len() as u32;
                        first_seen(i);
                    }
                    index.push(*s - 1);
                }
                for &i in &first {
                    slot[key(i) as u16 as usize] = 0;
                }
            });
        } else {
            let mut row_of_key: HashMap<u64, u32> = HashMap::new();
            for i in 0..n {
                let r = *row_of_key.entry(key(i)).or_insert_with(|| {
                    first.push(i);
                    first_seen(i);
                    (first.len() - 1) as u32
                });
                index.push(r);
            }
        }
        DistinctRows { first, index }
    }

    /// `n` rows, every one distinct (rows without keys).
    pub(crate) fn identity(n: usize) -> Self {
        let n32 = u32::try_from(n).expect("more than u32::MAX rows");
        DistinctRows {
            first: (0..n).collect(),
            index: (0..n32).collect(),
        }
    }

    /// Number of distinct rows.
    pub(crate) fn len(&self) -> usize {
        self.first.len()
    }

    /// Distinct row of every row.
    pub(crate) fn index(&self) -> &[u32] {
        &self.index
    }

    /// The `[u, width]` distinct rows of a row-major `[n, width]` map.
    pub(crate) fn gather(&self, dense: &[f32], width: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len() * width);
        for &i in &self.first {
            out.extend_from_slice(&dense[i * width..(i + 1) * width]);
        }
        out
    }
}

/// [`uniquify`] over an index type `I`: u16 for the paper's scalar path,
/// u32 for the vector-clustering extension.
fn uniquify_generic<I: TryFrom<u32>>(
    dense: &[f32],
    keys: &RowKeys,
    k: usize,
) -> (Vec<f32>, Vec<I>, usize) {
    assert_eq!(dense.len(), keys.len() * k, "dense map size mismatch");
    let rows = keys.rows();
    let table = rows.gather(dense, k);
    let index = rows
        .index()
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            debug_assert_eq!(
                &table[r as usize * k..(r as usize + 1) * k],
                &dense[i * k..(i + 1) * k],
                "row {i} and the first row of its key must be identical"
            );
            I::try_from(r)
                .unwrap_or_else(|_| panic!("unique rows overflow the index type at row {i}"))
        })
        .collect();
    (table, index, rows.len())
}

/// Exact decomposition of a dense `[n, k]` row-major map whose rows repeat
/// per `keys`: returns `(table, index, unique_rows)` with
/// `table[index[i]·k .. +k] == dense[i·k .. +k]` bitwise.
///
/// This is the paper's scalar path: unique rows are bounded by the 2^16
/// pattern space, so indices are u16.
///
/// # Panics
///
/// Panics if `dense.len() != keys.len() · k` or if more than 65 536 unique
/// rows appear (impossible for scalar 16-bit keys).
pub(crate) fn uniquify(dense: &[f32], keys: &RowKeys, k: usize) -> (Vec<f32>, Vec<u16>, usize) {
    uniquify_generic::<u16>(dense, keys, k)
}

/// [`uniquify`] with u32 indices for block keys (vector-clustering
/// extension), whose unique count may exceed 2^16.
///
/// # Panics
///
/// Panics if `dense.len() != keys.len() · k`.
pub(crate) fn uniquify_wide(
    dense: &[f32],
    keys: &RowKeys,
    k: usize,
) -> (Vec<f32>, Vec<u32>, usize) {
    uniquify_generic::<u32>(dense, keys, k)
}

/// Inverse of [`uniquify`]: expand `(table, index)` back to the dense map.
///
/// # Panics
///
/// Panics if any index is out of table range.
pub(crate) fn reconstruct(table: &[f32], index: &[u16], k: usize) -> Vec<f32> {
    let u = table.len() / k;
    let mut out = Vec::with_capacity(index.len() * k);
    for &r in index {
        assert!((r as usize) < u, "index {r} out of table ({u} rows)");
        out.extend_from_slice(&table[r as usize * k..(r as usize + 1) * k]);
    }
    out
}

/// Inverse of [`uniquify_wide`].
///
/// # Panics
///
/// Panics if any index is out of table range.
pub(crate) fn reconstruct_wide(table: &[f32], index: &[u32], k: usize) -> Vec<f32> {
    let u = table.len() / k;
    let start = |r: u32| {
        assert!((r as usize) < u, "index {r} out of table ({u} rows)");
        r as usize * k
    };
    if k == 1 {
        // A gather: a copy call per one-element row would cost 5x more.
        return index.iter().map(|&r| table[start(r)]).collect();
    }
    let mut out = Vec::with_capacity(index.len() * k);
    for &r in index {
        out.extend_from_slice(&table[start(r)..][..k]);
    }
    out
}

/// Compression ratio of the *wide* (u32-indexed) uniquified form over the
/// dense form. Below 1.0 the decomposition is unprofitable and callers
/// should offload densely instead.
pub(crate) fn compression_ratio_wide(n: usize, k: usize, u: usize) -> f64 {
    let dense = (n * k * 4) as f64;
    let uniq = (u * k * 4 + n * 4) as f64;
    dense / uniq.max(1.0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Number of live annotations on this thread.
    pub(crate) fn annotation_count() -> usize {
        ANNOTATIONS.with(|a| a.borrow().len())
    }

    #[test]
    fn paper_worked_example() {
        // Fig. 3: w_i and w_k share bit value BA45; w_j has CB1F. Their
        // attention rows collapse into a 2-row table.
        let keys = RowKeys::blocks(&[0xBA45u16, 0xCB1F, 0xBA45], 1);
        let dense = vec![
            0.9, 0.05, 0.05, // w_i
            0.1, 0.8, 0.1, // w_j
            0.9, 0.05, 0.05, // w_k == w_i
        ];
        let (table, index, u) = uniquify(&dense, &keys, 3);
        assert_eq!(u, 2);
        assert_eq!(table.len(), 6);
        assert_eq!(index, vec![0, 1, 0]);
        assert_eq!(reconstruct(&table, &index, 3), dense);
    }

    #[test]
    fn all_unique_rows_give_no_compression() {
        let keys = RowKeys::blocks(&[1u16, 2, 3], 1);
        let dense = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let (table, index, u) = uniquify(&dense, &keys, 2);
        assert_eq!(u, 3);
        assert_eq!(table, dense);
        assert_eq!(index, vec![0, 1, 2]);
    }

    #[test]
    fn all_same_key_gives_single_row() {
        let keys = RowKeys::blocks(&[7u16; 100], 1);
        let dense: Vec<f32> = std::iter::repeat_n([0.25f32, 0.75], 100)
            .flatten()
            .collect();
        let (table, index, u) = uniquify(&dense, &keys, 2);
        assert_eq!(u, 1);
        assert_eq!(table, vec![0.25, 0.75]);
        assert!(index.iter().all(|&i| i == 0));
    }

    #[test]
    fn block_keys_pack_consecutive_patterns() {
        let rk = RowKeys::blocks(&[0xBA45, 0xCB1F, 0xBA45, 0xCB1F, 0x0001, 0x0002], 2);
        assert_eq!(rk.dim, 2);
        assert_eq!(rk.len(), 3);
        assert!(!rk.is_scalar());
        assert_eq!(rk.rows().index(), &[0, 0, 1]);
        assert_eq!(rk.rows().first, vec![0, 2]);
        // A block's patterns keep their order in its key.
        assert_eq!(
            RowKeys::blocks(&[1, 2, 2, 1, 1, 2], 2).rows().index(),
            &[0, 1, 0]
        );
    }

    /// Weights with ±0, NaNs, infinities, subnormals and repeats.
    fn awkward_weights(dtype: DType, n: usize) -> Vec<f32> {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
            -3e-39,
            0.015,
            -0.02,
        ];
        (0..n)
            .map(|i| dtype.round(specials[(i * 7 + i / 3) % specials.len()] * (1 + i % 3) as f32))
            .collect()
    }

    #[test]
    fn of_weights_matches_the_block_keys_of_their_patterns() {
        for dtype in [DType::Bf16, DType::F16] {
            for dim in 1..=MAX_KEY_DIM {
                let data = awkward_weights(dtype, 240);
                let patterns: Vec<u16> = data.iter().map(|&v| dtype.encode16(v).unwrap()).collect();
                let want = RowKeys::blocks(&patterns, dim);
                let (got, distinct) = RowKeys::of_weights(&data, dtype, dim);
                assert_eq!(got.rows().first, want.rows().first, "{dtype}, dim {dim}");
                assert_eq!(
                    got.rows().index(),
                    want.rows().index(),
                    "{dtype}, dim {dim}"
                );
                assert_eq!((got.dim, got.len()), (dim, 240 / dim));
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&distinct), bits(&want.rows().gather(&data, dim)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "block key dim")]
    fn blocks_reject_dim_over_max() {
        RowKeys::blocks(&[0u16; 10], 5);
    }

    #[test]
    #[should_panic(expected = "do not split")]
    fn blocks_reject_ragged_patterns() {
        RowKeys::blocks(&[0u16; 7], 2);
    }

    #[test]
    fn wide_uniquify_roundtrips_blocks() {
        let rk = RowKeys::blocks(&[1, 2, 3, 4, 1, 2, 5, 6], 2);
        // Rows must be functions of the key: rows 0 and 2 share key (1,2).
        let dense = vec![
            0.7, 0.3, // (1,2)
            0.2, 0.8, // (3,4)
            0.7, 0.3, // (1,2) again
            0.5, 0.5, // (5,6)
        ];
        let (table, index, u) = uniquify_wide(&dense, &rk, 2);
        assert_eq!(u, 3);
        assert_eq!(index, vec![0, 1, 0, 2]);
        assert_eq!(reconstruct_wide(&table, &index, 2), dense);
    }

    /// The split of scalar keys over a freshly zeroed table of its own.
    fn distinct_rows_fresh(patterns: &[u16]) -> (Vec<usize>, Vec<u32>) {
        let mut slot = vec![0u32; 1 << 16];
        let (mut first, mut index) = (Vec::new(), Vec::new());
        for (i, &key) in patterns.iter().enumerate() {
            if slot[key as usize] == 0 {
                first.push(i);
                slot[key as usize] = first.len() as u32;
            }
            index.push(slot[key as usize] - 1);
        }
        (first, index)
    }

    #[test]
    fn back_to_back_distinct_rows_match_fresh_tables() {
        // Overlapping key sets in a row, each sharing patterns with the one
        // before: a slot left set by one call would renumber the next.
        let key_sets: Vec<Vec<u16>> = vec![
            vec![7, 9, 7, 0xffff, 0],
            vec![9, 7, 3, 3, 0xffff],
            vec![],
            vec![0, 0, 0],
            (0..5000).map(|i| (i * 37 % 1024) as u16).collect(),
            (0..5000).map(|i| (i * 91 % 1500) as u16).collect(),
            vec![7, 9, 7, 0xffff, 0],
        ];
        for (call, patterns) in key_sets.iter().enumerate() {
            let keys = RowKeys::blocks(patterns, 1);
            let (first, index) = distinct_rows_fresh(patterns);
            assert_eq!(keys.rows().first, first, "call {call}: first rows");
            assert_eq!(keys.rows().index, index, "call {call}: index");
        }
    }

    #[test]
    fn wide_ratio_flags_unprofitable_decompositions() {
        // Every block unique: table == dense plus index overhead.
        assert!(compression_ratio_wide(1000, 8, 1000) < 1.0);
        // Few unique blocks: strongly profitable.
        assert!(compression_ratio_wide(1000, 8, 16) > 5.0);
    }

    #[test]
    fn annotation_registry_roundtrip() {
        clear_annotations();
        let id = StorageId(987654);
        assert!(annotation(id).is_none());
        annotate(id, Arc::new(RowKeys::blocks(&[1, 2, 3], 1)));
        assert_eq!(annotation(id).unwrap().rows().index(), &[0, 1, 2]);
        assert_eq!(annotation_count(), 1);
        clear_annotations();
        assert!(annotation(id).is_none());
        assert_eq!(annotation_count(), 0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn bad_sizes_panic() {
        uniquify(&[1.0, 2.0], &RowKeys::blocks(&[1, 2, 3], 1), 2);
    }

    #[test]
    #[should_panic(expected = "out of table")]
    fn reconstruct_rejects_bad_index() {
        reconstruct(&[1.0, 2.0], &[5], 2);
    }

    #[test]
    #[should_panic(expected = "out of table")]
    fn reconstruct_wide_rejects_bad_index() {
        reconstruct_wide(&[1.0, 2.0], &[9], 2);
    }

    proptest! {
        /// reconstruct(uniquify(x)) == x bitwise, for maps whose rows are
        /// functions of their keys.
        #[test]
        fn prop_roundtrip(n in 1usize..300, k in 1usize..9, nkeys in 1u16..40) {
            // Build a map where row i depends only on key i % nkeys.
            let patterns: Vec<u16> = (0..n).map(|i| (i as u16) % nkeys).collect();
            let rk = RowKeys::blocks(&patterns, 1);
            let dense: Vec<f32> = patterns
                .iter()
                .flat_map(|&key| (0..k).map(move |j| (key as f32) * 10.0 + j as f32))
                .collect();
            let (table, index, u) = uniquify(&dense, &rk, k);
            prop_assert!(u <= (nkeys as usize).min(n));
            prop_assert_eq!(reconstruct(&table, &index, k), dense);
            prop_assert_eq!(index.len(), n);
            prop_assert_eq!(table.len(), u * k);
        }

        /// The table never exceeds 65 536 rows (u16 index soundness).
        #[test]
        fn prop_table_bound(n in 1usize..2000, k in 1usize..5) {
            let patterns: Vec<u16> = (0..n).map(|i| (i * 2654435761usize) as u16).collect();
            let rk = RowKeys::blocks(&patterns, 1);
            let dense: Vec<f32> = patterns
                .iter()
                .flat_map(|&key| (0..k).map(move |j| key as f32 + j as f32))
                .collect();
            let (table, _, u) = uniquify(&dense, &rk, k);
            prop_assert!(u <= 65536);
            prop_assert_eq!(table.len(), u * k);
        }

        /// Wide path: roundtrip holds for block keys of any dim 1..=4.
        #[test]
        fn prop_wide_roundtrip(
            nblocks in 1usize..150,
            k in 1usize..6,
            dim in 1usize..5,
            modulo in 1u16..20,
        ) {
            let patterns: Vec<u16> =
                (0..nblocks * dim).map(|i| (i as u16) % modulo).collect();
            let rk = RowKeys::blocks(&patterns, dim);
            let dense: Vec<f32> = patterns
                .chunks(dim)
                .map(|block| pack(block.iter().copied()))
                .flat_map(|key| {
                    (0..k).map(move |j| (key % 1023) as f32 + j as f32)
                })
                .collect();
            let (table, index, u) = uniquify_wide(&dense, &rk, k);
            prop_assert!(u <= nblocks);
            prop_assert_eq!(reconstruct_wide(&table, &index, k), dense);
        }
    }
}
