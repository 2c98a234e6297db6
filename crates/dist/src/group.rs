//! The learner group and its index-list sharding geometry.
//!
//! Sharding (paper Section 2.3) partitions a buffer into `|L|` contiguous
//! shards, one per learner, balanced to within one element. Rank 0 is the
//! measured machine; the other ranks simulate peers. Collectives that
//! reassemble a sharded buffer pay simulated network time through
//! [`runtime::record_all_gather`].

use edkm_tensor::runtime;
use std::ops::Range;

/// Handle to a group of `|L|` fully synchronous learners.
///
/// Copyable and trivially cheap: the group carries no state beyond its size,
/// because learners are simulated and their memory lives with the payloads
/// (see `edkm-core`'s `Store`).
///
/// ```
/// use edkm_dist::LearnerGroup;
/// use edkm_tensor::runtime;
///
/// runtime::reset();
/// let group = LearnerGroup::new(3);
/// // Shard 7 elements over 3 learners (balanced to one element)...
/// let shards = group.shard_spec(7).split(&[1u32, 2, 3, 4, 5, 6, 7]);
/// assert_eq!(shards[0], vec![1, 2, 3]);
/// // ...and reassemble, paying the ring all-gather on the simulated clock.
/// assert_eq!(group.all_gather(&shards), vec![1, 2, 3, 4, 5, 6, 7]);
/// assert!(runtime::sim_seconds() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LearnerGroup {
    n: usize,
}

impl LearnerGroup {
    /// A group of `n` learners.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` — a group always contains the local learner.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a learner group needs at least one learner");
        LearnerGroup { n }
    }

    /// Number of learners `|L|` in the group.
    pub fn n_learners(&self) -> usize {
        self.n
    }

    /// The balanced contiguous partition of a `len`-element buffer over this
    /// group.
    pub fn shard_spec(&self, len: usize) -> ShardSpec {
        ShardSpec { len, n: self.n }
    }

    /// Reassemble a buffer from per-learner `shards` (rank order), charging
    /// the ring all-gather to the simulated clock.
    ///
    /// Each learner contributes its shard; the modeled cost is `(L-1)` ring
    /// steps of the largest shard (the straggler bounds the collective).
    /// Single-learner groups gather for free, like a real collective layer.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != n_learners()`.
    pub fn all_gather<T: Copy>(&self, shards: &[Vec<T>]) -> Vec<T> {
        assert_eq!(
            shards.len(),
            self.n,
            "all_gather expects one shard per learner"
        );
        let widest = shards.iter().map(Vec::len).max().unwrap_or(0);
        runtime::record_all_gather(widest * std::mem::size_of::<T>(), self.n);
        let total = shards.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for s in shards {
            out.extend_from_slice(s);
        }
        out
    }
}

/// Balanced contiguous partition of `len` elements over `n` learners.
///
/// The first `len % n` ranks hold one extra element, so shard sizes differ by
/// at most one; when `len < n` the tail ranks hold empty shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    len: usize,
    n: usize,
}

impl ShardSpec {
    /// Total element count being partitioned.
    pub fn total_len(&self) -> usize {
        self.len
    }

    /// Half-open element range of `rank`'s shard.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below the learner count.
    pub fn shard_range(&self, rank: usize) -> Range<usize> {
        assert!(
            rank < self.n,
            "rank {rank} out of range for {} shards",
            self.n
        );
        let base = self.len / self.n;
        let rem = self.len % self.n;
        let start = rank * base + rank.min(rem);
        let extra = usize::from(rank < rem);
        start..start + base + extra
    }

    /// Borrowed view of `rank`'s shard of `data` (a per-learner memory view).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the spec's length or `rank` is out
    /// of range.
    pub fn view<'a, T>(&self, data: &'a [T], rank: usize) -> &'a [T] {
        assert_eq!(data.len(), self.len, "shard view over wrong-length buffer");
        &data[self.shard_range(rank)]
    }

    /// Split `data` into owned per-learner shards, rank order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the spec's length.
    pub fn split<T: Copy>(&self, data: &[T]) -> Vec<Vec<T>> {
        assert_eq!(data.len(), self.len, "shard split over wrong-length buffer");
        (0..self.n).map(|r| self.view(data, r).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "at least one learner")]
    fn zero_learners_panics() {
        LearnerGroup::new(0);
    }

    #[test]
    fn even_split_is_exact() {
        let spec = LearnerGroup::new(8).shard_spec(800);
        for r in 0..8 {
            assert_eq!(spec.shard_range(r).len(), 100);
        }
        assert_eq!(spec.shard_range(0), 0..100);
        assert_eq!(spec.shard_range(7), 700..800);
    }

    #[test]
    fn uneven_split_is_balanced_and_contiguous() {
        let spec = LearnerGroup::new(4).shard_spec(10);
        let lens: Vec<usize> = (0..4).map(|r| spec.shard_range(r).len()).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
        let mut cursor = 0;
        for r in 0..4 {
            assert_eq!(spec.shard_range(r).start, cursor);
            cursor = spec.shard_range(r).end;
        }
        assert_eq!(cursor, 10);
    }

    #[test]
    fn short_buffers_leave_empty_tail_shards() {
        let spec = LearnerGroup::new(7).shard_spec(3);
        let lens: Vec<usize> = (0..7).map(|r| spec.shard_range(r).len()).collect();
        assert_eq!(lens, vec![1, 1, 1, 0, 0, 0, 0]);
        let shards = spec.split(&[9u16, 8, 7]);
        assert_eq!(shards[0], vec![9]);
        assert!(shards[6].is_empty());
    }

    #[test]
    fn views_alias_the_buffer() {
        let data: Vec<u32> = (0..11).collect();
        let spec = LearnerGroup::new(3).shard_spec(11);
        assert_eq!(spec.view(&data, 0), &[0, 1, 2, 3]);
        assert_eq!(spec.view(&data, 1), &[4, 5, 6, 7]);
        assert_eq!(spec.view(&data, 2), &[8, 9, 10]);
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        runtime::reset();
        let g = LearnerGroup::new(3);
        let out = g.all_gather(&[vec![1u16, 2], vec![3], vec![4, 5]]);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn all_gather_charges_the_clock_for_real_groups() {
        runtime::reset();
        let g = LearnerGroup::new(4);
        let shards = g.shard_spec(1000).split(&vec![1.0f32; 1000]);
        let t0 = runtime::sim_seconds();
        g.all_gather(&shards);
        assert!(runtime::sim_seconds() > t0, "all-gather must cost time");
    }

    #[test]
    fn single_learner_gather_is_free() {
        runtime::reset();
        let g = LearnerGroup::new(1);
        let out = g.all_gather(&[vec![1u8, 2, 3]]);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(runtime::sim_seconds(), 0.0);
    }

    #[test]
    #[should_panic(expected = "one shard per learner")]
    fn all_gather_wrong_shard_count_panics() {
        runtime::reset();
        LearnerGroup::new(2).all_gather(&[vec![1u8]]);
    }

    proptest! {
        /// shard → all-gather round-trips an index list exactly, for uneven
        /// learner counts and buffers shorter than the group (empty shards).
        #[test]
        fn prop_shard_allgather_roundtrip(
            len in 0usize..500,
            learners in prop::sample::select(vec![1usize, 3, 7]),
            seed in any::<u64>(),
        ) {
            runtime::reset();
            let data: Vec<u16> = (0..len)
                .map(|i| (seed.wrapping_mul(i as u64 + 1) % 65536) as u16)
                .collect();
            let g = LearnerGroup::new(learners);
            let shards = g.shard_spec(len).split(&data);
            prop_assert_eq!(shards.len(), learners);
            let max = shards.iter().map(Vec::len).max().unwrap_or(0);
            let min = shards.iter().map(Vec::len).min().unwrap_or(0);
            prop_assert!(max - min <= 1, "shards must be balanced to one element");
            prop_assert_eq!(g.all_gather(&shards), data);
        }

        /// Every element lands in exactly one shard view.
        #[test]
        fn prop_views_tile_the_buffer(len in 0usize..200, learners in 1usize..9) {
            let spec = LearnerGroup::new(learners).shard_spec(len);
            let mut cursor = 0;
            for r in 0..learners {
                let range = spec.shard_range(r);
                prop_assert_eq!(range.start, cursor);
                cursor = range.end;
            }
            prop_assert_eq!(cursor, len);
        }
    }
}
