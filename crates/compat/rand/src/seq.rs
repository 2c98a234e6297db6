//! Slice sampling helpers.

use crate::{Rng, RngCore};

/// Random reordering of slices.
pub trait SliceRandom {
    /// Element type.
    type Item;

    /// Fisher–Yates shuffle in place.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeedableRng, StdRng};

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }
}
