//! Shape/stride/offset bookkeeping for strided tensor views.
//!
//! A [`Layout`] maps logical n-dimensional indices onto a flat storage
//! buffer. Views (reshape, transpose, slice) only manipulate the layout and
//! therefore never copy data — the property PyTorch exploits on-device, and
//! whose *loss* across device copies motivates the paper's marshaling scheme.

/// Strided layout of a tensor over its storage buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    shape: Vec<usize>,
    strides: Vec<usize>,
    offset: usize,
}

impl Layout {
    /// Row-major (C-contiguous) layout for `shape`, offset 0.
    pub(crate) fn contiguous(shape: &[usize]) -> Self {
        Layout {
            shape: shape.to_vec(),
            strides: contiguous_strides(shape),
            offset: 0,
        }
    }

    /// Logical shape.
    #[inline]
    pub(crate) fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Strides in elements (not bytes).
    #[inline]
    pub(crate) fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Offset into storage, in elements.
    #[inline]
    pub(crate) fn offset(&self) -> usize {
        self.offset
    }

    /// Number of dimensions.
    #[inline]
    pub(crate) fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of logical elements.
    #[inline]
    pub(crate) fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// `true` if logical order equals storage order with no gaps from
    /// `offset`.
    pub(crate) fn is_contiguous(&self) -> bool {
        let mut expect = 1usize;
        for (&s, &st) in self.shape.iter().rev().zip(self.strides.iter().rev()) {
            if s == 1 {
                continue; // stride is irrelevant for singleton dims
            }
            if st != expect {
                return false;
            }
            expect *= s;
        }
        true
    }

    /// Flat storage index of a logical index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub(crate) fn index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut flat = self.offset;
        for ((&i, &s), &st) in idx.iter().zip(&self.shape).zip(&self.strides) {
            assert!(i < s, "index {i} out of bounds for dim of size {s}");
            flat += i * st;
        }
        flat
    }

    /// Layout with two dims swapped.
    ///
    /// # Panics
    ///
    /// Panics if either axis is out of range.
    pub(crate) fn transpose(&self, d0: usize, d1: usize) -> Layout {
        assert!(
            d0 < self.rank() && d1 < self.rank(),
            "transpose axes out of range"
        );
        let mut shape = self.shape.clone();
        let mut strides = self.strides.clone();
        shape.swap(d0, d1);
        strides.swap(d0, d1);
        Layout {
            shape,
            strides,
            offset: self.offset,
        }
    }

    /// Layout of a contiguous view reshaped to `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not contiguous or element counts differ.
    pub(crate) fn reshape(&self, shape: &[usize]) -> Layout {
        assert!(self.is_contiguous(), "reshape requires a contiguous layout");
        assert_eq!(
            self.numel(),
            shape.iter().product::<usize>(),
            "reshape element count mismatch"
        );
        Layout {
            shape: shape.to_vec(),
            strides: contiguous_strides(shape),
            offset: self.offset,
        }
    }

    /// Sub-view of `len` indices starting at `start` along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dimension.
    pub(crate) fn slice(&self, dim: usize, start: usize, len: usize) -> Layout {
        assert!(dim < self.rank(), "slice dim out of range");
        assert!(
            start + len <= self.shape[dim],
            "slice {start}..{} out of range for dim of size {}",
            start + len,
            self.shape[dim]
        );
        let mut shape = self.shape.clone();
        shape[dim] = len;
        Layout {
            shape,
            strides: self.strides.clone(),
            offset: self.offset + start * self.strides[dim],
        }
    }

    /// Broadcast this layout to `target` following NumPy rules: size-1 dims
    /// (and missing leading dims) get stride 0.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub(crate) fn broadcast_to(&self, target: &[usize]) -> Layout {
        assert!(
            target.len() >= self.rank(),
            "cannot broadcast rank {} to rank {}",
            self.rank(),
            target.len()
        );
        let pad = target.len() - self.rank();
        let mut strides = vec![0usize; target.len()];
        for i in 0..target.len() {
            if i < pad {
                continue;
            }
            let (s, st) = (self.shape[i - pad], self.strides[i - pad]);
            if s == target[i] {
                strides[i] = st;
            } else if s == 1 {
                strides[i] = 0;
            } else {
                panic!("cannot broadcast shape {:?} to {:?}", self.shape, target);
            }
        }
        Layout {
            shape: target.to_vec(),
            strides,
            offset: self.offset,
        }
    }

    /// This layout as a strided matrix when its rank is 1 (one row) or 2, so
    /// kernels can walk it with two nested loops instead of
    /// [`Layout::iter_offsets`]'s per-element odometer.
    pub(crate) fn as_matrix(&self) -> Option<MatrixView> {
        let (rows, cols, row_stride, col_stride) =
            match (self.shape.as_slice(), self.strides.as_slice()) {
                (&[cols], &[col_stride]) => (1, cols, 0, col_stride),
                (&[rows, cols], &[row_stride, col_stride]) => (rows, cols, row_stride, col_stride),
                _ => return None,
            };
        Some(MatrixView {
            rows,
            cols,
            row_stride,
            col_stride,
            offset: self.offset,
        })
    }

    /// Iterator over flat storage offsets in row-major logical order.
    pub(crate) fn iter_offsets(&self) -> OffsetIter<'_> {
        OffsetIter {
            layout: self,
            idx: vec![0; self.rank()],
            remaining: self.numel(),
            flat: self.offset,
        }
    }
}

/// A layout of rank 1 or 2 seen as a `rows × cols` matrix whose element
/// `(i, j)` sits at storage offset `offset + i·row_stride + j·col_stride`
/// (see [`Layout::as_matrix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MatrixView {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) row_stride: usize,
    pub(crate) col_stride: usize,
    pub(crate) offset: usize,
}

impl MatrixView {
    /// Storage offset of element `(i, j)`.
    #[inline]
    pub(crate) fn at(&self, i: usize, j: usize) -> usize {
        self.offset + i * self.row_stride + j * self.col_stride
    }
}

/// Row-major strides for `shape`.
pub(crate) fn contiguous_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Broadcast two shapes to their common shape (NumPy rules).
///
/// # Panics
///
/// Panics if the shapes are incompatible.
pub(crate) fn broadcast_shapes(a: &[usize], b: &[usize]) -> Vec<usize> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i + a.len() >= rank {
            a[i + a.len() - rank]
        } else {
            1
        };
        let db = if i + b.len() >= rank {
            b[i + b.len() - rank]
        } else {
            1
        };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            panic!("shapes {a:?} and {b:?} are not broadcast-compatible");
        };
    }
    out
}

/// Iterator produced by [`Layout::iter_offsets`].
#[derive(Debug)]
pub(crate) struct OffsetIter<'a> {
    layout: &'a Layout,
    idx: Vec<usize>,
    remaining: usize,
    flat: usize,
}

impl<'a> Iterator for OffsetIter<'a> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let out = self.flat;
        self.remaining -= 1;
        // Odometer increment from the last axis.
        for d in (0..self.layout.rank()).rev() {
            self.idx[d] += 1;
            self.flat += self.layout.strides[d];
            if self.idx[d] < self.layout.shape[d] {
                break;
            }
            self.flat -= self.idx[d] * self.layout.strides[d];
            self.idx[d] = 0;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for OffsetIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn contiguous_strides_examples() {
        assert_eq!(contiguous_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(contiguous_strides(&[5]), vec![1]);
        assert_eq!(contiguous_strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn contiguity_detection() {
        let l = Layout::contiguous(&[2, 3]);
        assert!(l.is_contiguous());
        assert!(!l.transpose(0, 1).is_contiguous());
        // Singleton dims do not break contiguity regardless of stride.
        let l = Layout {
            shape: vec![1, 4],
            strides: vec![999, 1],
            offset: 0,
        };
        assert!(l.is_contiguous());
    }

    #[test]
    fn indexing() {
        let l = Layout::contiguous(&[2, 3]);
        assert_eq!(l.index(&[0, 0]), 0);
        assert_eq!(l.index(&[1, 2]), 5);
        let t = l.transpose(0, 1);
        assert_eq!(t.index(&[2, 1]), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        Layout::contiguous(&[2, 3]).index(&[2, 0]);
    }

    #[test]
    fn transpose_swaps() {
        let l = Layout::contiguous(&[2, 3, 4]).transpose(0, 2);
        assert_eq!(l.shape(), &[4, 3, 2]);
        assert_eq!(l.strides(), &[1, 4, 12]);
    }

    #[test]
    fn reshape_preserves_offset() {
        let l = Layout::contiguous(&[4, 6]).slice(0, 1, 2);
        assert_eq!(l.offset(), 6);
        assert!(l.is_contiguous());
        let r = l.reshape(&[12]);
        assert_eq!(r.offset(), 6);
        assert_eq!(r.shape(), &[12]);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn reshape_noncontiguous_panics() {
        Layout::contiguous(&[2, 3]).transpose(0, 1).reshape(&[6]);
    }

    #[test]
    fn slice_moves_offset() {
        let l = Layout::contiguous(&[4, 3]).slice(0, 2, 2);
        assert_eq!(l.shape(), &[2, 3]);
        assert_eq!(l.offset(), 6);
        assert_eq!(l.index(&[0, 0]), 6);
    }

    #[test]
    fn broadcast_layout_zero_strides() {
        let l = Layout::contiguous(&[3]);
        let b = l.broadcast_to(&[2, 3]);
        assert_eq!(b.shape(), &[2, 3]);
        assert_eq!(b.strides(), &[0, 1]);
        let l1 = Layout::contiguous(&[2, 1]);
        let b1 = l1.broadcast_to(&[2, 5]);
        assert_eq!(b1.strides(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn broadcast_incompatible_panics() {
        Layout::contiguous(&[3]).broadcast_to(&[2, 4]);
    }

    #[test]
    fn broadcast_shapes_rules() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 5]), vec![2, 5]);
        assert_eq!(broadcast_shapes(&[3], &[4, 3]), vec![4, 3]);
        assert_eq!(broadcast_shapes(&[], &[2]), vec![2]);
    }

    #[test]
    fn offsets_iter_row_major() {
        let l = Layout::contiguous(&[2, 3]);
        let offs: Vec<_> = l.iter_offsets().collect();
        assert_eq!(offs, vec![0, 1, 2, 3, 4, 5]);
        let t = l.transpose(0, 1);
        let offs: Vec<_> = t.iter_offsets().collect();
        assert_eq!(offs, vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn offsets_iter_scalar_rank0() {
        let l = Layout::contiguous(&[]);
        assert_eq!(l.numel(), 1);
        let offs: Vec<_> = l.iter_offsets().collect();
        assert_eq!(offs, vec![0]);
    }

    #[test]
    fn offsets_iter_sliced() {
        let l = Layout::contiguous(&[4, 2]).slice(0, 1, 2);
        let offs: Vec<_> = l.iter_offsets().collect();
        assert_eq!(offs, vec![2, 3, 4, 5]);
    }

    proptest! {
        /// iter_offsets visits exactly layout.index of each logical index in
        /// row-major order.
        #[test]
        fn prop_iter_matches_index(
            d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5,
            t in 0usize..3,
        ) {
            let base = Layout::contiguous(&[d0, d1, d2]);
            let l = match t {
                0 => base,
                1 => base.transpose(0, 2),
                _ => base.transpose(1, 2),
            };
            let via_iter: Vec<_> = l.iter_offsets().collect();
            let mut via_index = Vec::new();
            for i in 0..l.shape()[0] {
                for j in 0..l.shape()[1] {
                    for k in 0..l.shape()[2] {
                        via_index.push(l.index(&[i, j, k]));
                    }
                }
            }
            prop_assert_eq!(via_iter, via_index);
        }

        /// Transposing twice is the identity.
        #[test]
        fn prop_double_transpose_identity(d0 in 1usize..6, d1 in 1usize..6) {
            let l = Layout::contiguous(&[d0, d1]);
            prop_assert_eq!(l.transpose(0, 1).transpose(0, 1), l);
        }

        /// A slice of the full range is the identity.
        #[test]
        fn prop_full_slice_identity(d0 in 1usize..6, d1 in 1usize..6) {
            let l = Layout::contiguous(&[d0, d1]);
            prop_assert_eq!(l.slice(0, 0, d0), l);
        }
    }
}
