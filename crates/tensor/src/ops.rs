//! Tensor-level math kernels (no autograd; see `edkm-autograd` for VJPs).
//!
//! Every kernel charges its FLOPs to the simulated clock via
//! [`crate::runtime::record_compute`], which is how the "Runtime (sec)"
//! column of the paper's Table 2 is assembled.

use crate::exact::{self, Factor};
use crate::expf;
use crate::layout::{broadcast_shapes, MatrixView};
use crate::{runtime, DType, Device, Tensor};
use rayon::prelude::*;
use std::hint::black_box;

/// Multiply-accumulate count below which a kernel stays single-threaded
/// (spawning workers costs more than it saves on small tensors).
const PAR_WORK_THRESHOLD: usize = 1 << 17;

/// Dtype promotion for binary ops: like dtypes stay, unlike promote to f32.
pub fn promote(a: DType, b: DType) -> DType {
    if a == b {
        a
    } else {
        DType::F32
    }
}

fn check_same_device(a: &Tensor, b: &Tensor, op: &str) {
    assert_eq!(
        a.device(),
        b.device(),
        "{op}: tensors on different devices ({} vs {})",
        a.device(),
        b.device()
    );
}

/// Element-wise binary op with NumPy broadcasting.
///
/// # Panics
///
/// Panics if shapes are not broadcast-compatible or devices differ.
pub fn binary_op(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    check_same_device(a, b, "binary_op");
    let out_shape = broadcast_shapes(a.shape(), b.shape());
    let dt = promote(a.dtype(), b.dtype());

    // Strided and broadcast operands are gathered into logical order first
    // (row by row up to rank 2), then zipped.
    let zip = |a: &Tensor, b: &Tensor| {
        a.with_data(|av| {
            b.with_data(|bv| {
                av.iter()
                    .zip(bv)
                    .map(|(&x, &y)| f(x, y))
                    .collect::<Vec<f32>>()
            })
        })
    };
    let mut out = if a.shape() == b.shape() {
        zip(a, b)
    } else {
        zip(&a.broadcast_to(&out_shape), &b.broadcast_to(&out_shape))
    };
    if dt.is_16bit() {
        for v in &mut out {
            *v = dt.round(*v);
        }
    }
    runtime::record_compute(out.len() as f64, a.device());
    Tensor::from_vec_unrounded(out, &out_shape, dt, a.device())
}

/// `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x + y)
}

/// `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x - y)
}

/// `a * b` with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x * y)
}

/// `a / b` with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x / y)
}

/// `a + s` element-wise.
pub fn add_scalar(a: &Tensor, s: f32) -> Tensor {
    a.map(|v| v + s)
}

/// `a * s` element-wise, each product formed exactly in f64 and rounded
/// once ([`exact`]): the f32 product's bits, with no subnormal assist.
pub fn mul_scalar(a: &Tensor, s: f32) -> Tensor {
    let s = exact::opaque(s);
    a.map(|v| exact::mul(v, s))
}

/// Matrix product of 2-D tensors `[m,k] × [k,n] → [m,n]`.
///
/// The left operand is read in place whatever its strides (a transposed
/// view costs no copy); a strided right operand is gathered once. Every
/// body adds each output's `k` products in `p` order, starting from 0.0.
///
/// One lane-parallel scan per call picks how the products are formed
/// (`exact::products_touch_subnormals`): when an operand holds a
/// subnormal, or the operands' smallest nonzero magnitudes multiply below
/// `f32::MIN_POSITIVE`, each product is formed exactly in f64 from a
/// widened copy of the right operand; otherwise in f32. Both give the same
/// bits; the f64 products take no subnormal assist, the f32 ones run at
/// twice the lanes.
///
/// # Panics
///
/// Panics if shapes are incompatible, ranks are not 2, or devices differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    check_same_device(a, b, "matmul");
    assert_eq!(a.rank(), 2, "matmul lhs must be 2-D, got {:?}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be 2-D, got {:?}", b.shape());
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k,
        k2,
        "matmul inner dims: {:?} × {:?}",
        a.shape(),
        b.shape()
    );

    let dt = promote(a.dtype(), b.dtype());
    let lhs = a.layout().as_matrix().expect("rank 2 checked");
    let mut out = vec![0.0f32; m * n];
    a.storage().with_data(|ad| {
        b.with_data(|bd| {
            if exact::products_touch_subnormals(span(ad, lhs), bd) {
                matmul_into(&mut out, ad, lhs, &exact::widen(bd), n);
            } else {
                matmul_into(&mut out, ad, lhs, bd, n);
            }
        })
    });
    if dt.is_16bit() {
        for v in &mut out {
            *v = dt.round(*v);
        }
    }
    runtime::record_compute(2.0 * m as f64 * n as f64 * k as f64, a.device());
    Tensor::from_vec_unrounded(out, &[m, n], dt, a.device())
}

/// The storage elements from a view's first element to its last: every
/// element the view reads, plus any its strides step over.
fn span(data: &[f32], view: MatrixView) -> &[f32] {
    if view.rows == 0 || view.cols == 0 {
        return &[];
    }
    &data[view.offset..=view.at(view.rows - 1, view.cols - 1)]
}

/// Output rows per task of a matrix–vector product that fans out.
const MATVEC_ROWS_PER_TASK: usize = 256;

/// `out = A·B` into a zeroed `out`, for `A` (`[m, k]`) addressed in `ad`
/// through `lhs` and `B` row-major `[k, n]`, its elements f32 or widened
/// ([`Factor`]). Output rows split across worker threads once the multiply
/// count clears [`PAR_WORK_THRESHOLD`].
fn matmul_into<F: Factor>(out: &mut [f32], ad: &[f32], lhs: MatrixView, bd: &[F], n: usize) {
    let (m, k) = (lhs.rows, lhs.cols);
    if m == 0 || k == 0 || n == 0 {
        return; // an empty product: all zeros (chunking needs n > 0)
    }
    // Output rows `i0..i0 + rows.len() / n`.
    let rows = |i0: usize, rows: &mut [f32]| {
        if n > 1 {
            for (r, o_row) in rows.chunks_exact_mut(n).enumerate() {
                let start = lhs.at(i0 + r, 0);
                let a_row = (0..k).map(|p| ad[start + p * lhs.col_stride]);
                matmul_row(o_row, a_row, bd, n);
            }
        } else if lhs.col_stride == 1 {
            // Matrix–vector over contiguous rows: one dot product per row.
            for (r, o) in rows.iter_mut().enumerate() {
                let a_row = &ad[lhs.at(i0 + r, 0)..][..k];
                *o = a_row
                    .iter()
                    .zip(bd)
                    .fold(0.0, |s, (&av, &bv)| s + bv.times(av));
            }
        } else {
            // Matrix–vector over a transposed view: the rows are lanes,
            // stepped down `p` together.
            let len = rows.len();
            for (p, &bv) in bd.iter().enumerate() {
                let col = lhs.at(i0, p);
                if lhs.row_stride == 1 {
                    for (o, &av) in rows.iter_mut().zip(&ad[col..col + len]) {
                        *o += bv.times(av);
                    }
                } else {
                    for (r, o) in rows.iter_mut().enumerate() {
                        *o += bv.times(ad[col + r * lhs.row_stride]);
                    }
                }
            }
        }
    };
    let rows_per_task = if n == 1 { MATVEC_ROWS_PER_TASK } else { 1 };
    if m * n * k >= PAR_WORK_THRESHOLD && m > 1 {
        out.par_chunks_mut(rows_per_task * n)
            .enumerate()
            .for_each(|(t, chunk)| rows(t * rows_per_task, chunk));
    } else {
        rows(0, out);
    }
}

/// `out[i, :] += a_row ⋅ B` for one output row, adding in `p` order.
#[inline]
fn matmul_row<F: Factor>(o_row: &mut [f32], a_row: impl Iterator<Item = f32>, bd: &[F], n: usize) {
    for (av, b_row) in a_row.zip(bd.chunks_exact(n)) {
        for (o, &bv) in o_row.iter_mut().zip(b_row) {
            *o += bv.times(av);
        }
    }
}

/// Batched `[ba,m,k] × [ba,k,n] → [ba,m,n]` into a zeroed `out`, splitting
/// the `ba·m` output rows across worker threads when the multiply count
/// clears [`PAR_WORK_THRESHOLD`]. Workers only touch their own output rows;
/// all runtime accounting stays with the caller.
fn batched_matmul_into(
    out: &mut [f32],
    ad: &[f32],
    bd: &[f32],
    ba: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), ba * m * n);
    if n == 0 {
        return; // zero-width output: nothing to compute (chunking needs n > 0)
    }
    let row = |idx: usize| {
        let (bi, i) = (idx / m, idx % m);
        (
            &ad[bi * m * k + i * k..][..k],
            &bd[bi * k * n..(bi + 1) * k * n],
        )
    };
    if ba * m * n * k >= PAR_WORK_THRESHOLD && ba * m > 1 {
        out.par_chunks_mut(n).enumerate().for_each(|(idx, o_row)| {
            let (a_row, b_mat) = row(idx);
            matmul_row(o_row, a_row.iter().copied(), b_mat, n);
        });
    } else {
        for (idx, o_row) in out.chunks_mut(n).enumerate() {
            let (a_row, b_mat) = row(idx);
            matmul_row(o_row, a_row.iter().copied(), b_mat, n);
        }
    }
}

/// Batched matrix product `[b,m,k] × [b,k,n] → [b,m,n]`.
///
/// # Panics
///
/// Panics on rank/shape/device mismatch.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    check_same_device(a, b, "bmm");
    assert_eq!(a.rank(), 3, "bmm lhs must be 3-D");
    assert_eq!(b.rank(), 3, "bmm rhs must be 3-D");
    let (ba, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (bb, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    assert_eq!(ba, bb, "bmm batch dims differ");
    assert_eq!(k, k2, "bmm inner dims differ");

    let dt = promote(a.dtype(), b.dtype());
    let mut out = vec![0.0f32; ba * m * n];
    a.with_data(|ad| b.with_data(|bd| batched_matmul_into(&mut out, ad, bd, ba, m, k, n)));
    if dt.is_16bit() {
        for v in &mut out {
            *v = dt.round(*v);
        }
    }
    runtime::record_compute(2.0 * (ba * m * n * k) as f64, a.device());
    Tensor::from_vec_unrounded(out, &[ba, m, n], dt, a.device())
}

/// Numerically-stable softmax over the last axis: [`softmax_rows`] on a
/// copy of `t`'s values.
pub fn softmax_lastdim(t: &Tensor) -> Tensor {
    let cols = *t.shape().last().expect("softmax needs rank >= 1");
    let mut out = t.to_vec();
    softmax_rows(&mut out, cols, t.device());
    Tensor::from_vec_unrounded(out, t.shape(), DType::F32, t.device())
}

/// The softmax of each row of `cols` entries of `x`, in place, charged to
/// `device` at four FLOPs an entry: the max, the shift, the exponential
/// and the normalisation.
///
/// One pass over the rows, eight at a time in lanes (entry `j` of row `l`
/// in lane `l` of column `j`). Per row it takes the max of `f32::max` over
/// eight strided partial maxima and then a tree, shifts the row by it,
/// runs the exponentials (`f32::exp`'s bits; DESIGN.md §4), adds the sum
/// in column order from `0.0f32` and normalises it exactly in f64
/// ([`exact`]): a sharp row's small entries are subnormal, and the f32
/// multiply by `1 / sum` would take an assist on each. Any order of
/// `f32::max` gives the same max up to the sign of a zero, which changes
/// only a ±0 entry's shift, and `exp(±0)` is one either way. On CPUs with
/// AVX2 and FMA the same body runs on AVX2 registers, chosen at run time.
///
/// # Panics
///
/// Panics if `cols` is 0 and `x` is not empty.
pub fn softmax_rows(x: &mut [f32], cols: usize, device: Device) {
    #[cfg(target_arch = "x86_64")]
    if softmax_avx2() {
        // SAFETY: `softmax_rows_avx2` requires only AVX2 and FMA, which
        // `softmax_avx2` detected on this CPU.
        unsafe { softmax_rows_avx2(x, cols) };
        runtime::record_compute(4.0 * x.len() as f64, device);
        return;
    }
    softmax_body::<[f32; 8]>(x, cols);
    runtime::record_compute(4.0 * x.len() as f64, device);
}

/// Whether [`softmax_rows`] runs its AVX2 instantiation: on a CPU with
/// AVX2 and FMA, unless a test asks for the portable one.
#[cfg(target_arch = "x86_64")]
fn softmax_avx2() -> bool {
    #[cfg(test)]
    if tests::PORTABLE_SOFTMAX.get() {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// [`softmax_body`] on AVX2 registers, compiled for AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn softmax_rows_avx2(x: &mut [f32], cols: usize) {
    softmax_body::<std::arch::x86_64::__m256>(x, cols);
}

/// Eight f32 lanes, one per row of a block: what [`softmax_body`] computes
/// on. Every operation gives each lane the bits of its scalar form.
trait RowLanes: Copy {
    /// Each lane's `1 / x`, widened to f64 where the optimiser cannot
    /// trace it back to an f32 ([`exact`]).
    type Wide: Copy;
    fn splat(v: f32) -> Self;
    /// `f32::max` of each lane pair: a NaN lane yields the other.
    fn max(self, v: Self) -> Self;
    fn sub(self, v: Self) -> Self;
    fn add(self, v: Self) -> Self;
    /// `f32::exp` of each lane.
    fn exp(self) -> Self;
    fn recip_wide(self) -> Self::Wide;
    /// `exact::mul` of each lane by its wide factor.
    fn mul_wide(self, w: Self::Wide) -> Self;
    /// The eight rows of `cols = lanes.len()` entries in `block` into
    /// `lanes`, column by column.
    fn load_rows(block: &[f32], lanes: &mut [Self]);
    /// [`RowLanes::load_rows`] inverted.
    fn store_rows(lanes: &[Self], block: &mut [f32]);
}

impl RowLanes for [f32; 8] {
    type Wide = [f64; 8];
    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; 8]
    }
    #[inline(always)]
    fn max(self, v: Self) -> Self {
        std::array::from_fn(|l| self[l].max(v[l]))
    }
    #[inline(always)]
    fn sub(self, v: Self) -> Self {
        std::array::from_fn(|l| self[l] - v[l])
    }
    #[inline(always)]
    fn add(self, v: Self) -> Self {
        std::array::from_fn(|l| self[l] + v[l])
    }
    #[inline(always)]
    fn exp(mut self) -> Self {
        expf::exp_lanes(&mut self);
        self
    }
    #[inline(always)]
    fn recip_wide(self) -> [f64; 8] {
        black_box(self.map(|s| f64::from(1.0 / s)))
    }
    #[inline(always)]
    fn mul_wide(self, w: [f64; 8]) -> Self {
        std::array::from_fn(|l| exact::mul(self[l], w[l]))
    }
    #[inline(always)]
    fn load_rows(block: &[f32], lanes: &mut [Self]) {
        for (l, row) in block.chunks_exact(lanes.len()).enumerate() {
            for (lane, &v) in lanes.iter_mut().zip(row) {
                lane[l] = v;
            }
        }
    }
    #[inline(always)]
    fn store_rows(lanes: &[Self], block: &mut [f32]) {
        for (l, row) in block.chunks_exact_mut(lanes.len()).enumerate() {
            for (o, lane) in row.iter_mut().zip(lanes) {
                *o = lane[l];
            }
        }
    }
}

/// The AVX2 lanes. Their methods run AVX2 and FMA instructions, so only
/// [`softmax_rows_avx2`], compiled for both and called once they are
/// detected, instantiates [`softmax_body`] with them; the methods inline
/// into it. Every pointer they pass to a load or a store comes from a
/// bounds-checked slice of eight floats.
#[cfg(target_arch = "x86_64")]
impl RowLanes for std::arch::x86_64::__m256 {
    type Wide = [std::arch::x86_64::__m256d; 2];
    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: AVX is present (the impl's note).
        unsafe { std::arch::x86_64::_mm256_set1_ps(v) }
    }
    #[inline(always)]
    fn max(self, v: Self) -> Self {
        use std::arch::x86_64::*;
        // `vmaxps` yields its second operand when either lane is NaN, so
        // a NaN in `self` takes `v`'s lane by a blend.
        // SAFETY: AVX is present (the impl's note).
        unsafe {
            let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(self, self);
            _mm256_blendv_ps(_mm256_max_ps(v, self), v, nan)
        }
    }
    #[inline(always)]
    fn sub(self, v: Self) -> Self {
        // SAFETY: AVX is present (the impl's note).
        unsafe { std::arch::x86_64::_mm256_sub_ps(self, v) }
    }
    #[inline(always)]
    fn add(self, v: Self) -> Self {
        // SAFETY: AVX is present (the impl's note).
        unsafe { std::arch::x86_64::_mm256_add_ps(self, v) }
    }
    #[inline(always)]
    fn exp(self) -> Self {
        // SAFETY: AVX2 and FMA are present (the impl's note).
        unsafe { expf::exp_m256(self) }
    }
    #[inline(always)]
    fn recip_wide(self) -> Self::Wide {
        use std::arch::x86_64::*;
        // SAFETY: AVX is present (the impl's note).
        unsafe {
            let inv = _mm256_div_ps(_mm256_set1_ps(1.0), self);
            black_box([
                _mm256_cvtps_pd(_mm256_castps256_ps128(inv)),
                _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(inv)),
            ])
        }
    }
    #[inline(always)]
    fn mul_wide(self, [lo, hi]: Self::Wide) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: AVX is present (the impl's note).
        unsafe {
            let half =
                |x: __m128, w: __m256d| _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_cvtps_pd(x), w));
            _mm256_set_m128(
                half(_mm256_extractf128_ps::<1>(self), hi),
                half(_mm256_castps256_ps128(self), lo),
            )
        }
    }
    #[inline(always)]
    fn load_rows(block: &[f32], lanes: &mut [Self]) {
        use std::arch::x86_64::*;
        let cols = lanes.len();
        if !cols.is_multiple_of(8) {
            for (j, lane) in lanes.iter_mut().enumerate() {
                let column: [f32; 8] = std::array::from_fn(|l| block[l * cols + j]);
                // SAFETY: AVX is present; `column` is eight floats.
                *lane = unsafe { _mm256_loadu_ps(column.as_ptr()) };
            }
            return;
        }
        for (t, tile) in lanes.chunks_exact_mut(8).enumerate() {
            let rows = std::array::from_fn(|l| {
                let row = &block[l * cols + 8 * t..][..8];
                // SAFETY: AVX is present; `row` is eight floats.
                unsafe { _mm256_loadu_ps(row.as_ptr()) }
            });
            // SAFETY: AVX2 is present (the impl's note).
            tile.copy_from_slice(&unsafe { transpose8(rows) });
        }
    }
    #[inline(always)]
    fn store_rows(lanes: &[Self], block: &mut [f32]) {
        use std::arch::x86_64::*;
        let cols = lanes.len();
        if !cols.is_multiple_of(8) {
            for (j, &lane) in lanes.iter().enumerate() {
                let mut column = [0.0f32; 8];
                // SAFETY: AVX is present; `column` is eight floats.
                unsafe { _mm256_storeu_ps(column.as_mut_ptr(), lane) };
                for (l, v) in column.into_iter().enumerate() {
                    block[l * cols + j] = v;
                }
            }
            return;
        }
        for (t, tile) in lanes.chunks_exact(8).enumerate() {
            let tile = tile.try_into().expect("chunks of eight");
            // SAFETY: AVX2 is present (the impl's note).
            let rows = unsafe { transpose8(tile) };
            for (l, r) in rows.into_iter().enumerate() {
                let row = &mut block[l * cols + 8 * t..][..8];
                // SAFETY: AVX is present; `row` is eight floats.
                unsafe { _mm256_storeu_ps(row.as_mut_ptr(), r) };
            }
        }
    }
}

/// The 8×8 tile of rows `r` transposed: lane `l` of column `j` is entry
/// `j` of row `l`. Its own inverse.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose8(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xee>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xee>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xee>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xee>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ]
}

/// [`softmax_rows`]'s body over the lanes `V`. A last block of fewer than
/// eight rows runs padded with zero rows, whose results are dropped.
#[inline(always)]
fn softmax_body<V: RowLanes>(x: &mut [f32], cols: usize) {
    const L: usize = 8;
    if x.is_empty() {
        return;
    }
    assert!(cols > 0, "softmax over rows of no entries");
    let mut lanes = vec![V::splat(0.0); cols];
    let mut padded = Vec::new();
    for block in x.chunks_mut(L * cols) {
        let whole = block.len() == L * cols;
        if whole {
            V::load_rows(block, &mut lanes);
        } else {
            padded.extend_from_slice(block);
            padded.resize(L * cols, 0.0);
            V::load_rows(&padded, &mut lanes);
        }
        // Eight partial maxima, entry `j` in partial `j % 8`, then a tree.
        let mut part = [V::splat(f32::NEG_INFINITY); 8];
        for group in lanes.chunks(8) {
            for (p, &v) in part.iter_mut().zip(group) {
                *p = p.max(v);
            }
        }
        let [a, b, c, d, e, f, g, h] = part;
        let mx = (a.max(e).max(c.max(g))).max(b.max(f).max(d.max(h)));
        let mut sum = V::splat(0.0);
        for v in lanes.iter_mut() {
            *v = v.sub(mx).exp();
            sum = sum.add(*v);
        }
        let inv = sum.recip_wide();
        for v in lanes.iter_mut() {
            *v = v.mul_wide(inv);
        }
        if whole {
            V::store_rows(&lanes, block);
        } else {
            V::store_rows(&lanes, &mut padded);
            let len = block.len();
            block.copy_from_slice(&padded[..len]);
        }
    }
}

/// Numerically-stable log-softmax over the last axis.
pub fn log_softmax_lastdim(t: &Tensor) -> Tensor {
    let cols = *t.shape().last().expect("log_softmax needs rank >= 1");
    let data = t.to_vec();
    let mut out = vec![0.0f32; data.len()];
    for (row_in, row_out) in data.chunks(cols).zip(out.chunks_mut(cols)) {
        let mx = row_in.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = row_in.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln() + mx;
        for (o, &v) in row_out.iter_mut().zip(row_in) {
            *o = v - lse;
        }
    }
    runtime::record_compute(4.0 * data.len() as f64, t.device());
    Tensor::from_vec_unrounded(out, t.shape(), DType::F32, t.device())
}

/// Sum of all elements, as a rank-0 tensor.
pub fn sum_all(t: &Tensor) -> Tensor {
    let s: f32 = t.with_data(|d| d.iter().sum());
    runtime::record_compute(t.numel() as f64, t.device());
    Tensor::from_vec_unrounded(vec![s], &[], DType::F32, t.device())
}

/// Mean of all elements, as a rank-0 tensor.
pub fn mean_all(t: &Tensor) -> Tensor {
    let n = t.numel().max(1) as f32;
    let s = sum_all(t);
    mul_scalar(&s, 1.0 / n)
}

/// Sum over one axis (the axis is removed).
///
/// # Panics
///
/// Panics if `axis >= rank`.
pub fn sum_axis(t: &Tensor, axis: usize) -> Tensor {
    assert!(axis < t.rank(), "sum_axis: axis {axis} out of range");
    let shape = t.shape().to_vec();
    let out_shape: Vec<usize> = shape
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != axis)
        .map(|(_, &s)| s)
        .collect();
    let outer: usize = shape[..axis].iter().product();
    let mid = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    let out = t.with_data(|data| {
        if inner == 1 {
            // Last axis: one accumulator per row, in axis order from 0.0.
            if mid == 0 {
                return vec![0.0f32; outer];
            }
            data.chunks_exact(mid)
                .map(|row| row.iter().fold(0.0f32, |s, &v| s + v))
                .collect()
        } else {
            let mut out = vec![0.0f32; outer * inner];
            if inner > 0 && mid > 0 {
                // Each output lane adds its `mid` terms in axis order.
                for (lanes, block) in out.chunks_exact_mut(inner).zip(data.chunks(mid * inner)) {
                    for terms in block.chunks_exact(inner) {
                        for (s, &v) in lanes.iter_mut().zip(terms) {
                            *s += v;
                        }
                    }
                }
            }
            out
        }
    });
    runtime::record_compute(t.numel() as f64, t.device());
    Tensor::from_vec_unrounded(out, &out_shape, DType::F32, t.device())
}

/// Arg-max index along the last axis for each row.
pub fn argmax_lastdim(t: &Tensor) -> Vec<usize> {
    let cols = *t.shape().last().expect("argmax needs rank >= 1");
    t.to_vec()
        .chunks(cols)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// Row gather: `table[ids[i], :] → out[i, :]` (embedding lookup).
///
/// # Panics
///
/// Panics if `table` is not 2-D or any id is out of range.
pub fn gather_rows(table: &Tensor, ids: &[usize]) -> Tensor {
    assert_eq!(table.rank(), 2, "gather_rows table must be 2-D");
    let (v, d) = (table.shape()[0], table.shape()[1]);
    let mut out = Vec::with_capacity(ids.len() * d);
    table.with_data(|td| {
        for &id in ids {
            assert!(id < v, "gather_rows: id {id} out of range {v}");
            out.extend_from_slice(&td[id * d..(id + 1) * d]);
        }
    });
    runtime::record_compute((ids.len() * d) as f64, table.device());
    Tensor::from_vec_unrounded(out, &[ids.len(), d], table.dtype(), table.device())
}

/// Row scatter-add: `out[ids[i], :] += grad[i, :]` over a `[v, d]` output
/// (the VJP of [`gather_rows`]).
///
/// # Panics
///
/// Panics if `grad` is not `[ids.len(), d]` or any id is out of range.
pub fn scatter_add_rows(grad: &Tensor, ids: &[usize], v: usize) -> Tensor {
    assert_eq!(grad.rank(), 2, "scatter_add_rows grad must be 2-D");
    assert_eq!(grad.shape()[0], ids.len(), "scatter_add_rows row mismatch");
    let d = grad.shape()[1];
    let mut out = vec![0.0f32; v * d];
    grad.with_data(|gd| {
        for (i, &id) in ids.iter().enumerate() {
            assert!(id < v, "scatter_add_rows: id {id} out of range {v}");
            for j in 0..d {
                out[id * d + j] += gd[i * d + j];
            }
        }
    });
    runtime::record_compute((ids.len() * d) as f64, grad.device());
    Tensor::from_vec_unrounded(out, &[v, d], DType::F32, grad.device())
}

/// Negative squared Euclidean distance matrix:
/// `out[i][j] = -‖w[i,:] − c[j,:]‖²` for `w: [n,d]`, `c: [k,d]`.
///
/// This is the distance kernel of the DKM attention map (Fig. 1 of the
/// paper). Scalar clustering (`d = 1`, the paper's setting) has its own
/// body: the general one's `0.0 + diff²` is `diff²`, because a square is
/// never −0.0, so each output is `-(w − c)²` in one vectorisable pass.
///
/// # Panics
///
/// Panics on rank/shape/device mismatch.
pub fn neg_sqdist(w: &Tensor, c: &Tensor) -> Tensor {
    check_same_device(w, c, "neg_sqdist");
    assert_eq!(w.rank(), 2, "neg_sqdist: w must be [n,d]");
    assert_eq!(c.rank(), 2, "neg_sqdist: c must be [k,d]");
    assert_eq!(
        w.shape()[1],
        c.shape()[1],
        "neg_sqdist: feature dims differ"
    );
    let (n, d) = (w.shape()[0], w.shape()[1]);
    let k = c.shape()[0];
    let mut out = vec![0.0f32; n * k];
    let sqdist_row = |i: usize, orow: &mut [f32], wd: &[f32], cd: &[f32]| {
        if d == 1 {
            sqdist_row_scalar(orow, wd[i], cd);
        } else {
            sqdist_row_general(orow, &wd[i * d..(i + 1) * d], cd);
        }
    };
    w.with_data(|wd| {
        c.with_data(|cd| {
            if k == 0 {
                // zero centroids: empty map (chunking needs k > 0)
            } else if n * k * d >= PAR_WORK_THRESHOLD && n > 1 {
                out.par_chunks_mut(k)
                    .enumerate()
                    .for_each(|(i, orow)| sqdist_row(i, orow, wd, cd));
            } else {
                for (i, orow) in out.chunks_mut(k).enumerate() {
                    sqdist_row(i, orow, wd, cd);
                }
            }
        })
    });
    runtime::record_compute(3.0 * (n * k * d) as f64, w.device());
    Tensor::from_vec_unrounded(out, &[n, k], DType::F32, w.device())
}

/// One row of [`neg_sqdist`] for a `d`-element `wrow` against the `[k, d]`
/// centroids `cd`: each output adds its `d` squared differences from 0.0.
fn sqdist_row_general(orow: &mut [f32], wrow: &[f32], cd: &[f32]) {
    let d = wrow.len();
    for (j, o) in orow.iter_mut().enumerate() {
        let crow = &cd[j * d..(j + 1) * d];
        let mut acc = 0.0f32;
        for (&wv, &cv) in wrow.iter().zip(crow) {
            let diff = wv - cv;
            acc += diff * diff;
        }
        *o = -acc;
    }
}

/// [`sqdist_row_general`] at `d = 1`, bit for bit: `-(w − c)²` per centroid.
fn sqdist_row_scalar(orow: &mut [f32], wv: f32, cd: &[f32]) {
    for (o, &cv) in orow.iter_mut().zip(cd) {
        let diff = wv - cv;
        *o = -(diff * diff);
    }
}

/// `true` if every element differs by at most `tol`.
pub fn allclose(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape() && max_abs_diff(a, b) <= tol
}

/// Largest absolute element-wise difference.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff shape mismatch");
    let av = a.to_vec();
    let bv = b.to_vec();
    av.iter()
        .zip(&bv)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Euclidean norm of all elements.
pub fn l2_norm(t: &Tensor) -> f32 {
    t.with_data(|d| {
        d.iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt() as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime;
    use std::cell::Cell;

    thread_local! {
        /// Set while a test runs the portable instantiation of
        /// [`softmax_rows`] on a CPU with AVX2 and FMA.
        pub(super) static PORTABLE_SOFTMAX: Cell<bool> = const { Cell::new(false) };
    }
    use proptest::prelude::*;

    fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(data, shape, DType::F32, Device::Cpu)
    }

    #[test]
    fn add_same_shape() {
        runtime::reset();
        let r = add(&t(vec![1.0, 2.0], &[2]), &t(vec![10.0, 20.0], &[2]));
        assert_eq!(r.to_vec(), vec![11.0, 22.0]);
    }

    #[test]
    fn broadcast_row_and_scalar() {
        runtime::reset();
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = t(vec![10.0, 20.0, 30.0], &[3]);
        assert_eq!(
            add(&a, &row).to_vec(),
            vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]
        );
        let s = t(vec![100.0], &[1]);
        assert_eq!(
            add(&a, &s).to_vec(),
            vec![101.0, 102.0, 103.0, 104.0, 105.0, 106.0]
        );
        let col = t(vec![1.0, 2.0], &[2, 1]);
        assert_eq!(
            mul(&col, &row).to_vec(),
            vec![10.0, 20.0, 30.0, 20.0, 40.0, 60.0]
        );
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn broadcast_incompatible_panics() {
        runtime::reset();
        add(&t(vec![0.0; 3], &[3]), &t(vec![0.0; 4], &[4]));
    }

    #[test]
    fn sub_mul_div() {
        runtime::reset();
        let a = t(vec![4.0, 9.0], &[2]);
        let b = t(vec![2.0, 3.0], &[2]);
        assert_eq!(sub(&a, &b).to_vec(), vec![2.0, 6.0]);
        assert_eq!(mul(&a, &b).to_vec(), vec![8.0, 27.0]);
        assert_eq!(div(&a, &b).to_vec(), vec![2.0, 3.0]);
        assert_eq!(add_scalar(&a, 1.0).to_vec(), vec![5.0, 10.0]);
        assert_eq!(mul_scalar(&a, 0.5).to_vec(), vec![2.0, 4.5]);
    }

    #[test]
    fn promote_rules() {
        assert_eq!(promote(DType::F32, DType::F32), DType::F32);
        assert_eq!(promote(DType::Bf16, DType::Bf16), DType::Bf16);
        assert_eq!(promote(DType::Bf16, DType::F32), DType::F32);
    }

    #[test]
    fn bf16_ops_stay_bf16_exact() {
        runtime::reset();
        let a = Tensor::randn(&[32], DType::Bf16, Device::Cpu, 1);
        let b = Tensor::randn(&[32], DType::Bf16, Device::Cpu, 2);
        let r = mul(&a, &b);
        assert_eq!(r.dtype(), DType::Bf16);
        for v in r.to_vec() {
            assert_eq!(DType::Bf16.round(v), v);
        }
    }

    #[test]
    fn matmul_known() {
        runtime::reset();
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(matmul(&a, &b).to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        runtime::reset();
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let eye = t(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        assert_eq!(matmul(&a, &eye).to_vec(), a.to_vec());
    }

    #[test]
    fn matmul_with_transposed_view() {
        runtime::reset();
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![1.0, 0.0, 2.0, 1.0], &[2, 2]);
        // a @ b^T
        let r = matmul(&a, &b.t());
        assert_eq!(r.to_vec(), vec![1.0, 4.0, 3.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_bad_shapes_panics() {
        runtime::reset();
        matmul(&t(vec![0.0; 6], &[2, 3]), &t(vec![0.0; 4], &[2, 2]));
    }

    #[test]
    fn zero_width_matmul_and_bmm_return_empty() {
        runtime::reset();
        let a = t(vec![0.0; 6], &[2, 3]);
        let b = Tensor::zeros(&[3, 0], DType::F32, Device::Cpu);
        let r = matmul(&a, &b);
        assert_eq!(r.shape(), &[2, 0]);
        assert!(r.to_vec().is_empty());
        let a3 = Tensor::zeros(&[2, 2, 3], DType::F32, Device::Cpu);
        let b3 = Tensor::zeros(&[2, 3, 0], DType::F32, Device::Cpu);
        assert_eq!(bmm(&a3, &b3).shape(), &[2, 2, 0]);
    }

    #[test]
    fn zero_centroid_neg_sqdist_returns_empty() {
        runtime::reset();
        let w = t(vec![1.0, 2.0], &[2, 1]);
        let c = Tensor::zeros(&[0, 1], DType::F32, Device::Cpu);
        let r = neg_sqdist(&w, &c);
        assert_eq!(r.shape(), &[2, 0]);
        assert!(r.to_vec().is_empty());
    }

    #[test]
    fn parallel_matmul_matches_serial_reference() {
        runtime::reset();
        // Big enough to clear PAR_WORK_THRESHOLD and exercise the threaded
        // path; compare row-by-row against a straightforward serial product.
        let (m, k, n) = (96, 64, 80);
        let a = Tensor::randn(&[m, k], DType::F32, Device::Cpu, 21);
        let b = Tensor::randn(&[k, n], DType::F32, Device::Cpu, 22);
        assert!(m * k * n >= super::PAR_WORK_THRESHOLD);
        let fast = matmul(&a, &b).to_vec();
        let (av, bv) = (a.to_vec(), b.to_vec());
        for i in 0..m {
            for j in 0..n {
                let want: f32 = (0..k).map(|p| av[i * k + p] * bv[p * n + j]).sum();
                assert!((fast[i * n + j] - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn parallel_bmm_matches_big_batches() {
        runtime::reset();
        let (ba, m, k, n) = (12, 16, 32, 24);
        let a = Tensor::randn(&[ba, m, k], DType::F32, Device::Cpu, 31);
        let b = Tensor::randn(&[ba, k, n], DType::F32, Device::Cpu, 32);
        assert!(ba * m * k * n >= super::PAR_WORK_THRESHOLD);
        let r = bmm(&a, &b);
        for bi in [0, 5, 11] {
            let ab = matmul(
                &a.slice(0, bi, 1).reshape(&[m, k]),
                &b.slice(0, bi, 1).reshape(&[k, n]),
            );
            let rb = r.slice(0, bi, 1).reshape(&[m, n]);
            assert!(allclose(&ab, &rb, 1e-5));
        }
    }

    #[test]
    fn parallel_neg_sqdist_matches_serial() {
        runtime::reset();
        let (n, k, d) = (2048, 32, 4);
        let w = Tensor::randn(&[n, d], DType::F32, Device::Cpu, 41);
        let c = Tensor::randn(&[k, d], DType::F32, Device::Cpu, 42);
        assert!(n * k * d >= super::PAR_WORK_THRESHOLD);
        let fast = neg_sqdist(&w, &c).to_vec();
        let (wv, cv) = (w.to_vec(), c.to_vec());
        for i in (0..n).step_by(97) {
            for j in 0..k {
                let want: f32 = -(0..d)
                    .map(|p| {
                        let diff = wv[i * d + p] - cv[j * d + p];
                        diff * diff
                    })
                    .sum::<f32>();
                assert!((fast[i * k + j] - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn matmul_advances_clock() {
        runtime::reset();
        let a = Tensor::rand(&[64, 64], DType::F32, Device::gpu(), 1);
        matmul(&a, &a);
        assert!(runtime::sim_seconds() > 0.0);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        runtime::reset();
        let a = Tensor::randn(&[3, 2, 4], DType::F32, Device::Cpu, 1);
        let b = Tensor::randn(&[3, 4, 5], DType::F32, Device::Cpu, 2);
        let r = bmm(&a, &b);
        for bi in 0..3 {
            let ab = matmul(
                &a.slice(0, bi, 1).reshape(&[2, 4]),
                &b.slice(0, bi, 1).reshape(&[4, 5]),
            );
            let rb = r.slice(0, bi, 1).reshape(&[2, 5]);
            assert!(allclose(&ab, &rb, 1e-6));
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        runtime::reset();
        let x = Tensor::randn(&[7, 11], DType::F32, Device::Cpu, 3);
        let s = softmax_lastdim(&x);
        for row in s.to_vec().chunks(11) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        runtime::reset();
        let x = t(vec![1000.0, 1000.0, -1000.0], &[1, 3]);
        let s = softmax_lastdim(&x).to_vec();
        assert!((s[0] - 0.5).abs() < 1e-5);
        assert!((s[1] - 0.5).abs() < 1e-5);
        assert!(s[2] < 1e-6);
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        runtime::reset();
        let x = Tensor::randn(&[4, 9], DType::F32, Device::Cpu, 5);
        let ls = log_softmax_lastdim(&x).to_vec();
        let s = softmax_lastdim(&x).to_vec();
        for (l, p) in ls.iter().zip(&s) {
            assert!((l.exp() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn reductions() {
        runtime::reset();
        let x = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(sum_all(&x).item(), 21.0);
        assert_eq!(mean_all(&x).item(), 3.5);
        assert_eq!(sum_axis(&x, 0).to_vec(), vec![5.0, 7.0, 9.0]);
        assert_eq!(sum_axis(&x, 1).to_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn sum_axis_3d() {
        runtime::reset();
        let x = Tensor::arange(24, DType::F32, Device::Cpu).reshape(&[2, 3, 4]);
        let s = sum_axis(&x, 1);
        assert_eq!(s.shape(), &[2, 4]);
        assert_eq!(s.get(&[0, 0]), 0.0 + 4.0 + 8.0);
        assert_eq!(s.get(&[1, 3]), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn argmax_rows() {
        runtime::reset();
        let x = t(vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5], &[2, 3]);
        assert_eq!(argmax_lastdim(&x), vec![1, 2]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        runtime::reset();
        let table = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = gather_rows(&table, &[2, 0, 2]);
        assert_eq!(g.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let back = scatter_add_rows(&g, &[2, 0, 2], 3);
        assert_eq!(back.to_vec(), vec![1.0, 2.0, 0.0, 0.0, 10.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_bad_id_panics() {
        runtime::reset();
        gather_rows(&t(vec![0.0; 4], &[2, 2]), &[5]);
    }

    #[test]
    fn neg_sqdist_known() {
        runtime::reset();
        let w = t(vec![0.0, 1.0, 2.0], &[3, 1]);
        let c = t(vec![0.0, 2.0], &[2, 1]);
        let d = neg_sqdist(&w, &c);
        assert_eq!(d.shape(), &[3, 2]);
        assert_eq!(d.to_vec(), vec![0.0, -4.0, -1.0, -1.0, -4.0, 0.0]);
    }

    #[test]
    fn neg_sqdist_vector_dim() {
        runtime::reset();
        let w = t(vec![0.0, 0.0, 3.0, 4.0], &[2, 2]);
        let c = t(vec![0.0, 0.0], &[1, 2]);
        let d = neg_sqdist(&w, &c);
        assert_eq!(d.to_vec(), vec![0.0, -25.0]);
    }

    #[test]
    fn closeness_helpers() {
        runtime::reset();
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.1], &[2]);
        assert!((max_abs_diff(&a, &b) - 0.1).abs() < 1e-6);
        assert!(allclose(&a, &b, 0.2));
        assert!(!allclose(&a, &b, 0.05));
        assert!((l2_norm(&t(vec![3.0, 4.0], &[2])) - 5.0).abs() < 1e-6);
    }

    // ---------- fast bodies vs. the paths they bypass, bit for bit ----------

    /// The elements of `t` in logical order, read one offset at a time
    /// through [`Layout::iter_offsets`] (the walk the rank-2 bodies replace).
    fn logical(t: &Tensor) -> Vec<f32> {
        t.storage()
            .with_data(|d| t.layout().iter_offsets().map(|o| d[o]).collect())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A `[rows, cols]` operand of mixed magnitudes (so the order of every
    /// sum shows in its bits) with a -0.0 first element, as a `view`:
    /// "contiguous", "transposed" (`.t()` of a `[cols, rows]` tensor) or
    /// "sliced" (columns 1.. of a wider tensor).
    fn operand(rows: usize, cols: usize, view: &str, dtype: DType, seed: u64) -> Tensor {
        let (r, c) = match view {
            "transposed" => (cols, rows),
            "sliced" => (rows, cols + 2),
            _ => (rows, cols),
        };
        let normal = Tensor::randn(&[r * c], DType::F32, Device::Cpu, seed).to_vec();
        let mut data: Vec<f32> = normal
            .iter()
            .enumerate()
            .map(|(i, v)| v * [1e-3, 1.0, 1e3][i % 3])
            .collect();
        if let Some(first) = data.first_mut() {
            *first = -0.0;
        }
        let base = Tensor::from_vec(data, &[r, c], dtype, Device::Cpu);
        match view {
            "transposed" => base.t(),
            "sliced" => base.slice(1, 1, cols),
            _ => base,
        }
    }

    /// The row kernel `matmul` ran on contiguous copies before reading
    /// views in place: `out[i, :] += a[i, p] · b[p, :]` in `p` order.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        let (av, bv) = (logical(a), logical(b));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += av[i * k + p] * bv[p * n + j];
                }
            }
        }
        let dt = promote(a.dtype(), b.dtype());
        out.into_iter().map(|v| dt.round(v)).collect()
    }

    #[test]
    fn matmul_views_and_matrix_vector_match_the_row_kernel() {
        runtime::reset();
        // Empty, tiny, matrix-vector (serial and fanned out) and general
        // shapes, the last past the threading threshold.
        let shapes = [
            (0, 3, 2),
            (3, 0, 2),
            (3, 2, 0),
            (0, 0, 1),
            (3, 0, 1),
            (1, 1, 1),
            (7, 5, 1),
            (1500, 8, 1),
            (8, 1500, 1),
            (300, 600, 1),
            (9, 13, 4),
            (1500, 1, 8),
            (64, 64, 40),
        ];
        for (m, k, n) in shapes {
            for lhs in ["contiguous", "transposed", "sliced"] {
                for rhs in ["contiguous", "transposed", "sliced"] {
                    for dtype in [DType::F32, DType::Bf16] {
                        let a = operand(m, k, lhs, dtype, 1);
                        let b = operand(k, n, rhs, dtype, 2);
                        let got = matmul(&a, &b);
                        assert_eq!(got.shape(), &[m, n]);
                        assert_eq!(
                            bits(&got.to_vec()),
                            bits(&matmul_reference(&a, &b)),
                            "[{m},{k}] {lhs} × [{k},{n}] {rhs}, {dtype}"
                        );
                    }
                }
            }
        }
        const _: () = assert!(300 * 600 >= super::PAR_WORK_THRESHOLD);
        // A row whose products are all -0.0 sums to +0.0, as the zeroed
        // output row did (a sum started from -0.0 would keep the sign).
        let a = t(vec![-0.0, -0.0, 1.0, 2.0], &[2, 2]);
        let b = t(vec![1.0, 3.0], &[2, 1]);
        for lhs in [a.clone(), a.t().contiguous().t()] {
            let got = matmul(&lhs, &b).to_vec();
            assert_eq!(bits(&got), bits(&[0.0, 7.0]));
            assert_eq!(bits(&got), bits(&matmul_reference(&lhs, &b)));
        }
    }

    /// The outer × axis × inner loop `sum_axis` ran for every axis.
    fn sum_axis_reference(t: &Tensor, axis: usize) -> Vec<f32> {
        let shape = t.shape();
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let data = logical(t);
        let mut out = vec![0.0f32; outer * inner];
        for o in 0..outer {
            for m in 0..mid {
                for i in 0..inner {
                    out[o * inner + i] += data[(o * mid + m) * inner + i];
                }
            }
        }
        out
    }

    #[test]
    fn last_axis_sum_matches_the_general_loop() {
        runtime::reset();
        for shape in [
            vec![4, 5],
            vec![1500, 8],
            vec![3, 0],
            vec![0, 3],
            vec![2, 3, 4],
            vec![2, 3, 0],
            vec![6],
            vec![0],
        ] {
            let n: usize = shape.iter().product();
            let flat = operand(1, n, "contiguous", DType::F32, 3).reshape(&shape);
            for axis in 0..shape.len() {
                let got = sum_axis(&flat, axis);
                assert_eq!(
                    bits(&got.to_vec()),
                    bits(&sum_axis_reference(&flat, axis)),
                    "{shape:?} axis {axis}"
                );
            }
        }
        // A row of -0.0 sums to +0.0, not to `Iterator::sum`'s -0.0.
        let zeros = t(vec![-0.0, -0.0, -0.0, 1.0, 2.0, 3.0], &[2, 3]);
        assert_eq!(bits(&sum_axis(&zeros, 1).to_vec()), bits(&[0.0, 6.0]));
        // A transposed view sums through its logical order.
        let tv = operand(6, 9, "transposed", DType::Bf16, 4);
        for axis in 0..2 {
            assert_eq!(
                bits(&sum_axis(&tv, axis).to_vec()),
                bits(&sum_axis_reference(&tv, axis))
            );
        }
    }

    #[test]
    fn map_matches_per_element_rounding() {
        runtime::reset();
        let f = |v: f32| v * 0.3 + 1e-3;
        for dtype in [DType::F32, DType::Bf16, DType::F16] {
            for view in ["contiguous", "transposed", "sliced"] {
                let x = operand(5, 7, view, dtype, 5);
                let got = x.map(f);
                assert_eq!(got.dtype(), dtype);
                let want: Vec<f32> = logical(&x).into_iter().map(|v| dtype.round(f(v))).collect();
                assert_eq!(bits(&got.to_vec()), bits(&want), "{dtype} {view}");
            }
        }
    }

    // ---------- exact f64 products vs. the f32 loops they replace ----------

    /// `NaN`-aware bit comparison: NaN payloads are unspecified, NaN-ness is.
    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got.iter().zip(want).all(|(x, y)| {
                if y.is_nan() {
                    x.is_nan()
                } else {
                    x.to_bits() == y.to_bits()
                }
            })
    }

    fn count_subnormals(v: &[f32]) -> usize {
        v.iter().filter(|x| x.is_subnormal()).count()
    }

    /// `[rows, k]` logits with every third entry pushed 87–103 below its
    /// row, so its softmax entry lands between f32's smallest normal and
    /// its smallest subnormal: a sharp DKM attention map.
    fn sharp_logits(rows: usize, k: usize, seed: u64) -> Tensor {
        let x = Tensor::randn(&[rows, k], DType::F32, Device::Cpu, seed).to_vec();
        let data = x
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i % 3 == 1 {
                    v - 87.0 - 16.0 * (i % 17) as f32 / 16.0
                } else {
                    v
                }
            })
            .collect();
        Tensor::from_vec(data, &[rows, k], DType::F32, Device::Cpu)
    }

    /// The softmax loop with an f32 multiply by each row's `1 / sum`.
    fn softmax_plain(data: &[f32], cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; data.len()];
        for (row_in, row_out) in data.chunks(cols).zip(out.chunks_mut(cols)) {
            let mx = row_in.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &v) in row_out.iter_mut().zip(row_in) {
                *o = (v - mx).exp();
                sum += *o;
            }
            let inv = 1.0 / sum;
            for o in row_out.iter_mut() {
                *o *= inv;
            }
        }
        out
    }

    #[test]
    fn softmax_with_subnormal_entries_matches_the_f32_loop() {
        runtime::reset();
        for (rows, k) in [(2048, 8), (5, 3), (1, 1), (3, 40)] {
            let x = sharp_logits(rows, k, 61);
            let got = softmax_lastdim(&x).to_vec();
            let want = softmax_plain(&x.to_vec(), k);
            assert_eq!(bits(&got), bits(&want), "[{rows}, {k}]");
            if k > 1 {
                assert!(
                    count_subnormals(&want) > 0,
                    "[{rows}, {k}] holds subnormals"
                );
            }
        }
        // Sums of subnormal rows: a row whose every entry is far below
        // its max.
        let x = t(vec![0.0, -100.0, -101.5, -103.0, 0.0, -88.0], &[1, 6]);
        let (got, want) = (softmax_lastdim(&x).to_vec(), softmax_plain(&x.to_vec(), 6));
        assert_eq!(bits(&got), bits(&want));
        assert!(count_subnormals(&want) >= 3);
    }

    /// Rows where a max taken in another order could differ, or where the
    /// exponentials leave their vector body: a max of +0.0 or -0.0 in
    /// each position, alone or beside the other zero; all-zero rows of
    /// every sign pattern; a row with one NaN and an all-NaN row; causal
    /// mask rows of -1e9 with one finite entry; at widths 1 to 9, 16 and 64.
    /// Both instantiations of the body run them: up to width 16 in calls
    /// of 1 to 17 rows, rotated through every position of the call, so a
    /// partial block of eight meets each row in every lane; the 8 320 rows
    /// of width 64 in one call.
    #[test]
    fn softmax_with_signed_zero_maxima_nans_and_masked_rows_matches_the_f32_loop() {
        runtime::reset();
        for width in (1..=9).chain([16, 64]) {
            let base: Vec<f32> = (0..width).map(|j| -0.5 - 0.25 * j as f32).collect();
            let mut rows = vec![vec![f32::NAN; width]];
            for p in 0..width {
                for zero in [0.0, -0.0] {
                    let mut row = base.clone();
                    row[p] = zero;
                    for q in (0..width).filter(|&q| q != p) {
                        let mut both = row.clone();
                        both[q] = -zero;
                        rows.push(both);
                    }
                    rows.push(row);
                }
                let mut row = base.clone();
                row[p] = f32::NAN;
                rows.push(row);
                let mut row = vec![-1e9; width];
                row[p] = 0.3 * p as f32 - 1.0;
                rows.push(row);
            }
            if width <= 9 {
                for signs in 0u32..1 << width {
                    rows.push(
                        (0..width)
                            .map(|j| if signs >> j & 1 == 1 { -0.0 } else { 0.0 })
                            .collect(),
                    );
                }
            }
            let data = rows.concat();
            let want = bits(&softmax_plain(&data, width));
            let x = t(data.clone(), &[rows.len(), width]);
            assert_eq!(bits(&softmax_lastdim(&x).to_vec()), want, "width {width}");
            let n = rows.len();
            let calls: Vec<(usize, usize)> = if width > 16 {
                vec![(n, 0)]
            } else {
                (1..=17).flat_map(|c| (0..c).map(move |s| (c, s))).collect()
            };
            for portable in [false, true] {
                PORTABLE_SOFTMAX.set(portable);
                for &(call_rows, shift) in &calls {
                    let order: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
                    for call in order.chunks(call_rows) {
                        let mut got: Vec<f32> =
                            call.iter().flat_map(|&r| rows[r].clone()).collect();
                        softmax_rows(&mut got, width, Device::Cpu);
                        let want: Vec<u32> = call
                            .iter()
                            .flat_map(|&r| want[r * width..][..width].to_vec())
                            .collect();
                        assert_eq!(
                            bits(&got),
                            want,
                            "width {width}, calls of {call_rows} rows shifted by {shift}, \
                             portable {portable}"
                        );
                    }
                }
            }
            PORTABLE_SOFTMAX.set(false);
        }
    }

    #[test]
    fn mul_scalar_matches_the_f32_product() {
        runtime::reset();
        let mut data = sharp_logits(64, 8, 62).to_vec();
        data.extend(softmax_plain(&data.clone(), 8));
        data.extend([
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x7f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ]);
        assert!(count_subnormals(&data) > 0);
        let scalars = [
            -2.0,
            3.7e4, // a logit scale 1 / (τ·var(w))
            1.0 / 3.0,
            0.0,
            -0.0,
            f32::from_bits(3),
            1.0e-30,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        for dtype in [DType::F32, DType::Bf16] {
            let x = Tensor::from_vec(data.clone(), &[data.len()], dtype, Device::Cpu);
            for s in scalars {
                let want: Vec<f32> = x.to_vec().iter().map(|&v| dtype.round(v * s)).collect();
                let got = mul_scalar(&x, s);
                assert_eq!(got.dtype(), dtype);
                assert!(same_bits(&got.to_vec(), &want), "{dtype} × {s:e}");
            }
        }
    }

    /// `A·B` through both multiply bodies, and which one `matmul` picks.
    fn both_bodies(a: &Tensor, b: &Tensor) -> (Vec<f32>, Vec<f32>, bool) {
        let (m, n) = (a.shape()[0], b.shape()[1]);
        let lhs = a.layout().as_matrix().expect("rank 2");
        let (mut plain, mut wide) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let picked = a.storage().with_data(|ad| {
            b.with_data(|bd| {
                matmul_into(&mut plain, ad, lhs, bd, n);
                matmul_into(&mut wide, ad, lhs, &exact::widen(bd), n);
                exact::products_touch_subnormals(span(ad, lhs), bd)
            })
        });
        (plain, wide, picked)
    }

    #[test]
    fn matmul_bodies_agree_on_both_sides_of_the_selection() {
        runtime::reset();
        // A `[rows, cols]` operand of `family`, as a contiguous or a
        // transposed view.
        let make = |family: &str, rows: usize, cols: usize, transposed: bool, seed: u64| {
            let (r, c) = if transposed {
                (cols, rows)
            } else {
                (rows, cols)
            };
            let data: Vec<f32> = match family {
                // Typical activations and weights: no product near 2^-126.
                "activations" => operand(r, c, "contiguous", DType::F32, seed).to_vec(),
                // A sharp 8-centroid attention map holding subnormals, its
                // entries laid out over the operand's shape.
                "map" => {
                    let mut v =
                        softmax_lastdim(&sharp_logits((r * c).div_ceil(8), 8, seed)).to_vec();
                    v.truncate(r * c);
                    v
                }
                // Normal values whose products straddle 2^-126 (some round
                // up to f32::MIN_POSITIVE).
                "straddling" => Tensor::rand(&[r * c], DType::F32, Device::Cpu, seed)
                    .to_vec()
                    .iter()
                    .map(|&u| (0.5 + 1.5 * u) * 2f32.powi(-63))
                    .collect(),
                _ => unreachable!(),
            };
            let base = Tensor::from_vec(data, &[r, c], DType::F32, Device::Cpu);
            if transposed {
                base.t()
            } else {
                base
            }
        };
        let cases = [
            ("activations", "activations", false),
            ("map", "activations", true),
            ("activations", "map", true),
            ("straddling", "straddling", true),
            ("map", "straddling", true),
        ];
        // Matrix–vector (serial and fanned out) and general shapes.
        for (m, k, n) in [
            (40, 8, 1),
            (8, 40, 1),
            (2048, 8, 1),
            (300, 600, 1),
            (16, 8, 5),
            (9, 13, 4),
        ] {
            for (lhs_family, rhs_family, exact_wanted) in cases {
                for (transposed, seed) in [(false, 1), (true, 2)] {
                    let a = make(lhs_family, m, k, transposed, seed);
                    let b = make(rhs_family, k, n, false, seed + 10);
                    let (plain, wide, picked) = both_bodies(&a, &b);
                    let case = format!(
                        "[{m},{k}] {lhs_family} (transposed {transposed}) × [{k},{n}] {rhs_family}"
                    );
                    assert_eq!(bits(&plain), bits(&wide), "{case}: bodies differ");
                    assert_eq!(bits(&plain), bits(&matmul_reference(&a, &b)), "{case}");
                    assert_eq!(bits(&matmul(&a, &b).to_vec()), bits(&plain), "{case}");
                    assert_eq!(picked, exact_wanted, "{case}: body picked");
                }
            }
        }
        // The straddling family really straddles: some products are
        // subnormal, some round up to f32::MIN_POSITIVE or above.
        let x = make("straddling", 1, 4096, false, 5).to_vec();
        let products: Vec<f32> = x.windows(2).map(|w| w[0] * w[1]).collect();
        assert!(count_subnormals(&products) > 0);
        assert!(products.iter().any(|&p| p >= f32::MIN_POSITIVE));
    }

    #[test]
    fn scalar_sqdist_matches_the_general_body() {
        runtime::reset();
        let specials = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::MIN_POSITIVE,
            1.0e-20,
            3.0e19,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        // Serial and fanned-out shapes, and rows of special values against
        // special centroids.
        for (n, k, seed) in [(2048, 8, 71), (7, 3, 72), (20_000, 8, 73), (3, 0, 74)] {
            let w = Tensor::randn(&[n, 1], DType::F32, Device::Cpu, seed).map(|v| v * 0.02);
            let c = Tensor::randn(&[k, 1], DType::F32, Device::Cpu, seed + 1).map(|v| v * 0.02);
            let cases = [
                (w.clone(), c.clone()),
                (t(specials.to_vec(), &[specials.len(), 1]), c.clone()),
                (w, t(specials.to_vec(), &[specials.len(), 1])),
            ];
            for (w, c) in cases {
                let (n, k) = (w.shape()[0], c.shape()[0]);
                let got = neg_sqdist(&w, &c).to_vec();
                let (wd, cd) = (w.to_vec(), c.to_vec());
                let mut want = vec![0.0f32; n * k];
                if k > 0 {
                    for (i, orow) in want.chunks_mut(k).enumerate() {
                        sqdist_row_general(orow, &wd[i..i + 1], &cd);
                    }
                }
                assert!(same_bits(&got, &want), "[{n}, 1] against [{k}, 1]");
            }
        }
    }

    /// `binary_op`'s per-element offset walk over both broadcast layouts.
    fn binary_reference(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
        let shape = broadcast_shapes(a.shape(), b.shape());
        let (la, lb) = (
            a.layout().broadcast_to(&shape),
            b.layout().broadcast_to(&shape),
        );
        let dt = promote(a.dtype(), b.dtype());
        a.storage().with_data(|ad| {
            b.storage().with_data(|bd| {
                la.iter_offsets()
                    .zip(lb.iter_offsets())
                    .map(|(x, y)| dt.round(f(ad[x], bd[y])))
                    .collect()
            })
        })
    }

    #[test]
    fn binary_op_on_transposed_and_broadcast_views_matches_the_offset_walk() {
        runtime::reset();
        let (r, c) = (37, 8);
        for (da, db) in [
            (DType::F32, DType::F32),
            (DType::Bf16, DType::Bf16),
            (DType::Bf16, DType::F32),
        ] {
            let rank3 = operand(1, 24, "contiguous", da, 6).reshape(&[2, 3, 4]);
            let shapes_b: Vec<Tensor> = vec![
                operand(r, c, "contiguous", db, 7),
                operand(r, c, "transposed", db, 8),
                operand(r, c, "sliced", db, 9),
                operand(r, 1, "contiguous", db, 10),
                operand(1, c, "contiguous", db, 11),
                operand(1, c, "contiguous", db, 12).reshape(&[c]),
                Tensor::scalar(-2.5, db, Device::Cpu),
            ];
            for view in ["contiguous", "transposed", "sliced"] {
                let a = operand(r, c, view, da, 13);
                for b in &shapes_b {
                    for (x, y) in [(&a, b), (b, &a)] {
                        let got = sub(x, y);
                        assert_eq!(
                            bits(&got.to_vec()),
                            bits(&binary_reference(x, y, |p, q| p - q)),
                            "{:?} {} - {:?} {}",
                            x.shape(),
                            x.dtype(),
                            y.shape(),
                            y.dtype()
                        );
                    }
                }
            }
            // Rank 3 keeps the gather-and-zip and offset-walk paths.
            let strided3 = operand(1, 24, "contiguous", db, 14)
                .reshape(&[2, 4, 3])
                .transpose(1, 2);
            let row = operand(1, 4, "contiguous", db, 15).reshape(&[4]);
            for (x, y) in [(&rank3, &strided3), (&strided3, &rank3), (&strided3, &row)] {
                assert_eq!(
                    bits(&sub(x, y).to_vec()),
                    bits(&binary_reference(x, y, |p, q| p - q))
                );
            }
        }
    }

    #[test]
    fn gather_matches_the_offset_walk() {
        runtime::reset();
        let base = operand(9, 7, "contiguous", DType::Bf16, 15);
        let col = Tensor::from_vec(vec![1.0, -0.0, 3.0], &[3, 1], DType::F32, Device::Cpu);
        for view in [
            base.t(),
            base.slice(0, 2, 4),
            base.slice(1, 3, 2),
            base.t().slice(0, 1, 3),
            base.slice(1, 0, 0),
            base.t().slice(1, 4, 0),
            base.reshape(&[63]).slice(0, 5, 20),
            col.broadcast_to(&[3, 4]),
            col.t().broadcast_to(&[5, 3]),
            Tensor::scalar(1.5, DType::F32, Device::Cpu).broadcast_to(&[2, 2]),
            Tensor::arange(24, DType::F32, Device::Cpu)
                .reshape(&[2, 3, 4])
                .transpose(0, 2),
        ] {
            assert_eq!(
                bits(&view.to_vec()),
                bits(&logical(&view)),
                "{:?} strides {:?}",
                view.shape(),
                view.layout().strides()
            );
            assert_eq!(bits(&view.contiguous().to_vec()), bits(&logical(&view)));
        }
    }

    proptest! {
        /// Softmax rows always sum to 1 and stay in (0, 1].
        #[test]
        fn prop_softmax_simplex(rows in 1usize..6, cols in 1usize..8, seed in any::<u64>()) {
            runtime::reset();
            let x = Tensor::randn(&[rows, cols], DType::F32, Device::Cpu, seed);
            let s = softmax_lastdim(&x);
            for row in s.to_vec().chunks(cols) {
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
            }
        }

        /// Matmul distributes over addition: (a+b)c = ac + bc.
        #[test]
        fn prop_matmul_distributive(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in any::<u64>()) {
            runtime::reset();
            let a = Tensor::randn(&[m, k], DType::F32, Device::Cpu, seed);
            let b = Tensor::randn(&[m, k], DType::F32, Device::Cpu, seed.wrapping_add(1));
            let c = Tensor::randn(&[k, n], DType::F32, Device::Cpu, seed.wrapping_add(2));
            let lhs = matmul(&add(&a, &b), &c);
            let rhs = add(&matmul(&a, &c), &matmul(&b, &c));
            prop_assert!(allclose(&lhs, &rhs, 1e-3));
        }

        /// neg_sqdist is always ≤ 0 and zero exactly on identical rows.
        #[test]
        fn prop_neg_sqdist_sign(n in 1usize..6, k in 1usize..6, seed in any::<u64>()) {
            runtime::reset();
            let w = Tensor::randn(&[n, 1], DType::F32, Device::Cpu, seed);
            let d = neg_sqdist(&w, &w.slice(0, 0, k.min(n)));
            prop_assert!(d.to_vec().iter().all(|&v| v <= 0.0));
            // Diagonal of self-distance is zero.
            for i in 0..k.min(n) {
                prop_assert_eq!(d.get(&[i, i]), 0.0);
            }
        }

        /// scatter_add is the adjoint of gather: <gather(T,ids), G> == <T, scatter(G,ids)>.
        #[test]
        fn prop_gather_scatter_adjoint(v in 1usize..6, d in 1usize..4, n in 1usize..8, seed in any::<u64>()) {
            runtime::reset();
            let table = Tensor::randn(&[v, d], DType::F32, Device::Cpu, seed);
            let ids: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % v).collect();
            let g = Tensor::randn(&[n, d], DType::F32, Device::Cpu, seed.wrapping_add(9));
            let lhs: f32 = mul(&gather_rows(&table, &ids), &g).with_data(|x| x.iter().sum());
            let rhs: f32 = mul(&table, &scatter_add_rows(&g, &ids, v)).with_data(|x| x.iter().sum());
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }
}
