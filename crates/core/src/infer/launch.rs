//! The execution body of the tiled LUT-GEMM kernel.
//!
//! [`super::kernel::TiledLutKernel`] owns the *data* (palette LUT, the
//! packed, lane-interleaved index stream); `run_tiled` is the one
//! *execution* its `forward_into` calls. Output rows advance in lane
//! groups of [`LANES`]. Lanes are assigned **across output rows**, so each
//! lane owns one output element's complete ascending-`j` accumulator chain
//! and no floating-point reduction ever crosses lanes: the result is
//! bit-identical to the serial oracle
//! ([`super::kernel::TiledLutKernel::forward_serial_into`]) by
//! construction, at every thread count. Tail rows (`rows % LANES`) take
//! the fixed descent 4 → 2 → 1, so the execution tree is deterministic by
//! construction, not by accident of the optimizer.
//!
//! Palettes of at most 3 bits (the paper's 3-bit palettes) fit in one
//! 8-float register. On CPUs with AVX2 a lane group gets a column's
//! indices from its packed words with one immediate shift (`vpsrld`; the
//! two 3-bit indices in 32 that straddle two words add a shift and an
//! `or`), and one `vpermps` with them selects from that register. A lone
//! batch row multiplies the palette by the broadcast `x[j]` once per
//! column and permutes that product line, walking full tiles in pairs so
//! four accumulator chains are in flight. Groups of 2 to [`GROUP_ROWS`]
//! batch rows permute the palette itself once per column, which gives the
//! decoded weights `lut[idx[r, j]]`, and multiply them by each row's
//! `x[i, j]`; a tile streams each `(tile, chunk)` block once per group,
//! not once per row. Either way every lane adds the f32 product
//! `lut[c] · x[j]` in the same order as the portable body, so both bodies
//! are bit-identical to the oracle (DESIGN.md §12). Every other case
//! (richer palettes, CPUs without AVX2) runs the portable body, which
//! reads the same words with shift-and-mask and gathers from an
//! activation-side product table or multiplies inline. Work below
//! [`FANOUT_MACS`] runs on the calling thread, spawning nothing.

use super::kernel::{
    tile_rows, Column, TiledLutKernel, IN_CHUNK, PROD_K_MAX, PROD_TABLE_MAX_FLOATS, TILE_OUT,
};
use crate::scratch::ScratchArena;
use rayon::prelude::*;

/// Output rows one lane group advances together.
pub const LANES: usize = 8;

/// Palette entries one 256-bit register holds (shorter palettes are
/// padded), so one AVX2 `vpermps` selects any entry for all [`LANES`]
/// rows of a group.
pub(crate) const LINE: usize = 8;

/// Batch rows whose products one pass over a `(tile, chunk)` block adds.
/// The AVX2 body holds two accumulator registers per row (a tile's two
/// lane groups), so 4 rows' 8 accumulators, the palette, the column's two
/// decoded weight registers, one broadcast `x`, one product and the
/// registers that shift the column's indices out of their words fit in
/// the 16 `ymm` registers. At 5 and 6 rows the compiler spills, and such
/// groups run slower than two smaller ones (DESIGN.md §12).
pub const GROUP_ROWS: usize = 4;

/// Multiply-accumulates (`n · out · (in + k)`) from which a call fans its
/// output tiles out over worker threads. Below it every tile runs on the
/// calling thread: a thread spawn and join costs more than it saves on
/// the projections served here (DESIGN.md §12), and the calling thread
/// allocates nothing.
pub const FANOUT_MACS: usize = 1 << 22;

/// Widest index the AVX2 bodies read: `vpermps` selects by the low 3 bits
/// of each lane, one of the [`LINE`] floats of the palette register.
const AVX2_BITS: usize = 3;

// The AVX2 body holds one lane group, and the whole palette, per register,
// and a tile is at most two lane groups.
const _: () = assert!(LANES == 8 && LINE == 1 << AVX2_BITS && TILE_OUT == 2 * LANES);

/// Add one `(tile, chunk)` block of `bits`-bit indices to a tile's
/// accumulators from row `r` on: `acc[r] += term_j(idx[r, j])` for every
/// row, where `columns` yields `term_j` for ascending `j` — a
/// product-table line lookup, or the inline `lut[c] · x[j]` multiply. A
/// lane group copies its [`LANES`] accumulators into a private buffer,
/// which keeps them in registers across the whole chunk; the tail rows
/// descend through widths 4, 2, 1 in that order (the tail count in
/// binary).
#[inline(always)]
fn accumulate<T, C>(acc: &mut [f32], blk: &[u32], bits: usize, columns: C, mut r: usize)
where
    T: Fn(usize) -> f32,
    C: Iterator<Item = T> + Clone,
{
    let rows = acc.len();
    while r + LANES <= rows {
        let mut lane = [0.0f32; LANES];
        lane.copy_from_slice(&acc[r..r + LANES]);
        for (j, term) in columns.clone().enumerate() {
            let col = Column::new(j, rows, bits);
            for (l, a) in lane.iter_mut().enumerate() {
                *a += term(col.index(blk, r + l));
            }
        }
        acc[r..r + LANES].copy_from_slice(&lane);
        r += LANES;
    }
    let mut w = LANES / 2;
    while w >= 1 {
        if r + w <= rows {
            for (j, term) in columns.clone().enumerate() {
                let col = Column::new(j, rows, bits);
                for (l, a) in acc[r..r + w].iter_mut().enumerate() {
                    *a += term(col.index(blk, r + l));
                }
            }
            r += w;
        }
        w /= 2;
    }
}

/// Split `n` batch rows into `n.div_ceil(GROUP_ROWS)` consecutive groups
/// whose sizes differ by at most one, the larger first (13 rows → 4, 3,
/// 3, 3): `(first row, rows)` pairs. Balanced groups keep every pass of
/// the AVX2 body at least half full, where 4, 4, 4, 1 would run one pass
/// at a single row.
fn row_groups(n: usize) -> impl Iterator<Item = (usize, usize)> + Clone {
    let groups = n.div_ceil(GROUP_ROWS);
    let (rows, longer) = (n / groups, n % groups);
    (0..groups).map(move |q| (q * rows + q.min(longer), rows + usize::from(q < longer)))
}

/// The AVX2 lane bodies. Every function here enables `avx2` and nothing
/// else (no `fma`), so a multiply and an add stay two roundings.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{AVX2_BITS, LANES, LINE};
    use crate::infer::kernel::{block_len, GROUP_COLS, TILE_OUT};
    use std::arch::x86_64::{
        __m256i, _mm256_add_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_mul_ps,
        _mm256_or_si256, _mm256_permutevar8x32_ps, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_setzero_si256, _mm256_slli_epi32, _mm256_sllv_epi32,
        _mm256_srli_epi32, _mm256_srlv_epi32, _mm256_storeu_ps,
    };

    /// Expand `$column!($b, q)` for every column `q` of a 32-column group
    /// of `$b`-bit indices, so each column's shift counts are constants:
    /// the group body's walk over a group.
    macro_rules! for_each_column {
        ($column:ident, $b:literal) => {{
            $column!($b, 0);
            $column!($b, 1);
            $column!($b, 2);
            $column!($b, 3);
            $column!($b, 4);
            $column!($b, 5);
            $column!($b, 6);
            $column!($b, 7);
            $column!($b, 8);
            $column!($b, 9);
            $column!($b, 10);
            $column!($b, 11);
            $column!($b, 12);
            $column!($b, 13);
            $column!($b, 14);
            $column!($b, 15);
            $column!($b, 16);
            $column!($b, 17);
            $column!($b, 18);
            $column!($b, 19);
            $column!($b, 20);
            $column!($b, 21);
            $column!($b, 22);
            $column!($b, 23);
            $column!($b, 24);
            $column!($b, 25);
            $column!($b, 26);
            $column!($b, 27);
            $column!($b, 28);
            $column!($b, 29);
            $column!($b, 30);
            $column!($b, 31);
        }};
    }

    /// The lane indices of column `$q` of a whole 32-column group of
    /// `$b`-bit indices for one lane group, whose `$b` words of the group
    /// are the runs of [`LANES`] words at `$run.add(w · $stride)`: one
    /// immediate `vpsrld`, and for an index that straddles two words a
    /// `vpslld` of the next word and a `vpor`. Each lane keeps the bits
    /// above its index: `vpermps` reads only the low 3, and the palette
    /// register repeats a 1- or 2-bit palette, so those bits never change
    /// the entry a lane selects. Reads raw pointers: call it in an
    /// `unsafe` block whose caller has checked that the words exist.
    macro_rules! lane_index {
        ($run:expr, $stride:expr, $b:literal, $q:literal) => {{
            const BIT: usize = $q * $b;
            const SHIFT: i32 = (BIT % 32) as i32;
            let at: *const u32 = $run.add(BIT / 32 * $stride);
            let v = _mm256_srli_epi32::<SHIFT>(_mm256_loadu_si256(at.cast()));
            if BIT % 32 + $b > 32 {
                let next = _mm256_loadu_si256(at.add($stride).cast());
                _mm256_or_si256(v, _mm256_slli_epi32::<{ 32 - SHIFT }>(next))
            } else {
                v
            }
        }};
    }

    /// [`lane_index!`] for column `q` of a row's partial last group, with
    /// variable shifts.
    ///
    /// # Safety
    ///
    /// `run` must be valid for reads of `(bits - 1) · stride + LANES`
    /// words, and `q < 32`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn partial_lane_index(run: *const u32, stride: usize, bits: usize, q: usize) -> __m256i {
        let bit = q * bits;
        let (w, shift) = (bit / 32, (bit % 32) as i32);
        // SAFETY: `q < 32` puts word `w` below `bits`, and `min` keeps the
        // next one there too, so both runs of 8 words are readable.
        let (lo, hi) = unsafe {
            (
                _mm256_loadu_si256(run.add(w * stride).cast()),
                _mm256_loadu_si256(run.add((w + 1).min(bits - 1) * stride).cast()),
            )
        };
        // A count of 32 shifts `hi` out altogether.
        _mm256_or_si256(
            _mm256_srlv_epi32(lo, _mm256_set1_epi32(shift)),
            _mm256_sllv_epi32(hi, _mm256_set1_epi32(32 - shift)),
        )
    }

    /// One batch row over `L` lane groups of output rows: `lanes[i]` is
    /// lane group `i`'s `(tile, chunk)` block of `rows` rows and its first
    /// row, and its accumulators are `acc[i · LANES ..]`; `x` holds the
    /// chunk's `cols` activations. Per column it multiplies the palette by
    /// the broadcast `x[j]` once and permutes that product line once per
    /// lane group: lane `l` gets the f32 `lut[idx[l]] · x[j]`, exactly the
    /// product the oracle computes, and adds it to its own accumulator.
    /// The tile walk passes a pair of full tiles as `L` = 4, so four
    /// independent add chains hide the add latency. A lane group keeps its
    /// current index word in a register and shifts it right by `bits` (one
    /// immediate `vpsrld`) after each column; at 3 bits, columns 10 and 21
    /// of a group straddle two words and take a `vpslld` of the next word
    /// and a `vpor`. This body walks a group in short loops rather than
    /// [`lane_index!`]'s unrolled shifts: unrolled, the compiler spilled
    /// its four lane groups' words and the body ran 5% slower.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn one_row<const L: usize>(
        acc: &mut [f32],
        lanes: [(&[u32], usize); L],
        rows: usize,
        cols: usize,
        bits: usize,
        x: &[f32],
        palette: &[f32; LINE],
    ) {
        // Every pointer below is in bounds because of these lengths.
        assert!((1..=AVX2_BITS).contains(&bits), "a palette register index");
        assert!(acc.len() >= L * LANES, "a lane group's accumulators");
        assert!(x.len() >= cols, "an x per column");
        let mut base = [std::ptr::null::<u32>(); L];
        for (base, (blk, r0)) in base.iter_mut().zip(lanes) {
            assert_eq!(blk.len(), block_len(rows, cols, bits), "a whole block");
            assert!(r0 + LANES <= rows, "a whole lane group");
            *base = blk[r0..].as_ptr();
        }
        let x = x.as_ptr();
        // SAFETY: `palette` is `LINE` = 8 floats.
        let pal = unsafe { _mm256_loadu_ps(palette.as_ptr()) };
        let mut a = [_mm256_setzero_ps(); L];
        for (i, a) in a.iter_mut().enumerate() {
            // SAFETY: lane group `i < L` owns `acc[i·LANES ..][..LANES]`,
            // within the asserted length.
            *a = unsafe { _mm256_loadu_ps(acc.as_ptr().add(i * LANES)) };
        }
        // Add column `j`'s products, lane group `i`'s indices `$idx(i)`.
        macro_rules! step {
            ($j:expr, |$i:ident| $idx:expr) => {{
                // SAFETY: `j < cols <= x.len()`.
                let line = _mm256_mul_ps(pal, _mm256_set1_ps(unsafe { *x.add($j) }));
                for ($i, a) in a.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, _mm256_permutevar8x32_ps(line, $idx));
                }
            }};
        }
        // Group `g`'s words of lane group `i` start `g · bits` words of
        // `rows` rows into its block, and the block holds `bits` words
        // for every started group, so `(bits - 1)·rows + LANES` words from
        // there stay within it (`r0 + LANES <= rows`).
        let run = |i: usize, g: usize| base[i].wrapping_add(g * bits * rows);
        // Word `$w` of group `$g`, for every lane group.
        macro_rules! words {
            ($g:expr, $w:expr) => {{
                let mut v = [_mm256_setzero_si256(); L];
                for (i, v) in v.iter_mut().enumerate() {
                    // SAFETY: the group's words are in the block (above),
                    // and every `$w` below is below `bits`.
                    *v = unsafe { _mm256_loadu_si256(run(i, $g).add($w * rows).cast()) };
                }
                v
            }};
        }
        // `$n` columns from `$j` on, `$v` holding each lane group's word
        // with the first column's bits at bit 0.
        macro_rules! segment {
            ($v:ident, $b:literal, $j:expr, $n:expr) => {{
                for q in 0..$n {
                    step!($j + q, |i| $v[i]);
                    for v in $v.iter_mut() {
                        *v = _mm256_srli_epi32::<$b>(*v);
                    }
                }
            }};
        }
        for g in 0..cols / GROUP_COLS {
            let j = g * GROUP_COLS;
            match bits {
                1 => {
                    let mut v = words!(g, 0);
                    segment!(v, 1, j, 32);
                }
                2 => {
                    let mut v = words!(g, 0);
                    segment!(v, 2, j, 16);
                    let mut v = words!(g, 1);
                    segment!(v, 2, j + 16, 16);
                }
                _ => {
                    // Columns 10 and 21 straddle words 0–1 and 1–2.
                    let mut v = words!(g, 0);
                    segment!(v, 3, j, 10);
                    let mut next = words!(g, 1);
                    step!(j + 10, |i| _mm256_or_si256(
                        v[i],
                        _mm256_slli_epi32::<2>(next[i])
                    ));
                    for v in next.iter_mut() {
                        *v = _mm256_srli_epi32::<1>(*v);
                    }
                    segment!(next, 3, j + 11, 10);
                    let mut last = words!(g, 2);
                    step!(j + 21, |i| _mm256_or_si256(
                        next[i],
                        _mm256_slli_epi32::<1>(last[i])
                    ));
                    for v in last.iter_mut() {
                        *v = _mm256_srli_epi32::<2>(*v);
                    }
                    segment!(last, 3, j + 22, 10);
                }
            }
        }
        let g = cols / GROUP_COLS;
        for q in 0..cols % GROUP_COLS {
            // SAFETY: the group's words are in the block (above), `q < 32`.
            step!(g * GROUP_COLS + q, |i| unsafe {
                partial_lane_index(run(i, g), rows, bits, q)
            });
        }
        for (i, a) in a.into_iter().enumerate() {
            // SAFETY: the same floats of `acc` the loads above read.
            unsafe { _mm256_storeu_ps(acc.as_mut_ptr().add(i * LANES), a) };
        }
    }

    /// Groups of `G` ≥ 2 batch rows over the two lane groups of a tile:
    /// `acc[b]` holds batch row `b`'s tile accumulators, lane group `i`
    /// starts at row `first[i]` of the tile, `blk` is the `(tile, chunk)`
    /// block of `rows` rows, and row `b`'s activations for the chunk are
    /// `x[b · x_stride..]`, one per column. Per column it permutes the
    /// palette once per lane group, which gives the decoded weights
    /// `lut[idx[r, j]]`; then, for every row of the group, it multiplies
    /// them by the broadcast `x[b, j]` and adds the products into that
    /// row's accumulators. A tile of one lane group (8 to 15 rows) names it
    /// twice, and computes and stores the same values twice.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn rows<const G: usize>(
        acc: &mut [[f32; TILE_OUT]],
        first: [usize; 2],
        rows: usize,
        cols: usize,
        bits: usize,
        blk: &[u32],
        x: &[f32],
        x_stride: usize,
        palette: &[f32; LINE],
    ) {
        // Every pointer below is in bounds because of these lengths.
        assert!((1..=AVX2_BITS).contains(&bits), "a palette register index");
        assert!(acc.len() == G && rows <= TILE_OUT, "a tile per batch row");
        assert!(
            first.iter().all(|&r0| r0 + LANES <= rows),
            "whole lane groups"
        );
        assert_eq!(blk.len(), block_len(rows, cols, bits), "a whole block");
        assert!(
            x.len() >= (G - 1) * x_stride + cols,
            "an x per (row, column)"
        );
        let x = x.as_ptr();
        // SAFETY: `palette` is `LINE` = 8 floats.
        let pal = unsafe { _mm256_loadu_ps(palette.as_ptr()) };
        let mut a = [[_mm256_setzero_ps(); 2]; G];
        for (a, acc) in a.iter_mut().zip(acc.iter()) {
            for (a, &r0) in a.iter_mut().zip(&first) {
                // SAFETY: `r0 + LANES <= rows <= TILE_OUT`, the floats of
                // `acc[b]`.
                *a = unsafe { _mm256_loadu_ps(acc.as_ptr().add(r0)) };
            }
        }
        // Add column `j`'s products, lane group `i`'s indices `$idx(i)`.
        macro_rules! step {
            ($j:expr, |$i:ident| $idx:expr) => {{
                let mut w = [pal; 2];
                for ($i, w) in w.iter_mut().enumerate() {
                    *w = _mm256_permutevar8x32_ps(pal, $idx);
                }
                for (b, a) in a.iter_mut().enumerate() {
                    // SAFETY: `b < G` and `j < cols`, so `b·x_stride + j`
                    // is below `(G - 1)·x_stride + cols <= x.len()`.
                    let xb = _mm256_set1_ps(unsafe { *x.add(b * x_stride + $j) });
                    for (a, &w) in a.iter_mut().zip(&w) {
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(w, xb));
                    }
                }
            }};
        }
        // Group `g`'s words start `g · bits` words of `rows` rows into the
        // block, and the block holds `bits` words for every started
        // group, so `(bits - 1)·rows + LANES` words from a lane group's
        // first row stay within it (`r0 + LANES <= rows`).
        let run = |i: usize, g: usize| blk.as_ptr().wrapping_add(g * bits * rows + first[i]);
        for g in 0..cols / GROUP_COLS {
            macro_rules! column {
                ($b:literal, $q:literal) => {
                    // SAFETY: the group's words are in the block (above),
                    // and this arm runs only when `bits` is `$b`.
                    step!(g * GROUP_COLS + $q, |i| unsafe {
                        lane_index!(run(i, g), rows, $b, $q)
                    })
                };
            }
            match bits {
                1 => for_each_column!(column, 1),
                2 => for_each_column!(column, 2),
                _ => for_each_column!(column, 3),
            }
        }
        let g = cols / GROUP_COLS;
        for q in 0..cols % GROUP_COLS {
            // SAFETY: the group's words are in the block (above), `q < 32`.
            step!(g * GROUP_COLS + q, |i| unsafe {
                partial_lane_index(run(i, g), rows, bits, q)
            });
        }
        for (a, acc) in a.iter().zip(acc.iter_mut()) {
            for (&a, &r0) in a.iter().zip(&first) {
                // SAFETY: the same floats of `acc[b]` the loads above read.
                unsafe { _mm256_storeu_ps(acc.as_mut_ptr().add(r0), a) };
            }
        }
    }
}

/// The AVX2 bodies on one tile for the batch rows of `acc` (see
/// [`avx2::one_row`] and [`avx2::rows`]), over `blk`, the tile's `(tile,
/// chunk)` block of `rows · cols` indices; row `b`'s activations for the
/// chunk are `x[b · x_stride..]`, and `palette` is the palette register.
/// Returns how many output rows it covered — a multiple of [`LANES`], or
/// 0 on a CPU without AVX2.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn lane_groups(
    acc: &mut [[f32; TILE_OUT]],
    rows: usize,
    cols: usize,
    bits: usize,
    blk: &[u32],
    x: &[f32],
    x_stride: usize,
    palette: &[f32; LINE],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if rows >= LANES && avx2_live() {
        let x1 = &x[..cols];
        // A tile of one lane group names it twice.
        let both = [0, if rows == TILE_OUT { LANES } else { 0 }];
        // SAFETY: the one requirement of calling an `avx2` target-feature
        // function is a CPU with AVX2, detected just above.
        unsafe {
            match acc.len() {
                1 if rows == TILE_OUT => avx2::one_row::<2>(
                    acc.as_flattened_mut(),
                    [(blk, 0), (blk, LANES)],
                    rows,
                    cols,
                    bits,
                    x1,
                    palette,
                ),
                1 => avx2::one_row::<1>(
                    acc.as_flattened_mut(),
                    [(blk, 0)],
                    rows,
                    cols,
                    bits,
                    x1,
                    palette,
                ),
                2 => avx2::rows::<2>(acc, both, rows, cols, bits, blk, x, x_stride, palette),
                3 => avx2::rows::<3>(acc, both, rows, cols, bits, blk, x, x_stride, palette),
                4 => avx2::rows::<4>(acc, both, rows, cols, bits, blk, x, x_stride, palette),
                g => unreachable!("a group of {g} batch rows exceeds GROUP_ROWS"),
            }
        }
        return rows / LANES * LANES;
    }
    0
}

/// One batch row over the full tiles `t` and `t + 1`, whose accumulators
/// are `acc`, with the AVX2 body: four lane groups in flight, chunk by
/// chunk. Returns whether it ran (not on a CPU without AVX2).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn tile_pair(
    kernel: &TiledLutKernel,
    t: usize,
    acc: &mut [f32],
    x: &[f32],
    palette: &[f32; LINE],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_live() {
        let bits = usize::from(kernel.bits());
        for c in 0..kernel.in_features().div_ceil(IN_CHUNK) {
            let (_, cols, b0) = kernel.block(t, c);
            let (_, _, b1) = kernel.block(t + 1, c);
            let lanes = [(b0, 0), (b0, LANES), (b1, 0), (b1, LANES)];
            let xc = &x[c * IN_CHUNK..][..cols];
            // SAFETY: the one requirement of calling an `avx2`
            // target-feature function is a CPU with AVX2, detected above.
            unsafe { avx2::one_row::<4>(acc, lanes, TILE_OUT, cols, bits, xc, palette) };
        }
        return true;
    }
    false
}

/// The tiled GEMM `out = x · Wᵀ` over `kernel`'s packed index stream:
/// run the output tiles (across worker threads from [`FANOUT_MACS`] on;
/// fixed tile ownership, so results cannot depend on the thread count),
/// each over its batch rows in groups of at most [`GROUP_ROWS`], and
/// scatter the tile-major staging back to row-major. One batch row on the
/// AVX2 body walks full tiles in pairs. The AVX2 body runs where it
/// applies unless `allow_avx2` is false, which pins the portable body;
/// only the portable body stages activation-side product tables. Scratch
/// comes from `arena`. The caller checks the shapes.
pub(super) fn run_tiled(
    kernel: &TiledLutKernel,
    x: &[f32],
    n: usize,
    out: &mut [f32],
    arena: &mut ScratchArena,
    allow_avx2: bool,
) {
    let (out_features, in_features) = (kernel.out_features(), kernel.in_features());
    let (lut, k, bits) = (kernel.lut(), kernel.k(), usize::from(kernel.bits()));
    if n == 0 || out_features == 0 {
        return;
    }
    let n_tiles = out_features.div_ceil(TILE_OUT);
    let n_chunks = in_features.div_ceil(IN_CHUNK);

    // The AVX2 body selects from a palette register and needs no table.
    // Entry `e` of the register holds `lut[e mod 2^bits]`, so the bits a
    // 1- or 2-bit lane keeps above its index select the same entry.
    let avx2 = allow_avx2 && bits <= AVX2_BITS && avx2_live();
    let mut palette = [0.0f32; LINE];
    if avx2 {
        for (e, p) in palette.iter_mut().enumerate() {
            *p = lut.get(e % (1 << bits)).copied().unwrap_or(0.0);
        }
    }

    // The portable body's activation-side LUT precompute: prod[i][c][j]
    // [cent] = lut[cent] · x[i, c·IN_CHUNK + j], contiguous per (i, c)
    // slab, j-major so one column's `k` candidates share a cache line.
    // Only worth the k·in multiplies for palettes small enough that the
    // table stays cache-resident, and only up to a whole-table size cap
    // (the table scales with the batch); the inline fallback computes the
    // identical f32s either way.
    let use_prod =
        !avx2 && k <= PROD_K_MAX && in_features > 0 && n * k * in_features <= PROD_TABLE_MAX_FLOATS;
    let prod = if use_prod {
        let mut prod = arena.take(n * k * in_features);
        for (xrow, slab_row) in x
            .chunks_exact(in_features)
            .zip(prod.chunks_exact_mut(k * in_features))
        {
            for (line, &xv) in slab_row.chunks_exact_mut(k).zip(xrow) {
                for (p, &l) in line.iter_mut().zip(lut) {
                    *p = l * xv;
                }
            }
        }
        prod
    } else {
        Vec::new() // AVX2 or inline path: no table, and no arena checkout
    };

    // Tile-major staging: one `n × TILE_OUT` slab per tile (fixed stride
    // so each chunk of the tile loop is whole tiles), scattered back to
    // row-major afterwards. The zeroed slab rows are the accumulators:
    // for every group of batch rows a tile streams its `(t, c)` index
    // blocks chunk by chunk, carrying the group's rows across chunks.
    let mut tmp = arena.take(n_tiles * n * TILE_OUT);
    {
        let prod: &[f32] = &prod;
        let groups = row_groups(n);
        let tile = |t: usize, tile_out: &mut [f32]| {
            let (tile_acc, _) = tile_out.as_chunks_mut::<TILE_OUT>();
            for (i0, g) in groups.clone() {
                let acc = &mut tile_acc[i0..i0 + g];
                for c in 0..n_chunks {
                    let (rows, cols, blk) = kernel.block(t, c);
                    let xg = &x[i0 * in_features + c * IN_CHUNK..];
                    let done = if avx2 {
                        lane_groups(acc, rows, cols, bits, blk, xg, in_features, &palette)
                    } else {
                        0
                    };
                    for (b, acc) in acc.iter_mut().enumerate() {
                        let acc = &mut acc[..rows];
                        if use_prod {
                            let at = ((i0 + b) * in_features + c * IN_CHUNK) * k;
                            let columns = prod[at..][..k * cols]
                                .chunks_exact(k)
                                .map(|line| move |ci: usize| line[ci]);
                            accumulate(acc, blk, bits, columns, done);
                        } else {
                            // Inline multiply (AVX2 tail rows and rich
                            // palettes): the identical f32s, no table.
                            let xc = &xg[b * in_features..][..cols];
                            let columns = xc.iter().map(|&xv| move |ci: usize| lut[ci] * xv);
                            accumulate(acc, blk, bits, columns, done);
                        }
                    }
                }
            }
        };
        // One batch row on the AVX2 body takes tiles two at a time, so a
        // pair of full tiles keeps four accumulator chains in flight.
        let span = if avx2 && n == 1 { 2 } else { 1 };
        let tiles = |(s, slab): (usize, &mut [f32])| {
            let t = s * span;
            let paired = span == 2
                && slab.len() == 2 * TILE_OUT
                && tile_rows(out_features, t + 1) == TILE_OUT
                && tile_pair(kernel, t, slab, x, &palette);
            if !paired {
                for (dt, tile_out) in slab.chunks_mut(n * TILE_OUT).enumerate() {
                    tile(t + dt, tile_out);
                }
            }
        };
        let slab = span * n * TILE_OUT;
        if n * out_features * (in_features + k) >= FANOUT_MACS {
            tmp.par_chunks_mut(slab).enumerate().for_each(tiles);
        } else {
            tmp.chunks_mut(slab).enumerate().for_each(tiles);
        }
    }
    for t in 0..n_tiles {
        let rows = tile_rows(out_features, t);
        for i in 0..n {
            let src = &tmp[t * n * TILE_OUT + i * TILE_OUT..][..rows];
            out[i * out_features + t * TILE_OUT..][..rows].copy_from_slice(src);
        }
    }
    arena.put(prod); // zero-capacity Vec is dropped, not pooled
    arena.put(tmp);
}

/// Whether this CPU has AVX2, detected at run time: whether it runs the
/// AVX2 body.
fn avx2_live() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `(name, lanes)` of the LUT-GEMM body this CPU runs for palettes of at
/// most 3 bits — `"tiled-avx2"` when the AVX2 body is live, `"tiled"`
/// otherwise — printed by the bench records.
pub fn active() -> (&'static str, u8) {
    let name = if avx2_live() { "tiled-avx2" } else { "tiled" };
    (name, LANES as u8)
}

/// Comma-joined list of the SIMD capabilities detected on this CPU
/// (empty on targets without runtime feature detection) — recorded into
/// bench JSON so trajectories across heterogeneous runners stay
/// interpretable.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut have = Vec::new();
        if std::arch::is_x86_feature_detected!("avx512f") {
            have.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            have.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            have.push("fma");
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            have.push("sse4.2");
        }
        have.join(",")
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon".to_string()
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palettize::PalettizedTensor;

    /// Deterministic values in `[-1, 1)` of varied magnitude, so a changed
    /// summation order would change the bits.
    fn values(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn kernel(out: usize, inp: usize, k: usize, seed: u64) -> TiledLutKernel {
        palette_kernel(values(k, seed), out, inp, seed + 1)
    }

    /// A `[out, inp]` kernel over palette `lut`, with indices drawn from
    /// `seed`.
    fn palette_kernel(lut: Vec<f32>, out: usize, inp: usize, seed: u64) -> TiledLutKernel {
        let k = lut.len();
        let bits = (usize::BITS - (k - 1).max(1).leading_zeros()) as u8;
        let idx: Vec<u32> = values(out * inp, seed)
            .iter()
            .map(|v| ((v + 1.0) * 0.5 * k as f32) as u32 % k as u32)
            .collect();
        let p = PalettizedTensor::from_lut_indices(lut, &idx, bits, 1, vec![out, inp]);
        TiledLutKernel::from_palette(&p)
    }

    /// The portable body and (on AVX2 CPUs) the AVX2 body against the
    /// serial oracle on the same inputs.
    fn assert_both_bodies_match_the_oracle(kern: &TiledLutKernel, x: &[f32], n: usize) {
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let len = n * kern.out_features();
        let mut want = vec![0.0f32; len];
        kern.forward_serial_into(x, n, &mut want);
        for allow_avx2 in [false, true] {
            let mut got = vec![f32::NAN; len];
            kern.forward_into_body(x, n, &mut got, &mut ScratchArena::new(), allow_avx2);
            assert_eq!(
                bits(&got),
                bits(&want),
                "[{} x {}] k={} batch={n} allow_avx2={allow_avx2}: diverged from the oracle",
                kern.out_features(),
                kern.in_features(),
                kern.k(),
            );
        }
    }

    #[test]
    fn both_bodies_match_the_oracle_on_every_tail_width_and_palette() {
        // Every palette the AVX2 body takes (1 to 3 bits, k ≤ LINE), one
        // past it (portable product table) and one past the table cutoff
        // (inline multiply); every row tail mod 16 and mod 8; feature
        // counts around the 32-column group and chunk grids; batch
        // 1..=13, every row group size and split up to four groups,
        // cycling with the row count so each (k, in) pair sees every
        // batch.
        let batches = 3 * GROUP_ROWS + 1;
        for k in (1..=LINE).chain([LINE + 1, PROD_K_MAX + 1]) {
            for inp in [1, 7, IN_CHUNK - 1, IN_CHUNK, IN_CHUNK + 1, 2 * IN_CHUNK + 6] {
                let x = values(batches * inp, (k * inp) as u64);
                for out in 1..=40 {
                    let kern = kernel(out, inp, k, (out + k) as u64);
                    let n = 1 + out % batches;
                    assert_both_bodies_match_the_oracle(&kern, &x[..n * inp], n);
                }
            }
        }
    }

    #[test]
    fn signed_zero_products_match_the_oracle_in_both_bodies() {
        // A palette entry of 0.0 against activations of +0.0 and -0.0:
        // products and sums that are zero carry the oracle's signs, in
        // every row group and lane tail. The palette is non-negative, so
        // a row of -0.0 is all -0.0 products, which sum to +0.0 only from
        // the oracle's +0.0 start.
        let (out, inp) = (TILE_OUT + LANES + 3, IN_CHUNK + 5);
        let mut lut: Vec<f32> = values(LINE, 5).iter().map(|v| v.abs()).collect();
        lut[0] = 0.0;
        let kern = palette_kernel(lut, out, inp, 6);
        // Rows of +0.0, rows of -0.0, and rows mixing both with values.
        let n = 3 * GROUP_ROWS + 1;
        let x: Vec<f32> = values(n * inp, 7)
            .iter()
            .enumerate()
            .map(|(e, &v)| match ((e / inp) % 3, e % 3) {
                (0, _) | (2, 1) => 0.0,
                (1, _) | (2, 2) => -0.0,
                _ => v,
            })
            .collect();
        let mut want = vec![0.0f32; n * out];
        kern.forward_serial_into(&x, n, &mut want);
        for (i, row) in want.chunks_exact(out).enumerate() {
            if i % 3 < 2 {
                assert!(row.iter().all(|v| v.to_bits() == 0), "row {i}: +0.0");
            }
        }
        for n in 1..=n {
            assert_both_bodies_match_the_oracle(&kern, &x[..n * inp], n);
        }
    }

    #[test]
    fn row_groups_are_balanced_and_cover_the_batch() {
        for n in 1..=4 * GROUP_ROWS + 1 {
            let groups: Vec<_> = row_groups(n).collect();
            assert_eq!(groups.len(), n.div_ceil(GROUP_ROWS), "batch {n}");
            let mut next = 0;
            for &(first, rows) in &groups {
                assert_eq!(first, next, "batch {n}: consecutive groups");
                assert!((1..=GROUP_ROWS).contains(&rows), "batch {n}: {rows} rows");
                next += rows;
            }
            assert_eq!(next, n, "batch {n}: every row once");
            let sizes = groups.iter().map(|g| g.1);
            let (lo, hi) = (sizes.clone().min().unwrap(), sizes.max().unwrap());
            assert!(hi - lo <= 1, "batch {n}: balanced");
        }
        assert_eq!(
            row_groups(13).collect::<Vec<_>>(),
            [(0, 4), (4, 3), (7, 3), (10, 3)]
        );
    }

    #[test]
    fn fanned_out_calls_match_the_oracle_in_both_bodies() {
        // Past FANOUT_MACS the tiles run on worker threads; tile ownership
        // keeps the bits those of the oracle.
        let (out, inp, n) = (5 * TILE_OUT + 3, 2 * IN_CHUNK + 6, 64);
        for k in [LINE, LINE + 1] {
            assert!(n * out * (inp + k) >= FANOUT_MACS, "the case must fan out");
            let kern = kernel(out, inp, k, 3);
            assert_both_bodies_match_the_oracle(&kern, &values(n * inp, 4), n);
        }
    }

    #[test]
    fn one_row_pair_walk_matches_the_oracle_in_both_bodies() {
        // One batch row walks full tiles in pairs: 1, 2 and 3 full tiles
        // (a lone tile, a pair, a pair then a lone tile), a short tile of
        // one lane group plus a tail or of a tail alone after a pair, and
        // rows whose last 32-column group is partial, in the first chunk
        // or past a chunk boundary; at every AVX2 bit width.
        for k in [2, 4, 8] {
            for inp in [32, 96, 100, IN_CHUNK, IN_CHUNK + 32, IN_CHUNK + 45] {
                let x = values(inp, (k + inp) as u64);
                for out in [
                    TILE_OUT,
                    2 * TILE_OUT,
                    3 * TILE_OUT,
                    2 * TILE_OUT + LANES + 1,
                    2 * TILE_OUT + 3,
                    4 * TILE_OUT + LANES,
                ] {
                    let kern = kernel(out, inp, k, (out * inp + k) as u64);
                    assert_both_bodies_match_the_oracle(&kern, &x, 1);
                }
            }
        }
    }

    #[test]
    fn one_row_call_past_the_fanout_threshold_matches_the_oracle() {
        // A decode-shaped call large enough to fan its tile pairs out over
        // worker threads.
        let (out, inp) = (1024, 4096);
        assert!(out * (inp + LINE) >= FANOUT_MACS, "the case must fan out");
        let kern = kernel(out, inp, LINE, 17);
        assert_both_bodies_match_the_oracle(&kern, &values(inp, 18), 1);
    }

    #[test]
    fn one_and_two_bit_palettes_match_the_oracle_in_both_bodies() {
        // Below 3 bits a lane keeps the next columns' bits above its index,
        // and the AVX2 palette register repeats the palette so they select
        // nothing else; every batch, whole and partial groups.
        for k in [2, 3, 4] {
            for inp in [64, 70, IN_CHUNK + 32] {
                let x = values(13 * inp, (k * inp) as u64);
                let kern = kernel(2 * TILE_OUT + LANES + 2, inp, k, k as u64);
                assert_eq!(kern.bits(), if k == 2 { 1 } else { 2 });
                for n in 1..=13 {
                    assert_both_bodies_match_the_oracle(&kern, &x[..n * inp], n);
                }
            }
        }
    }

    #[test]
    fn active_names_the_body_this_cpu_runs() {
        let want = if avx2_live() { "tiled-avx2" } else { "tiled" };
        assert_eq!(active(), (want, LANES as u8));
    }
}
