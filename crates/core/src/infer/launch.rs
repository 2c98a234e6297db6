//! The execution body of the tiled LUT-GEMM kernel.
//!
//! [`super::kernel::TiledLutKernel`] owns the *data* (palette LUT, the
//! structure-of-arrays tile-repacked index stream); `run_tiled` is the
//! one *execution* its `forward_into` calls. Output rows advance in lane
//! groups of [`LANES`]. Lanes are assigned **across output rows**, so each
//! lane owns one output element's complete ascending-`j` accumulator chain
//! and no floating-point reduction ever crosses lanes: the result is
//! bit-identical to the serial oracle
//! ([`super::kernel::TiledLutKernel::forward_serial_into`]) by
//! construction, at every thread count. Tail rows (`rows % LANES`) take
//! the fixed descent 4 → 2 → 1, so the execution tree is deterministic by
//! construction, not by accident of the optimizer.
//!
//! Palettes of up to [`LINE`] entries (the paper's 3-bit palettes) store
//! each column's products as one 8-float line, and on CPUs with AVX2 a
//! lane group gathers from that line with one `vpermps` per column and
//! adds with one `vaddps` — the same f32 products added in the same order
//! as the portable body, so both bodies are bit-identical to the oracle
//! (DESIGN.md §12). Every other case (richer palettes, the inline-multiply
//! fallback, CPUs without AVX2) runs the portable body. Work below
//! [`FANOUT_MACS`] runs on the calling thread, spawning nothing.

use super::kernel::{
    block_base, chunk_cols, tile_rows, TiledLutKernel, IN_CHUNK, PROD_K_MAX, PROD_TABLE_MAX_FLOATS,
    TILE_OUT,
};
use crate::scratch::ScratchArena;
use rayon::prelude::*;

/// Output rows one lane group advances together.
pub const LANES: usize = 8;

/// Floats per product line for palettes of at most this many entries
/// (shorter palettes are zero-padded): one 256-bit register, so one AVX2
/// `vpermps` gathers any line entry for all [`LANES`] rows of a group.
pub const LINE: usize = 8;

/// Multiply-accumulates (`n · out · (in + k)`) from which a call fans its
/// output tiles out over worker threads. Below it every tile runs on the
/// calling thread: a thread spawn and join costs more than it saves on
/// the projections served here (DESIGN.md §12), and the calling thread
/// allocates nothing.
pub const FANOUT_MACS: usize = 1 << 22;

// The AVX2 body holds one lane group, and one product line, per register.
const _: () = assert!(LANES == 8 && LINE == 8);

/// A tile-repacked index width: `u8` for palettes of up to 256 entries,
/// `u16` past that.
pub(super) trait TileIndex: Copy + Into<usize> + Sync {
    /// `blk` as bytes when this width is `u8`, the width the AVX2 body
    /// reads.
    fn as_bytes(blk: &[Self]) -> Option<&[u8]>;
}

impl TileIndex for u8 {
    fn as_bytes(blk: &[u8]) -> Option<&[u8]> {
        Some(blk)
    }
}

impl TileIndex for u16 {
    fn as_bytes(_: &[u16]) -> Option<&[u8]> {
        None
    }
}

/// Add one `(tile, chunk)` index block to a tile's accumulators from row
/// `r` on: `acc[r] += term_j(idx[r, j])` for every row, where `columns`
/// yields `term_j` for ascending `j` — a product-table line lookup, or the
/// inline `lut[c] · x[j]` multiply. A lane group copies its [`LANES`]
/// accumulators into a private buffer, which keeps them in registers
/// across the whole chunk; the tail rows descend through widths 4, 2, 1
/// in that order (the tail count in binary).
#[inline(always)]
fn accumulate<I, T, C>(acc: &mut [f32], blk: &[I], columns: C, mut r: usize)
where
    I: Copy + Into<usize>,
    T: Fn(usize) -> f32,
    C: Iterator<Item = T> + Clone,
{
    let rows = acc.len();
    while r + LANES <= rows {
        let mut lane = [0.0f32; LANES];
        lane.copy_from_slice(&acc[r..r + LANES]);
        for (j, term) in columns.clone().enumerate() {
            for (a, &ci) in lane.iter_mut().zip(&blk[j * rows + r..][..LANES]) {
                *a += term(ci.into());
            }
        }
        acc[r..r + LANES].copy_from_slice(&lane);
        r += LANES;
    }
    let mut w = LANES / 2;
    while w >= 1 {
        if r + w <= rows {
            for (j, term) in columns.clone().enumerate() {
                for (a, &ci) in acc[r..r + w].iter_mut().zip(&blk[j * rows + r..][..w]) {
                    *a += term(ci.into());
                }
            }
            r += w;
        }
        w /= 2;
    }
}

/// The AVX2 lane body: add a `(tile, chunk)` block of `u8` indices to the
/// whole lane groups of `acc`, gathering from `lines` (`LINE` floats per
/// column), and return how many rows it covered — a multiple of
/// [`LANES`], or 0 on a CPU without AVX2. Per column it widens each lane
/// group's [`LANES`] indices to 32 bits, gathers their products with one
/// permute and adds them with one vector add, two lane groups per column
/// while two remain. Every lane adds the same f32 product to its own
/// accumulator, in the same ascending-`j` order as [`accumulate`] (no
/// fused multiply-add), so the bits cannot differ from the portable body.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn permute_groups(acc: &mut [f32], blk: &[u8], lines: &[f32]) -> usize {
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn avx2(acc: &mut [f32], blk: &[u8], lines: &[f32]) -> usize {
        use std::arch::x86_64::{
            _mm256_add_ps, _mm256_cvtepu8_epi32, _mm256_loadu_ps, _mm256_permutevar8x32_ps,
            _mm256_setzero_ps, _mm256_storeu_ps, _mm_loadl_epi64,
        };
        let rows = acc.len();
        let cols = lines.len() / LINE;
        // Every pointer below is in bounds because of these two lengths.
        assert_eq!(lines.len(), cols * LINE, "whole product lines");
        assert_eq!(blk.len(), rows * cols, "one index per (row, column)");
        let (acc, blk, lines) = (acc.as_mut_ptr(), blk.as_ptr(), lines.as_ptr());
        let mut r = 0usize;
        while r + LANES <= rows {
            let pair = r + 2 * LANES <= rows;
            // SAFETY: rows `r .. r + LANES` (`.. r + 2·LANES` when `pair`)
            // lie inside `acc`, whose length is `rows`.
            let (mut a0, mut a1) = unsafe {
                let a1 = if pair {
                    _mm256_loadu_ps(acc.add(r + LANES))
                } else {
                    _mm256_setzero_ps()
                };
                (_mm256_loadu_ps(acc.add(r)), a1)
            };
            for j in 0..cols {
                // SAFETY: `j < cols`, so line `j` is the floats `j·LINE ..
                // (j + 1)·LINE` of `lines` (length `cols·LINE`), and column
                // `j`'s indices for rows `r .. r + LANES` (`.. r + 2·LANES`
                // when `pair`) are the bytes from `j·rows + r`, which end at
                // or before `(j + 1)·rows <= blk.len()`. Every index is
                // below `k <= LINE`, so the permute reads a filled entry.
                unsafe {
                    let line = _mm256_loadu_ps(lines.add(j * LINE));
                    let i0 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(blk.add(j * rows + r).cast()));
                    a0 = _mm256_add_ps(a0, _mm256_permutevar8x32_ps(line, i0));
                    if pair {
                        let at = blk.add(j * rows + r + LANES);
                        let i1 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(at.cast()));
                        a1 = _mm256_add_ps(a1, _mm256_permutevar8x32_ps(line, i1));
                    }
                }
            }
            // SAFETY: the same rows of `acc` the loads above read.
            unsafe {
                _mm256_storeu_ps(acc.add(r), a0);
                if pair {
                    _mm256_storeu_ps(acc.add(r + LANES), a1);
                }
            }
            r += if pair { 2 * LANES } else { LANES };
        }
        r
    }

    #[cfg(target_arch = "x86_64")]
    if avx2_live() {
        // SAFETY: the one requirement of calling an `avx2` target-feature
        // function is a CPU with AVX2, detected just above.
        return unsafe { avx2(acc, blk, lines) };
    }
    0
}

/// The tiled GEMM `out = x · Wᵀ` over `kernel`'s repacked `idx` stream:
/// stage the activation-side LUT product tables, run the output tiles
/// (across worker threads from [`FANOUT_MACS`] on; fixed tile ownership,
/// so results cannot depend on the thread count), and scatter the
/// tile-major staging back to row-major. The AVX2 body runs where it
/// applies unless `allow_avx2` is false, which pins the portable body.
/// Scratch comes from `arena`. The caller checks the shapes.
pub(super) fn run_tiled<I: TileIndex>(
    kernel: &TiledLutKernel,
    idx: &[I],
    x: &[f32],
    n: usize,
    out: &mut [f32],
    arena: &mut ScratchArena,
    allow_avx2: bool,
) {
    let (out_features, in_features) = (kernel.out_features(), kernel.in_features());
    let (lut, k) = (kernel.lut(), kernel.k());
    if n == 0 || out_features == 0 {
        return;
    }
    let n_tiles = out_features.div_ceil(TILE_OUT);
    let n_chunks = in_features.div_ceil(IN_CHUNK);

    // Activation-side LUT precompute: prod[i][c][j][cent] = lut[cent] ·
    // x[i, c·IN_CHUNK + j], contiguous per (i, c) slab, j-major so one
    // column's candidates share a cache line: a line of `w` floats, `k`
    // of them filled (zero-padded to LINE for palettes of at most LINE
    // entries). Only worth the k·in multiplies for palettes small enough
    // that the table stays cache-resident, and only up to a whole-table
    // size cap (the table scales with the batch); the inline fallback
    // computes the identical f32s either way.
    let w = k.max(LINE);
    let use_prod =
        k <= PROD_K_MAX && in_features > 0 && n * w * in_features <= PROD_TABLE_MAX_FLOATS;
    let permute = allow_avx2 && use_prod && w == LINE;
    let prod = if use_prod {
        let mut prod = arena.take(n * w * in_features);
        for (xrow, slab_row) in x
            .chunks_exact(in_features)
            .zip(prod.chunks_exact_mut(w * in_features))
        {
            for (line, &xv) in slab_row.chunks_exact_mut(w).zip(xrow) {
                for (p, &l) in line.iter_mut().zip(lut) {
                    *p = l * xv;
                }
            }
        }
        prod
    } else {
        Vec::new() // inline path: no table, and no arena checkout
    };

    // Tile-major staging: one `n × TILE_OUT` slab per tile (fixed stride
    // so each chunk of the tile loop is exactly one tile), scattered back
    // to row-major afterwards. For every batch row a tile streams its
    // `(t, c)` index blocks chunk by chunk, carrying its accumulators
    // across chunks.
    let mut tmp = arena.take(n_tiles * n * TILE_OUT);
    {
        let prod: &[f32] = &prod;
        let tile = |(t, tile_out): (usize, &mut [f32])| {
            let rows = tile_rows(out_features, t);
            for i in 0..n {
                let mut acc = [0.0f32; TILE_OUT];
                let acc = &mut acc[..rows];
                for c in 0..n_chunks {
                    let cols = chunk_cols(in_features, c);
                    let base = block_base(out_features, in_features, t, c);
                    let blk = &idx[base..base + rows * cols];
                    if use_prod {
                        let slab = &prod[(i * in_features + c * IN_CHUNK) * w..][..w * cols];
                        let done = match I::as_bytes(blk) {
                            Some(bytes) if permute => permute_groups(acc, bytes, slab),
                            _ => 0,
                        };
                        let columns = slab.chunks_exact(w).map(|line| move |ci: usize| line[ci]);
                        accumulate(acc, blk, columns, done);
                    } else {
                        // Rich-palette inline multiply: the identical
                        // f32s, no product table.
                        let xc = &x[i * in_features + c * IN_CHUNK..][..cols];
                        let columns = xc.iter().map(|&xv| move |ci: usize| lut[ci] * xv);
                        accumulate(acc, blk, columns, 0);
                    }
                }
                tile_out[i * TILE_OUT..][..rows].copy_from_slice(acc);
            }
        };
        if n * out_features * (in_features + k) >= FANOUT_MACS {
            tmp.par_chunks_mut(n * TILE_OUT).enumerate().for_each(tile);
        } else {
            tmp.chunks_mut(n * TILE_OUT).enumerate().for_each(tile);
        }
    }
    for t in 0..n_tiles {
        let rows = tile_rows(out_features, t);
        for i in 0..n {
            let src = &tmp[t * n * TILE_OUT + i * TILE_OUT..][..rows];
            out[i * out_features + t * TILE_OUT..][..rows].copy_from_slice(src);
        }
    }
    arena.put(prod); // zero-capacity inline-path Vec is dropped, not pooled
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

/// `(name, lanes)` of the LUT-GEMM body this CPU runs for palettes of up
/// to [`LINE`] entries — `"tiled-avx2"` when the AVX2 body is live,
/// `"tiled"` otherwise — printed by the bench records.
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
        let bits = (usize::BITS - (k - 1).max(1).leading_zeros()) as u8;
        let lut = values(k, seed);
        let idx: Vec<u32> = values(out * inp, seed + 1)
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
        // Every palette the AVX2 body takes (k ≤ LINE, padded lines below
        // it), one past it (portable product table) and one past the
        // table cutoff (inline multiply); every row tail mod 16 and mod 8;
        // feature counts around the chunk grid; batch 1..=4, cycling with
        // the row count so each (k, in) pair sees every batch.
        for k in (1..=LINE).chain([LINE + 1, PROD_K_MAX + 1]) {
            for inp in [1, 7, IN_CHUNK - 1, IN_CHUNK, IN_CHUNK + 1, 2 * IN_CHUNK + 6] {
                let x = values(4 * inp, (k * inp) as u64);
                for out in 1..=40 {
                    let kern = kernel(out, inp, k, (out + k) as u64);
                    let n = 1 + out % 4;
                    assert_both_bodies_match_the_oracle(&kern, &x[..n * inp], n);
                }
            }
        }
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
    fn active_names_the_body_this_cpu_runs() {
        let want = if avx2_live() { "tiled-avx2" } else { "tiled" };
        assert_eq!(active(), (want, LANES as u8));
    }
}
