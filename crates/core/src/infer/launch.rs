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
//! construction, at every thread count. The structure-of-arrays index
//! layout (all lane indices of a column adjacent) lets the per-lane
//! indexed adds autovectorize. Tail rows (`rows % LANES`) take the fixed
//! descent 4 → 2 → 1, so the execution tree is deterministic by
//! construction, not by accident of the optimizer.
//!
//! The lane width is a constant, not a per-CPU choice: the body is
//! portable safe Rust, and 8 rows measured fastest on every projection
//! shape this repository serves, avx512f hosts included (DESIGN.md §12).

use super::kernel::{
    block_base, chunk_cols, tile_rows, TiledLutKernel, IN_CHUNK, PROD_K_MAX, PROD_TABLE_MAX_FLOATS,
    TILE_OUT,
};
use crate::scratch::ScratchArena;
use rayon::prelude::*;

/// Output rows one lane group advances together.
pub const LANES: usize = 8;

/// Add one `(tile, chunk)` index block to a tile's accumulators:
/// `acc[r] += term_j(idx[r, j])` for every row `r`, where `columns`
/// yields `term_j` for ascending `j` — a product-table line lookup, or the
/// inline `lut[c] · x[j]` multiply. A lane group copies its [`LANES`]
/// accumulators into a private buffer, which keeps them in registers
/// across the whole chunk; the tail rows descend through widths 4, 2, 1
/// in that order (the tail count in binary).
#[inline(always)]
fn accumulate<I, T, C>(acc: &mut [f32], blk: &[I], columns: C)
where
    I: Copy + Into<usize>,
    T: Fn(usize) -> f32,
    C: Iterator<Item = T> + Clone,
{
    let rows = acc.len();
    let mut r = 0usize;
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

/// The tiled GEMM `out = x · Wᵀ` over `kernel`'s repacked `idx` stream:
/// stage the activation-side LUT product tables, fan the output tiles
/// across worker threads (fixed tile ownership, so results cannot depend
/// on the thread count), and scatter the tile-major staging back to
/// row-major. Scratch comes from `arena`. The caller checks the shapes.
pub(super) fn run_tiled<I: Copy + Into<usize> + Sync>(
    kernel: &TiledLutKernel,
    idx: &[I],
    x: &[f32],
    n: usize,
    out: &mut [f32],
    arena: &mut ScratchArena,
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
    // column's k candidates share a cache line. Only worth the k·in
    // multiplies for palettes small enough that the table stays
    // cache-resident, and only up to a whole-table size cap (the table
    // scales with the batch); the inline fallback computes the identical
    // f32s either way.
    let use_prod =
        k <= PROD_K_MAX && in_features > 0 && n * k * in_features <= PROD_TABLE_MAX_FLOATS;
    let prod = if use_prod {
        let mut prod = arena.take(n * k * in_features);
        for i in 0..n {
            let xrow = &x[i * in_features..(i + 1) * in_features];
            let slab_row = &mut prod[i * k * in_features..];
            for c in 0..n_chunks {
                let cols = chunk_cols(in_features, c);
                let slab = &mut slab_row[c * IN_CHUNK * k..];
                let xc = &xrow[c * IN_CHUNK..c * IN_CHUNK + cols];
                for (j, &xv) in xc.iter().enumerate() {
                    for (p, &l) in slab[j * k..(j + 1) * k].iter_mut().zip(lut) {
                        *p = l * xv;
                    }
                }
            }
        }
        prod
    } else {
        Vec::new() // inline path: no table, and no arena checkout
    };

    // Tile-major staging: one `n × TILE_OUT` slab per tile (fixed stride
    // so each par chunk is exactly one tile), scattered back to row-major
    // afterwards. For every batch row a tile streams its `(t, c)` index
    // blocks chunk by chunk, carrying its accumulators across chunks.
    let mut tmp = arena.take(n_tiles * n * TILE_OUT);
    {
        let prod: &[f32] = &prod;
        tmp.par_chunks_mut(n * TILE_OUT)
            .enumerate()
            .for_each(|(t, tile_out)| {
                let rows = tile_rows(out_features, t);
                for i in 0..n {
                    let mut acc = [0.0f32; TILE_OUT];
                    for c in 0..n_chunks {
                        let cols = chunk_cols(in_features, c);
                        let base = block_base(out_features, in_features, t, c);
                        let blk = &idx[base..base + rows * cols];
                        if use_prod {
                            let slab = &prod[i * k * in_features + c * IN_CHUNK * k..][..k * cols];
                            let columns =
                                slab.chunks_exact(k).map(|line| move |ci: usize| line[ci]);
                            accumulate(&mut acc[..rows], blk, columns);
                        } else {
                            // Rich-palette inline multiply: the identical
                            // f32s, no product table.
                            let xc = &x[i * in_features + c * IN_CHUNK..][..cols];
                            let columns = xc.iter().map(|&xv| move |ci: usize| lut[ci] * xv);
                            accumulate(&mut acc[..rows], blk, columns);
                        }
                    }
                    tile_out[i * TILE_OUT..][..rows].copy_from_slice(&acc[..rows]);
                }
            });
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

/// `(name, lanes)` of the LUT-GEMM kernel, printed by the bench records.
pub fn active() -> (&'static str, u8) {
    ("tiled", LANES as u8)
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
