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
//! construction, not by accident of the optimizer. Batch rows advance in
//! balanced groups of at most [`GROUP_ROWS`], so a tile streams each
//! `(tile, chunk)` index block once per group, not once per row.
//!
//! Palettes of up to [`LINE`] entries (the paper's 3-bit palettes) fit in
//! one 8-float register, and on CPUs with AVX2 a lane group decodes each
//! column's weights `lut[idx[r, j]]` with one `vpermps` of that register,
//! once for every row of a group, then multiplies them by each row's
//! broadcast `x[i, j]` and adds the products into that row's accumulators:
//! the same f32 products `lut[c] · x[j]` added in the same order as the
//! portable body, so both bodies are bit-identical to the oracle
//! (DESIGN.md §12). Every other case (richer palettes, CPUs without AVX2)
//! runs the portable body, which gathers from an activation-side product
//! table or multiplies inline. Work below [`FANOUT_MACS`] runs on the
//! calling thread, spawning nothing.

use super::kernel::{
    block_base, chunk_cols, tile_rows, TiledLutKernel, IN_CHUNK, PROD_K_MAX, PROD_TABLE_MAX_FLOATS,
    TILE_OUT,
};
use crate::scratch::ScratchArena;
use rayon::prelude::*;

/// Output rows one lane group advances together.
pub const LANES: usize = 8;

/// Palette entries one 256-bit register holds (shorter palettes are
/// zero-padded), so one AVX2 `vpermps` decodes any entry for all
/// [`LANES`] rows of a group.
pub const LINE: usize = 8;

/// Batch rows whose products one pass over a `(tile, chunk)` block adds.
/// The AVX2 body holds two accumulator registers per row (a tile's two
/// lane groups), so 6 rows' 12 accumulators, the column's two decoded
/// weight registers, one broadcast `x` and one product fill the 16 `ymm`
/// registers; a seventh row would spill.
pub const GROUP_ROWS: usize = 6;

/// Multiply-accumulates (`n · out · (in + k)`) from which a call fans its
/// output tiles out over worker threads. Below it every tile runs on the
/// calling thread: a thread spawn and join costs more than it saves on
/// the projections served here (DESIGN.md §12), and the calling thread
/// allocates nothing.
pub const FANOUT_MACS: usize = 1 << 22;

// The AVX2 body holds one lane group, and the whole palette, per register,
// and a tile is at most two lane groups.
const _: () = assert!(LANES == 8 && LINE == 8 && TILE_OUT == 2 * LANES);

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

/// Split `n` batch rows into `n.div_ceil(GROUP_ROWS)` consecutive groups
/// whose sizes differ by at most one, the larger first (13 rows → 5, 4,
/// 4): `(first row, rows)` pairs. Balanced groups keep every pass of the
/// AVX2 body at least half full, where 6, 6, 1 would run one pass at a
/// single row.
fn row_groups(n: usize) -> impl Iterator<Item = (usize, usize)> + Clone {
    let groups = n.div_ceil(GROUP_ROWS);
    let (rows, longer) = (n / groups, n % groups);
    (0..groups).map(move |q| (q * rows + q.min(longer), rows + usize::from(q < longer)))
}

/// The AVX2 lane body: add a `(tile, chunk)` block of `u8` indices, for
/// every batch row of a group, to the whole lane groups of the rows'
/// accumulators, and return how many output rows it covered — a multiple
/// of [`LANES`], or 0 on a CPU without AVX2. `acc[b]` holds batch row
/// `b`'s tile accumulators (the first `rows` of them live), `blk` holds
/// `rows · cols` indices, row `b`'s activations for the chunk are
/// `x[b · x_stride..]`, one per column, and `palette` is the LUT
/// zero-padded to [`LINE`] floats.
///
/// Per column it widens each lane group's [`LANES`] indices to 32 bits
/// once and permutes `palette` with them, which gives the decoded weights
/// `lut[idx[r, j]]`; then, for every row of the group, it multiplies them
/// by the broadcast `x[b, j]` and adds the products into that row's
/// accumulators. Every lane adds the f32 product `lut[c] · x[j]` to its
/// own accumulator, in the same ascending-`j` order as [`accumulate`] (no
/// fused multiply-add), so the bits cannot differ from the portable body.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn decode_groups(
    acc: &mut [[f32; TILE_OUT]],
    rows: usize,
    cols: usize,
    blk: &[u8],
    x: &[f32],
    x_stride: usize,
    palette: &[f32; LINE],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn avx2<const G: usize>(
        acc: &mut [[f32; TILE_OUT]],
        rows: usize,
        cols: usize,
        blk: &[u8],
        x: &[f32],
        x_stride: usize,
        palette: &[f32; LINE],
    ) -> usize {
        use std::arch::x86_64::{
            _mm256_add_ps, _mm256_cvtepu8_epi32, _mm256_loadu_ps, _mm256_mul_ps,
            _mm256_permutevar8x32_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
            _mm_loadl_epi64,
        };
        let pair = rows == TILE_OUT;
        // Every pointer below is in bounds because of these lengths.
        assert!(acc.len() == G && rows <= TILE_OUT, "a tile per batch row");
        assert_eq!(blk.len(), rows * cols, "one index per (row, column)");
        assert!(
            x.len() >= (G - 1) * x_stride + cols,
            "an x per (row, column)"
        );
        let (blk, x) = (blk.as_ptr(), x.as_ptr());
        // SAFETY: `palette` is `LINE` = 8 floats.
        let pal = unsafe { _mm256_loadu_ps(palette.as_ptr()) };
        let (mut a0, mut a1) = ([_mm256_setzero_ps(); G], [_mm256_setzero_ps(); G]);
        for b in 0..G {
            // SAFETY: `acc[b]` is `TILE_OUT` = 2·LANES floats.
            unsafe {
                a0[b] = _mm256_loadu_ps(acc[b].as_ptr());
                if pair {
                    a1[b] = _mm256_loadu_ps(acc[b].as_ptr().add(LANES));
                }
            }
        }
        for j in 0..cols {
            // SAFETY: column `j`'s indices for rows `0 .. LANES` (`..
            // 2·LANES` when `pair`, which means `rows` = 2·LANES) are the
            // bytes from `j·rows`, which end at or before `(j + 1)·rows <=
            // blk.len()`. Every index is below `k <= LINE`, so the permute
            // reads a palette entry.
            let (w0, w1) = unsafe {
                let at = blk.add(j * rows);
                let i0 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(at.cast()));
                let w1 = if pair {
                    let i1 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(at.add(LANES).cast()));
                    _mm256_permutevar8x32_ps(pal, i1)
                } else {
                    pal
                };
                (_mm256_permutevar8x32_ps(pal, i0), w1)
            };
            for b in 0..G {
                // SAFETY: `b < G` and `j < cols`, so `b·x_stride + j` is
                // below `(G - 1)·x_stride + cols <= x.len()`.
                let xb = _mm256_set1_ps(unsafe { *x.add(b * x_stride + j) });
                a0[b] = _mm256_add_ps(a0[b], _mm256_mul_ps(w0, xb));
                if pair {
                    a1[b] = _mm256_add_ps(a1[b], _mm256_mul_ps(w1, xb));
                }
            }
        }
        for b in 0..G {
            // SAFETY: the same floats of `acc[b]` the loads above read.
            unsafe {
                _mm256_storeu_ps(acc[b].as_mut_ptr(), a0[b]);
                if pair {
                    _mm256_storeu_ps(acc[b].as_mut_ptr().add(LANES), a1[b]);
                }
            }
        }
        rows / LANES * LANES
    }

    #[cfg(target_arch = "x86_64")]
    if rows >= LANES && avx2_live() {
        let f = match acc.len() {
            1 => avx2::<1>,
            2 => avx2::<2>,
            3 => avx2::<3>,
            4 => avx2::<4>,
            5 => avx2::<5>,
            6 => avx2::<6>,
            g => unreachable!("a group of {g} batch rows exceeds GROUP_ROWS"),
        };
        // SAFETY: the one requirement of calling an `avx2` target-feature
        // function is a CPU with AVX2, detected just above.
        return unsafe { f(acc, rows, cols, blk, x, x_stride, palette) };
    }
    0
}

/// The tiled GEMM `out = x · Wᵀ` over `kernel`'s repacked `idx` stream:
/// run the output tiles (across worker threads from [`FANOUT_MACS`] on;
/// fixed tile ownership, so results cannot depend on the thread count),
/// each over its batch rows in groups of at most [`GROUP_ROWS`], and
/// scatter the tile-major staging back to row-major. The AVX2 body runs
/// where it applies unless `allow_avx2` is false, which pins the portable
/// body; only the portable body stages activation-side product tables.
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

    // The AVX2 body decodes the weights from a palette register and needs
    // no table.
    let avx2 = allow_avx2 && k <= LINE && avx2_live();
    let mut palette = [0.0f32; LINE];
    if avx2 {
        palette[..k].copy_from_slice(lut);
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
    // so each chunk of the tile loop is exactly one tile), scattered back
    // to row-major afterwards. The zeroed slab rows are the accumulators:
    // for every group of batch rows a tile streams its `(t, c)` index
    // blocks chunk by chunk, carrying the group's rows across chunks.
    let mut tmp = arena.take(n_tiles * n * TILE_OUT);
    {
        let prod: &[f32] = &prod;
        let groups = row_groups(n);
        let tile = |(t, tile_out): (usize, &mut [f32])| {
            let rows = tile_rows(out_features, t);
            let (tile_acc, _) = tile_out.as_chunks_mut::<TILE_OUT>();
            for (i0, g) in groups.clone() {
                let acc = &mut tile_acc[i0..i0 + g];
                for c in 0..n_chunks {
                    let cols = chunk_cols(in_features, c);
                    let base = block_base(out_features, in_features, t, c);
                    let blk = &idx[base..base + rows * cols];
                    let xg = &x[i0 * in_features + c * IN_CHUNK..];
                    let done = match I::as_bytes(blk) {
                        Some(bytes) if avx2 => {
                            decode_groups(acc, rows, cols, bytes, xg, in_features, &palette)
                        }
                        _ => 0,
                    };
                    for (b, acc) in acc.iter_mut().enumerate() {
                        let acc = &mut acc[..rows];
                        if use_prod {
                            let at = ((i0 + b) * in_features + c * IN_CHUNK) * k;
                            let columns = prod[at..][..k * cols]
                                .chunks_exact(k)
                                .map(|line| move |ci: usize| line[ci]);
                            accumulate(acc, blk, columns, done);
                        } else {
                            // Inline multiply (AVX2 tail rows and rich
                            // palettes): the identical f32s, no table.
                            let xc = &xg[b * in_features..][..cols];
                            let columns = xc.iter().map(|&xv| move |ci: usize| lut[ci] * xv);
                            accumulate(acc, blk, columns, done);
                        }
                    }
                }
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
        // Every palette the AVX2 body takes (k ≤ LINE, zero-padded below
        // it), one past it (portable product table) and one past the
        // table cutoff (inline multiply); every row tail mod 16 and mod 8;
        // feature counts around the chunk grid; batch 1..=13, every row
        // group size and split up to three groups, cycling with the row
        // count so each (k, in) pair sees every batch.
        let batches = 2 * GROUP_ROWS + 1;
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
        let n = 2 * GROUP_ROWS + 1;
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
        assert_eq!(row_groups(13).collect::<Vec<_>>(), [(0, 5), (5, 4), (9, 4)]);
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
