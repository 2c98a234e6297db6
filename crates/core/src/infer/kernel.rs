//! Cache-blocked, register-tiled LUT-GEMM kernel.
//!
//! [`TiledLutKernel`] is the single inner loop behind every palettized
//! projection. It rewrites the naive "unpack an index, look up a centroid,
//! multiply" GEMM as three mechanical transformations, in the spirit of
//! LUT-GEMM-style sub-4-bit kernels that amortize palette lookups through
//! precomputed partial products:
//!
//! 1. **One packed index stream, read in place.** At construction the
//!    palette's indices are re-laid-out, still at `bits` bits each, into
//!    contiguous *tiles*: [`TILE_OUT`] output rows × [`IN_CHUNK`] input
//!    columns per block. Inside a block each row's indices stay packed
//!    LSB-first, [`GROUP_COLS`] columns in exactly `bits` `u32` words (the
//!    bit order of [`crate::palettize::pack_bits`]), and the words are
//!    interleaved across rows: word `w` of 32-column group `g` of row `r`
//!    sits at `(g·bits + w)·rows + r`, so a lane group of output rows reads
//!    the same word of its rows as one contiguous run. Whenever `in` is a
//!    multiple of 32 a row takes exactly `in·bits/8` bytes, the container's
//!    own size, and each word is a little-endian word of the container's
//!    row, so the repack is a transpose. Every body and the serial oracle
//!    read the indices straight from these words with shifts; nothing
//!    unpacks them to bytes.
//!
//! 2. **Weight decode once per column, or a product table.** Every
//!    output is `Σ_j lut[idx[r, j]] · x[j]`, and the products are the
//!    exact f32s `lut[c] · x[j]` in every body. On CPUs with AVX2, for
//!    palettes of at most 3 bits, the kernel permutes a palette register
//!    (or, for a lone batch row, the product line `lut · x[j]`) with a
//!    lane group's shifted index words; see [`super::launch`]. The
//!    portable body instead materializes, per batch row, the
//!    activation-side products `prod[c][j] = lut[c] · x[j]` once per input
//!    chunk (`k · in` multiplies, amortized over all `out` output rows),
//!    and its inner loop *gathers by index and adds*. Because `prod[c][j]`
//!    is exactly the f32 the naive kernel would have computed inline, the
//!    gather path is bit-identical to the multiply path — which is also
//!    why palettes too rich for a table ([`PROD_K_MAX`], e.g. the lossless
//!    2¹⁶ palette) can fall back to the inline multiply without changing a
//!    single output bit.
//!
//! 3. **Deterministic tile parallelism.** Calls of at least
//!    [`super::launch::FANOUT_MACS`] multiply-accumulates split the
//!    *output tiles* over worker threads, never the reduction (smaller
//!    calls run every tile on the calling thread): each output element
//!    is accumulated by exactly one thread, left to right over the input
//!    (a single accumulator carried across chunks in ascending-`j`
//!    order). Results are therefore bit-identical to
//!    [`TiledLutKernel::forward_serial_into`] at every thread count — the
//!    determinism argument in DESIGN.md §11–12.
//!
//! The GEMM itself runs in `launch::run_tiled`, which advances
//! [`super::launch::LANES`] output rows at a time and preserves the
//! accumulation order (`acc += lut[idx[r, j]] · x[j]` for ascending `j`,
//! one accumulator per output element) — the same order a dense
//! row-times-matrixᵀ dot product uses — so the kernel agrees with a dense
//! matmul over the decoded weights to rounding, and with itself exactly.

use super::launch;
use crate::palettize::PalettizedTensor;
use crate::scratch::ScratchArena;

/// Output rows per tile — the unit of parallel work ownership.
pub const TILE_OUT: usize = 16;

/// Input columns per chunk: sized so one activation-LUT slab
/// (`k · IN_CHUNK` floats) stays L1/L2-resident for sub-4-bit palettes.
pub const IN_CHUNK: usize = 512;

/// Columns whose `bits`-bit indices one run of `bits` index words holds.
pub const GROUP_COLS: usize = 32;

/// Largest palette for which the portable body's activation-side product
/// table pays for itself. Richer palettes (up to the lossless 2¹⁶
/// entries) use the bit-identical inline-multiply fallback.
pub const PROD_K_MAX: usize = 64;

/// Cap on the activation-LUT table size (`n · k · in` floats ≈ 16 MB).
/// The table grows with the batch, so an unbounded large prefill would
/// pin an arbitrarily large arena buffer; past the cap the kernel falls
/// back to the inline multiply, which is bit-identical.
pub const PROD_TABLE_MAX_FLOATS: usize = 1 << 22;

// A chunk holds whole 32-column groups, so a row's groups never straddle
// a chunk.
const _: () = assert!(IN_CHUNK.is_multiple_of(GROUP_COLS) && GROUP_COLS == u32::BITS as usize);

/// The tiled LUT-GEMM kernel for one scalar-clustered `[out, in]` palette.
///
/// Construction performs the one-time tile repack; [`forward_into`] and
/// [`forward_serial_into`] run the GEMM with bit-identical results (the
/// serial entry point exists so benchmarks can pin the single-threaded
/// reference, and is the oracle the tiled path is tested against).
///
/// [`forward_into`]: TiledLutKernel::forward_into
/// [`forward_serial_into`]: TiledLutKernel::forward_serial_into
#[derive(Debug, Clone)]
pub struct TiledLutKernel {
    lut: Vec<f32>,
    bits: usize,
    out_features: usize,
    in_features: usize,
    /// The packed index stream: `(tile, chunk)` blocks of lane-interleaved
    /// words (module docs, point 1).
    words: Vec<u32>,
}

/// Rows in tile `t` (the last tile may be short).
#[inline]
pub(crate) fn tile_rows(out_features: usize, t: usize) -> usize {
    TILE_OUT.min(out_features - t * TILE_OUT)
}

/// Columns in chunk `c` (the last chunk may be short).
#[inline]
fn chunk_cols(in_features: usize, c: usize) -> usize {
    IN_CHUNK.min(in_features - c * IN_CHUNK)
}

/// Index words of a block of `rows` rows and `cols` columns: `bits` words
/// per row for every started 32-column group.
#[inline]
pub(crate) fn block_len(rows: usize, cols: usize, bits: usize) -> usize {
    rows * bits * cols.div_ceil(GROUP_COLS)
}

/// Offset of the `(t, c)` block inside the stream: all of tile `t`'s
/// earlier rows times their full width of words, plus this tile's rows
/// times the words of earlier (always whole) chunks.
#[inline]
fn block_base(out_features: usize, in_features: usize, bits: usize, t: usize, c: usize) -> usize {
    t * block_len(TILE_OUT, in_features, bits)
        + block_len(tile_rows(out_features, t), c * IN_CHUNK, bits)
}

/// Where column `j`'s indices sit in a block of `rows` rows: row `r`'s
/// index is the `bits` bits from `shift` up of the word pair
/// `(blk[lo + r], blk[hi + r])`, where `hi` is the next word's run when
/// the index straddles two words and `lo` again when it does not.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Column {
    lo: usize,
    hi: usize,
    shift: u32,
    mask: u32,
}

impl Column {
    /// Column `j` of a block of `rows` rows of `bits`-bit indices.
    #[inline]
    pub(crate) fn new(j: usize, rows: usize, bits: usize) -> Self {
        let bit = j % GROUP_COLS * bits;
        let word = j / GROUP_COLS * bits + bit / 32;
        let shift = bit % 32;
        let next = if shift + bits > 32 { word + 1 } else { word };
        Column {
            lo: word * rows,
            hi: next * rows,
            shift: shift as u32,
            mask: (1 << bits) - 1,
        }
    }

    /// Row `r`'s index in `blk`.
    #[inline]
    pub(crate) fn index(self, blk: &[u32], r: usize) -> usize {
        let pair = u64::from(blk[self.lo + r]) | u64::from(blk[self.hi + r]) << 32;
        ((pair >> self.shift) as u32 & self.mask) as usize
    }
}

impl TiledLutKernel {
    /// Repack `weights` (scalar-clustered, `[out, in]`) into tiled form.
    ///
    /// # Panics
    ///
    /// Panics if the palette is not a 2-D scalar palette.
    pub fn from_palette(weights: &PalettizedTensor) -> Self {
        assert_eq!(weights.shape().len(), 2, "kernel expects [out, in]");
        assert_eq!(weights.cluster_dim(), 1, "kernel is scalar-clustered");
        let (out_features, in_features) = (weights.shape()[0], weights.shape()[1]);
        let bits = usize::from(weights.bits());
        let row_words = block_len(1, in_features, bits);
        let chunk_words = block_len(1, IN_CHUNK, bits);
        // Word `rw` of row `row`'s packed indices → its place in the stream.
        let place = |row: usize, rw: usize| {
            let (t, c) = (row / TILE_OUT, rw / chunk_words);
            block_base(out_features, in_features, bits, t, c)
                + rw % chunk_words * tile_rows(out_features, t)
                + row % TILE_OUT
        };
        let mut words = vec![0u32; out_features * row_words];
        if in_features.is_multiple_of(GROUP_COLS) {
            // Every row of the container starts on a word boundary and
            // holds exactly `row_words` little-endian words, each the
            // stream's word: the repack is a transpose.
            let packed = weights.packed();
            debug_assert_eq!(packed.len(), words.len() * 4);
            for (i, w) in packed.chunks_exact(4).enumerate() {
                words[place(i / row_words, i % row_words)] =
                    u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            }
        } else {
            // A ragged row ends mid-word: place each index on its own.
            for (i, v) in weights.indices().into_iter().enumerate() {
                let (row, j) = (i / in_features, i % in_features);
                let t = row / TILE_OUT;
                let (c, jj) = (j / IN_CHUNK, j % IN_CHUNK);
                let col = Column::new(jj, tile_rows(out_features, t), bits);
                let at = block_base(out_features, in_features, bits, t, c) + row % TILE_OUT;
                words[at + col.lo] |= v << col.shift;
                if col.hi != col.lo {
                    words[at + col.hi] |= v >> (32 - col.shift);
                }
            }
        }
        TiledLutKernel {
            lut: weights.lut().to_vec(),
            bits,
            out_features,
            in_features,
            words,
        }
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Palette entries.
    pub fn k(&self) -> usize {
        self.lut.len()
    }

    /// Bits per index.
    pub(super) fn bits(&self) -> u8 {
        self.bits as u8
    }

    /// Palette centroids, `k` long.
    pub(super) fn lut(&self) -> &[f32] {
        &self.lut
    }

    /// Tile `t`'s rows, chunk `c`'s columns and their `(t, c)` block of
    /// index words.
    #[inline]
    pub(super) fn block(&self, t: usize, c: usize) -> (usize, usize, &[u32]) {
        let rows = tile_rows(self.out_features, t);
        let cols = chunk_cols(self.in_features, c);
        let base = block_base(self.out_features, self.in_features, self.bits, t, c);
        (
            rows,
            cols,
            &self.words[base..][..block_len(rows, cols, self.bits)],
        )
    }

    /// Bytes of the packed index stream plus the f32 LUT — the kernel's
    /// resident footprint.
    pub fn resident_bytes(&self) -> usize {
        (self.words.len() + self.lut.len()) * 4
    }

    /// Reconstruct the row-major `[out, in]` index stream (undoes the tile
    /// layout; for tests and export).
    pub fn row_major_indices(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.out_features * self.in_features];
        for t in 0..self.out_features.div_ceil(TILE_OUT) {
            for c in 0..self.in_features.div_ceil(IN_CHUNK) {
                let (rows, cols, blk) = self.block(t, c);
                for j in 0..cols {
                    let col = Column::new(j, rows, self.bits);
                    for r in 0..rows {
                        let row = t * TILE_OUT + r;
                        out[row * self.in_features + c * IN_CHUNK + j] = col.index(blk, r) as u32;
                    }
                }
            }
        }
        out
    }

    /// Single-threaded reference GEMM: `out[i, r] = Σ_j lut[idx[r, j]] ·
    /// x[i, j]`, ascending `j`, one accumulator per element, each index
    /// read from the stream on its own. [`TiledLutKernel::forward_into`] is
    /// bit-identical to this loop at every thread count — it is the oracle
    /// of the tiled path.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `n · in` long or `out` is not `n · out` long.
    pub fn forward_serial_into(&self, x: &[f32], n: usize, out: &mut [f32]) {
        self.check_shapes(x, n, out);
        let n_tiles = self.out_features.div_ceil(TILE_OUT);
        let n_chunks = self.in_features.div_ceil(IN_CHUNK);
        for i in 0..n {
            let xrow = &x[i * self.in_features..(i + 1) * self.in_features];
            let orow = &mut out[i * self.out_features..(i + 1) * self.out_features];
            for t in 0..n_tiles {
                for r in 0..tile_rows(self.out_features, t) {
                    let mut acc = 0.0f32;
                    for c in 0..n_chunks {
                        let (rows, cols, blk) = self.block(t, c);
                        let xc = &xrow[c * IN_CHUNK..c * IN_CHUNK + cols];
                        for (j, &xv) in xc.iter().enumerate() {
                            acc += self.lut[Column::new(j, rows, self.bits).index(blk, r)] * xv;
                        }
                    }
                    orow[t * TILE_OUT + r] = acc;
                }
            }
        }
    }

    /// The tiled GEMM: weights decoded once per column for a group of
    /// batch rows (AVX2) or gathered from activation-LUT tables per
    /// `(batch row, chunk)` (portable), worker threads over output tiles.
    /// Scratch (the tile-major staging buffer, and the portable body's
    /// product tables) comes from `arena`; steady-state calls of one
    /// shape allocate nothing.
    ///
    /// Bit-identical to [`TiledLutKernel::forward_serial_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `n · in` long or `out` is not `n · out` long.
    pub fn forward_into(&self, x: &[f32], n: usize, out: &mut [f32], arena: &mut ScratchArena) {
        self.forward_into_body(x, n, out, arena, true);
    }

    /// [`TiledLutKernel::forward_into`], with the AVX2 lane bodies allowed
    /// only when `allow_avx2` is true: `false` pins the portable body, so
    /// tests can check both bodies on an AVX2 host.
    pub(crate) fn forward_into_body(
        &self,
        x: &[f32],
        n: usize,
        out: &mut [f32],
        arena: &mut ScratchArena,
        allow_avx2: bool,
    ) {
        self.check_shapes(x, n, out);
        launch::run_tiled(self, x, n, out, arena, allow_avx2);
    }

    fn check_shapes(&self, x: &[f32], n: usize, out: &[f32]) {
        assert_eq!(x.len(), n * self.in_features, "x must be [n, in]");
        assert_eq!(out.len(), n * self.out_features, "out must be [n, out]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::{runtime, DType, Device, Tensor};

    fn kernel(out: usize, inp: usize, k: usize, seed: u64) -> (PalettizedTensor, TiledLutKernel) {
        runtime::reset();
        let bits = (usize::BITS - (k - 1).max(1).leading_zeros()).max(1) as u8;
        let w = Tensor::randn(&[out, inp], DType::F32, Device::Cpu, seed);
        let lut: Vec<f32> = (0..k).map(|i| (i as f32 - k as f32 / 2.0) * 0.03).collect();
        let c = Tensor::from_vec(lut, &[k, 1], DType::F32, Device::Cpu);
        let p = PalettizedTensor::from_nearest(&w, &c, bits, 1);
        let kern = TiledLutKernel::from_palette(&p);
        (p, kern)
    }

    fn xbuf(n: usize, inp: usize, seed: u64) -> Vec<f32> {
        Tensor::randn(&[n.max(1), inp.max(1)], DType::F32, Device::Cpu, seed).to_vec()[..n * inp]
            .to_vec()
    }

    /// `v`'s bit patterns, the values the oracle comparisons check.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Independent reference: ascending-j single-accumulator gather over
    /// the container's own unpacked indices, so it checks the stream too.
    fn reference(p: &PalettizedTensor, x: &[f32], n: usize) -> Vec<f32> {
        let (out, inp) = (p.shape()[0], p.shape()[1]);
        let idx = p.indices();
        let lut = p.lut();
        let mut y = vec![0.0f32; n * out];
        for i in 0..n {
            for r in 0..out {
                let mut acc = 0.0f32;
                for j in 0..inp {
                    acc += lut[idx[r * inp + j] as usize] * x[i * inp + j];
                }
                y[i * out + r] = acc;
            }
        }
        y
    }

    #[test]
    fn repack_round_trips_the_index_stream() {
        for (out, inp) in [(1, 1), (16, 512), (17, 513), (40, 100), (100, 7)] {
            let (p, kern) = kernel(out, inp, 8, out as u64);
            assert_eq!(kern.row_major_indices(), p.indices(), "[{out}, {inp}]");
        }
    }

    #[test]
    fn repack_round_trips_every_bit_width_on_aligned_and_ragged_shapes() {
        // Aligned widths (`in` a multiple of 32) take the word transpose,
        // ragged ones the per-index path; both must give back the
        // container's indices at every width, straddling words included.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for bits in 1..=16u8 {
            let k = 1usize << bits;
            for (out, inp) in [
                (17, 32),
                (33, 544),
                (16, 1056),
                (17, 33),
                (5, 100),
                (33, 545),
            ] {
                let idx: Vec<u32> = (0..out * inp)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (s >> 33) as u32 % k as u32
                    })
                    .collect();
                let lut = (0..k).map(|c| c as f32).collect();
                let p = PalettizedTensor::from_lut_indices(lut, &idx, bits, 1, vec![out, inp]);
                let kern = TiledLutKernel::from_palette(&p);
                assert_eq!(kern.row_major_indices(), idx, "{bits} bits [{out}, {inp}]");
                if inp.is_multiple_of(GROUP_COLS) {
                    assert_eq!(
                        kern.words.len() * 4,
                        p.packed().len(),
                        "{bits} bits: density"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_matches_serial_and_reference_bit_for_bit() {
        for (out, inp, n) in [
            (16, 512, 4),   // exact tile/chunk multiples
            (17, 513, 3),   // one past the boundary on both axes
            (5, 33, 1),     // batch 1, sub-tile geometry
            (7, 9, 1),      // tail-only rows: the 4 → 2 → 1 descent
            (40, 100, 2),   // a last tile of exactly one lane group
            (130, 1030, 2), // several tiles and chunks with tails
            (48, 544, 1),   // one row: a tile pair, then a lone tile
        ] {
            let (p, kern) = kernel(out, inp, 8, (out + inp) as u64);
            let x = xbuf(n, inp, 9);
            let want = reference(&p, &x, n);
            let mut serial = vec![0.0f32; n * out];
            kern.forward_serial_into(&x, n, &mut serial);
            assert_eq!(
                bits(&serial),
                bits(&want),
                "serial [{out}, {inp}] batch {n}"
            );
            let mut arena = ScratchArena::new();
            let mut tiled = vec![0.0f32; n * out];
            kern.forward_into(&x, n, &mut tiled, &mut arena);
            assert_eq!(bits(&tiled), bits(&want), "tiled [{out}, {inp}] batch {n}");
        }
    }

    #[test]
    fn rich_palette_takes_the_inline_path_and_still_matches() {
        // k > PROD_K_MAX forces the inline-multiply fallback, and past 256
        // entries indices of 9 bits and more.
        for k in [PROD_K_MAX + 1, 300] {
            let (p, kern) = kernel(24, 70, k, 5);
            assert!(kern.resident_bytes() > 0);
            let x = xbuf(3, 70, 6);
            let want = reference(&p, &x, 3);
            let mut arena = ScratchArena::new();
            let mut tiled = vec![0.0f32; 3 * 24];
            kern.forward_into(&x, 3, &mut tiled, &mut arena);
            assert_eq!(bits(&tiled), bits(&want), "k={k}");
        }
    }

    #[test]
    fn one_entry_palette_is_rank_one() {
        let (p, kern) = kernel(10, 20, 1, 7);
        let x = xbuf(2, 20, 8);
        let mut arena = ScratchArena::new();
        let mut y = vec![0.0f32; 2 * 10];
        kern.forward_into(&x, 2, &mut y, &mut arena);
        assert_eq!(bits(&y), bits(&reference(&p, &x, 2)));
        assert_eq!(kern.k(), 1);
    }

    #[test]
    fn steady_state_calls_do_not_grow_the_arena() {
        let (_p, kern) = kernel(64, 600, 8, 11);
        let mut arena = ScratchArena::new();
        let x = xbuf(4, 600, 12);
        let mut y = vec![0.0f32; 4 * 64];
        kern.forward_into(&x, 4, &mut y, &mut arena);
        let grows = arena.grows();
        for _ in 0..5 {
            kern.forward_into(&x, 4, &mut y, &mut arena);
        }
        assert_eq!(arena.grows(), grows, "warm calls must not allocate");
        assert_eq!(kern.out_features(), 64);
        assert_eq!(kern.in_features(), 600);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (_p, kern) = kernel(8, 8, 4, 13);
        let mut arena = ScratchArena::new();
        kern.forward_into(&[], 0, &mut [], &mut arena);
    }
}
