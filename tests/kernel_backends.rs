//! Property suite for the tiled LUT-GEMM path: arbitrary
//! `(out, in, k, batch)` geometries — including off-grid tile/chunk tails,
//! lane-group tails and palettes past the product-table cutoff — must
//! produce results **bit-identical** to the single-threaded serial oracle.
//! Every check drives `TiledLutKernel::forward_into` directly against
//! `forward_serial_into` on the same inputs. This is the fixed-tree
//! determinism contract: lane grouping, the lane body and the thread
//! count are performance choices, never numerics. On an AVX2 CPU these
//! checks reach the AVX2 body for palettes of up to 8 entries; the unit
//! tests in `launch.rs` pin the portable body on the same inputs. Results
//! are compared by their bits, so a `+0.0`/`-0.0` swap fails and an
//! identical NaN passes.

use edkm::core::infer::launch::{GROUP_ROWS, LANES};
use edkm::core::palettize::PalettizedTensor;
use edkm::core::scratch::ScratchArena;
use edkm::core::PalettizedLinear;
use edkm::tensor::{DType, Device, Tensor};
use proptest::prelude::*;

fn linear(out: usize, inp: usize, k: usize, seed: u64) -> PalettizedLinear {
    let bits = (usize::BITS - (k - 1).max(1).leading_zeros()).max(1) as u8;
    let w = Tensor::randn(&[out, inp], DType::F32, Device::Cpu, seed).map(|v| v * 0.05);
    let lut: Vec<f32> = (0..k).map(|i| (i as f32 - k as f32 / 2.0) * 0.02).collect();
    let c = Tensor::from_vec(lut, &[k, 1], DType::F32, Device::Cpu);
    PalettizedLinear::new(PalettizedTensor::from_nearest(&w, &c, bits, 1))
}

/// The tiled path against the serial oracle on one geometry.
fn assert_tiled_matches_serial(lin: &PalettizedLinear, batch: usize, seed: u64) {
    let x = Tensor::randn(&[batch, lin.in_features()], DType::F32, Device::Cpu, seed).to_vec();
    let mut want = vec![0.0f32; batch * lin.out_features()];
    lin.kernel().forward_serial_into(&x, batch, &mut want);
    let mut got = vec![f32::NAN; batch * lin.out_features()];
    lin.kernel()
        .forward_into(&x, batch, &mut got, &mut ScratchArena::new());
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got),
        bits(&want),
        "[{} x {}] k={} batch={batch}: the tiled path diverged from the serial oracle",
        lin.out_features(),
        lin.in_features(),
        lin.weights().k(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary geometry: feature counts straddling the tile/chunk grid,
    /// palette sizes from degenerate (k = 1) through multi-bit, batches
    /// from decode-shaped (1) to prefill-shaped (past three row groups).
    #[test]
    fn arbitrary_geometry_is_bit_identical_on_every_backend(
        out in 1usize..70,
        inp in 1usize..90,
        k in 1usize..17,
        batch in 1usize..=3 * GROUP_ROWS + 1,
        seed in 0u64..1000,
    ) {
        let lin = linear(out, inp, k, seed);
        assert_tiled_matches_serial(&lin, batch, seed.wrapping_add(1));
    }

    /// Lane-group tails: every row count 1..=17 — one short of, exactly
    /// and one past a lane group (7/8/9), every step of the 4 → 2 → 1
    /// tail descent, and one row past a whole tile.
    #[test]
    fn lane_width_tails_are_bit_identical(
        inp in 1usize..50,
        seed in 0u64..1000,
    ) {
        for out in 1..=2 * LANES + 1 {
            let lin = linear(out, inp, 8, seed);
            assert_tiled_matches_serial(&lin, 2, seed.wrapping_add(3));
        }
    }
}

#[test]
fn lossless_u16_palette_is_bit_identical_on_every_backend() {
    // The lossless 2^16-entry palette of a bf16 weight takes the inline
    // u16 index path (no product table); it must still match the oracle
    // exactly.
    let w = Tensor::randn(&[37, 53], DType::Bf16, Device::Cpu, 61);
    let p = PalettizedTensor::lossless(&w);
    assert_eq!(p.bits(), 16);
    let lin = PalettizedLinear::new(p);
    assert_tiled_matches_serial(&lin, 4, 67);
}

#[test]
fn worker_count_never_changes_the_bits() {
    // From `FANOUT_MACS` on, the tile loop assigns `min(cores, n_tiles)`
    // worker threads, each owning whole tiles with one accumulator chain
    // per output element, so the result is independent of how many
    // threads execute it. Sweeping the tile count from 1 (inline, zero
    // extra threads) through many tiles, at a decode-sized batch that
    // stays on the calling thread and a prefill-sized one past the
    // fan-out threshold, varies the actual worker count on any machine;
    // every configuration must reproduce the serial oracle's bits.
    use edkm::core::infer::kernel::TILE_OUT;
    use edkm::core::infer::launch::FANOUT_MACS;
    for (n_tiles, batch) in [(1usize, 4usize), (2, 4), (3, 4), (8, 4), (3, 160), (8, 64)] {
        let lin = linear(n_tiles * TILE_OUT, 600, 8, 79 + n_tiles as u64);
        let macs = batch * lin.out_features() * (lin.in_features() + lin.weights().k());
        assert_eq!(macs >= FANOUT_MACS, batch > 4, "{n_tiles} tiles x {batch}");
        assert_tiled_matches_serial(&lin, batch, 83);
    }
}
