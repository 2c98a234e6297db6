//! Edge-geometry suite for the tiled LUT-GEMM kernel: every awkward shape
//! (features off the tile/chunk grid, batch 1, degenerate 1-entry
//! palettes, the lossless 2¹⁶-entry palette) must produce **bit-identical**
//! results between `forward_serial` (the single-threaded reference) and
//! `forward_batch` (the cache-blocked tiled kernel), and stay within
//! rounding of a dense matmul over the decoded weights. Parity compares
//! bits, so a `+0.0`/`-0.0` swap fails and an identical NaN passes.

use edkm::core::infer::kernel::{IN_CHUNK, PROD_K_MAX, TILE_OUT};
use edkm::core::palettize::PalettizedTensor;
use edkm::core::scratch::ScratchArena;
use edkm::core::PalettizedLinear;
use edkm::tensor::{ops, runtime, DType, Device, Tensor};

fn linear(out: usize, inp: usize, k: usize, seed: u64) -> PalettizedLinear {
    let bits = (usize::BITS - (k - 1).max(1).leading_zeros()).max(1) as u8;
    let w = Tensor::randn(&[out, inp], DType::F32, Device::Cpu, seed).map(|v| v * 0.05);
    let lut: Vec<f32> = (0..k).map(|i| (i as f32 - k as f32 / 2.0) * 0.02).collect();
    let c = Tensor::from_vec(lut, &[k, 1], DType::F32, Device::Cpu);
    PalettizedLinear::new(PalettizedTensor::from_nearest(&w, &c, bits, 1))
}

/// `v`'s bit patterns, the values parity compares.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn assert_serial_tiled_parity(lin: &PalettizedLinear, batch: usize, seed: u64, label: &str) {
    let x = Tensor::randn(&[batch, lin.in_features()], DType::F32, Device::Cpu, seed);
    let serial = lin.forward_serial(&x);
    let tiled = lin.forward_batch(&x);
    assert_eq!(
        bits(&serial.to_vec()),
        bits(&tiled.to_vec()),
        "{label}: tiled kernel must match the serial reference bit for bit"
    );
    // And both stay within rounding of the dense matmul over the decoded
    // weights (the kernel shares its ascending-j accumulation order).
    let dense = ops::matmul(&x, &lin.weights().decode().t());
    let rel = ops::max_abs_diff(&tiled, &dense) / ops::l2_norm(&dense).max(1e-9);
    assert!(rel < 1e-5, "{label}: drifted from dense matmul: {rel}");
}

#[test]
fn off_grid_feature_counts_are_bit_identical() {
    runtime::reset();
    // One past / one short of the tile and chunk boundaries, plus shapes
    // far off the grid.
    for (out, inp) in [
        (TILE_OUT + 1, IN_CHUNK + 1),
        (TILE_OUT - 1, IN_CHUNK - 1),
        (3 * TILE_OUT + 5, 2 * IN_CHUNK + 13),
        (7, 9),
    ] {
        let lin = linear(out, inp, 8, (out * 31 + inp) as u64);
        assert_serial_tiled_parity(&lin, 4, 1, &format!("[{out}, {inp}]"));
    }
}

#[test]
fn exact_grid_multiples_are_bit_identical() {
    runtime::reset();
    let lin = linear(2 * TILE_OUT, IN_CHUNK, 8, 3);
    for batch in [1usize, 2, 32] {
        assert_serial_tiled_parity(&lin, batch, 5, &format!("exact grid, batch {batch}"));
    }
}

#[test]
fn batch_one_decode_shape_is_bit_identical() {
    runtime::reset();
    // The decode steady-state shape: a single activation row.
    let lin = linear(400, 400, 8, 7);
    assert_serial_tiled_parity(&lin, 1, 9, "batch 1");
}

#[test]
fn one_entry_palette_is_bit_identical() {
    runtime::reset();
    // k = 1: every weight is the same scalar; the GEMM degenerates to a
    // rank-one product and must still agree across paths.
    let lin = linear(70, 90, 1, 11);
    assert_eq!(lin.weights().k(), 1);
    assert_serial_tiled_parity(&lin, 3, 13, "1-entry palette");
}

#[test]
fn lossless_u16_palette_is_bit_identical() {
    runtime::reset();
    // The lossless 2^16 palette of a bf16 weight: k far past PROD_K_MAX,
    // so the kernel takes the u16 inline-multiply path — which must agree
    // with the serial reference bit for bit and decode the weights
    // exactly.
    let w = Tensor::randn(&[150, 120], DType::Bf16, Device::Cpu, 17);
    let p = PalettizedTensor::lossless(&w);
    assert!(p.k() > PROD_K_MAX, "lossless palette is rich: {}", p.k());
    assert_eq!(p.bits(), 16);
    assert_eq!(p.decode().to_vec(), w.to_vec());
    let lin = PalettizedLinear::new(p);
    assert_serial_tiled_parity(&lin, 5, 19, "lossless 2^16 palette");
}

/// `TiledLutKernel::forward_into` driven directly against
/// `forward_serial_into` on the same inputs.
fn assert_kernel_parity(lin: &PalettizedLinear, batch: usize, seed: u64, label: &str) {
    let x = Tensor::randn(&[batch, lin.in_features()], DType::F32, Device::Cpu, seed).to_vec();
    let mut want = vec![0.0f32; batch * lin.out_features()];
    lin.kernel().forward_serial_into(&x, batch, &mut want);
    let mut got = vec![f32::NAN; batch * lin.out_features()];
    lin.kernel()
        .forward_into(&x, batch, &mut got, &mut ScratchArena::new());
    assert_eq!(bits(&got), bits(&want), "{label}: the tiled path diverged");
}

#[test]
fn every_backend_is_bit_identical_on_every_edge_geometry() {
    runtime::reset();
    // The same awkward shapes the serial/tiled parity tests pin, replayed
    // through the tiled kernel itself.
    let cases: [(usize, usize, usize, usize); 6] = [
        (TILE_OUT + 1, IN_CHUNK + 1, 8, 4),
        (TILE_OUT - 1, IN_CHUNK - 1, 8, 4),
        (3 * TILE_OUT + 5, 2 * IN_CHUNK + 13, 8, 2),
        (7, 9, 8, 3),
        (2 * TILE_OUT, IN_CHUNK, 8, 1),
        (70, 90, 1, 3),
    ];
    for (out, inp, k, batch) in cases {
        let lin = linear(out, inp, k, (out * 131 + inp) as u64);
        assert_kernel_parity(
            &lin,
            batch,
            41,
            &format!("[{out} x {inp}] k={k} batch={batch}"),
        );
    }
}

#[test]
fn every_backend_handles_the_lossless_u16_palette() {
    runtime::reset();
    let w = Tensor::randn(&[90, 140], DType::Bf16, Device::Cpu, 43);
    let p = PalettizedTensor::lossless(&w);
    assert!(p.k() > PROD_K_MAX);
    let lin = PalettizedLinear::new(p);
    assert_kernel_parity(&lin, 3, 47, "lossless palette");
}

#[test]
fn forward_rows_matches_the_tensor_entry_points() {
    runtime::reset();
    // The slice-level arena path the serving decoder drives is the same
    // kernel: identical bits, and warm calls stop allocating.
    let lin = linear(65, 530, 8, 23);
    let n = 3usize;
    let x = Tensor::randn(&[n, 530], DType::F32, Device::Cpu, 29);
    let want = lin.forward_batch(&x).to_vec();
    let xd = x.to_vec();
    let mut arena = ScratchArena::new();
    let mut out = vec![0.0f32; n * 65];
    lin.forward_rows(&xd, n, &mut out, &mut arena);
    assert_eq!(
        bits(&out),
        bits(&want),
        "forward_rows must match forward_batch"
    );
    let grows = arena.grows();
    for _ in 0..3 {
        lin.forward_rows(&xd, n, &mut out, &mut arena);
    }
    assert_eq!(arena.grows(), grows, "warm forward_rows must not allocate");
}
