//! Serial vs tiled palettized inference (`PalettizedLinear::forward_serial`
//! vs `forward_batch`) on the deployment-scale case the kernel rewrite
//! targets: a `[2048 × 2048]` 3-bit palette at batch 32.
//!
//! Prints a comparison table and writes a `BENCH_infer.json` perf record so
//! later PRs have a trajectory to compare against. `bit_identical` records
//! that `forward_batch` matched `forward_serial` bit for bit at the batch
//! and at batch 1 (the one-row body), on the same weight.
//!
//! Flags (any other argument exits 2):
//! * `--smoke` — a seconds-scale shape for CI (records `"smoke": true`);
//! * `--min-speedup <x>` — exit non-zero if `forward_batch` does not reach
//!   `x`× the serial reference (CI passes `--min-speedup 1.5` on
//!   multi-core runners, so a parallel-speedup regression can never ship
//!   silently). A missing or unparsable `x` exits 2.
//!
//! Run with `cargo run --release -p edkm-bench --bin infer [-- --smoke]`.

use edkm_core::infer::launch;
use edkm_core::palettize::PalettizedTensor;
use edkm_core::PalettizedLinear;
use edkm_tensor::{runtime, DType, Device, Tensor};
use std::hint::black_box;
use std::time::Instant;

const BITS: u8 = 3;

struct Shape {
    out_features: usize,
    in_features: usize,
    batch: usize,
    reps: usize,
}

impl Shape {
    fn full() -> Self {
        Shape {
            out_features: 2048,
            in_features: 2048,
            batch: 32,
            reps: 5,
        }
    }

    /// Past `launch::FANOUT_MACS`, so the smoke gate still measures the
    /// threaded path.
    fn smoke() -> Self {
        Shape {
            out_features: 512,
            in_features: 512,
            batch: 32,
            reps: 3,
        }
    }
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\nusage: infer [--smoke] [--min-speedup <x>]");
    std::process::exit(2);
}

fn parse_args() -> (bool, Option<f64>) {
    let mut smoke = false;
    let mut min_speedup = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--min-speedup" => {
                let value = args.next().and_then(|v| v.parse::<f64>().ok());
                match value.filter(|x| x.is_finite()) {
                    Some(x) => min_speedup = Some(x),
                    None => usage_error("--min-speedup needs a numeric argument"),
                }
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    (smoke, min_speedup)
}

fn main() {
    let (smoke, min_speedup) = parse_args();
    let shape = if smoke { Shape::smoke() } else { Shape::full() };
    let (out_features, in_features, batch, reps) = (
        shape.out_features,
        shape.in_features,
        shape.batch,
        shape.reps,
    );
    runtime::reset();
    let threads = rayon::current_num_threads();
    println!("== palettized inference: serial loop vs tiled forward_batch ==");
    println!(
        "[{out_features} x {in_features}] {BITS}-bit palette, batch {batch}, {threads} threads, best of {reps}{}\n",
        if smoke { " (smoke)" } else { "" }
    );

    // Deployment-shaped weight: 8 centroids (3 bits), nearest assignment.
    let w =
        Tensor::randn(&[out_features, in_features], DType::F32, Device::Cpu, 0).map(|v| v * 0.02);
    let centroids = Tensor::from_vec(
        (0..1 << BITS)
            .map(|i| (i as f32 - 3.5) * 0.01)
            .collect::<Vec<f32>>(),
        &[1 << BITS, 1],
        DType::F32,
        Device::Cpu,
    );
    let lin = PalettizedLinear::new(PalettizedTensor::from_nearest(&w, &centroids, BITS, 1));
    let x = Tensor::randn(&[batch, in_features], DType::F32, Device::Cpu, 1);

    // Compared by bits: a `+0.0`/`-0.0` swap is a difference, an
    // identical NaN is not. Batch 1 (x's first row) checks the one-row
    // body on the same weight; at the full shape that call fans out too.
    let bits = |t: &Tensor| t.to_vec().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let x1 = Tensor::from_vec(
        x.to_vec()[..in_features].to_vec(),
        &[1, in_features],
        DType::F32,
        Device::Cpu,
    );
    let identical = [&x, &x1]
        .into_iter()
        .all(|x| bits(&lin.forward_serial(x)) == bits(&lin.forward_batch(x)));
    assert!(
        identical,
        "forward_batch must match forward_serial bit for bit, at batch {batch} and 1"
    );

    // `forward` delegates to the batch path, so the serial baseline is
    // the explicit single-threaded reference.
    let serial_s = best_of(reps, || {
        black_box(lin.forward_serial(black_box(&x)));
    });
    let batch_s = best_of(reps, || {
        black_box(lin.forward_batch(black_box(&x)));
    });
    let speedup = serial_s / batch_s;
    let (backend_name, backend_lanes) = launch::active();
    let cpu_features = launch::cpu_features();

    println!("  serial forward       {:>9.3} ms", serial_s * 1e3);
    println!(
        "  forward_batch        {:>9.3} ms  ({backend_name}, {backend_lanes} lanes)",
        batch_s * 1e3
    );
    println!("  speedup              {speedup:>9.2}x");
    println!("  bit-identical        {identical}");

    let record = format!(
        "{{\n  \"bench\": \"palettized_infer\",\n  \"smoke\": {smoke},\n  \
         \"out_features\": {out_features},\n  \
         \"in_features\": {in_features},\n  \"bits\": {BITS},\n  \"batch\": {batch},\n  \
         \"threads\": {threads},\n  \"reps\": {reps},\n  \
         \"kernel_backend\": \"{backend_name}\",\n  \"kernel_lanes\": {backend_lanes},\n  \
         \"cpu_features\": \"{cpu_features}\",\n  \"serial_ms\": {:.3},\n  \
         \"forward_batch_ms\": {:.3},\n  \"speedup\": {:.3},\n  \
         \"bit_identical\": {identical}\n}}\n",
        serial_s * 1e3,
        batch_s * 1e3,
        speedup
    );
    std::fs::write("BENCH_infer.json", &record).expect("write BENCH_infer.json");
    println!("\nwrote BENCH_infer.json");
    if threads >= 4 && speedup < 2.0 {
        eprintln!("WARNING: expected >= 2x speedup with {threads} threads, got {speedup:.2}x");
    }
    if speedup < 1.0 {
        eprintln!(
            "WARNING: forward_batch is SLOWER than the serial reference ({speedup:.3}x) — \
             a regression if this machine has multiple cores"
        );
    }
    if let Some(min) = min_speedup {
        if speedup < min {
            eprintln!("FAIL: speedup {speedup:.3}x below the --min-speedup {min} gate");
            std::process::exit(1);
        }
        println!("min-speedup gate {min}x: ok");
    }
}
