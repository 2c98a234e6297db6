//! Reproduce the worked examples of Figures 1–3 of the eDKM paper, plus the
//! extension sweeps DESIGN.md calls out (hop limit, learner count, bit
//! width).
//!
//! Run with `cargo run --release -p edkm-bench --bin figures`. It takes no
//! argument, and exits 2 on one.

use edkm_autograd::{SavedTensorHooks, Var};
use edkm_core::{run_one, AblationSetup};
use edkm_core::{uniquify, DkmConfig, DkmLayer, EdkmConfig, EdkmHooks};
use edkm_tensor::{runtime, DType, Device, Tensor};

/// Fig. 1: the DKM attention map and its memory complexity O(|W|·|C|).
fn fig1() {
    println!("== Fig. 1: differentiable weight clustering attention map ==\n");
    println!("  |W| (weights)   |C|  bits   map bytes (f32)   map for LLaMA-7B layer");
    for bits in [2u8, 3, 4] {
        let k = 1usize << bits;
        let n_sim = 512 * 512 * 4; // our simulated attention layer
        let n_llama = 4096usize * 4096 * 4; // q,k,v,o of LLaMA-7B
        println!(
            "  {:>13}  {:>4}  {:>4}   {:>14}   {:>20}",
            n_sim,
            k,
            bits,
            format!("{:.1} MB", (n_sim * k * 4) as f64 / 1e6),
            format!("{:.1} GB", (n_llama * k * 4) as f64 / 1e9),
        );
    }
    println!("\n  (the paper quotes >=224 GB for 4-bit clustering of LLaMA-7B)\n");
}

/// Fig. 2: the marshaling walk across storage-invariant ops.
fn fig2() {
    println!("== Fig. 2: cross-device marshaling walk ==\n");
    runtime::reset();
    let hooks = EdkmHooks::new(EdkmConfig::marshal_only());
    let a = Tensor::randn(&[64, 32], DType::F32, Device::gpu(), 0);
    // A chain of invariant ops: view -> transpose -> contiguous -> view.
    let b = a.reshape(&[32, 64]);
    let c = b.transpose(0, 1);
    let d = c.contiguous();
    let e = d.reshape(&[2048]);
    let _p = hooks.pack(&a);
    println!(
        "  pack(a)                 -> miss, offloaded ({} B)",
        runtime::cpu_live_bytes()
    );
    for (name, t) in [
        ("view(a)", &b),
        ("transpose", &c),
        ("contiguous", &d),
        ("view", &e),
    ] {
        let before = hooks.stats();
        let _p = hooks.pack(t);
        let after = hooks.stats();
        let kind = if after.direct_hits > before.direct_hits {
            "direct hit (same storage)"
        } else if after.walk_hits > before.walk_hits {
            "graph-walk hit"
        } else {
            "miss"
        };
        println!(
            "  pack({name:<10})        -> {kind}, CPU still {} B",
            runtime::cpu_live_bytes()
        );
    }
    let s = hooks.stats();
    println!(
        "\n  5 saves, 1 copy: dedup rate {:.0}% (paper: 4 hops suffice)\n",
        100.0 * s.dedup_rate()
    );
}

/// Fig. 3: uniquification decomposition on a real attention map.
fn fig3() {
    println!("== Fig. 3: weight uniquification and sharding ==\n");
    runtime::reset();
    uniquify::clear_annotations();
    let n = 65536;
    let w = Tensor::randn(&[n], DType::Bf16, Device::gpu(), 1).map(|v| v * 0.02);
    let dkm = DkmLayer::new(DkmConfig::with_bits(3));
    let out = dkm.cluster(&Var::constant(w.clone()));
    let bits = w.bits16().expect("bf16");
    let uniq: std::collections::HashSet<u16> = bits.iter().copied().collect();
    let k = 8;
    let dense = n * k * 4;
    let table = uniq.len() * k * 4;
    let index = n * 2;
    println!(
        "  weights |W|            : {n} (bf16 -> {} unique patterns)",
        uniq.len()
    );
    println!("  dense map [|W|,|C|] f32: {:>10} bytes", dense);
    println!(
        "  attention table        : {:>10} bytes ({} rows x {k})",
        table,
        uniq.len()
    );
    println!("  index list (u16)       : {:>10} bytes", index);
    println!(
        "  uniquification ratio   : {:.1}x   (+ sharding /8 on the index list -> {:.1}x)",
        dense as f64 / (table + index) as f64,
        dense as f64 / (table + index / 8) as f64
    );
    println!("  centroids: {:?}\n", out.centroids.to_vec());
    uniquify::clear_annotations();
}

/// Extension sweep: marshaling hop limit vs dedup rate.
fn sweep_hops() {
    println!("== Sweep: graph-walk hop limit vs dedup (design ablation) ==\n");
    println!("  hop_limit  dedup_rate  peak_cpu(KB)");
    for hop in [0usize, 1, 2, 4, 6] {
        runtime::reset();
        let mut cfg = EdkmConfig::marshal_only();
        cfg.hop_limit = hop;
        let hooks = EdkmHooks::new(cfg);
        let a = Tensor::randn(&[128, 128], DType::F32, Device::gpu(), 2);
        // Save a plus 3 derived tensors at increasing hop distance.
        let d1 = a.transpose(0, 1);
        let d2 = d1.contiguous();
        let d3 = d2.reshape(&[64, 256]);
        for t in [&a, &d1, &d2, &d3] {
            let _ = hooks.pack(t);
        }
        let s = hooks.stats();
        println!(
            "  {:>9}  {:>9.0}%  {:>11.1}",
            hop,
            100.0 * s.dedup_rate(),
            runtime::cpu_live_bytes() as f64 / 1024.0
        );
    }
    println!();
}

/// Extension sweep: learners vs per-learner memory (Table 2 config, S on).
fn sweep_learners() {
    println!("== Sweep: learner count |L| vs per-learner memory ==\n");
    let setup = AblationSetup {
        d_model: 128,
        n_heads: 4,
        seq: 8,
        batch: 1,
        bits: 3,
        cluster_dim: 1,
        dkm_iters: 2,
        overlap_pcie: false,
    };
    println!("  |L|   peak_cpu(MB)  sim_runtime(s)");
    for l in [1usize, 2, 4, 8, 16] {
        let mut cfg = EdkmConfig::full(l);
        cfg.min_shard_elems = 1;
        let row = run_one(&setup, cfg);
        println!(
            "  {:>3}   {:>11.3}  {:>13.4}",
            l,
            row.memory_mb(),
            row.sim_seconds
        );
    }
    println!();
}

/// Extension sweep: palette bit width vs clustering error.
fn sweep_bits() {
    println!("== Sweep: palette bits vs clustering error ==\n");
    runtime::reset();
    let w = Tensor::randn(&[16384], DType::Bf16, Device::Cpu, 3).map(|v| v * 0.02);
    println!("  bits   |C|   max |w - pal(w)|      size(KB)   vs bf16");
    for bits in [1u8, 2, 3, 4, 6] {
        let dkm = DkmLayer::new(DkmConfig::with_bits(bits));
        let pal = dkm.palettize(&w);
        let err = edkm_tensor::ops::max_abs_diff(&pal.decode(), &w);
        let sz = pal.size_bytes();
        println!(
            "  {:>4}  {:>4}   {:>16.5}   {:>10.2}   {:>6.2}x",
            bits,
            1 << bits,
            err,
            sz as f64 / 1024.0,
            (w.numel() * 2) as f64 / sz as f64
        );
    }
    println!();
}

/// Extension sweep: centroid init strategy vs clustering quality.
fn sweep_init() {
    use edkm_core::DkmInit;
    println!("== Sweep: centroid init strategy vs clustering error ==\n");
    runtime::reset();
    let w = Tensor::randn(&[16384], DType::Bf16, Device::Cpu, 5).map(|v| v * 0.02);
    println!("  init              mean |w - pal(w)|   lloyd iters");
    for (label, init) in [
        ("quantile", DkmInit::Quantile),
        ("kmeans++", DkmInit::KmeansPlusPlus { seed: 0 }),
        ("uniform-range", DkmInit::UniformRange),
    ] {
        let dkm = DkmLayer::new(DkmConfig {
            init,
            ..DkmConfig::with_bits(3)
        });
        let out = dkm.cluster_tensor(&w);
        let pal = dkm.palettize(&w);
        let dec = pal.decode().to_vec();
        let orig = w.to_vec();
        let mean_err: f32 = orig
            .iter()
            .zip(&dec)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / orig.len() as f32;
        println!(
            "  {label:<16}  {mean_err:>17.6}   {:>11}",
            out.iterations_run
        );
    }
    println!();
}

/// Extension sweep: vector (multi-dimensional) clustering vs bits/weight.
fn sweep_vector() {
    println!("== Sweep: vector DKM — bits/weight below the scalar floor ==\n");
    runtime::reset();
    let w = Tensor::randn(&[16384], DType::Bf16, Device::Cpu, 7).map(|v| v * 0.02);
    println!("  config    bits/weight   mean |w - pal(w)|   size(KB)");
    for (bits, dim) in [(4u8, 1usize), (2, 1), (4, 2), (3, 2), (4, 4)] {
        let dkm = DkmLayer::new(DkmConfig {
            iters: 6,
            ..DkmConfig::with_vector(bits, dim)
        });
        let pal = dkm.palettize(&w);
        let dec = pal.decode().to_vec();
        let orig = w.to_vec();
        let mean_err: f32 = orig
            .iter()
            .zip(&dec)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / orig.len() as f32;
        println!(
            "  {:<9} {:>10.2}   {:>17.6}   {:>8.2}",
            format!("{bits}b x d{dim}"),
            pal.bits_per_weight(),
            mean_err,
            pal.size_bytes() as f64 / 1024.0
        );
    }
    println!();
}

/// Extension sweep: entropy coding of the palette index stream.
fn sweep_entropy() {
    use edkm_core::entropy::index_entropy_bits;
    println!("== Sweep: Huffman coding of palette indices (Deep Compression) ==\n");
    runtime::reset();
    // Clustered weights whose assignment distribution ranges from uniform
    // (gaussian weights) to skewed (heavy mass at zero, as after magnitude
    // regularization).
    println!("  weights         H(idx) bits   fixed b/idx   huffman b/idx");
    let gauss = Tensor::randn(&[16384], DType::Bf16, Device::Cpu, 8).map(|v| v * 0.02);
    let spiky = Tensor::randn(&[16384], DType::Bf16, Device::Cpu, 9).map(|v| {
        if v.abs() < 1.2 {
            0.001 * v
        } else {
            v * 0.05
        }
    });
    for (label, w) in [("gaussian", &gauss), ("zero-heavy", &spiky)] {
        let dkm = DkmLayer::new(DkmConfig::with_bits(3));
        let pal = dkm.palettize(w);
        let idx = pal.indices();
        let ec = pal.entropy_coded();
        println!(
            "  {:<14}  {:>10.3}   {:>11}   {:>13.3}",
            label,
            index_entropy_bits(&idx, pal.k()),
            pal.bits(),
            ec.bits_per_symbol()
        );
    }
    println!("\n  (huffman tracks the index entropy to within 1 bit; skewed\n   assignments ship below the fixed palette width)\n");
}

/// Extension sweep: per-row-group LUTs vs one whole-matrix LUT.
fn sweep_groups() {
    println!("== Sweep: LUT group size (per-grouped-channel palettization) ==\n");
    runtime::reset();
    // A projection whose rows alternate between two scales — the worst
    // case for a shared palette.
    let rows = 64;
    let cols = 64;
    let mut data = Vec::new();
    for r in 0..rows {
        let scale = if r % 8 < 4 { 0.08 } else { 0.005 };
        for c in 0..cols {
            data.push(scale * ((r * cols + c) as f32 * 0.377).sin());
        }
    }
    let w = Tensor::from_vec(data.clone(), &[rows, cols], DType::F32, Device::Cpu);
    let dkm = DkmLayer::new(DkmConfig::with_bits(3));
    println!("  rows/LUT   LUTs   mean |w - pal(w)|    size(KB)");
    for group in [0usize, 32, 8, 4] {
        let g = dkm.palettize_grouped(&w, group);
        let dec = g.decode().to_vec();
        let mean_err: f32 = data
            .iter()
            .zip(&dec)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / data.len() as f32;
        println!(
            "  {:>8}   {:>4}   {:>17.6}    {:>7.2}",
            if group == 0 { rows } else { group },
            g.groups().len(),
            mean_err,
            g.size_bytes() as f64 / 1024.0
        );
    }
    println!("\n  (smaller groups localize the codebook at ~16 B per extra LUT —\n   the palettization analogue of GPTQ's g128)\n");
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unexpected argument {arg:?}\nusage: figures");
        std::process::exit(2);
    }
    fig1();
    fig2();
    fig3();
    sweep_hops();
    sweep_learners();
    sweep_bits();
    sweep_init();
    sweep_vector();
    sweep_entropy();
    sweep_groups();
}
