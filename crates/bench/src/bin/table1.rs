//! Reproduce Table 1 of the eDKM paper: per-line GPU/CPU memory footprint
//! of a tensor moving across devices, without and with marshaling.
//!
//! Run with `cargo run -p edkm-bench --bin table1`. It takes no argument,
//! and exits 2 on one.

use edkm_autograd::SavedTensorHooks;
use edkm_core::{EdkmConfig, EdkmHooks};
use edkm_tensor::{runtime, DType, Device, Tensor};

fn mb(b: usize) -> usize {
    b / (1024 * 1024)
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unexpected argument {arg:?}\nusage: table1");
        std::process::exit(2);
    }
    println!("== Table 1: cross-device copies duplicate storage ==\n");
    println!("line  code                                GPU(MB)  CPU(MB)");

    // --- As-is (stock PyTorch behaviour; the paper's Table 1). ---
    runtime::reset();
    let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 42);
    println!(
        "0     x0 = rand([1024,1024]) on gpu      {:>7}  {:>7}",
        mb(runtime::gpu_live_bytes()),
        mb(runtime::cpu_live_bytes())
    );
    let x1 = x0.reshape(&[1024 * 1024, 1]);
    println!(
        "1     x1 = x0.view(-1, 1)                {:>7}  {:>7}",
        mb(runtime::gpu_live_bytes()),
        mb(runtime::cpu_live_bytes())
    );
    let _y0 = x0.to_device(Device::Cpu);
    println!(
        "2     y0 = x0.to(cpu)                    {:>7}  {:>7}",
        mb(runtime::gpu_live_bytes()),
        mb(runtime::cpu_live_bytes())
    );
    let _y1 = x1.to_device(Device::Cpu);
    println!(
        "3     y1 = x1.to(cpu)                    {:>7}  {:>7}   <- duplicate storage",
        mb(runtime::gpu_live_bytes()),
        mb(runtime::cpu_live_bytes())
    );
    println!("(paper: 4 / 4 / 8 MB on CPU after lines 2-3)\n");

    // --- With the eDKM marshaling layer (Fig. 2 (b)). ---
    println!("with marshaling (offload through EdkmHooks, M only):");
    runtime::reset();
    let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 42);
    let x1 = x0.reshape(&[1024 * 1024, 1]);
    let hooks = EdkmHooks::new(EdkmConfig::marshal_only());
    let _p0 = hooks.pack(&x0);
    println!(
        "2'    pack(x0) -> offloaded              {:>7}  {:>7}",
        mb(runtime::gpu_live_bytes()),
        mb(runtime::cpu_live_bytes())
    );
    let _p1 = hooks.pack(&x1);
    println!(
        "3'    pack(x1) -> reference + view op    {:>7}  {:>7}   <- no duplicate",
        mb(runtime::gpu_live_bytes()),
        mb(runtime::cpu_live_bytes())
    );
    let s = hooks.stats();
    println!(
        "\nhook stats: packs={} misses={} direct_hits={} (dedup rate {:.0}%)",
        s.packs,
        s.misses,
        s.direct_hits,
        100.0 * s.dedup_rate()
    );
    let t = runtime::transfer_snapshot();
    println!(
        "PCIe traffic: d2h {} MB in {} transaction(s)",
        mb(t.d2h_bytes),
        t.d2h_txns
    );
}
