//! Run the Table 2 ablation (M / U / S) interactively at a chosen scale and
//! print memory, traffic, and simulated-runtime breakdowns.
//!
//! Run with `cargo run --release --example ablation_study [d_model]`.

use edkm::core::{render_table2, run_table2, AblationSetup};

fn main() {
    let d_model: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(256);
    let setup = AblationSetup {
        d_model,
        ..AblationSetup::default()
    };
    println!(
        "ablating one attention layer: d_model={}, 4 projections x {} weights, 3-bit DKM\n",
        setup.d_model,
        setup.d_model * setup.d_model
    );
    let rows = run_table2(&setup, 8);
    println!("{}", render_table2(&rows));

    println!("traffic and hook behaviour per configuration:");
    for r in &rows {
        println!(
            "  {:<6} d2h {:>10} B   h2d {:>10} B   saves {:>3} ({} deduplicated)",
            r.label,
            r.d2h_bytes,
            r.h2d_bytes,
            r.stats.packs,
            r.stats.direct_hits + r.stats.walk_hits,
        );
    }
    let base = &rows[0];
    let full = rows.last().expect("five rows");
    println!(
        "\ncombined effect: {:.2} MB -> {:.2} MB ({:.1}x) with {:+.1}% simulated runtime",
        base.memory_mb(),
        full.memory_mb(),
        base.peak_cpu_bytes as f64 / full.peak_cpu_bytes.max(1) as f64,
        100.0 * (full.sim_seconds - base.sim_seconds) / base.sim_seconds.max(1e-12),
    );
    println!("(paper at LLaMA-7B scale: 1600 MB -> 12 MB, 129.9x, with a 1.7x slowdown)");
}
