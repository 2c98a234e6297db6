//! Reproduce Table 2 of the eDKM paper: the M/U/S ablation on one
//! DKM-clustered attention layer (memory footprint, reduction factor,
//! simulated runtime).
//!
//! Exits 1 when the paper's memory ordering (base > M > M+U, M > M+S,
//! M+U > M+U+S) fails in either runtime regime, and 2 on an unparsable or
//! extra argument.
//!
//! Run with `cargo run --release -p edkm-bench --bin table2 [d_model]`.

use edkm_core::{check_table2_ordering, render_table2, run_table2, AblationSetup};
use std::process::ExitCode;

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\nusage: table2 [d_model]   (a positive multiple of 16; default 512)");
    std::process::exit(2);
}

/// `d_model` from the command line: 8 heads of an even head dimension.
fn parse_args() -> usize {
    let mut args = std::env::args().skip(1);
    let d_model = args.next().map_or(512, |a| match a.parse::<usize>() {
        Ok(d) if d > 0 && d.is_multiple_of(16) => d,
        _ => usage_error(&format!("bad d_model {a:?}")),
    });
    if let Some(extra) = args.next() {
        usage_error(&format!("unexpected argument {extra:?}"));
    }
    d_model
}

fn main() -> ExitCode {
    let setup = AblationSetup {
        d_model: parse_args(),
        ..AblationSetup::default()
    };
    println!("== Table 2: ablation of eDKM memory optimizations ==");
    println!(
        "one attention layer, d_model={} (4 projections of {} weights), 3-bit DKM, 8 learners\n",
        setup.d_model,
        setup.d_model * setup.d_model
    );
    let t0 = std::time::Instant::now();
    let rows = run_table2(&setup, 8);
    println!("{}", render_table2(&rows));
    println!("(paper, LLaMA-7B scale: 1600 -> 544 -> 68 / 97 -> 12 MB, i.e. 2.9x / 23.5x / 16.4x / 129.9x)");

    // The paper's training loop hides PCIe copies behind GPU compute, so
    // its runtime column is driven by the *optimization overheads* (walk,
    // hash, all-gather). Rerun the clock under that regime.
    let overlap_setup = AblationSetup {
        overlap_pcie: true,
        ..setup
    };
    let overlap_rows = run_table2(&overlap_setup, 8);
    println!("\nruntime with PCIe overlapped behind compute (paper regime):");
    for r in &overlap_rows {
        println!("  {:<6} {:>12.6} sim s", r.label, r.sim_seconds);
    }
    println!("(paper runtimes: 8.67 / 8.97 / 9.5 / 15.9 / 14.9 s — base ≲ M < M+U < M+U+S ≤ M+S)");
    for r in &rows {
        println!(
            "  [{}] packs={} direct={} walk={} misses={} d2h={}MB h2d={}MB",
            r.label,
            r.stats.packs,
            r.stats.direct_hits,
            r.stats.walk_hits,
            r.stats.misses,
            edkm_bench::mb(r.d2h_bytes),
            edkm_bench::mb(r.h2d_bytes),
        );
    }
    eprintln!("\n(wall time: {:.1}s)", t0.elapsed().as_secs_f64());

    let mut code = ExitCode::SUCCESS;
    for (regime, rows) in [
        ("PCIe serialized", &rows),
        ("PCIe overlapped", &overlap_rows),
    ] {
        if let Err(why) = check_table2_ordering(rows) {
            eprintln!("Table 2 memory ordering violated ({regime}): {why}");
            code = ExitCode::FAILURE;
        }
    }
    code
}
