//! Benchmark of the eDKM reproduction, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compress|fleet> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Each run generates its inputs from `--seed`, measures one workload for
//! `--seconds`, checks the outputs against references computed outside
//! the measured time, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod compress;
mod pace;
mod report;
mod serve;
mod spans;
mod stats;

use report::{result_json, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over the little-endian bytes of `v`.
pub fn fnv1a_step(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a stream of words — the fingerprint of generated inputs.
pub fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(FNV_OFFSET, fnv1a_step)
}

/// The synthetic language compress trains on and perplexity is measured
/// on; `--seed` picks examples of it, never the language itself.
pub fn grammar() -> edkm_data::Grammar {
    edkm_data::Grammar::default_with_seed(0)
}

/// The held-out set perplexity is reported on: 64 SynAlpaca examples of 12
/// predicted tokens, the same for every seed, so `ppl` moves only when the
/// model does.
pub fn held_out() -> Vec<Vec<usize>> {
    edkm_data::AlpacaSet::generate(&grammar(), 64, 12, 0x4e1d)
        .examples()
        .to_vec()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Compress,
    Fleet,
}

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: edkm-perfbench --workload <compress|fleet> \
                     [--seed N] [--seconds N>=1] [--trace 0|1]";

/// Strict parsing: every flag takes a value, appears at most once and must
/// parse; anything else is an error, never a silent default.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let slot_taken = |taken: bool| {
            if taken {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                workload = Some(match value {
                    "compress" => Workload::Compress,
                    "fleet" => Workload::Fleet,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                );
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                slot_taken(trace.is_some())?;
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Run `setup` once, pushing its duration in reference seconds (see
/// [`pace`]) onto `samples`.
///
/// Workloads time one set-up before the measured pass and more between
/// its cycles or requests, outside the measured time, so `setup_s`, their
/// median, samples the machine across the whole run and not in one burst.
pub fn timed_setup<T>(
    samples: &mut Vec<f64>,
    setup: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let (built, _, reference_s) = pace::timed(setup);
    samples.push(reference_s);
    built
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn rss_peak_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM {line:?}: {e}"))?;
    Ok(kib * 1024.0)
}

/// Reset this process's `VmHWM` to its current resident set, so that
/// [`rss_peak_bytes`] reports the peak of the work that follows.
pub fn reset_rss_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset VmHWM through /proc/self/clear_refs: {e}"))
}

fn run(args: &Args) -> Result<String, String> {
    let (backend, lanes) = edkm_core::infer::launch::active();
    println!(
        "workload {:?} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    println!(
        "kernel backend {backend} ({lanes} lanes), cpu features [{}], {} threads available",
        edkm_core::infer::launch::cpu_features(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "reference loop {:?} now, {:?} nominal",
        pace::probe(),
        pace::NOMINAL
    );
    let outcome = match args.workload {
        Workload::Compress => compress::run(args.seed, args.seconds, args.trace)?,
        Workload::Fleet => serve::run(args.seed, args.seconds, args.trace)?,
    };
    for why in &outcome.failures {
        println!("FAILED: {why}");
    }
    result_json(&outcome, if args.trace { PER_LAYER } else { END_TO_END })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cli_accepts_the_driver_invocation() {
        let a = parse(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        let d = parse(&["--workload", "compress"]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, 10, false));
    }

    #[test]
    fn cli_rejects_anything_it_does_not_understand() {
        for bad in [
            &["--workload", "fleet", "--verbose", "1"][..],
            &["--workload", "chat"],
            &["--workload", "decode"],
            &["--workload", "fleet", "--seed", "-3"],
            &["--workload", "fleet", "--seed", "x"],
            &["--workload", "fleet", "--seconds", "0"],
            &["--workload", "fleet", "--trace", "yes"],
            &["--workload", "fleet", "--seed"],
            &["--workload", "fleet", "--workload", "compress"],
            &["--seed", "1"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn fingerprint_is_fnv1a_over_le_words() {
        assert_eq!(fnv1a(std::iter::empty()), FNV_OFFSET);
        assert_ne!(fnv1a([1u64].into_iter()), fnv1a([2u64].into_iter()));
        assert_eq!(
            fnv1a([5u64, 6].into_iter()),
            fnv1a_step(fnv1a_step(FNV_OFFSET, 5), 6)
        );
    }
}
