//! Host-speed calibration: timings in reference time.
//!
//! The benchmark shares a few cores of a host with other tenants, and the
//! speed of one thread there drifts by up to about 1.5x over seconds to
//! minutes. A plain wall-clock time then measures the neighbours as much as
//! the program. So every timed stretch of work is bracketed by a fixed
//! reference loop — the benchmark's own code, which no change to the
//! program can speed up or slow down — and its duration is rescaled to what
//! it would have been on a host where that loop takes exactly [`NOMINAL`]:
//!
//! ```text
//! reference time = wall time × NOMINAL / reference loop time
//! ```
//!
//! The reference loop time of a stretch is the mean of a probe taken just
//! before it and one taken just after, each the median of a few calls, so
//! the scale follows the host from stretch to stretch. Probes run outside
//! the measured time.

use std::time::{Duration, Instant};

/// Time of one reference-loop call on the host the benchmark was tuned on
/// in a quiet period; the unit every reported duration is expressed in.
pub const NOMINAL: Duration = Duration::from_micros(700);

/// Reference-loop calls per probe; the probe reports their median.
const CALLS: usize = 5;
/// `f32`s the loop streams over: 256 KiB, more than a core's L1 data
/// cache, within its L2.
const LEN: usize = 1 << 16;
const ROUNDS: usize = 15;

/// One call of the reference loop: multiply-adds in four independent
/// chains, with a data-dependent gather and a store per element — the mix
/// of arithmetic, cache reads and writes the program's kernels do.
fn reference_loop(buf: &mut [f32]) -> f32 {
    assert_eq!(buf.len(), LEN);
    let mut acc = [0.0f32; 4];
    let mut at = 1usize;
    for _ in 0..ROUNDS {
        for i in (0..LEN).step_by(4) {
            for (lane, a) in acc.iter_mut().enumerate() {
                let x = buf[i + lane];
                *a = *a * 0.999 + x * buf[at];
                buf[i + lane] = x * 0.5 + 0.25;
            }
            at = at.wrapping_mul(1_103_515_245).wrapping_add(12_345) % LEN;
        }
    }
    acc.iter().sum()
}

/// Median time of [`CALLS`] reference-loop calls, now.
pub fn probe() -> Duration {
    let mut buf: Vec<f32> = (0..LEN).map(|i| (i % 13) as f32 / 13.0).collect();
    let mut times = [Duration::ZERO; CALLS];
    for t in &mut times {
        let start = Instant::now();
        std::hint::black_box(reference_loop(std::hint::black_box(&mut buf)));
        *t = start.elapsed();
    }
    times.sort();
    times[CALLS / 2]
}

/// Factor that turns the wall time of a stretch probed at `before` and
/// `after` into reference time.
pub fn scale(before: Duration, after: Duration) -> f64 {
    2.0 * NOMINAL.as_secs_f64() / (before + after).as_secs_f64()
}

/// Run `work`, probed on both sides; returns its result, its wall time and
/// its reference time in seconds.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, Duration, f64) {
    let before = probe();
    let start = Instant::now();
    let out = work();
    let wall = start.elapsed();
    let reference = wall.as_secs_f64() * scale(before, probe());
    (out, wall, reference)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict this process to the first CPU it may run on and return that
/// CPU's number. Call it before the process starts any thread: a thread
/// inherits the restriction from the thread that spawns it.
///
/// The work and the probes then share one CPU, so the probes see the
/// contention the work sees, and `available_parallelism` reads 1, so
/// parallel kernels run inline instead of spawning threads per call.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_mean_probe() {
        assert_eq!(scale(NOMINAL, NOMINAL), 1.0);
        assert_eq!(scale(NOMINAL * 2, NOMINAL * 2), 0.5);
        assert_eq!(scale(NOMINAL / 2, NOMINAL * 3 / 2), 1.0);
    }

    #[test]
    fn reference_loop_is_deterministic() {
        let run = || reference_loop(&mut vec![0.25f32; LEN]).to_bits();
        assert_eq!(run(), run());
        assert!(probe() > Duration::ZERO);
    }
}
