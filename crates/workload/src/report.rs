//! Small aggregation helpers shared by the replay drivers, the bench
//! bins and the CLI.

/// Nearest-rank percentile over an ascending `f64` slice (`p` in
/// `[0, 1]`; 0.0 on an empty slice).
pub(crate) fn percentile_f64(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Nearest-rank percentile over an ascending `u64` slice (`p` in
/// `[0, 1]`; 0 on an empty slice).
pub(crate) fn percentile_u64(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_cover_edges() {
        assert_eq!(percentile_f64(&[], 0.5), 0.0);
        assert_eq!(percentile_u64(&[], 0.99), 0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_f64(&v, 0.0), 1.0);
        assert_eq!(percentile_f64(&v, 1.0), 4.0);
        let u = [10u64, 20, 30];
        assert_eq!(percentile_u64(&u, 0.5), 20);
        assert_eq!(percentile_u64(&u, 1.0), 30);
    }
}
