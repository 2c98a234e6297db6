//! # edkm-bench
//!
//! Reproduction harness for every table and figure of the eDKM paper. Each
//! table or figure has one front end, a binary in `src/bin/` that
//! regenerates it end to end:
//!
//! * `table1` — GPU/CPU footprint of the Table 1 move sequence, with and
//!   without marshaling.
//! * `table2` — the M/U/S ablation (memory, reduction factor, simulated
//!   runtime) on one DKM-clustered attention layer; exits 1 if the paper's
//!   memory ordering fails.
//! * `table3` — accuracy of FP16 / RTN / GPTQ / AWQ / LLM-QAT / eDKM
//!   compressed models on the Syn-benchmark suite, plus model sizes.
//! * `figures` — the worked examples of Figs. 1–3 (attention-map geometry,
//!   marshaling walk, uniquification decomposition) and the extension
//!   sweeps (hop limit, learner count, bit width).

/// Format a byte count in MB with two decimals.
pub fn mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mb_formats() {
        assert_eq!(mb(1024 * 1024), "1.00");
        assert_eq!(mb(1536 * 1024), "1.50");
    }
}
