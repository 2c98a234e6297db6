//! Table 2 reproduction harness: memory/runtime ablation of M, U and S.
//!
//! The paper measures the train-time memory footprint and forward+backward
//! runtime of **one attention layer** of the LLaMA-7B decoder stack under
//! 3-bit DKM clustering, toggling marshaling (M), uniquification (U) and
//! sharding (S). This module reruns exactly that experiment on the
//! simulated substrate: real byte accounting, modeled seconds.

use crate::dkm::{DkmConfig, DkmLayer};
use crate::hooks::{EdkmConfig, EdkmHooks, HookStatsSnapshot};
use crate::uniquify;
use edkm_autograd::{push_hooks, SavedTensorHooks, Var};
use edkm_nn::CausalSelfAttention;
use edkm_tensor::{runtime, DType, Device, Tensor};
use std::sync::Arc;

/// Geometry of the measured attention layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationSetup {
    /// Residual width (paper: 4096; simulation default: 256).
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Sequence length of the probe batch.
    pub seq: usize,
    /// Probe batch size.
    pub batch: usize,
    /// Palette bits (paper: 3).
    pub bits: u8,
    /// DKM clustering dimensionality (paper: 1 = scalar; >1 exercises the
    /// vector extension, where uniquification must fall back to dense
    /// offloads on high-entropy block keys).
    pub cluster_dim: usize,
    /// DKM iterations during the probe.
    pub dkm_iters: usize,
    /// Model PCIe copies as overlapped with compute (the paper's runtime
    /// regime — see [`edkm_tensor::CostModel::overlap_pcie`]).
    pub overlap_pcie: bool,
}

impl Default for AblationSetup {
    fn default() -> Self {
        AblationSetup {
            d_model: 256,
            n_heads: 8,
            seq: 16,
            batch: 1,
            bits: 3,
            cluster_dim: 1,
            dkm_iters: 3,
            overlap_pcie: false,
        }
    }
}

impl AblationSetup {
    /// A tiny setup for unit tests.
    pub fn tiny() -> Self {
        AblationSetup {
            d_model: 32,
            n_heads: 2,
            seq: 4,
            batch: 1,
            bits: 3,
            cluster_dim: 1,
            dkm_iters: 2,
            overlap_pcie: false,
        }
    }
}

/// One measured row of Table 2.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Config label ("—", "M", "M+U", "M+S", "M+U+S").
    pub label: String,
    /// Whether M/U/S were active.
    pub config: EdkmConfig,
    /// Peak CPU bytes of offloaded saved tensors (per learner).
    pub peak_cpu_bytes: usize,
    /// Simulated forward+backward seconds.
    pub sim_seconds: f64,
    /// GPU→CPU traffic in bytes.
    pub d2h_bytes: usize,
    /// CPU→GPU traffic in bytes.
    pub h2d_bytes: usize,
    /// Hook counters.
    pub stats: HookStatsSnapshot,
}

impl AblationRow {
    /// Memory in MB (the paper's unit).
    pub fn memory_mb(&self) -> f64 {
        self.peak_cpu_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Run one fwd+bwd of a DKM-clustered attention layer under `config` and
/// measure CPU peak / simulated time / traffic.
pub fn run_one(setup: &AblationSetup, config: EdkmConfig) -> AblationRow {
    runtime::reset();
    if setup.overlap_pcie {
        runtime::set_cost_model(edkm_tensor::CostModel {
            overlap_pcie: true,
            ..edkm_tensor::CostModel::default()
        });
    }
    let device = Device::gpu();

    // Weights in bf16 (the paper trains in brainfloat16) so uniquification
    // sees ≤ 2^16 patterns.
    let attn = CausalSelfAttention::new(
        "ablation.attn",
        setup.d_model,
        setup.n_heads,
        10000.0,
        DType::Bf16,
        device,
        7,
    );
    let x = Var::constant(Tensor::randn(
        &[setup.batch * setup.seq, setup.d_model],
        DType::F32,
        device,
        11,
    ));

    let mut dkm_cfg = DkmConfig::with_vector(setup.bits, setup.cluster_dim.max(1));
    dkm_cfg.iters = setup.dkm_iters;
    let dkm = DkmLayer::new(dkm_cfg);

    uniquify::clear_annotations();
    let hooks = Arc::new(EdkmHooks::new(config));
    let stats_handle = Arc::clone(&hooks);

    // Scope the measurement to the forward+backward pass.
    runtime::reset_peak(Device::Cpu);
    runtime::clock().reset();
    runtime::ledger().reset();

    {
        let _guard = push_hooks(hooks as Arc<dyn SavedTensorHooks>);
        let hook = |_name: &str, w: &Var| -> Var { dkm.cluster(w).soft };
        let y = attn.forward(&x, setup.batch, setup.seq, Some(&hook));
        let loss = y.square().mean_all();
        loss.backward();

        let row = AblationRow {
            label: config.label(),
            config,
            peak_cpu_bytes: runtime::peak_bytes(Device::Cpu),
            sim_seconds: runtime::sim_seconds(),
            d2h_bytes: runtime::transfer_snapshot().d2h_bytes,
            h2d_bytes: runtime::transfer_snapshot().h2d_bytes,
            stats: stats_handle.stats(),
        };
        uniquify::clear_annotations();
        row
    }
}

/// Run the five Table 2 rows: baseline, M, M+U, M+S, M+U+S.
pub fn run_table2(setup: &AblationSetup, learners: usize) -> Vec<AblationRow> {
    let mk = |mut c: EdkmConfig| {
        c.learners = learners;
        c
    };
    vec![
        run_one(setup, mk(EdkmConfig::baseline())),
        run_one(setup, mk(EdkmConfig::marshal_only())),
        run_one(setup, mk(EdkmConfig::marshal_uniquify())),
        run_one(setup, mk(EdkmConfig::marshal_shard())),
        run_one(setup, mk(EdkmConfig::full(learners))),
    ]
}

/// Check the paper's memory ordering on the five rows [`run_table2`]
/// returns (base, M, M+U, M+S, M+U+S): base > M > M+U, M > M+S and
/// M+U > M+U+S.
///
/// # Errors
///
/// Names the first relation that fails, with every row's peak bytes.
pub fn check_table2_ordering(rows: &[AblationRow]) -> Result<(), String> {
    let mem: Vec<usize> = rows.iter().map(|r| r.peak_cpu_bytes).collect();
    let [base, m, mu, ms, mus] = mem[..] else {
        return Err(format!("expected the 5 Table 2 rows, got {}", rows.len()));
    };
    for (holds, relation) in [
        (base > m, "base > M"),
        (m > mu, "M > M+U"),
        (m > ms, "M > M+S"),
        (mu > mus, "M+U > M+U+S"),
    ] {
        if !holds {
            return Err(format!(
                "{relation} fails: base {base}, M {m}, M+U {mu}, M+S {ms}, M+U+S {mus} bytes"
            ));
        }
    }
    Ok(())
}

/// Render rows in the paper's Table 2 format (memory, reduction, runtime).
pub fn render_table2(rows: &[AblationRow]) -> String {
    let base = rows.first().map(|r| r.peak_cpu_bytes).unwrap_or(0) as f64;
    let mut out = String::new();
    out.push_str("| M | U | S | Memory (MB) | Reduction (x) | Runtime (sim s) |\n");
    out.push_str("|---|---|---|-------------|---------------|------------------|\n");
    for r in rows {
        let tick = |b: bool| if b { "✓" } else { " " };
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.1} | {:.3} |\n",
            tick(r.config.marshal),
            tick(r.config.uniquify),
            tick(r.config.shard),
            r.memory_mb(),
            base / r.peak_cpu_bytes.max(1) as f64,
            r.sim_seconds,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_have_expected_labels() {
        let rows = run_table2(&AblationSetup::tiny(), 4);
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["—", "M", "M+U", "M+S", "M+U+S"]);
    }

    #[test]
    fn marshaling_reduces_memory() {
        let setup = AblationSetup::tiny();
        let base = run_one(&setup, EdkmConfig::baseline());
        let m = run_one(&setup, EdkmConfig::marshal_only());
        assert!(base.peak_cpu_bytes > 0);
        assert!(
            m.peak_cpu_bytes < base.peak_cpu_bytes,
            "M must reduce memory: {} vs {}",
            m.peak_cpu_bytes,
            base.peak_cpu_bytes
        );
        assert!(m.stats.direct_hits + m.stats.walk_hits > 0);
        // Marshaling also reduces offload traffic.
        assert!(m.d2h_bytes < base.d2h_bytes);
    }

    #[test]
    fn full_edkm_orders_like_paper() {
        // Memory must shrink with each added technique. Whether M+U+S beats
        // M+S depends on scale — the replicated attention table is
        // O(u·|C|), negligible against the O(|W|) index list only when
        // |W| ≫ u (true at LLaMA scale and at the `table2` bin's sizes, not
        // at this unit-test scale), so neither this test nor the bin checks
        // that pair. The `table2` bin exits 1 when this ordering fails.
        let setup = AblationSetup {
            d_model: 64,
            n_heads: 4,
            seq: 8,
            dkm_iters: 2,
            ..AblationSetup::default()
        };
        let rows = run_table2(&setup, 8);
        check_table2_ordering(&rows).unwrap();
        // Total reduction is large (paper: ~130x at LLaMA-7B scale).
        let reduction = rows[0].peak_cpu_bytes as f64 / rows[4].peak_cpu_bytes as f64;
        assert!(
            reduction > 5.0,
            "combined reduction too small: {reduction:.1}x"
        );
    }

    #[test]
    fn ordering_check_names_the_failed_relation() {
        let mut rows = run_table2(&AblationSetup::tiny(), 4);
        rows[2].peak_cpu_bytes = rows[1].peak_cpu_bytes;
        let why = check_table2_ordering(&rows).unwrap_err();
        assert!(why.starts_with("M > M+U fails"), "{why}");
        assert!(check_table2_ordering(&rows[..4]).is_err());
    }

    #[test]
    fn uniquification_gain_is_scalar_specific() {
        // The paper's U trick rests on the 2^16 pattern bound, which block
        // keys (vector clustering) break: random bf16 blocks are nearly
        // all-unique, so the wide path's adaptive fallback stores densely
        // and U buys (almost) nothing — while never costing anything.
        let scalar = AblationSetup::tiny();
        let vector = AblationSetup {
            cluster_dim: 2,
            ..AblationSetup::tiny()
        };
        let s_m = run_one(&scalar, EdkmConfig::marshal_only());
        let s_mu = run_one(&scalar, EdkmConfig::marshal_uniquify());
        let v_m = run_one(&vector, EdkmConfig::marshal_only());
        let v_mu = run_one(&vector, EdkmConfig::marshal_uniquify());
        assert!(
            s_mu.peak_cpu_bytes < s_m.peak_cpu_bytes,
            "scalar U must compress: {} vs {}",
            s_mu.peak_cpu_bytes,
            s_m.peak_cpu_bytes
        );
        assert!(
            v_mu.peak_cpu_bytes <= v_m.peak_cpu_bytes,
            "the fallback must never make U worse than M alone"
        );
        let scalar_gain = s_m.peak_cpu_bytes as f64 / s_mu.peak_cpu_bytes as f64;
        let vector_gain = v_m.peak_cpu_bytes as f64 / v_mu.peak_cpu_bytes as f64;
        assert!(
            scalar_gain > vector_gain,
            "U's gain must shrink on block keys: scalar {scalar_gain:.2}x vs vector {vector_gain:.2}x"
        );
    }

    #[test]
    fn sharding_adds_runtime_overhead() {
        let setup = AblationSetup::tiny();
        let m = run_one(&setup, EdkmConfig::marshal_only());
        let ms = run_one(
            &setup,
            EdkmConfig {
                min_shard_elems: 1, // force sharding even at tiny scale
                ..EdkmConfig::marshal_shard()
            },
        );
        assert!(
            ms.sim_seconds > m.sim_seconds,
            "all-gather must cost simulated time: {} vs {}",
            ms.sim_seconds,
            m.sim_seconds
        );

        // Under full eDKM each added learner holds a smaller shard of every
        // index list, and the all-gathers that reassemble them cost more.
        let sweep: Vec<AblationRow> = [1, 2, 4, 8, 16]
            .into_iter()
            .map(|learners| {
                let config = EdkmConfig {
                    min_shard_elems: 1,
                    ..EdkmConfig::full(learners)
                };
                run_one(&setup, config)
            })
            .collect();
        for pair in sweep.windows(2) {
            let (fewer, more) = (&pair[0], &pair[1]);
            let (l0, l1) = (fewer.config.learners, more.config.learners);
            assert!(
                more.peak_cpu_bytes < fewer.peak_cpu_bytes,
                "per-learner peak must fall from |L| {l0} to {l1}: {} vs {} bytes",
                more.peak_cpu_bytes,
                fewer.peak_cpu_bytes
            );
            assert!(
                more.sim_seconds > fewer.sim_seconds,
                "sim time must rise from |L| {l0} to {l1}: {} vs {} s",
                more.sim_seconds,
                fewer.sim_seconds
            );
        }
    }

    #[test]
    fn render_table_contains_all_rows() {
        let rows = run_table2(&AblationSetup::tiny(), 2);
        let s = render_table2(&rows);
        assert_eq!(s.lines().count(), 2 + 5);
        assert!(s.contains("Reduction"));
    }
}
