//! The metrics the benchmark emits, and the one-line JSON result.
//!
//! Every run prints every metric of its kind — all [`END_TO_END`] metrics
//! untraced, all [`PER_LAYER`] metrics traced — whatever the workload, so
//! a run can be compared against any other run of the same workload. A
//! per-layer metric of a layer the workload never calls reads 0: the
//! layer did no work there. End-to-end metrics are set explicitly by each
//! workload; a missing one is a bug and fails the run.

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`, at most 64 characters.
    pub name: &'static str,
    /// Unit, e.g. `ms`, `bytes`, `tok/s`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("tok_s", "tok/s"),
    m("ttft_p50_ms", "ms"),
    m("itl_p50_ms", "ms"),
    m("step_p50_ms", "ms"),
    m("peak_cpu_bytes", "bytes"),
    m("model_bytes", "bytes"),
    m("ppl", "ppl"),
    m("rss_peak_bytes", "bytes"),
];

/// Metrics of single layers, measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Compress path: self times around each layer's public calls.
    m("dkm.cluster_ms", "ms"),
    m("hooks.pack_ms", "ms"),
    m("hooks.unpack_ms", "ms"),
    m("nn.forward_ms", "ms"),
    m("autograd.backward_ms", "ms"),
    m("nn.optim_ms", "ms"),
    m("pipeline.export_ms", "ms"),
    m("pipeline.serialize_ms", "ms"),
    m("compress.other_ms", "ms"),
    // Compress path: counts of the memory-saving layers.
    m("hooks.dedup_rate", "ratio"),
    m("hooks.unpack_cache_rate", "ratio"),
    m("hooks.offloaded_bytes", "bytes"),
    m("tensor.d2h_bytes", "bytes"),
    m("tensor.h2d_bytes", "bytes"),
    m("tensor.sim_s", "s"),
    m("hooks.table2.peak_cpu_bytes.base", "bytes"),
    m("hooks.table2.peak_cpu_bytes.m", "bytes"),
    m("hooks.table2.peak_cpu_bytes.mu", "bytes"),
    m("hooks.table2.peak_cpu_bytes.ms", "bytes"),
    m("hooks.table2.peak_cpu_bytes.mus", "bytes"),
    // Serve path: the model's forward passes, timed by a delegating model.
    m("infer.decode_step_ms", "ms"),
    m("infer.rows_per_step", "count"),
    m("infer.prefill_step_ms", "ms"),
    m("infer.prefill_tokens", "count"),
    m("infer.forward_ms", "ms"),
    m("infer.busy_frac", "ratio"),
    m("engine.other_ms", "ms"),
    m("engine.submit_us", "us"),
    // Serve path: scheduler, KV cache and router counters.
    m("serve.decode_steps", "count"),
    m("serve.preemptions", "count"),
    m("serve.spec_proposed", "count"),
    m("kv.prefix_hit_rate", "ratio"),
    m("kv.prefix_tokens_reused", "count"),
    m("kv.peak_bytes", "bytes"),
    m("kv.pool_peak_bytes", "bytes"),
    m("router.affinity_hit_rate", "ratio"),
    m("router.spills", "count"),
    m("router.hedges", "count"),
    m("cluster.resident_peak_bytes", "bytes"),
    // Serve path: the largest projection's LUT-GEMM alone.
    m("kernel.decode_gemm_us", "us"),
    m("kernel.decode_gemm_flop", "flop"),
    m("kernel.decode_gemm_bytes", "bytes"),
    m("kernel.prefill_gemm_us", "us"),
    m("kernel.prefill_gemm_flop", "flop"),
    m("kernel.prefill_gemm_bytes", "bytes"),
    // The traced run itself.
    m("trace.wall_ms", "ms"),
    m("trace.tok_s", "tok/s"),
    m("trace.untraced_tok_s", "tok/s"),
    m("trace.overhead_frac", "ratio"),
];

/// Whether `name` is a well-formed metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Values of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `value` for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared metric — a typo in the
    /// benchmark, caught the first time the line runs.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// What one run of a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, training steps, round trips).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
    /// The measured values.
    pub metrics: Metrics,
}

impl Outcome {
    /// Count one failed operation and remember why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric in
/// `defs`. Per-layer metrics a workload did not set read 0.
///
/// # Errors
///
/// Names the first end-to-end metric that was not set, or any value that
/// is not a finite number.
pub fn result_json(outcome: &Outcome, defs: &[MetricDef]) -> Result<String, String> {
    let traced = defs == PER_LAYER;
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        if !valid_name(d.name) {
            return Err(format!("malformed metric name {:?}", d.name));
        }
        let value = match outcome.metrics.get(d.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("metric {} was not measured", d.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} of {}",
                d.unit,
                d.name
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name(""));
    }

    /// The `name`s listed under `key` in BENCHMARK.json.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &json[start..];
        let body = &rest[..rest.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|chunk| {
                let open = chunk.find('"').expect("name value") + 1;
                let len = chunk[open..].find('"').expect("name closes");
                chunk[open..open + len].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let names = |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect();
        let e2e: Vec<String> = names(END_TO_END);
        let layer: Vec<String> = names(PER_LAYER);
        assert_eq!(declared(&json, "end_to_end"), e2e);
        assert_eq!(declared(&json, "per_layer"), layer);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json.find(&format!("\"{key}\"")).expect("key present");
            for d in defs {
                let entry = &json[start..];
                let at = entry
                    .find(&format!("\"name\": \"{}\"", d.name))
                    .expect("declared");
                let line_end = entry[at..].find('}').expect("entry closes");
                assert!(
                    entry[at..at + line_end].contains(&format!("\"unit\": \"{}\"", d.unit)),
                    "{} declares another unit than {}",
                    d.name,
                    d.unit
                );
            }
        }
    }

    #[test]
    fn result_line_lists_every_metric_and_rejects_gaps() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for d in END_TO_END {
            outcome.metrics.set(d.name, 1.25);
        }
        let line = result_json(&outcome, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"ttft_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));

        let traced = result_json(&outcome, PER_LAYER).unwrap();
        assert!(traced.contains("\"router.spills\": {\"value\": 0, \"unit\": \"count\"}"));

        let mut gap = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        gap.metrics.set("tok_s", f64::NAN);
        assert!(result_json(&gap, END_TO_END).is_err());
        gap.fail("mismatch".into());
        assert_eq!(gap.failed, 1);
    }
}
