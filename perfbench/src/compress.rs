//! The `compress` workload: the paper's train-time path.
//!
//! A seeded LLaMA-style decoder lives on the simulated GPU and is
//! fine-tuned on SynAlpaca batches with every projection soft-clustered by
//! DKM (3 bits) under the full eDKM saved-tensor hooks (marshaling,
//! uniquification, sharding over 8 learners), then exported with
//! `CompressionPipeline::export` and serialized. One such fine-tune,
//! export and serialization is a cycle; a run repeats cycles from the same
//! base weights until `--seconds` of work are measured.
//!
//! The loop is `CompressionPipeline::fine_tune_and_compress`'s, replayed
//! here so that each step can be timed and, in the traced pass, each layer
//! can be timed around its public calls.

use crate::pace;
use crate::report::Outcome;
use crate::spans::{self, Layer};
use crate::stats;
use edkm_autograd::{push_hooks, PackedTensor, SavedTensorHooks, Var};
use edkm_core::ablation::{run_table2, AblationSetup};
use edkm_core::{
    uniquify, CompressSpec, CompressedModel, CompressionPipeline, DkmLayer, EdkmHooks,
    HookStatsSnapshot,
};
use edkm_data::AlpacaSet;
use edkm_eval::perplexity;
use edkm_nn::{clip_grad_norm, AdamW, LlamaConfig, LlamaModel, LmBatch};
use edkm_tensor::{runtime, DType, Device, Tensor};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fine-tuned decoder: small enough that a run of a few seconds holds
/// hundreds of steps and a dozen cycles.
const CONFIG: LlamaConfig = LlamaConfig {
    vocab: 64,
    d_model: 32,
    n_heads: 4,
    n_layers: 2,
    d_ff: 64,
    max_seq: 33,
};
const MODEL_SEED: u64 = 0;
const BATCH: usize = 4;
const SEQ_LEN: usize = 12;
const STEPS_PER_CYCLE: usize = 16;
const DKM_ITERS: usize = 4;
const LEARNERS: usize = 8;
/// A pass runs cycles past its budget until this many steps (13 cycles)
/// were taken, so a slow machine still yields a median over cycles.
const MIN_STEPS: usize = 208;

fn spec() -> CompressSpec {
    let mut spec = CompressSpec::with_bits(3);
    spec.dkm.iters = DKM_ITERS;
    spec.edkm = edkm_core::EdkmConfig::full(LEARNERS);
    spec
}

/// Everything a run is set up from.
struct Inputs {
    base: LlamaModel,
    batches: Vec<LmBatch>,
}

impl Inputs {
    /// FNV-1a over every training token.
    fn fingerprint(&self) -> u64 {
        let seqs = self.batches.iter().flat_map(|b| &b.seqs);
        crate::fnv1a(seqs.flatten().map(|&t| t as u64))
    }
}

/// Build the base model and the seeded data, then run one throwaway
/// training step on a copy so lazy set-up (allocator, worker pool) is paid
/// here and not by the first measured step.
fn setup(seed: u64) -> Inputs {
    runtime::reset();
    let train = AlpacaSet::generate(&crate::grammar(), STEPS_PER_CYCLE * BATCH, SEQ_LEN, seed);
    let base = LlamaModel::new(CONFIG, DType::Bf16, Device::gpu(), MODEL_SEED);
    let batches: Vec<LmBatch> = train.batches(BATCH).into_iter().map(LmBatch::new).collect();
    let spec = spec();
    train_step(&mut Trainee::new(&base, &spec), &batches[0], &spec, false);
    Inputs { base, batches }
}

fn fresh_copy(base: &LlamaModel, device: Device) -> LlamaModel {
    let model = LlamaModel::new(CONFIG, base.dtype(), device, MODEL_SEED);
    model.copy_weights_from(base);
    model
}

/// Delegates to [`EdkmHooks`], timing each pack and unpack.
struct TracedHooks(Arc<EdkmHooks>);

impl SavedTensorHooks for TracedHooks {
    fn pack(&self, t: &Tensor) -> PackedTensor {
        spans::span(Layer::Pack, || self.0.pack(t))
    }
    fn unpack(&self, p: &PackedTensor) -> Tensor {
        spans::span(Layer::Unpack, || self.0.unpack(p))
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Latencies of one training step.
struct StepTimes {
    /// Step start → loss available (forward, clustering, packing).
    to_loss: Duration,
    /// Loss → weights updated (backward, unpacking, clip, AdamW).
    to_update: Duration,
}

/// A model being fine-tuned, with what every step needs from it.
struct Trainee {
    model: LlamaModel,
    params: Vec<Var>,
    clusterable: HashSet<String>,
    optim: AdamW,
}

impl Trainee {
    fn new(base: &LlamaModel, spec: &CompressSpec) -> Self {
        let model = fresh_copy(base, Device::gpu());
        Trainee {
            params: model.params(),
            clusterable: model.clusterable_names().into_iter().collect(),
            optim: AdamW::with_schedule(spec.train.optim, spec.train.schedule),
            model,
        }
    }
}

/// One step of `fine_tune_and_compress` (epoch 0): fresh hooks, DKM
/// clustering of every clusterable projection, backward, clip, AdamW.
fn train_step(
    t: &mut Trainee,
    batch: &LmBatch,
    spec: &CompressSpec,
    traced: bool,
) -> (f32, StepTimes, HookStatsSnapshot) {
    let start = Instant::now();
    uniquify::clear_annotations();
    let hooks = Arc::new(EdkmHooks::new(spec.edkm));
    let installed: Arc<dyn SavedTensorHooks> = if traced {
        Arc::new(TracedHooks(Arc::clone(&hooks)))
    } else {
        Arc::clone(&hooks) as Arc<dyn SavedTensorHooks>
    };
    let guard = push_hooks(installed);
    let cluster = |name: &str, w: &Var| -> Var {
        if !t.clusterable.contains(name) {
            return w.clone();
        }
        let dkm = DkmLayer::new(spec.dkm_for_epoch(name, 0));
        if traced {
            spans::span(Layer::Cluster, || dkm.cluster(w).soft)
        } else {
            dkm.cluster(w).soft
        }
    };
    let forward = || {
        let loss = t.model.lm_loss(&batch.seqs, Some(&cluster));
        let value = loss.value().item();
        (loss, value)
    };
    let (loss, value) = if traced {
        spans::span(Layer::Forward, forward)
    } else {
        forward()
    };
    let to_loss = start.elapsed();
    let mut update = || {
        clip_grad_norm(&t.params, spec.train.clip_norm);
        t.optim.step(&t.params);
    };
    if traced {
        spans::span(Layer::Backward, || loss.backward());
        spans::span(Layer::Optim, update);
    } else {
        loss.backward();
        update();
    }
    drop(guard);
    let times = StepTimes {
        to_loss,
        to_update: start.elapsed() - to_loss,
    };
    (value, times, hooks.stats())
}

/// What one pass of cycles measured.
#[derive(Default)]
struct Pass {
    /// Measured work in wall time: fine-tune, export and serialization of
    /// every cycle.
    wall: Duration,
    /// Trained tokens per reference second of each cycle's measured work.
    cycle_tok_s: Vec<f64>,
    /// Reference over wall time of each cycle: the host's speed.
    scales: Vec<f64>,
    cycles: usize,
    steps: Vec<StepTimes>,
    losses: Vec<f32>,
    first_container: Option<CompressedModel>,
    container_bytes: usize,
    peak_cpu_bytes: usize,
    hooks: HookStatsSnapshot,
    d2h_bytes: usize,
    h2d_bytes: usize,
    sim_s: f64,
}

impl Pass {
    /// Median over cycles, so a slow second of the machine moves it less
    /// than it would move the total.
    fn tok_s(&self) -> f64 {
        stats::median(&self.cycle_tok_s)
    }
}

/// Run cycles until `budget` of work is measured. Round-trip checks and
/// `between` run after each cycle, outside the measured time; failures
/// land in `outcome`.
fn run_pass(
    inputs: &Inputs,
    budget: Duration,
    traced: bool,
    outcome: &mut Outcome,
    mut between: impl FnMut() -> Result<(), String>,
) -> Pass {
    let spec = spec();
    let pipeline = CompressionPipeline::new(spec.clone());
    let mut pass = Pass::default();
    while pass.wall < budget || pass.steps.len() < MIN_STEPS {
        runtime::reset();
        let mut trainee = Trainee::new(&inputs.base, &spec);
        runtime::reset_peak(Device::Cpu);
        let first_step = pass.steps.len();
        let ((tokens, peak, container, bytes), wall, reference_s) = pace::timed(|| {
            let mut tokens = 0;
            for batch in &inputs.batches {
                let (loss, times, hooks) = train_step(&mut trainee, batch, &spec, traced);
                outcome.attempted += 1;
                if !loss.is_finite() {
                    outcome.fail(format!("step {}: loss {loss}", pass.steps.len()));
                }
                pass.losses.push(loss);
                pass.steps.push(times);
                tokens += (batch.batch_size() * batch.seq_len()) as u64;
                add_hook_stats(&mut pass.hooks, &hooks);
            }
            uniquify::clear_annotations();
            let peak = runtime::peak_bytes(Device::Cpu);
            let (container, bytes) = if traced {
                let c = spans::span(Layer::Export, || pipeline.export(&trainee.model));
                let b = spans::span(Layer::Serialize, || c.to_bytes());
                (c, b)
            } else {
                let c = pipeline.export(&trainee.model);
                let b = c.to_bytes();
                (c, b)
            };
            (tokens, peak, container, bytes)
        });
        // The cycle's step latencies in reference time, like its throughput.
        let scale = reference_s / wall.as_secs_f64();
        for s in &mut pass.steps[first_step..] {
            s.to_loss = s.to_loss.mul_f64(scale);
            s.to_update = s.to_update.mul_f64(scale);
        }
        pass.scales.push(scale);
        pass.wall += wall;
        pass.cycle_tok_s.push(tokens as f64 / reference_s);
        pass.cycles += 1;
        pass.peak_cpu_bytes = pass.peak_cpu_bytes.max(peak);
        let transfers = runtime::transfer_snapshot();
        pass.d2h_bytes += transfers.d2h_bytes;
        pass.h2d_bytes += transfers.h2d_bytes;
        pass.sim_s += runtime::sim_seconds();

        outcome.attempted += 1;
        if let Err(why) = round_trips(&container, &bytes) {
            outcome.fail(format!("cycle {}: {why}", pass.cycles));
        }
        pass.container_bytes = bytes.len();
        if pass.first_container.is_none() {
            pass.first_container = Some(container);
        }
        if let Err(why) = between() {
            outcome.fail(why);
        }
    }
    pass
}

fn add_hook_stats(total: &mut HookStatsSnapshot, s: &HookStatsSnapshot) {
    total.packs += s.packs;
    total.direct_hits += s.direct_hits;
    total.walk_hits += s.walk_hits;
    total.misses += s.misses;
    total.unpacks += s.unpacks;
    total.cache_hits += s.cache_hits;
    total.offloaded_bytes += s.offloaded_bytes;
}

/// The container decodes from its bytes to bit-identical values.
fn round_trips(container: &CompressedModel, bytes: &[u8]) -> Result<(), String> {
    let decoded = CompressedModel::from_bytes(bytes).map_err(|e| format!("from_bytes: {e}"))?;
    if decoded.entries().len() != container.entries().len() {
        return Err("entry count changed in the round trip".into());
    }
    for ((name, want), (got_name, got)) in container.entries().iter().zip(decoded.entries()) {
        let same = name == got_name
            && want
                .decode_values()
                .iter()
                .zip(got.decode_values())
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && want.decode_values().len() == got.decode_values().len();
        if !same {
            return Err(format!("{name} decodes differently after the round trip"));
        }
    }
    Ok(())
}

/// Held-out perplexity of the exported model, evaluated densely on CPU.
fn exported_ppl(container: &CompressedModel) -> f64 {
    let shipped = LlamaModel::new(CONFIG, DType::Bf16, Device::Cpu, MODEL_SEED);
    container.apply_to(&shipped);
    f64::from(perplexity(&shipped, &crate::held_out()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The Table 2 rows at the default one-layer geometry, on a runtime of
/// their own. Fails the run unless the paper's ordering holds.
fn table2(outcome: &mut Outcome) {
    let rows = run_table2(&AblationSetup::default(), LEARNERS);
    let peak: Vec<usize> = rows.iter().map(|r| r.peak_cpu_bytes).collect();
    let names = [
        "hooks.table2.peak_cpu_bytes.base",
        "hooks.table2.peak_cpu_bytes.m",
        "hooks.table2.peak_cpu_bytes.mu",
        "hooks.table2.peak_cpu_bytes.ms",
        "hooks.table2.peak_cpu_bytes.mus",
    ];
    for (name, &bytes) in names.iter().zip(&peak) {
        outcome.metrics.set(name, bytes as f64);
    }
    outcome.attempted += 1;
    let [base, m, mu, ms, mus] = [peak[0], peak[1], peak[2], peak[3], peak[4]];
    if !(base > m && m > mu && m > ms && mu > mus) {
        outcome.fail(format!(
            "Table 2 ordering violated: base {base}, M {m}, M+U {mu}, M+S {ms}, M+U+S {mus}"
        ));
    }
}

/// Run the workload for `seconds`; traced runs report per-layer metrics.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    // The training loop is one thread: pinned, its kernels run inline and
    // the probes share its CPU (see `pace`).
    let cpu = pace::pin_to_one_cpu()?;
    println!("compress pinned to CPU {cpu}");
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let inputs = crate::timed_setup(&mut setup_s, || Ok(setup(seed)))?;
    println!(
        "compress inputs: fingerprint {:016x}, {} batches of {BATCH}x{SEQ_LEN}",
        inputs.fingerprint(),
        inputs.batches.len()
    );
    let budget = Duration::from_secs(seconds);

    if !trace {
        crate::reset_rss_peak()?;
        // One more set-up after every cycle; `setup` resets the runtime,
        // which the next cycle does anyway.
        let pass = run_pass(&inputs, budget, false, &mut outcome, || {
            crate::timed_setup(&mut setup_s, || Ok(setup(seed))).map(drop)
        });
        outcome
            .metrics
            .set("rss_peak_bytes", crate::rss_peak_bytes()?);
        let to_loss: Vec<f64> = pass.steps.iter().map(|s| ms(s.to_loss)).collect();
        let to_update: Vec<f64> = pass.steps.iter().map(|s| ms(s.to_update)).collect();
        let step: Vec<f64> = pass
            .steps
            .iter()
            .map(|s| ms(s.to_loss + s.to_update))
            .collect();
        let first = pass.first_container.as_ref().expect("one cycle ran");
        let m = &mut outcome.metrics;
        m.set("tok_s", pass.tok_s());
        m.set("ttft_p50_ms", stats::percentile(&to_loss, 500)?);
        m.set("itl_p50_ms", stats::percentile(&to_update, 500)?);
        m.set("step_p50_ms", stats::percentile(&step, 500)?);
        m.set("peak_cpu_bytes", pass.peak_cpu_bytes as f64);
        m.set("model_bytes", pass.container_bytes as f64);
        m.set("ppl", exported_ppl(first));
        m.set("setup_s", stats::median(&setup_s));
        println!(
            "compress: {} cycles, {} steps, loss {:.4} -> {:.4}",
            pass.cycles,
            pass.steps.len(),
            pass.losses.first().copied().unwrap_or(f32::NAN),
            pass.losses.last().copied().unwrap_or(f32::NAN)
        );
        println!("setup_s {}", stats::summary(&setup_s));
        println!("cycle_tok_s {}", stats::summary(&pass.cycle_tok_s));
        println!(
            "host speed (reference / wall time) {}",
            stats::summary(&pass.scales)
        );
        println!("to_loss_ms {}", stats::summary(&to_loss));
        println!("to_update_ms {}", stats::summary(&to_update));
        println!("step_ms {}", stats::summary(&step));
        return Ok(outcome);
    }

    let untraced = run_pass(&inputs, budget / 2, false, &mut outcome, || Ok(()));
    spans::take_self_ms();
    let pass = run_pass(&inputs, budget / 2, true, &mut outcome, || Ok(()));
    let self_ms = spans::take_self_ms();
    let wall_ms = ms(pass.wall);
    let traced_ms: f64 = self_ms.iter().sum();
    let m = &mut outcome.metrics;
    for (layer, v) in Layer::ALL.iter().zip(self_ms) {
        m.set(layer.metric(), v);
    }
    m.set("compress.other_ms", wall_ms - traced_ms);
    m.set("trace.wall_ms", wall_ms);
    m.set("trace.tok_s", pass.tok_s());
    m.set("trace.untraced_tok_s", untraced.tok_s());
    m.set("trace.overhead_frac", 1.0 - pass.tok_s() / untraced.tok_s());
    let h = &pass.hooks;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.set(
        "hooks.dedup_rate",
        ratio(h.direct_hits + h.walk_hits, h.packs),
    );
    m.set("hooks.unpack_cache_rate", ratio(h.cache_hits, h.unpacks));
    m.set(
        "hooks.offloaded_bytes",
        ratio(h.offloaded_bytes, pass.steps.len()),
    );
    let cycles = pass.cycles as f64;
    m.set("tensor.d2h_bytes", pass.d2h_bytes as f64 / cycles);
    m.set("tensor.h2d_bytes", pass.h2d_bytes as f64 / cycles);
    m.set("tensor.sim_s", pass.sim_s / cycles);
    table2(&mut outcome);
    Ok(outcome)
}
