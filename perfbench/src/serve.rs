//! The serving workload `fleet`: multi-turn chat sessions routed to a
//! 2-replica cluster.
//!
//! Each replica serves a 3-bit palettized LLaMA-style decoder loaded from
//! its serialized container. Load comes from one client thread in a closed
//! loop. Router streams only offer a blocking read, so the client keeps a
//! single request outstanding and blocks on it: the only way one thread
//! can stamp router events truthfully.
//!
//! Every naturally finished request is checked afterwards against a
//! deterministic `Scheduler` replay of the same requests.

use crate::pace;
use crate::report::Outcome;
use crate::stats;
use edkm_cluster::{Cluster, ClusterConfig, ClusterStats, ClusterStream, RouterHandle};
use edkm_core::{
    ChunkView, CompressSpec, CompressedModel, CompressedTensor, CompressionPipeline, EngineConfig,
    FinishReason, KvBlockConfig, KvBlockPool, KvCache, PalettizedLinear, PalettizedModel, Request,
    SamplingConfig, Scheduler, ScratchArena, ServeModel, ServeRequest, StatsSnapshot, TokenEvent,
};
use edkm_nn::{LlamaConfig, LlamaModel};
use edkm_tensor::{DType, Device, Tensor};
use edkm_workload::{Trace, TraceConfig, TraceKind};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The served decoder: the serve bench's full-size geometry.
const CONFIG: LlamaConfig = LlamaConfig {
    vocab: 256,
    d_model: 256,
    n_heads: 4,
    n_layers: 4,
    d_ff: 512,
    max_seq: 96,
};
const MODEL_SEED: u64 = 0;
const BITS: u8 = 3;
/// Clustering effort of the one-off export that produces the container;
/// the served geometry, not the palette quality, sets serving cost.
const DKM_ITERS: usize = 2;
const MAX_BATCH: usize = 8;
const REPLICAS: usize = 2;
const BLOCK_TOKENS: usize = 8;
/// Each replica's KV pool holds 40 blocks, about three max-length
/// sequences, so blocks the radix index retains for later turns get
/// evicted.
const KV: KvBlockConfig = KvBlockConfig {
    block_tokens: BLOCK_TOKENS,
    max_blocks: 40,
};
/// Requests the closed-loop client keeps outstanding.
const CLIENTS: usize = 1;
/// Batch of the reference replay; tokens never depend on batch
/// composition, and a wider batch checks a run in less time.
const REFERENCE_BATCH: usize = 32;
const CHAT_REQUESTS: usize = 12_000;
/// A pass keeps submitting past its budget until this many requests were
/// sent, so a slow machine still yields medians over many requests.
const MIN_REQUESTS: u64 = 120;
/// The untraced pass times one more set-up after the first request that
/// ends this long after the previous set-up.
const SETUP_EVERY: Duration = Duration::from_millis(500);
/// Forward-step samples the traced model can record without allocating.
const STEP_CAPACITY: usize = 1 << 17;

/// One generated request.
struct Input {
    prompt: Vec<usize>,
    max_new: usize,
}

/// The generated requests, in submission order. `deps[i]` is the earlier
/// request whose reply request `i` waits for (the previous turn of its
/// chat session).
struct Inputs {
    reqs: Vec<Input>,
    deps: Vec<Option<usize>>,
    fingerprint: u64,
}

/// `TraceKind::Chat` sessions; each turn replays the session's history.
fn chat_inputs(seed: u64) -> Inputs {
    let trace = Trace::generate(&TraceConfig::new(
        TraceKind::Chat,
        seed,
        CHAT_REQUESTS,
        CONFIG.vocab,
        CONFIG.max_seq,
    ));
    let reqs: Vec<Input> = trace
        .requests()
        .iter()
        .map(|r| Input {
            prompt: r.prompt.clone(),
            max_new: r.max_new,
        })
        .collect();
    Inputs {
        deps: turn_dependencies(&reqs),
        reqs,
        fingerprint: trace.fingerprint(),
    }
}

/// For each request, the latest earlier request whose prompt is a proper
/// prefix of its own — the previous turn of the same chat session.
fn turn_dependencies(reqs: &[Input]) -> Vec<Option<usize>> {
    let mut latest: HashMap<u64, usize> = HashMap::new();
    let mut deps = Vec::with_capacity(reqs.len());
    for (j, r) in reqs.iter().enumerate() {
        let mut dep = None;
        let mut h = crate::FNV_OFFSET;
        for (len, &t) in r.prompt[..r.prompt.len() - 1].iter().enumerate() {
            h = crate::fnv1a_step(h, t as u64);
            if let Some(&i) = latest.get(&h) {
                if reqs[i].prompt[..] == r.prompt[..len + 1] {
                    dep = dep.max(Some(i));
                }
            }
        }
        deps.push(dep);
        let full = r
            .prompt
            .iter()
            .fold(crate::FNV_OFFSET, |h, &t| crate::fnv1a_step(h, t as u64));
        latest.insert(full, j);
    }
    deps
}

/// Hands out requests in order, holding back a chat turn until the
/// previous turn of its session has finished.
struct Source<'a> {
    inputs: &'a Inputs,
    pending: VecDeque<usize>,
    done: Vec<bool>,
}

impl<'a> Source<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        Source {
            inputs,
            pending: (0..inputs.reqs.len()).collect(),
            done: vec![false; inputs.reqs.len()],
        }
    }

    fn next_ready(&mut self) -> Option<usize> {
        let at = self
            .pending
            .iter()
            .position(|&i| self.inputs.deps[i].is_none_or(|d| self.done[d]))?;
        self.pending.remove(at)
    }

    fn request(&self, i: usize) -> Request {
        let r = &self.inputs.reqs[i];
        Request::new(r.prompt.clone())
            .max_new_tokens(r.max_new)
            .sampling(SamplingConfig::greedy())
    }
}

/// One forward step seen by [`Traced`].
#[derive(Debug, Clone, Copy)]
struct StepSample {
    ns: u64,
    rows: u32,
    prefill: bool,
}

/// Step samples recorded into storage reserved up front, so the traced
/// decode path allocates nothing the untraced one does not.
struct Probe {
    steps: Mutex<Vec<StepSample>>,
    forward_ns: Mutex<u128>,
}

impl Probe {
    fn new() -> Arc<Self> {
        Arc::new(Probe {
            steps: Mutex::new(Vec::with_capacity(STEP_CAPACITY)),
            forward_ns: Mutex::new(0),
        })
    }

    fn record(&self, elapsed: Duration, rows: usize, prefill: bool) {
        let ns = elapsed.as_nanos();
        *self.forward_ns.lock().expect("probe lock") += ns;
        let mut steps = self.steps.lock().expect("probe lock");
        if steps.len() < steps.capacity() {
            steps.push(StepSample {
                ns: ns as u64,
                rows: rows as u32,
                prefill,
            });
        }
    }
}

/// A [`ServeModel`] that delegates to the served model and times every
/// forward pass into a [`Probe`].
struct Traced<M> {
    inner: M,
    probe: Arc<Probe>,
}

impl<M: ServeModel> ServeModel for Traced<M> {
    fn config(&self) -> &LlamaConfig {
        self.inner.config()
    }
    fn kv_pool(&self) -> &Arc<KvBlockPool> {
        self.inner.kv_pool()
    }
    fn new_cache(&self) -> KvCache {
        self.inner.new_cache()
    }
    fn forward_chunks(&self, chunks: &[&[usize]], caches: &mut [KvCache]) -> Tensor {
        let start = Instant::now();
        let out = self.inner.forward_chunks(chunks, caches);
        let rows: usize = chunks.iter().map(|c| c.len()).sum();
        self.probe
            .record(start.elapsed(), rows, rows > chunks.len());
        out
    }
    fn forward_chunks_into(
        &self,
        view: ChunkView<'_>,
        caches: &mut [KvCache],
        arena: &mut ScratchArena,
    ) -> Vec<f32> {
        let start = Instant::now();
        let out = self.inner.forward_chunks_into(view, caches, arena);
        let rows = view.total_tokens();
        self.probe.record(start.elapsed(), rows, rows > view.len());
        out
    }
}

/// The container every run serves, exported once per process.
fn export_container() -> Vec<u8> {
    let dense = LlamaModel::new(CONFIG, DType::Bf16, Device::Cpu, MODEL_SEED);
    let mut spec = CompressSpec::with_bits(BITS);
    spec.dkm.iters = DKM_ITERS;
    CompressionPipeline::new(spec).export(&dense).to_bytes()
}

/// Load the container and configure one model per replica — what a
/// serving process does before it can take traffic.
fn setup(bytes: &[u8]) -> Result<(PalettizedModel, Vec<PalettizedModel>), String> {
    let container = CompressedModel::from_bytes(bytes).map_err(|e| format!("container: {e}"))?;
    let base = PalettizedModel::from_compressed(&container, CONFIG)
        .map_err(|e| format!("container does not serve: {e}"))?;
    let replicas = configure(&base);
    Ok((base, replicas))
}

/// Fresh replicas of `base`, each with its own KV pool.
fn configure(base: &PalettizedModel) -> Vec<PalettizedModel> {
    (0..REPLICAS)
        .map(|_| base.clone().with_kv_config(KV).with_prefix_cache(true))
        .collect()
}

/// The request the client is waiting on.
struct Live {
    req: usize,
    stream: ClusterStream,
    submitted: Instant,
    last: Instant,
    first_seen: bool,
}

/// What the client measured in one pass.
#[derive(Default)]
struct Pass {
    /// Measured time, set-up pauses left out: wall time, and reference
    /// seconds (see `pace`).
    wall: Duration,
    ref_s: f64,
    /// Reference over wall time of each window: the host's speed.
    scales: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Naturally finished requests: (request index, full token sequence).
    finished: Vec<(usize, Vec<usize>)>,
    generated: u64,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    step_ms: Vec<f64>,
    submit_us: Vec<f64>,
    replica_stats: Vec<StatsSnapshot>,
    router: Option<ClusterStats>,
    /// Peak bytes of all replicas' KV pools together, and of the fullest.
    pool_peak_bytes: usize,
    replica_pool_peak_bytes: usize,
    resident_peak_bytes: usize,
}

impl Pass {
    fn tok_s(&self) -> f64 {
        self.generated as f64 / self.ref_s
    }

    /// Account one event of `live` received at `now`; true if it ended
    /// the stream.
    fn on_event(&mut self, live: &mut Live, ev: TokenEvent, now: Instant) -> bool {
        match ev {
            TokenEvent::Token { .. } => {
                if live.first_seen {
                    self.itl_ms.push(ms(now - live.last));
                } else {
                    self.ttft_ms.push(ms(now - live.submitted));
                }
                live.first_seen = true;
                live.last = now;
                false
            }
            TokenEvent::Finished(resp) => {
                if matches!(
                    resp.finish,
                    FinishReason::MaxTokens | FinishReason::StopToken
                ) {
                    self.generated += resp.generated as u64;
                    self.finished.push((live.req, resp.tokens));
                } else {
                    self.failures
                        .push(format!("request {}: finished {:?}", live.req, resp.finish));
                }
                true
            }
        }
    }

    fn submitted(&mut self, req: usize, stream: ClusterStream, start: Instant) -> Live {
        let now = Instant::now();
        self.submit_us.push((now - start).as_secs_f64() * 1e6);
        self.attempted += 1;
        Live {
            req,
            stream,
            submitted: now,
            last: now,
            first_seen: false,
        }
    }

    /// A token delivered at `now`: the gap since the previous one is one
    /// engine step.
    fn delivery(&mut self, last: &mut Option<Instant>, now: Instant) {
        if let Some(prev) = *last {
            self.step_ms.push(ms(now - prev));
        }
        *last = Some(now);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A stretch of a pass between two set-up pauses, probed on both sides
/// so that its timings can be rescaled to reference time (see `pace`).
struct Window {
    probe: Duration,
    start: Instant,
    /// Lengths of the pass's TTFT, token-gap and step lists at the start.
    marks: [usize; 3],
}

impl Window {
    fn open(pass: &Pass) -> Self {
        let probe = pace::probe();
        Window {
            probe,
            marks: [pass.ttft_ms.len(), pass.itl_ms.len(), pass.step_ms.len()],
            start: Instant::now(),
        }
    }

    /// Add the window's time to `pass` and rescale the latencies recorded
    /// in it to reference time.
    fn close(self, pass: &mut Pass) {
        let wall = self.start.elapsed();
        let scale = pace::scale(self.probe, pace::probe());
        pass.wall += wall;
        pass.ref_s += wall.as_secs_f64() * scale;
        pass.scales.push(scale);
        let [ttft, itl, step] = self.marks;
        for v in pass.ttft_ms[ttft..]
            .iter_mut()
            .chain(&mut pass.itl_ms[itl..])
            .chain(&mut pass.step_ms[step..])
        {
            *v *= scale;
        }
    }
}

/// Closed loop through the router with one request outstanding: the
/// client blocks on the only live stream, so each event is stamped when
/// it arrives. Every `SETUP_EVERY`, between two requests, it closes the
/// current window and calls `between`; that time is left out of the pass.
fn router_loop(
    router: &RouterHandle,
    inputs: &Inputs,
    budget: Duration,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Pass {
    let mut pass = Pass::default();
    let mut source = Source::new(inputs);
    let mut window = Window::open(&pass);
    let mut last_delivery = None;
    while pass.wall + window.start.elapsed() < budget || pass.attempted < MIN_REQUESTS {
        if window.start.elapsed() >= SETUP_EVERY {
            window.close(&mut pass);
            if let Err(why) = between() {
                pass.failures.push(why);
            }
            window = Window::open(&pass);
            last_delivery = None;
        }
        let Some(req) = source.next_ready() else {
            break;
        };
        let t = Instant::now();
        let stream = match router.submit(source.request(req)) {
            Ok((_, stream)) => stream,
            Err(e) => {
                pass.attempted += 1;
                pass.failures
                    .push(format!("request {req}: route refused: {e}"));
                continue;
            }
        };
        let mut l = pass.submitted(req, stream, t);
        loop {
            let Some(ev) = l.stream.next_event() else {
                pass.failures
                    .push(format!("request {req}: stream ended without a result"));
                break;
            };
            let now = Instant::now();
            if matches!(ev, TokenEvent::Token { .. }) {
                pass.delivery(&mut last_delivery, now);
            }
            if pass.on_event(&mut l, ev, now) {
                break;
            }
        }
        source.done[req] = true;
    }
    window.close(&mut pass);
    pass
}

/// Serve `inputs` on `models` (one per replica) for `budget`, calling
/// `between` between requests as [`router_loop`] does.
fn run_pass<M: ServeModel + 'static>(
    models: Vec<M>,
    inputs: &Inputs,
    budget: Duration,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Pass {
    let pools: Vec<Arc<KvBlockPool>> = models.iter().map(|m| Arc::clone(m.kv_pool())).collect();
    let cluster = Cluster::new(
        models,
        ClusterConfig {
            engine: EngineConfig {
                max_batch: MAX_BATCH,
                queue_capacity: CLIENTS,
            },
            affinity: true,
            hedge_after: None,
            ..ClusterConfig::default()
        },
    );
    let router = cluster.handle();
    let mut pass = router_loop(&router, inputs, budget, between);
    let stats = router.stats();
    pass.replica_stats = stats.replicas.iter().map(|(_, s)| s.clone()).collect();
    pass.router = Some(stats);
    pass.resident_peak_bytes = cluster.resident_peak_bytes();
    cluster.shutdown();
    pass.pool_peak_bytes = pools.iter().map(|p| p.peak_bytes()).sum();
    pass.replica_pool_peak_bytes = pools.iter().map(|p| p.peak_bytes()).max().unwrap_or(0);
    pass
}

/// A copy of `base` for reference computations, its pool sized for a full
/// reference batch of max-length sequences. Its prefix cache only skips
/// recomputing shared history; tokens are the same with it on or off.
fn reference_model(base: &PalettizedModel) -> PalettizedModel {
    base.clone()
        .with_kv_config(KvBlockConfig {
            block_tokens: BLOCK_TOKENS,
            max_blocks: 2 * REFERENCE_BATCH * CONFIG.max_seq.div_ceil(BLOCK_TOKENS),
        })
        .with_prefix_cache(true)
}

/// Count `pass`'s requests and failures into `outcome`, then check every
/// naturally finished request against a `Scheduler` replay of the same
/// requests on an independent copy of the model.
fn check(base: &PalettizedModel, inputs: &Inputs, pass: &Pass, outcome: &mut Outcome) {
    println!(
        "fleet: {} requests finished, {} tokens in {:.3} s",
        pass.finished.len(),
        pass.generated,
        pass.wall.as_secs_f64()
    );
    outcome.attempted += pass.attempted;
    for why in &pass.failures {
        outcome.fail(why.clone());
    }
    let reference = reference_model(base);
    let mut sched = Scheduler::new(&reference, REFERENCE_BATCH);
    for &(req, _) in &pass.finished {
        let r = &inputs.reqs[req];
        sched.submit(ServeRequest::new(
            req as u64,
            r.prompt.clone(),
            r.max_new,
            SamplingConfig::greedy(),
        ));
    }
    let want: HashMap<u64, Vec<usize>> = sched
        .run_to_completion()
        .into_iter()
        .map(|r| (r.id, r.tokens))
        .collect();
    for (req, tokens) in &pass.finished {
        if want.get(&(*req as u64)) != Some(tokens) {
            outcome.fail(format!("request {req}: tokens differ from the reference"));
        }
    }
}

/// Held-out perplexity of the served model, through its own prefill path.
fn served_ppl(base: &PalettizedModel) -> f64 {
    let model = reference_model(base);
    let (mut nll, mut count) = (0.0f64, 0usize);
    for w in &crate::held_out() {
        let mut cache = model.new_cache();
        let logits = model.prefill(&w[..w.len() - 1], &mut cache).to_vec();
        for (row, &target) in logits.chunks(CONFIG.vocab).zip(&w[1..]) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row
                .iter()
                .map(|&v| f64::from(v - max).exp())
                .sum::<f64>()
                .ln();
            nll += lse - f64::from(row[target] - max);
            count += 1;
        }
    }
    (nll / count as f64).exp()
}

/// Median per-call time of the model's largest projection at `rows` rows
/// through `PalettizedLinear::forward_rows`, with the ledger's op count and
/// the bytes the call reads and writes (weights, input and output rows).
fn gemm_probe(container: &CompressedModel, rows: usize) -> Result<[f64; 3], String> {
    let weights = container
        .entries()
        .iter()
        .filter_map(|(_, e)| match e {
            CompressedTensor::Palettized(p) if p.shape().len() == 2 && p.cluster_dim() == 1 => {
                Some(p)
            }
            _ => None,
        })
        .max_by_key(|p| p.shape()[0] * p.shape()[1])
        .ok_or("container holds no palettized projection")?;
    let lin = PalettizedLinear::new(weights.clone());
    let (out_f, in_f) = (lin.out_features(), lin.in_features());
    let rows = rows.max(1);
    let x: Vec<f32> = (0..rows * in_f)
        .map(|i| ((i % 17) as f32 - 8.0) / 8.0)
        .collect();
    let mut out = vec![0.0f32; rows * out_f];
    let mut arena = ScratchArena::new();
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < 40 || begin.elapsed() < Duration::from_millis(200) {
        let t = Instant::now();
        lin.forward_rows(std::hint::black_box(&x), rows, &mut out, &mut arena);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&out);
    }
    let flop = (rows * out_f * (in_f + weights.k())) as f64;
    let moved = (weights.size_bytes() + 4 * rows * (in_f + out_f)) as f64;
    // The first calls warm the arena and caches.
    Ok([stats::median(&samples[5..]), flop, moved])
}

/// Run the workload for `seconds`; traced runs report per-layer metrics.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let inputs = chat_inputs(seed);
    println!(
        "fleet inputs: chat trace fingerprint {:016x}, {} requests available",
        inputs.fingerprint,
        inputs.reqs.len()
    );
    let container = export_container();
    let mut setup_s = Vec::new();
    let (base, replicas) = crate::timed_setup(&mut setup_s, || setup(&container))?;
    let budget = Duration::from_secs(seconds);
    let mut outcome = Outcome::default();

    if trace {
        let untraced = run_pass(replicas, &inputs, budget / 2, &mut || Ok(()));
        let probe = Probe::new();
        let models = configure(&base)
            .into_iter()
            .map(|inner| Traced {
                inner,
                probe: Arc::clone(&probe),
            })
            .collect();
        let traced = run_pass(models, &inputs, budget / 2, &mut || Ok(()));
        let container = CompressedModel::from_bytes(&container).map_err(|e| e.to_string())?;
        layer_metrics(&container, &traced, &untraced, &probe, &mut outcome)?;
        for pass in [&untraced, &traced] {
            check(&base, &inputs, pass, &mut outcome);
        }
        return Ok(outcome);
    }
    crate::reset_rss_peak()?;
    let pass = run_pass(replicas, &inputs, budget, &mut || {
        crate::timed_setup(&mut setup_s, || setup(&container)).map(drop)
    });
    // Before the reference replay, whose memory is the benchmark's own.
    outcome
        .metrics
        .set("rss_peak_bytes", crate::rss_peak_bytes()?);
    check(&base, &inputs, &pass, &mut outcome);
    println!("setup_s {}", stats::summary(&setup_s));
    println!("ttft_ms {}", stats::summary(&pass.ttft_ms));
    println!("itl_ms {}", stats::summary(&pass.itl_ms));
    println!("step_ms {}", stats::summary(&pass.step_ms));
    println!(
        "host speed (reference / wall time) {}",
        stats::summary(&pass.scales)
    );
    let model_bytes = (base.size_bytes() * REPLICAS) as f64;
    let m = &mut outcome.metrics;
    m.set("setup_s", stats::median(&setup_s));
    m.set("tok_s", pass.tok_s());
    m.set("ttft_p50_ms", stats::percentile(&pass.ttft_ms, 500)?);
    m.set("itl_p50_ms", stats::percentile(&pass.itl_ms, 500)?);
    m.set("step_p50_ms", stats::percentile(&pass.step_ms, 500)?);
    m.set("peak_cpu_bytes", pass.replica_pool_peak_bytes as f64);
    m.set("model_bytes", model_bytes);
    m.set("ppl", served_ppl(&base));
    Ok(outcome)
}

/// Per-layer metrics of the traced pass, against the untraced one.
fn layer_metrics(
    container: &CompressedModel,
    pass: &Pass,
    untraced: &Pass,
    probe: &Probe,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let steps = probe.steps.lock().expect("probe lock").clone();
    let forward_ms = *probe.forward_ns.lock().expect("probe lock") as f64 / 1e6;
    let (decode, prefill): (Vec<StepSample>, Vec<StepSample>) =
        steps.iter().partition(|s| !s.prefill);
    let median = |v: &[StepSample], f: fn(&StepSample) -> f64| {
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v.iter().map(f).collect::<Vec<_>>())
        }
    };
    let step_ms = |s: &StepSample| s.ns as f64 / 1e6;
    let rows = |s: &StepSample| f64::from(s.rows);
    let [decode_us, decode_flop, decode_bytes] =
        gemm_probe(container, median(&decode, rows).round() as usize)?;
    let [prefill_us, prefill_flop, prefill_bytes] =
        gemm_probe(container, median(&prefill, rows).round() as usize)?;
    // Forward passes run on one worker thread per replica.
    let workers_ms = ms(pass.wall) * REPLICAS as f64;
    let sum = |f: fn(&StatsSnapshot) -> u64| pass.replica_stats.iter().map(f).sum::<u64>();
    let m = &mut outcome.metrics;
    m.set("infer.decode_step_ms", median(&decode, step_ms));
    m.set(
        "infer.rows_per_step",
        decode.iter().map(rows).sum::<f64>() / decode.len().max(1) as f64,
    );
    m.set("infer.prefill_step_ms", median(&prefill, step_ms));
    m.set("infer.prefill_tokens", prefill.iter().map(rows).sum());
    m.set("infer.forward_ms", forward_ms);
    m.set("infer.busy_frac", forward_ms / workers_ms);
    m.set("engine.other_ms", workers_ms - forward_ms);
    m.set("engine.submit_us", stats::median(&pass.submit_us));
    m.set("serve.decode_steps", sum(|s| s.decode_steps) as f64);
    m.set("serve.preemptions", sum(|s| s.preemptions) as f64);
    m.set("serve.spec_proposed", sum(|s| s.spec_proposed) as f64);
    m.set(
        "kv.prefix_hit_rate",
        sum(|s| s.prefix_hits) as f64 / sum(|s| s.submitted).max(1) as f64,
    );
    m.set(
        "kv.prefix_tokens_reused",
        sum(|s| s.prefix_tokens_reused) as f64,
    );
    m.set(
        "kv.peak_bytes",
        pass.replica_stats
            .iter()
            .map(|s| s.kv_peak_bytes)
            .sum::<usize>() as f64,
    );
    m.set("kv.pool_peak_bytes", pass.pool_peak_bytes as f64);
    if let Some(router) = &pass.router {
        m.set("router.affinity_hit_rate", router.affinity_hit_rate());
        m.set("router.spills", router.spills as f64);
        m.set("router.hedges", router.hedges as f64);
    }
    m.set(
        "cluster.resident_peak_bytes",
        pass.resident_peak_bytes as f64,
    );
    m.set("kernel.decode_gemm_us", decode_us);
    m.set("kernel.decode_gemm_flop", decode_flop);
    m.set("kernel.decode_gemm_bytes", decode_bytes);
    m.set("kernel.prefill_gemm_us", prefill_us);
    m.set("kernel.prefill_gemm_flop", prefill_flop);
    m.set("kernel.prefill_gemm_bytes", prefill_bytes);
    m.set("trace.wall_ms", ms(pass.wall));
    m.set("trace.tok_s", pass.tok_s());
    m.set("trace.untraced_tok_s", untraced.tok_s());
    m.set("trace.overhead_frac", 1.0 - pass.tok_s() / untraced.tok_s());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chat_turns_wait_for_the_previous_turn_of_their_session() {
        let inputs = chat_inputs(7);
        assert!(
            inputs.deps.iter().any(Option::is_some),
            "chat has follow-up turns"
        );
        for (j, d) in inputs.deps.iter().enumerate() {
            if let Some(i) = *d {
                let (pi, pj) = (&inputs.reqs[i].prompt, &inputs.reqs[j].prompt);
                assert!(i < j && pi.len() < pj.len() && pj[..pi.len()] == pi[..]);
            }
        }
    }

    #[test]
    fn source_holds_back_turns_until_their_dependency_is_done() {
        let inputs = Inputs {
            reqs: (0..3)
                .map(|i| Input {
                    prompt: vec![i],
                    max_new: 1,
                })
                .collect(),
            deps: vec![None, Some(0), None],
            fingerprint: 0,
        };
        let mut source = Source::new(&inputs);
        assert_eq!(source.next_ready(), Some(0));
        assert_eq!(source.next_ready(), Some(2), "turn 1 waits for turn 0");
        assert_eq!(source.next_ready(), None);
        source.done[0] = true;
        assert_eq!(source.next_ready(), Some(1));
    }
}
