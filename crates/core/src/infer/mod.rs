//! Palettized inference: run a linear projection *directly* from the
//! compressed representation (LUT + packed indices), the way the paper's
//! target accelerators consume weight-clustered models ("a lookup table and
//! a list of low-precision indices … consumed by modern inference
//! accelerators").
//!
//! For scalar clustering the matvec `y = x Wᵀ` factors through the palette:
//! each output element is `Σ_j lut[idx[row, j]] · x_j`, and because the
//! LUT has only `k` distinct values the products `lut[c] · x_j` can be
//! materialized **once per input chunk** and re-read by index — every
//! multiply in the GEMM becomes an add. The cache-blocked, register-tiled
//! implementation of that trick lives in [`kernel::TiledLutKernel`]; this
//! module wires it into whole-model serving.

pub mod kernel;
pub mod launch;

pub use crate::kv::KvCache;
use crate::kv::{KvBlockConfig, KvBlockPool};
use crate::palettize::{AffineQuantized, PalettizedTensor};
use crate::pipeline::{CompressSpec, CompressedModel, CompressedTensor, CompressionPipeline};
use crate::scratch::{self, ScratchArena};
use edkm_nn::attention::{attend_cached_rows, rope_tables, KvRowView};
use edkm_nn::{LlamaConfig, LlamaModel};
use edkm_tensor::{runtime, DType, Device, Tensor};
use kernel::TiledLutKernel;
use std::sync::Arc;

/// A linear layer evaluated straight from its palettized weights.
///
/// Construction performs the kernel's one-time tile repack; every forward
/// entry point then runs the same ascending-`j` single-accumulator math,
/// so serial, tiled and whole-model paths agree bit for bit.
#[derive(Debug, Clone)]
pub struct PalettizedLinear {
    weights: PalettizedTensor,
    out_features: usize,
    in_features: usize,
    /// Tile-repacked indices + activation-LUT GEMM (cached for speed).
    kernel: TiledLutKernel,
}

impl PalettizedLinear {
    /// Wrap a palettized `[out, in]` scalar-clustered weight.
    ///
    /// # Panics
    ///
    /// Panics if the palette is not 2-D scalar-clustered.
    pub fn new(weights: PalettizedTensor) -> Self {
        assert_eq!(
            weights.shape().len(),
            2,
            "palettized linear expects [out, in]"
        );
        assert_eq!(
            weights.cluster_dim(),
            1,
            "palette must be scalar-clustered (cluster_dim = 1)"
        );
        let (out_features, in_features) = (weights.shape()[0], weights.shape()[1]);
        let kernel = TiledLutKernel::from_palette(&weights);
        PalettizedLinear {
            weights,
            out_features,
            in_features,
            kernel,
        }
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// The compressed weights.
    pub fn weights(&self) -> &PalettizedTensor {
        &self.weights
    }

    /// The tile-repacked GEMM kernel.
    pub fn kernel(&self) -> &TiledLutKernel {
        &self.kernel
    }

    /// Serialized parameter bytes of this layer.
    pub fn size_bytes(&self) -> usize {
        self.weights.size_bytes()
    }

    /// The LUT-GEMM cost model charged by every forward entry point: `|W|`
    /// index-gathered adds plus the `k·in` activation-table multiplies,
    /// identical across serial/tiled/batch so the simulated clock cannot
    /// tell the paths apart. Tensor entry points charge the input's
    /// device; the slice-level [`PalettizedLinear::forward_rows`] path is
    /// the CPU serving decoder's and charges the CPU ledger.
    fn charge(&self, n: usize, device: Device) {
        runtime::record_compute(
            (n * self.out_features * (self.in_features + self.weights.k())) as f64,
            device,
        );
    }

    /// `y = x Wᵀ` for `x: [n, in]` via the tiled LUT-GEMM. Delegates to
    /// [`PalettizedLinear::forward_batch`] — there is exactly one LUT-GEMM
    /// inner loop in this type, and both entry points charge the ledger
    /// identically.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, in]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_batch(x)
    }

    /// Reference single-threaded LUT-GEMM. Public so benchmarks can pin
    /// the serial baseline; charges the ledger exactly like
    /// [`PalettizedLinear::forward_batch`] and produces bit-identical
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, in]`.
    pub fn forward_serial(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "input must be [n, in]");
        assert_eq!(x.shape()[1], self.in_features, "input width mismatch");
        let n = x.shape()[0];
        let xd = x.to_vec();
        let mut out = vec![0.0f32; n * self.out_features];
        self.kernel.forward_serial_into(&xd, n, &mut out);
        self.charge(n, x.device());
        Tensor::from_vec(out, &[n, self.out_features], DType::F32, x.device())
    }

    /// Slice-level forward: `out[i, :] = x[i, :] Wᵀ`, scratch drawn from
    /// `arena` — the allocation-free entry point the serving decoder
    /// drives. Bit-identical to [`PalettizedLinear::forward_serial`], with
    /// the same ledger charge.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `n · in` long or `out` is not `n · out` long.
    pub fn forward_rows(&self, x: &[f32], n: usize, out: &mut [f32], arena: &mut ScratchArena) {
        self.kernel.forward_into(x, n, out, arena);
        self.charge(n, Device::Cpu);
    }

    /// Batched `y = x Wᵀ` for `x: [n, in]` through the cache-blocked tiled
    /// kernel (worker threads over output tiles from
    /// [`launch::FANOUT_MACS`] on, the calling thread below it).
    /// Bit-identical to
    /// [`PalettizedLinear::forward_serial`] at every thread count; every
    /// FLOP is charged once to the caller's runtime.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, in]`.
    pub fn forward_batch(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "input must be [n, in]");
        assert_eq!(x.shape()[1], self.in_features, "input width mismatch");
        let n = x.shape()[0];
        let xd = x.to_vec();
        let mut out = vec![0.0f32; n * self.out_features];
        scratch::with_thread_scratch(|arena| self.kernel.forward_into(&xd, n, &mut out, arena));
        self.charge(n, x.device());
        Tensor::from_vec(out, &[n, self.out_features], DType::F32, x.device())
    }
}

// ---------------------------------------------------------------------
// Whole-model compressed inference.
// ---------------------------------------------------------------------

/// RMSNorm epsilon, matching `edkm_nn::RmsNorm`.
const RMS_EPS: f32 = 1e-5;

/// RoPE base, matching `edkm_nn::LlamaModel`.
const ROPE_THETA: f32 = 10000.0;

/// Error constructing a [`PalettizedModel`] from a compressed container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The container has no entry with this parameter name.
    MissingParam(String),
    /// The entry kind cannot be served from compressed form.
    Unsupported(String),
    /// An entry's shape disagrees with the model config.
    Shape(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::MissingParam(n) => write!(f, "compressed model lacks parameter {n}"),
            ServeError::Unsupported(m) => write!(f, "unsupported for serving: {m}"),
            ServeError::Shape(m) => write!(f, "shape mismatch: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Read view of one layer of a paged [`KvCache`] — what the shared
/// attention kernel ([`attend_cached_rows`]) reads rows through. Runs of
/// consecutive positions inside one KV block surface as a single
/// contiguous slice ([`KvRowView::k_rows`]), so the attention inner loop
/// walks the cache block-at-a-time instead of resolving the block table
/// per row.
struct LayerView<'a> {
    cache: &'a KvCache,
    layer: usize,
}

impl KvRowView for LayerView<'_> {
    fn k_row(&self, pos: usize) -> &[f32] {
        self.cache.k_row(self.layer, pos)
    }
    fn v_row(&self, pos: usize) -> &[f32] {
        self.cache.v_row(self.layer, pos)
    }
    fn k_rows(&self, pos: usize) -> &[f32] {
        self.cache.k_rows_from(self.layer, pos)
    }
    fn v_rows(&self, pos: usize) -> &[f32] {
        self.cache.v_rows_from(self.layer, pos)
    }
}

/// Embedding storage of a compressed model: affine-quantized (the paper's
/// 8-bit embeddings) or dense 16-bit values (the lossless config).
#[derive(Debug, Clone)]
enum EmbedStore {
    Affine(AffineQuantized),
    Dense { values: Vec<f32> },
}

impl EmbedStore {
    fn write_row(&self, id: usize, out: &mut [f32]) {
        match self {
            EmbedStore::Affine(a) => a.decode_row_into(id, out),
            EmbedStore::Dense { values } => {
                let d = out.len();
                out.copy_from_slice(&values[id * d..(id + 1) * d]);
            }
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            EmbedStore::Affine(a) => a.size_bytes(),
            EmbedStore::Dense { values } => crate::palettize::native16_size_bytes(values.len()),
        }
    }
}

/// One decoder layer served from compressed storage.
#[derive(Debug, Clone)]
struct PalettizedLayer {
    input_norm: Vec<f32>,
    q: PalettizedLinear,
    k: PalettizedLinear,
    v: PalettizedLinear,
    o: PalettizedLinear,
    post_norm: Vec<f32>,
    gate: PalettizedLinear,
    up: PalettizedLinear,
    down: PalettizedLinear,
}

impl PalettizedLayer {
    fn projections(&self) -> [&PalettizedLinear; 7] {
        [
            &self.q, &self.k, &self.v, &self.o, &self.gate, &self.up, &self.down,
        ]
    }
}

/// A whole LLaMA-style decoder whose every projection runs straight from
/// `PalettizedTensor` storage via the tiled LUT-GEMM kernel — the model an
/// accelerator would execute from the shipped artifact. Weights never
/// decompress to dense matrices; only the norm gains and (optionally) the
/// embedding table live as raw 16-bit-equivalent values, exactly the split
/// the paper ships.
#[derive(Debug, Clone)]
pub struct PalettizedModel {
    config: LlamaConfig,
    embed: EmbedStore,
    layers: Vec<PalettizedLayer>,
    final_norm: Vec<f32>,
    lm_head: PalettizedLinear,
    cos: Vec<f32>,
    sin: Vec<f32>,
    device: Device,
    kv_pool: Arc<KvBlockPool>,
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// RMS-normalize each `gain.len()`-wide row of `x` into `out` (identical
/// accumulation order to `Var::rmsnorm`, so serving matches training-side
/// numerics). Charges 4 FLOPs per element like the tensor op it replaced.
fn rmsnorm_rows_into(x: &[f32], gain: &[f32], out: &mut [f32], device: Device) {
    let d = gain.len();
    debug_assert_eq!(x.len(), out.len());
    for (row, orow) in x.chunks(d).zip(out.chunks_mut(d)) {
        let ms = row.iter().map(|v| v * v).sum::<f32>() / d as f32;
        let r = 1.0 / (ms + RMS_EPS).sqrt();
        for ((o, &xv), &wv) in orow.iter_mut().zip(row).zip(gain) {
            *o = xv * r * wv;
        }
    }
    runtime::record_compute(4.0 * x.len() as f64, device);
}

/// Rotate one `[h·hd]` projection row at absolute position `p` (GPT-NeoX
/// half-split, same math as `edkm_nn::attention::rope`).
fn rope_row(row: &mut [f32], n_heads: usize, hd: usize, cos: &[f32], sin: &[f32], p: usize) {
    let half = hd / 2;
    let tb = p * half;
    for head in 0..n_heads {
        let base = head * hd;
        for i in 0..half {
            let (c, s) = (cos[tb + i], sin[tb + i]);
            let x1 = row[base + i];
            let x2 = row[base + half + i];
            row[base + i] = x1 * c - x2 * s;
            row[base + half + i] = x1 * s + x2 * c;
        }
    }
}

impl PalettizedModel {
    /// Build from a compressed container plus the architecture config.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] if a parameter is missing, has the wrong
    /// shape, or is stored in a form the serving engine cannot run from
    /// (vector palettes and per-group LUTs are export-only today).
    pub fn from_compressed(
        compressed: &CompressedModel,
        config: LlamaConfig,
    ) -> Result<Self, ServeError> {
        let find = |name: &str| -> Result<&CompressedTensor, ServeError> {
            compressed
                .entries()
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, e)| e)
                .ok_or_else(|| ServeError::MissingParam(name.to_string()))
        };
        let proj = |name: &str, out: usize, inp: usize| -> Result<PalettizedLinear, ServeError> {
            match find(name)? {
                CompressedTensor::Palettized(p) => {
                    if p.cluster_dim() != 1 {
                        return Err(ServeError::Unsupported(format!(
                            "{name}: vector palette (cluster_dim {})",
                            p.cluster_dim()
                        )));
                    }
                    if p.shape() != [out, inp] {
                        return Err(ServeError::Shape(format!(
                            "{name}: palette is {:?}, config wants [{out}, {inp}]",
                            p.shape()
                        )));
                    }
                    Ok(PalettizedLinear::new(p.clone()))
                }
                CompressedTensor::PalettizedGrouped(_) => {
                    Err(ServeError::Unsupported(format!("{name}: per-group LUTs")))
                }
                _ => Err(ServeError::Unsupported(format!(
                    "{name}: expected a palettized projection"
                ))),
            }
        };
        let norm = |name: &str, d: usize| -> Result<Vec<f32>, ServeError> {
            match find(name)? {
                CompressedTensor::Native { values, shape } => {
                    if shape != &[d] {
                        return Err(ServeError::Shape(format!(
                            "{name}: norm is {shape:?}, config wants [{d}]"
                        )));
                    }
                    Ok(values.clone())
                }
                _ => Err(ServeError::Unsupported(format!(
                    "{name}: norm gains must be stored natively"
                ))),
            }
        };

        let d = config.d_model;
        let embed = match find("embed_tokens")? {
            CompressedTensor::Affine(a) => {
                if a.rows() != config.vocab || a.cols() != d {
                    return Err(ServeError::Shape(format!(
                        "embed_tokens: affine is [{}, {}], config wants [{}, {d}]",
                        a.rows(),
                        a.cols(),
                        config.vocab
                    )));
                }
                EmbedStore::Affine(a.clone())
            }
            CompressedTensor::Native { values, shape } => {
                if shape != &[config.vocab, d] {
                    return Err(ServeError::Shape(format!(
                        "embed_tokens: table is {shape:?}, config wants [{}, {d}]",
                        config.vocab
                    )));
                }
                EmbedStore::Dense {
                    values: values.clone(),
                }
            }
            _ => {
                return Err(ServeError::Unsupported(
                    "embed_tokens: expected affine or native storage".into(),
                ))
            }
        };

        let mut layers = Vec::with_capacity(config.n_layers);
        for i in 0..config.n_layers {
            let p = format!("layers.{i}");
            layers.push(PalettizedLayer {
                input_norm: norm(&format!("{p}.input_norm"), d)?,
                q: proj(&format!("{p}.attn.q_proj"), d, d)?,
                k: proj(&format!("{p}.attn.k_proj"), d, d)?,
                v: proj(&format!("{p}.attn.v_proj"), d, d)?,
                o: proj(&format!("{p}.attn.o_proj"), d, d)?,
                post_norm: norm(&format!("{p}.post_norm"), d)?,
                gate: proj(&format!("{p}.mlp.gate_proj"), config.d_ff, d)?,
                up: proj(&format!("{p}.mlp.up_proj"), config.d_ff, d)?,
                down: proj(&format!("{p}.mlp.down_proj"), d, config.d_ff)?,
            });
        }

        let hd = d / config.n_heads;
        let (cos, sin) = rope_tables(config.max_seq, hd, ROPE_THETA);
        let device = Device::Cpu;
        Ok(PalettizedModel {
            embed,
            layers,
            final_norm: norm("final_norm", d)?,
            lm_head: proj("lm_head", config.vocab, d)?,
            cos,
            sin,
            kv_pool: KvBlockPool::new(
                KvBlockConfig::default(),
                config.n_layers,
                config.d_model,
                device,
            ),
            config,
            device,
        })
    }

    /// Export `model` under `spec` (no training) and wrap the result for
    /// serving.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] if the spec produces entries the engine
    /// cannot serve (vector palettes, per-group LUTs).
    pub fn from_dense(model: &LlamaModel, spec: &CompressSpec) -> Result<Self, ServeError> {
        // Pre-validate lossless exports so the export's own panic (a weight
        // matrix with more distinct values than the 2^16-entry palette, e.g.
        // a large f32 model) surfaces here as a typed error instead.
        for name in model.clusterable_names() {
            if spec.bits_for(&name) < 16 {
                continue;
            }
            let (_, var) = model
                .named_params()
                .into_iter()
                .find(|(n, _)| *n == name)
                .expect("clusterable name is a parameter");
            let distinct: std::collections::HashSet<u32> =
                var.value().to_vec().iter().map(|v| v.to_bits()).collect();
            if distinct.len() > 1 << 16 {
                return Err(ServeError::Unsupported(format!(
                    "{name}: {} distinct values exceed the 2^16-entry lossless \
                     palette (use <= 15 bits or 16-bit source weights)",
                    distinct.len()
                )));
            }
        }
        let compressed = CompressionPipeline::new(spec.clone()).export(model);
        Self::from_compressed(&compressed, *model.config())
    }

    /// Replace the model's KV block pool (paging granularity and physical
    /// block cap). Call before handing out caches; existing caches keep
    /// draining into the pool they were drawn from.
    pub fn with_kv_config(mut self, cfg: KvBlockConfig) -> Self {
        self.kv_pool =
            KvBlockPool::new(cfg, self.config.n_layers, self.config.d_model, self.device);
        self
    }

    /// Enable (or disable) prefix sharing on this model's KV pool: the
    /// scheduler then indexes finished prefixes by token ids and admits
    /// later prompts against the longest cached match. Apply *after*
    /// [`PalettizedModel::with_kv_config`] — replacing the pool resets the
    /// flag.
    #[must_use]
    pub fn with_prefix_cache(self, enabled: bool) -> Self {
        self.kv_pool.set_prefix_cache(enabled);
        self
    }

    /// Architecture config.
    pub fn config(&self) -> &LlamaConfig {
        &self.config
    }

    /// The shared paged KV block pool caches draw from.
    pub fn kv_pool(&self) -> &Arc<KvBlockPool> {
        &self.kv_pool
    }

    /// Serialized bytes of all served parameters (palettes + norms + embed).
    pub fn size_bytes(&self) -> usize {
        let norms = crate::palettize::native16_size_bytes(
            self.final_norm.len()
                + self
                    .layers
                    .iter()
                    .map(|l| l.input_norm.len() + l.post_norm.len())
                    .sum::<usize>(),
        );
        self.embed.size_bytes()
            + norms
            + self.lm_head.size_bytes()
            + self
                .layers
                .iter()
                .map(|l| {
                    l.projections()
                        .iter()
                        .map(|p| p.size_bytes())
                        .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// A fresh empty KV cache for one sequence.
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(Arc::clone(&self.kv_pool))
    }

    /// Run one forward chunk per sequence — the continuous-batching core.
    ///
    /// `chunks[i]` holds the *new* tokens of sequence `i` (a whole prompt at
    /// prefill, one token at decode) entering at position `caches[i].len()`;
    /// every projection GEMM is batched across all chunks' rows while
    /// attention stays per-sequence against its own cache. Returns logits
    /// `[Σ chunk lens, vocab]`, rows grouped chunk by chunk.
    ///
    /// Each row's values depend only on its own sequence, never on what it
    /// was batched with — the property the scheduler invariant tests pin.
    ///
    /// A `Tensor`-returning wrapper over the arena path
    /// ([`ServeModel::forward_chunks_into`]), for callers outside the
    /// scheduler loop (parity tests, examples, one-shot prefills).
    ///
    /// # Panics
    ///
    /// Panics on empty/oversized chunks, chunk/cache count mismatch,
    /// out-of-vocabulary ids, or an exhausted KV block pool (the scheduler
    /// reserves blocks before stepping, so it never trips this).
    pub fn forward_chunks(&self, chunks: &[&[usize]], caches: &mut [KvCache]) -> Tensor {
        // Flatten the per-chunk refs into the ChunkView descriptor the
        // arena path consumes (callers off the hot path can afford the
        // two temporary vecs; the scheduler builds its view from
        // reusable buffers instead).
        let mut tokens = Vec::new();
        let mut ends = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            tokens.extend_from_slice(chunk);
            ends.push(tokens.len());
        }
        let n_total = tokens.len();
        let logits = scratch::with_thread_scratch(|arena| {
            self.forward_chunks_into(ChunkView::new(&tokens, &ends), caches, arena)
        });
        Tensor::from_vec(
            logits,
            &[n_total, self.config.vocab],
            DType::F32,
            self.device,
        )
    }

    /// Prefill one sequence's prompt, returning logits `[len, vocab]`.
    pub fn prefill(&self, ids: &[usize], cache: &mut KvCache) -> Tensor {
        ServeModel::prefill(self, ids, cache)
    }

    /// One batched decode step: `tokens[i]` is sequence `i`'s newest token.
    /// Returns logits `[tokens.len(), vocab]`.
    pub fn decode_step(&self, tokens: &[usize], caches: &mut [KvCache]) -> Tensor {
        ServeModel::decode_step(self, tokens, caches)
    }
}

/// Borrowed flat descriptor of a continuous batch: all sequences' new
/// tokens concatenated, with cumulative chunk end offsets — chunk `g` is
/// `tokens[ends[g-1]..ends[g]]` (starting at 0). The launch-descriptor
/// idiom of the scheduler hot path: both slices live in scheduler-owned
/// reusable buffers, so describing a step allocates nothing (unlike a
/// `Vec<&[usize]>` of per-chunk refs, which must be rebuilt every step).
#[derive(Debug, Clone, Copy)]
pub struct ChunkView<'a> {
    tokens: &'a [usize],
    ends: &'a [usize],
}

impl<'a> ChunkView<'a> {
    /// Wrap `tokens` split at cumulative `ends`.
    ///
    /// # Panics
    ///
    /// Panics if `ends` is not non-decreasing or its last entry does not
    /// cover `tokens` exactly.
    pub fn new(tokens: &'a [usize], ends: &'a [usize]) -> Self {
        let mut prev = 0usize;
        for &e in ends {
            assert!(e >= prev, "chunk ends must be non-decreasing");
            prev = e;
        }
        assert_eq!(prev, tokens.len(), "chunk ends must cover all tokens");
        ChunkView { tokens, ends }
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total new tokens across all chunks.
    pub fn total_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Chunk `g`'s token slice.
    pub fn chunk(&self, g: usize) -> &'a [usize] {
        let start = if g == 0 { 0 } else { self.ends[g - 1] };
        &self.tokens[start..self.ends[g]]
    }

    /// Iterate the chunk slices in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [usize]> + '_ {
        (0..self.len()).map(|g| self.chunk(g))
    }
}

/// The serving surface [`crate::serve::Generator`],
/// [`crate::serve::Scheduler`] and [`crate::engine::ServeEngine`] drive —
/// implemented by [`PalettizedModel`]. Generic callers also accept a
/// wrapper around it (a model that times each forward, say).
///
/// `Send` is an explicit supertrait: the engine moves the model onto its
/// worker thread.
pub trait ServeModel: Send {
    /// Architecture config.
    fn config(&self) -> &LlamaConfig;
    /// The paged KV block pool sequences draw from.
    fn kv_pool(&self) -> &Arc<KvBlockPool>;
    /// A fresh empty KV cache for one sequence.
    fn new_cache(&self) -> KvCache;
    /// Batched forward over per-sequence chunks; see
    /// [`PalettizedModel::forward_chunks`].
    fn forward_chunks(&self, chunks: &[&[usize]], caches: &mut [KvCache]) -> Tensor;

    /// Batched forward over a flat [`ChunkView`] returning the raw logits
    /// buffer (`[Σ chunk lens · vocab]`, rows grouped chunk by chunk),
    /// with every temporary drawn from `arena` — the allocation-free path
    /// [`crate::serve::Scheduler`] drives every step. The caller should
    /// hand the returned buffer back via [`ScratchArena::put`] once
    /// consumed.
    fn forward_chunks_into(
        &self,
        view: ChunkView<'_>,
        caches: &mut [KvCache],
        arena: &mut ScratchArena,
    ) -> Vec<f32>;

    /// Prefill one sequence's prompt, returning logits `[len, vocab]`.
    fn prefill(&self, ids: &[usize], cache: &mut KvCache) -> Tensor {
        self.forward_chunks(&[ids], std::slice::from_mut(cache))
    }

    /// One batched decode step: `tokens[i]` is sequence `i`'s newest token.
    fn decode_step(&self, tokens: &[usize], caches: &mut [KvCache]) -> Tensor {
        let chunks: Vec<&[usize]> = tokens.chunks(1).collect();
        self.forward_chunks(&chunks, caches)
    }
}

/// The per-step scratch set of the decoder forward, all checked out of one
/// [`ScratchArena`] and returned on drop of the call — named so the
/// checkout/return pairing is auditable in one place.
struct ForwardScratch {
    /// Residual stream, `[n, d]`.
    x: Vec<f32>,
    /// Norm output feeding the projections, `[n, d]`.
    h: Vec<f32>,
    /// Q/K/V projection outputs, `[n, d]` each.
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// Attention context, `[n, d]`.
    ctx: Vec<f32>,
    /// Projection output folded into the residual, `[n, d]`.
    proj: Vec<f32>,
    /// MLP gate/up activations, `[n, d_ff]` each.
    gate: Vec<f32>,
    up: Vec<f32>,
    /// Attention score scratch, `[max_seq]`.
    scores: Vec<f32>,
}

impl ForwardScratch {
    fn take(arena: &mut ScratchArena, n: usize, d: usize, d_ff: usize, max_seq: usize) -> Self {
        ForwardScratch {
            x: arena.take(n * d),
            h: arena.take(n * d),
            q: arena.take(n * d),
            k: arena.take(n * d),
            v: arena.take(n * d),
            ctx: arena.take(n * d),
            proj: arena.take(n * d),
            gate: arena.take(n * d_ff),
            up: arena.take(n * d_ff),
            scores: arena.take(max_seq),
        }
    }

    fn put(self, arena: &mut ScratchArena) {
        for buf in [
            self.x,
            self.h,
            self.q,
            self.k,
            self.v,
            self.ctx,
            self.proj,
            self.gate,
            self.up,
            self.scores,
        ] {
            arena.put(buf);
        }
    }
}

impl ServeModel for PalettizedModel {
    fn config(&self) -> &LlamaConfig {
        PalettizedModel::config(self)
    }
    fn kv_pool(&self) -> &Arc<KvBlockPool> {
        PalettizedModel::kv_pool(self)
    }
    fn new_cache(&self) -> KvCache {
        PalettizedModel::new_cache(self)
    }
    fn forward_chunks(&self, chunks: &[&[usize]], caches: &mut [KvCache]) -> Tensor {
        PalettizedModel::forward_chunks(self, chunks, caches)
    }

    /// The batched decoder forward over raw slices: every temporary comes
    /// from `arena`, so a steady-state decode step (same flight shape as
    /// the previous step) performs zero heap allocations in this path. The
    /// returned logits buffer belongs to the arena; hand it back with
    /// [`ScratchArena::put`].
    fn forward_chunks_into(
        &self,
        view: ChunkView<'_>,
        caches: &mut [KvCache],
        arena: &mut ScratchArena,
    ) -> Vec<f32> {
        assert_eq!(view.len(), caches.len(), "one cache per chunk");
        assert!(!view.is_empty(), "at least one chunk");
        let d = self.config.d_model;
        let h = self.config.n_heads;
        let hd = d / h;
        let n_total = view.total_tokens();
        // Per-chunk cache starts and per-row RoPE positions come from the
        // arena's index pool — the last per-step bookkeeping the decoder
        // used to allocate.
        let mut starts = arena.take_idx(view.len());
        for (g, chunk) in view.iter().enumerate() {
            let cache = &mut caches[g];
            assert!(!chunk.is_empty(), "empty chunk");
            assert!(
                cache.len() + chunk.len() <= self.config.max_seq,
                "sequence too long: {} cached + {} new > {}",
                cache.len(),
                chunk.len(),
                self.config.max_seq
            );
            assert!(
                cache.try_reserve(chunk.len()),
                "KV block pool exhausted: {} more tokens need {} blocks, {} free",
                chunk.len(),
                self.kv_pool.blocks_for(cache.len() + chunk.len()),
                self.kv_pool.free_blocks()
            );
            starts[g] = cache.len();
        }
        let mut pos = arena.take_idx(n_total);
        let mut prow = 0usize;
        for (g, chunk) in view.iter().enumerate() {
            for i in 0..chunk.len() {
                pos[prow] = starts[g] + i;
                prow += 1;
            }
        }

        let mut s = ForwardScratch::take(arena, n_total, d, self.config.d_ff, self.config.max_seq);

        // Embed all new tokens: [n_total, d].
        let mut row = 0usize;
        for chunk in view.iter() {
            for &id in chunk {
                assert!(id < self.config.vocab, "id {id} out of vocabulary");
                self.embed.write_row(id, &mut s.x[row * d..(row + 1) * d]);
                row += 1;
            }
        }

        for (li, layer) in self.layers.iter().enumerate() {
            rmsnorm_rows_into(&s.x, &layer.input_norm, &mut s.h, self.device);
            layer.q.forward_rows(&s.h, n_total, &mut s.q, arena);
            layer.k.forward_rows(&s.h, n_total, &mut s.k, arena);
            layer.v.forward_rows(&s.h, n_total, &mut s.v, arena);
            for (r, &p) in pos.iter().enumerate() {
                rope_row(&mut s.q[r * d..(r + 1) * d], h, hd, &self.cos, &self.sin, p);
                rope_row(&mut s.k[r * d..(r + 1) * d], h, hd, &self.cos, &self.sin, p);
            }

            // Attention: per sequence against its own cache, rows read
            // through the block table a whole block at a time
            // (`attend_cached_rows` walks [`KvRowView::k_rows`] runs; the
            // accumulation order matches the monolithic layout, so the
            // kernel is bit-stable in the storage geometry).
            s.ctx.fill(0.0);
            let mut flops = 0.0f64;
            let mut base = 0usize;
            for (g, chunk) in view.iter().enumerate() {
                let n = chunk.len();
                caches[g].write_rows(
                    li,
                    starts[g],
                    &s.k[base * d..(base + n) * d],
                    &s.v[base * d..(base + n) * d],
                );
                let layer_view = LayerView {
                    cache: &caches[g],
                    layer: li,
                };
                flops += attend_cached_rows(
                    &s.q[base * d..(base + n) * d],
                    starts[g],
                    h,
                    hd,
                    &layer_view,
                    &mut s.ctx[base * d..(base + n) * d],
                    &mut s.scores,
                );
                base += n;
            }
            runtime::record_compute(flops, self.device);

            layer.o.forward_rows(&s.ctx, n_total, &mut s.proj, arena);
            for (xv, &pv) in s.x.iter_mut().zip(&s.proj) {
                *xv += pv;
            }
            runtime::record_compute(s.x.len() as f64, self.device);

            rmsnorm_rows_into(&s.x, &layer.post_norm, &mut s.h, self.device);
            layer.gate.forward_rows(&s.h, n_total, &mut s.gate, arena);
            layer.up.forward_rows(&s.h, n_total, &mut s.up, arena);
            // SwiGLU: gate · silu, then the elementwise product with up
            // (same per-element order as the tensor ops it replaced).
            for (g, &u) in s.gate.iter_mut().zip(&s.up) {
                *g = (*g * sigmoid(*g)) * u;
            }
            runtime::record_compute(2.0 * s.gate.len() as f64, self.device);
            layer
                .down
                .forward_rows(&s.gate, n_total, &mut s.proj, arena);
            for (xv, &pv) in s.x.iter_mut().zip(&s.proj) {
                *xv += pv;
            }
            runtime::record_compute(s.x.len() as f64, self.device);
        }
        for (g, chunk) in view.iter().enumerate() {
            caches[g].commit(chunk.len());
        }
        arena.put_idx(starts);
        arena.put_idx(pos);

        rmsnorm_rows_into(&s.x, &self.final_norm, &mut s.h, self.device);
        let mut logits = arena.take(n_total * self.config.vocab);
        self.lm_head.forward_rows(&s.h, n_total, &mut logits, arena);
        s.put(arena);
        logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dkm::{DkmConfig, DkmLayer};
    use edkm_tensor::{ops as t, Device};

    fn palettized_pair(seed: u64) -> (Tensor, PalettizedLinear) {
        runtime::reset();
        let w = Tensor::randn(&[12, 20], DType::Bf16, Device::Cpu, seed).map(|v| v * 0.05);
        let dkm = DkmLayer::new(DkmConfig::with_bits(3));
        let pal = dkm.palettize(&w);
        (w, PalettizedLinear::new(pal))
    }

    #[test]
    fn forward_matches_decoded_matmul_exactly() {
        let (_w, lin) = palettized_pair(0);
        let x = Tensor::randn(&[5, 20], DType::F32, Device::Cpu, 1);
        let direct = lin.forward(&x);
        let decoded = lin.weights().decode();
        let reference = t::matmul(&x, &decoded.t());
        assert!(
            t::max_abs_diff(&direct, &reference) < 1e-4,
            "LUT-GEMM must match dense matmul on the decoded weights"
        );
        assert_eq!(direct.shape(), &[5, 12]);
    }

    #[test]
    fn forward_approximates_original_weights() {
        let (w, lin) = palettized_pair(2);
        let x = Tensor::randn(&[4, 20], DType::F32, Device::Cpu, 3);
        let approx = lin.forward(&x);
        let exact = t::matmul(&x, &w.t());
        // 3-bit clustering: close but not exact.
        let rel = t::max_abs_diff(&approx, &exact) / t::l2_norm(&exact).max(1e-9);
        assert!(rel < 0.5, "palettized forward too far off: {rel}");
        assert!(
            t::max_abs_diff(&approx, &exact) > 0.0,
            "must not be bit-identical"
        );
    }

    #[test]
    fn accessors() {
        let (_w, lin) = palettized_pair(4);
        assert_eq!(lin.out_features(), 12);
        assert_eq!(lin.in_features(), 20);
        assert!(lin.size_bytes() < 12 * 20 * 2, "smaller than bf16");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_input_width_panics() {
        let (_w, lin) = palettized_pair(5);
        let x = Tensor::zeros(&[2, 7], DType::F32, Device::Cpu);
        lin.forward(&x);
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let (_w, lin) = palettized_pair(6);
        let x = Tensor::zeros(&[3, 20], DType::F32, Device::Cpu);
        assert!(lin.forward(&x).to_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_batch_is_bit_identical_to_forward() {
        let (_w, lin) = palettized_pair(7);
        // A small and a large batch, both through the tiled kernel.
        for n in [33usize, 512] {
            let x = Tensor::randn(&[n, 20], DType::F32, Device::Cpu, 8);
            assert_eq!(
                lin.forward(&x).to_vec(),
                lin.forward_batch(&x).to_vec(),
                "threaded LUT-GEMM must match the serial loop bit for bit"
            );
        }
    }

    #[test]
    fn zero_output_features_yield_empty_result() {
        runtime::reset();
        let w = Tensor::zeros(&[0, 5], DType::F32, Device::Cpu);
        let centroids = Tensor::from_vec(vec![0.0, 1.0], &[2, 1], DType::F32, Device::Cpu);
        let lin = PalettizedLinear::new(crate::palettize::PalettizedTensor::from_nearest(
            &w, &centroids, 1, 1,
        ));
        let x = Tensor::randn(&[3, 5], DType::F32, Device::Cpu, 0);
        assert_eq!(lin.forward(&x).shape(), &[3, 0]);
        assert_eq!(lin.forward_batch(&x).shape(), &[3, 0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn forward_batch_wrong_width_panics() {
        let (_w, lin) = palettized_pair(9);
        lin.forward_batch(&Tensor::zeros(&[2, 7], DType::F32, Device::Cpu));
    }

    #[test]
    fn forward_delegates_to_batch_path_with_identical_ledger_charges() {
        runtime::reset(); // bind this thread to a private runtime/clock
        let (_w, lin) = palettized_pair(12);
        // A small and a large batch.
        for n in [3usize, 512] {
            let x = Tensor::randn(&[n, 20], DType::F32, Device::Cpu, 13);
            let t0 = runtime::sim_seconds();
            let a = lin.forward(&x);
            let forward_cost = runtime::sim_seconds() - t0;
            let t1 = runtime::sim_seconds();
            let b = lin.forward_batch(&x);
            let batch_cost = runtime::sim_seconds() - t1;
            let t2 = runtime::sim_seconds();
            let c = lin.forward_serial(&x);
            let serial_cost = runtime::sim_seconds() - t2;
            assert_eq!(a.to_vec(), b.to_vec(), "n={n}: outputs must be identical");
            assert_eq!(a.to_vec(), c.to_vec(), "n={n}: serial reference matches");
            // The clock advances by the same integer-picosecond quantum for
            // all three entry points (1e-12 absorbs f64 readout rounding).
            assert!(
                (forward_cost - batch_cost).abs() < 1e-12,
                "n={n}: same ledger charge: {forward_cost} vs {batch_cost}"
            );
            assert!(
                (forward_cost - serial_cost).abs() < 1e-12,
                "n={n}: same ledger charge: {forward_cost} vs {serial_cost}"
            );
            assert!(forward_cost > 0.0);
        }
    }

    fn tiny_bf16_model() -> edkm_nn::LlamaModel {
        edkm_nn::LlamaModel::new(edkm_nn::LlamaConfig::tiny(), DType::Bf16, Device::Cpu, 21)
    }

    #[test]
    fn lossless_palettized_model_matches_dense_logits() {
        runtime::reset();
        let dense = tiny_bf16_model();
        let served = PalettizedModel::from_dense(&dense, &CompressSpec::lossless()).unwrap();
        let ids = [1usize, 5, 2, 9];
        let full = dense.logits(&ids, 1, ids.len(), None);
        let mut cache = served.new_cache();
        let got = served.prefill(&ids, &mut cache);
        assert_eq!(got.shape(), full.value().shape());
        let diff = t::max_abs_diff(&got, full.value());
        // Same weights bit-for-bit; only the LUT-GEMM accumulation order
        // differs from the dense matmul.
        assert!(diff < 1e-4, "lossless serving drifted: {diff}");
        assert_eq!(cache.len(), ids.len());
    }

    #[test]
    fn decode_rows_are_independent_of_batch_composition() {
        runtime::reset();
        let dense = tiny_bf16_model();
        let served = PalettizedModel::from_dense(&dense, &CompressSpec::with_bits(3)).unwrap();
        // Two sequences with different prompts.
        let (p_a, p_b) = ([1usize, 2, 3], [4usize, 5]);
        let mut solo_a = served.new_cache();
        let mut solo_b = served.new_cache();
        served.prefill(&p_a, &mut solo_a);
        served.prefill(&p_b, &mut solo_b);
        let a_alone = served.decode_step(&[7], std::slice::from_mut(&mut solo_a));
        let b_alone = served.decode_step(&[8], std::slice::from_mut(&mut solo_b));
        // Same state, decoded batched.
        let mut bats = [served.new_cache(), served.new_cache()];
        served.forward_chunks(&[&p_a, &p_b], &mut bats);
        let both = served.decode_step(&[7, 8], &mut bats);
        let bv = both.to_vec();
        let vocab = served.config().vocab;
        assert_eq!(
            &bv[..vocab],
            &a_alone.to_vec()[..],
            "row A depends on A only"
        );
        assert_eq!(
            &bv[vocab..],
            &b_alone.to_vec()[..],
            "row B depends on B only"
        );
    }

    #[test]
    fn kv_cache_bytes_are_pool_charged_and_freed() {
        runtime::reset();
        let dense = tiny_bf16_model();
        let served = PalettizedModel::from_dense(&dense, &CompressSpec::with_bits(2)).unwrap();
        let baseline = runtime::cpu_live_bytes();
        {
            let mut cache = served.new_cache();
            served.prefill(&[1, 2, 3, 4], &mut cache);
            // Paged: charged at block granularity, exactly the blocks the
            // sequence's table holds.
            let pool = served.kv_pool();
            let expect = pool.blocks_for(4) * pool.block_bytes();
            assert_eq!(cache.bytes(), expect);
            assert_eq!(cache.block_table().len(), pool.blocks_for(4));
            assert_eq!(cache.len(), 4);
            assert_eq!(pool.blocks_in_use(), pool.blocks_for(4));
            assert!(runtime::cpu_live_bytes() >= baseline + expect);
        }
        assert_eq!(
            runtime::cpu_live_bytes(),
            baseline,
            "retiring the cache must return its bytes to the pool"
        );
        assert_eq!(served.kv_pool().blocks_in_use(), 0);
    }

    #[test]
    fn small_kv_blocks_charge_less_than_worst_case() {
        runtime::reset();
        let dense = tiny_bf16_model();
        let served = PalettizedModel::from_dense(&dense, &CompressSpec::with_bits(2))
            .unwrap()
            .with_kv_config(KvBlockConfig {
                block_tokens: 2,
                max_blocks: 0,
            });
        let mut cache = served.new_cache();
        served.prefill(&[1, 2, 3], &mut cache);
        // 3 tokens at 2 tokens/block: 2 blocks, not a max_seq reservation.
        assert_eq!(cache.block_table().len(), 2);
        let monolithic_worst =
            2 * served.config().n_layers * served.config().max_seq * served.config().d_model * 4;
        assert!(cache.bytes() < monolithic_worst);
    }

    #[test]
    fn from_compressed_reports_typed_errors() {
        runtime::reset();
        let dense = tiny_bf16_model();
        let cfg = *dense.config();
        let compressed = CompressionPipeline::new(CompressSpec::with_bits(2)).export(&dense);
        // Missing parameter.
        let mut entries = compressed.entries().to_vec();
        entries.retain(|(n, _)| n != "lm_head");
        let err = PalettizedModel::from_compressed(&CompressedModel::from_entries(entries), cfg)
            .unwrap_err();
        assert_eq!(err, ServeError::MissingParam("lm_head".into()));
        // Vector palettes are export-only.
        let mut spec = CompressSpec::vector(4, 2);
        spec.dkm.iters = 2;
        let vec_exported = CompressionPipeline::new(spec).export(&dense);
        match PalettizedModel::from_compressed(&vec_exported, cfg) {
            Err(ServeError::Unsupported(m)) => assert!(m.contains("vector")),
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // Wrong architecture.
        let mut bigger = cfg;
        bigger.d_model *= 2;
        bigger.n_heads *= 2;
        match PalettizedModel::from_compressed(&compressed, bigger) {
            Err(ServeError::Shape(_)) => {}
            other => panic!("expected Shape error, got {other:?}"),
        }
        assert!(ServeError::MissingParam("x".into())
            .to_string()
            .contains("x"));
    }

    #[test]
    fn from_dense_rejects_overrich_lossless_palette_with_typed_error() {
        runtime::reset();
        // An f32 model large enough that one projection has > 2^16 distinct
        // values: the lossless u16 palette cannot represent it, and the
        // builder must say so instead of panicking mid-export.
        let cfg = edkm_nn::LlamaConfig {
            vocab: 16,
            d_model: 64,
            n_heads: 2,
            n_layers: 1,
            d_ff: 1100, // gate_proj: 1100 × 64 = 70400 random f32 values
            max_seq: 8,
        };
        let dense = edkm_nn::LlamaModel::new(cfg, DType::F32, Device::Cpu, 77);
        match PalettizedModel::from_dense(&dense, &CompressSpec::lossless()) {
            Err(ServeError::Unsupported(m)) => {
                assert!(m.contains("distinct values"), "got: {m}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn forward_batch_accounts_every_flop_exactly_once_across_threads() {
        use std::sync::Arc;

        // Reference: one forward_batch on one thread.
        runtime::reset();
        // Batch 256 of a two-tile [32 × 600] layer clears
        // launch::FANOUT_MACS, so every call below also fans out its own
        // worker threads.
        let (n, out, inp) = (256usize, 32usize, 600usize);
        let w = Tensor::randn(&[out, inp], DType::F32, Device::Cpu, 10);
        let lut: Vec<f32> = (0..8).map(|c| (c as f32 - 3.5) * 0.02).collect();
        let lut = Tensor::from_vec(lut, &[8, 1], DType::F32, Device::Cpu);
        let lin = PalettizedLinear::new(PalettizedTensor::from_nearest(&w, &lut, 3, 1));
        assert!(n * out * (inp + lin.weights().k()) >= launch::FANOUT_MACS);
        let lin = Arc::new(lin);
        runtime::reset_peak(Device::Cpu);
        let t0 = runtime::sim_seconds();
        let allocs0 = runtime::pool(Device::Cpu).alloc_count();
        // The measured unit matches what each thread below does: allocate
        // the input, run the batch, drop both.
        let x = Tensor::randn(&[n, inp], DType::F32, Device::Cpu, 11);
        drop(lin.forward_batch(&x));
        drop(x);
        let one_call_seconds = runtime::sim_seconds() - t0;
        let one_call_allocs = runtime::pool(Device::Cpu).alloc_count() - allocs0;
        assert!(one_call_seconds > 0.0);

        // Four threads, all bound to one fresh runtime, each running the
        // same forward_batch (which itself fans out worker threads). The
        // shared ledgers must account exactly 4× one call: no lost updates,
        // no double counting, no bytes left behind.
        let rt = edkm_tensor::runtime::Runtime::new();
        let workers = 4;
        std::thread::scope(|s| {
            for _ in 0..workers {
                let lin = Arc::clone(&lin);
                let rt = rt.clone();
                s.spawn(move || {
                    let _g = runtime::bind(&rt);
                    let x = Tensor::randn(&[n, inp], DType::F32, Device::Cpu, 11);
                    drop(lin.forward_batch(&x));
                });
            }
        });
        let _g = runtime::bind(&rt);
        // The clock advance per call is a deterministic picosecond quantum,
        // so 4 concurrent calls must land on exactly 4x one call.
        assert!(
            (runtime::sim_seconds() - workers as f64 * one_call_seconds).abs() < 1e-12,
            "compute ledger lost or duplicated work: {} vs {}",
            runtime::sim_seconds(),
            workers as f64 * one_call_seconds
        );
        // Every input + output allocation of every thread hit the shared
        // pool (one x + one output per call), and every byte drained.
        assert_eq!(
            runtime::pool(Device::Cpu).alloc_count(),
            workers * one_call_allocs,
            "pool must see each thread's allocations exactly once"
        );
        assert_eq!(runtime::cpu_live_bytes(), 0, "all buffers must drain");
    }
}
