//! Differentiable K-Means weight clustering (the DKM layer the paper makes
//! memory-efficient).
//!
//! Weights attend to centroids through a softmax over negative squared
//! distances (the attention map of Fig. 1). Centroids are iteratively
//! refined Lloyd-style with gradients disabled, then one final iteration
//! runs differentiably so the task loss shapes the clustering through the
//! attention map. The clustered weight is `Ŵ = A·C*`.
//!
//! A weight row's attention row depends only on its bits, so distances and
//! softmaxes run once per distinct row (`uniquify::DistinctRows`): per 16-bit
//! pattern (or block of ≤ 4 patterns) when the weights are 16-bit, per row
//! otherwise. The centroid sums still visit every weight, in the dense
//! loop's order, so the result is bit-identical to clustering every row
//! (DESIGN.md §4). When the source weights are 16-bit, the layer also
//! annotates the attention map with the weights' bit patterns so the eDKM
//! hooks can uniquify it (Section 2.2).

use crate::palettize::{GroupedPalettized, PalettizedTensor};
use crate::uniquify::{self, DistinctRows, RowKeys};
use edkm_autograd::{save_tensor, softmax_backward, Var};
use edkm_tensor::{exact, ops as t, runtime, DType, Device, Tensor};
use std::cmp::Ordering;
use std::sync::Arc;

/// Softmax over the last axis, computed on the distinct rows of `x` and
/// expanded back to every row, whose output storage is annotated with
/// weight bit patterns *before* it is saved for backward — so the
/// saved-tensor hooks can uniquify the attention map (the save happens
/// inside this op).
fn softmax_annotated(x: &Var, rows: &DistinctRows, keys: Option<Arc<RowKeys>>) -> Var {
    let logits = x.value();
    let (k, device) = (*logits.shape().last().expect("rank >= 1"), logits.device());
    let distinct = logits.with_data(|l| rows.gather(l, k));
    let table = t::softmax_lastdim(&Tensor::from_vec(
        distinct,
        &[rows.len(), k],
        DType::F32,
        device,
    ));
    let expanded = table.with_data(|a| uniquify::reconstruct_wide(a, rows.index(), k));
    let value = Tensor::from_vec(expanded, logits.shape(), DType::F32, device);
    if let Some(keys) = keys {
        uniquify::annotate(value.storage_id(), keys);
    }
    let saved = vec![save_tensor(&value)];
    Var::custom(
        value,
        "softmax_annotated",
        vec![x.clone()],
        saved,
        Box::new(|g, s| vec![Some(softmax_backward(g, &s[0]))]),
    )
}

/// One Lloyd centroid update from the `[u, k]` attention rows `a` of the
/// distinct rows: `C[j] = Σ_p A[index[p], j]·W[p] / (Σ_p A[index[p], j] +
/// 1e-8)` over the `n` weight rows `w` (`[n, d]`, row-major).
///
/// One pass over the weights in `p` order, adding into `k` independent
/// lanes per sum, `k = 2^bits` for `bits` in `1..=8`: each lane sees the
/// same additions in the same order as the dense `matmul(Aᵀ, W)` and
/// `sum_axis(A, 0)` over the `[n, k]` map, so the centroids are
/// bit-identical to them. Each product `a·w` is formed exactly in f64 from
/// a widened copy of the weights (`exact`): the bits of the f32 product,
/// without an assist on each of the map's subnormals.
fn centroid_update(a: &Tensor, index: &[u32], w: &[f32], d: usize, device: Device) -> Tensor {
    let k = a.shape()[1];
    let n = index.len();
    let w = exact::widen(w);
    let c = a.with_data(|a| match k {
        2 => centroids::<2>(a, index, &w, d),
        4 => centroids::<4>(a, index, &w, d),
        8 => centroids::<8>(a, index, &w, d),
        16 => centroids::<16>(a, index, &w, d),
        32 => centroids::<32>(a, index, &w, d),
        64 => centroids::<64>(a, index, &w, d),
        128 => centroids::<128>(a, index, &w, d),
        256 => centroids::<256>(a, index, &w, d),
        _ => unreachable!("{k} centroids: k is 2^bits for bits in 1..=8"),
    });
    // The dense matmul and column sum's work.
    runtime::record_compute(((2 * d + 1) * n * k) as f64, device);
    Tensor::from_vec(c, &[k, d], DType::F32, device)
}

/// [`centroid_update`]'s `[K, d]` centroids over a compile-time `K`, which
/// lets the compiler keep every lane loop whole and vectorised. The
/// numerators are component-major (`[d, K]`), so each component's `K`
/// lanes are one array.
fn centroids<const K: usize>(a: &[f32], index: &[u32], w: &[f64], d: usize) -> Vec<f32> {
    let (a, _) = a.as_chunks::<K>();
    let mut num = vec![0.0f32; d * K];
    let (lanes, _) = num.as_chunks_mut::<K>();
    let mut den = [0.0f32; K];
    for (&r, w_row) in index.iter().zip(w.chunks_exact(d)) {
        let a_row = &a[r as usize];
        for (s, &av) in den.iter_mut().zip(a_row) {
            *s += av;
        }
        for (lane, &wv) in lanes.iter_mut().zip(w_row) {
            for (s, &av) in lane.iter_mut().zip(a_row) {
                *s += exact::mul(av, wv);
            }
        }
    }
    let mut c = Vec::with_capacity(K * d);
    for (j, &s) in den.iter().enumerate() {
        c.extend(lanes.iter().map(|lane| lane[j] / (s + 1e-8)));
    }
    c
}

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DkmInit {
    /// Quantile midpoints of the weight distribution (deterministic; the
    /// default — matches how palettization toolchains seed k-means).
    Quantile,
    /// k-means++ style greedy farthest-point seeding (deterministic given
    /// the seed).
    KmeansPlusPlus {
        /// Seed for the first centroid pick.
        seed: u64,
    },
    /// `k` evenly spaced points across the weight range.
    UniformRange,
}

/// DKM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DkmConfig {
    /// Palette bit width; `k = 2^bits` centroids.
    pub bits: u8,
    /// Clustering dimensionality (1 = scalar clustering, the paper's
    /// setting; >1 clusters d-dimensional weight blocks).
    pub cluster_dim: usize,
    /// Softmax temperature τ (scale-free: distances are normalized by the
    /// weight variance).
    pub temperature: f32,
    /// Maximum centroid-update iterations.
    pub iters: usize,
    /// Early-stop tolerance on centroid movement.
    pub tol: f32,
    /// Centroid initialization strategy.
    pub init: DkmInit,
}

impl DkmConfig {
    /// Default configuration for a given bit width (scalar clustering,
    /// τ = 0.05, up to 8 iterations, quantile init).
    pub fn with_bits(bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        DkmConfig {
            bits,
            cluster_dim: 1,
            temperature: 0.05,
            iters: 8,
            tol: 1e-4,
            init: DkmInit::Quantile,
        }
    }

    /// Vector-clustering configuration: `2^bits` centroids of dimension
    /// `dim`, i.e. `bits / dim` effective bits per weight. With `dim = 2`
    /// and 4-bit palettes this reaches 2 bits/weight — below what scalar
    /// clustering can express (the multi-dimensional extension of the DKM
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8` or `dim` is 0.
    pub fn with_vector(bits: u8, dim: usize) -> Self {
        assert!(dim >= 1, "cluster_dim must be >= 1");
        DkmConfig {
            cluster_dim: dim,
            ..DkmConfig::with_bits(bits)
        }
    }

    /// Number of centroids `|C| = 2^bits`.
    pub fn k(&self) -> usize {
        1usize << self.bits
    }

    /// Index bits amortized over the weights of one block:
    /// `bits / cluster_dim` (2.0 for 4-bit palettes of 2-element blocks).
    /// The palette (LUT) cost is excluded, matching how the paper quotes
    /// "3 bit/weight".
    pub fn effective_bits_per_weight(&self) -> f64 {
        f64::from(self.bits) / self.cluster_dim as f64
    }
}

impl Default for DkmConfig {
    fn default() -> Self {
        DkmConfig::with_bits(3) // the paper's headline configuration
    }
}

/// Result of clustering one weight tensor.
#[derive(Debug)]
pub struct DkmOutput {
    /// Differentiable soft-clustered weights, same shape as the input.
    pub soft: Var,
    /// Final centroids `[k, cluster_dim]`.
    pub centroids: Tensor,
    /// Lloyd iterations actually run before the differentiable one.
    pub iterations_run: usize,
}

/// The train-time weight clustering layer.
#[derive(Debug, Clone)]
pub struct DkmLayer {
    config: DkmConfig,
}

impl DkmLayer {
    /// Layer with the given configuration.
    pub fn new(config: DkmConfig) -> Self {
        DkmLayer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DkmConfig {
        &self.config
    }

    /// Centroid init per the configured [`DkmInit`] strategy: `[k, d]`,
    /// row-major. `w` holds the `n` weight rows and `distinct` the `u`
    /// distinct rows that `rows` numbers; every strategy picks the
    /// centroids, bit for bit, that it would pick scanning all `n` rows.
    fn init_centroids(&self, w: &[f32], distinct: &[f32], rows: &DistinctRows) -> Vec<f32> {
        let d = self.config.cluster_dim;
        let k = self.config.k();
        let n = rows.index().len();
        let u = rows.len();
        fn row(data: &[f32], d: usize, i: usize) -> &[f32] {
            &data[i * d..(i + 1) * d]
        }
        match self.config.init {
            DkmInit::Quantile => {
                // Quantile midpoints of the rows sorted by first component,
                // ties in row order: walk the distinct rows sorted the same
                // way, each standing for its count of rows.
                let cmp = |a: f32, b: f32| a.partial_cmp(&b).unwrap_or(Ordering::Equal);
                let mut count = vec![0usize; u];
                for &r in rows.index() {
                    count[r as usize] += 1;
                }
                let key = |r: usize| distinct[r * d];
                let mut order: Vec<usize> = (0..u).collect();
                order.sort_by(|&a, &b| cmp(key(a), key(b)));
                // order[s] covers sorted positions start..start + count.
                let (mut s, mut start) = (0, 0);
                let mut c = Vec::with_capacity(k * d);
                for j in 0..k {
                    let pos = ((((j as f64 + 0.5) / k as f64) * n as f64) as usize).min(n - 1);
                    while start + count[order[s]] <= pos {
                        start += count[order[s]];
                        s += 1;
                    }
                    let v = key(order[s]);
                    let tied = |t: usize| cmp(key(order[t]), v) == Ordering::Equal;
                    let (mut lo, mut below) = (s, start);
                    while lo > 0 && tied(lo - 1) {
                        lo -= 1;
                        below -= count[order[lo]];
                    }
                    if lo == s && (s + 1 == u || !tied(s + 1)) {
                        c.extend_from_slice(row(distinct, d, order[s]));
                    } else {
                        // Distinct rows that tie (±0, or blocks sharing a
                        // first component) interleave in row order.
                        let i = (0..n)
                            .filter(|&i| cmp(w[i * d], v) == Ordering::Equal)
                            .nth(pos - below)
                            .expect("the tie holds the quantile position");
                        c.extend_from_slice(row(w, d, i));
                    }
                }
                c
            }
            DkmInit::KmeansPlusPlus { seed } => {
                // Greedy farthest-point: start from a seeded row, then pick
                // the first row with maximal distance to its nearest
                // centroid. Equal rows have equal distances, so the first
                // such distinct row is the first such row.
                let mut c = row(w, d, (seed as usize) % n).to_vec();
                let mut nearest = vec![f32::INFINITY; u];
                for _ in 1..k {
                    let last = &c[c.len() - d..];
                    let mut best = 0usize;
                    let mut best_d = -1.0f32;
                    for (r, near) in nearest.iter_mut().enumerate() {
                        let dist: f32 = row(distinct, d, r)
                            .iter()
                            .zip(last)
                            .map(|(&a, &b)| (a - b) * (a - b))
                            .sum();
                        if dist < *near {
                            *near = dist;
                        }
                        if *near > best_d {
                            best_d = *near;
                            best = r;
                        }
                    }
                    c.extend_from_slice(row(distinct, d, best));
                }
                c
            }
            DkmInit::UniformRange => {
                // Per component: k evenly spaced values over [min, max] of
                // every row (`f32::min` may keep either zero of a ±0 pair,
                // so the scan keeps the rows' order).
                let mut c = vec![0.0f32; k * d];
                for comp in 0..d {
                    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                    for i in 0..n {
                        let v = w[i * d + comp];
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    for j in 0..k {
                        let t = (j as f32 + 0.5) / k as f32;
                        c[j * d + comp] = lo + t * (hi - lo);
                    }
                }
                c
            }
        }
    }

    /// Attention sharpness: 1 / (τ · var(w)), detached.
    fn logit_scale(&self, data: &[f32]) -> f32 {
        let n = data.len().max(1) as f32;
        let mean: f32 = data.iter().sum::<f32>() / n;
        let var: f32 = data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        1.0 / (self.config.temperature * var.max(1e-12))
    }

    /// Differentiably cluster `w`, returning soft weights with the same
    /// shape plus the final centroids.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8` (`k = 2^bits` centroids) or
    /// `w.numel()` is not divisible by `cluster_dim`.
    pub fn cluster(&self, w: &Var) -> DkmOutput {
        assert!((1..=8).contains(&self.config.bits), "bits must be in 1..=8");
        let shape = w.value().shape().to_vec();
        let d = self.config.cluster_dim;
        let numel = w.value().numel();
        assert_eq!(
            numel % d,
            0,
            "numel {numel} not divisible by cluster_dim {d}"
        );
        let n = numel / d;
        let k = self.config.k();

        let w2 = w.reshape(&[n, d]);
        let device = w2.value().device();
        let dtype = w2.value().dtype();
        let data = w2.value().to_vec();
        let scale = self.logit_scale(&data);

        // Rows keyed by their bit patterns (16-bit weights, blocks of ≤ 4)
        // collapse to their distinct rows; other rows are all distinct.
        let keys = (d <= uniquify::MAX_KEY_DIM && dtype.is_16bit()).then(|| {
            let patterns: Vec<u16> = data.iter().filter_map(|&v| dtype.encode16(v)).collect();
            Arc::new(RowKeys::blocks(&patterns, d))
        });
        let rows = keys
            .as_deref()
            .map_or_else(|| DistinctRows::identity(n), DistinctRows::of);
        let distinct_data = rows.gather(&data, d);
        let mut c = Tensor::from_vec(
            self.init_centroids(&data, &distinct_data, &rows),
            &[k, d],
            DType::F32,
            device,
        );
        let distinct = Tensor::from_vec(distinct_data, &[rows.len(), d], DType::F32, device);

        // Lloyd iterations, detached (the reference DKM detaches all but the
        // final iteration): distances and softmax per distinct row.
        let mut iterations_run = 0;
        for _ in 0..self.config.iters.saturating_sub(1) {
            let logits = t::mul_scalar(&t::neg_sqdist(&distinct, &c), scale);
            let a = t::softmax_lastdim(&logits);
            let c_new = centroid_update(&a, rows.index(), &data, d, device);
            let moved = t::max_abs_diff(&c_new, &c);
            c = c_new;
            iterations_run += 1;
            if moved < self.config.tol {
                break;
            }
        }

        // Final differentiable iteration: attention map + centroid update +
        // soft assignment, all on the tape. The attention map is annotated
        // with the weights' bit patterns (when 16-bit, blocks of ≤ 4) so
        // the hooks can uniquify every save of it.
        let c_const = Var::constant(c);
        let logits = w2.neg_sqdist(&c_const).mul_scalar(scale);
        let a = softmax_annotated(&logits, &rows, keys); // the big [n, k] attention map

        let num = a.t().matmul(&w2); // [k, d] — saves Aᵀ (a view of A)
        let den = a.sum_axis(0).reshape(&[k, 1]).add_scalar(1e-8);
        let c_star = num.div(&den);
        let soft = a.matmul(&c_star).reshape(&shape); // saves A again

        DkmOutput {
            centroids: c_star.value().clone(),
            soft,
            iterations_run,
        }
    }

    /// Cluster a plain tensor (no gradient tracking).
    pub fn cluster_tensor(&self, w: &Tensor) -> DkmOutput {
        self.cluster(&Var::constant(w.clone()))
    }

    /// Hard-assign `w` to its nearest centroids and pack into a palettized
    /// tensor (the deployment artifact: LUT + n-bit indices).
    pub fn palettize(&self, w: &Tensor) -> PalettizedTensor {
        let out = self.cluster_tensor(w);
        PalettizedTensor::from_nearest(w, &out.centroids, self.config.bits, self.config.cluster_dim)
    }

    /// Palettize a `[rows, cols]` matrix with one independently clustered
    /// LUT per group of `rows_per_group` consecutive rows (per-grouped-
    /// channel palettization; `0` means one group for the whole matrix).
    /// The last group may be smaller.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2 or a group's element count is not
    /// divisible by `cluster_dim`.
    pub fn palettize_grouped(&self, w: &Tensor, rows_per_group: usize) -> GroupedPalettized {
        assert_eq!(w.rank(), 2, "grouped palettization expects [rows, cols]");
        let rows = w.shape()[0];
        let g = if rows_per_group == 0 || rows_per_group > rows {
            rows
        } else {
            rows_per_group
        };
        let mut groups = Vec::with_capacity(rows.div_ceil(g));
        let mut start = 0;
        while start < rows {
            let len = g.min(rows - start);
            let slab = w.slice(0, start, len).contiguous();
            groups.push(self.palettize(&slab));
            start += len;
        }
        GroupedPalettized::from_parts(groups, g, w.shape().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_autograd::check_gradients;
    use edkm_tensor::{runtime, Device};

    fn layer(bits: u8) -> DkmLayer {
        DkmLayer::new(DkmConfig::with_bits(bits))
    }

    /// The dense initialisation `init_centroids` replaced: scans, sorts and
    /// picks among all `n` rows.
    fn init_dense(config: &DkmConfig, data: &[f32]) -> Vec<f32> {
        let d = config.cluster_dim;
        let k = config.k();
        let n = data.len() / d;
        match config.init {
            DkmInit::Quantile => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    data[a * d]
                        .partial_cmp(&data[b * d])
                        .unwrap_or(Ordering::Equal)
                });
                let mut c = Vec::with_capacity(k * d);
                for j in 0..k {
                    let pos = (((j as f64 + 0.5) / k as f64) * n as f64) as usize;
                    let row = order[pos.min(n - 1)];
                    c.extend_from_slice(&data[row * d..(row + 1) * d]);
                }
                c
            }
            DkmInit::KmeansPlusPlus { seed } => {
                let mut c: Vec<f32> = Vec::with_capacity(k * d);
                let first = (seed as usize) % n;
                c.extend_from_slice(&data[first * d..(first + 1) * d]);
                let mut nearest = vec![f32::INFINITY; n];
                for _ in 1..k {
                    let last = &c[c.len() - d..];
                    let mut best = 0usize;
                    let mut best_d = -1.0f32;
                    for i in 0..n {
                        let row = &data[i * d..(i + 1) * d];
                        let dist: f32 =
                            row.iter().zip(last).map(|(&a, &b)| (a - b) * (a - b)).sum();
                        if dist < nearest[i] {
                            nearest[i] = dist;
                        }
                        if nearest[i] > best_d {
                            best_d = nearest[i];
                            best = i;
                        }
                    }
                    c.extend_from_slice(&data[best * d..(best + 1) * d]);
                }
                c
            }
            DkmInit::UniformRange => {
                let mut c = vec![0.0f32; k * d];
                for comp in 0..d {
                    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                    for i in 0..n {
                        let v = data[i * d + comp];
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    for j in 0..k {
                        let t = (j as f32 + 0.5) / k as f32;
                        c[j * d + comp] = lo + t * (hi - lo);
                    }
                }
                c
            }
        }
    }

    /// The dense loop `DkmLayer::cluster` replaced: every Lloyd iteration
    /// builds the `[n, k]` map and sums it with `matmul(Aᵀ, W)` and
    /// `sum_axis(A, 0)`, and the differentiable softmax treats every row as
    /// distinct. The oracle the distinct-row loop must match bit for bit.
    fn cluster_dense(layer: &DkmLayer, w: &Var) -> DkmOutput {
        let config = layer.config;
        let shape = w.value().shape().to_vec();
        let d = config.cluster_dim;
        let n = w.value().numel() / d;
        let k = config.k();
        let w2 = w.reshape(&[n, d]);
        let wt = w2.value().clone();
        let data = wt.to_vec();
        let scale = layer.logit_scale(&data);
        let mut c = Tensor::from_vec(init_dense(&config, &data), &[k, d], DType::F32, wt.device());
        let mut iterations_run = 0;
        for _ in 0..config.iters.saturating_sub(1) {
            let logits = t::mul_scalar(&t::neg_sqdist(&wt, &c), scale);
            let a = t::softmax_lastdim(&logits);
            let num = t::matmul(&a.t(), &wt);
            let den = t::add_scalar(&t::sum_axis(&a, 0).reshape(&[k, 1]), 1e-8);
            let c_new = t::div(&num, &den);
            let moved = t::max_abs_diff(&c_new, &c);
            c = c_new;
            iterations_run += 1;
            if moved < config.tol {
                break;
            }
        }
        let c_const = Var::constant(c);
        let logits = w2.neg_sqdist(&c_const).mul_scalar(scale);
        let keys = (d <= uniquify::MAX_KEY_DIM && wt.dtype().is_16bit())
            .then(|| Arc::new(RowKeys::blocks(&wt.bits16().unwrap(), d)));
        let a = softmax_annotated(&logits, &DistinctRows::identity(n), keys);
        let num = a.t().matmul(&w2);
        let den = a.sum_axis(0).reshape(&[k, 1]).add_scalar(1e-8);
        let c_star = num.div(&den);
        let soft = a.matmul(&c_star).reshape(&shape);
        DkmOutput {
            centroids: c_star.value().clone(),
            soft,
            iterations_run,
        }
    }

    fn bits_of(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    /// Everything one clustering run yields: centroid, soft-value and
    /// weight-gradient bits, iterations run, and the hook counters.
    type Run = (
        Vec<u32>,
        Vec<u32>,
        usize,
        Vec<u32>,
        Option<crate::hooks::HookStatsSnapshot>,
    );

    fn run_cluster(
        cluster: fn(&DkmLayer, &Var) -> DkmOutput,
        lay: &DkmLayer,
        w: &Tensor,
        hooked: bool,
    ) -> Run {
        use crate::hooks::{EdkmConfig, EdkmHooks};
        use edkm_autograd::{push_hooks, SavedTensorHooks};
        runtime::reset();
        uniquify::clear_annotations();
        let probe = Tensor::randn(w.shape(), DType::F32, w.device(), 99);
        let hooks = Arc::new(EdkmHooks::new(EdkmConfig::full(4)));
        let guard = hooked.then(|| push_hooks(Arc::clone(&hooks) as Arc<dyn SavedTensorHooks>));
        let wv = Var::param(w.clone());
        let out = cluster(lay, &wv);
        out.soft.mul(&Var::constant(probe)).sum_all().backward();
        drop(guard);
        uniquify::clear_annotations();
        (
            bits_of(&out.centroids),
            bits_of(out.soft.value()),
            out.iterations_run,
            bits_of(&wv.grad().expect("weights receive gradients")),
            hooked.then(|| hooks.stats()),
        )
    }

    /// 120 weights (whole blocks for cluster_dim 1, 2, 4 and 5) per input
    /// family: seeded normal, heavily repeated values, ±0 among repeats,
    /// all equal.
    fn oracle_inputs(dtype: DType) -> Vec<(&'static str, Tensor)> {
        let n = 120;
        let device = Device::gpu();
        let normal = Tensor::randn(&[12, 10], dtype, device, 31).map(|v| v * 0.02);
        let repeated: Vec<f32> = (0..n)
            .map(|i| [-0.03, 0.01, 0.02, 0.01, 0.05][(i * 7) % 5])
            .collect();
        let signed_zeros: Vec<f32> = (0..n)
            .map(|i| [0.0, -0.0, 0.015, -0.0, 0.0, -0.02, 0.0][(i * 3) % 7])
            .collect();
        vec![
            ("normal", normal),
            (
                "repeated",
                Tensor::from_vec(repeated, &[12, 10], dtype, device),
            ),
            (
                "signed zeros",
                Tensor::from_vec(signed_zeros, &[12, 10], dtype, device),
            ),
            ("all equal", Tensor::full(0.5, &[12, 10], dtype, device)),
        ]
    }

    #[test]
    fn distinct_row_loop_matches_dense_oracle_bit_for_bit() {
        for dtype in [DType::Bf16, DType::F16, DType::F32] {
            for (family, w) in oracle_inputs(dtype) {
                for cluster_dim in [1, 2, 4, 5] {
                    for bits in 1..=4 {
                        for iters in [1, 2, 8] {
                            for init in [
                                DkmInit::Quantile,
                                DkmInit::KmeansPlusPlus { seed: 3 },
                                DkmInit::UniformRange,
                            ] {
                                let lay = DkmLayer::new(DkmConfig {
                                    iters,
                                    init,
                                    ..DkmConfig::with_vector(bits, cluster_dim)
                                });
                                for hooked in [false, true] {
                                    let got = run_cluster(DkmLayer::cluster, &lay, &w, hooked);
                                    let want = run_cluster(cluster_dense, &lay, &w, hooked);
                                    assert!(
                                        got == want,
                                        "{dtype} {family}, dim {cluster_dim}, {bits} bits, \
                                         {iters} iters, {init:?}, hooked {hooked}: \
                                         distinct-row clustering differs from the dense loop"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn centroid_update_with_injected_subnormals_matches_the_f32_loop() {
        runtime::reset();
        let (u, n) = (300, 2048);
        for bits in 1..=8 {
            let k = 1usize << bits;
            // Attention rows with subnormal entries (every third, spread
            // over the subnormal range), exact zeros and signed zeros.
            let a: Vec<f32> = Tensor::rand(&[u, k], DType::F32, Device::Cpu, 51)
                .to_vec()
                .iter()
                .enumerate()
                .map(|(i, &v)| match i % 7 {
                    1 | 4 => f32::from_bits(1 + (i as u32).wrapping_mul(2_654_435_761) % 0x7f_ffff),
                    2 => v * 1e-37,
                    5 => 0.0,
                    _ => v,
                })
                .collect();
            assert!(a.iter().filter(|v| v.is_subnormal()).count() > u * k / 4);
            let a = Tensor::from_vec(a, &[u, k], DType::F32, Device::Cpu);
            let index: Vec<u32> = (0..n as u32).map(|p| (p * 37) % u as u32).collect();
            for d in [1, 2, 3] {
                let w: Vec<f32> = Tensor::randn(&[n * d], DType::F32, Device::Cpu, 52)
                    .to_vec()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if i % 13 == 0 { -0.0 } else { v * 0.02 })
                    .collect();
                let got = centroid_update(&a, &index, &w, d, Device::Cpu).to_vec();
                // The plain loop: f32 products added in `p` order per lane.
                let av = a.to_vec();
                let mut num = vec![0.0f32; k * d];
                let mut den = vec![0.0f32; k];
                for (p, &r) in index.iter().enumerate() {
                    for j in 0..k {
                        let a_pj = av[r as usize * k + j];
                        den[j] += a_pj;
                        for comp in 0..d {
                            num[j * d + comp] += a_pj * w[p * d + comp];
                        }
                    }
                }
                let want: Vec<f32> = (0..k * d).map(|i| num[i] / (den[i / d] + 1e-8)).collect();
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{bits} bits, cluster_dim {d}"
                );
            }
        }
    }

    #[test]
    fn config_k() {
        assert_eq!(DkmConfig::with_bits(3).k(), 8);
        assert_eq!(DkmConfig::with_bits(1).k(), 2);
        assert_eq!(DkmConfig::default().bits, 3);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn zero_bits_panics() {
        DkmConfig::with_bits(0);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn cluster_rejects_a_config_of_nine_bits() {
        let lay = DkmLayer::new(DkmConfig {
            bits: 9,
            ..DkmConfig::default()
        });
        lay.cluster_tensor(&Tensor::zeros(&[4], DType::F32, Device::Cpu));
    }

    #[test]
    fn clusters_to_few_values() {
        runtime::reset();
        let w = Tensor::randn(&[32, 16], DType::F32, Device::Cpu, 0).map(|v| v * 0.02);
        let out = layer(2).cluster_tensor(&w);
        assert_eq!(out.soft.value().shape(), &[32, 16]);
        assert_eq!(out.centroids.shape(), &[4, 1]);
        // Soft weights concentrate near centroids: hardening must be close.
        let hard = layer(2).palettize(&w).decode();
        let unique: std::collections::HashSet<u32> =
            hard.to_vec().iter().map(|v| v.to_bits()).collect();
        assert!(
            unique.len() <= 4,
            "at most k distinct values, got {}",
            unique.len()
        );
    }

    #[test]
    fn two_well_separated_groups_are_found() {
        runtime::reset();
        // Values tightly packed around -1 and +1: 1-bit clustering must put
        // centroids near ±1.
        let mut data = vec![];
        for i in 0..64 {
            data.push(if i % 2 == 0 {
                -1.0 + 0.001 * (i as f32) / 64.0
            } else {
                1.0 - 0.001 * (i as f32) / 64.0
            });
        }
        let w = Tensor::from_vec(data, &[64], DType::F32, Device::Cpu);
        let out = layer(1).cluster_tensor(&w);
        let mut c = out.centroids.to_vec();
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((c[0] + 1.0).abs() < 0.05, "low centroid {}", c[0]);
        assert!((c[1] - 1.0).abs() < 0.05, "high centroid {}", c[1]);
        assert!(out.iterations_run >= 1);
    }

    #[test]
    fn soft_weights_reduce_quantization_error_vs_extremes() {
        runtime::reset();
        let w = Tensor::randn(&[256], DType::F32, Device::Cpu, 1).map(|v| v * 0.02);
        let out = layer(3).cluster_tensor(&w);
        let err = t::max_abs_diff(out.soft.value(), &w);
        // 8 centroids over ~±0.06: soft error well under the full range.
        assert!(err < 0.02, "soft clustering error too large: {err}");
    }

    #[test]
    fn gradients_flow_to_weights() {
        runtime::reset();
        let w = Var::param(Tensor::randn(&[16, 4], DType::F32, Device::Cpu, 2).map(|v| v * 0.02));
        let out = layer(2).cluster(&w);
        out.soft.sum_all().backward();
        let g = w
            .grad()
            .expect("weights must receive gradients through DKM");
        assert_eq!(g.shape(), &[16, 4]);
        assert!(t::l2_norm(&g) > 0.0);
    }

    #[test]
    fn gradcheck_final_differentiable_iteration() {
        // The full layer is not numerically checkable (the Lloyd iterations
        // and quantile init are detached by design, exactly as in DKM), so
        // we check the differentiable part in isolation: attention map →
        // centroid update → soft assignment, against *fixed* centroids.
        runtime::reset();
        let w = Tensor::randn(&[12, 1], DType::F32, Device::Cpu, 3);
        let c = Tensor::from_vec(vec![-1.0, -0.2, 0.4, 1.2], &[4, 1], DType::F32, Device::Cpu);
        check_gradients(
            |vs| {
                let c_const = Var::constant(c.clone());
                let a = vs[0].neg_sqdist(&c_const).mul_scalar(2.0).softmax_lastdim();
                let num = a.t().matmul(&vs[0]);
                let den = a.sum_axis(0).reshape(&[4, 1]).add_scalar(1e-8);
                a.matmul(&num.div(&den)).square().sum_all()
            },
            &[w],
            1e-3,
            5e-2,
        )
        .unwrap();
    }

    #[test]
    fn annotated_softmax_matches_plain_softmax_gradients() {
        runtime::reset();
        let x = Tensor::randn(&[6, 4], DType::F32, Device::Cpu, 9);
        let weight = Tensor::randn(&[6, 4], DType::F32, Device::Cpu, 10);
        // Values equal.
        let a =
            super::softmax_annotated(&Var::constant(x.clone()), &DistinctRows::identity(6), None);
        let b = Var::constant(x.clone()).softmax_lastdim();
        assert!(t::allclose(a.value(), b.value(), 1e-7));
        // Gradients equal.
        let grad_of = |annotated: bool| -> Vec<f32> {
            let v = Var::param(x.clone());
            let s = if annotated {
                super::softmax_annotated(&v, &DistinctRows::identity(6), None)
            } else {
                v.softmax_lastdim()
            };
            s.mul(&Var::constant(weight.clone())).sum_all().backward();
            v.grad().unwrap().to_vec()
        };
        let ga = grad_of(true);
        let gb = grad_of(false);
        for (x, y) in ga.iter().zip(&gb) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn bf16_scalar_clustering_annotates_attention_map() {
        runtime::reset();
        uniquify::clear_annotations();
        let w = Var::param(Tensor::randn(&[64], DType::Bf16, Device::Cpu, 4).map(|v| v * 0.02));
        let _out = layer(3).cluster(&w);
        assert_eq!(
            uniquify::annotation_count(),
            1,
            "clustering a 16-bit weight must annotate its attention map"
        );
        uniquify::clear_annotations();
    }

    #[test]
    fn f32_clustering_does_not_annotate() {
        runtime::reset();
        uniquify::clear_annotations();
        let w = Var::param(Tensor::randn(&[64], DType::F32, Device::Cpu, 5));
        let _out = layer(3).cluster(&w);
        assert_eq!(uniquify::annotation_count(), 0);
    }

    #[test]
    fn with_vector_sub_bit_accounting() {
        let cfg = DkmConfig::with_vector(4, 2);
        assert_eq!(cfg.k(), 16);
        assert_eq!(cfg.cluster_dim, 2);
        assert!((cfg.effective_bits_per_weight() - 2.0).abs() < 1e-12);
        assert!((DkmConfig::with_bits(3).effective_bits_per_weight() - 3.0).abs() < 1e-12);
        // 4-bit palette over 4-element blocks: 1 bit/weight.
        assert!((DkmConfig::with_vector(4, 4).effective_bits_per_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bf16_vector_clustering_annotates_block_keys() {
        runtime::reset();
        uniquify::clear_annotations();
        let w = Var::param(Tensor::randn(&[64], DType::Bf16, Device::Cpu, 8).map(|v| v * 0.02));
        let _out = DkmLayer::new(DkmConfig::with_vector(3, 2)).cluster(&w);
        assert_eq!(
            uniquify::annotation_count(),
            1,
            "vector clustering of 16-bit weights must annotate block keys"
        );
        uniquify::clear_annotations();
    }

    #[test]
    fn vector_gradients_flow_and_match_hooked_run() {
        use crate::hooks::{EdkmConfig, EdkmHooks};
        use edkm_autograd::push_hooks;
        use edkm_autograd::SavedTensorHooks;
        // Exactness of eDKM must extend to the vector path: gradients with
        // full hooks installed equal gradients without, bit for bit.
        let run = |hooked: bool| -> Vec<f32> {
            runtime::reset();
            uniquify::clear_annotations();
            let w = Var::param(
                Tensor::randn(&[16, 4], DType::Bf16, Device::gpu(), 13).map(|v| v * 0.02),
            );
            let lay = DkmLayer::new(DkmConfig::with_vector(3, 2));
            let hooks = Arc::new(EdkmHooks::new(EdkmConfig::full(4)));
            let _g = hooked.then(|| push_hooks(hooks as Arc<dyn SavedTensorHooks>));
            let out = lay.cluster(&w);
            out.soft.square().sum_all().backward();
            w.grad().unwrap().to_vec()
        };
        assert_eq!(run(true), run(false));
        uniquify::clear_annotations();
    }

    #[test]
    fn vector_clustering_dim2() {
        runtime::reset();
        let lay = DkmLayer::new(DkmConfig {
            bits: 2,
            cluster_dim: 2,
            temperature: 0.1,
            iters: 5,
            tol: 1e-5,
            init: DkmInit::Quantile,
        });
        let w = Tensor::randn(&[16, 4], DType::F32, Device::Cpu, 6);
        let out = lay.cluster_tensor(&w);
        assert_eq!(out.centroids.shape(), &[4, 2]);
        assert_eq!(out.soft.value().shape(), &[16, 4]);
    }

    #[test]
    fn all_init_strategies_produce_valid_centroids() {
        runtime::reset();
        let w = Tensor::randn(&[512], DType::F32, Device::Cpu, 7).map(|v| v * 0.02);
        for init in [
            DkmInit::Quantile,
            DkmInit::KmeansPlusPlus { seed: 3 },
            DkmInit::UniformRange,
        ] {
            let lay = DkmLayer::new(DkmConfig {
                init,
                ..DkmConfig::with_bits(3)
            });
            let out = lay.cluster_tensor(&w);
            assert_eq!(out.centroids.shape(), &[8, 1], "{init:?}");
            // Soft clustering with 8 centroids over ~N(0, 0.02): the max
            // error stays a small fraction of the ±0.06 weight range.
            let err = t::max_abs_diff(out.soft.value(), &w);
            assert!(err < 0.05, "{init:?} error {err}");
        }
    }

    #[test]
    fn uniform_init_spans_the_range() {
        runtime::reset();
        let w = Tensor::from_vec(
            (0..100).map(|i| i as f32 / 100.0).collect(),
            &[100],
            DType::F32,
            Device::Cpu,
        );
        let lay = DkmLayer::new(DkmConfig {
            init: DkmInit::UniformRange,
            iters: 1, // inspect near-initial centroids
            ..DkmConfig::with_bits(2)
        });
        let out = lay.cluster_tensor(&w);
        let mut c = out.centroids.to_vec();
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(c[0] < 0.3 && c[3] > 0.7, "centroids must span: {c:?}");
    }

    #[test]
    fn kmeanspp_separates_distinct_modes() {
        runtime::reset();
        // Four tight modes: farthest-point seeding must land in all four.
        let mut data = Vec::new();
        for i in 0..200 {
            data.push([-3.0f32, -1.0, 1.0, 3.0][i % 4] + 0.001 * (i as f32 / 200.0));
        }
        let w = Tensor::from_vec(data, &[200], DType::F32, Device::Cpu);
        let lay = DkmLayer::new(DkmConfig {
            init: DkmInit::KmeansPlusPlus { seed: 0 },
            ..DkmConfig::with_bits(2)
        });
        let out = lay.cluster_tensor(&w);
        let mut c = out.centroids.to_vec();
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (ci, target) in c.iter().zip([-3.0f32, -1.0, 1.0, 3.0]) {
            assert!((ci - target).abs() < 0.1, "centroids {c:?}");
        }
    }

    #[test]
    fn lower_temperature_hardens_soft_weights() {
        runtime::reset();
        // Sharper attention (smaller τ) concentrates each weight's mass on
        // its nearest centroid, so the soft output sits closer to the hard
        // (palettized) assignment — the mechanism behind τ-annealing.
        let w = Tensor::randn(&[512], DType::F32, Device::Cpu, 21).map(|v| v * 0.02);
        // Mean gap, not max: weights sitting exactly between two centroids
        // keep 50/50 attention at any τ, so the max is τ-insensitive.
        let gap = |temp: f32| {
            let lay = DkmLayer::new(DkmConfig {
                temperature: temp,
                ..DkmConfig::with_bits(3)
            });
            let out = lay.cluster_tensor(&w);
            let hard = PalettizedTensor::from_nearest(&w, &out.centroids, 3, 1).decode();
            let (s, h) = (out.soft.value().to_vec(), hard.to_vec());
            s.iter().zip(&h).map(|(a, b)| (a - b).abs()).sum::<f32>() / s.len() as f32
        };
        let (sharp, diffuse) = (gap(0.005), gap(0.5));
        assert!(
            sharp < diffuse / 2.0,
            "τ=0.005 mean gap {sharp} must be far below τ=0.5 gap {diffuse}"
        );
    }

    #[test]
    fn early_stop_on_converged_clusters() {
        runtime::reset();
        // All-equal weights converge after the first update.
        let w = Tensor::full(0.5, &[128], DType::F32, Device::Cpu);
        let out = layer(2).cluster_tensor(&w);
        assert!(out.iterations_run <= 2, "ran {}", out.iterations_run);
    }
}
