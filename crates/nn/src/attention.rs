//! Multi-head causal self-attention with rotary position embeddings.

use crate::{Linear, WeightHook};
use edkm_autograd::Var;
use edkm_tensor::{DType, Device, Tensor};

/// Precompute RoPE rotation tables for `t` positions of head dim `hd`.
///
/// Returns `(cos, sin)` flattened `[t, hd/2]`.
pub fn rope_tables(t: usize, hd: usize, theta: f32) -> (Vec<f32>, Vec<f32>) {
    let half = hd / 2;
    let mut cos = Vec::with_capacity(t * half);
    let mut sin = Vec::with_capacity(t * half);
    for p in 0..t {
        for i in 0..half {
            let freq = 1.0 / theta.powf(2.0 * i as f32 / hd as f32);
            let ang = p as f32 * freq;
            cos.push(ang.cos());
            sin.push(ang.sin());
        }
    }
    (cos, sin)
}

/// Apply rotary position embeddings to `[bh, t, hd]` as a fused
/// differentiable op (GPT-NeoX half-split convention).
///
/// The backward pass is the transposed rotation; nothing needs to be saved.
///
/// # Panics
///
/// Panics if `x` is not `[bh, t, hd]` with `hd` even, or table lengths
/// disagree with `t·hd/2`.
pub(crate) fn rope(x: &Var, cos: &[f32], sin: &[f32]) -> Var {
    let shape = x.value().shape().to_vec();
    assert_eq!(shape.len(), 3, "rope expects [bh, t, hd]");
    let (bh, t, hd) = (shape[0], shape[1], shape[2]);
    assert_eq!(hd % 2, 0, "rope head dim must be even");
    let half = hd / 2;
    assert_eq!(cos.len(), t * half, "rope cos table size");
    assert_eq!(sin.len(), t * half, "rope sin table size");

    let rotate = move |data: &[f32], cos: &[f32], sin: &[f32], inverse: bool| -> Vec<f32> {
        let mut out = vec![0.0f32; data.len()];
        for b in 0..bh {
            for p in 0..t {
                let base = (b * t + p) * hd;
                let tb = p * half;
                for i in 0..half {
                    let (c, s) = (cos[tb + i], sin[tb + i]);
                    let s = if inverse { -s } else { s };
                    let x1 = data[base + i];
                    let x2 = data[base + half + i];
                    out[base + i] = x1 * c - x2 * s;
                    out[base + half + i] = x1 * s + x2 * c;
                }
            }
        }
        out
    };

    let value = x.value().with_data(|d| rotate(d, cos, sin, false));
    edkm_tensor::runtime::record_compute(6.0 * (bh * t * hd) as f64, x.value().device());
    let value = Tensor::from_vec(value, &shape, DType::F32, x.value().device());
    let cos_b: Vec<f32> = cos.to_vec();
    let sin_b: Vec<f32> = sin.to_vec();
    let bshape = shape.clone();
    Var::custom(
        value,
        "rope",
        vec![x.clone()],
        vec![],
        Box::new(move |g, _| {
            let dx = g.with_data(|d| rotate(d, &cos_b, &sin_b, true));
            vec![Some(Tensor::from_vec(dx, &bshape, DType::F32, g.device()))]
        }),
    )
}

/// Causal mask `[t, t]`: 0 on/below the diagonal, −1e9 above.
pub(crate) fn causal_mask(t: usize, device: Device) -> Tensor {
    let mut m = vec![0.0f32; t * t];
    for i in 0..t {
        for j in (i + 1)..t {
            m[i * t + j] = -1e9;
        }
    }
    Tensor::from_vec(m, &[t, t], DType::F32, device)
}

/// Position-indexed read access to one layer's cached K/V rows.
///
/// Serving caches implement this per layer so attention can read rows
/// through whatever storage they use — a contiguous buffer or a paged
/// block table (`edkm-core`'s `KvCache` resolves each position through its
/// per-sequence block table). Row `pos` must be the already-rotated
/// `[d_model]`-wide projection row of absolute position `pos`, head-major.
pub trait KvRowView {
    /// The cached K row at absolute position `pos`.
    fn k_row(&self, pos: usize) -> &[f32];
    /// The cached V row at absolute position `pos`.
    fn v_row(&self, pos: usize) -> &[f32];

    /// The longest contiguous run of K rows starting at `pos` the storage
    /// can surface as one slice (at least one row). Paged caches return
    /// the remainder of `pos`'s block, so attention resolves the block
    /// table once per block instead of once per row; the default returns
    /// a single row. Rows past the caller's context length may hold stale
    /// data — callers clamp the run before reading.
    fn k_rows(&self, pos: usize) -> &[f32] {
        self.k_row(pos)
    }

    /// The longest contiguous run of V rows starting at `pos`; see
    /// [`KvRowView::k_rows`].
    fn v_rows(&self, pos: usize) -> &[f32] {
        self.v_row(pos)
    }
}

/// Causal multi-head attention of `n` new query rows over cached K/V rows
/// read through `view` — the serving-side inner loop, shared so the paged
/// and contiguous cache layouts run the *same* accumulation order and stay
/// bit-identical to each other.
///
/// `q` holds `n` rotated query rows (`[n, h·hd]`, head-major) at absolute
/// positions `start..start + n`; row `i` attends positions `0..=start + i`.
/// Context accumulates into `ctx` (same shape as `q`, **caller-zeroed**);
/// `scores` is scratch of length ≥ `start + n`. Returns the FLOPs of the
/// score/softmax/context work (`4·t_ctx·d` per query row) for the caller
/// to charge once.
///
/// Accumulation order per element matches the dense path (`bmm` dots in
/// ascending `j`, `softmax_lastdim` max/exp/sum order, context as an
/// ascending-`j` sum of `p_j · v_j`).
///
/// # Panics
///
/// Panics if `q` and `ctx` lengths disagree or are not a multiple of
/// `h·hd`.
pub fn attend_cached_rows<V: KvRowView>(
    q: &[f32],
    start: usize,
    h: usize,
    hd: usize,
    view: &V,
    ctx: &mut [f32],
    scores: &mut [f32],
) -> f64 {
    let d = h * hd;
    assert_eq!(q.len(), ctx.len(), "q and ctx must be the same shape");
    assert_eq!(q.len() % d, 0, "q must be [n, h*hd]");
    let n = q.len() / d;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut flops = 0.0f64;
    for i in 0..n {
        let t_ctx = start + i + 1; // attends positions 0..=start+i
        let qrow = &q[i * d..(i + 1) * d];
        let orow = &mut ctx[i * d..(i + 1) * d];
        for head in 0..h {
            let hb = head * hd;
            let qh = &qrow[hb..hb + hd];
            // Scores (same dot order as the dense bmm), streaming the
            // cache block-at-a-time: each `k_rows` run is resolved once
            // and its rows consumed in ascending j.
            let mut j = 0usize;
            while j < t_ctx {
                let run = view.k_rows(j);
                let rows = (run.len() / d).min(t_ctx - j).max(1);
                for (r, s) in scores[j..j + rows].iter_mut().enumerate() {
                    let kh = &run[r * d + hb..r * d + hb + hd];
                    let mut acc = 0.0f32;
                    for (&a, &b) in qh.iter().zip(kh) {
                        acc += a * b;
                    }
                    *s = acc * scale;
                }
                j += rows;
            }
            // Softmax (same order as ops::softmax_lastdim).
            let mx = scores[..t_ctx]
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for s in scores[..t_ctx].iter_mut() {
                *s = (*s - mx).exp();
                sum += *s;
            }
            let inv = 1.0 / sum;
            // Context: Σ_j p_j · v_j, ascending j per element, V rows
            // streamed by block run like the scores.
            let mut j = 0usize;
            while j < t_ctx {
                let run = view.v_rows(j);
                let rows = (run.len() / d).min(t_ctx - j).max(1);
                for (r, &w) in scores[j..j + rows].iter().enumerate() {
                    let p = w * inv;
                    let vh = &run[r * d + hb..r * d + hb + hd];
                    for (o, &vv) in orow[hb..hb + hd].iter_mut().zip(vh) {
                        *o += p * vv;
                    }
                }
                j += rows;
            }
        }
        flops += (4 * t_ctx * d) as f64;
    }
    flops
}

/// Multi-head causal self-attention block (LLaMA layout: q/k/v/o
/// projections, RoPE on q and k, no biases).
#[derive(Debug)]
pub struct CausalSelfAttention {
    q_proj: Linear,
    k_proj: Linear,
    v_proj: Linear,
    o_proj: Linear,
    n_heads: usize,
    d_model: usize,
    rope_theta: f32,
}

impl CausalSelfAttention {
    /// Build with parameter names prefixed by `prefix` (e.g. `layers.0.attn`).
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads` or the head dim is
    /// odd (RoPE requirement).
    pub fn new(
        prefix: &str,
        d_model: usize,
        n_heads: usize,
        rope_theta: f32,
        dtype: DType,
        device: Device,
        seed: u64,
    ) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must divide by n_heads");
        assert_eq!((d_model / n_heads) % 2, 0, "head dim must be even for RoPE");
        CausalSelfAttention {
            q_proj: Linear::new(
                format!("{prefix}.q_proj"),
                d_model,
                d_model,
                dtype,
                device,
                seed,
            ),
            k_proj: Linear::new(
                format!("{prefix}.k_proj"),
                d_model,
                d_model,
                dtype,
                device,
                seed + 1,
            ),
            v_proj: Linear::new(
                format!("{prefix}.v_proj"),
                d_model,
                d_model,
                dtype,
                device,
                seed + 2,
            ),
            o_proj: Linear::new(
                format!("{prefix}.o_proj"),
                d_model,
                d_model,
                dtype,
                device,
                seed + 3,
            ),
            n_heads,
            d_model,
            rope_theta,
        }
    }

    /// The four projections (for parameter registration).
    pub(crate) fn projections(&self) -> [&Linear; 4] {
        [&self.q_proj, &self.k_proj, &self.v_proj, &self.o_proj]
    }

    /// Forward `[b·t, d] → [b·t, d]` for `b` sequences of length `t`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[b·t, d_model]`.
    pub fn forward(&self, x: &Var, b: usize, t: usize, hook: Option<WeightHook<'_>>) -> Var {
        assert_eq!(
            x.value().shape(),
            &[b * t, self.d_model],
            "attention input shape"
        );
        let h = self.n_heads;
        let hd = self.d_model / h;
        let device = x.value().device();

        let split = |y: &Var| -> Var {
            // [bt, d] -> [b, t, h, hd] -> [b, h, t, hd] -> [bh, t, hd]
            y.reshape(&[b, t, h, hd])
                .transpose(1, 2)
                .reshape(&[b * h, t, hd])
        };

        let (cos, sin) = rope_tables(t, hd, self.rope_theta);
        let q = rope(&split(&self.q_proj.forward(x, hook)), &cos, &sin);
        let k = rope(&split(&self.k_proj.forward(x, hook)), &cos, &sin);
        let v = split(&self.v_proj.forward(x, hook));

        let scale = 1.0 / (hd as f32).sqrt();
        let scores = q.bmm(&k.transpose(1, 2)).mul_scalar(scale); // [bh, t, t]
        let mask = Var::constant(causal_mask(t, device));
        let attn = scores.add(&mask).softmax_lastdim();
        let ctx = attn.bmm(&v); // [bh, t, hd]

        // [bh, t, hd] -> [b, h, t, hd] -> [b, t, h, hd] -> [bt, d]
        let merged = ctx
            .reshape(&[b, h, t, hd])
            .transpose(1, 2)
            .reshape(&[b * t, self.d_model]);
        self.o_proj.forward(&merged, hook)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_autograd::check_gradients;
    use edkm_tensor::runtime;

    #[test]
    fn rope_tables_shape_and_first_position() {
        let (cos, sin) = rope_tables(3, 4, 10000.0);
        assert_eq!(cos.len(), 6);
        // Position 0: no rotation.
        assert_eq!(&cos[..2], &[1.0, 1.0]);
        assert_eq!(&sin[..2], &[0.0, 0.0]);
    }

    #[test]
    fn rope_preserves_norms() {
        runtime::reset();
        let x = Var::constant(Tensor::randn(&[2, 5, 8], DType::F32, Device::Cpu, 0));
        let (cos, sin) = rope_tables(5, 8, 10000.0);
        let y = rope(&x, &cos, &sin);
        // Rotations are orthogonal: per-vector L2 norm preserved.
        let xv = x.value().to_vec();
        let yv = y.value().to_vec();
        for (xc, yc) in xv.chunks(8).zip(yv.chunks(8)) {
            let nx: f32 = xc.iter().map(|v| v * v).sum();
            let ny: f32 = yc.iter().map(|v| v * v).sum();
            assert!((nx - ny).abs() < 1e-4);
        }
    }

    #[test]
    fn rope_gradcheck() {
        runtime::reset();
        let x = Tensor::randn(&[1, 3, 4], DType::F32, Device::Cpu, 1);
        let (cos, sin) = rope_tables(3, 4, 10000.0);
        let w = Tensor::randn(&[1, 3, 4], DType::F32, Device::Cpu, 2);
        check_gradients(
            |vs| {
                rope(&vs[0], &cos, &sin)
                    .mul(&Var::constant(w.clone()))
                    .sum_all()
            },
            &[x],
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn causal_mask_blocks_future() {
        runtime::reset();
        let m = causal_mask(3, Device::Cpu);
        assert_eq!(m.get(&[0, 0]), 0.0);
        assert_eq!(m.get(&[2, 1]), 0.0);
        assert!(m.get(&[0, 1]) < -1e8);
        assert!(m.get(&[1, 2]) < -1e8);
    }

    #[test]
    fn attention_shapes_and_causality() {
        runtime::reset();
        let attn = CausalSelfAttention::new("a", 8, 2, 10000.0, DType::F32, Device::Cpu, 0);
        let b = 2;
        let t = 4;
        let x = Tensor::randn(&[b * t, 8], DType::F32, Device::Cpu, 5);
        let y1 = attn.forward(&Var::constant(x.clone()), b, t, None);
        assert_eq!(y1.value().shape(), &[b * t, 8]);

        // Causality: changing the last token must not affect earlier outputs.
        let mut data = x.to_vec();
        for v in data[(b * t - 1) * 8..].iter_mut() {
            *v += 10.0;
        }
        let x2 = Tensor::from_vec(data, &[b * t, 8], DType::F32, Device::Cpu);
        let y2 = attn.forward(&Var::constant(x2), b, t, None);
        let v1 = y1.value().to_vec();
        let v2 = y2.value().to_vec();
        // All rows except the perturbed final row of the final sequence match.
        for r in 0..(b * t - 1) {
            for c in 0..8 {
                assert!(
                    (v1[r * 8 + c] - v2[r * 8 + c]).abs() < 1e-5,
                    "row {r} changed"
                );
            }
        }
    }

    /// Rows in one contiguous `[t, d]` buffer (the monolithic layout).
    struct Flat<'a> {
        k: &'a [f32],
        v: &'a [f32],
        d: usize,
    }

    impl KvRowView for Flat<'_> {
        fn k_row(&self, pos: usize) -> &[f32] {
            &self.k[pos * self.d..(pos + 1) * self.d]
        }
        fn v_row(&self, pos: usize) -> &[f32] {
            &self.v[pos * self.d..(pos + 1) * self.d]
        }
    }

    /// Rows scattered across fixed-size blocks (the paged layout).
    struct Paged {
        blocks_k: Vec<Vec<f32>>,
        blocks_v: Vec<Vec<f32>>,
        table: Vec<usize>,
        block_tokens: usize,
        d: usize,
    }

    impl Paged {
        fn from_flat(k: &[f32], v: &[f32], d: usize, block_tokens: usize) -> Self {
            let t = k.len() / d;
            let n_blocks = t.div_ceil(block_tokens);
            // Shuffled physical order to prove reads go through the table.
            let table: Vec<usize> = (0..n_blocks).rev().collect();
            let bsz = block_tokens * d;
            let mut blocks_k = vec![vec![0.0f32; bsz]; n_blocks];
            let mut blocks_v = vec![vec![0.0f32; bsz]; n_blocks];
            for pos in 0..t {
                let (b, slot) = (pos / block_tokens, pos % block_tokens);
                let phys = table[b];
                blocks_k[phys][slot * d..(slot + 1) * d]
                    .copy_from_slice(&k[pos * d..(pos + 1) * d]);
                blocks_v[phys][slot * d..(slot + 1) * d]
                    .copy_from_slice(&v[pos * d..(pos + 1) * d]);
            }
            Paged {
                blocks_k,
                blocks_v,
                table,
                block_tokens,
                d,
            }
        }
    }

    impl KvRowView for Paged {
        fn k_row(&self, pos: usize) -> &[f32] {
            let phys = self.table[pos / self.block_tokens];
            let slot = pos % self.block_tokens;
            &self.blocks_k[phys][slot * self.d..(slot + 1) * self.d]
        }
        fn v_row(&self, pos: usize) -> &[f32] {
            let phys = self.table[pos / self.block_tokens];
            let slot = pos % self.block_tokens;
            &self.blocks_v[phys][slot * self.d..(slot + 1) * self.d]
        }
        // Multi-row runs to the end of the block, so the flat-vs-paged
        // parity test pins the block-at-a-time walker against the
        // row-at-a-time default (`Flat` stays on the defaults).
        fn k_rows(&self, pos: usize) -> &[f32] {
            let phys = self.table[pos / self.block_tokens];
            let slot = pos % self.block_tokens;
            &self.blocks_k[phys][slot * self.d..]
        }
        fn v_rows(&self, pos: usize) -> &[f32] {
            let phys = self.table[pos / self.block_tokens];
            let slot = pos % self.block_tokens;
            &self.blocks_v[phys][slot * self.d..]
        }
    }

    #[test]
    fn attend_cached_rows_matches_the_bmm_attention_path() {
        runtime::reset();
        let (h, hd, t, n) = (2usize, 4usize, 6usize, 2usize);
        let d = h * hd;
        let start = t - n;
        let q_all = Tensor::randn(&[t, d], DType::F32, Device::Cpu, 1).to_vec();
        let k_all = Tensor::randn(&[t, d], DType::F32, Device::Cpu, 2).to_vec();
        let v_all = Tensor::randn(&[t, d], DType::F32, Device::Cpu, 3).to_vec();

        // Reference: the dense bmm/softmax route over [h, t, hd] tensors.
        let to_heads = |rows: &[f32]| -> Var {
            let mut data = vec![0.0f32; t * d];
            for head in 0..h {
                for p in 0..t {
                    data[(head * t + p) * hd..(head * t + p + 1) * hd]
                        .copy_from_slice(&rows[p * d + head * hd..p * d + (head + 1) * hd]);
                }
            }
            Var::constant(Tensor::from_vec(data, &[h, t, hd], DType::F32, Device::Cpu))
        };
        let q_t = to_heads(&q_all);
        let k_t = to_heads(&k_all);
        let v_t = to_heads(&v_all);
        let scale = 1.0 / (hd as f32).sqrt();
        let scores = q_t.bmm(&k_t.transpose(1, 2)).mul_scalar(scale);
        let mask = Var::constant(causal_mask(t, Device::Cpu));
        let ctx_ref = scores.add(&mask).softmax_lastdim().bmm(&v_t);

        // attend_cached_rows over the last n query rows.
        let mut ctx = vec![0.0f32; n * d];
        let mut scratch = vec![0.0f32; t];
        let flops = attend_cached_rows(
            &q_all[start * d..],
            start,
            h,
            hd,
            &Flat {
                k: &k_all,
                v: &v_all,
                d,
            },
            &mut ctx,
            &mut scratch,
        );
        assert!(flops > 0.0);
        let ref_v = ctx_ref.value().to_vec(); // [h, t, hd]
        for i in 0..n {
            for head in 0..h {
                let got = &ctx[i * d + head * hd..i * d + (head + 1) * hd];
                let want = &ref_v[(head * t + start + i) * hd..(head * t + start + i + 1) * hd];
                for (g, w) in got.iter().zip(want) {
                    assert!((g - w).abs() < 1e-5, "row {i} head {head}: {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn paged_view_is_bit_identical_to_flat_view() {
        runtime::reset();
        let (h, hd, t) = (2usize, 4usize, 7usize);
        let d = h * hd;
        let q = Tensor::randn(&[t, d], DType::F32, Device::Cpu, 4).to_vec();
        let k = Tensor::randn(&[t, d], DType::F32, Device::Cpu, 5).to_vec();
        let v = Tensor::randn(&[t, d], DType::F32, Device::Cpu, 6).to_vec();
        let mut scratch = vec![0.0f32; t];
        let mut ctx_flat = vec![0.0f32; t * d];
        attend_cached_rows(
            &q,
            0,
            h,
            hd,
            &Flat { k: &k, v: &v, d },
            &mut ctx_flat,
            &mut scratch,
        );
        for block_tokens in [1usize, 3, 16] {
            let paged = Paged::from_flat(&k, &v, d, block_tokens);
            let mut ctx_paged = vec![0.0f32; t * d];
            let f = attend_cached_rows(&q, 0, h, hd, &paged, &mut ctx_paged, &mut scratch);
            assert_eq!(
                ctx_flat, ctx_paged,
                "block size {block_tokens} must not change a single bit"
            );
            assert!(f > 0.0);
        }
    }

    #[test]
    fn attention_backward_reaches_all_projections() {
        runtime::reset();
        let attn = CausalSelfAttention::new("a", 8, 2, 10000.0, DType::F32, Device::Cpu, 0);
        let x = Var::constant(Tensor::randn(&[4, 8], DType::F32, Device::Cpu, 3));
        attn.forward(&x, 1, 4, None).sum_all().backward();
        for p in attn.projections() {
            assert!(p.weight().grad().is_some(), "{} got no grad", p.name());
        }
    }
}
