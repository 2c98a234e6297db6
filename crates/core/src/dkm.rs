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
//! (DESIGN.md §4). The final iteration is one tape node whose saves, ledger
//! charges and bits are those of the op chain it replaced. When the source
//! weights are 16-bit, the layer also annotates the attention map with the
//! weights' bit patterns so the eDKM hooks can uniquify it (Section 2.2).

use crate::palettize::{GroupedPalettized, PalettizedTensor};
use crate::uniquify::{self, DistinctRows, RowKeys};
use edkm_autograd::{save_tensor, Var};
use edkm_tensor::{exact, ops as t, runtime, DType, Device, Tensor};
use std::cmp::Ordering;
use std::hint::black_box;
use std::sync::Arc;

/// `$f::<K>($args)` for the palette size `K = $k`, which is `2^bits` for
/// `bits` in `1..=8`: the const-`K` bodies keep every lane loop whole.
macro_rules! for_palette {
    ($k:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $k {
            2 => $f::<2>($($arg),*),
            4 => $f::<4>($($arg),*),
            8 => $f::<8>($($arg),*),
            16 => $f::<16>($($arg),*),
            32 => $f::<32>($($arg),*),
            64 => $f::<64>($($arg),*),
            128 => $f::<128>($($arg),*),
            256 => $f::<256>($($arg),*),
            k => unreachable!("{k} centroids: k is 2^bits for bits in 1..=8"),
        }
    };
}

/// The `[u, k]` attention rows `softmax(scale · −‖w − c‖²)` of the `u`
/// distinct weight rows `distinct` (`[u, d]`) against the centroids `c`
/// (`[k, d]`), with the bits of `ops::neg_sqdist`, `ops::mul_scalar` and
/// `ops::softmax_lastdim` on those rows.
///
/// The distance and the scale are charged as passes over `charged_rows`
/// rows, the softmax over the `u` it runs on: a Lloyd iteration charges
/// the `u` rows it computes, the differentiable iteration the `n` rows of
/// the op chain it models.
fn distinct_attention(
    distinct: &[f32],
    c: &Tensor,
    scale: f32,
    charged_rows: usize,
    device: Device,
) -> Tensor {
    let (k, d) = (c.shape()[0], c.shape()[1]);
    let u = distinct.len() / d;
    let scale = black_box(f64::from(scale));
    let mut logits = vec![0.0f32; u * k];
    c.with_data(|c| {
        for (out, w_row) in logits.chunks_exact_mut(k).zip(distinct.chunks_exact(d)) {
            if d == 1 {
                // `0.0 + diff²` is `diff²` (a square is never −0.0), so one
                // component needs no accumulator.
                for (o, &cv) in out.iter_mut().zip(c) {
                    let diff = w_row[0] - cv;
                    *o = exact::mul(-(diff * diff), scale);
                }
            } else {
                for (o, c_row) in out.iter_mut().zip(c.chunks_exact(d)) {
                    let dist = w_row.iter().zip(c_row).fold(0.0f32, |acc, (&wv, &cv)| {
                        let diff = wv - cv;
                        acc + diff * diff
                    });
                    *o = exact::mul(-dist, scale);
                }
            }
        }
    });
    runtime::record_compute(3.0 * (charged_rows * k * d) as f64, device);
    runtime::record_compute((charged_rows * k) as f64, device);
    t::softmax_lastdim(&Tensor::from_vec(logits, &[u, k], DType::F32, device))
}

/// The sums of a centroid update over the `n` rows `w` (`[n, d]`,
/// widened by `exact::widen`) whose attention rows are `a[index[p]]`
/// (`a` is `[u, k]`; `index` `None` means `a` holds every row): the
/// `[k, d]` numerators `Σ_p A[p, j]·W[p]` and, with `den`, the `k`
/// denominators `Σ_p A[p, j]` (empty without).
///
/// One pass over the rows in `p` order, adding into `k` independent lanes
/// per sum: each lane sees the same additions in the same order as the
/// dense `matmul(Aᵀ, W)` and `sum_axis(A, 0)`, so the sums are bit for bit
/// theirs. Each product is formed exactly in f64 (`exact`): the bits of
/// the f32 product, without an assist on each of the map's subnormals.
fn column_sums(
    a: &[f32],
    k: usize,
    index: Option<&[u32]>,
    w: &[f64],
    d: usize,
    den: bool,
) -> (Vec<f32>, Vec<f32>) {
    for_palette!(k, column_sums_k(a, index, w, d, den))
}

/// [`column_sums`] over a compile-time `K`. The numerators are
/// component-major while they add (`[d, K]`), so each component's `K`
/// lanes are one array.
fn column_sums_k<const K: usize>(
    a: &[f32],
    index: Option<&[u32]>,
    w: &[f64],
    d: usize,
    den: bool,
) -> (Vec<f32>, Vec<f32>) {
    let (a, _) = a.as_chunks::<K>();
    let mut num = vec![0.0f32; d * K];
    let (lanes, _) = num.as_chunks_mut::<K>();
    let mut sums = [0.0f32; K];
    let mut add_row = |a_row: &[f32; K], w_row: &[f64]| {
        if den {
            for (s, &av) in sums.iter_mut().zip(a_row) {
                *s += av;
            }
        }
        for (lane, &wv) in lanes.iter_mut().zip(w_row) {
            for (s, &av) in lane.iter_mut().zip(a_row) {
                *s += exact::mul(av, wv);
            }
        }
    };
    match index {
        Some(index) => {
            for (&r, w_row) in index.iter().zip(w.chunks_exact(d)) {
                add_row(&a[r as usize], w_row);
            }
        }
        None => {
            for (a_row, w_row) in a.iter().zip(w.chunks_exact(d)) {
                add_row(a_row, w_row);
            }
        }
    }
    let mut rows = Vec::with_capacity(K * d);
    for j in 0..K {
        rows.extend(lanes.iter().map(|lane| lane[j]));
    }
    (rows, if den { sums.to_vec() } else { Vec::new() })
}

/// One Lloyd centroid update from the `[u, k]` attention rows `a` of the
/// distinct rows: `C[j] = Σ_p A[index[p], j]·W[p] / (Σ_p A[index[p], j] +
/// 1e-8)` over the `n` weight rows `w` (`[n, d]`, widened), with the bits
/// of the dense `matmul`, `sum_axis`, `add_scalar` and `div`.
fn centroid_update(a: &Tensor, index: &[u32], w: &[f64], d: usize, device: Device) -> Tensor {
    let k = a.shape()[1];
    let n = index.len();
    let (num, den) = a.with_data(|a| column_sums(a, k, Some(index), w, d, true));
    let den: Vec<f32> = den.iter().map(|&s| s + 1e-8).collect();
    let c = divide_rows(&num, &den, d);
    // The dense matmul and column sum's work.
    runtime::record_compute(((2 * d + 1) * n * k) as f64, device);
    Tensor::from_vec(c, &[k, d], DType::F32, device)
}

/// `x[j] / den[j]` for each `d`-element row `j` of `x`: the bits of `div`
/// broadcasting a `[k, 1]` divisor.
fn divide_rows(x: &[f32], den: &[f32], d: usize) -> Vec<f32> {
    x.chunks_exact(d)
        .zip(den)
        .flat_map(|(row, &s)| row.iter().map(move |&v| v / s))
        .collect()
}

/// DKM's final iteration as one tape node over the weights `w2` (`[n, d]`;
/// `w_wide` is its data widened, `distinct` its `u` distinct rows as
/// numbered by `rows`): `A = softmax(scale · −‖W − C‖²)` against the
/// constant centroids `c`, `c* = Aᵀ·W / (colsum(A) + 1e-8)` and the soft
/// weights `A·c*`. Returns them and `c*`.
///
/// It stands for the ten-node chain `neg_sqdist`, `mul_scalar`, softmax,
/// `t`, `matmul`, `sum_axis`, `reshape`, `add_scalar`, `div`, `matmul`,
/// and nothing the hooks, the ledger or the bits can see tells them apart
/// (DESIGN.md §4):
///
/// * it makes the chain's nine saves, in its order: `W`, `C`; `A`
///   (annotated with `keys` first, so the hooks can uniquify it); `Aᵀ`,
///   `W`; `num`, the `[k, 1]` `den`; `A`, `c*`;
/// * it charges the clock for every pass the chain made, forward and
///   backward, one charge per pass with the chain's FLOP count;
/// * every value adds the chain's terms in the chain's order from 0.0.
///
/// The forward computes each row-wise step once per distinct row and
/// expands `A` (it is saved) and the soft weights through the index. The
/// VJP reads only the unpacked saves and `scale`: [`iteration_vjp`].
fn differentiable_iteration(
    w2: &Var,
    w_wide: &[f64],
    distinct: &[f32],
    rows: &DistinctRows,
    keys: Option<Arc<RowKeys>>,
    c: Tensor,
    scale: f32,
) -> (Var, Tensor) {
    let w = w2.value();
    let (n, d) = (w.shape()[0], w.shape()[1]);
    let k = c.shape()[0];
    let device = w.device();
    let mut saved = vec![save_tensor(w), save_tensor(&c)];

    let table = distinct_attention(distinct, &c, scale, n, device);
    let a = table.with_data(|t| uniquify::reconstruct_wide(t, rows.index(), k));
    let a = Tensor::from_vec(a, &[n, k], DType::F32, device);
    if let Some(keys) = keys {
        uniquify::annotate(a.storage_id(), keys);
    }
    saved.push(save_tensor(&a));
    saved.extend([save_tensor(&a.t()), save_tensor(w)]);

    let (num, den) = table.with_data(|t| column_sums(t, k, Some(rows.index()), w_wide, d, true));
    let den: Vec<f32> = den.iter().map(|&s| s + 1e-8).collect();
    let c_star = divide_rows(&num, &den, d);
    let num = Tensor::from_vec(num, &[k, d], DType::F32, device);
    let den = Tensor::from_vec(den, &[k, 1], DType::F32, device);
    saved.extend([save_tensor(&num), save_tensor(&den)]);

    let c_wide = exact::widen(&c_star);
    let soft = table.with_data(|t| for_palette!(k, soft_rows(t, &c_wide, d)));
    let soft = uniquify::reconstruct_wide(&soft, rows.index(), d);
    let c_star = Tensor::from_vec(c_star, &[k, d], DType::F32, device);
    saved.extend([save_tensor(&a), save_tensor(&c_star)]);

    let (nf, kf, df) = (n as f64, k as f64, d as f64);
    for flops in [
        2.0 * kf * df * nf, // Aᵀ·W
        nf * kf,            // colsum(A)
        kf,                 // + 1e-8
        kf * df,            // num / den
        2.0 * nf * df * kf, // A·c*
    ] {
        runtime::record_compute(flops, device);
    }
    let soft = Var::custom(
        Tensor::from_vec(soft, &[n, d], DType::F32, device),
        "dkm_iteration",
        vec![w2.clone()],
        saved,
        Box::new(move |g, s| vec![Some(iteration_vjp(g, s, scale))]),
    );
    (soft, c_star)
}

/// The soft weights `A·c*` of the `[u, K]` attention rows `a`: each of a
/// row's `d` outputs adds its `K` products in `j` order from 0.0, as
/// `matmul(A, c*)` does, with `c*` (`[K, d]`) widened. [`ROW_LANES`] rows
/// at a time, one per lane, so the serial sums run side by side.
fn soft_rows<const K: usize>(a: &[f32], c_star: &[f64], d: usize) -> Vec<f32> {
    let (a, _) = a.as_chunks::<K>();
    let mut out = vec![0.0f32; a.len() * d];
    for (rows, out) in a.chunks(ROW_LANES).zip(out.chunks_mut(ROW_LANES * d)) {
        let a = lanes_of(rows);
        for comp in 0..d {
            let mut acc = [0.0f32; ROW_LANES];
            for (a_j, &cw) in a.iter().zip(c_star[comp..].iter().step_by(d)) {
                for (s, &av) in acc.iter_mut().zip(a_j) {
                    *s += exact::mul(av, cw);
                }
            }
            for (o, &s) in out[comp..].iter_mut().step_by(d).zip(&acc) {
                *o = s;
            }
        }
    }
    out
}

/// Up to [`ROW_LANES`] rows of `K` entries, transposed: entry `j` of row
/// `l` in lane `l` of array `j`. Lanes past the last row hold zeros.
#[inline(always)]
fn lanes_of<const K: usize>(rows: &[[f32; K]]) -> [[f32; ROW_LANES]; K] {
    let mut lanes = [[0.0f32; ROW_LANES]; K];
    for (l, row) in rows.iter().enumerate() {
        for (lane, &v) in lanes.iter_mut().zip(row) {
            lane[l] = v;
        }
    }
    lanes
}

/// The VJP of [`differentiable_iteration`]: the `[n, d]` weight gradient
/// for the upstream gradient `g` of the soft weights, from the node's nine
/// unpacked saves and the logit scale.
///
/// Three steps, each output the chain's terms in the chain's order:
///
/// 1. one pass over the rows for `dc* = Aᵀ·G` ([`column_sums`]);
/// 2. the division's VJP on `[k, d]` ([`division_vjp`]);
/// 3. one pass that gives each row its gradient ([`weight_grads`]).
///
/// It charges the clock for each pass of the chain's backward, the three
/// gradient accumulations the tape made included.
fn iteration_vjp(g: &Tensor, saved: &[Tensor], scale: f32) -> Tensor {
    let [w, c, a, _, _, num, den, _, c_star] = saved else {
        unreachable!("the node saves W, C, A, Aᵀ, W, num, den, A and c*")
    };
    let (n, d) = (w.shape()[0], w.shape()[1]);
    let k = c.shape()[0];
    let device = g.device();
    let (num, den) = (num.to_vec(), den.to_vec());
    let dw = a.with_data(|a| {
        g.with_data(|g| {
            let (dc_star, _) = column_sums(a, k, None, &exact::widen(g), d, false);
            let (dnum, dden) = division_vjp(&dc_star, &num, &den, d);
            let consts = RowConsts {
                c_star: &c_star.to_vec(),
                dnum: &dnum,
                dden: &dden,
                c: &c.with_data(exact::widen),
                dnum_wide: &exact::widen(&dnum),
                scale: black_box(f64::from(scale)),
                minus_two: black_box(-2.0),
                d,
            };
            let mut dw = vec![0.0f32; n * d];
            w.with_data(|w| weight_grads(k, a, w, g, &consts, &mut dw));
            dw
        })
    });

    let (nf, kf, df) = (n as f64, k as f64, d as f64);
    let mut charges = vec![
        2.0 * nf * kf * df, // A·c*'s VJP: G·c*ᵀ
        2.0 * kf * df * nf, // and Aᵀ·G
        kf * df,            // dc* / den
        kf,                 // den²
        kf * df,            // dc*·num
        kf * df,            // / den²
        kf * df,            // negated
    ];
    if d > 1 {
        charges.push(kf * df); // summed over the components
    }
    charges.extend([
        2.0 * kf * nf * df, // Aᵀ·W's VJP: dnum·Wᵀ
        2.0 * nf * df * kf, // and A·dnum
        nf * kf,            // A's second gradient added
        nf * kf,            // colsum's VJP broadcast
        nf * kf,            // and added
        nf * kf,            // the softmax VJP's four passes
        nf * kf,
        nf * kf,
        nf * kf,
        nf * kf,            // the scale
        nf * kf,            // the distance VJP: rowsum(dL)
        nf * df,            // · W
        2.0 * nf * df * kf, // dL·C
        nf * df,            // −
        nf * df,            // · −2
        nf * df,            // W's two gradients added
    ]);
    for flops in charges {
        runtime::record_compute(flops, device);
    }
    Tensor::from_vec(dw, &[n, d], DType::F32, device)
}

/// The VJP of `c* = num / den` (`den` is `[k]`, the rest `[k, d]`) for the
/// upstream gradient `dc_star`, with the bits of `Var::div`'s: `dnum =
/// dc* / den` and `dden = Σ_c −(dc*·num / den²)`, the sum over the
/// components in order from 0.0.
fn division_vjp(dc_star: &[f32], num: &[f32], den: &[f32], d: usize) -> (Vec<f32>, Vec<f32>) {
    let dnum = divide_rows(dc_star, den, d);
    let dden = dc_star
        .chunks_exact(d)
        .zip(num.chunks_exact(d))
        .zip(den)
        .map(|((gv, nv), &s)| {
            let b2 = s * s;
            let term = |comp: usize| -((gv[comp] * nv[comp]) / b2);
            // One component is not summed (`reduce_to_shape` keeps the
            // `[k, 1]` term as it is, −0.0 included).
            if d == 1 {
                term(0)
            } else {
                (0..d).fold(0.0f32, |acc, comp| acc + term(comp))
            }
        })
        .collect();
    (dnum, dden)
}

/// What [`grad_block`] reads besides the rows: `c*`, `dnum` (both
/// `[k, d]`), `dden` (`[k]`), the centroids and `dnum` widened, and the
/// scale and −2 as f64s the optimiser cannot trace back to f32s.
struct RowConsts<'a> {
    c_star: &'a [f32],
    dnum: &'a [f32],
    dden: &'a [f32],
    c: &'a [f64],
    dnum_wide: &'a [f64],
    scale: f64,
    minus_two: f64,
    d: usize,
}

/// Weight rows [`grad_block`] holds at once, one per lane.
const ROW_LANES: usize = 8;

/// [`iteration_vjp`]'s last pass: the `[n, d]` weight gradient `dw` from
/// the `[n, k]` map `a`, the weights `w` and the upstream gradient `g`
/// (both `[n, d]`). On CPUs with AVX2 the same body runs compiled for
/// AVX2 (eight f32 lanes per register), chosen at run time.
fn weight_grads(k: usize, a: &[f32], w: &[f32], g: &[f32], consts: &RowConsts, dw: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if lanes_avx2() {
        // SAFETY: `weight_grads_avx2` requires only AVX2, which
        // `lanes_avx2` detected on this CPU.
        return unsafe { for_palette!(k, weight_grads_avx2(a, w, g, consts, dw)) };
    }
    for_palette!(k, weight_grads_k(a, w, g, consts, dw))
}

/// Whether [`weight_grads`] runs its AVX2 instantiation: on a CPU with
/// AVX2, unless a test asks for the portable one.
#[cfg(target_arch = "x86_64")]
fn lanes_avx2() -> bool {
    #[cfg(test)]
    if tests::PORTABLE_LANES.get() {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx2")
}

/// [`weight_grads_k`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn weight_grads_avx2<const K: usize>(
    a: &[f32],
    w: &[f32],
    g: &[f32],
    consts: &RowConsts,
    dw: &mut [f32],
) {
    weight_grads_k::<K>(a, w, g, consts, dw);
}

/// [`weight_grads`] over a compile-time `K`: [`grad_block`] on each block
/// of [`ROW_LANES`] rows, the last one padded with zero rows whose
/// gradients are dropped.
#[inline(always)]
fn weight_grads_k<const K: usize>(
    a: &[f32],
    w: &[f32],
    g: &[f32],
    consts: &RowConsts,
    dw: &mut [f32],
) {
    const L: usize = ROW_LANES;
    let d = consts.d;
    let (a, _) = a.as_chunks::<K>();
    // The block's weights and upstream gradients, component-major.
    let mut w_lanes = vec![[0.0f32; L]; d];
    let mut g_lanes = vec![[0.0f32; L]; d];
    let rows = w.chunks(L * d).zip(g.chunks(L * d));
    for ((a_rows, (w_rows, g_rows)), dw_rows) in a.chunks(L).zip(rows).zip(dw.chunks_mut(L * d)) {
        if a_rows.len() < L {
            w_lanes.fill([0.0; L]);
            g_lanes.fill([0.0; L]);
        }
        let row_pairs = w_rows.chunks_exact(d).zip(g_rows.chunks_exact(d));
        for (l, (w_row, g_row)) in row_pairs.enumerate() {
            for (comp, (&wv, &gv)) in w_row.iter().zip(g_row).enumerate() {
                w_lanes[comp][l] = wv;
                g_lanes[comp][l] = gv;
            }
        }
        grad_block::<K>(a_rows, &w_lanes, &g_lanes, consts, dw_rows);
    }
}

/// The weight gradients `dw_rows` of up to [`ROW_LANES`] rows, one per
/// lane, so each lane's serial `K`-term sums run beside seven others:
/// `a_rows` are the rows' attention rows, `w` and `g` their weights and
/// upstream gradients in lanes (`[d]` arrays, zeros past the last row).
/// Per row, every sum adds the chain's terms in the chain's order from
/// 0.0:
///
/// * A's gradient, accumulated as the tape visited its three consumers:
///   `(G·c*ᵀ + dnum·Wᵀ) + dden`, each product sum over the `d` components;
/// * the softmax VJP `dx = A ⊙ (dA − Σ_j dA·A)`, then the scale;
/// * the distance VJP `−2·(Σ_j dL · w − dL·C)`;
/// * then `+ A·dnum`.
///
/// Products that meet the map's subnormals (`dA·A`, `(dA − dot)·A`, the
/// scale, `dL·C`, `A·dnum` and the `−2`) are formed exactly in f64.
#[inline(always)]
fn grad_block<const K: usize>(
    a_rows: &[[f32; K]],
    w: &[[f32; ROW_LANES]],
    g: &[[f32; ROW_LANES]],
    k: &RowConsts,
    dw_rows: &mut [f32],
) {
    const L: usize = ROW_LANES;
    let d = k.d;
    let a = lanes_of(a_rows);
    let mut a_wide = [[0.0f64; L]; K];
    for (wide, a_j) in a_wide.iter_mut().zip(&a) {
        for (x, &v) in wide.iter_mut().zip(a_j) {
            *x = f64::from(v);
        }
    }
    let a_wide = &black_box(a_wide);

    // dA = (G·c*ᵀ + dnum·Wᵀ) + dden.
    let mut da = [[0.0f32; L]; K];
    for (j, da_j) in da.iter_mut().enumerate() {
        let (mut t1, mut t2) = ([0.0f32; L], [0.0f32; L]);
        for (comp, (g_c, w_c)) in g.iter().zip(w).enumerate() {
            let (cv, nv) = (k.c_star[j * d + comp], k.dnum[j * d + comp]);
            for l in 0..L {
                t1[l] += g_c[l] * cv;
                t2[l] += w_c[l] * nv;
            }
        }
        for l in 0..L {
            da_j[l] = (t1[l] + t2[l]) + k.dden[j];
        }
    }
    // The softmax VJP and the scale: dL, in place of dA.
    let mut dot = [0.0f32; L];
    for (da_j, aw_j) in da.iter().zip(a_wide) {
        for l in 0..L {
            dot[l] += exact::mul(da_j[l], aw_j[l]);
        }
    }
    let mut row_sum = [0.0f32; L];
    for (da_j, aw_j) in da.iter_mut().zip(a_wide) {
        for l in 0..L {
            let dl = exact::mul(exact::mul(da_j[l] - dot[l], aw_j[l]), k.scale);
            da_j[l] = dl;
            row_sum[l] += dl;
        }
    }
    // The distance VJP, then A·dnum.
    for (comp, w_c) in w.iter().enumerate() {
        let (mut dl_c, mut a_dnum) = ([0.0f32; L], [0.0f32; L]);
        for j in 0..K {
            let (cw, nw) = (k.c[j * d + comp], k.dnum_wide[j * d + comp]);
            for l in 0..L {
                dl_c[l] += exact::mul(da[j][l], cw);
                a_dnum[l] += exact::mul(a[j][l], nw);
            }
        }
        for (l, dw) in dw_rows[comp..].iter_mut().step_by(d).enumerate() {
            let sq = exact::mul(row_sum[l] * w_c[l] - dl_c[l], k.minus_two);
            *dw = a_dnum[l] + sq;
        }
    }
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
        let w_wide = exact::widen(&data);
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
        let distinct = rows.gather(&data, d);
        let mut c = Tensor::from_vec(
            self.init_centroids(&data, &distinct, &rows),
            &[k, d],
            DType::F32,
            device,
        );

        // Lloyd iterations, detached (the reference DKM detaches all but the
        // final iteration): distances and softmax per distinct row.
        let mut iterations_run = 0;
        for _ in 0..self.config.iters.saturating_sub(1) {
            let a = distinct_attention(&distinct, &c, scale, rows.len(), device);
            let c_new = centroid_update(&a, rows.index(), &w_wide, d, device);
            let moved = t::max_abs_diff(&c_new, &c);
            c = c_new;
            iterations_run += 1;
            if moved < self.config.tol {
                break;
            }
        }

        // The final iteration, differentiable: one tape node that saves the
        // `[n, k]` attention map, annotated with the weights' bit patterns
        // (when 16-bit, blocks of ≤ 4) so the hooks can uniquify it.
        let (soft, centroids) =
            differentiable_iteration(&w2, &w_wide, &distinct, &rows, keys, c, scale);
        DkmOutput {
            centroids,
            soft: soft.reshape(&shape),
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
    use crate::hooks::{EdkmConfig, EdkmHooks, HookStatsSnapshot};
    use std::cell::Cell;

    thread_local! {
        /// Set while a test runs the portable instantiation of
        /// [`weight_grads`] on a CPU with AVX2.
        pub(super) static PORTABLE_LANES: Cell<bool> = const { Cell::new(false) };
    }
    use edkm_autograd::{
        check_gradients, push_hooks, softmax_backward, PackedTensor, SavedTensorHooks,
    };
    use edkm_tensor::{runtime, Device};
    use std::sync::Mutex;

    /// Softmax over the last axis, computed on the distinct rows of `x` and
    /// expanded back to every row, whose output storage is annotated with
    /// weight bit patterns *before* it is saved for backward — so the
    /// saved-tensor hooks can uniquify the attention map (the save happens
    /// inside this op). The op chain's softmax.
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

    /// The ten-node op chain `differentiable_iteration` replaced, with its
    /// softmax on the distinct rows that `rows` numbers: the oracle of its
    /// values, gradients, saves and ledger charges.
    fn iteration_chain(
        w2: &Var,
        c: Tensor,
        scale: f32,
        rows: &DistinctRows,
        keys: Option<Arc<RowKeys>>,
    ) -> (Var, Tensor) {
        let k = c.shape()[0];
        let logits = w2.neg_sqdist(&Var::constant(c)).mul_scalar(scale);
        let a = softmax_annotated(&logits, rows, keys); // the big [n, k] attention map
        let num = a.t().matmul(w2); // [k, d] — saves Aᵀ (a view of A)
        let den = a.sum_axis(0).reshape(&[k, 1]).add_scalar(1e-8);
        let c_star = num.div(&den);
        let soft = a.matmul(&c_star); // saves A again
        (soft, c_star.value().clone())
    }

    /// The row keys and distinct rows `cluster` finds for `w2`'s data.
    fn distinct_rows_of(w2: &Tensor) -> (Option<Arc<RowKeys>>, DistinctRows) {
        let (n, d) = (w2.shape()[0], w2.shape()[1]);
        let keys = (d <= uniquify::MAX_KEY_DIM && w2.dtype().is_16bit())
            .then(|| Arc::new(RowKeys::blocks(&w2.bits16().unwrap(), d)));
        let rows = keys
            .as_deref()
            .map_or_else(|| DistinctRows::identity(n), DistinctRows::of);
        (keys, rows)
    }

    /// [`differentiable_iteration`] on `w2` against the fixed centroids `c`,
    /// with the distinct rows and widened weights `cluster` gives it.
    fn iteration_node(w2: &Var, c: Tensor, scale: f32) -> (Var, Tensor) {
        let data = w2.value().to_vec();
        let (keys, rows) = distinct_rows_of(w2.value());
        let distinct = rows.gather(&data, w2.value().shape()[1]);
        differentiable_iteration(w2, &exact::widen(&data), &distinct, &rows, keys, c, scale)
    }

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
        let (keys, _) = distinct_rows_of(&wt);
        let (soft, centroids) = iteration_chain(&w2, c, scale, &DistinctRows::identity(n), keys);
        DkmOutput {
            centroids,
            soft: soft.reshape(&shape),
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
        Option<HookStatsSnapshot>,
    );

    fn run_cluster(
        cluster: fn(&DkmLayer, &Var) -> DkmOutput,
        lay: &DkmLayer,
        w: &Tensor,
        hooked: bool,
    ) -> Run {
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
                    // Every palette size meets the oracle; from 32 centroids
                    // on, the normal and ±0 families keep the time down.
                    let bits = if matches!(family, "normal" | "signed zeros") {
                        1..=8
                    } else {
                        1..=4
                    };
                    for bits in bits {
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
                                    let want = run_cluster(cluster_dense, &lay, &w, hooked);
                                    for portable in [false, true] {
                                        PORTABLE_LANES.set(portable);
                                        let got = run_cluster(DkmLayer::cluster, &lay, &w, hooked);
                                        assert!(
                                            got == want,
                                            "{dtype} {family}, dim {cluster_dim}, {bits} bits, \
                                             {iters} iters, {init:?}, hooked {hooked}, \
                                             portable lanes {portable}: distinct-row \
                                             clustering differs from the dense loop"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Everything the node and the op chain must agree on: soft-value, `c*`
    /// and weight-gradient bits, the hook counters, the shape and value
    /// bits of every tensor packed, in order, and the ledger (sim-seconds
    /// bits, d2h and h2d bytes, CPU peak bytes).
    type IterationRun = (
        Vec<u32>,
        Vec<u32>,
        Vec<u32>,
        Option<HookStatsSnapshot>,
        Option<Vec<(Vec<usize>, Vec<u32>)>>,
        u64,
        usize,
        usize,
        usize,
    );

    /// [`EdkmHooks`] that first record the shape and value bits of every
    /// tensor they pack: the counters alone cannot tell two saves that hit
    /// the marshaling registry the same way apart.
    struct RecordingHooks {
        inner: EdkmHooks,
        packed: Mutex<Vec<(Vec<usize>, Vec<u32>)>>,
    }

    impl SavedTensorHooks for RecordingHooks {
        fn pack(&self, t: &Tensor) -> PackedTensor {
            let saved = (t.shape().to_vec(), bits_of(t));
            self.packed.lock().expect("recorder").push(saved);
            self.inner.pack(t)
        }

        fn unpack(&self, p: &PackedTensor) -> Tensor {
            self.inner.unpack(p)
        }
    }

    /// One differentiable iteration of `w` at `cluster_dim` `d` against
    /// fixed seeded centroids, and its backward from an upstream gradient
    /// that holds ±0 and subnormals, on a fresh runtime.
    fn run_iteration(
        iteration: fn(&Var, Tensor, f32) -> (Var, Tensor),
        w: &Tensor,
        d: usize,
        bits: u8,
        hooked: bool,
    ) -> IterationRun {
        runtime::reset();
        uniquify::clear_annotations();
        let (n, k, device) = (w.numel() / d, 1usize << bits, w.device());
        let c = Tensor::randn(&[k, d], DType::F32, device, 41).map(|v| v * 0.02);
        let upstream: Vec<f32> = Tensor::randn(&[n * d], DType::F32, device, 42)
            .to_vec()
            .iter()
            .enumerate()
            .map(|(i, &v)| match i % 6 {
                1 => 0.0,
                3 => -0.0,
                4 => f32::from_bits(1 + (i as u32).wrapping_mul(2_654_435_761) % 0x7f_ffff),
                5 => -f32::from_bits(0x7f_ffff - i as u32),
                _ => v,
            })
            .collect();
        let upstream = Tensor::from_vec(upstream, &[n, d], DType::F32, device);
        let hooks = Arc::new(RecordingHooks {
            inner: EdkmHooks::new(EdkmConfig::full(4)),
            packed: Mutex::new(Vec::new()),
        });
        let guard = hooked.then(|| push_hooks(Arc::clone(&hooks) as Arc<dyn SavedTensorHooks>));
        let wv = Var::param(w.clone());
        let w2 = wv.reshape(&[n, d]);
        let scale = DkmLayer::new(DkmConfig::with_vector(bits, d)).logit_scale(&w.to_vec());
        let (soft, c_star) = iteration(&w2, c, scale);
        soft.mul(&Var::constant(upstream)).sum_all().backward();
        drop(guard);
        uniquify::clear_annotations();
        let transfers = runtime::transfer_snapshot();
        (
            bits_of(soft.value()),
            bits_of(&c_star),
            bits_of(&wv.grad().expect("weights receive gradients")),
            hooked.then(|| hooks.inner.stats()),
            hooked.then(|| hooks.packed.lock().expect("recorder").clone()),
            runtime::sim_seconds().to_bits(),
            transfers.d2h_bytes,
            transfers.h2d_bytes,
            runtime::peak_bytes(Device::Cpu),
        )
    }

    #[test]
    fn iteration_node_matches_the_op_chain_and_its_ledger() {
        fn chain(w2: &Var, c: Tensor, scale: f32) -> (Var, Tensor) {
            let (keys, rows) = distinct_rows_of(w2.value());
            iteration_chain(w2, c, scale, &rows, keys)
        }
        for dtype in [DType::Bf16, DType::F16, DType::F32] {
            for (family, w) in oracle_inputs(dtype) {
                // cluster_dim 5 has no row keys: every row is distinct.
                for cluster_dim in [1, 2, 5] {
                    for bits in 1..=8 {
                        for hooked in [false, true] {
                            let want = run_iteration(chain, &w, cluster_dim, bits, hooked);
                            for portable in [false, true] {
                                PORTABLE_LANES.set(portable);
                                let got =
                                    run_iteration(iteration_node, &w, cluster_dim, bits, hooked);
                                assert!(
                                    got == want,
                                    "{dtype} {family}, dim {cluster_dim}, {bits} bits, \
                                     hooked {hooked}, portable lanes {portable}: the node \
                                     differs from the op chain"
                                );
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
                let got = centroid_update(&a, &index, &exact::widen(&w), d, Device::Cpu).to_vec();
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
        // we check the differentiable node in isolation: attention map →
        // centroid update → soft assignment, against *fixed* centroids.
        runtime::reset();
        for d in [1, 2] {
            let w = Tensor::randn(&[12, d], DType::F32, Device::Cpu, 3);
            let c = Tensor::randn(&[4, d], DType::F32, Device::Cpu, 4);
            check_gradients(
                |vs| {
                    let (soft, _) = iteration_node(&vs[0], c.clone(), 2.0);
                    soft.square().sum_all()
                },
                &[w],
                1e-3,
                5e-2,
            )
            .unwrap_or_else(|e| panic!("cluster_dim {d}: {e}"));
        }
    }

    #[test]
    fn annotated_softmax_matches_plain_softmax_gradients() {
        runtime::reset();
        let x = Tensor::randn(&[6, 4], DType::F32, Device::Cpu, 9);
        let weight = Tensor::randn(&[6, 4], DType::F32, Device::Cpu, 10);
        // Values equal.
        let a = softmax_annotated(&Var::constant(x.clone()), &DistinctRows::identity(6), None);
        let b = Var::constant(x.clone()).softmax_lastdim();
        assert!(t::allclose(a.value(), b.value(), 1e-7));
        // Gradients equal.
        let grad_of = |annotated: bool| -> Vec<f32> {
            let v = Var::param(x.clone());
            let s = if annotated {
                softmax_annotated(&v, &DistinctRows::identity(6), None)
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
            uniquify::tests::annotation_count(),
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
        assert_eq!(uniquify::tests::annotation_count(), 0);
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
            uniquify::tests::annotation_count(),
            1,
            "vector clustering of 16-bit weights must annotate block keys"
        );
        uniquify::clear_annotations();
    }

    #[test]
    fn vector_gradients_flow_and_match_hooked_run() {
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
