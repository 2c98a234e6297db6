//! Differentiable operations on [`Var`] with hand-written VJPs.
//!
//! Every op that needs tensors at backward time stores them through
//! [`crate::hooks::save_tensor`], so installed saved-tensor hooks (the eDKM
//! mechanism) see exactly the set of tensors PyTorch would save.

use crate::hooks::save_tensor;
use crate::var::Var;
use edkm_tensor::{exact, ops as t, DType, Tensor};

/// Sum `g` down to `target` shape (the adjoint of broadcasting).
fn reduce_to_shape(g: &Tensor, target: &[usize]) -> Tensor {
    if g.shape() == target {
        return g.clone();
    }
    let mut cur = g.clone();
    while cur.rank() > target.len() {
        cur = t::sum_axis(&cur, 0);
    }
    for (i, &t_dim) in target.iter().enumerate() {
        if t_dim == 1 && cur.shape()[i] != 1 {
            cur = t::sum_axis(&cur, i);
            let mut s = cur.shape().to_vec();
            s.insert(i, 1);
            cur = cur.reshape(&s);
        }
    }
    cur
}

/// Sum over the last axis, keeping it as size 1.
fn sum_lastdim_keepdim(x: &Tensor) -> Tensor {
    let axis = x.rank() - 1;
    let s = t::sum_axis(x, axis);
    let mut shape = s.shape().to_vec();
    shape.push(1);
    s.reshape(&shape)
}

/// Softmax VJP over the last axis: `dx = s ⊙ (g − rowsum(g ⊙ s))` for the
/// softmax output `s` and the upstream gradient `g` (same shape); `dx` is
/// f32.
///
/// One pass per row with the bits of the four-op formula it replaces
/// (`mul`, `sum_axis`, `sub`, `mul`): each row sum adds its products in
/// column order from 0.0, a product is rounded to `promote(g, s)` when that
/// is 16-bit, exactly where `mul` rounded it, and every later result is f32.
/// It charges the clock for the same four passes.
///
/// Both products, `g·s` and `s·(g − dot)`, are formed exactly in f64 from
/// a widened copy of the row of `s` (`edkm_tensor::exact`): the bits of
/// the f32 products, without the assist an f32 multiply takes on each of
/// a sharp map's subnormals.
///
/// # Panics
///
/// Panics if the shapes differ or `s` is rank 0.
pub fn softmax_backward(g: &Tensor, s: &Tensor) -> Tensor {
    assert_eq!(g.shape(), s.shape(), "softmax_backward: shape mismatch");
    let k = *s.shape().last().expect("softmax_backward needs rank >= 1");
    let prod = t::promote(g.dtype(), s.dtype());
    let mut dx = vec![0.0f32; s.numel()];
    if k > 0 {
        let mut s_wide = Vec::with_capacity(k);
        g.with_data(|gd| {
            s.with_data(|sd| {
                let rows = gd.chunks_exact(k).zip(sd.chunks_exact(k));
                for ((g_row, s_row), dx_row) in rows.zip(dx.chunks_exact_mut(k)) {
                    let s_row = exact::widen_into(&mut s_wide, s_row);
                    let terms = g_row.iter().zip(s_row).map(|(&gv, &sv)| exact::mul(gv, sv));
                    let dot = if prod.is_16bit() {
                        terms.fold(0.0f32, |acc, v| acc + prod.round(v))
                    } else {
                        terms.fold(0.0f32, |acc, v| acc + v)
                    };
                    for ((d, &gv), &sv) in dx_row.iter_mut().zip(g_row).zip(s_row) {
                        *d = exact::mul(gv - dot, sv);
                    }
                }
            })
        });
    }
    for _ in 0..4 {
        edkm_tensor::runtime::record_compute(s.numel() as f64, s.device());
    }
    Tensor::from_vec(dx, s.shape(), DType::F32, s.device())
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

impl Var {
    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Element-wise sum with broadcasting.
    pub fn add(&self, other: &Var) -> Var {
        let (sa, sb) = (
            self.value().shape().to_vec(),
            other.value().shape().to_vec(),
        );
        let value = t::add(self.value(), other.value());
        Var::from_op(
            value,
            "add",
            vec![self.clone(), other.clone()],
            vec![],
            Box::new(move |g, _| {
                vec![Some(reduce_to_shape(g, &sa)), Some(reduce_to_shape(g, &sb))]
            }),
        )
    }

    /// Element-wise difference with broadcasting.
    pub(crate) fn sub(&self, other: &Var) -> Var {
        let (sa, sb) = (
            self.value().shape().to_vec(),
            other.value().shape().to_vec(),
        );
        let value = t::sub(self.value(), other.value());
        Var::from_op(
            value,
            "sub",
            vec![self.clone(), other.clone()],
            vec![],
            Box::new(move |g, _| {
                let db = reduce_to_shape(g, &sb).map(|v| -v);
                vec![Some(reduce_to_shape(g, &sa)), Some(db)]
            }),
        )
    }

    /// Element-wise product with broadcasting.
    pub fn mul(&self, other: &Var) -> Var {
        let (sa, sb) = (
            self.value().shape().to_vec(),
            other.value().shape().to_vec(),
        );
        let value = t::mul(self.value(), other.value());
        let saved = vec![save_tensor(self.value()), save_tensor(other.value())];
        Var::from_op(
            value,
            "mul",
            vec![self.clone(), other.clone()],
            saved,
            Box::new(move |g, s| {
                let da = reduce_to_shape(&t::mul(g, &s[1]), &sa);
                let db = reduce_to_shape(&t::mul(g, &s[0]), &sb);
                vec![Some(da), Some(db)]
            }),
        )
    }

    /// Element-wise quotient with broadcasting.
    pub fn div(&self, other: &Var) -> Var {
        let (sa, sb) = (
            self.value().shape().to_vec(),
            other.value().shape().to_vec(),
        );
        let value = t::div(self.value(), other.value());
        let saved = vec![save_tensor(self.value()), save_tensor(other.value())];
        Var::from_op(
            value,
            "div",
            vec![self.clone(), other.clone()],
            saved,
            Box::new(move |g, s| {
                let da = reduce_to_shape(&t::div(g, &s[1]), &sa);
                // db = -g*a/b^2
                let b2 = t::mul(&s[1], &s[1]);
                let db = reduce_to_shape(&t::div(&t::mul(g, &s[0]), &b2).map(|v| -v), &sb);
                vec![Some(da), Some(db)]
            }),
        )
    }

    /// Negation.
    pub(crate) fn neg(&self) -> Var {
        let value = self.value().map(|v| -v);
        Var::from_op(
            value,
            "neg",
            vec![self.clone()],
            vec![],
            Box::new(|g, _| vec![Some(g.map(|v| -v))]),
        )
    }

    /// Add a scalar constant.
    pub fn add_scalar(&self, c: f32) -> Var {
        let value = t::add_scalar(self.value(), c);
        Var::from_op(
            value,
            "add_scalar",
            vec![self.clone()],
            vec![],
            Box::new(|g, _| vec![Some(g.clone())]),
        )
    }

    /// Multiply by a scalar constant.
    pub fn mul_scalar(&self, c: f32) -> Var {
        let value = t::mul_scalar(self.value(), c);
        Var::from_op(
            value,
            "mul_scalar",
            vec![self.clone()],
            vec![],
            Box::new(move |g, _| vec![Some(t::mul_scalar(g, c))]),
        )
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// 2-D matrix product.
    ///
    /// Saves both operands for backward (the saves eDKM intercepts).
    pub fn matmul(&self, other: &Var) -> Var {
        let value = t::matmul(self.value(), other.value());
        let saved = vec![save_tensor(self.value()), save_tensor(other.value())];
        Var::from_op(
            value,
            "matmul",
            vec![self.clone(), other.clone()],
            saved,
            Box::new(|g, s| {
                let da = t::matmul(g, &s[1].t());
                let db = t::matmul(&s[0].t(), g);
                vec![Some(da), Some(db)]
            }),
        )
    }

    /// Batched 3-D matrix product.
    pub fn bmm(&self, other: &Var) -> Var {
        let value = t::bmm(self.value(), other.value());
        let saved = vec![save_tensor(self.value()), save_tensor(other.value())];
        Var::from_op(
            value,
            "bmm",
            vec![self.clone(), other.clone()],
            saved,
            Box::new(|g, s| {
                let da = t::bmm(g, &s[1].transpose(1, 2));
                let db = t::bmm(&s[0].transpose(1, 2), g);
                vec![Some(da), Some(db)]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Shape ops (these are also storage-invariant at the tensor level)
    // ------------------------------------------------------------------

    /// Reshape (view when contiguous).
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let in_shape = self.value().shape().to_vec();
        let value = self.value().reshape(shape);
        Var::from_op(
            value,
            "reshape",
            vec![self.clone()],
            vec![],
            Box::new(move |g, _| vec![Some(g.reshape(&in_shape))]),
        )
    }

    /// Swap two axes.
    pub fn transpose(&self, d0: usize, d1: usize) -> Var {
        let value = self.value().transpose(d0, d1);
        Var::from_op(
            value,
            "transpose",
            vec![self.clone()],
            vec![],
            Box::new(move |g, _| vec![Some(g.transpose(d0, d1))]),
        )
    }

    /// 2-D matrix transpose.
    pub fn t(&self) -> Var {
        self.transpose(0, 1)
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Softmax over the last axis (saves its output, like PyTorch).
    pub fn softmax_lastdim(&self) -> Var {
        let value = t::softmax_lastdim(self.value());
        let saved = vec![save_tensor(&value)];
        Var::from_op(
            value,
            "softmax",
            vec![self.clone()],
            saved,
            Box::new(|g, s| vec![Some(softmax_backward(g, &s[0]))]),
        )
    }

    /// SiLU / swish: `x · σ(x)` (the LLaMA MLP activation).
    pub fn silu(&self) -> Var {
        let value = self.value().map(|v| v * sigmoid(v));
        let saved = vec![save_tensor(self.value())];
        Var::from_op(
            value,
            "silu",
            vec![self.clone()],
            saved,
            Box::new(|g, s| {
                let dx = t::binary_op(g, &s[0], |gv, xv| {
                    let sg = sigmoid(xv);
                    gv * (sg * (1.0 + xv * (1.0 - sg)))
                });
                vec![Some(dx)]
            }),
        )
    }

    /// Element-wise square.
    pub fn square(&self) -> Var {
        let value = self.value().map(|v| v * v);
        let saved = vec![save_tensor(self.value())];
        Var::from_op(
            value,
            "square",
            vec![self.clone()],
            saved,
            Box::new(|g, s| vec![Some(t::binary_op(g, &s[0], |gv, xv| 2.0 * xv * gv))]),
        )
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (rank-0 result).
    pub fn sum_all(&self) -> Var {
        let in_shape = self.value().shape().to_vec();
        let value = t::sum_all(self.value());
        Var::from_op(
            value,
            "sum_all",
            vec![self.clone()],
            vec![],
            Box::new(move |g, _| {
                vec![Some(Tensor::full(
                    g.item(),
                    &in_shape,
                    DType::F32,
                    g.device(),
                ))]
            }),
        )
    }

    /// Mean of all elements (rank-0 result).
    pub fn mean_all(&self) -> Var {
        let in_shape = self.value().shape().to_vec();
        let n = self.value().numel().max(1) as f32;
        let value = t::mean_all(self.value());
        Var::from_op(
            value,
            "mean_all",
            vec![self.clone()],
            vec![],
            Box::new(move |g, _| {
                vec![Some(Tensor::full(
                    g.item() / n,
                    &in_shape,
                    DType::F32,
                    g.device(),
                ))]
            }),
        )
    }

    /// Sum over one axis (removed from the shape).
    pub fn sum_axis(&self, axis: usize) -> Var {
        let in_shape = self.value().shape().to_vec();
        let value = t::sum_axis(self.value(), axis);
        Var::from_op(
            value,
            "sum_axis",
            vec![self.clone()],
            vec![],
            Box::new(move |g, _| {
                let mut keep = g.shape().to_vec();
                keep.insert(axis, 1);
                let expanded = g.reshape(&keep).broadcast_to(&in_shape).contiguous();
                vec![Some(expanded)]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Fused / structured ops
    // ------------------------------------------------------------------

    /// RMS normalization over the last axis with a learned gain:
    /// `y = x / rms(x) ⊙ w`, `rms(x) = sqrt(mean(x²) + eps)`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not 1-D of the same size as the last axis.
    pub fn rmsnorm(&self, weight: &Var, eps: f32) -> Var {
        let d = *self.value().shape().last().expect("rmsnorm needs rank>=1");
        assert_eq!(weight.value().shape(), &[d], "rmsnorm weight must be [d]");
        let x = self.value().to_vec();
        let w = weight.value().to_vec();
        let mut out = vec![0.0f32; x.len()];
        for (row, orow) in x.chunks(d).zip(out.chunks_mut(d)) {
            let ms = row.iter().map(|v| v * v).sum::<f32>() / d as f32;
            let r = 1.0 / (ms + eps).sqrt();
            for ((o, &xv), &wv) in orow.iter_mut().zip(row).zip(&w) {
                *o = xv * r * wv;
            }
        }
        edkm_tensor::runtime::record_compute(4.0 * x.len() as f64, self.value().device());
        let value = Tensor::from_vec(out, self.value().shape(), DType::F32, self.value().device());
        let saved = vec![save_tensor(self.value()), save_tensor(weight.value())];
        Var::from_op(
            value,
            "rmsnorm",
            vec![self.clone(), weight.clone()],
            saved,
            Box::new(move |g, s| {
                let x = s[0].to_vec();
                let w = s[1].to_vec();
                let gd = g.to_vec();
                let mut dx = vec![0.0f32; x.len()];
                let mut dw = vec![0.0f32; d];
                for (ri, (row, grow)) in x.chunks(d).zip(gd.chunks(d)).enumerate() {
                    let ms = row.iter().map(|v| v * v).sum::<f32>() / d as f32;
                    let r = 1.0 / (ms + eps).sqrt();
                    // dot = Σ_i g_i w_i x_i
                    let mut dot = 0.0f32;
                    for ((&gv, &wv), &xv) in grow.iter().zip(&w).zip(row) {
                        dot += gv * wv * xv;
                        // accumulate dW: x*r*g
                    }
                    let r3 = r * r * r;
                    let base = ri * d;
                    for i in 0..d {
                        dx[base + i] = grow[i] * w[i] * r - row[i] * r3 / d as f32 * dot;
                        dw[i] += row[i] * r * grow[i];
                    }
                }
                let dxt = Tensor::from_vec(dx, s[0].shape(), DType::F32, g.device());
                let dwt = Tensor::from_vec(dw, &[d], DType::F32, g.device());
                vec![Some(dxt), Some(dwt)]
            }),
        )
    }

    /// Embedding lookup: `self` is the `[vocab, d]` table, `ids` select rows.
    pub fn embedding(&self, ids: &[usize]) -> Var {
        assert_eq!(self.value().rank(), 2, "embedding table must be 2-D");
        let v = self.value().shape()[0];
        let ids_owned: Vec<usize> = ids.to_vec();
        let value = t::gather_rows(self.value(), ids);
        Var::from_op(
            value,
            "embedding",
            vec![self.clone()],
            vec![],
            Box::new(move |g, _| vec![Some(t::scatter_add_rows(g, &ids_owned, v))]),
        )
    }

    /// Mean cross-entropy of `[n, v]` logits against target class ids.
    ///
    /// Saves the softmax probabilities (the dominant activation save in LLM
    /// training).
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of rows.
    pub fn cross_entropy(&self, targets: &[usize]) -> Var {
        assert_eq!(
            self.value().rank(),
            2,
            "cross_entropy expects [n, v] logits"
        );
        let (n, v) = (self.value().shape()[0], self.value().shape()[1]);
        assert_eq!(targets.len(), n, "cross_entropy target count mismatch");
        let probs = t::softmax_lastdim(self.value());
        let pd = probs.to_vec();
        let mut loss = 0.0f64;
        for (i, &tg) in targets.iter().enumerate() {
            assert!(tg < v, "target {tg} out of vocab {v}");
            loss -= (pd[i * v + tg].max(1e-30) as f64).ln();
        }
        let loss = (loss / n as f64) as f32;
        let value = Tensor::scalar(loss, DType::F32, self.value().device());
        let targets_owned: Vec<usize> = targets.to_vec();
        let saved = vec![save_tensor(&probs)];
        Var::from_op(
            value,
            "cross_entropy",
            vec![self.clone()],
            saved,
            Box::new(move |g, s| {
                let scale = g.item() / n as f32;
                let mut dl = s[0].to_vec();
                for (i, &tg) in targets_owned.iter().enumerate() {
                    dl[i * v + tg] -= 1.0;
                }
                for x in &mut dl {
                    *x *= scale;
                }
                vec![Some(Tensor::from_vec(dl, &[n, v], DType::F32, g.device()))]
            }),
        )
    }

    /// Negative squared distances `[n,k]` between `self` (`[n,d]` weights)
    /// and `centroids` (`[k,d]`): the DKM attention-map logits.
    ///
    /// The centroid gradient is computed only when `centroids` requires one
    /// (decided here, when the node is recorded): DKM passes constant
    /// centroids and needs only the weight gradient.
    pub fn neg_sqdist(&self, centroids: &Var) -> Var {
        let value = t::neg_sqdist(self.value(), centroids.value());
        let saved = vec![save_tensor(self.value()), save_tensor(centroids.value())];
        let centroid_grad = centroids.requires_grad();
        Var::from_op(
            value,
            "neg_sqdist",
            vec![self.clone(), centroids.clone()],
            saved,
            Box::new(move |g, s| {
                let (w, c) = (&s[0], &s[1]);
                // dW = -2 (rowsum(g) ⊙ w − g @ C)
                let rows = sum_lastdim_keepdim(g); // [n,1]
                let dw = t::mul_scalar(&t::sub(&t::mul(&rows, w), &t::matmul(g, c)), -2.0);
                // dC = 2 (gᵀ @ W − colsum(g) ⊙ c)
                let dc = centroid_grad.then(|| {
                    let cols = t::sum_axis(g, 0); // [k]
                    let colk = cols.reshape(&[cols.numel(), 1]); // [k,1]
                    t::mul_scalar(&t::sub(&t::matmul(&g.t(), w), &t::mul(&colk, c)), 2.0)
                });
                vec![Some(dw), dc]
            }),
        )
    }

    /// Straight-through estimator: forward takes the value of `hard`,
    /// backward passes the gradient to `self` unchanged.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn straight_through(&self, hard: Tensor) -> Var {
        assert_eq!(
            self.value().shape(),
            hard.shape(),
            "straight_through shape mismatch"
        );
        Var::from_op(
            hard,
            "straight_through",
            vec![self.clone()],
            vec![],
            Box::new(|g, _| vec![Some(g.clone())]),
        )
    }
}

// ---------------------------------------------------------------------
// Operator overloads (C-OVERLOAD: straightforward element-wise semantics).
// ---------------------------------------------------------------------

impl std::ops::Add for &Var {
    type Output = Var;
    fn add(self, rhs: &Var) -> Var {
        Var::add(self, rhs)
    }
}

impl std::ops::Sub for &Var {
    type Output = Var;
    fn sub(self, rhs: &Var) -> Var {
        Var::sub(self, rhs)
    }
}

impl std::ops::Mul for &Var {
    type Output = Var;
    fn mul(self, rhs: &Var) -> Var {
        Var::mul(self, rhs)
    }
}

impl std::ops::Div for &Var {
    type Output = Var;
    fn div(self, rhs: &Var) -> Var {
        Var::div(self, rhs)
    }
}

impl std::ops::Neg for &Var {
    type Output = Var;
    fn neg(self) -> Var {
        Var::neg(self)
    }
}

impl std::ops::Mul<f32> for &Var {
    type Output = Var;
    fn mul(self, rhs: f32) -> Var {
        self.mul_scalar(rhs)
    }
}

impl std::ops::Add<f32> for &Var {
    type Output = Var;
    fn add(self, rhs: f32) -> Var {
        self.add_scalar(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradients;
    use edkm_tensor::{runtime, Device};
    use proptest::prelude::*;

    fn v(data: Vec<f32>, shape: &[usize]) -> Var {
        Var::param(Tensor::from_vec(data, shape, DType::F32, Device::Cpu))
    }

    fn randn(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, DType::F32, Device::Cpu, seed)
    }

    // ---------- value tests ----------

    #[test]
    fn add_broadcast_values_and_grads() {
        runtime::reset();
        let a = v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = v(vec![10.0, 20.0, 30.0], &[3]);
        let y = a.add(&b).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().to_vec(), vec![1.0; 6]);
        assert_eq!(
            b.grad().unwrap().to_vec(),
            vec![2.0; 3],
            "broadcast grad must reduce"
        );
    }

    #[test]
    fn matmul_grads_known() {
        runtime::reset();
        let a = v(vec![1.0, 2.0], &[1, 2]);
        let b = v(vec![3.0, 4.0], &[2, 1]);
        let y = a.matmul(&b).sum_all();
        assert_eq!(y.value().item(), 11.0);
        y.backward();
        assert_eq!(a.grad().unwrap().to_vec(), vec![3.0, 4.0]);
        assert_eq!(b.grad().unwrap().to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        runtime::reset();
        let x = v(vec![0.5, -0.5, 2.0], &[1, 3]);
        // Pick one output as loss: grad wrt logits must sum to 0.
        let pick = Var::constant(Tensor::from_vec(
            vec![1.0, 0.0, 0.0],
            &[1, 3],
            DType::F32,
            Device::Cpu,
        ));
        let y = x.softmax_lastdim().mul(&pick).sum_all();
        y.backward();
        let g = x.grad().unwrap().to_vec();
        assert!((g.iter().sum::<f32>()).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        runtime::reset();
        let x = v(vec![2.0, 0.0, 0.0, 2.0], &[2, 2]);
        let loss = x.cross_entropy(&[0, 1]);
        // Both rows: -ln(e^2/(e^2+1))
        let expect = -(2.0f32.exp() / (2.0f32.exp() + 1.0)).ln();
        assert!((loss.value().item() - expect).abs() < 1e-5);
        loss.backward();
        let g = x.grad().unwrap().to_vec();
        // Each row sums to zero.
        assert!((g[0] + g[1]).abs() < 1e-6);
        assert!(g[0] < 0.0 && g[1] > 0.0);
    }

    #[test]
    fn embedding_scatter_grad() {
        runtime::reset();
        let table = v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let out = table.embedding(&[2, 2, 0]);
        assert_eq!(out.value().to_vec(), vec![5.0, 6.0, 5.0, 6.0, 1.0, 2.0]);
        out.sum_all().backward();
        assert_eq!(
            table.grad().unwrap().to_vec(),
            vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]
        );
    }

    #[test]
    fn straight_through_passes_grad() {
        runtime::reset();
        let x = v(vec![0.3, 0.7], &[2]);
        let hard = Tensor::from_vec(vec![0.0, 1.0], &[2], DType::F32, Device::Cpu);
        let y = x.straight_through(hard).mul_scalar(3.0).sum_all();
        assert_eq!(y.value().item(), 3.0);
        y.backward();
        assert_eq!(x.grad().unwrap().to_vec(), vec![3.0, 3.0]);
    }

    #[test]
    fn sum_axis_grad_broadcasts() {
        runtime::reset();
        let x = v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let y = x.sum_axis(1).mul(&v(vec![1.0, 10.0], &[2])).sum_all();
        y.backward();
        assert_eq!(
            x.grad().unwrap().to_vec(),
            vec![1.0, 1.0, 1.0, 10.0, 10.0, 10.0]
        );
    }

    #[test]
    fn rmsnorm_value_is_normalized() {
        runtime::reset();
        let x = v(vec![3.0, 4.0], &[1, 2]);
        let w = v(vec![1.0, 1.0], &[2]);
        let y = x.rmsnorm(&w, 0.0);
        let out = y.value().to_vec();
        let rms = ((9.0 + 16.0) / 2.0f32).sqrt();
        assert!((out[0] - 3.0 / rms).abs() < 1e-5);
        assert!((out[1] - 4.0 / rms).abs() < 1e-5);
    }

    #[test]
    fn operator_overloads_match_methods() {
        runtime::reset();
        let a = v(vec![1.0, 2.0], &[2]);
        let b = v(vec![3.0, 5.0], &[2]);
        assert_eq!((&a + &b).value().to_vec(), vec![4.0, 7.0]);
        assert_eq!((&a - &b).value().to_vec(), vec![-2.0, -3.0]);
        assert_eq!((&a * &b).value().to_vec(), vec![3.0, 10.0]);
        assert_eq!((&b / &a).value().to_vec(), vec![3.0, 2.5]);
        assert_eq!((-&a).value().to_vec(), vec![-1.0, -2.0]);
        assert_eq!((&a * 2.0).value().to_vec(), vec![2.0, 4.0]);
        assert_eq!((&a + 1.0).value().to_vec(), vec![2.0, 3.0]);
        // Gradients flow through operators as through methods.
        (&a * &b).sum_all().backward();
        assert_eq!(a.grad().unwrap().to_vec(), vec![3.0, 5.0]);
    }

    // ---------- gradient checks ----------

    #[test]
    fn gradcheck_binary_ops() {
        runtime::reset();
        for op in ["add", "sub", "mul", "div"] {
            let a = randn(&[2, 3], 1);
            let b = randn(&[2, 3], 2).map(|v| v + 3.0); // keep div well-conditioned
            let res = check_gradients(
                |vs| {
                    let r = match op {
                        "add" => vs[0].add(&vs[1]),
                        "sub" => vs[0].sub(&vs[1]),
                        "mul" => vs[0].mul(&vs[1]),
                        _ => vs[0].div(&vs[1]),
                    };
                    r.sum_all()
                },
                &[a, b],
                1e-2,
                2e-2,
            );
            res.unwrap_or_else(|e| panic!("{op}: {e}"));
        }
    }

    #[test]
    fn gradcheck_broadcast_ops() {
        runtime::reset();
        let a = randn(&[3, 4], 3);
        let b = randn(&[4], 4);
        check_gradients(|vs| vs[0].mul(&vs[1]).sum_all(), &[a, b], 1e-2, 2e-2).unwrap();
    }

    #[test]
    fn gradcheck_matmul() {
        runtime::reset();
        let a = randn(&[3, 4], 5);
        let b = randn(&[4, 2], 6);
        // Weighted sum output so the grad is not all-ones.
        let w = randn(&[3, 2], 7);
        check_gradients(
            |vs| {
                vs[0]
                    .matmul(&vs[1])
                    .mul(&Var::constant(w.clone()))
                    .sum_all()
            },
            &[a, b],
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_bmm() {
        runtime::reset();
        let a = randn(&[2, 3, 4], 8);
        let b = randn(&[2, 4, 2], 9);
        check_gradients(|vs| vs[0].bmm(&vs[1]).sum_all(), &[a, b], 1e-2, 2e-2).unwrap();
    }

    #[test]
    fn gradcheck_activations() {
        runtime::reset();
        for op in ["silu", "square"] {
            let x = randn(&[2, 5], 11);
            let w = randn(&[2, 5], 12);
            check_gradients(
                |vs| {
                    let y = match op {
                        "silu" => vs[0].silu(),
                        _ => vs[0].square(),
                    };
                    y.mul(&Var::constant(w.clone())).sum_all()
                },
                &[x],
                1e-2,
                3e-2,
            )
            .unwrap_or_else(|e| panic!("{op}: {e}"));
        }
    }

    #[test]
    fn gradcheck_softmax() {
        runtime::reset();
        let x = randn(&[3, 4], 14);
        let w = randn(&[3, 4], 15);
        check_gradients(
            |vs| {
                vs[0]
                    .softmax_lastdim()
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
    fn gradcheck_rmsnorm() {
        runtime::reset();
        let x = randn(&[3, 8], 16);
        let w = randn(&[8], 17).map(|v| v + 2.0);
        let g = randn(&[3, 8], 18);
        check_gradients(
            |vs| {
                vs[0]
                    .rmsnorm(&vs[1], 1e-5)
                    .mul(&Var::constant(g.clone()))
                    .sum_all()
            },
            &[x, w],
            1e-2,
            3e-2,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_cross_entropy() {
        runtime::reset();
        let x = randn(&[4, 5], 19);
        check_gradients(|vs| vs[0].cross_entropy(&[1, 0, 4, 2]), &[x], 1e-2, 2e-2).unwrap();
    }

    #[test]
    fn gradcheck_neg_sqdist() {
        runtime::reset();
        let w = randn(&[6, 2], 20);
        let c = randn(&[3, 2], 21);
        let g = randn(&[6, 3], 22);
        check_gradients(
            |vs| {
                vs[0]
                    .neg_sqdist(&vs[1])
                    .mul(&Var::constant(g.clone()))
                    .sum_all()
            },
            &[w, c],
            1e-2,
            3e-2,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_reductions_and_views() {
        runtime::reset();
        let x = randn(&[2, 6], 23);
        check_gradients(|vs| vs[0].mean_all(), std::slice::from_ref(&x), 1e-2, 2e-2).unwrap();
        check_gradients(
            |vs| vs[0].reshape(&[3, 4]).transpose(0, 1).square().sum_all(),
            &[x],
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    // ---------- fused VJPs vs. the composed formulas they replace ----------

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    /// The four-op softmax VJP `softmax_backward` replaces.
    fn softmax_backward_composed(g: &Tensor, s: &Tensor) -> Tensor {
        let gs = t::mul(g, s);
        let row = sum_lastdim_keepdim(&gs);
        t::mul(s, &t::sub(g, &row))
    }

    /// The softmax VJP as a plain f32 loop: `g·s` and `s·(g − dot)` are
    /// f32 multiplies, `g·s` rounded to `prod` before the row sum.
    fn softmax_backward_plain(g: &[f32], s: &[f32], k: usize, prod: DType) -> Vec<f32> {
        let mut dx = vec![0.0f32; s.len()];
        for ((g_row, s_row), dx_row) in g.chunks(k).zip(s.chunks(k)).zip(dx.chunks_mut(k)) {
            let mut dot = 0.0f32;
            for (&gv, &sv) in g_row.iter().zip(s_row) {
                dot += prod.round(gv * sv);
            }
            for ((d, &gv), &sv) in dx_row.iter_mut().zip(g_row).zip(s_row) {
                *d = sv * (gv - dot);
            }
        }
        dx
    }

    #[test]
    fn softmax_backward_with_injected_subnormals_matches_the_f32_loop() {
        runtime::reset();
        let (rows, k) = (2048, 8);
        // A sharp map: every third entry sits 87–103 below its row's
        // others, so its probability is subnormal or just above.
        let logits: Vec<f32> = randn(&[rows, k], 41)
            .to_vec()
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i % 3 == 1 {
                    v - 87.0 - (i % 17) as f32
                } else {
                    v
                }
            })
            .collect();
        let s = t::softmax_lastdim(&Tensor::from_vec(
            logits,
            &[rows, k],
            DType::F32,
            Device::Cpu,
        ));
        // Upstream gradients of both scales, with subnormals and signed
        // zeros injected.
        let g: Vec<f32> = randn(&[rows, k], 42)
            .to_vec()
            .iter()
            .enumerate()
            .map(|(i, &v)| match i % 11 {
                0 => f32::from_bits(1 + i as u32 % 0x7f_ffff) * v.signum(),
                1 => -0.0,
                2 => v * 1e-30,
                _ => v * 1e3,
            })
            .collect();
        let g = Tensor::from_vec(g, &[rows, k], DType::F32, Device::Cpu);
        let subnormals = |t: &Tensor| t.to_vec().iter().filter(|v| v.is_subnormal()).count();
        assert!(subnormals(&s) > rows / 4 && subnormals(&g) > rows / 4);
        for (g, s) in [
            (g.clone(), s.clone()),
            (g.cast(DType::Bf16), s.clone()),
            (g.cast(DType::Bf16), s.cast(DType::Bf16)),
        ] {
            let prod = t::promote(g.dtype(), s.dtype());
            let got = softmax_backward(&g, &s).to_vec();
            let want = softmax_backward_plain(&g.to_vec(), &s.to_vec(), k, prod);
            let label = format!("g {}, s {}", g.dtype(), s.dtype());
            assert_eq!(got.len(), want.len(), "{label}");
            for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label}: element {i}: {x:e} vs {y:e}"
                );
            }
        }
    }

    #[test]
    fn softmax_backward_matches_the_composed_formula_bit_for_bit() {
        // Sharp logits, so the softmax holds exact zeros and subnormals.
        for shape in [
            vec![5, 7],
            vec![1500, 8],
            vec![2, 3, 4],
            vec![3, 0],
            vec![4, 1],
        ] {
            runtime::reset();
            let logits = randn(&shape, 27).map(|v| v * 40.0);
            let s = if logits.numel() == 0 {
                logits.clone() // (the forward softmax needs a non-empty axis)
            } else {
                t::softmax_lastdim(&logits)
            };
            let upstream = randn(&shape, 28).map(|v| v * 1e3);
            for (g, s) in [
                (upstream.clone(), s.clone()),
                (upstream.cast(DType::Bf16), s.clone()),
                // Both 16-bit: the products round to bf16 before the sum.
                (upstream.cast(DType::Bf16), s.cast(DType::Bf16)),
            ] {
                let t0 = runtime::sim_seconds();
                let got = softmax_backward(&g, &s);
                let fused_s = runtime::sim_seconds() - t0;
                let t0 = runtime::sim_seconds();
                let want = softmax_backward_composed(&g, &s);
                let composed_s = runtime::sim_seconds() - t0;
                let label = format!("{shape:?}, g {}, s {}", g.dtype(), s.dtype());
                assert_eq!(
                    (got.shape(), got.dtype()),
                    (want.shape(), want.dtype()),
                    "{label}"
                );
                assert_eq!(bits(&got), bits(&want), "{label}");
                assert_eq!(
                    (fused_s * 1e12).round(),
                    (composed_s * 1e12).round(),
                    "{label}: the same four passes are charged (picoseconds)"
                );
            }
        }
    }

    #[test]
    fn neg_sqdist_computes_the_centroid_gradient_only_when_needed() {
        let w = randn(&[40, 2], 24);
        let c = randn(&[8, 2], 25);
        let g = randn(&[40, 8], 26);
        let run = |trainable: bool| {
            runtime::reset();
            let wv = Var::param(w.clone());
            let cv = if trainable {
                Var::param(c.clone())
            } else {
                Var::constant(c.clone())
            };
            let y = wv.neg_sqdist(&cv);
            let t0 = runtime::sim_seconds();
            y.backward_with(g.clone());
            let cost = runtime::sim_seconds() - t0;
            (bits(&wv.grad().expect("dW")), cv.grad(), cost)
        };
        let (dw_const, dc_const, cost_const) = run(false);
        let (dw_train, dc_train, cost_train) = run(true);
        assert_eq!(dw_const, dw_train, "dW does not depend on dC");
        assert!(dc_const.is_none());
        assert_eq!(
            dc_train.expect("trainable centroids get dC").shape(),
            &[8, 2]
        );
        assert!(
            cost_const < cost_train,
            "constant centroids skip dC's passes: {cost_const} vs {cost_train}"
        );
        // dW = -2 (rowsum(g) ⊙ w − g @ C), composed from tensor ops.
        let rows = t::sum_axis(&g, 1).reshape(&[40, 1]);
        let want = t::mul_scalar(&t::sub(&t::mul(&rows, &w), &t::matmul(&g, &c)), -2.0);
        assert_eq!(dw_const, bits(&want));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random small expression trees gradcheck clean.
        #[test]
        fn prop_gradcheck_composites(seed in 0u64..500) {
            runtime::reset();
            let a = randn(&[2, 3], seed);
            let b = randn(&[2, 3], seed.wrapping_add(1)).map(|v| v + 2.5);
            check_gradients(
                |vs| {
                    vs[0]
                        .mul(&vs[1])
                        .silu()
                        .add(&vs[0].square())
                        .softmax_lastdim()
                        .sum_all()
                },
                &[a, b],
                1e-2,
                5e-2,
            ).unwrap();
        }

        /// Softmax output rows stay on the simplex for any input.
        #[test]
        fn prop_softmax_var_simplex(seed in any::<u64>()) {
            runtime::reset();
            let x = Var::constant(randn(&[3, 5], seed));
            let s = x.softmax_lastdim();
            for row in s.value().to_vec().chunks(5) {
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    }
}
