//! AdamW optimizer, gradient clipping and learning-rate schedules.
//!
//! Matches the paper's fine-tuning recipe (Section 3): AdamW with
//! `betas = (0.9, 0.95)`, weight decay 0, gradient-norm clipping at 1.0.
//! Parameters may be 16-bit; the optimizer keeps f32 master copies and
//! moment estimates (standard mixed-precision practice) and writes rounded
//! values back into the parameter tensors in place.

use edkm_autograd::Var;
use edkm_tensor::ops as t_ops;
use std::collections::HashMap;

/// First-moment decay: the paper's β₁.
const BETA1: f32 = 0.9;
/// Second-moment decay: the paper's β₂.
const BETA2: f32 = 0.95;
/// Decoupled weight decay: the paper fine-tunes without it.
const WEIGHT_DECAY: f32 = 0.0;
/// Numerical epsilon of the update's denominator.
const EPS: f32 = 1e-8;

/// The AdamW hyper-parameter that callers tune; the betas, the weight decay
/// and ε are constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamWConfig {
    /// Peak learning rate.
    pub lr: f32,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        // The paper's recipe: lr 5e-5.
        AdamWConfig { lr: 5e-5 }
    }
}

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant at the configured `lr`.
    Constant,
    /// Linear warmup for `warmup` steps, then cosine decay to
    /// `final_frac · lr` at `total` steps.
    CosineWithWarmup {
        /// Warmup steps.
        warmup: u64,
        /// Total steps of the schedule.
        total: u64,
        /// Fraction of peak lr at the end.
        final_frac: f32,
    },
}

impl LrSchedule {
    /// Multiplier on the peak lr at `step` (0-based).
    pub(crate) fn factor(&self, step: u64) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::CosineWithWarmup {
                warmup,
                total,
                final_frac,
            } => {
                if warmup > 0 && step < warmup {
                    return (step + 1) as f32 / warmup as f32;
                }
                let span = total.saturating_sub(warmup).max(1) as f32;
                let p = ((step.saturating_sub(warmup)) as f32 / span).min(1.0);
                let cos = 0.5 * (1.0 + (std::f32::consts::PI * p).cos());
                final_frac + (1.0 - final_frac) * cos
            }
        }
    }
}

struct ParamState {
    master: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

/// AdamW with f32 master weights.
pub struct AdamW {
    config: AdamWConfig,
    schedule: LrSchedule,
    pub(crate) step_count: u64,
    state: HashMap<u64, ParamState>,
}

impl std::fmt::Debug for AdamW {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AdamW(step={}, lr={}, params={})",
            self.step_count,
            self.config.lr,
            self.state.len()
        )
    }
}

impl AdamW {
    /// New optimizer with an explicit schedule.
    pub fn with_schedule(config: AdamWConfig, schedule: LrSchedule) -> Self {
        AdamW {
            config,
            schedule,
            step_count: 0,
            state: HashMap::new(),
        }
    }

    /// Current effective learning rate.
    pub(crate) fn current_lr(&self) -> f32 {
        self.config.lr * self.schedule.factor(self.step_count)
    }

    /// Apply one update to every param that has a gradient, then clear the
    /// gradients.
    pub fn step(&mut self, params: &[Var]) {
        let lr = self.current_lr();
        self.step_count += 1;
        let t = self.step_count as i32;
        let bc1 = 1.0 - BETA1.powi(t);
        let bc2 = 1.0 - BETA2.powi(t);
        for p in params {
            let Some(grad) = p.grad() else { continue };
            let g = grad.to_vec();
            let key = p.id().0;
            let st = self.state.entry(key).or_insert_with(|| ParamState {
                master: p.value().to_vec(),
                m: vec![0.0; g.len()],
                v: vec![0.0; g.len()],
            });
            assert_eq!(st.master.len(), g.len(), "param/grad size mismatch");
            #[allow(clippy::needless_range_loop)] // four parallel arrays; zip obscures it
            for i in 0..g.len() {
                st.m[i] = BETA1 * st.m[i] + (1.0 - BETA1) * g[i];
                st.v[i] = BETA2 * st.v[i] + (1.0 - BETA2) * g[i] * g[i];
                let mhat = st.m[i] / bc1;
                let vhat = st.v[i] / bc2;
                st.master[i] -= lr * (mhat / (vhat.sqrt() + EPS) + WEIGHT_DECAY * st.master[i]);
            }
            let master = &st.master;
            p.value().apply_inplace(|i, _| master[i]);
            p.zero_grad();
        }
    }
}

/// Scale all gradients so their global L2 norm is at most `max_norm`.
///
/// Returns the pre-clip norm. Parameters without gradients are skipped.
pub fn clip_grad_norm(params: &[Var], max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for p in params {
        if let Some(g) = p.grad() {
            sq += g
                .to_vec()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>();
        }
    }
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(g) = p.grad() {
                p.set_grad(Some(t_ops::mul_scalar(&g, scale)));
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::{runtime, DType, Device, Tensor};

    #[test]
    fn adamw_minimizes_quadratic() {
        runtime::reset();
        // minimize (x-3)^2 from x=0.
        let x = Var::param(Tensor::scalar(0.0, DType::F32, Device::Cpu));
        let mut opt = AdamW::with_schedule(AdamWConfig { lr: 0.1 }, LrSchedule::Constant);
        for _ in 0..200 {
            let loss = x.add_scalar(-3.0).square().sum_all();
            loss.backward();
            opt.step(std::slice::from_ref(&x));
        }
        assert!(
            (x.value().item() - 3.0).abs() < 0.05,
            "x={}",
            x.value().item()
        );
        assert_eq!(opt.step_count, 200);
    }

    #[test]
    fn step_clears_grads() {
        runtime::reset();
        let x = Var::param(Tensor::scalar(1.0, DType::F32, Device::Cpu));
        let mut opt = AdamW::with_schedule(AdamWConfig::default(), LrSchedule::Constant);
        x.square().sum_all().backward();
        assert!(x.grad().is_some());
        opt.step(std::slice::from_ref(&x));
        assert!(x.grad().is_none());
    }

    #[test]
    fn bf16_params_keep_f32_master_progress() {
        runtime::reset();
        // With a tiny lr, bf16 rounding alone would stall; the master copy
        // must keep accumulating so the param eventually moves.
        let x = Var::param(Tensor::scalar(1.0, DType::Bf16, Device::Cpu));
        let mut opt = AdamW::with_schedule(AdamWConfig { lr: 1e-4 }, LrSchedule::Constant);
        for _ in 0..100 {
            let loss = x.square().sum_all();
            loss.backward();
            opt.step(std::slice::from_ref(&x));
        }
        assert!(x.value().item() < 1.0, "param should have moved");
        // Value stays bf16-exact.
        assert_eq!(DType::Bf16.round(x.value().item()), x.value().item());
    }

    #[test]
    fn params_without_grads_are_skipped() {
        runtime::reset();
        let x = Var::param(Tensor::scalar(2.0, DType::F32, Device::Cpu));
        let mut opt = AdamW::with_schedule(AdamWConfig::default(), LrSchedule::Constant);
        opt.step(std::slice::from_ref(&x));
        assert_eq!(x.value().item(), 2.0);
    }

    #[test]
    fn clip_rescales_when_above_threshold() {
        runtime::reset();
        let x = Var::param(Tensor::from_vec(
            vec![3.0, 4.0],
            &[2],
            DType::F32,
            Device::Cpu,
        ));
        x.square().sum_all().backward(); // grad = [6, 8], norm 10
        let norm = clip_grad_norm(std::slice::from_ref(&x), 1.0);
        assert!((norm - 10.0).abs() < 1e-4);
        let g = x.grad().unwrap().to_vec();
        let new_norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_leaves_small_grads_alone() {
        runtime::reset();
        let x = Var::param(Tensor::from_vec(
            vec![0.01, 0.02],
            &[2],
            DType::F32,
            Device::Cpu,
        ));
        x.sum_all().backward(); // grad = [1, 1], norm sqrt2
        let norm = clip_grad_norm(std::slice::from_ref(&x), 10.0);
        assert!((norm - 2.0f32.sqrt()).abs() < 1e-5);
        assert_eq!(x.grad().unwrap().to_vec(), vec![1.0, 1.0]);
    }

    #[test]
    fn schedule_warmup_and_decay() {
        let s = LrSchedule::CosineWithWarmup {
            warmup: 10,
            total: 110,
            final_frac: 0.1,
        };
        assert!((s.factor(0) - 0.1).abs() < 1e-6);
        assert!((s.factor(9) - 1.0).abs() < 1e-6);
        assert!(s.factor(20) > s.factor(60));
        assert!((s.factor(109) - 0.1).abs() < 0.01);
        assert!((s.factor(10_000) - 0.1).abs() < 1e-6, "clamps past total");
        assert_eq!(LrSchedule::Constant.factor(12345), 1.0);
    }
}
