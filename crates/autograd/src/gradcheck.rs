//! Numeric gradient checking utilities.
//!
//! Used throughout the workspace's test suites to validate every VJP against
//! central finite differences.

use crate::var::Var;
use edkm_tensor::Tensor;

/// Central-difference numeric gradient of a scalar function of several
/// tensors, with respect to input `wrt`.
///
/// `f` must be deterministic.
pub(crate) fn numeric_gradient(
    f: &dyn Fn(&[Tensor]) -> f32,
    inputs: &[Tensor],
    wrt: usize,
    eps: f32,
) -> Vec<f32> {
    let base: Vec<Vec<f32>> = inputs.iter().map(|t| t.to_vec()).collect();
    let n = base[wrt].len();
    let mut grad = vec![0.0f32; n];
    for i in 0..n {
        let mut plus = base.clone();
        plus[wrt][i] += eps;
        let mut minus = base.clone();
        minus[wrt][i] -= eps;
        let mk = |data: &[Vec<f32>]| -> Vec<Tensor> {
            data.iter()
                .zip(inputs)
                .map(|(d, t)| Tensor::from_vec(d.clone(), t.shape(), t.dtype(), t.device()))
                .collect()
        };
        let fp = f(&mk(&plus));
        let fm = f(&mk(&minus));
        grad[i] = (fp - fm) / (2.0 * eps);
    }
    grad
}

/// Check analytic gradients of `build` (a scalar-valued graph builder)
/// against numeric gradients for every input.
///
/// Comparison uses a mixed absolute/relative criterion:
/// `|a - n| <= tol * max(1, |a|, |n|)`.
///
/// # Errors
///
/// Returns a description of the first mismatching element.
pub fn check_gradients(
    build: impl Fn(&[Var]) -> Var,
    inputs: &[Tensor],
    eps: f32,
    tol: f32,
) -> Result<(), String> {
    // Analytic gradients.
    let vars: Vec<Var> = inputs.iter().map(|t| Var::param(t.clone())).collect();
    let loss = build(&vars);
    if loss.value().numel() != 1 {
        return Err(format!(
            "build must return a scalar, got shape {:?}",
            loss.value().shape()
        ));
    }
    loss.backward();

    // Numeric.
    let eval = |ts: &[Tensor]| -> f32 {
        let vs: Vec<Var> = ts.iter().map(|t| Var::constant(t.clone())).collect();
        build(&vs).value().item()
    };

    for (wi, var) in vars.iter().enumerate() {
        let analytic = match var.grad() {
            Some(g) => g.to_vec(),
            None => vec![0.0; inputs[wi].numel()],
        };
        let numeric = numeric_gradient(&eval, inputs, wi, eps);
        for (i, (&a, &n)) in analytic.iter().zip(&numeric).enumerate() {
            let scale = 1.0f32.max(a.abs()).max(n.abs());
            if (a - n).abs() > tol * scale {
                return Err(format!(
                    "input {wi}, element {i}: analytic {a} vs numeric {n} (tol {tol})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::{runtime, DType, Device};

    #[test]
    fn numeric_gradient_of_square() {
        runtime::reset();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3], DType::F32, Device::Cpu);
        let g = numeric_gradient(
            &|ts: &[Tensor]| ts[0].to_vec().iter().map(|v| v * v).sum(),
            &[x],
            0,
            1e-3,
        );
        for (i, v) in g.iter().enumerate() {
            assert!((v - 2.0 * (i as f32 + 1.0)).abs() < 1e-2, "g[{i}]={v}");
        }
    }

    #[test]
    fn check_gradients_accepts_correct_vjp() {
        runtime::reset();
        let x = Tensor::randn(&[4], DType::F32, Device::Cpu, 1);
        check_gradients(|vs| vs[0].square().sum_all(), &[x], 1e-3, 1e-2).unwrap();
    }

    #[test]
    fn check_gradients_rejects_nonscalar() {
        runtime::reset();
        let x = Tensor::randn(&[4], DType::F32, Device::Cpu, 2);
        let err = check_gradients(|vs| vs[0].square(), &[x], 1e-3, 1e-2).unwrap_err();
        assert!(err.contains("scalar"));
    }

    #[test]
    fn check_gradients_detects_wrong_vjp() {
        runtime::reset();
        // A "broken op": forward x^2 but gradient pretends to be identity by
        // detaching and re-adding x.
        let x = Tensor::from_vec(vec![3.0], &[1], DType::F32, Device::Cpu);
        let err = check_gradients(
            |vs| {
                Var::constant(vs[0].value().clone())
                    .square()
                    .sum_all()
                    .add(&vs[0].sum_all().mul_scalar(0.0))
            },
            &[x],
            1e-3,
            1e-2,
        );
        assert!(err.is_err(), "zero analytic grad vs 6.0 numeric must fail");
    }
}
