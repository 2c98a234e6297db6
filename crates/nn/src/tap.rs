//! Activation taps: capture the inputs every projection sees.
//!
//! Post-training quantizers (GPTQ, AWQ) calibrate on the activations that
//! actually flow into each linear layer. While a tap is armed on the current
//! thread, every `crate::Linear::forward` records its input tensor under
//! the layer's parameter name.

use edkm_tensor::Tensor;
use std::cell::RefCell;
use std::collections::HashMap;

thread_local! {
    static TAP: RefCell<Option<HashMap<String, Vec<Tensor>>>> = const { RefCell::new(None) };
}

/// Start capturing projection inputs on this thread.
///
/// Any previously armed capture is discarded.
pub fn start() {
    TAP.with(|t| *t.borrow_mut() = Some(HashMap::new()));
}

/// Stop capturing and return `{parameter name → recorded inputs}`.
pub fn stop() -> HashMap<String, Vec<Tensor>> {
    TAP.with(|t| t.borrow_mut().take().unwrap_or_default())
}

/// Record an input (called by `Linear::forward`).
pub(crate) fn record(name: &str, x: &Tensor) {
    TAP.with(|t| {
        if let Some(map) = t.borrow_mut().as_mut() {
            map.entry(name.to_string()).or_default().push(x.clone());
        }
    });
}

/// Concatenate all recorded inputs for `name` into one `[n, in]` matrix.
///
/// Returns `None` if nothing was recorded.
pub fn concat_inputs(map: &HashMap<String, Vec<Tensor>>, name: &str) -> Option<Tensor> {
    let tensors = map.get(name)?;
    if tensors.is_empty() {
        return None;
    }
    let cols = *tensors[0].shape().last()?;
    let mut data = Vec::new();
    let mut rows = 0;
    for t in tensors {
        data.extend(t.to_vec());
        rows += t.numel() / cols;
    }
    Some(Tensor::from_vec(
        data,
        &[rows, cols],
        tensors[0].dtype(),
        tensors[0].device(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use edkm_autograd::Var;
    use edkm_tensor::{runtime, DType, Device};

    #[test]
    fn tap_captures_linear_inputs() {
        runtime::reset();
        let lin = Linear::new("proj", 4, 2, DType::F32, Device::Cpu, 0);
        let x = Var::constant(Tensor::randn(&[3, 4], DType::F32, Device::Cpu, 1));
        start();
        lin.forward(&x, None);
        lin.forward(&x, None);
        let cap = stop();
        assert_eq!(cap["proj"].len(), 2);
        let cat = concat_inputs(&cap, "proj").unwrap();
        assert_eq!(cat.shape(), &[6, 4]);
        assert!(concat_inputs(&cap, "other").is_none());
    }

    #[test]
    fn no_capture_when_disarmed() {
        runtime::reset();
        let lin = Linear::new("proj", 4, 2, DType::F32, Device::Cpu, 0);
        let x = Var::constant(Tensor::randn(&[3, 4], DType::F32, Device::Cpu, 1));
        lin.forward(&x, None);
        let cap = stop();
        assert!(cap.is_empty());
    }
}
