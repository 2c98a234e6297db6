//! `Var`: a tensor tracked by the dynamic autograd tape.

use crate::hooks::SavedTensor;
use edkm_tensor::{ops as t_ops, DType, Tensor};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(1);

/// Unique id of a [`Var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u64);

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// `true` if new ops record autograd nodes on this thread.
pub fn grad_enabled() -> bool {
    GRAD_ENABLED.with(|g| g.get())
}

/// Disable gradient recording until the returned guard drops.
///
/// Used by the DKM layer for all centroid-update iterations except the last,
/// matching the reference implementation.
#[must_use = "gradients re-enable when the guard drops"]
pub fn no_grad() -> NoGradGuard {
    let prev = GRAD_ENABLED.with(|g| g.replace(false));
    NoGradGuard { prev }
}

/// RAII guard produced by [`no_grad`].
#[derive(Debug)]
pub struct NoGradGuard {
    prev: bool,
}

impl Drop for NoGradGuard {
    fn drop(&mut self) {
        GRAD_ENABLED.with(|g| g.set(self.prev));
    }
}

/// VJP closure: `(upstream grad, unpacked saved tensors) -> grads per input`.
pub type BackwardFn = Box<dyn Fn(&Tensor, &[Tensor]) -> Vec<Option<Tensor>> + Send + Sync>;

/// Graph node recorded by a differentiable op.
pub(crate) struct Node {
    pub(crate) op: &'static str,
    pub(crate) inputs: Vec<Var>,
    pub(crate) saved: Vec<SavedTensor>,
    pub(crate) backward: BackwardFn,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node(op={}, inputs={})", self.op, self.inputs.len())
    }
}

#[derive(Debug)]
pub(crate) struct VarInner {
    pub(crate) id: u64,
    pub(crate) value: Tensor,
    pub(crate) requires_grad: bool,
    pub(crate) grad: Mutex<Option<Tensor>>,
    pub(crate) node: Option<Node>,
}

impl Drop for VarInner {
    fn drop(&mut self) {
        // Dismantle the graph iteratively: a deep chain of Arc<VarInner>
        // would otherwise drop recursively and overflow the stack.
        let mut stack: Vec<Node> = self.node.take().into_iter().collect();
        while let Some(node) = stack.pop() {
            for input in node.inputs {
                if let Ok(mut inner) = Arc::try_unwrap(input.0) {
                    if let Some(n) = inner.node.take() {
                        stack.push(n);
                    }
                }
            }
        }
    }
}

/// A tensor participating in the autograd graph.
///
/// `Var` is a cheap `Arc` handle. Leaves created with [`Var::param`]
/// accumulate gradients into [`Var::grad`] when [`Var::backward`] runs on a
/// downstream scalar.
#[derive(Clone, Debug)]
pub struct Var(pub(crate) Arc<VarInner>);

impl Var {
    /// Trainable leaf: gradients accumulate on it.
    pub fn param(value: Tensor) -> Var {
        Var(Arc::new(VarInner {
            id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
            value,
            requires_grad: true,
            grad: Mutex::new(None),
            node: None,
        }))
    }

    /// Non-trainable leaf (inputs, masks, constants).
    pub fn constant(value: Tensor) -> Var {
        Var(Arc::new(VarInner {
            id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
            value,
            requires_grad: false,
            grad: Mutex::new(None),
            node: None,
        }))
    }

    /// Record a custom differentiable op.
    ///
    /// `backward` receives the upstream gradient and the unpacked `saved`
    /// tensors and must return one `Option<Tensor>` per input (shape-matched).
    /// Tensors needed at backward time must be passed through `saved` (built
    /// with [`crate::hooks::save_tensor`]) so saved-tensor hooks see them —
    /// this is the extension point `edkm-nn`'s fused RoPE and `edkm-core`'s
    /// clustering ops use.
    ///
    /// If gradients are disabled or no input requires a gradient, the node is
    /// not recorded and a constant is returned.
    pub fn custom(
        value: Tensor,
        op: &'static str,
        inputs: Vec<Var>,
        saved: Vec<SavedTensor>,
        backward: BackwardFn,
    ) -> Var {
        Var::from_op(value, op, inputs, saved, backward)
    }

    /// Internal: op result.
    pub(crate) fn from_op(
        value: Tensor,
        op: &'static str,
        inputs: Vec<Var>,
        saved: Vec<SavedTensor>,
        backward: BackwardFn,
    ) -> Var {
        let track = grad_enabled() && inputs.iter().any(|v| v.requires_grad());
        if !track {
            return Var::constant(value);
        }
        Var(Arc::new(VarInner {
            id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
            value,
            requires_grad: true,
            grad: Mutex::new(None),
            node: Some(Node {
                op,
                inputs,
                saved,
                backward,
            }),
        }))
    }

    /// Unique id.
    pub fn id(&self) -> VarId {
        VarId(self.0.id)
    }

    /// The tensor value.
    pub fn value(&self) -> &Tensor {
        &self.0.value
    }

    /// `true` if gradients flow to (or through) this var.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad
    }

    /// `true` if this is a leaf (no recorded op).
    pub fn is_leaf(&self) -> bool {
        self.0.node.is_none()
    }

    /// Name of the op that produced this var, if any.
    pub fn op_name(&self) -> Option<&'static str> {
        self.0.node.as_ref().map(|n| n.op)
    }

    /// Accumulated gradient of a leaf (cleared by [`Var::zero_grad`]).
    pub fn grad(&self) -> Option<Tensor> {
        self.0.grad.lock().clone()
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.lock() = None;
    }

    /// Replace the accumulated gradient (used by gradient clipping).
    pub fn set_grad(&self, g: Option<Tensor>) {
        *self.0.grad.lock() = g;
    }

    /// Cut the graph: same value, no gradient history.
    ///
    /// The value is aliased (recorded as a provenance hop), not copied.
    pub fn detach(&self) -> Var {
        Var::constant(self.value().alias())
    }

    fn accumulate_grad(&self, g: Tensor) {
        let mut slot = self.0.grad.lock();
        *slot = Some(match slot.take() {
            Some(prev) => t_ops::add(&prev, &g),
            None => g,
        });
    }

    /// Run reverse-mode differentiation from this scalar.
    ///
    /// Gradients accumulate on every reachable leaf with
    /// `requires_grad = true`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a single-element tensor.
    pub fn backward(&self) {
        assert_eq!(
            self.value().numel(),
            1,
            "backward() requires a scalar loss, got shape {:?}",
            self.value().shape()
        );
        let seed = Tensor::ones(self.value().shape(), DType::F32, self.value().device());
        self.backward_with(seed);
    }

    /// Reverse-mode differentiation with an explicit upstream gradient.
    pub fn backward_with(&self, grad: Tensor) {
        let order = topo_order(self);
        let mut grads: HashMap<u64, Tensor> = HashMap::new();
        grads.insert(self.0.id, grad);

        for var in order.iter().rev() {
            let Some(g) = grads.remove(&var.0.id) else {
                continue;
            };
            match &var.0.node {
                None => {
                    if var.requires_grad() {
                        var.accumulate_grad(g);
                    }
                }
                Some(node) => {
                    let saved: Vec<Tensor> = node.saved.iter().map(|s| s.unpack()).collect();
                    let input_grads = (node.backward)(&g, &saved);
                    assert_eq!(
                        input_grads.len(),
                        node.inputs.len(),
                        "op {} returned {} grads for {} inputs",
                        node.op,
                        input_grads.len(),
                        node.inputs.len()
                    );
                    for (input, ig) in node.inputs.iter().zip(input_grads) {
                        let Some(ig) = ig else { continue };
                        if !input.requires_grad() {
                            continue;
                        }
                        assert_eq!(
                            ig.shape(),
                            input.value().shape(),
                            "op {}: grad shape {:?} != input shape {:?}",
                            node.op,
                            ig.shape(),
                            input.value().shape()
                        );
                        match grads.entry(input.0.id) {
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                let sum = t_ops::add(e.get(), &ig);
                                e.insert(sum);
                            }
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert(ig);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Post-order over the graph reachable from `root` (inputs before outputs).
fn topo_order(root: &Var) -> Vec<Var> {
    let mut order = Vec::new();
    let mut visited: HashSet<u64> = HashSet::new();
    let mut stack: Vec<(Var, bool)> = vec![(root.clone(), false)];
    while let Some((v, expanded)) = stack.pop() {
        if expanded {
            order.push(v);
            continue;
        }
        if !visited.insert(v.0.id) {
            continue;
        }
        stack.push((v.clone(), true));
        if let Some(node) = &v.0.node {
            for input in &node.inputs {
                if input.requires_grad() {
                    stack.push((input.clone(), false));
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::{runtime, Device};

    fn scalar(v: f32) -> Tensor {
        Tensor::scalar(v, DType::F32, Device::Cpu)
    }

    #[test]
    fn leaf_properties() {
        runtime::reset();
        let p = Var::param(scalar(1.0));
        assert!(p.requires_grad());
        assert!(p.is_leaf());
        assert!(p.grad().is_none());
        assert!(p.op_name().is_none());
        let c = Var::constant(scalar(2.0));
        assert!(!c.requires_grad());
    }

    #[test]
    fn simple_chain_backward() {
        runtime::reset();
        // y = (x * 3) + 2; dy/dx = 3
        let x = Var::param(scalar(5.0));
        let y = x.mul_scalar(3.0).add_scalar(2.0);
        assert_eq!(y.value().item(), 17.0);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 3.0);
    }

    #[test]
    fn diamond_accumulates() {
        runtime::reset();
        // y = x*x + x  => dy/dx = 2x + 1 = 7 at x=3
        let x = Var::param(scalar(3.0));
        let y = x.mul(&x).add(&x);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 7.0);
    }

    #[test]
    fn grad_accumulates_across_backwards() {
        runtime::reset();
        let x = Var::param(scalar(1.0));
        let y = x.mul_scalar(2.0);
        y.backward();
        let y2 = x.mul_scalar(2.0);
        y2.backward();
        assert_eq!(x.grad().unwrap().item(), 4.0);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn constants_get_no_grad() {
        runtime::reset();
        let x = Var::param(scalar(2.0));
        let c = Var::constant(scalar(10.0));
        let y = x.mul(&c);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 10.0);
        assert!(c.grad().is_none());
    }

    #[test]
    fn no_grad_suppresses_graph() {
        runtime::reset();
        let x = Var::param(scalar(2.0));
        let y;
        {
            let _g = no_grad();
            assert!(!grad_enabled());
            y = x.mul_scalar(3.0);
        }
        assert!(grad_enabled());
        assert!(y.is_leaf(), "op under no_grad must not record a node");
        assert!(!y.requires_grad());
    }

    #[test]
    fn no_grad_nests() {
        let _a = no_grad();
        {
            let _b = no_grad();
            assert!(!grad_enabled());
        }
        assert!(!grad_enabled(), "outer guard still active");
    }

    #[test]
    fn detach_cuts_graph() {
        runtime::reset();
        let x = Var::param(scalar(2.0));
        let y = x.mul_scalar(5.0).detach().mul_scalar(3.0);
        y.backward();
        assert!(x.grad().is_none(), "gradient must not flow past detach");
        assert_eq!(y.value().item(), 30.0);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        runtime::reset();
        let x = Var::param(Tensor::arange(3, DType::F32, Device::Cpu));
        x.backward();
    }

    #[test]
    fn backward_with_custom_seed() {
        runtime::reset();
        let x = Var::param(Tensor::arange(3, DType::F32, Device::Cpu));
        let y = x.mul_scalar(2.0);
        y.backward_with(Tensor::from_vec(
            vec![1.0, 10.0, 100.0],
            &[3],
            DType::F32,
            Device::Cpu,
        ));
        assert_eq!(x.grad().unwrap().to_vec(), vec![2.0, 20.0, 200.0]);
    }

    #[test]
    fn op_name_recorded() {
        runtime::reset();
        let x = Var::param(scalar(1.0));
        let y = x.add(&x);
        assert_eq!(y.op_name(), Some("add"));
    }

    #[test]
    #[should_panic(expected = "op bad_vjp: grad shape [4, 1] != input shape [4, 3]")]
    fn wrong_gradient_shape_panics_naming_the_op() {
        // Checked in release builds too: a wrong shape would otherwise be
        // broadcast by the accumulating add or stored on the leaf.
        runtime::reset();
        let x = Var::param(Tensor::zeros(&[4, 3], DType::F32, Device::Cpu));
        let y = Var::custom(
            Tensor::zeros(&[4, 3], DType::F32, Device::Cpu),
            "bad_vjp",
            vec![x],
            vec![],
            Box::new(|g, _| vec![Some(t_ops::sum_axis(g, 1).reshape(&[4, 1]))]),
        );
        y.backward_with(Tensor::ones(&[4, 3], DType::F32, Device::Cpu));
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        runtime::reset();
        let x = Var::param(scalar(1.0));
        let mut y = x.clone();
        for _ in 0..5000 {
            y = y.add_scalar(1.0);
        }
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 1.0);
    }
}
