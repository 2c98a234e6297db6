//! # edkm-autograd
//!
//! Dynamic-tape reverse-mode automatic differentiation over
//! [`edkm_tensor::Tensor`], with a faithful reimplementation of PyTorch's
//! `torch.autograd.graph.saved_tensors_hooks` mechanism — the interception
//! point the eDKM paper builds its entire memory optimization on (its
//! reference \[2\] *is* the saved-tensors-hooks documentation).
//!
//! Every differentiable op stores the tensors its backward pass needs through
//! [`hooks::save_tensor`]. When a [`hooks::SavedTensorHooks`] object is
//! installed (see [`hooks::push_hooks`]), each saved tensor is `pack`ed at
//! forward time and `unpack`ed at backward time. eDKM's marshaling /
//! uniquification / sharding (in `edkm-core`) are implemented purely as such
//! hooks, exactly like the paper's PyTorch implementation.
//!
//! ## Example: a gradient through a matmul
//!
//! ```
//! use edkm_autograd::Var;
//! use edkm_tensor::{DType, Device, Tensor};
//!
//! let x = Var::param(Tensor::from_vec(vec![1.0, 2.0], &[1, 2], DType::F32, Device::Cpu));
//! let w = Var::param(Tensor::from_vec(vec![0.5, -0.5], &[2, 1], DType::F32, Device::Cpu));
//! let y = x.matmul(&w).sum_all();
//! y.backward();
//! assert_eq!(w.grad().unwrap().to_vec(), vec![1.0, 2.0]);
//! ```

pub mod gradcheck;
pub mod hooks;
pub mod ops;
pub mod var;

pub use gradcheck::{check_gradients, numeric_gradient};
pub use hooks::{
    pop_hooks, push_hooks, save_tensor, HooksGuard, PackedTensor, SavedTensor, SavedTensorHooks,
};
pub use ops::softmax_backward;
pub use var::{grad_enabled, no_grad, BackwardFn, NoGradGuard, Var, VarId};
