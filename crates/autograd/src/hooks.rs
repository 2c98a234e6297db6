//! Saved-tensor hooks: the pack/unpack interception point for tensors kept
//! for the backward pass.
//!
//! This mirrors `torch.autograd.graph.saved_tensors_hooks` (reference \[2\]
//! of the paper). While a hooks object is installed on the current thread,
//! every tensor an autograd op saves is immediately handed to
//! [`SavedTensorHooks::pack`]; the packed representation is held in the graph
//! node, and [`SavedTensorHooks::unpack`] is called when the backward pass
//! needs the tensor back.
//!
//! eDKM is implemented entirely as such a hooks object (`edkm-core`): `pack`
//! offloads to CPU with marshaling/uniquification/sharding, `unpack`
//! all-gathers and reconstructs.

use edkm_tensor::Tensor;
use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;

/// Result of packing a saved tensor.
pub enum PackedTensor {
    /// The tensor kept as-is (default behaviour without hooks: it stays
    /// resident on its device, exactly like stock PyTorch).
    Inline(Tensor),
    /// Hook-specific payload; only the hooks object that produced it knows
    /// how to reconstruct the tensor.
    Custom(Box<dyn Any + Send + Sync>),
}

impl std::fmt::Debug for PackedTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackedTensor::Inline(t) => write!(f, "PackedTensor::Inline({t:?})"),
            PackedTensor::Custom(_) => write!(f, "PackedTensor::Custom(..)"),
        }
    }
}

/// User-installable pack/unpack pair for tensors saved for backward.
///
/// Implementations must satisfy `unpack(pack(t)) == t` (same values, shape
/// and dtype; the device must be restored too so backward math runs where
/// forward math did).
pub trait SavedTensorHooks: Send + Sync {
    /// Called at forward time for every tensor an op saves.
    fn pack(&self, t: &Tensor) -> PackedTensor;
    /// Called at backward time to reconstruct a packed tensor.
    fn unpack(&self, p: &PackedTensor) -> Tensor;
    /// Diagnostic name.
    fn name(&self) -> &str {
        "saved-tensor-hooks"
    }
}

thread_local! {
    static HOOK_STACK: RefCell<Vec<Arc<dyn SavedTensorHooks>>> = const { RefCell::new(Vec::new()) };
}

/// Install `hooks` on this thread; the returned guard uninstalls them on
/// drop. Hooks nest like a stack (innermost wins), as in PyTorch.
#[must_use = "hooks are uninstalled when the guard drops"]
pub fn push_hooks(hooks: Arc<dyn SavedTensorHooks>) -> HooksGuard {
    HOOK_STACK.with(|s| s.borrow_mut().push(hooks));
    HooksGuard { _priv: () }
}

/// Explicitly pop the innermost hooks (rarely needed; prefer the guard).
pub(crate) fn pop_hooks() {
    HOOK_STACK.with(|s| {
        s.borrow_mut().pop();
    });
}

fn current_hooks() -> Option<Arc<dyn SavedTensorHooks>> {
    HOOK_STACK.with(|s| s.borrow().last().map(Arc::clone))
}

/// RAII guard returned by [`push_hooks`].
pub struct HooksGuard {
    _priv: (),
}

impl Drop for HooksGuard {
    fn drop(&mut self) {
        pop_hooks();
    }
}

impl std::fmt::Debug for HooksGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HooksGuard")
    }
}

/// A tensor saved for backward, routed through the active hooks (if any).
pub struct SavedTensor {
    packed: PackedTensor,
    hooks: Option<Arc<dyn SavedTensorHooks>>,
}

impl std::fmt::Debug for SavedTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SavedTensor({:?}, hooks={:?})",
            self.packed,
            self.hooks.as_ref().map(|h| h.name())
        )
    }
}

impl SavedTensor {
    /// Reconstruct the tensor (calls the packing hooks' `unpack`).
    pub(crate) fn unpack(&self) -> Tensor {
        match &self.hooks {
            Some(h) => h.unpack(&self.packed),
            None => match &self.packed {
                PackedTensor::Inline(t) => t.clone(),
                PackedTensor::Custom(_) => {
                    unreachable!("custom payload without hooks cannot exist")
                }
            },
        }
    }
}

/// Save `t` for backward through the thread's current hooks.
pub fn save_tensor(t: &Tensor) -> SavedTensor {
    match current_hooks() {
        Some(h) => SavedTensor {
            packed: h.pack(t),
            hooks: Some(h),
        },
        None => SavedTensor {
            packed: PackedTensor::Inline(t.clone()),
            hooks: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::{runtime, DType, Device};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Hooks that offload every saved tensor to the CPU (the naive baseline
    /// of the paper's Table 2) and count pack/unpack calls.
    struct OffloadHooks {
        packs: AtomicUsize,
        unpacks: AtomicUsize,
    }

    struct Payload {
        cpu: Tensor,
        device: Device,
    }

    impl SavedTensorHooks for OffloadHooks {
        fn pack(&self, t: &Tensor) -> PackedTensor {
            self.packs.fetch_add(1, Ordering::Relaxed);
            PackedTensor::Custom(Box::new(Payload {
                cpu: t.to_device(Device::Cpu),
                device: t.device(),
            }))
        }
        fn unpack(&self, p: &PackedTensor) -> Tensor {
            self.unpacks.fetch_add(1, Ordering::Relaxed);
            match p {
                PackedTensor::Custom(b) => {
                    let payload = b.downcast_ref::<Payload>().expect("payload type");
                    payload.cpu.to_device(payload.device)
                }
                PackedTensor::Inline(t) => t.clone(),
            }
        }
        fn name(&self) -> &str {
            "offload"
        }
    }

    #[test]
    fn no_hooks_saves_inline() {
        runtime::reset();
        let t = Tensor::arange(4, DType::F32, Device::gpu());
        let s = save_tensor(&t);
        let back = s.unpack();
        assert_eq!(back.to_vec(), t.to_vec());
        assert_eq!(back.device(), Device::gpu());
        // Inline save shares storage — no copy happened.
        assert_eq!(back.storage_id(), t.storage_id());
    }

    #[test]
    fn hooks_pack_and_unpack_roundtrip() {
        runtime::reset();
        let h = Arc::new(OffloadHooks {
            packs: AtomicUsize::new(0),
            unpacks: AtomicUsize::new(0),
        });
        let t = Tensor::randn(&[8, 8], DType::F32, Device::gpu(), 1);
        let saved;
        {
            let _g = push_hooks(h.clone() as Arc<dyn SavedTensorHooks>);
            saved = save_tensor(&t);
        }
        assert_eq!(h.packs.load(Ordering::Relaxed), 1);
        // Unpack works after the guard dropped (hook Arc is captured).
        let back = saved.unpack();
        assert_eq!(h.unpacks.load(Ordering::Relaxed), 1);
        assert_eq!(back.to_vec(), t.to_vec());
        assert_eq!(back.device(), Device::gpu());
    }

    #[test]
    fn guard_uninstalls_hooks() {
        runtime::reset();
        let h = Arc::new(OffloadHooks {
            packs: AtomicUsize::new(0),
            unpacks: AtomicUsize::new(0),
        });
        {
            let _g = push_hooks(h.clone() as Arc<dyn SavedTensorHooks>);
        }
        let t = Tensor::arange(2, DType::F32, Device::Cpu);
        let _s = save_tensor(&t);
        assert_eq!(h.packs.load(Ordering::Relaxed), 0, "hooks must be gone");
    }

    #[test]
    fn hooks_nest_innermost_wins() {
        runtime::reset();
        let outer = Arc::new(OffloadHooks {
            packs: AtomicUsize::new(0),
            unpacks: AtomicUsize::new(0),
        });
        let inner = Arc::new(OffloadHooks {
            packs: AtomicUsize::new(0),
            unpacks: AtomicUsize::new(0),
        });
        let t = Tensor::arange(2, DType::F32, Device::Cpu);
        let _g1 = push_hooks(outer.clone() as Arc<dyn SavedTensorHooks>);
        {
            let _g2 = push_hooks(inner.clone() as Arc<dyn SavedTensorHooks>);
            let _s = save_tensor(&t);
        }
        let _s2 = save_tensor(&t);
        assert_eq!(inner.packs.load(Ordering::Relaxed), 1);
        assert_eq!(outer.packs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn offload_hooks_move_bytes_to_cpu() {
        runtime::reset();
        let h = Arc::new(OffloadHooks {
            packs: AtomicUsize::new(0),
            unpacks: AtomicUsize::new(0),
        });
        let t = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 0);
        let _g = push_hooks(h as Arc<dyn SavedTensorHooks>);
        let _saved = save_tensor(&t);
        assert_eq!(runtime::cpu_live_bytes(), 4 << 20);
        assert_eq!(runtime::transfer_snapshot().d2h_bytes, 4 << 20);
    }
}
