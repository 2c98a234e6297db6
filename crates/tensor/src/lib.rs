//! # edkm-tensor
//!
//! Strided tensor substrate for the eDKM reproduction.
//!
//! This crate plays the role PyTorch's tensor library plays in the paper
//! *eDKM: An Efficient and Accurate Train-time Weight Clustering for Large
//! Language Models* (HPCA'25): it provides
//!
//! * n-dimensional strided tensors whose **views share data storage** (the
//!   property Table 1 of the paper is about),
//! * **bit-exact 16-bit dtypes** ([`DType::Bf16`], [`DType::F16`]) so a tensor
//!   has at most 2^16 distinct values — the fact weight uniquification
//!   exploits,
//! * **simulated devices** ([`Device::Cpu`], [`Device::Gpu`]) with per-device
//!   memory pools that account live/peak bytes of every allocation,
//! * a **transfer ledger** recording GPU↔CPU traffic (bytes and
//!   transactions), and
//! * an analytic **cost model** ([`CostModel`]/[`SimClock`]) that converts
//!   compute FLOPs, PCIe traffic and collective operations into simulated
//!   seconds (the "Runtime (sec)" column of Table 2).
//!
//! All arithmetic executes on the host; devices are *logical*. What is real is
//! the accounting: every [`Storage`] registers its bytes with the pool of the
//! device it lives on and deregisters on drop, so peak-memory questions have
//! exact answers.
//!
//! ## Example
//!
//! ```
//! use edkm_tensor::{Tensor, Device, DType, runtime};
//!
//! runtime::reset();
//! // Line 0 of Table 1: x0 = torch.rand([1024, 1024]) -> 4 MB on GPU.
//! let x0 = Tensor::rand(&[1024, 1024], DType::F32, Device::gpu(), 42);
//! assert_eq!(runtime::gpu_live_bytes(), 4 << 20);
//! // Line 1: a view adds no GPU memory.
//! let x1 = x0.reshape(&[1024 * 1024, 1]);
//! assert_eq!(runtime::gpu_live_bytes(), 4 << 20);
//! assert_eq!(x0.storage_id(), x1.storage_id());
//! ```

mod cost;
mod device;
pub mod dtype;
mod error;
pub mod exact;
mod expf;
pub mod layout;
pub mod ops;
pub mod pool;
mod provenance;
pub mod runtime;
mod storage;
mod tensor;

pub use cost::{CostModel, SimClock};
pub use device::Device;
pub use dtype::DType;
pub use error::TensorError;
pub use layout::Layout;
pub use pool::TransferSnapshot;
pub use provenance::{InvariantOp, Provenance, TensorMeta};
pub use storage::{Storage, StorageId};
pub use tensor::Tensor;
