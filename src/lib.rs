//! # edkm — facade crate for the eDKM reproduction
//!
//! This crate re-exports the whole eDKM workspace behind one dependency, and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`).
//!
//! The workspace reproduces *eDKM: An Efficient and Accurate Train-time
//! Weight Clustering for Large Language Models* (HPCA 2025,
//! arXiv:2309.00964). See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every table and
//! figure.
//!
//! ## Crate map
//!
//! | re-export | crate | role |
//! |---|---|---|
//! | [`tensor`] | `edkm-tensor` | strided tensors, simulated devices, memory/traffic accounting |
//! | [`autograd`] | `edkm-autograd` | tape autograd with saved-tensor hooks |
//! | [`nn`] | `edkm-nn` | LLaMA-style layers, AdamW, trainer |
//! | [`data`] | `edkm-data` | synthetic corpora and benchmark tasks |
//! | [`quant`] | `edkm-quant` | RTN / GPTQ / AWQ / LLM-QAT baselines |
//! | [`dist`] | `edkm-dist` | simulated learner group + collectives |
//! | [`core`] | `edkm-core` | DKM layer + eDKM memory optimizations (the paper) |
//! | [`cluster`] | `edkm-cluster` | multi-replica fleet behind a load- and prefix-aware router |
//! | [`chaos`] | `edkm-chaos` | seeded deterministic fault-injection plans and hooks |
//! | [`eval`] | `edkm-eval` | perplexity / multiple-choice / few-shot harness |
//! | [`workload`] | `edkm-workload` | seeded serving traces + replay drivers |
//!
//! ## Quickstart
//!
//! ```
//! use edkm::core::{DkmConfig, DkmLayer};
//! use edkm::tensor::{DType, Device, Tensor};
//!
//! // Cluster a small weight matrix to 8 centroids (3-bit palette).
//! let w = Tensor::randn(&[64, 16], DType::Bf16, Device::Cpu, 0);
//! let layer = DkmLayer::new(DkmConfig::with_bits(3));
//! let out = layer.cluster_tensor(&w);
//! assert_eq!(out.centroids.numel(), 8);
//! ```

pub use edkm_autograd as autograd;
pub use edkm_chaos as chaos;
pub use edkm_cluster as cluster;
pub use edkm_core as core;
pub use edkm_data as data;
pub use edkm_dist as dist;
pub use edkm_eval as eval;
pub use edkm_nn as nn;
pub use edkm_quant as quant;
pub use edkm_tensor as tensor;
pub use edkm_workload as workload;
