//! # edkm-nn
//!
//! A from-scratch LLaMA-style decoder stack, optimizer and training loop on
//! top of `edkm-autograd`.
//!
//! This is the substrate the eDKM paper fine-tunes: RMSNorm, rotary position
//! embeddings, multi-head causal self-attention, SwiGLU MLPs, an AdamW
//! optimizer with gradient-norm clipping, and a small trainer. The model is
//! dimension-scaled (documented in DESIGN.md) but architecturally faithful,
//! so per-layer weight sets ({q,k,v,o,gate,up,down} projections) and the
//! tensors saved for backward match the paper's setting structurally.
//!
//! ## Weight hooks
//!
//! Every projection weight passes through an optional `WeightHook` at
//! forward time. Train-time compression (DKM soft clustering, LLM-QAT fake
//! quantization) is implemented by substituting the effective weight there,
//! which is exactly how train-time weight optimization systems wrap a model
//! (Fig. 1 of the paper).

pub mod attention;
mod decoder;
mod embedding;
mod init;
mod linear;
mod mlp;
mod model;
mod norm;
mod optim;
pub mod tap;
mod trainer;

pub use attention::{attend_cached_rows, CausalSelfAttention, KvRowView};
pub use decoder::DecoderLayer;
pub use embedding::Embedding;
pub use linear::Linear;

pub use model::{LlamaConfig, LlamaModel};
pub use norm::RmsNorm;
pub use optim::{clip_grad_norm, AdamW, AdamWConfig, LrSchedule};
pub use trainer::{LmBatch, TrainConfig, Trainer};

use edkm_autograd::Var;

/// Hook applied to every projection weight at forward time.
///
/// Receives the parameter's registered name and the raw weight, returns the
/// effective weight to use. Identity when absent.
pub(crate) type WeightHook<'a> = &'a dyn Fn(&str, &Var) -> Var;

/// Apply an optional hook to a named weight.
pub(crate) fn effective_weight(hook: Option<WeightHook<'_>>, name: &str, w: &Var) -> Var {
    match hook {
        Some(h) => h(name, w),
        None => w.clone(),
    }
}
