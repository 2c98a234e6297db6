//! # edkm-quant
//!
//! The baseline compression schemes the paper compares eDKM against in
//! Table 3, implemented for real (not stubbed):
//!
//! * [`rtn`] — round-to-nearest uniform quantization with per-group affine
//!   scales.
//! * [`gptq`] — Hessian-based one-shot quantization (OBQ column sweep with
//!   Cholesky-factored inverse Hessian and error propagation), after
//!   Frantar et al.
//! * [`awq`] — activation-aware weight quantization: per-channel scales
//!   `s_i = E|x_i|^α` grid-searched to minimize calibration output error,
//!   after Lin et al.
//! * [`qat`] — LLM-QAT: data-free quantization-aware training with a
//!   straight-through estimator on model-generated data.
//!
//! [`model_quant`] applies any of these to a whole `edkm-nn` model with
//! tapped calibration activations, and accounts serialized model size the
//! way Table 3's "Model Size (GB)" column does.

pub mod awq;
pub mod common;
pub mod gptq;
pub mod linalg;
pub mod model_quant;
pub mod qat;
pub mod rtn;

pub use awq::AwqQuantizer;
pub use common::{QuantResult, WeightQuantizer};
pub use gptq::GptqQuantizer;
pub use model_quant::{capture_calibration, quantize_model, ModelQuantReport};
pub use qat::{QatPipeline, QatSpec};
pub use rtn::RtnQuantizer;
