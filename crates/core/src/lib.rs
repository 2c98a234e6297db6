//! # edkm-core
//!
//! The paper: *eDKM — an efficient and accurate train-time weight clustering
//! for large language models* (HPCA 2025).
//!
//! * [`dkm`] — the differentiable K-Means clustering layer (attention map
//!   between weights and centroids, Lloyd refinement, soft assignment).
//! * [`marshal`] — cross-device tensor marshaling: a storage-id registry
//!   plus a ≤4-hop forward-graph walk that eliminates duplicate CPU copies
//!   of tensors saved for backward (Section 2.1).
//! * [`uniquify`] — weight uniquification: the `|W|×|C|` attention map
//!   collapses into a ≤65 536-row attention table plus a 16-bit index list
//!   (Section 2.2).
//! * [`store`] — index-list sharding over the simulated learner group.
//! * [`hooks`] — [`hooks::EdkmHooks`], the `saved_tensors_hooks`
//!   implementation combining offload + M + U + S; one config per Table 2
//!   row.
//! * [`palettize`] — the deployment codec (LUT + bit-packed indices) and
//!   8-bit affine embeddings.
//! * [`pipeline`] — fine-tune-and-compress end to end.
//! * [`ablation`] — the Table 2 measurement harness.
//!
//! ## Quickstart
//!
//! ```
//! use edkm_core::{DkmConfig, DkmLayer};
//! use edkm_tensor::{DType, Device, Tensor};
//!
//! // Cluster a weight matrix to 8 centroids (3 bits/weight).
//! let w = Tensor::randn(&[64, 16], DType::Bf16, Device::Cpu, 0);
//! let layer = DkmLayer::new(DkmConfig::with_bits(3));
//! let out = layer.cluster_tensor(&w);
//! assert_eq!(out.centroids.shape(), &[8, 1]);
//!
//! // Deployment artifact: LUT + 3-bit packed indices.
//! let palettized = layer.palettize(&w);
//! assert!(palettized.size_bytes() < w.numel() * 2); // smaller than bf16
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod accounting;
pub mod dkm;
pub mod engine;
pub mod entropy;
pub mod hooks;
pub mod infer;
pub mod kv;
pub mod marshal;
pub mod palettize;
pub mod pipeline;
pub mod scratch;
pub mod serialize;
pub mod serve;
pub mod store;
pub mod uniquify;

pub use ablation::{
    check_table2_ordering, render_table2, run_one, run_table2, AblationRow, AblationSetup,
};
pub use accounting::AccountedVec;
pub use dkm::{DkmConfig, DkmInit, DkmLayer, DkmOutput};
pub use engine::{
    CancelOutcome, EngineConfig, EngineHandle, Request, RequestId, ServeEngine, StatsSnapshot,
    StreamPoll, SubmitError, TokenEvent, TokenStream, TtftHistogram,
};
pub use entropy::{index_entropy_bits, EntropyCoded};
pub use hooks::{EdkmConfig, EdkmHooks, HookStatsSnapshot};
pub use infer::{ChunkView, PalettizedLinear, PalettizedModel, ServeError, ServeModel};
pub use kv::{
    prefix_fingerprints, token_fingerprint, KvBlockConfig, KvBlockPool, KvCache, PrefixHasher,
};
pub use marshal::{EdkmPacked, MarshalRegistry, StoredEntry};
pub use palettize::{AffineQuantized, GroupedPalettized, PalettizedTensor};
pub use pipeline::{
    CompressResult, CompressSpec, CompressedModel, CompressedTensor, CompressionPipeline,
};
pub use scratch::ScratchArena;
pub use serve::{
    sample_token, FinishReason, Generator, Priority, SamplingConfig, Scheduler, ServeRequest,
    ServeResponse, StepEvents, TokenEmission,
};
pub use store::Store;
pub use uniquify::RowKeys;
