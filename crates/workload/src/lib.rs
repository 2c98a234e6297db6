//! # edkm-workload
//!
//! Trace-driven workload harness for the serving engine: a seeded, fully
//! deterministic generator of heterogeneous request traces plus the replay
//! drivers that feed those traces through the stack and aggregate
//! serving-quality metrics.
//!
//! "Throughput at batch 8 on uniform requests" says nothing about heavy
//! mixed traffic. A [`Trace`] instead models the request mixes a production
//! deployment sees — bursty Poisson arrivals, multi-turn chat with history
//! reuse, long-context summarization that forces KV pressure and
//! preemption, short classification bursts with tight deadlines, and a
//! mixed-priority blend — all derived from one seed, so every run of a
//! trace is byte-identical.
//!
//! Two replay layers exist on purpose:
//!
//! - [`replay_trace`] drives a [`edkm_core::Scheduler`] step by step on a
//!   virtual clock. Every admission, preemption, deadline expiry and token
//!   is a pure function of `(model, trace, max_batch)`, so TTFT-in-steps
//!   percentiles, deadline-miss and preemption rates are **reproducible**
//!   numbers a CI gate can pin.
//! - [`replay_router`] is the one wall-clock driver. It submits through an
//!   [`edkm_cluster::RouterHandle`] with one consumer thread per token
//!   stream, honoring chat causality, and measures goodput, TTFT and
//!   per-token latency percentiles and absorbed backpressure. Sheds,
//!   losses and token-index violations are recorded, never panicked. A
//!   bare engine is a one-replica [`edkm_cluster::Cluster`].
//!
//! Because sampling is per-request-seeded and logits rows are independent
//! of batch composition, the token streams of the two layers are
//! bit-identical for every request that runs to its natural finish,
//! whatever the replica count or placement — the cross-check
//! `tests/workload_replay.rs` pins.
//!
//! [`replay_cluster_chaos`] closes the loop on robustness: it replays a
//! trace *and* a seeded [`edkm_chaos::FaultPlan`] together through a
//! supervised fleet with [`replay_router`], then audits the global
//! invariants — no request lost, no duplicate token index, survivors
//! bit-identical to the undisturbed run, every pool ledger back at
//! baseline.

#![warn(missing_docs)]

pub mod chaos;
pub mod replay;
pub mod report;
pub mod trace;

pub use chaos::{
    audit_invariants, replay_cluster_chaos, AppliedFault, ChaosReplayConfig, ChaosReplayReport,
};
pub use replay::{
    replay_router, replay_trace, ReplayCounters, ReplayReport, RequestOutcome, StepReplayReport,
};
pub use report::{percentile_f64, percentile_u64};
pub use trace::{TimedRequest, Trace, TraceConfig, TraceKind};
