//! # edkm-data
//!
//! Synthetic data substrate for the eDKM reproduction (the substitution for
//! LLaMA's pretraining distribution, the Alpaca fine-tuning set, and the
//! lm-eval-harness benchmarks — see DESIGN.md §2).
//!
//! Everything is generated from **SynLang**, a seeded probabilistic grammar:
//! sentences are `SUBJECT VERB OBJECT [MODIFIER] .` where each subject has a
//! preferred verb, each verb a preferred object, and each object a preferred
//! modifier. These preference tables are the "world knowledge" a model
//! learns during pretraining, and the benchmark tasks
//! ([`tasks::TaskSuite`]) query exactly that knowledge — so compression
//! damage to the model shows up as task-accuracy regression, the same
//! mechanism the paper's Table 3 measures.
//!
//! All generators are deterministic given their seed.

mod alpaca;
mod corpus;
mod grammar;
mod tasks;
mod vocab;

pub use alpaca::AlpacaSet;
pub use corpus::Corpus;
pub use grammar::Grammar;
pub use tasks::{ClozeTask, MultiChoiceTask, Task, TaskKind, TaskSuite};
pub use vocab::VocabSpec;
