//! # edkm-eval
//!
//! The evaluation harness behind the Table 3 reproduction: perplexity,
//! length-normalized multiple-choice log-likelihood scoring (the
//! lm-eval-harness convention), greedy cloze scoring, and report
//! formatting.

pub mod multichoice;
mod perplexity;
mod report;
pub mod stats;

pub use multichoice::evaluate_suite;
pub use perplexity::perplexity;
pub use report::{render_table3, Table3Row};
pub use stats::{bootstrap_ci, paired_superiority, AccuracyCi};
