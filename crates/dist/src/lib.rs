//! # edkm-dist
//!
//! The simulated learner group behind eDKM's sharding (Section 2.3 of the
//! paper).
//!
//! The paper trains with `|L|` identical learners; eDKM shards the
//! uniquification *index lists* of saved tensors across the group so each
//! learner keeps only `1/|L|` of every list, paying an all-gather when the
//! backward pass needs the full buffer again. This crate provides
//!
//! * [`LearnerGroup`] — a copyable handle naming the group (`|L|` learners),
//! * [`ShardSpec`] — the balanced contiguous partition of an index list over
//!   the group (rank 0 first; uneven tails allowed, shards may be empty),
//! * the all-gather collective ([`LearnerGroup::all_gather`]), whose
//!   traffic is charged to the simulated clock through
//!   [`edkm_tensor::runtime::record_all_gather`].
//!
//! Devices are simulated (see `edkm-tensor`), so "remote" learners are plain
//! host memory that is *not* charged to this learner's pool — exactly the
//! accounting Table 2's per-learner memory column needs.
//!
//! The group is train-time only: `edkm-core`'s sharded store pays its
//! index-list all-gathers through [`LearnerGroup::all_gather`], while the
//! serving engine runs every model on one learner.

#![warn(missing_docs)]

pub mod group;

pub use group::{LearnerGroup, ShardSpec};
