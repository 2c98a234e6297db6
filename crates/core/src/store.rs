//! Offload stores: whole-buffer or sharded-across-learners payloads.
//!
//! Sharding (Section 2.2) keeps `1/|L|` of a buffer on each learner.
//! Learner 0 is the measured machine: its shard is an [`AccountedVec`]
//! charged to the CPU pool; peers' shards live outside the pools (they are
//! other machines' memory) and only return through a ledger-visible
//! all-gather.

use crate::accounting::AccountedVec;
use edkm_dist::LearnerGroup;
use edkm_tensor::Device;

/// A host-resident buffer, either whole or sharded over a learner group.
#[derive(Debug)]
pub enum Store<T: Copy> {
    /// The entire buffer on this learner.
    Whole(AccountedVec<T>),
    /// Sharded: learner 0's slice is accounted locally; peers' slices are
    /// simulated (unaccounted) and must be all-gathered to reassemble.
    Sharded {
        /// Learner 0's shard (accounted CPU bytes).
        local: AccountedVec<T>,
        /// Peers' shards in rank order (ranks `1..L`).
        remote: Vec<Vec<T>>,
        /// The group to all-gather over.
        group: LearnerGroup,
    },
}

impl<T: Copy> Store<T> {
    /// Offload `data` whole onto the CPU.
    pub(crate) fn whole(data: Vec<T>) -> Self {
        Store::Whole(AccountedVec::new(data, Device::Cpu))
    }

    /// Offload `data` sharded over `group` (balanced contiguous split).
    pub(crate) fn sharded(data: Vec<T>, group: LearnerGroup) -> Self {
        let spec = group.shard_spec(data.len());
        let mut shards = spec.split(&data);
        let local = AccountedVec::new(shards.remove(0), Device::Cpu);
        Store::Sharded {
            local,
            remote: shards,
            group,
        }
    }

    /// Bytes resident on *this* learner (the Table 2 per-learner metric).
    pub(crate) fn local_bytes(&self) -> usize {
        match self {
            Store::Whole(v) => v.bytes(),
            Store::Sharded { local, .. } => local.bytes(),
        }
    }

    /// Total logical element count.
    pub(crate) fn total_len(&self) -> usize {
        match self {
            Store::Whole(v) => v.len(),
            Store::Sharded { local, remote, .. } => {
                local.len() + remote.iter().map(|r| r.len()).sum::<usize>()
            }
        }
    }

    /// Reassemble the full buffer. Sharded stores perform (and cost) an
    /// all-gather over the group.
    pub(crate) fn gather(&self) -> Vec<T> {
        match self {
            Store::Whole(v) => v.as_slice().to_vec(),
            Store::Sharded {
                local,
                remote,
                group,
            } => {
                let mut shards: Vec<Vec<T>> = Vec::with_capacity(remote.len() + 1);
                shards.push(local.as_slice().to_vec());
                shards.extend(remote.iter().cloned());
                group.all_gather(&shards)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_tensor::runtime;

    #[test]
    fn whole_store_accounts_everything() {
        runtime::reset();
        let s = Store::whole(vec![0u16; 1000]);
        assert_eq!(s.local_bytes(), 2000);
        assert_eq!(runtime::cpu_live_bytes(), 2000);
        assert_eq!(s.total_len(), 1000);
        assert!(matches!(s, Store::Whole(_)));
        assert_eq!(s.gather().len(), 1000);
    }

    #[test]
    fn sharded_store_accounts_one_learner() {
        runtime::reset();
        let s = Store::sharded(vec![7u16; 800], LearnerGroup::new(8));
        assert_eq!(s.local_bytes(), 200, "1/8 of 1600 bytes");
        assert_eq!(runtime::cpu_live_bytes(), 200);
        assert_eq!(s.total_len(), 800);
        assert!(matches!(s, Store::Sharded { .. }));
    }

    #[test]
    fn sharded_gather_restores_order_and_costs_time() {
        runtime::reset();
        let data: Vec<u16> = (0..100).collect();
        let s = Store::sharded(data.clone(), LearnerGroup::new(4));
        let t0 = runtime::sim_seconds();
        assert_eq!(s.gather(), data);
        assert!(runtime::sim_seconds() > t0, "all-gather must cost time");
    }

    #[test]
    fn f32_sharded_bytes() {
        runtime::reset();
        let s = Store::sharded(vec![1.0f32; 100], LearnerGroup::new(4));
        assert_eq!(s.local_bytes(), 100);
        drop(s);
        assert_eq!(runtime::cpu_live_bytes(), 0);
    }

    #[test]
    fn single_learner_shard_is_whole_cost() {
        runtime::reset();
        let s = Store::sharded(vec![1u16; 10], LearnerGroup::new(1));
        assert_eq!(s.local_bytes(), 20);
        assert_eq!(s.gather().len(), 10);
    }
}
