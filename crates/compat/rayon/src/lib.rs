//! Offline API-subset shim of `rayon` over `std::thread::scope`.
//!
//! Implements exactly the parallel surface the workspace's hot paths use —
//! `par_chunks_mut(..).for_each`, `par_chunks_mut(..).enumerate().for_each`
//! and [`current_num_threads`] — with the same call shapes as upstream
//! rayon, so the path dependency can later be swapped for the real crate
//! without touching call sites.
//!
//! Scheduling is static: the chunk list is divided into one contiguous run
//! per worker thread. That is cruder than rayon's work stealing but correct,
//! and for the near-uniform row workloads in this repository it is within
//! noise of ideal. Work is only parallelized when there is more than one
//! chunk and more than one available core; otherwise it runs inline on the
//! caller, which keeps tiny kernels allocation- and thread-free.

pub mod prelude {
    pub use crate::slice::ParallelSliceMut;
}

pub mod slice;

/// Number of worker threads a parallel operation may use.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_positive() {
        assert!(current_num_threads() >= 1);
    }
}
