//! Per-device memory pools and the GPU↔CPU transfer ledger.
//!
//! These counters are the measurement instrument behind Tables 1 and 2 of the
//! paper: "memory footprint" is the *peak* of live bytes registered with a
//! device pool, and "traffic" is what the [`TransferLedger`] accumulated.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Live/peak byte accounting for one device.
///
/// Thread-safe; shared by every [`crate::Storage`] allocated on the device so
/// that `Drop` can deregister from any thread.
#[derive(Debug, Default)]
pub struct PoolCell {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicU64,
    /// Simulated device capacity in bytes; 0 = unlimited.
    capacity: AtomicUsize,
    /// Allocations that pushed `live` past `capacity` (the would-have-OOMed
    /// count — the simulation keeps running so the experiment can report
    /// *whether* a configuration fits, like the paper's 224 GB example).
    oom_events: AtomicU64,
}

impl PoolCell {
    /// Create an empty pool.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register an allocation of `bytes`.
    pub fn alloc(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(live, Ordering::Relaxed);
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap > 0 && live > cap {
            self.oom_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Set the simulated device capacity (0 = unlimited). Allocations past
    /// the capacity are recorded as OOM events, not failed — see
    /// [`PoolCell::oom_events`].
    pub(crate) fn set_capacity(&self, bytes: usize) {
        self.capacity.store(bytes, Ordering::Relaxed);
    }

    /// Number of allocations that exceeded the capacity.
    pub(crate) fn oom_events(&self) -> u64 {
        self.oom_events.load(Ordering::Relaxed)
    }

    /// `true` if the pool never exceeded its capacity (or has none).
    pub(crate) fn fits(&self) -> bool {
        self.oom_events() == 0
    }

    /// Deregister an allocation of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more bytes are freed than are live (an
    /// accounting bug in this crate, never a user error).
    pub fn free(&self, bytes: usize) {
        let prev = self.live.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "pool accounting went negative");
    }

    /// Bytes currently live on the device.
    pub(crate) fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of live bytes since creation or the last
    /// [`PoolCell::reset_peak`].
    pub(crate) fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Number of allocations performed.
    pub fn alloc_count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Reset the peak to the current live value (to scope a measurement).
    pub(crate) fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Ledger of simulated host↔device copies.
///
/// `h2d` is host-to-device (CPU→GPU), `d2h` device-to-host (GPU→CPU, the
/// offload direction eDKM minimizes).
#[derive(Debug, Default)]
pub struct TransferLedger {
    h2d_bytes: AtomicUsize,
    d2h_bytes: AtomicUsize,
    d2h_txns: AtomicU64,
}

impl TransferLedger {
    /// Create an empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record a host-to-device copy.
    pub(crate) fn record_h2d(&self, bytes: usize) {
        self.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a device-to-host copy.
    pub(crate) fn record_d2h(&self, bytes: usize) {
        self.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.d2h_txns.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub(crate) fn snapshot(&self) -> TransferSnapshot {
        TransferSnapshot {
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.d2h_bytes.load(Ordering::Relaxed),
            d2h_txns: self.d2h_txns.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.h2d_bytes.store(0, Ordering::Relaxed);
        self.d2h_bytes.store(0, Ordering::Relaxed);
        self.d2h_txns.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of a [`TransferLedger`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferSnapshot {
    /// Total CPU→GPU bytes.
    pub h2d_bytes: usize,
    /// Total GPU→CPU bytes.
    pub d2h_bytes: usize,
    /// GPU→CPU transaction count.
    pub d2h_txns: u64,
}

impl TransferSnapshot {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> usize {
        self.h2d_bytes + self.d2h_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_tracks_live_and_peak() {
        let p = PoolCell::new();
        p.alloc(100);
        p.alloc(50);
        assert_eq!(p.live_bytes(), 150);
        assert_eq!(p.peak_bytes(), 150);
        p.free(100);
        assert_eq!(p.live_bytes(), 50);
        assert_eq!(p.peak_bytes(), 150, "peak must persist after frees");
        p.alloc(10);
        assert_eq!(p.peak_bytes(), 150);
        assert_eq!(p.alloc_count(), 3);
    }

    #[test]
    fn pool_reset_peak_scopes_measurement() {
        let p = PoolCell::new();
        p.alloc(1000);
        p.free(1000);
        assert_eq!(p.peak_bytes(), 1000);
        p.reset_peak();
        assert_eq!(p.peak_bytes(), 0);
        p.alloc(5);
        assert_eq!(p.peak_bytes(), 5);
    }

    #[test]
    fn ledger_directions_are_independent() {
        let l = TransferLedger::new();
        l.record_d2h(4 << 20);
        l.record_d2h(4 << 20);
        l.record_h2d(1024);
        let s = l.snapshot();
        assert_eq!(s.d2h_bytes, 8 << 20);
        assert_eq!(s.d2h_txns, 2);
        assert_eq!(s.h2d_bytes, 1024);
        assert_eq!(s.total_bytes(), (8 << 20) + 1024);
    }

    #[test]
    fn ledger_reset() {
        let l = TransferLedger::new();
        l.record_h2d(10);
        l.reset();
        assert_eq!(l.snapshot(), TransferSnapshot::default());
    }

    #[test]
    fn capacity_records_oom_without_failing() {
        let p = PoolCell::new();
        p.set_capacity(100);
        p.alloc(60);
        assert!(p.fits());
        p.alloc(60); // 120 > 100: would have OOMed on real hardware
        assert!(!p.fits());
        assert_eq!(p.oom_events(), 1);
        // The simulation keeps running (live is still tracked).
        assert_eq!(p.live_bytes(), 120);
        p.free(60);
        p.alloc(10);
        assert_eq!(p.oom_events(), 1, "back under capacity: no new events");
    }

    #[test]
    fn zero_capacity_means_unlimited() {
        let p = PoolCell::new();
        p.alloc(usize::MAX / 2);
        assert!(p.fits());
        assert_eq!(p.oom_events(), 0);
    }

    #[test]
    fn pool_is_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<PoolCell>();
        assert_ss::<TransferLedger>();
    }

    #[test]
    fn concurrent_accounting_is_consistent() {
        use std::sync::Arc;
        let p = Arc::new(PoolCell::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    p.alloc(8);
                    p.free(8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.live_bytes(), 0);
        assert_eq!(p.alloc_count(), 4000);
    }
}
