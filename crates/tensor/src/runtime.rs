//! Shared-handle simulation runtime: device pools, transfer ledger, clock.
//!
//! A [`Runtime`] is a cheap cloneable handle (`Arc` inside) to one set of
//! thread-safe counters — the pattern GPU runtimes like kubecl use for their
//! server handles. The process owns one **default runtime** that every
//! thread reaches unless it has bound its own, so parallel workers all
//! account into the same ledgers; [`bind`] scopes a specific handle to the
//! current thread (that is how worker threads join a caller's measurement,
//! and how tests isolate theirs).
//!
//! [`reset`] keeps its historical test contract: it installs a fresh runtime
//! (empty pools, zero ledger and clock, default cost model) as both the
//! process default and the calling thread's bound runtime, so measurements
//! that follow a `reset()` are isolated from every other thread that also
//! starts with `reset()`. Storages created before a reset keep (and
//! correctly drain) their old pool handles.

use crate::cost::{CostModel, SimClock};
use crate::pool::{PoolCell, TransferLedger, TransferSnapshot};
use crate::Device;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

#[derive(Debug)]
struct RuntimeState {
    pools: Mutex<HashMap<Device, Arc<PoolCell>>>,
    ledger: Arc<TransferLedger>,
    clock: Arc<SimClock>,
    cost: Mutex<CostModel>,
}

impl RuntimeState {
    fn new() -> Self {
        RuntimeState {
            pools: Mutex::new(HashMap::new()),
            ledger: Arc::new(TransferLedger::new()),
            clock: Arc::new(SimClock::new()),
            cost: Mutex::new(CostModel::default()),
        }
    }
}

/// Cloneable handle to one set of simulation counters.
///
/// All methods are thread-safe; clones share the same state. Obtain the
/// active handle with [`current`], move it across threads freely, and
/// [`bind`] it where the work runs.
#[derive(Debug, Clone)]
pub struct Runtime {
    state: Arc<RuntimeState>,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

impl Runtime {
    /// A fresh runtime: empty pools, zero ledger and clock, default cost
    /// model.
    pub fn new() -> Runtime {
        Runtime {
            state: Arc::new(RuntimeState::new()),
        }
    }

    /// Pool of `device` in this runtime.
    pub(crate) fn pool(&self, device: Device) -> Arc<PoolCell> {
        Arc::clone(
            self.state
                .pools
                .lock()
                .entry(device)
                .or_insert_with(|| Arc::new(PoolCell::new())),
        )
    }

    /// This runtime's transfer ledger.
    pub(crate) fn ledger(&self) -> Arc<TransferLedger> {
        Arc::clone(&self.state.ledger)
    }

    /// This runtime's simulated clock.
    pub(crate) fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.state.clock)
    }

    /// This runtime's cost model.
    pub(crate) fn cost_model(&self) -> CostModel {
        *self.state.cost.lock()
    }

    /// Replace this runtime's cost model.
    pub(crate) fn set_cost_model(&self, m: CostModel) {
        *self.state.cost.lock() = m;
    }
}

/// The process-wide default runtime slot.
fn default_slot() -> &'static Mutex<Runtime> {
    static DEFAULT: OnceLock<Mutex<Runtime>> = OnceLock::new();
    DEFAULT.get_or_init(|| Mutex::new(Runtime::new()))
}

thread_local! {
    /// Handle bound to this thread, if any; `None` falls through to the
    /// process default.
    static BOUND: RefCell<Option<Runtime>> = const { RefCell::new(None) };
}

/// The runtime active on this thread: the bound handle if one is installed,
/// else the process-wide default.
pub fn current() -> Runtime {
    BOUND
        .with(|b| b.borrow().clone())
        .unwrap_or_else(|| default_slot().lock().clone())
}

/// Guard restoring the previously bound runtime when dropped.
#[derive(Debug)]
pub struct BindGuard {
    previous: Option<Runtime>,
}

impl Drop for BindGuard {
    fn drop(&mut self) {
        BOUND.with(|b| *b.borrow_mut() = self.previous.take());
    }
}

/// Bind `rt` as this thread's runtime until the guard drops.
///
/// Worker threads use this to account their allocations, transfers and
/// clock advances into the *caller's* runtime:
///
/// ```
/// use edkm_tensor::runtime;
///
/// runtime::reset();
/// let rt = runtime::current();
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         let _g = runtime::bind(&rt);
///         runtime::pool(edkm_tensor::Device::Cpu).alloc(64);
///     });
/// });
/// assert_eq!(runtime::cpu_live_bytes(), 64);
/// ```
pub fn bind(rt: &Runtime) -> BindGuard {
    let previous = BOUND.with(|b| b.borrow_mut().replace(rt.clone()));
    BindGuard { previous }
}

/// Install a fresh runtime (empty pools, zero ledger and clock, default
/// cost model) as the process default *and* this thread's bound runtime.
///
/// Tensors allocated before the reset keep handles to the *old* pools, so
/// their eventual drops cannot corrupt new measurements. Threads that bound
/// a handle (or reset their own) keep theirs, which is what isolates
/// concurrently running tests.
pub fn reset() {
    let rt = Runtime::new();
    *default_slot().lock() = rt.clone();
    BOUND.with(|b| *b.borrow_mut() = Some(rt));
}

/// Pool of `device` on the active runtime.
pub fn pool(device: Device) -> Arc<PoolCell> {
    current().pool(device)
}

/// The active runtime's transfer ledger.
pub fn ledger() -> Arc<TransferLedger> {
    current().ledger()
}

/// The active runtime's simulated clock.
pub fn clock() -> Arc<SimClock> {
    current().clock()
}

/// Replace the active runtime's cost model.
pub fn set_cost_model(m: CostModel) {
    current().set_cost_model(m);
}

/// Record a host↔device copy of `bytes` from `from` to `to` in the ledger and
/// advance the clock by the modeled PCIe time.
///
/// Same-device "copies" and GPU↔GPU copies advance the clock but are not
/// PCIe traffic; only CPU↔GPU directions hit the ledger.
pub fn record_transfer(bytes: usize, from: Device, to: Device) {
    let rt = current();
    match (from, to) {
        (Device::Cpu, Device::Gpu(_)) => rt.state.ledger.record_h2d(bytes),
        (Device::Gpu(_), Device::Cpu) => rt.state.ledger.record_d2h(bytes),
        _ => {}
    }
    let cost = rt.cost_model();
    rt.state.clock.advance(cost.transfer_s(bytes));
}

/// Advance the clock by the cost of `flops` on `device`.
pub fn record_compute(flops: f64, device: Device) {
    let rt = current();
    let cost = rt.cost_model();
    rt.state.clock.advance(cost.compute_s(flops, device));
}

/// Advance the clock by a marshaling graph walk of `hops`.
pub fn record_walk(hops: usize) {
    let rt = current();
    let cost = rt.cost_model();
    rt.state.clock.advance(cost.walk_s(hops));
}

/// Advance the clock by a uniquification hash pass over `bytes`.
pub fn record_hash_pass(bytes: usize) {
    let rt = current();
    let cost = rt.cost_model();
    rt.state.clock.advance(cost.hash_pass_s(bytes));
}

/// Advance the clock by an all-gather of `bytes_per_learner` over `learners`.
pub fn record_all_gather(bytes_per_learner: usize, learners: usize) {
    let rt = current();
    let cost = rt.cost_model();
    rt.state
        .clock
        .advance(cost.all_gather_s(bytes_per_learner, learners));
}

/// Live bytes currently allocated on `device`.
pub(crate) fn live_bytes(device: Device) -> usize {
    pool(device).live_bytes()
}

/// Peak bytes observed on `device` since runtime creation or the last
/// [`reset_peak`].
pub fn peak_bytes(device: Device) -> usize {
    pool(device).peak_bytes()
}

/// Reset `device`'s peak-byte watermark to its current live bytes.
pub fn reset_peak(device: Device) {
    pool(device).reset_peak();
}

/// Set a simulated capacity for `device` (0 = unlimited). Allocations past
/// the capacity are *recorded*, not failed — query with [`device_fits`].
pub fn set_device_capacity(device: Device, bytes: usize) {
    pool(device).set_capacity(bytes);
}

/// `true` if `device` never exceeded its configured capacity.
pub fn device_fits(device: Device) -> bool {
    pool(device).fits()
}

/// Allocations on `device` that exceeded its capacity.
pub fn device_oom_events(device: Device) -> u64 {
    pool(device).oom_events()
}

/// Shorthand: live bytes on [`Device::Cpu`].
pub fn cpu_live_bytes() -> usize {
    live_bytes(Device::Cpu)
}

/// Shorthand: live bytes on [`Device::gpu()`].
pub fn gpu_live_bytes() -> usize {
    live_bytes(Device::gpu())
}

/// Snapshot of the transfer ledger.
pub fn transfer_snapshot() -> TransferSnapshot {
    ledger().snapshot()
}

/// Current simulated time in seconds.
pub fn sim_seconds() -> f64 {
    clock().seconds()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_isolates_measurements() {
        reset();
        pool(Device::Cpu).alloc(100);
        assert_eq!(cpu_live_bytes(), 100);
        reset();
        assert_eq!(cpu_live_bytes(), 0);
        assert_eq!(peak_bytes(Device::Cpu), 0);
    }

    #[test]
    fn transfers_hit_ledger_by_direction() {
        reset();
        record_transfer(1000, Device::gpu(), Device::Cpu);
        record_transfer(500, Device::Cpu, Device::gpu());
        record_transfer(250, Device::Gpu(0), Device::Gpu(1));
        let s = transfer_snapshot();
        assert_eq!(s.d2h_bytes, 1000);
        assert_eq!(s.h2d_bytes, 500);
        assert_eq!(s.d2h_txns, 1, "gpu-gpu copies are not PCIe traffic");
        assert!(sim_seconds() > 0.0);
    }

    #[test]
    fn compute_advances_clock_per_device() {
        reset();
        record_compute(1e9, Device::Cpu);
        let cpu_t = sim_seconds();
        reset();
        record_compute(1e9, Device::gpu());
        let gpu_t = sim_seconds();
        assert!(cpu_t > gpu_t, "CPU must be slower than GPU in the model");
    }

    #[test]
    fn overhead_recorders_advance_clock() {
        reset();
        record_walk(4);
        record_hash_pass(1 << 20);
        record_all_gather(1 << 20, 8);
        assert!(sim_seconds() > 0.0);
        record_all_gather(1 << 20, 1); // no-op for a single learner
    }

    #[test]
    fn custom_cost_model_applies() {
        reset();
        let m = CostModel {
            pcie_bps: 1.0, // pathological: 1 byte per second
            pcie_latency_s: 0.0,
            ..CostModel::default()
        };
        set_cost_model(m);
        record_transfer(10, Device::gpu(), Device::Cpu);
        assert!((sim_seconds() - 10.0).abs() < 1e-6);
        assert_eq!(current().cost_model().pcie_bps, 1.0);
        reset();
        assert_eq!(current().cost_model(), CostModel::default());
    }

    #[test]
    fn pools_are_per_device() {
        reset();
        pool(Device::Gpu(0)).alloc(7);
        pool(Device::Gpu(1)).alloc(9);
        assert_eq!(live_bytes(Device::Gpu(0)), 7);
        assert_eq!(live_bytes(Device::Gpu(1)), 9);
        assert_eq!(cpu_live_bytes(), 0);
    }

    #[test]
    fn handles_share_state_across_threads() {
        reset();
        pool(Device::Cpu).alloc(123);
        let rt = current();
        let seen = std::thread::spawn({
            let rt = rt.clone();
            move || {
                let _g = bind(&rt);
                pool(Device::Cpu).alloc(7);
                cpu_live_bytes()
            }
        })
        .join()
        .unwrap();
        assert_eq!(seen, 130, "a bound worker joins the caller's accounting");
        assert_eq!(cpu_live_bytes(), 130);
    }

    #[test]
    fn bind_guard_restores_previous_runtime() {
        reset();
        pool(Device::Cpu).alloc(11);
        let other = Runtime::new();
        {
            let _g = bind(&other);
            assert_eq!(cpu_live_bytes(), 0, "bound runtime starts empty");
            pool(Device::Cpu).alloc(5);
            assert_eq!(cpu_live_bytes(), 5);
        }
        assert_eq!(
            cpu_live_bytes(),
            11,
            "guard drop restores the outer runtime"
        );
        assert_eq!(other.pool(Device::Cpu).live_bytes(), 5);
    }

    #[test]
    fn nested_binds_unwind_in_order() {
        reset();
        let a = Runtime::new();
        let b = Runtime::new();
        let _ga = bind(&a);
        {
            let _gb = bind(&b);
            pool(Device::Cpu).alloc(2);
            assert!(Arc::ptr_eq(&current().state, &b.state));
        }
        assert!(Arc::ptr_eq(&current().state, &a.state));
        assert_eq!(b.pool(Device::Cpu).live_bytes(), 2);
        assert_eq!(a.pool(Device::Cpu).live_bytes(), 0);
    }

    #[test]
    fn concurrent_recording_accounts_every_event() {
        reset();
        let rt = current();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = bind(&rt);
                    for _ in 0..250 {
                        record_transfer(8, Device::gpu(), Device::Cpu);
                        pool(Device::Cpu).alloc(8);
                        pool(Device::Cpu).free(8);
                    }
                });
            }
        });
        let snap = transfer_snapshot();
        assert_eq!(snap.d2h_bytes, 4 * 250 * 8);
        assert_eq!(snap.d2h_txns, 1000);
        assert_eq!(cpu_live_bytes(), 0);
        assert_eq!(pool(Device::Cpu).alloc_count(), 1000);
    }

    #[test]
    fn runtime_handle_is_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<Runtime>();
    }
}
