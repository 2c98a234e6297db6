//! Reusable scratch-buffer arena for the serving hot path.
//!
//! Steady-state decode runs the same forward shape every step (one token
//! per in-flight sequence), so every temporary the decoder needs — hidden
//! states, projection outputs, attention context, the kernel's activation
//! LUT tables, logits — can be recycled instead of reallocated. A
//! [`ScratchArena`] is a free list of `f32` buffers with best-fit checkout:
//! once the arena has seen one step of a given shape, later steps of the
//! same shape perform **zero heap allocations** (the property
//! `tests/alloc_steady_state.rs` pins via the [`ScratchArena::grows`]
//! counter).
//!
//! The arena is deliberately *not* charged to the device memory pool: it is
//! reusable scratch owned by the scheduler, not model or KV state, and the
//! pool-conservation invariants (`runtime::cpu_live_bytes()` returning to
//! baseline when requests retire) are about accountable state.

use std::cell::RefCell;

/// A free list of reusable `f32` scratch buffers.
///
/// [`ScratchArena::take`] checks out a zeroed buffer of the requested
/// length, preferring the smallest pooled buffer whose capacity fits
/// (best-fit, so a tiny request never pins a huge buffer); the caller
/// hands the buffer back with [`ScratchArena::put`] when done. Only a
/// checkout that no pooled buffer can satisfy allocates.
///
/// ```
/// use edkm_core::scratch::ScratchArena;
///
/// let mut arena = ScratchArena::new();
/// let buf = arena.take(128);
/// assert_eq!(buf.len(), 128);
/// arena.put(buf);
/// // The second checkout of the same shape reuses the pooled buffer.
/// let again = arena.take(128);
/// assert_eq!(arena.checkouts(), 2);
/// assert_eq!(arena.grows(), 1, "only the cold checkout allocated");
/// arena.put(again);
/// ```
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: Vec<Vec<f32>>,
    free_idx: Vec<Vec<usize>>,
    checkouts: u64,
    grows: u64,
}

impl ScratchArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Check out a zeroed buffer of exactly `len` elements, reusing the
    /// best-fitting pooled buffer when one exists. A zero-length checkout
    /// neither touches the free list nor counts as growth (an empty `Vec`
    /// does not allocate).
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.checkouts += 1;
        if len == 0 {
            return Vec::new();
        }
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.free.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.grows += 1;
                vec![0.0; len]
            }
        }
    }

    /// Return a buffer to the free list for reuse.
    pub fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Check out a zeroed `usize` index buffer of exactly `len` elements —
    /// the bookkeeping twin of [`ScratchArena::take`] (per-chunk cache
    /// starts, RoPE positions), sharing the same checkout/grow counters
    /// and the same allocation-free steady-state contract.
    pub(crate) fn take_idx(&mut self, len: usize) -> Vec<usize> {
        self.checkouts += 1;
        if len == 0 {
            return Vec::new();
        }
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.free_idx.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                let mut buf = self.free_idx.swap_remove(i);
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => {
                self.grows += 1;
                vec![0; len]
            }
        }
    }

    /// Return an index buffer to its free list for reuse.
    pub(crate) fn put_idx(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 {
            self.free_idx.push(buf);
        }
    }

    /// Total checkouts served over the arena's lifetime.
    pub fn checkouts(&self) -> u64 {
        self.checkouts
    }

    /// Checkouts that had to allocate because no pooled buffer fit. Flat
    /// across steady-state decode steps — the allocation-free contract.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Fold `other`'s free lists and counters into this arena (how nested
    /// [`with_thread_scratch`] scopes re-merge on exit).
    fn absorb(&mut self, other: ScratchArena) {
        self.checkouts += other.checkouts;
        self.grows += other.grows;
        self.free.extend(other.free);
        self.free_idx.extend(other.free_idx);
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<ScratchArena> = RefCell::new(ScratchArena::new());
}

/// Run `f` with this thread's long-lived [`ScratchArena`] — what the
/// `Tensor`-returning compatibility wrappers use so that even callers
/// without an explicit arena recycle their scratch.
///
/// Re-entrant: the arena is moved out of the thread slot for `f`'s
/// duration, so a nested call gets a fresh arena, and both merge back on
/// exit.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut ScratchArena) -> R) -> R {
    let mut arena = THREAD_SCRATCH.with(|a| std::mem::take(&mut *a.borrow_mut()));
    let out = f(&mut arena);
    THREAD_SCRATCH.with(|a| {
        let mut slot = a.borrow_mut();
        arena.absorb(std::mem::take(&mut *slot));
        *slot = arena;
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_reuse() {
        let mut a = ScratchArena::new();
        let mut b = a.take(8);
        b.iter_mut().for_each(|v| *v = 7.0);
        a.put(b);
        assert!(a.take(8).iter().all(|&v| v == 0.0), "reuse must re-zero");
    }

    #[test]
    fn best_fit_prefers_the_smallest_sufficient_buffer() {
        let mut a = ScratchArena::new();
        let big = a.take(1000);
        let small = a.take(10);
        a.put(big);
        a.put(small);
        let got = a.take(10);
        assert!(got.capacity() < 1000, "must not burn the big buffer");
        a.put(got);
        assert_eq!(a.grows(), 2);
        assert_eq!(a.free.len() + a.free_idx.len(), 2);
    }

    #[test]
    fn steady_state_shape_stops_growing() {
        let mut a = ScratchArena::new();
        for _ in 0..5 {
            let x = a.take(64);
            let y = a.take(128);
            a.put(x);
            a.put(y);
        }
        assert_eq!(a.grows(), 2, "one allocation per distinct shape");
        assert_eq!(a.checkouts(), 10);
    }

    #[test]
    fn index_buffers_recycle_like_f32_buffers() {
        let mut a = ScratchArena::new();
        let mut idx = a.take_idx(16);
        idx.iter_mut().for_each(|v| *v = 9);
        a.put_idx(idx);
        let grows = a.grows();
        let again = a.take_idx(16);
        assert!(again.iter().all(|&v| v == 0), "reuse must re-zero");
        assert_eq!(a.grows(), grows, "warm index checkout must not allocate");
        a.put_idx(again);
        // The pools are separate: an f32 checkout cannot satisfy an index
        // request or vice versa.
        let f = a.take(16);
        assert_eq!(a.grows(), grows + 1);
        a.put(f);
    }

    #[test]
    fn zero_len_buffers_are_not_pooled() {
        let mut a = ScratchArena::new();
        a.put(Vec::new());
        assert_eq!(a.free.len() + a.free_idx.len(), 0);
    }

    #[test]
    fn thread_scratch_persists_across_calls() {
        let first = with_thread_scratch(|a| {
            let b = a.take(32);
            a.put(b);
            a.grows()
        });
        let second = with_thread_scratch(|a| {
            let b = a.take(32);
            a.put(b);
            a.grows()
        });
        assert_eq!(first, second, "second call reuses the pooled buffer");
    }
}
