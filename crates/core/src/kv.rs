//! Paged KV-cache pool: fixed-size token blocks, a free-list allocator,
//! per-sequence block tables and a prefix-sharing radix index — the
//! vLLM-style storage layout that lets the continuous-batching scheduler
//! admit by *actual free blocks* instead of reserving worst-case sequence
//! lengths, and reuse already-computed prefixes across requests.
//!
//! A [`KvBlockPool`] owns a bounded (or unbounded) population of
//! `KvBlock`s. Each block stores `block_tokens` positions of rotated K and
//! V rows for *every* decoder layer, so one block table per sequence covers
//! the whole model. Blocks are checked out of the pool when a sequence
//! grows past a block boundary and return to the free list when the
//! sequence retires; buffer memory is recycled across sequences.
//!
//! **Prefix sharing.** A block table entry is either *owned* (private,
//! mutable, recycled through the free list) or *shared* (an `Arc` to an
//! immutable, refcounted block also reachable through the pool's radix
//! index keyed by token-id chunks). [`KvBlockPool::prefix_lookup`] maps the
//! longest indexed prefix of a prompt into a fresh cache read-only, so only
//! the suffix needs a forward pass; [`KvCache::write_rows`] into a shared
//! block copy-on-write forks it into a private owned block first. Shared
//! blocks are counted and charged **once** no matter how many block tables
//! map them; the last reference (table or index) to drop un-charges them.
//!
//! **Ledger conservation invariant:** exactly the physical blocks currently
//! live — owned checkouts plus distinct shared blocks — are charged to the
//! device pool (`block_bytes` each). Free-listed blocks are uncharged, so
//! `runtime::cpu_live_bytes()` returns to its baseline once every sequence
//! retires and the prefix index is cleared — the property
//! `tests/paged_kv.rs` pins over arbitrary admit/fork/retire interleavings.

use edkm_tensor::pool::PoolCell;
use edkm_tensor::{runtime, Device};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sizing of a [`KvBlockPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvBlockConfig {
    /// Token positions per block (the paging granularity).
    pub block_tokens: usize,
    /// Total physical blocks the pool may hand out; `0` means unbounded.
    pub max_blocks: usize,
}

impl Default for KvBlockConfig {
    fn default() -> Self {
        KvBlockConfig {
            block_tokens: 16,
            max_blocks: 0,
        }
    }
}

/// One physical KV block: `block_tokens` positions of K and V rows for
/// every layer of the model it was sized for.
#[derive(Debug)]
pub(crate) struct KvBlock {
    id: usize,
    k: Vec<f32>,
    v: Vec<f32>,
}

/// An immutable, refcounted KV block shared between block tables and the
/// pool's prefix index. The device-pool charge made when the block was
/// first checked out travels with it; the last `Arc` to drop un-charges
/// the bytes and releases the physical-block count (the buffers are not
/// free-listed — shared blocks retire by deallocation).
#[derive(Debug)]
struct SharedBlock {
    block: KvBlock,
    bytes: usize,
    mem: Arc<PoolCell>,
    live: Arc<AtomicUsize>,
}

impl Drop for SharedBlock {
    fn drop(&mut self) {
        self.mem.free(self.bytes);
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One block-table entry: a private owned block or a read-only shared one.
#[derive(Debug)]
enum BlockRef {
    Owned(KvBlock),
    Shared(Arc<SharedBlock>),
}

impl BlockRef {
    fn id(&self) -> usize {
        match self {
            BlockRef::Owned(b) => b.id,
            BlockRef::Shared(s) => s.block.id,
        }
    }

    fn k(&self) -> &[f32] {
        match self {
            BlockRef::Owned(b) => &b.k,
            BlockRef::Shared(s) => &s.block.k,
        }
    }

    fn v(&self) -> &[f32] {
        match self {
            BlockRef::Owned(b) => &b.v,
            BlockRef::Shared(s) => &s.block.v,
        }
    }
}

/// Radix-trie node: the edge *into* a node is one `block_tokens`-sized
/// chunk of token ids, and the node holds the shared block whose K/V rows
/// cover exactly those positions given the path from the root.
#[derive(Debug)]
struct PrefixNode {
    block: Arc<SharedBlock>,
    last_used: u64,
    children: HashMap<Box<[usize]>, PrefixNode>,
}

#[derive(Debug, Default)]
struct PrefixIndex {
    roots: HashMap<Box<[usize]>, PrefixNode>,
    clock: u64,
}

fn count_nodes(map: &HashMap<Box<[usize]>, PrefixNode>) -> usize {
    map.values().map(|n| 1 + count_nodes(&n.children)).sum()
}

fn collect_ids(map: &HashMap<Box<[usize]>, PrefixNode>, out: &mut Vec<usize>) {
    for node in map.values() {
        out.push(node.block.block.id);
        collect_ids(&node.children, out);
    }
}

/// Smallest `last_used` stamp among evictable leaves (no children, no
/// holder besides the index itself).
fn scan_lru_leaf(map: &HashMap<Box<[usize]>, PrefixNode>) -> Option<u64> {
    let mut best: Option<u64> = None;
    for node in map.values() {
        let cand = if node.children.is_empty() {
            (Arc::strong_count(&node.block) == 1).then_some(node.last_used)
        } else {
            scan_lru_leaf(&node.children)
        };
        if let Some(c) = cand {
            best = Some(best.map_or(c, |b| b.min(c)));
        }
    }
    best
}

fn remove_leaf_with_stamp(map: &mut HashMap<Box<[usize]>, PrefixNode>, stamp: u64) -> bool {
    let mut key: Option<Box<[usize]>> = None;
    for (k, node) in map.iter_mut() {
        if node.children.is_empty()
            && node.last_used == stamp
            && Arc::strong_count(&node.block) == 1
        {
            key = Some(k.clone());
            break;
        }
        if remove_leaf_with_stamp(&mut node.children, stamp) {
            return true;
        }
    }
    match key {
        Some(k) => {
            map.remove(&k);
            true
        }
        None => false,
    }
}

#[derive(Debug)]
struct PoolInner {
    /// Recycled blocks ready for checkout.
    free: Vec<KvBlock>,
    /// Next fresh physical id.
    next_id: usize,
    /// Owned blocks currently checked out by live caches.
    in_use: usize,
}

/// Shared pool of fixed-size KV blocks for one served model.
///
/// Cheap to clone through its `Arc`; thread-safe. Sequences draw blocks
/// through [`KvCache::try_reserve`] and return them when the cache drops.
/// With the prefix cache enabled ([`KvBlockPool::set_prefix_cache`]),
/// finished prefixes are promoted into a radix index and later prompts
/// adopt the longest matching run of blocks read-only.
///
/// ```
/// use edkm_core::kv::{KvBlockConfig, KvBlockPool, KvCache};
/// use edkm_tensor::{runtime, Device};
///
/// runtime::reset();
/// // 4-token blocks, at most 3 blocks, for a 2-layer d_model-8 model.
/// let cfg = KvBlockConfig { block_tokens: 4, max_blocks: 3 };
/// let pool = KvBlockPool::new(cfg, 2, 8, Device::Cpu);
/// let mut cache = KvCache::new(pool.clone());
/// assert!(cache.try_reserve(6)); // 6 tokens -> 2 blocks
/// assert_eq!(pool.blocks_in_use(), 2);
/// assert_eq!(pool.free_blocks(), 1);
/// assert_eq!(cache.block_table().len(), 2);
/// drop(cache); // blocks return to the free list
/// assert_eq!(pool.blocks_in_use(), 0);
/// assert_eq!(runtime::cpu_live_bytes(), 0);
/// ```
#[derive(Debug)]
pub struct KvBlockPool {
    block_tokens: usize,
    max_blocks: AtomicUsize,
    n_layers: usize,
    d_model: usize,
    inner: Mutex<PoolInner>,
    mem: Arc<PoolCell>,
    index: Mutex<PrefixIndex>,
    prefix_enabled: AtomicBool,
    shared_live: Arc<AtomicUsize>,
    peak_blocks: AtomicUsize,
}

impl KvBlockPool {
    /// A pool sized for a model of `n_layers` layers and width `d_model`,
    /// allocating on `device`.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is 0.
    pub fn new(cfg: KvBlockConfig, n_layers: usize, d_model: usize, device: Device) -> Arc<Self> {
        assert!(cfg.block_tokens > 0, "block_tokens must be positive");
        Arc::new(KvBlockPool {
            block_tokens: cfg.block_tokens,
            max_blocks: AtomicUsize::new(cfg.max_blocks),
            n_layers,
            d_model,
            inner: Mutex::new(PoolInner {
                free: Vec::new(),
                next_id: 0,
                in_use: 0,
            }),
            mem: runtime::pool(device),
            index: Mutex::new(PrefixIndex::default()),
            prefix_enabled: AtomicBool::new(false),
            shared_live: Arc::new(AtomicUsize::new(0)),
            peak_blocks: AtomicUsize::new(0),
        })
    }

    /// Token positions per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Physical block cap (`0` = unbounded).
    pub fn max_blocks(&self) -> usize {
        self.max_blocks.load(Ordering::Relaxed)
    }

    /// Replace the physical block cap and return the previous one — the
    /// KV-squeeze fault hook (`0` = unbounded). Blocks already checked out
    /// are never revoked: a squeeze below the current residency only
    /// refuses *new* checkouts (evicting index-only prefix blocks where it
    /// can) until enough sequences retire, so in-flight work is safe and
    /// the pressure resolves through the scheduler's ordinary
    /// admission-gating and preemption paths. Restoring the old cap lifts
    /// the squeeze.
    pub fn set_max_blocks(&self, max_blocks: usize) -> usize {
        self.max_blocks.swap(max_blocks, Ordering::Relaxed)
    }

    /// Device-pool bytes one block accounts for: K + V rows for every
    /// layer, `block_tokens` positions each.
    pub fn block_bytes(&self) -> usize {
        2 * self.n_layers * self.block_tokens * self.d_model * std::mem::size_of::<f32>()
    }

    /// Blocks needed to hold `tokens` positions.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Physical blocks currently live: owned checkouts plus distinct
    /// shared blocks (each shared block counts once regardless of how many
    /// block tables map it).
    pub fn blocks_in_use(&self) -> usize {
        self.inner.lock().in_use + self.shared_live.load(Ordering::Relaxed)
    }

    /// High-water mark of physical resident blocks — owned checkouts plus
    /// distinct shared prefix blocks, the device-memory footprint a
    /// deployment must provision for. Unlike the engine's `kv_peak_bytes`
    /// (in-flight sequences only), this includes blocks the prefix index
    /// retains between requests, so cross-request dedup lowers it.
    pub(crate) fn peak_blocks(&self) -> usize {
        self.peak_blocks.load(Ordering::Relaxed)
    }

    /// `Self::peak_blocks` in device-pool bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_blocks() * self.block_bytes()
    }

    /// Blocks still available for checkout (`usize::MAX` when unbounded).
    pub fn free_blocks(&self) -> usize {
        let cap = self.max_blocks();
        if cap == 0 {
            usize::MAX
        } else {
            cap.saturating_sub(self.blocks_in_use())
        }
    }

    /// Turn the prefix-sharing radix index on or off. Off (the default)
    /// preserves the PR-3 behavior exactly: every cache owns all of its
    /// blocks and nothing survives a sequence's retirement.
    pub fn set_prefix_cache(&self, enabled: bool) {
        self.prefix_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether prefix sharing is enabled.
    pub(crate) fn prefix_cache_enabled(&self) -> bool {
        self.prefix_enabled.load(Ordering::Relaxed)
    }

    /// Number of blocks currently held by the prefix index (shared with
    /// any block tables mapping them).
    pub fn prefix_cached_blocks(&self) -> usize {
        count_nodes(&self.index.lock().roots)
    }

    /// Physical ids of every block held by the prefix index, in no
    /// particular order. Diagnostic surface for refcount-conservation
    /// tests.
    pub fn indexed_block_ids(&self) -> Vec<usize> {
        let mut out = Vec::new();
        collect_ids(&self.index.lock().roots, &mut out);
        out
    }

    /// Drop the whole prefix index. Blocks still mapped by live caches
    /// survive until those caches drop; index-only blocks free (and
    /// un-charge) immediately.
    pub fn clear_prefix_cache(&self) {
        self.index.lock().roots.clear();
    }

    /// Map the longest indexed prefix of `prompt` into `cache` read-only.
    ///
    /// Walks the radix index chunk by chunk (`block_tokens` token ids per
    /// edge) and adopts each matching shared block into the cache's block
    /// table without charging the ledger again. The match is capped one
    /// position short of the full prompt so the suffix forward always has
    /// at least one token to produce logits from. Returns the number of
    /// prompt tokens covered (a multiple of `block_tokens`, possibly 0).
    ///
    /// # Panics
    ///
    /// Panics if `cache` is not empty.
    pub fn prefix_lookup(&self, prompt: &[usize], cache: &mut KvCache) -> usize {
        assert!(
            cache.blocks.is_empty() && cache.len == 0,
            "prefix_lookup requires an empty cache"
        );
        if !self.prefix_cache_enabled() || prompt.is_empty() {
            return 0;
        }
        let bt = self.block_tokens;
        let max_match = (prompt.len() - 1) / bt;
        if max_match == 0 {
            return 0;
        }
        let mut index = self.index.lock();
        index.clock += 1;
        let stamp = index.clock;
        let mut map = &mut index.roots;
        let mut adopted = 0;
        for b in 0..max_match {
            let chunk = &prompt[b * bt..(b + 1) * bt];
            match map.get_mut(chunk) {
                Some(node) => {
                    node.last_used = stamp;
                    cache.blocks.push(BlockRef::Shared(Arc::clone(&node.block)));
                    adopted += 1;
                    map = &mut node.children;
                }
                None => break,
            }
        }
        cache.len = adopted * bt;
        cache.len
    }

    /// Insert every full committed block of `cache` into the radix index
    /// under the token-id path `tokens`, promoting owned blocks to shared
    /// in place. Chunks already present keep their existing block (token
    /// determinism makes the contents identical) and are only
    /// freshness-stamped. A no-op while the prefix cache is disabled.
    pub fn prefix_insert(&self, tokens: &[usize], cache: &mut KvCache) {
        if !self.prefix_cache_enabled() {
            return;
        }
        let bt = self.block_tokens;
        let full = cache.len.min(tokens.len()) / bt;
        if full == 0 {
            return;
        }
        let mut index = self.index.lock();
        index.clock += 1;
        let stamp = index.clock;
        let mut map = &mut index.roots;
        for b in 0..full {
            let chunk = &tokens[b * bt..(b + 1) * bt];
            if !map.contains_key(chunk) {
                let shared = cache.share_block(b);
                map.insert(
                    chunk.to_vec().into_boxed_slice(),
                    PrefixNode {
                        block: shared,
                        last_used: stamp,
                        children: HashMap::new(),
                    },
                );
            }
            let node = map.get_mut(chunk).expect("chunk just ensured");
            node.last_used = stamp;
            map = &mut node.children;
        }
    }

    /// Move an owned block's accounting to the shared side and wrap it.
    /// The device-pool charge made at checkout carries over; the returned
    /// `Arc`'s final drop releases it.
    fn promote(&self, block: KvBlock) -> Arc<SharedBlock> {
        self.inner.lock().in_use -= 1;
        self.shared_live.fetch_add(1, Ordering::Relaxed);
        Arc::new(SharedBlock {
            block,
            bytes: self.block_bytes(),
            mem: Arc::clone(&self.mem),
            live: Arc::clone(&self.shared_live),
        })
    }

    /// Check out `n` blocks, recycling free-listed buffers first. When the
    /// cap would be exceeded, evicts least-recently-used index-only prefix
    /// blocks to make room; returns `None` (taking nothing) if that still
    /// cannot fit. The device pool is charged `block_bytes` per block on
    /// success.
    fn try_take(&self, n: usize) -> Option<Vec<KvBlock>> {
        let row_floats = self.n_layers * self.block_tokens * self.d_model;
        loop {
            let cap = self.max_blocks();
            let mut inner = self.inner.lock();
            let physical = inner.in_use + self.shared_live.load(Ordering::Relaxed);
            if cap > 0 && physical + n > cap {
                drop(inner);
                let need = physical + n - cap;
                if self.evict_prefix_blocks(need) == 0 {
                    return None;
                }
                continue;
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let block = inner.free.pop().unwrap_or_else(|| {
                    let id = inner.next_id;
                    inner.next_id += 1;
                    KvBlock {
                        id,
                        k: vec![0.0; row_floats],
                        v: vec![0.0; row_floats],
                    }
                });
                out.push(block);
            }
            inner.in_use += n;
            let resident = inner.in_use + self.shared_live.load(Ordering::Relaxed);
            drop(inner);
            self.peak_blocks.fetch_max(resident, Ordering::Relaxed);
            self.mem.alloc(n * self.block_bytes());
            return Some(out);
        }
    }

    /// Evict up to `want` least-recently-used prefix blocks held only by
    /// the index (leaves first, so interior path integrity is preserved).
    /// Returns how many were actually freed.
    fn evict_prefix_blocks(&self, want: usize) -> usize {
        let mut index = self.index.lock();
        let mut freed = 0;
        while freed < want {
            let Some(stamp) = scan_lru_leaf(&index.roots) else {
                break;
            };
            if !remove_leaf_with_stamp(&mut index.roots, stamp) {
                break;
            }
            freed += 1;
        }
        freed
    }

    /// Return blocks to the free list, uncharging their bytes.
    fn put_back(&self, blocks: Vec<KvBlock>) {
        if blocks.is_empty() {
            return;
        }
        self.mem.free(blocks.len() * self.block_bytes());
        let mut inner = self.inner.lock();
        inner.in_use -= blocks.len();
        inner.free.extend(blocks);
    }
}

/// Per-sequence paged KV cache: an ordered block table over blocks checked
/// out of a shared [`KvBlockPool`].
///
/// Rows are stored per layer as `[t, d_model]` (head-major within a row),
/// already rotated. Position `p` lives in the sequence's `p /
/// block_tokens`-th table entry at slot `p % block_tokens`. Table entries
/// are either owned (private, returned to the pool's free list when the
/// cache drops) or shared read-only with other sequences and the prefix
/// index (released by refcount). Writing into a shared entry forks it
/// copy-on-write first.
#[derive(Debug)]
pub struct KvCache {
    pool: Arc<KvBlockPool>,
    blocks: Vec<BlockRef>,
    len: usize,
}

impl KvCache {
    /// An empty cache drawing from `pool`.
    pub fn new(pool: Arc<KvBlockPool>) -> Self {
        KvCache {
            pool,
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// Cached sequence length (committed positions).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Token capacity of the blocks currently held.
    pub(crate) fn capacity(&self) -> usize {
        self.blocks.len() * self.pool.block_tokens()
    }

    /// The sequence's block table: physical block ids in position order.
    pub fn block_table(&self) -> Vec<usize> {
        self.blocks.iter().map(BlockRef::id).collect()
    }

    /// `(physical id, is_shared)` for every block-table entry in position
    /// order — the raw material for deduplicated byte accounting.
    pub fn block_entries(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.blocks
            .iter()
            .map(|r| (r.id(), matches!(r, BlockRef::Shared(_))))
    }

    /// Reference count of the `i`-th table entry: 1 for an owned block,
    /// the `Arc` strong count (tables + index) for a shared one.
    pub fn block_refcount(&self, i: usize) -> usize {
        match &self.blocks[i] {
            BlockRef::Owned(_) => 1,
            BlockRef::Shared(s) => Arc::strong_count(s),
        }
    }

    /// Ensure capacity for `n_new` more positions, checking out blocks as
    /// needed. Returns `false` (holding what it already had) if the pool
    /// cap would be exceeded.
    pub fn try_reserve(&mut self, n_new: usize) -> bool {
        let needed_blocks = self.pool.blocks_for(self.len + n_new);
        if needed_blocks <= self.blocks.len() {
            return true;
        }
        match self.pool.try_take(needed_blocks - self.blocks.len()) {
            Some(fresh) => {
                self.blocks.extend(fresh.into_iter().map(BlockRef::Owned));
                true
            }
            None => false,
        }
    }

    /// Write `n` consecutive K/V rows (width `d_model`) for `layer`
    /// starting at absolute position `pos0`. Capacity must already be
    /// reserved; positions become readable immediately and are counted by
    /// `KvCache::len` only after [`KvCache::commit`]. Writing into a
    /// shared block forks it copy-on-write into a private owned block.
    ///
    /// # Panics
    ///
    /// Panics if the write runs past reserved capacity, or if a
    /// copy-on-write fork cannot check a fresh block out of the pool.
    pub fn write_rows(&mut self, layer: usize, pos0: usize, k_rows: &[f32], v_rows: &[f32]) {
        let d = self.pool.d_model;
        let bt = self.pool.block_tokens;
        debug_assert_eq!(k_rows.len(), v_rows.len());
        debug_assert_eq!(k_rows.len() % d, 0);
        let n = k_rows.len() / d;
        assert!(
            pos0 + n <= self.capacity(),
            "write past reserved capacity: {} + {n} > {}",
            pos0,
            self.capacity()
        );
        for i in 0..n {
            let pos = pos0 + i;
            let (b, slot) = (pos / bt, pos % bt);
            if matches!(self.blocks[b], BlockRef::Shared(_)) {
                self.fork_block(b);
            }
            let off = (layer * bt + slot) * d;
            let BlockRef::Owned(block) = &mut self.blocks[b] else {
                unreachable!("shared block just forked");
            };
            block.k[off..off + d].copy_from_slice(&k_rows[i * d..(i + 1) * d]);
            block.v[off..off + d].copy_from_slice(&v_rows[i * d..(i + 1) * d]);
        }
    }

    /// Replace the shared entry at table position `b` with a private copy.
    fn fork_block(&mut self, b: usize) {
        let mut fresh = self
            .pool
            .try_take(1)
            .expect("KV block pool exhausted during copy-on-write fork");
        let mut owned = fresh.pop().expect("requested one block");
        let BlockRef::Shared(shared) = &self.blocks[b] else {
            return;
        };
        owned.k.copy_from_slice(&shared.block.k);
        owned.v.copy_from_slice(&shared.block.v);
        self.blocks[b] = BlockRef::Owned(owned);
    }

    /// Promote the `b`-th table entry to shared (if it is not already) and
    /// return a clone of its `Arc` for the prefix index.
    fn share_block(&mut self, b: usize) -> Arc<SharedBlock> {
        if let BlockRef::Shared(s) = &self.blocks[b] {
            return Arc::clone(s);
        }
        let placeholder = BlockRef::Owned(KvBlock {
            id: usize::MAX,
            k: Vec::new(),
            v: Vec::new(),
        });
        let BlockRef::Owned(block) = std::mem::replace(&mut self.blocks[b], placeholder) else {
            unreachable!("checked owned above");
        };
        let shared = self.pool.promote(block);
        self.blocks[b] = BlockRef::Shared(Arc::clone(&shared));
        shared
    }

    /// Commit `n` written positions to the sequence length.
    pub fn commit(&mut self, n: usize) {
        self.len += n;
        debug_assert!(self.len <= self.capacity(), "committed past capacity");
    }

    /// The K row of `layer` at absolute position `pos` (read through the
    /// block table).
    pub(crate) fn k_row(&self, layer: usize, pos: usize) -> &[f32] {
        self.row(layer, pos, false)
    }

    /// The V row of `layer` at absolute position `pos`.
    pub(crate) fn v_row(&self, layer: usize, pos: usize) -> &[f32] {
        self.row(layer, pos, true)
    }

    /// The contiguous K rows of `layer` from `pos` to the end of its
    /// block — positions inside one block are stored back to back per
    /// layer, so attention can stream a whole block per table lookup
    /// instead of resolving every row. Rows past the written range hold
    /// recycled data; callers clamp to their context length.
    pub(crate) fn k_rows_from(&self, layer: usize, pos: usize) -> &[f32] {
        self.rows_from(layer, pos, false)
    }

    /// The contiguous V rows of `layer` from `pos` to the end of its
    /// block; see [`KvCache::k_rows_from`].
    pub(crate) fn v_rows_from(&self, layer: usize, pos: usize) -> &[f32] {
        self.rows_from(layer, pos, true)
    }

    fn row(&self, layer: usize, pos: usize, v: bool) -> &[f32] {
        let d = self.pool.d_model;
        &self.rows_from(layer, pos, v)[..d]
    }

    fn rows_from(&self, layer: usize, pos: usize, v: bool) -> &[f32] {
        let d = self.pool.d_model;
        let bt = self.pool.block_tokens;
        let block = &self.blocks[pos / bt];
        let off = (layer * bt + pos % bt) * d;
        let end = (layer * bt + bt) * d;
        let buf = if v { block.v() } else { block.k() };
        &buf[off..end]
    }
}

impl Drop for KvCache {
    fn drop(&mut self) {
        let mut owned = Vec::with_capacity(self.blocks.len());
        for r in self.blocks.drain(..) {
            if let BlockRef::Owned(b) = r {
                owned.push(b);
            }
        }
        self.pool.put_back(owned);
    }
}

/// Incremental FNV-1a fingerprint over a token-id sequence: push tokens
/// one at a time and read the fingerprint of every prefix along the way.
/// A cluster router hashes a prompt once with this and probes its
/// affinity table at each prefix length — the streaming dual of
/// [`prefix_fingerprints`], which records the radix-chunk-aligned
/// checkpoints of a dispatched prompt.
///
/// The hash is a pure function of the token ids (no per-process state),
/// so fingerprints agree across replicas, processes and runs.
#[derive(Debug, Clone)]
pub struct PrefixHasher {
    state: u64,
}

impl PrefixHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher over the empty prefix.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        PrefixHasher {
            state: Self::OFFSET,
        }
    }

    /// Absorb one token and return the fingerprint of the prefix ending
    /// at it.
    pub fn push(&mut self, token: usize) -> u64 {
        for byte in (token as u64).to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
        self.state
    }
}

/// `(prefix_len, fingerprint)` of every `block_tokens`-aligned prefix of
/// `prompt` — the radix-index chunk boundaries of [`KvBlockPool`] — plus
/// the whole prompt when it is not already chunk-aligned, ascending by
/// length. These are the checkpoints a prefix-affinity router records at
/// dispatch: a follow-up chat turn extends this prompt, so hashing the
/// follow-up's prefixes (with [`PrefixHasher`]) rediscovers one of these
/// fingerprints and with it the replica whose radix index holds the
/// session's KV blocks.
pub fn prefix_fingerprints(prompt: &[usize], block_tokens: usize) -> Vec<(usize, u64)> {
    assert!(block_tokens > 0, "block_tokens must be positive");
    let mut out = Vec::with_capacity(prompt.len() / block_tokens + 1);
    let mut h = PrefixHasher::new();
    for (i, &t) in prompt.iter().enumerate() {
        let fp = h.push(t);
        if (i + 1) % block_tokens == 0 || i + 1 == prompt.len() {
            out.push((i + 1, fp));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(block_tokens: usize, max_blocks: usize) -> Arc<KvBlockPool> {
        runtime::reset();
        KvBlockPool::new(
            KvBlockConfig {
                block_tokens,
                max_blocks,
            },
            2,
            4,
            Device::Cpu,
        )
    }

    /// Write deterministic rows for `n` positions starting at `pos0` and
    /// commit them.
    fn fill(c: &mut KvCache, pos0: usize, n: usize, salt: f32) {
        for layer in 0..2 {
            let k: Vec<f32> = (0..n * 4)
                .map(|i| salt + (layer * 100 + i) as f32)
                .collect();
            let v: Vec<f32> = k.iter().map(|x| -x).collect();
            c.write_rows(layer, pos0, &k, &v);
        }
        c.commit(n);
    }

    #[test]
    fn blocks_for_rounds_up() {
        let p = pool(4, 0);
        assert_eq!(p.blocks_for(0), 0);
        assert_eq!(p.blocks_for(1), 1);
        assert_eq!(p.blocks_for(4), 1);
        assert_eq!(p.blocks_for(5), 2);
    }

    #[test]
    fn block_bytes_formula() {
        let p = pool(4, 0);
        // 2 (K+V) × 2 layers × 4 tokens × 4 wide × 4 bytes.
        assert_eq!(p.block_bytes(), 2 * 2 * 4 * 4 * 4);
    }

    #[test]
    fn reserve_charges_and_drop_drains() {
        let p = pool(4, 0);
        let baseline = runtime::cpu_live_bytes();
        {
            let mut c = KvCache::new(Arc::clone(&p));
            assert!(c.try_reserve(6)); // 2 blocks
            assert_eq!(c.capacity(), 8);
            assert_eq!(p.blocks_in_use(), 2);
            assert_eq!(runtime::cpu_live_bytes(), baseline + 2 * p.block_bytes());
            // Already covered: no extra blocks taken.
            assert!(c.try_reserve(2));
            assert_eq!(p.blocks_in_use(), 2);
        }
        assert_eq!(p.blocks_in_use(), 0);
        assert_eq!(runtime::cpu_live_bytes(), baseline, "bytes must drain");
    }

    #[test]
    fn cap_is_enforced_and_free_list_recycles_ids() {
        let p = pool(4, 2);
        let mut a = KvCache::new(Arc::clone(&p));
        assert!(a.try_reserve(8));
        assert_eq!(p.free_blocks(), 0);
        let mut b = KvCache::new(Arc::clone(&p));
        assert!(!b.try_reserve(1), "pool is exhausted");
        assert!(
            b.block_table().is_empty(),
            "failed reserve must take nothing"
        );
        let ids = a.block_table();
        drop(a);
        assert_eq!(p.free_blocks(), 2);
        assert!(b.try_reserve(5));
        let mut recycled = b.block_table();
        recycled.sort_unstable();
        let mut want = ids.clone();
        want.sort_unstable();
        assert_eq!(recycled, want, "freed physical blocks are reused");
    }

    #[test]
    fn unbounded_pool_reports_max_free() {
        let p = pool(4, 0);
        assert_eq!(p.free_blocks(), usize::MAX);
        assert_eq!(p.max_blocks(), 0);
    }

    #[test]
    fn rows_roundtrip_through_the_block_table() {
        let p = pool(2, 0); // d_model 4, 2 layers, 2 tokens/block
        let mut c = KvCache::new(Arc::clone(&p));
        assert!(c.try_reserve(3)); // spans 2 blocks
        for layer in 0..2 {
            let k: Vec<f32> = (0..12).map(|i| (layer * 100 + i) as f32).collect();
            let v: Vec<f32> = k.iter().map(|x| -x).collect();
            c.write_rows(layer, 0, &k, &v);
        }
        c.commit(3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.k_row(1, 2), &[108.0, 109.0, 110.0, 111.0]);
        assert_eq!(c.v_row(0, 1), &[-4.0, -5.0, -6.0, -7.0]);
        assert_eq!(c.block_table().len(), 2);
    }

    #[test]
    fn block_runs_cover_rows_contiguously() {
        let p = pool(2, 0); // d_model 4, 2 layers, 2 tokens/block
        let mut c = KvCache::new(Arc::clone(&p));
        assert!(c.try_reserve(4));
        for layer in 0..2 {
            let k: Vec<f32> = (0..16).map(|i| (layer * 100 + i) as f32).collect();
            let v: Vec<f32> = k.iter().map(|x| -x).collect();
            c.write_rows(layer, 0, &k, &v);
        }
        c.commit(4);
        // A run starting at a block boundary covers the whole block…
        assert_eq!(c.k_rows_from(0, 0).len(), 2 * 4);
        assert_eq!(&c.k_rows_from(1, 2)[..4], c.k_row(1, 2));
        // …and a mid-block start covers the remainder only.
        assert_eq!(c.v_rows_from(0, 1).len(), 4);
        assert_eq!(c.v_rows_from(0, 1), c.v_row(0, 1));
        // Run contents equal the row-at-a-time reads, position by position.
        for pos in 0..4 {
            let run = c.k_rows_from(0, pos);
            for (r, chunk) in run.chunks(4).enumerate() {
                if pos + r < 4 {
                    assert_eq!(chunk, c.k_row(0, pos + r), "pos {pos} + {r}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "past reserved capacity")]
    fn writing_past_capacity_panics() {
        let p = pool(2, 0);
        let mut c = KvCache::new(p);
        c.write_rows(0, 0, &[0.0; 4], &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "block_tokens must be positive")]
    fn zero_block_tokens_panics() {
        pool(0, 0);
    }

    #[test]
    fn prefix_lookup_adopts_shared_blocks_and_charges_once() {
        let p = pool(2, 0);
        p.set_prefix_cache(true);
        let baseline = runtime::cpu_live_bytes();
        let prompt: Vec<usize> = vec![7, 8, 9, 10, 11];
        let mut donor = KvCache::new(Arc::clone(&p));
        assert!(donor.try_reserve(5));
        fill(&mut donor, 0, 5, 0.0);
        p.prefix_insert(&prompt, &mut donor);
        assert_eq!(p.prefix_cached_blocks(), 2, "two full blocks indexed");
        assert_eq!(p.blocks_in_use(), 3, "promotion must not change count");
        assert_eq!(runtime::cpu_live_bytes(), baseline + 3 * p.block_bytes());

        let mut adopter = KvCache::new(Arc::clone(&p));
        let reused = p.prefix_lookup(&prompt, &mut adopter);
        assert_eq!(reused, 4, "match capped one short of the full prompt");
        assert_eq!(adopter.len(), 4);
        assert_eq!(adopter.block_table(), donor.block_table()[..2]);
        // Still three physical blocks; adoption is free.
        assert_eq!(p.blocks_in_use(), 3);
        assert_eq!(runtime::cpu_live_bytes(), baseline + 3 * p.block_bytes());
        // Shared rows read back identically through both tables.
        assert_eq!(adopter.k_row(1, 3), donor.k_row(1, 3));

        drop(donor);
        drop(adopter);
        // Index still pins the two shared blocks.
        assert_eq!(p.blocks_in_use(), 2);
        p.clear_prefix_cache();
        assert_eq!(p.blocks_in_use(), 0);
        assert_eq!(runtime::cpu_live_bytes(), baseline, "ledger drains");
    }

    #[test]
    fn writing_a_shared_block_forks_copy_on_write() {
        let p = pool(2, 0);
        p.set_prefix_cache(true);
        let prompt: Vec<usize> = vec![1, 2, 3];
        let mut donor = KvCache::new(Arc::clone(&p));
        assert!(donor.try_reserve(3));
        fill(&mut donor, 0, 3, 0.0);
        p.prefix_insert(&prompt, &mut donor);
        let mut adopter = KvCache::new(Arc::clone(&p));
        assert_eq!(p.prefix_lookup(&prompt, &mut adopter), 2);
        let shared_id = adopter.block_table()[0];
        assert_eq!(adopter.block_refcount(0), 3, "donor + adopter + index");

        // Overwrite position 1 through the adopter: must fork, not mutate.
        let before = donor.k_row(0, 1).to_vec();
        adopter.write_rows(0, 1, &[9.0; 4], &[9.0; 4]);
        assert_ne!(adopter.block_table()[0], shared_id, "fresh physical block");
        assert_eq!(adopter.block_refcount(0), 1);
        assert_eq!(donor.k_row(0, 1), &before[..], "donor rows untouched");
        assert_eq!(adopter.k_row(0, 1), &[9.0; 4]);
        // Untouched layer rows were carried over by the fork.
        assert_eq!(adopter.k_row(1, 0), donor.k_row(1, 0));
        assert_eq!(p.blocks_in_use(), 3, "fork added one physical block");
    }

    #[test]
    fn cap_pressure_evicts_lru_index_only_blocks() {
        let p = pool(2, 3);
        p.set_prefix_cache(true);
        let prompt: Vec<usize> = vec![1, 2, 3, 4, 5];
        let mut donor = KvCache::new(Arc::clone(&p));
        assert!(donor.try_reserve(5));
        fill(&mut donor, 0, 5, 0.0);
        p.prefix_insert(&prompt, &mut donor);
        drop(donor);
        // The pool is fully occupied by index-held blocks now.
        assert_eq!(p.blocks_in_use(), 2);
        assert_eq!(p.prefix_cached_blocks(), 2);
        // A 3-block reservation must evict both cached blocks (leaf first).
        let mut c = KvCache::new(Arc::clone(&p));
        assert!(c.try_reserve(6), "eviction makes room");
        assert_eq!(p.prefix_cached_blocks(), 0);
        assert_eq!(p.blocks_in_use(), 3);
        drop(c);
        assert_eq!(p.blocks_in_use(), 0);
    }

    #[test]
    fn eviction_spares_blocks_mapped_by_live_tables() {
        let p = pool(2, 2);
        p.set_prefix_cache(true);
        let prompt: Vec<usize> = vec![1, 2, 3];
        let mut donor = KvCache::new(Arc::clone(&p));
        assert!(donor.try_reserve(3));
        fill(&mut donor, 0, 3, 0.0);
        p.prefix_insert(&prompt, &mut donor);
        // Donor still maps the shared block: it must not be evicted.
        let mut c = KvCache::new(Arc::clone(&p));
        assert!(!c.try_reserve(4), "no evictable blocks, cap holds");
        assert_eq!(p.prefix_cached_blocks(), 1);
    }

    #[test]
    fn disabled_prefix_cache_is_inert() {
        let p = pool(2, 0);
        let prompt: Vec<usize> = vec![1, 2, 3, 4, 5];
        let mut donor = KvCache::new(Arc::clone(&p));
        assert!(donor.try_reserve(5));
        fill(&mut donor, 0, 5, 0.0);
        p.prefix_insert(&prompt, &mut donor);
        assert_eq!(p.prefix_cached_blocks(), 0);
        let mut adopter = KvCache::new(Arc::clone(&p));
        assert_eq!(p.prefix_lookup(&prompt, &mut adopter), 0);
    }

    /// FNV-1a fingerprint of a whole token-id sequence (the terminal value
    /// of a [`PrefixHasher`] fed the same tokens).
    fn token_fingerprint(tokens: &[usize]) -> u64 {
        let mut h = PrefixHasher::new();
        for &t in tokens {
            h.push(t);
        }
        h.state
    }

    #[test]
    fn prefix_hasher_matches_whole_sequence_fingerprint() {
        let tokens = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let mut h = PrefixHasher::new();
        let mut last = 0;
        for &t in &tokens {
            last = h.push(t);
        }
        assert_eq!(last, token_fingerprint(&tokens));
        assert_eq!(h.state, token_fingerprint(&tokens));
        // Prefix fingerprints only depend on the prefix.
        assert_eq!(
            token_fingerprint(&tokens[..3]),
            token_fingerprint(&[3, 1, 4])
        );
        assert_ne!(token_fingerprint(&tokens), token_fingerprint(&tokens[..7]));
    }

    #[test]
    fn prefix_fingerprints_mark_chunk_boundaries_and_the_whole_prompt() {
        let prompt = [10usize, 11, 12, 13, 14, 15, 16];
        let fps = prefix_fingerprints(&prompt, 3);
        assert_eq!(
            fps.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![3, 6, 7]
        );
        for &(n, fp) in &fps {
            assert_eq!(fp, token_fingerprint(&prompt[..n]));
        }
        // A chunk-aligned prompt is not double-counted at its end.
        let aligned = prefix_fingerprints(&prompt[..6], 3);
        assert_eq!(
            aligned.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![3, 6]
        );
        // A follow-up turn extending the prompt rediscovers every
        // checkpoint via the streaming hasher — the affinity-lookup path.
        let mut extended: Vec<usize> = prompt.to_vec();
        extended.extend_from_slice(&[17, 18]);
        let mut h = PrefixHasher::new();
        let streamed: Vec<(usize, u64)> = extended
            .iter()
            .enumerate()
            .map(|(i, &t)| (i + 1, h.push(t)))
            .collect();
        for &(n, fp) in &fps {
            assert!(streamed.contains(&(n, fp)));
        }
    }

    #[test]
    fn prefix_fingerprints_of_empty_prompt_are_empty() {
        assert!(prefix_fingerprints(&[], 4).is_empty());
    }
}
