//! Sharded, byte-bounded cache of **decoded** posting-list blocks.
//!
//! The pager LRU (`si_storage::Pager`) caches raw 4 KiB pages; hot
//! posting lists still pay varint + delta decode on every query. This
//! cache sits one level up: it stores runs of already-decoded
//! [`Posting`]s, keyed by `(canonical key, block index)`, so a repeat
//! scan of a hot list skips the pager *and* the decoder entirely — the
//! ROADMAP's "posting-list block cache" item, and the memory story is
//! still bounded per block rather than per list.
//!
//! Design:
//!
//! * fixed posting count per block ([`BlockCacheConfig::block_postings`]),
//!   so block `i` always holds postings `i*B .. (i+1)*B` of the list and
//!   a partially evicted list stays addressable;
//! * sharded by key+index hash, each shard behind its own mutex with an
//!   intrusive-list LRU and a byte budget of `budget / shards` — worker
//!   threads of the query service hit disjoint shards in parallel;
//! * postings store **absolute** tids (delta decoding already resolved),
//!   so any block can be served without the blocks before it;
//! * global hit/miss/insert/evict counters plus a peak-bytes high-water
//!   mark back the cache-eviction bound test and `EvalStats`.
//!
//! [`CachedListReader`] adapts the cache to the executor's
//! [`PostingFeed`] seam: it walks a list block by block, serving hits
//! **as zero-copy borrows out of the pinned block** (the reader's
//! `Arc` keeps the block alive while the scan consumes it, even across
//! a concurrent eviction) and filling misses from a lazily opened
//! [`PostingCursor`] over the B+Tree value (inserting every block it
//! decodes on the way, so one cold scan warms the whole list). A warm
//! interval-coded scan therefore allocates nothing per posting — the
//! `nodes` vectors live in the cached block and every consumer reads
//! the same memory.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::build::SubtreeIndex;
use crate::coding::{NodeVal, Posting, PostingCursor, PostingFeed};
use si_parsetree::TreeId;
use si_storage::{Result, ValueReader};

/// Approximate resident size of one decoded posting.
pub fn posting_bytes(p: &Posting) -> usize {
    std::mem::size_of::<Posting>()
        + match p {
            Posting::Occurrence { nodes, .. } => {
                nodes.capacity() * std::mem::size_of::<(NodeVal, u8)>()
            }
            Posting::Tid(_) | Posting::Root { .. } => 0,
        }
}

/// One cached run of decoded postings.
#[derive(Debug)]
pub struct DecodedBlock {
    /// The postings of this block, absolute tids.
    pub postings: Vec<Posting>,
    /// Approximate resident bytes ([`posting_bytes`] summed).
    pub bytes: usize,
    /// Whether this is the final block of its list.
    pub last: bool,
}

/// Cache identity of a block: the canonical key (shared across the
/// list's blocks via `Arc`) plus the block index.
type BlockKey = (Arc<[u8]>, u32);

/// Tuning knobs of a [`BlockCache`].
#[derive(Debug, Clone, Copy)]
pub struct BlockCacheConfig {
    /// Total byte budget across all shards.
    pub budget_bytes: usize,
    /// Number of independently locked shards.
    pub shards: usize,
    /// Postings per block (block `i` = postings `i*B..(i+1)*B`).
    pub block_postings: usize,
}

impl Default for BlockCacheConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 64 << 20,
            shards: 8,
            block_postings: 1024,
        }
    }
}

impl BlockCacheConfig {
    /// A config with the given total byte budget (other knobs default).
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            ..Self::default()
        }
    }
}

/// Counter snapshot of a [`BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Block lookups served from the cache.
    pub hits: u64,
    /// Block lookups that missed.
    pub misses: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Blocks evicted to stay within budget.
    pub evictions: u64,
    /// Bytes currently resident.
    pub current_bytes: u64,
    /// High-water mark of resident bytes (must stay ≤ the budget).
    pub peak_bytes: u64,
}

impl BlockCacheStats {
    /// Hit fraction in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Mirrors this snapshot into `registry` under the stable
    /// `blockcache.*` dotted names (monotone counters via
    /// `Counter::set`, resident bytes as a gauge). Call at snapshot
    /// time; the cache itself stays registry-free on its hot path.
    pub fn register_into(&self, registry: &si_obs::Registry) {
        registry.counter("blockcache.hits").set(self.hits);
        registry.counter("blockcache.misses").set(self.misses);
        registry
            .counter("blockcache.insertions")
            .set(self.insertions);
        registry.counter("blockcache.evictions").set(self.evictions);
        registry
            .gauge("blockcache.bytes")
            .set(i64::try_from(self.current_bytes).unwrap_or(i64::MAX));
        registry
            .gauge("blockcache.peak_bytes")
            .set(i64::try_from(self.peak_bytes).unwrap_or(i64::MAX));
    }
}

const NIL: usize = usize::MAX;

struct Entry {
    key: BlockKey,
    block: Arc<DecodedBlock>,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// One shard: an intrusive-list LRU over variable-size entries with a
/// byte budget. Head = most recently used.
struct Shard {
    map: HashMap<BlockKey, usize>,
    slots: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    budget: usize,
}

impl Shard {
    fn new(budget: usize) -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            budget,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[i].prev = NIL;
        self.slots[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Removes the LRU entry, returning its byte size.
    fn evict_tail(&mut self) -> usize {
        let i = self.tail;
        debug_assert_ne!(i, NIL);
        self.unlink(i);
        let bytes = self.slots[i].bytes;
        let key = self.slots[i].key.clone();
        self.map.remove(&key);
        self.slots[i].block = Arc::new(DecodedBlock {
            postings: Vec::new(),
            bytes: 0,
            last: false,
        });
        self.free.push(i);
        self.bytes -= bytes;
        bytes
    }
}

/// The sharded decoded-block cache. Cheap to clone behind an `Arc`;
/// shared by every worker of a query service.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    block_postings: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    current_bytes: AtomicU64,
    peak_bytes: AtomicU64,
}

impl BlockCache {
    /// Creates a cache per `config`.
    pub fn new(config: BlockCacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard = (config.budget_bytes / shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            block_postings: config.block_postings.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            current_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        }
    }

    /// Postings per block.
    pub fn block_postings(&self) -> usize {
        self.block_postings
    }

    fn shard_for(&self, key: &BlockKey) -> MutexGuard<'_, Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let i = h.finish() as usize % self.shards.len();
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up block `idx` of `key`, bumping it to MRU on a hit.
    pub fn get(&self, key: &Arc<[u8]>, idx: u32) -> Option<Arc<DecodedBlock>> {
        let bk = (key.clone(), idx);
        let mut shard = self.shard_for(&bk);
        match shard.map.get(&bk).copied() {
            Some(i) => {
                shard.touch(i);
                let block = shard.slots[i].block.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(block)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether block `idx` of `key` is resident — without bumping LRU
    /// order or the hit/miss counters. The prefetch path's peek: the
    /// executor checks here before hinting a cover list so a warm list
    /// costs nothing, and the probe itself must not perturb eviction
    /// order or the hit-rate statistics.
    pub fn contains(&self, key: &[u8], idx: u32) -> bool {
        self.peek(key, idx).is_some()
    }

    /// Block `idx` of `key` if resident, leaving LRU order and the
    /// counters alone as [`BlockCache::contains`] does.
    fn peek(&self, key: &[u8], idx: u32) -> Option<Arc<DecodedBlock>> {
        let bk = (Arc::<[u8]>::from(key), idx);
        let shard = self.shard_for(&bk);
        let i = *shard.map.get(&bk)?;
        Some(shard.slots[i].block.clone())
    }

    /// Inserts block `idx` of `key`, evicting LRU entries of its shard
    /// until the block fits. A block larger than the whole shard budget
    /// is not cached at all (memory stays bounded). Re-inserting an
    /// existing block just refreshes its LRU position.
    pub fn insert(&self, key: &Arc<[u8]>, idx: u32, block: Arc<DecodedBlock>) {
        let bk = (key.clone(), idx);
        // Entry overhead: the key bytes plus bookkeeping.
        let entry_bytes = block.bytes + key.len() + std::mem::size_of::<Entry>();
        let mut shard = self.shard_for(&bk);
        if let Some(&i) = shard.map.get(&bk) {
            shard.touch(i);
            return;
        }
        if entry_bytes > shard.budget {
            return;
        }
        // Keep the global counter an *underestimate* of the true total
        // at every instant (decrement before bytes leave the shard,
        // increment after they are added), so a concurrent insert in
        // another shard can never read — and record as peak — a total
        // above the true one. True totals are ≤ budget by the per-shard
        // loops, hence peak_bytes ≤ budget, which the eviction-bound
        // tests assert.
        let mut evicted = 0u64;
        while shard.bytes + entry_bytes > shard.budget && shard.tail != NIL {
            let tail_bytes = shard.slots[shard.tail].bytes as u64;
            self.current_bytes.fetch_sub(tail_bytes, Ordering::Relaxed);
            let freed = shard.evict_tail() as u64;
            debug_assert_eq!(freed, tail_bytes);
            evicted += 1;
        }
        let entry = Entry {
            key: bk.clone(),
            block,
            bytes: entry_bytes,
            prev: NIL,
            next: NIL,
        };
        let i = match shard.free.pop() {
            Some(i) => {
                shard.slots[i] = entry;
                i
            }
            None => {
                shard.slots.push(entry);
                shard.slots.len() - 1
            }
        };
        shard.push_front(i);
        shard.map.insert(bk, i);
        shard.bytes += entry_bytes;
        let now = self
            .current_bytes
            .fetch_add(entry_bytes as u64, Ordering::Relaxed)
            + entry_bytes as u64;
        self.peak_bytes.fetch_max(now, Ordering::Relaxed);
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BlockCacheStats {
        BlockCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            current_bytes: self.current_bytes.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Per-query hit/miss tally a [`CachedListReader`] reports into (the
/// executor owns one per evaluation and folds it into `EvalStats`).
#[derive(Debug, Default)]
pub struct CacheTally {
    /// Block hits.
    pub hits: std::cell::Cell<u64>,
    /// Block misses.
    pub misses: std::cell::Cell<u64>,
    /// Postings served as zero-copy borrows out of a cache-hit block
    /// (no decode, no clone — the refactor's observable win).
    pub borrowed: std::cell::Cell<u64>,
}

/// A [`PostingFeed`] over one key's posting list that serves decoded
/// blocks from a [`BlockCache`], falling back to a B+Tree cursor on
/// misses (and inserting what it decodes). See the module docs.
///
/// # Pinning contract
///
/// The reader holds its current block as an `Arc<DecodedBlock>`: a
/// cache hit is **pinned** for exactly as long as the scan consumes it,
/// so the borrows lent through [`PostingFeed::next_posting`] stay valid
/// even if the cache evicts the block concurrently. Pinned hit blocks
/// are charged to the cache's byte budget while resident, not to the
/// scan — only blocks the reader itself decodes on a miss (plus the
/// cursor's page window) count toward
/// [`PostingFeed::peak_buffer_bytes`], which is what makes a warm
/// interval-coded scan as cheap, memory-wise, as a root-split one.
/// One deliberate gap: a hit block evicted *while* pinned leaves the
/// cache ledger immediately but lives on until its reader moves past
/// it, so for that window its bytes appear in neither meter. The
/// excess is bounded by one block per open scan (a reader pins at
/// most its current block) and ends at the next block boundary.
pub struct CachedListReader<'a> {
    index: &'a SubtreeIndex,
    cache: Arc<BlockCache>,
    key: Arc<[u8]>,
    tally: std::rc::Rc<CacheTally>,
    /// Next block the reader will serve.
    block_idx: u32,
    /// Position within `current`.
    in_block: usize,
    current: Option<Arc<DecodedBlock>>,
    /// Whether `current` came from a cache hit (borrows served out of
    /// it are zero-copy and its bytes are the cache's, not the scan's).
    current_is_hit: bool,
    /// Lazily opened decode cursor and the index of the next block it
    /// would produce.
    cursor: Option<PostingCursor<ValueReader<'a>>>,
    cursor_block: u32,
    done: bool,
    peak_miss_block_bytes: usize,
}

impl<'a> CachedListReader<'a> {
    /// Creates a reader over `key`'s list. The underlying cursor opens
    /// only if a block misses the cache.
    pub fn new(
        index: &'a SubtreeIndex,
        cache: Arc<BlockCache>,
        key: &[u8],
        tally: std::rc::Rc<CacheTally>,
    ) -> Self {
        Self {
            index,
            cache,
            key: Arc::from(key),
            tally,
            block_idx: 0,
            in_block: 0,
            current: None,
            current_is_hit: false,
            cursor: None,
            cursor_block: 0,
            done: false,
            peak_miss_block_bytes: 0,
        }
    }

    /// Decodes blocks from the cursor up to and including `target`,
    /// inserting each into the cache; returns the target block (or
    /// `None` if the list ends before it — only possible when a stale
    /// cached block claimed more data follows, which is corruption).
    fn fill_through(&mut self, target: u32) -> Result<Option<Arc<DecodedBlock>>> {
        // The reader's block_idx only grows and every fill ends with
        // cursor_block == produced + 1 <= target + 1, so the cursor can
        // never be ahead of a missed block.
        debug_assert!(self.cursor.is_none() || self.cursor_block <= target);
        if self.cursor.is_none() {
            self.cursor = match self.index.posting_cursor(&self.key)? {
                Some(c) => Some(c),
                // Key absent: an empty list.
                None => return Ok(None),
            };
            self.cursor_block = 0;
        }
        let bp = self.cache.block_postings();
        let cursor = self.cursor.as_mut().expect("cursor open");
        loop {
            let mut postings = Vec::with_capacity(bp);
            let mut bytes = 0usize;
            let mut last = false;
            while postings.len() < bp {
                match cursor.next_posting()? {
                    // The one copy of the miss path: the cursor lends a
                    // borrow of its decode slot, and the block takes an
                    // owned clone so the cache outlives the cursor.
                    Some(p) => {
                        bytes += posting_bytes(p);
                        postings.push(p.clone());
                    }
                    None => {
                        last = true;
                        break;
                    }
                }
            }
            let block = Arc::new(DecodedBlock {
                postings,
                bytes,
                last,
            });
            let produced = self.cursor_block;
            self.cursor_block += 1;
            self.cache.insert(&self.key, produced, block.clone());
            if produced == target {
                return Ok(Some(block));
            }
            if last {
                return Ok(None);
            }
        }
    }

    /// Per-reader block hit/miss counts.
    pub fn tally(&self) -> (u64, u64) {
        (self.tally.hits.get(), self.tally.misses.get())
    }

    /// Forward-only seek mapping the list's skip header onto the
    /// cache's block grid. Restart blocks align with cache blocks
    /// exactly when the header's restart interval equals
    /// [`BlockCache::block_postings`] (both default to 1024): restart
    /// point `p` then begins cache block `p`, so a seek just moves the
    /// reader's `block_idx` — skipped cached blocks are never fetched,
    /// skipped cold blocks are never decoded *or inserted* (the list is
    /// warmed from the seek target onward). Returns the number of
    /// postings jumped; `Ok(0)` on legacy lists, when already at or
    /// past the target restart, or when the grids are misaligned (a
    /// non-default cache config — seeking is then skipped rather than
    /// served wrong). A seek that a resident block shows cannot move
    /// opens no cursor, so a warm scan reads no page of its list.
    fn seek_forward(&mut self, t: TreeId) -> Result<u64> {
        if self.done {
            return Ok(0);
        }
        // A target at or before the last tid of the block the reader is
        // on cannot move it — the restart after that block follows that
        // tid — and a resident block says so without the list's header.
        let here = self.current.clone();
        let here = here.or_else(|| self.cache.peek(&self.key, self.block_idx));
        if here.is_some_and(|b| b.last || b.postings.last().is_some_and(|p| t <= p.tid())) {
            return Ok(0);
        }
        // The skip header lives at the head of the B+Tree value, so a
        // seek needs the cursor even if the target block is cached: one
        // key lookup, after which the cursor is parked right at the
        // restart point a future miss would decode from.
        if self.cursor.is_none() {
            self.cursor = match self.index.posting_cursor(&self.key)? {
                Some(c) => Some(c),
                None => return Ok(0),
            };
            self.cursor_block = 0;
        }
        let bp = self.cache.block_postings() as u64;
        let cursor = self.cursor.as_mut().expect("cursor open");
        let p = match cursor.skip_table()? {
            Some(table) if u64::from(table.interval()) == bp => table.restart_before(t),
            _ => return Ok(0),
        };
        let consumed = u64::from(self.block_idx) * bp + self.in_block as u64;
        let target = u64::from(p) * bp;
        if target <= consumed {
            return Ok(0);
        }
        cursor.seek_to_restart(p)?;
        self.cursor_block = self.cursor_block.max(p);
        self.block_idx = p;
        self.in_block = 0;
        self.current = None;
        self.current_is_hit = false;
        Ok(target - consumed)
    }
}

impl CachedListReader<'_> {
    /// Positions `self.current`/`self.in_block` on the next posting,
    /// fetching or decoding the next block as needed. Returns whether a
    /// posting is available at `current.postings[in_block - 1]`.
    fn position_next(&mut self) -> Result<bool> {
        loop {
            if self.done {
                return Ok(false);
            }
            if let Some(block) = &self.current {
                if self.in_block < block.postings.len() {
                    self.in_block += 1;
                    if self.current_is_hit {
                        self.tally.borrowed.set(self.tally.borrowed.get() + 1);
                    }
                    return Ok(true);
                }
                if block.last {
                    self.done = true;
                    return Ok(false);
                }
                self.block_idx += 1;
                self.in_block = 0;
                self.current = None;
            }
            let (block, hit) = match self.cache.get(&self.key, self.block_idx) {
                Some(b) => {
                    self.tally.hits.set(self.tally.hits.get() + 1);
                    (b, true)
                }
                None => {
                    self.tally.misses.set(self.tally.misses.get() + 1);
                    match self.fill_through(self.block_idx)? {
                        Some(b) => (b, false),
                        None => {
                            self.done = true;
                            return Ok(false);
                        }
                    }
                }
            };
            if !hit {
                // A block this reader decoded itself is its own resident
                // footprint; a hit block is pinned shared cache memory.
                self.peak_miss_block_bytes = self.peak_miss_block_bytes.max(block.bytes);
            }
            self.in_block = 0;
            self.current = Some(block);
            self.current_is_hit = hit;
        }
    }
}

impl PostingFeed for CachedListReader<'_> {
    fn seek_to_tid(&mut self, t: TreeId) -> Result<u64> {
        self.seek_forward(t)
    }

    fn next_posting(&mut self) -> Result<Option<&Posting>> {
        Ok(if self.position_next()? {
            let block = self.current.as_ref().expect("positioned on a block");
            Some(&block.postings[self.in_block - 1])
        } else {
            None
        })
    }

    fn peak_buffer_bytes(&self) -> usize {
        // Only self-decoded (miss) blocks plus the cursor's page window
        // count against the scan; cache-hit blocks are pinned via `Arc`
        // and charged to the cache budget (see the type docs).
        self.peak_miss_block_bytes
            + self
                .cursor
                .as_ref()
                .map(|c| c.peak_buffer_bytes())
                .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root_posting(tid: u32) -> Posting {
        Posting::Root {
            tid,
            root: NodeVal {
                pre: tid % 17,
                post: tid % 17 + 3,
                level: 1,
            },
        }
    }

    fn block_of(tids: std::ops::Range<u32>, last: bool) -> Arc<DecodedBlock> {
        let postings: Vec<Posting> = tids.map(root_posting).collect();
        let bytes = postings.iter().map(posting_bytes).sum();
        Arc::new(DecodedBlock {
            postings,
            bytes,
            last,
        })
    }

    fn key(name: &str) -> Arc<[u8]> {
        Arc::from(name.as_bytes())
    }

    #[test]
    fn hit_miss_and_lru_order() {
        let cache = BlockCache::new(BlockCacheConfig {
            budget_bytes: 1 << 20,
            shards: 1,
            block_postings: 4,
        });
        let k = key("NP(NN)");
        assert!(cache.get(&k, 0).is_none());
        cache.insert(&k, 0, block_of(0..4, false));
        cache.insert(&k, 1, block_of(4..8, true));
        assert_eq!(cache.get(&k, 0).unwrap().postings.len(), 4);
        assert!(cache.get(&k, 1).unwrap().last);
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 2);
    }

    #[test]
    fn byte_budget_is_never_exceeded() {
        let block = block_of(0..64, false);
        let entry_overhead = 8 + std::mem::size_of::<Entry>();
        // Budget fits ~3 blocks.
        let budget = 3 * (block.bytes + entry_overhead) + 16;
        let cache = BlockCache::new(BlockCacheConfig {
            budget_bytes: budget,
            shards: 1,
            block_postings: 64,
        });
        for i in 0..32u32 {
            cache.insert(&key("hot-list"), i, block_of(0..64, false));
            let s = cache.stats();
            assert!(
                s.current_bytes as usize <= budget,
                "iteration {i}: {} > {budget}",
                s.current_bytes
            );
        }
        let s = cache.stats();
        assert!(s.peak_bytes as usize <= budget, "peak {}", s.peak_bytes);
        assert!(s.evictions > 0, "tiny budget must evict");
    }

    #[test]
    fn oversized_block_is_not_cached() {
        let cache = BlockCache::new(BlockCacheConfig {
            budget_bytes: 64,
            shards: 1,
            block_postings: 1024,
        });
        let k = key("huge");
        cache.insert(&k, 0, block_of(0..1024, true));
        assert!(cache.get(&k, 0).is_none());
        assert_eq!(cache.stats().current_bytes, 0);
    }

    #[test]
    fn reinsert_refreshes_without_double_counting() {
        let cache = BlockCache::new(BlockCacheConfig {
            budget_bytes: 1 << 20,
            shards: 1,
            block_postings: 4,
        });
        let k = key("dup");
        cache.insert(&k, 0, block_of(0..4, true));
        let bytes_once = cache.stats().current_bytes;
        cache.insert(&k, 0, block_of(0..4, true));
        assert_eq!(cache.stats().current_bytes, bytes_once);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn sharded_inserts_stay_within_global_budget() {
        let cache = BlockCache::new(BlockCacheConfig {
            budget_bytes: 8 << 10,
            shards: 4,
            block_postings: 16,
        });
        for list in 0..8 {
            let k = key(&format!("list-{list}"));
            for i in 0..16u32 {
                cache.insert(&k, i, block_of(0..16, i == 15));
            }
        }
        let s = cache.stats();
        assert!(
            s.peak_bytes <= (8 << 10),
            "peak {} exceeds budget",
            s.peak_bytes
        );
    }
}
