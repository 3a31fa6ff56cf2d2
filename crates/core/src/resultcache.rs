//! Byte-bounded cache of **per-shard query results** with shard-epoch
//! invalidation — the ROADMAP's `(canonical query, match set)` cache.
//!
//! An identical repeat query used to re-run its whole join pipeline;
//! real traffic is Zipfian, so hot queries dominate. This cache stores
//! the *final* answer of one query against one shard state, keyed by
//!
//! ```text
//! (canonical query bytes, coding, shard id, shard generation)
//! ```
//!
//! The generation comes from `MANIFEST.si` (version 2): `si ingest`
//! writes its new shard at a fresh generation and never touches
//! existing shards, while a rebuild stamps every shard above the old
//! maximum. A key therefore names **one immutable shard state** — no
//! explicit invalidation pass exists or is needed; entries for retired
//! `(id, generation)` pairs simply stop being probed and age out of
//! the LRU. A bare directory has no manifest and opens as the implicit
//! shard `(0, 0)` (see `crate::sharded`), which a rebuild in place
//! cannot bump — carry one cache across rebuilds only over manifest
//! directories.
//!
//! **Partial-reuse soundness.** Shards partition the corpus by
//! contiguous tid range, so per-shard match sets are disjoint and the
//! global answer is their in-order concatenation (see
//! `si_storage::shard`). Caching per shard — not per whole query —
//! means an ingest invalidates exactly the shards it touched: a repeat
//! query reuses every untouched shard's cached partial and evaluates
//! only the new shards before the same ordered concat. The concat of
//! per-shard answers is oblivious to *where* each partial came from,
//! which is the entire soundness argument.
//!
//! **Negative entries.** Zero-match partials are stored explicitly
//! (an empty match vector still occupies key + bookkeeping bytes), so
//! the many zero-answer queries of a skewed workload — including
//! shards the planner proved empty without opening a posting list —
//! answer from the cache too. A negative entry is invalidated the
//! same way everything is: the shard that could make the query
//! non-empty is a *new* `(id, generation)`, which the probe misses.
//!
//! Match sets are stored as `Arc<Vec<u64>>` of [`pack_match`]-packed
//! `(shard-local tid, pre)` pairs: one allocation per entry, shared
//! with every reader, offset to global tids only at assembly time.
//!
//! The mechanics mirror [`crate::blockcache`]: hash-sharded
//! independently locked LRU shards, each an intrusive list over
//! variable-size entries with a byte budget of `budget / shards`, and
//! relaxed global counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use si_parsetree::{varint, TreeId};
use si_query::{Axis, QNodeId, Query};

/// Packs one shard-local match `(tid, pre)` into the cached `u64`.
#[inline]
pub fn pack_match(tid: TreeId, pre: u32) -> u64 {
    (u64::from(tid) << 32) | u64::from(pre)
}

/// Inverse of [`pack_match`].
#[inline]
pub fn unpack_match(packed: u64) -> (TreeId, u32) {
    ((packed >> 32) as TreeId, packed as u32)
}

/// Canonical cache key of a query: semantically equal queries (same
/// unordered shape, labels and axes) encode to the same bytes.
///
/// The encoding is a length-prefixed pre-order flattening with each
/// node's children sorted by their own encodings — the same
/// canonicalization idea as `canonical::canon_encode`, extended with
/// the edge axis (child vs descendant), which index keys do not carry
/// but which changes a query's answer. Length prefixes make the
/// serialization injective, so distinct queries can never collide.
pub fn canonical_query_key(query: &Query) -> Arc<[u8]> {
    fn encode(query: &Query, n: QNodeId, out: &mut Vec<u8>) {
        out.push(match query.axis(n) {
            Axis::Child => 0,
            Axis::Descendant => 1,
        });
        varint::write_u32(out, query.label(n).0);
        let mut blocks: Vec<Vec<u8>> = query
            .children(n)
            .map(|c| {
                let mut b = Vec::new();
                encode(query, c, &mut b);
                b
            })
            .collect();
        blocks.sort_unstable();
        varint::write_u64(out, blocks.len() as u64);
        for b in blocks {
            varint::write_u64(out, b.len() as u64);
            out.extend_from_slice(&b);
        }
    }
    let mut out = Vec::with_capacity(query.len() * 4);
    encode(query, query.root(), &mut out);
    Arc::from(out)
}

/// Cache identity of one per-shard partial result: canonical query
/// bytes (shared across the query's entries via `Arc`), posting coding
/// id, shard id, shard generation.
type ResultKey = (Arc<[u8]>, u8, u64, u64);

/// Tuning knobs of a [`ResultCache`].
#[derive(Debug, Clone, Copy)]
pub struct ResultCacheConfig {
    /// Total byte budget across all lock shards.
    pub budget_bytes: usize,
    /// Number of independently locked lock shards (unrelated to index
    /// shards; purely a contention knob).
    pub shards: usize,
}

impl Default for ResultCacheConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 32 << 20,
            shards: 8,
        }
    }
}

impl ResultCacheConfig {
    /// A config with the given total byte budget (other knobs default).
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            ..Self::default()
        }
    }
}

/// Counter snapshot of a [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Probes served from the cache (negative entries included).
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Hits whose entry was an explicit empty match set.
    pub negative_hits: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
    /// Bytes currently resident (match sets + key + bookkeeping).
    pub current_bytes: u64,
    /// High-water mark of resident bytes (must stay ≤ the budget).
    pub peak_bytes: u64,
}

impl ResultCacheStats {
    /// Probe hit fraction in `[0, 1]`; zero when nothing was probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Mirrors this snapshot into `registry` under the stable
    /// `resultcache.*` dotted names (monotone counters via
    /// `Counter::set`, resident bytes as a gauge). Call at snapshot
    /// time; the cache itself stays registry-free on its hot path.
    pub fn register_into(&self, registry: &si_obs::Registry) {
        registry.counter("resultcache.hits").set(self.hits);
        registry.counter("resultcache.misses").set(self.misses);
        registry
            .counter("resultcache.negative_hits")
            .set(self.negative_hits);
        registry
            .counter("resultcache.insertions")
            .set(self.insertions);
        registry
            .counter("resultcache.evictions")
            .set(self.evictions);
        registry
            .gauge("resultcache.bytes")
            .set(i64::try_from(self.current_bytes).unwrap_or(i64::MAX));
        registry
            .gauge("resultcache.peak_bytes")
            .set(i64::try_from(self.peak_bytes).unwrap_or(i64::MAX));
    }
}

const NIL: usize = usize::MAX;

struct Entry {
    key: ResultKey,
    matches: Arc<Vec<u64>>,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// One lock shard: an intrusive-list LRU over variable-size entries
/// with a byte budget. Head = most recently used.
struct Shard {
    map: HashMap<ResultKey, usize>,
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
        self.slots[i].matches = Arc::new(Vec::new());
        self.free.push(i);
        self.bytes -= bytes;
        bytes
    }
}

/// The sharded result cache. Cheap to share behind an `Arc`; one
/// instance serves every worker of a query service — and survives the
/// service itself across an ingest, because `(id, generation)` keys
/// keep old entries from ever answering for new shard states.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    negative_hits: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    current_bytes: AtomicU64,
    peak_bytes: AtomicU64,
}

impl ResultCache {
    /// Creates a cache per `config`.
    pub fn new(config: ResultCacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard = (config.budget_bytes / shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            negative_hits: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            current_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &ResultKey) -> MutexGuard<'_, Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let i = h.finish() as usize % self.shards.len();
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up the partial result of `query_key` against shard
    /// `(shard, generation)` under `coding`, bumping the entry to MRU
    /// on a hit. An empty returned vector is an explicit negative
    /// entry: the shard is *known* to hold no match.
    pub fn get(
        &self,
        query_key: &Arc<[u8]>,
        coding: u8,
        shard: u64,
        generation: u64,
    ) -> Option<Arc<Vec<u64>>> {
        let rk = (query_key.clone(), coding, shard, generation);
        let mut lock = self.shard_for(&rk);
        match lock.map.get(&rk).copied() {
            Some(i) => {
                lock.touch(i);
                let matches = lock.slots[i].matches.clone();
                drop(lock);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if matches.is_empty() {
                    self.negative_hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(matches)
            }
            None => {
                drop(lock);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts the partial result of `query_key` against shard
    /// `(shard, generation)`, evicting LRU entries of its lock shard
    /// until it fits. An entry larger than the whole per-lock-shard
    /// budget is not cached at all. Re-inserting refreshes the LRU
    /// position without double counting.
    pub fn insert(
        &self,
        query_key: &Arc<[u8]>,
        coding: u8,
        shard: u64,
        generation: u64,
        matches: Arc<Vec<u64>>,
    ) {
        let rk = (query_key.clone(), coding, shard, generation);
        // What an entry actually keeps resident: the match-set bytes,
        // the key bytes (negative entries pay these too) and the
        // bookkeeping slot.
        let entry_bytes = matches.len() * std::mem::size_of::<u64>()
            + query_key.len()
            + std::mem::size_of::<Entry>();
        let mut lock = self.shard_for(&rk);
        if let Some(&i) = lock.map.get(&rk) {
            lock.touch(i);
            return;
        }
        if entry_bytes > lock.budget {
            return;
        }
        // Same peak discipline as the block cache: decrement the global
        // byte counter before bytes leave a shard and increment after
        // they land, so the recorded peak never exceeds the true total
        // — which the per-shard loops keep ≤ budget.
        let mut evicted = 0u64;
        while lock.bytes + entry_bytes > lock.budget && lock.tail != NIL {
            let tail_bytes = lock.slots[lock.tail].bytes as u64;
            self.current_bytes.fetch_sub(tail_bytes, Ordering::Relaxed);
            let freed = lock.evict_tail() as u64;
            debug_assert_eq!(freed, tail_bytes);
            evicted += 1;
        }
        let entry = Entry {
            key: rk.clone(),
            matches,
            bytes: entry_bytes,
            prev: NIL,
            next: NIL,
        };
        let i = match lock.free.pop() {
            Some(i) => {
                lock.slots[i] = entry;
                i
            }
            None => {
                lock.slots.push(entry);
                lock.slots.len() - 1
            }
        };
        lock.push_front(i);
        lock.map.insert(rk, i);
        lock.bytes += entry_bytes;
        let now = self
            .current_bytes
            .fetch_add(entry_bytes as u64, Ordering::Relaxed)
            + entry_bytes as u64;
        self.peak_bytes.fetch_max(now, Ordering::Relaxed);
        drop(lock);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            current_bytes: self.current_bytes.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_parsetree::LabelInterner;
    use si_query::parse_query;

    fn qkey(text: &str) -> Arc<[u8]> {
        let mut interner = LabelInterner::default();
        canonical_query_key(&parse_query(text, &mut interner).unwrap())
    }

    fn matches(n: u64) -> Arc<Vec<u64>> {
        Arc::new((0..n).map(|i| pack_match(i as TreeId, 7)).collect())
    }

    #[test]
    fn pack_round_trips() {
        for &(tid, pre) in &[(0, 0), (1, 2), (u32::MAX, u32::MAX), (12345, 678)] {
            assert_eq!(unpack_match(pack_match(tid, pre)), (tid, pre));
        }
    }

    /// Semantically equal queries share a key; different axes, labels
    /// or shapes do not.
    #[test]
    fn canonical_key_identifies_equal_queries() {
        let mut interner = LabelInterner::default();
        let mut key =
            |text: &str| canonical_query_key(&parse_query(text, &mut interner).unwrap()).to_vec();
        assert_eq!(key("S(NP)(VP)"), key("S(VP)(NP)"));
        assert_eq!(key("S(NP(DT)(NN))(VP)"), key("S(VP)(NP(NN)(DT))"));
        assert_ne!(key("S(NP)(VP)"), key("S(NP)"));
        assert_ne!(key("VP(NN)"), key("VP(//NN)"));
        assert_ne!(key("S(NP)(VP)"), key("S(NP(VP))"));
        // Same multiset of labels, different structure.
        assert_ne!(key("A(B(C))"), key("A(B)(C)"));
    }

    #[test]
    fn hit_miss_negative_and_generation_isolation() {
        let cache = ResultCache::new(ResultCacheConfig::default());
        let k = qkey("NP(DT)(NN)");
        assert!(cache.get(&k, 0, 0, 0).is_none());
        cache.insert(&k, 0, 0, 0, matches(3));
        cache.insert(&k, 0, 1, 0, Arc::new(Vec::new())); // negative
        assert_eq!(cache.get(&k, 0, 0, 0).unwrap().len(), 3);
        assert!(cache.get(&k, 0, 1, 0).unwrap().is_empty());
        // A bumped generation is a different shard state: miss.
        assert!(cache.get(&k, 0, 0, 1).is_none());
        // A different coding is a different answer encoding path: miss.
        assert!(cache.get(&k, 2, 0, 0).is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.negative_hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.insertions, 2);
    }

    /// Satellite: inserted bytes — match sets plus negative entries
    /// plus key/bookkeeping overhead — never exceed the configured
    /// budget, at any instant.
    #[test]
    fn byte_budget_is_never_exceeded() {
        let budget = 4 << 10;
        let cache = ResultCache::new(ResultCacheConfig {
            budget_bytes: budget,
            shards: 1,
        });
        let k = qkey("S(NP)(VP)");
        for shard in 0..256u64 {
            // Mix real and negative entries; both carry overhead.
            let m = if shard % 3 == 0 {
                Arc::new(Vec::new())
            } else {
                matches(16)
            };
            cache.insert(&k, 0, shard, 1, m);
            let s = cache.stats();
            assert!(
                s.current_bytes as usize <= budget,
                "shard {shard}: {} > {budget}",
                s.current_bytes
            );
        }
        let s = cache.stats();
        assert!(s.peak_bytes as usize <= budget, "peak {}", s.peak_bytes);
        assert!(s.evictions > 0, "tiny budget must evict");
    }

    /// Satellite: eviction is LRU-ordered — touching an old entry
    /// saves it; the untouched one goes first.
    #[test]
    fn eviction_is_lru_ordered() {
        let k = qkey("NP(NN)");
        let probe = ResultCache::new(ResultCacheConfig {
            budget_bytes: 1 << 20,
            shards: 1,
        });
        probe.insert(&k, 0, 0, 0, matches(8));
        let per_entry = probe.stats().current_bytes as usize;
        // Room for exactly two entries.
        let cache = ResultCache::new(ResultCacheConfig {
            budget_bytes: per_entry * 2,
            shards: 1,
        });
        cache.insert(&k, 0, 0, 0, matches(8));
        cache.insert(&k, 0, 1, 0, matches(8));
        // Touch shard 0 so shard 1 is LRU, then overflow.
        assert!(cache.get(&k, 0, 0, 0).is_some());
        cache.insert(&k, 0, 2, 0, matches(8));
        assert!(cache.get(&k, 0, 0, 0).is_some(), "MRU entry evicted");
        assert!(cache.get(&k, 0, 1, 0).is_none(), "LRU entry survived");
        assert!(cache.get(&k, 0, 2, 0).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let cache = ResultCache::new(ResultCacheConfig {
            budget_bytes: 64,
            shards: 1,
        });
        let k = qkey("NP(NN)");
        cache.insert(&k, 0, 0, 0, matches(1024));
        assert!(cache.get(&k, 0, 0, 0).is_none());
        assert_eq!(cache.stats().current_bytes, 0);
    }

    #[test]
    fn reinsert_refreshes_without_double_counting() {
        let cache = ResultCache::new(ResultCacheConfig::default());
        let k = qkey("NP(NN)");
        cache.insert(&k, 0, 0, 0, matches(4));
        let once = cache.stats().current_bytes;
        cache.insert(&k, 0, 0, 0, matches(4));
        assert_eq!(cache.stats().current_bytes, once);
        assert_eq!(cache.stats().insertions, 1);
    }
}
