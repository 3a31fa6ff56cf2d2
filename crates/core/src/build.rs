//! Subtree Index construction and the on-disk layout (§4.2, §6.1–6.2).
//!
//! An index directory holds
//!
//! ```text
//! <dir>/corpus/      the data file, offset index and labels (CorpusStore)
//! <dir>/index.bt     the B+Tree: canonical key -> posting list
//! <dir>/si.meta      mss, coding scheme, build statistics
//! ```
//!
//! Construction streams every tree through the subtree enumeration,
//! aggregates posting lists per canonical key in memory, then bulk-loads
//! the B+Tree in key order — the standard inverted-index build the
//! paper's Figure 10 times.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use si_parsetree::{varint, LabelInterner, ParseTree, TreeId};
use si_query::Query;
use si_storage::{BTree, CorpusStore, Result, StorageError};

use crate::canonical::key_size;
use crate::coding::{
    decode_postings, rebase_head, Coding, NodeVal, Posting, PostingBuilder, PostingCursor,
};
use crate::eval::EvalResult;
use crate::exec::ExecMode;
use crate::extract::for_each_subtree;
use crate::join::JoinAlgo;

/// Build-time parameters of a [`SubtreeIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexOptions {
    /// Maximum subtree size indexed (the paper's `mss`, 1–5 in the
    /// evaluation; `mss = 1` degenerates to the node approach / LPath).
    pub mss: usize,
    /// Posting-list coding scheme.
    pub coding: Coding,
}

impl IndexOptions {
    /// Creates options; `mss` must be in `1..=8`.
    ///
    /// # Panics
    /// Panics on `mss` outside `1..=8` (the paper caps at 5; Lemma 3's
    /// FFD optimality holds to 6, and 8 is a hard sanity bound).
    pub fn new(mss: usize, coding: Coding) -> Self {
        assert!((1..=8).contains(&mss), "mss must be in 1..=8, got {mss}");
        Self { mss, coding }
    }
}

/// Size and timing statistics of a built index (Figures 8–10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStats {
    /// Number of index keys (unique subtrees), Figure 2.
    pub keys: u64,
    /// Total postings stored (after coding-specific dedup), Figure 9.
    pub postings: u64,
    /// Total bytes of the B+Tree file, Figure 8.
    pub index_bytes: u64,
    /// Bytes of posting-list payload (excluding B+Tree structure).
    pub posting_bytes: u64,
    /// Size of the data file of flattened trees.
    pub data_bytes: u64,
    /// Wall-clock build time in seconds, Figure 10.
    pub build_seconds: f64,
}

/// A built Subtree Index over a corpus of parse trees.
pub struct SubtreeIndex {
    dir: PathBuf,
    options: IndexOptions,
    btree: BTree,
    store: CorpusStore,
    stats: IndexStats,
    join_algo: JoinAlgo,
    exec_mode: ExecMode,
}

/// Wraps one key's finished payload into the stored value (skip header
/// then the byte-identical payload) and folds the resulting
/// histogram/length into its stats entry — the shared tail of all
/// three build paths.
fn finalize_list(
    coding: Coding,
    key: &[u8],
    payload: &[u8],
    key_stats: &mut si_storage::KeyStats,
) -> Result<Vec<u8>> {
    let m = key_size(key).ok_or_else(|| StorageError::Corrupt("bad canonical key".into()))?;
    let (value, hist) = crate::coding::build_list_value(
        coding,
        m,
        payload,
        crate::coding::DEFAULT_RESTART_INTERVAL,
        key_stats.first_tid,
        key_stats.last_tid,
    )?;
    key_stats.tid_hist = hist;
    key_stats.bytes = value.len() as u64;
    Ok(value)
}

impl SubtreeIndex {
    /// Builds an index over `trees` at `dir` (created/overwritten).
    ///
    /// `interner` must be the interner the trees were built with; it is
    /// persisted alongside the corpus so queries can resolve labels.
    pub fn build(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
    ) -> Result<Self> {
        let started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let store = CorpusStore::build(&dir.join("corpus"), trees.iter(), interner)?;

        // Aggregate posting lists per canonical key. The occurrence and
        // rank buffers are reused across the (many) occurrences and the
        // key is only cloned when first seen — this loop dominates the
        // build, so it must stay allocation-free on the hot path.
        let mut lists: HashMap<Vec<u8>, PostingBuilder> = HashMap::new();
        let mut occurrence: Vec<(NodeVal, u8)> = Vec::new();
        let mut pres: Vec<u32> = Vec::new();
        for (tid, tree) in trees.iter().enumerate() {
            let tid = tid as TreeId;
            for_each_subtree(tree, options.mss, |sub| {
                occurrence.clear();
                occurrence.extend(sub.nodes.iter().map(|&n| {
                    (
                        NodeVal {
                            pre: tree.pre(n),
                            post: tree.post(n),
                            level: tree.level(n),
                        },
                        0u8,
                    )
                }));
                // `order`: the node's pre-order rank within the
                // occurrence (1-based), §4.4.2.
                pres.clear();
                pres.extend(occurrence.iter().map(|(v, _)| v.pre));
                pres.sort_unstable();
                for (v, order) in occurrence.iter_mut() {
                    *order = pres.binary_search(&v.pre).expect("own pre") as u8 + 1;
                }
                match lists.get_mut(sub.key.as_slice()) {
                    Some(builder) => builder.push(tid, &occurrence),
                    None => {
                        let mut builder = PostingBuilder::new(options.coding);
                        builder.push(tid, &occurrence);
                        lists.insert(sub.key.clone(), builder);
                    }
                }
            });
        }

        // Bulk-load the B+Tree in key order, then persist the per-key
        // statistics the builders tracked as the stats segment.
        let mut postings = 0u64;
        let mut posting_bytes = 0u64;
        let mut entries: Vec<(Vec<u8>, Vec<u8>, si_storage::KeyStats)> =
            Vec::with_capacity(lists.len());
        for (key, builder) in lists {
            postings += builder.count();
            posting_bytes += builder.byte_len() as u64;
            let mut key_stats = builder.key_stats();
            let payload = builder.finish();
            let value = finalize_list(options.coding, &key, &payload, &mut key_stats)?;
            entries.push((key, value, key_stats));
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let keys = entries.len() as u64;
        let stats_entries: Vec<(Vec<u8>, si_storage::KeyStats)> =
            entries.iter().map(|(k, _, s)| (k.clone(), *s)).collect();
        let mut btree = BTree::bulk_load(
            &dir.join("index.bt"),
            entries.into_iter().map(|(k, v, _)| (k, v)),
        )?;
        btree.write_stats_segment(stats_entries)?;
        btree.flush()?;

        let stats = IndexStats {
            keys,
            postings,
            index_bytes: btree.stats().file_bytes,
            posting_bytes,
            data_bytes: store.data_bytes(),
            build_seconds: started.elapsed().as_secs_f64(),
        };
        let index = Self {
            dir: dir.to_path_buf(),
            options,
            btree,
            store,
            stats,
            join_algo: JoinAlgo::Mpmgjn,
            exec_mode: ExecMode::Streaming,
        };
        index.write_meta()?;
        Ok(index)
    }

    /// Builds an index using `threads` worker threads for the subtree
    /// enumeration phase (the CPU-bound part of construction). Each
    /// worker aggregates a contiguous tid range; the per-key posting
    /// fragments are then stitched in tid order, so the result is
    /// byte-identical to the sequential [`SubtreeIndex::build`].
    pub fn build_parallel(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
        threads: usize,
    ) -> Result<Self> {
        let threads = threads.max(1).min(trees.len().max(1));
        let started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let store = CorpusStore::build(&dir.join("corpus"), trees.iter(), interner)?;

        // Partition trees into contiguous tid ranges, one per worker.
        let chunk = trees.len().div_ceil(threads);
        type Fragment = (TreeId, TreeId, PostingBuilder); // first, last, postings
        let mut partials: Vec<HashMap<Vec<u8>, Fragment>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, slice) in trees.chunks(chunk.max(1)).enumerate() {
                let base = (w * chunk.max(1)) as TreeId;
                handles.push(scope.spawn(move || {
                    let mut lists: HashMap<Vec<u8>, Fragment> = HashMap::new();
                    let mut occurrence: Vec<(NodeVal, u8)> = Vec::new();
                    let mut pres: Vec<u32> = Vec::new();
                    for (off, tree) in slice.iter().enumerate() {
                        let tid = base + off as TreeId;
                        for_each_subtree(tree, options.mss, |sub| {
                            occurrence.clear();
                            occurrence.extend(sub.nodes.iter().map(|&n| {
                                (
                                    NodeVal {
                                        pre: tree.pre(n),
                                        post: tree.post(n),
                                        level: tree.level(n),
                                    },
                                    0u8,
                                )
                            }));
                            pres.clear();
                            pres.extend(occurrence.iter().map(|(v, _)| v.pre));
                            pres.sort_unstable();
                            for (v, order) in occurrence.iter_mut() {
                                *order = pres.binary_search(&v.pre).expect("own pre") as u8 + 1;
                            }
                            match lists.get_mut(sub.key.as_slice()) {
                                Some(entry) => {
                                    entry.2.push(tid, &occurrence);
                                    entry.1 = tid;
                                }
                                None => {
                                    let mut builder = PostingBuilder::new(options.coding);
                                    builder.push(tid, &occurrence);
                                    lists.insert(sub.key.clone(), (tid, tid, builder));
                                }
                            }
                        });
                    }
                    lists
                }));
            }
            for h in handles {
                partials.push(h.join().expect("worker panicked"));
            }
        });

        // Stitch fragments per key in tid order (workers cover disjoint,
        // ascending tid ranges in `partials` order). Posting counts,
        // distinct-tid counts and tid ranges stitch the same way the
        // bytes do: disjoint ranges add, the merged range spans from the
        // first fragment's first tid to the last fragment's last tid.
        #[derive(Default)]
        struct MergedList {
            bytes: Vec<u8>,
            count: u64,
            distinct_tids: u64,
            first_tid: TreeId,
            last_tid: Option<TreeId>,
        }
        let mut merged: HashMap<Vec<u8>, MergedList> = HashMap::new();
        for partial in partials {
            for (key, (first_tid, last_tid, builder)) in partial {
                let count = builder.count();
                let distinct = builder.distinct_tids();
                let bytes = builder.finish();
                let entry = merged.entry(key).or_default();
                entry.count += count;
                entry.distinct_tids += distinct;
                match entry.last_tid {
                    None => {
                        entry.first_tid = first_tid;
                        entry.bytes.extend_from_slice(&bytes);
                    }
                    Some(prev_last) => {
                        rebase_head(options.coding, &mut entry.bytes, &bytes, prev_last)?;
                    }
                }
                entry.last_tid = Some(last_tid);
            }
        }

        let mut postings = 0u64;
        let mut posting_bytes = 0u64;
        let mut entries: Vec<(Vec<u8>, Vec<u8>, si_storage::KeyStats)> =
            Vec::with_capacity(merged.len());
        for (key, list) in merged {
            postings += list.count;
            posting_bytes += list.bytes.len() as u64;
            let mut key_stats = si_storage::KeyStats {
                postings: list.count,
                distinct_tids: list.distinct_tids,
                first_tid: list.first_tid,
                last_tid: list.last_tid.unwrap_or(0),
                bytes: list.bytes.len() as u64,
                exact: true,
                ..si_storage::KeyStats::default()
            };
            let value = finalize_list(options.coding, &key, &list.bytes, &mut key_stats)?;
            entries.push((key, value, key_stats));
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let keys = entries.len() as u64;
        let stats_entries: Vec<(Vec<u8>, si_storage::KeyStats)> =
            entries.iter().map(|(k, _, s)| (k.clone(), *s)).collect();
        let mut btree = BTree::bulk_load(
            &dir.join("index.bt"),
            entries.into_iter().map(|(k, v, _)| (k, v)),
        )?;
        btree.write_stats_segment(stats_entries)?;
        btree.flush()?;

        let stats = IndexStats {
            keys,
            postings,
            index_bytes: btree.stats().file_bytes,
            posting_bytes,
            data_bytes: store.data_bytes(),
            build_seconds: started.elapsed().as_secs_f64(),
        };
        let index = Self {
            dir: dir.to_path_buf(),
            options,
            btree,
            store,
            stats,
            join_algo: JoinAlgo::Mpmgjn,
            exec_mode: ExecMode::Streaming,
        };
        index.write_meta()?;
        Ok(index)
    }

    /// Builds an index with bounded memory: posting lists are spilled to
    /// sorted runs under `<dir>/tmp` and k-way merged into the B+Tree
    /// bulk loader ([`crate::build_ext`]). Produces byte-identical
    /// results to [`SubtreeIndex::build`]; use it for corpora whose
    /// posting volume exceeds RAM (the paper's 10⁶-sentence points).
    pub fn build_external(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
        config: crate::build_ext::ExternalBuildConfig,
    ) -> Result<Self> {
        use std::cell::RefCell;

        let started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let store = CorpusStore::build(&dir.join("corpus"), trees.iter(), interner)?;
        let tmp = dir.join("tmp");
        let runs = crate::build_ext::build_runs(&tmp, trees, options.mss, options.coding, config)?;
        let mut merger = crate::build_ext::RunMerger::open(&runs, options.coding)?;

        let keys = RefCell::new(0u64);
        let postings = RefCell::new(0u64);
        let posting_bytes = RefCell::new(0u64);
        // Merged keys arrive in ascending order, so the stats entries
        // accumulate pre-sorted while the same pass feeds the bulk
        // loader.
        let stats_entries: RefCell<Vec<(Vec<u8>, si_storage::KeyStats)>> = RefCell::new(Vec::new());
        let error: RefCell<Option<StorageError>> = RefCell::new(None);
        let pairs = std::iter::from_fn(|| match merger.next_key() {
            Ok(Some((key, bytes, mut key_stats))) => {
                *keys.borrow_mut() += 1;
                *postings.borrow_mut() += key_stats.postings;
                *posting_bytes.borrow_mut() += bytes.len() as u64;
                match finalize_list(options.coding, &key, &bytes, &mut key_stats) {
                    Ok(value) => {
                        stats_entries.borrow_mut().push((key.clone(), key_stats));
                        Some((key, value))
                    }
                    Err(e) => {
                        *error.borrow_mut() = Some(e);
                        None
                    }
                }
            }
            Ok(None) => None,
            Err(e) => {
                *error.borrow_mut() = Some(e);
                None
            }
        });
        let mut btree = BTree::bulk_load(&dir.join("index.bt"), pairs)?;
        if let Some(e) = error.into_inner() {
            return Err(e);
        }
        btree.write_stats_segment(stats_entries.into_inner())?;
        btree.flush()?;
        std::fs::remove_dir_all(&tmp).ok();

        let stats = IndexStats {
            keys: keys.into_inner(),
            postings: postings.into_inner(),
            index_bytes: btree.stats().file_bytes,
            posting_bytes: posting_bytes.into_inner(),
            data_bytes: store.data_bytes(),
            build_seconds: started.elapsed().as_secs_f64(),
        };
        let index = Self {
            dir: dir.to_path_buf(),
            options,
            btree,
            store,
            stats,
            join_algo: JoinAlgo::Mpmgjn,
            exec_mode: ExecMode::Streaming,
        };
        index.write_meta()?;
        Ok(index)
    }

    /// Opens an existing index directory. Read-only opens prefer the
    /// mmap-backed pager (borrowed, latch-free page reads) and fall back
    /// to the buffered pager transparently.
    pub fn open(dir: &Path) -> Result<Self> {
        let (options, stats) = decode_meta(&std::fs::read(dir.join("si.meta"))?)?;
        let btree = BTree::open_readonly(&dir.join("index.bt"))?;
        let store = CorpusStore::open(&dir.join("corpus"))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            options,
            btree,
            store,
            stats,
            join_algo: JoinAlgo::Mpmgjn,
            exec_mode: ExecMode::Streaming,
        })
    }

    /// Opens an existing index directory on the buffered (LRU) pager
    /// even where a read-only mmap is available. Each open starts with
    /// an empty page cache, which is what a cold-cache measurement
    /// needs per repetition; production opens should prefer
    /// [`SubtreeIndex::open`].
    pub fn open_buffered(dir: &Path) -> Result<Self> {
        let (options, stats) = decode_meta(&std::fs::read(dir.join("si.meta"))?)?;
        let btree = BTree::open(&dir.join("index.bt"))?;
        let store = CorpusStore::open(&dir.join("corpus"))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            options,
            stats,
            btree,
            store,
            join_algo: JoinAlgo::Mpmgjn,
            exec_mode: ExecMode::Streaming,
        })
    }

    /// Whether stored posting lists carry skip headers (restart-point
    /// tables): always, since every index this code opens was written
    /// with them.
    pub fn has_skip_headers(&self) -> bool {
        true
    }

    /// Whether the B+Tree is served from an mmap-backed read-only pager
    /// (a read-only open that mapped cleanly) rather than the buffered
    /// pager. Purely informational — reads are byte-identical either way.
    pub fn is_mapped(&self) -> bool {
        self.btree.is_mapped()
    }

    /// The build options.
    pub fn options(&self) -> IndexOptions {
        self.options
    }

    /// Build statistics (sizes, posting counts, timing).
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// The index directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The corpus backing this index.
    pub fn store(&self) -> &CorpusStore {
        &self.store
    }

    /// A copy of the corpus label interner (parse queries against this
    /// so label ids line up; unknown labels simply produce no matches).
    pub fn interner(&self) -> LabelInterner {
        self.store.interner().clone()
    }

    /// Selects the structural-join algorithm (default MPMGJN).
    pub fn set_join_algo(&mut self, algo: JoinAlgo) {
        self.join_algo = algo;
    }

    /// The configured structural-join algorithm.
    pub fn join_algo(&self) -> JoinAlgo {
        self.join_algo
    }

    /// Selects the query executor (default [`ExecMode::Streaming`]).
    /// The materializing evaluator is retained as the equivalence
    /// oracle and the bench ablation's baseline.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The configured query executor.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Evaluates `query`, returning the distinct `(tid, pre)` pairs the
    /// query root maps to, plus evaluation statistics. Dispatches to the
    /// streaming pipeline ([`crate::exec`]) or the legacy materializing
    /// evaluator ([`crate::eval`]) per [`SubtreeIndex::exec_mode`].
    pub fn evaluate(&self, query: &Query) -> Result<EvalResult> {
        self.evaluate_with(query, &crate::exec::ExecContext::default())
    }

    /// [`SubtreeIndex::evaluate`] with explicit execution resources —
    /// the query service passes its block cache and batch-shared scans
    /// here (the materializing oracle ignores them). Pager counter
    /// deltas are folded into the returned stats as **thread-local**
    /// snapshots ([`si_storage::thread_counters`]): a query evaluates
    /// entirely on the calling thread, so the delta is exactly this
    /// query's traffic even while other service workers hammer the same
    /// pager concurrently.
    pub fn evaluate_with(
        &self,
        query: &Query,
        ctx: &crate::exec::ExecContext<'_>,
    ) -> Result<EvalResult> {
        self.evaluate_as(query, self.exec_mode, ctx)
    }

    /// [`SubtreeIndex::evaluate_with`] under an explicit executor: a
    /// [`crate::sharded::ShardedIndex`] shares its shards behind `Arc`s
    /// and selects the executor per handle, not per shard.
    pub(crate) fn evaluate_as(
        &self,
        query: &Query,
        exec_mode: ExecMode,
        ctx: &crate::exec::ExecContext<'_>,
    ) -> Result<EvalResult> {
        let before = si_storage::thread_counters();
        let pf_before = si_storage::thread_prefetch_counters();
        let mut result = match exec_mode {
            ExecMode::Streaming => crate::exec::evaluate_streaming_with(self, query, ctx),
            ExecMode::Materialized => crate::eval::evaluate(self, query),
        }?;
        let after = si_storage::thread_counters();
        let pf_after = si_storage::thread_prefetch_counters();
        result.stats.pager_hits = after.hits.saturating_sub(before.hits);
        result.stats.pager_misses = after.misses.saturating_sub(before.misses);
        result.stats.pager_evictions = after.evictions.saturating_sub(before.evictions);
        let pf = pf_after.delta_since(&pf_before);
        result.stats.prefetch_hints = pf.hints;
        result.stats.prefetch_useful = pf.useful;
        Ok(result)
    }

    /// Hints the prefetcher at the leading pages of `key`'s posting
    /// list — the storage end of plan-driven prefetch
    /// ([`crate::exec`]). Advisory by contract: errors, absent keys and
    /// inline values all yield `None` (nothing worth overlapping), and
    /// dropping the ticket cancels whatever was not yet loaded.
    pub fn prefetch_posting(
        &self,
        key: &[u8],
        max_bytes: u64,
    ) -> Option<si_storage::PrefetchTicket> {
        self.btree.prefetch_value(key, max_bytes).ok().flatten()
    }

    /// Cumulative pager cache counters of the index's B+Tree file.
    pub fn pager_counters(&self) -> si_storage::PagerCounters {
        self.btree.pager_counters()
    }

    /// Encoded posting-list length of a key in bytes, without decoding —
    /// a cheap selectivity estimate (the paper's §7 "statistics about
    /// subtrees such as their selectivities").
    pub fn posting_len(&self, key: &[u8]) -> Result<Option<u64>> {
        self.btree.value_len(key)
    }

    /// Whether the index carries a persisted stats segment. Indexes
    /// built before the segment existed report `false`; their
    /// [`SubtreeIndex::key_stats`] answers are estimates.
    pub fn has_key_stats(&self) -> bool {
        self.btree.has_stats_segment()
    }

    /// Per-key statistics for planning ([`crate::stats`]): posting
    /// count, distinct tid count, first/last tid and encoded bytes.
    /// Exact from the stats segment when present; for pre-stats index
    /// files the figures are estimated from [`SubtreeIndex::posting_len`]
    /// (`exact == false`, full tid range — safe, never prunes). `None`
    /// when the key is absent, meaning the query has no matches.
    pub fn key_stats(&self, key: &[u8]) -> Result<Option<si_storage::KeyStats>> {
        if let Some(stats) = self.btree.key_stats(key)? {
            return Ok(Some(stats));
        }
        Ok(self
            .btree
            .value_len(key)?
            .map(|bytes| crate::stats::estimate_from_len(bytes, self.options.coding, key)))
    }

    /// Opens a streaming posting cursor over `key`'s list: bytes flow
    /// from the B+Tree one page at a time and decode incrementally —
    /// the storage-to-coding seam of the streaming executor. `None`
    /// when the key is absent.
    pub fn posting_cursor(
        &self,
        key: &[u8],
    ) -> Result<Option<PostingCursor<si_storage::ValueReader<'_>>>> {
        let Some(reader) = self.btree.value_reader(key)? else {
            return Ok(None);
        };
        let m = key_size(key).ok_or_else(|| StorageError::Corrupt("bad canonical key".into()))?;
        Ok(Some(PostingCursor::with_format(
            self.options.coding,
            m,
            reader,
            true,
        )))
    }

    /// Fetches the decoded posting list of a canonical key, if indexed.
    pub fn postings(&self, key: &[u8]) -> Result<Option<Vec<Posting>>> {
        Ok(self.postings_with_len(key)?.map(|(postings, _)| postings))
    }

    /// [`SubtreeIndex::postings`] plus the list's raw encoded byte
    /// length, from the same single B+Tree descent (the legacy
    /// evaluator's byte instrumentation needs both).
    pub fn postings_with_len(&self, key: &[u8]) -> Result<Option<(Vec<Posting>, usize)>> {
        let Some(bytes) = self.btree.get(key)? else {
            return Ok(None);
        };
        let m = key_size(key).ok_or_else(|| StorageError::Corrupt("bad canonical key".into()))?;
        let payload = crate::coding::split_skip_header(&bytes)?.1;
        Ok(Some((
            decode_postings(self.options.coding, m, payload).collect(),
            bytes.len(),
        )))
    }

    /// Iterates all `(key, posting list bytes)` pairs (statistics and the
    /// frequency-based baseline use this).
    pub fn iter_keys(&self) -> Result<impl Iterator<Item = Result<(Vec<u8>, Vec<u8>)>> + '_> {
        self.btree.iter()
    }

    /// Writes `si.meta`: the magic, then varints `mss`, coding id (one
    /// byte), `keys`, `postings`, `index_bytes`, `posting_bytes`,
    /// `data_bytes`, then the build time in microseconds as a fixed
    /// 8-byte LE field — fixed so that the file's length, and with it
    /// the directory's byte count, depends on the corpus alone.
    fn write_meta(&self) -> Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(META_MAGIC);
        varint::write_u64(&mut buf, self.options.mss as u64);
        buf.push(self.options.coding.id());
        varint::write_u64(&mut buf, self.stats.keys);
        varint::write_u64(&mut buf, self.stats.postings);
        varint::write_u64(&mut buf, self.stats.index_bytes);
        varint::write_u64(&mut buf, self.stats.posting_bytes);
        varint::write_u64(&mut buf, self.stats.data_bytes);
        buf.extend_from_slice(&((self.stats.build_seconds * 1e6) as u64).to_le_bytes());
        std::fs::write(self.dir.join("si.meta"), buf)?;
        Ok(())
    }
}

const META_MAGIC: &[u8; 8] = b"SIMETA3\0";

fn decode_meta(bytes: &[u8]) -> Result<(IndexOptions, IndexStats)> {
    match bytes.get(..8) {
        Some(magic) if magic == META_MAGIC => {
            decode_meta_fields(&bytes[8..]).ok_or_else(|| StorageError::Corrupt("si.meta".into()))
        }
        // Posting lists of the two earlier formats decode differently
        // (no skip headers; an unpacked head), so those directories are
        // refused by name rather than misread.
        Some(b"SIMETA1\0" | b"SIMETA2\0") => Err(StorageError::Corrupt(
            "si.meta: index written in an older format; rebuild it with `si build`".into(),
        )),
        _ => Err(StorageError::Corrupt("si.meta".into())),
    }
}

/// The fields [`SubtreeIndex::write_meta`] puts after the magic.
fn decode_meta_fields(fields: &[u8]) -> Option<(IndexOptions, IndexStats)> {
    let mut r = varint::Reader::new(fields);
    let mss = r.u64()? as usize;
    let coding = Coding::from_id(r.bytes(1)?[0])?;
    if !(1..=8).contains(&mss) {
        return None;
    }
    let keys = r.u64()?;
    let postings = r.u64()?;
    let index_bytes = r.u64()?;
    let posting_bytes = r.u64()?;
    let data_bytes = r.u64()?;
    let build_micros = u64::from_le_bytes(r.bytes(8)?.try_into().ok()?);
    Some((
        IndexOptions { mss, coding },
        IndexStats {
            keys,
            postings,
            index_bytes,
            posting_bytes,
            data_bytes,
            build_seconds: build_micros as f64 / 1e6,
        },
    ))
}
