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
//! paper's Figure 10 times. Each list is stored behind a header holding
//! its statistics ([`crate::coding`], "Stored values").
//!
//! The in-memory build runs on `workers` threads, one build path for any
//! count:
//!
//! 1. **tid ranges** — each worker aggregates the lists of a contiguous
//!    tid range into its own map and sorts it by key;
//! 2. **stitch** — a k-way merge over the sorted maps yields every key
//!    once, in key order, its fragments joined in tid order
//!    (`build_ext::FragmentMerge`, the external build's merge);
//! 3. **transcode** — batches of a few MB of payload are split into
//!    contiguous slices of about equal bytes, one per worker, and each
//!    list is packed into its stored form ([`build_list_value`]);
//! 4. **bulk load** — the stored lists feed [`BTree::bulk_load`] in key
//!    order.
//!
//! One worker runs all four on the calling thread and stitches nothing.
//! Every worker count, and the external path (sorted runs on disk, then
//! steps 2–4 on one worker), writes the same bytes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use si_parsetree::{varint, LabelInterner, ParseTree, TreeId};
use si_query::Query;
use si_storage::{BTree, CorpusStore, Result, StorageError};

use crate::build_ext::{ExternalBuildConfig, Fragment, FragmentMerge};
use crate::canonical::key_size;
use crate::coding::{
    build_list_value, list_stats, Coding, NodeVal, Posting, PostingBuilder, PostingCursor,
    SliceSource, DEFAULT_RESTART_INTERVAL,
};
use crate::eval::EvalResult;
use crate::exec::ExecMode;
use crate::extract::for_each_subtree;
use crate::stats::{KeyStats, ListPlace, StatsCache};

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
    /// Bytes of stored posting-list payload: the packed blocks, without
    /// the list headers before them or the B+Tree around them.
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
    /// The statistics of every key looked up so far (the index is
    /// read-only, so they never go stale), unless the context brings a
    /// memo of its own ([`crate::exec::ExecContext::stats`]).
    pub(crate) stats_memo: StatsCache,
    exec_mode: ExecMode,
}

/// How a build aggregates its posting lists; every way yields the same
/// bytes (`tests/index_bytes.rs` holds them to it).
#[derive(Debug, Clone, Copy)]
pub(crate) enum BuildPath {
    /// In memory, on this many workers (clamped to `1..=trees`), each
    /// over a contiguous tid range; see the module docs.
    InMemory(usize),
    /// Sorted runs spilled to disk and k-way merged ([`crate::build_ext`]),
    /// on one worker.
    External(ExternalBuildConfig),
}

/// The default thread count of builds, shard pools and query fan-out:
/// the cores this process may use.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// The buffers [`add_tree`] reuses across occurrences and trees.
#[derive(Default)]
pub(crate) struct OccurrenceScratch {
    occurrence: Vec<(NodeVal, u8)>,
    pres: Vec<u32>,
}

/// Adds every subtree occurrence of `tree`, whose id is `tid`, to the
/// posting lists in `lists`, and returns the payload bytes it added:
/// the enumeration loop of every build path. The buffers live in
/// `scratch` and a key is only cloned when first seen — this loop
/// dominates the build, so it must stay allocation-free on the hot
/// path.
pub(crate) fn add_tree(
    lists: &mut HashMap<Vec<u8>, PostingBuilder>,
    tree: &ParseTree,
    tid: TreeId,
    options: IndexOptions,
    scratch: &mut OccurrenceScratch,
) -> usize {
    let OccurrenceScratch { occurrence, pres } = scratch;
    let mut added = 0;
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
        // `order`: the node's pre-order rank within the occurrence
        // (1-based), §4.4.2.
        pres.clear();
        pres.extend(occurrence.iter().map(|(v, _)| v.pre));
        pres.sort_unstable();
        for (v, order) in occurrence.iter_mut() {
            *order = pres.binary_search(&v.pre).expect("own pre") as u8 + 1;
        }
        if let Some(builder) = lists.get_mut(sub.key.as_slice()) {
            let before = builder.byte_len();
            builder.push(tid, occurrence);
            added += builder.byte_len() - before;
        } else {
            let mut builder = PostingBuilder::new(options.coding);
            builder.push(tid, occurrence);
            added += builder.byte_len();
            lists.insert(sub.key.clone(), builder);
        }
    });
    added
}

/// Aggregates the posting list of every canonical key occurring in
/// `trees`, whose first tree has id `base`.
fn aggregate(
    trees: &[ParseTree],
    base: TreeId,
    options: IndexOptions,
) -> HashMap<Vec<u8>, PostingBuilder> {
    let mut lists = HashMap::new();
    let mut scratch = OccurrenceScratch::default();
    for (off, tree) in trees.iter().enumerate() {
        add_tree(
            &mut lists,
            tree,
            base + off as TreeId,
            options,
            &mut scratch,
        );
    }
    lists
}

/// `f` over `items`, results in order: the first item on the calling
/// thread and each other on a thread of its own, so one item spawns
/// nothing.
fn on_workers<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let mut results = vec![f(first)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked")),
        );
        results
    })
}

/// The lists of `trees` as runs for [`FragmentMerge`]: `workers`
/// contiguous tid ranges, each range's lists sorted by key, in tid
/// order.
fn aggregate_ranges(
    trees: &[ParseTree],
    options: IndexOptions,
    workers: usize,
) -> Vec<Vec<(Vec<u8>, Fragment)>> {
    let chunk = trees.len().div_ceil(workers).max(1);
    on_workers(trees.chunks(chunk).enumerate(), |(w, slice)| {
        let mut run: Vec<(Vec<u8>, Fragment)> = aggregate(slice, (w * chunk) as TreeId, options)
            .into_iter()
            .map(|(key, builder)| {
                let last_tid = builder.last_tid().expect("a list has a posting");
                let bytes = builder.finish();
                (key, Fragment { bytes, last_tid })
            })
            .collect();
        run.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        run
    })
}

/// What a bulk load counted on its way past.
#[derive(Default)]
struct Tally {
    keys: u64,
    postings: u64,
    posting_bytes: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.keys += other.keys;
        self.postings += other.postings;
        self.posting_bytes += other.posting_bytes;
    }
}

/// Payload bytes [`load_lists`] gathers into one transcode batch: enough
/// that a thread per worker and batch costs nothing measurable, few
/// enough that a batch's stored values stay a few MB of memory.
const TRANSCODE_BATCH_BYTES: usize = 4 << 20;

/// Bulk-loads `<dir>/index.bt` from `lists` — `(key, payload)` in
/// ascending key order — storing each payload in its stored form,
/// header then packed blocks ([`build_list_value`]), transcoded a batch
/// at a time on `workers` threads: the shared tail of every build path.
/// The first list that fails to transcode, or the first error of
/// `lists`, fails the build.
fn load_lists(
    dir: &Path,
    coding: Coding,
    workers: usize,
    mut lists: impl Iterator<Item = Result<(Vec<u8>, Vec<u8>)>>,
) -> Result<(BTree, Tally)> {
    let mut tally = Tally::default();
    let mut error = None;
    let mut stored = Vec::new().into_iter();
    let pairs = std::iter::from_fn(|| loop {
        if let Some(pair) = stored.next() {
            return Some(pair);
        }
        if error.is_some() {
            return None;
        }
        let mut batch = Vec::new();
        let mut bytes = 0;
        while bytes < TRANSCODE_BATCH_BYTES {
            match lists.next() {
                Some(Ok(pair)) => {
                    bytes += pair.1.len();
                    batch.push(pair);
                }
                Some(Err(e)) => {
                    error = Some(e);
                    break;
                }
                None => break,
            }
        }
        if batch.is_empty() {
            return None;
        }
        match transcode(coding, batch, workers, &mut tally) {
            Ok(values) => stored = values.into_iter(),
            // The batch's lists precede what `lists` failed on.
            Err(e) => {
                error = Some(e);
                return None;
            }
        }
    });
    let mut btree = BTree::bulk_load(&dir.join("index.bt"), pairs)?;
    if let Some(e) = error {
        return Err(e);
    }
    btree.flush()?;
    Ok((btree, tally))
}

/// `batch` in its stored form, `(key, value)`: cut into up to `workers`
/// contiguous slices of about equal payload bytes, stored in parallel.
/// The first slice to fail, in key order, fails the batch.
fn transcode(
    coding: Coding,
    batch: Vec<(Vec<u8>, Vec<u8>)>,
    workers: usize,
    tally: &mut Tally,
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    // Cut after the list whose running payload sum first reaches each
    // `w / workers` share of the batch.
    let total: usize = batch.iter().map(|(_, payload)| payload.len()).sum();
    let mut cuts = vec![0];
    let mut sum = 0;
    for (i, (_, payload)) in batch.iter().enumerate() {
        sum += payload.len();
        if cuts.len() < workers && sum * workers >= total * cuts.len() {
            cuts.push(i + 1);
        }
    }
    cuts.push(batch.len());
    let slices = cuts
        .windows(2)
        .map(|cut| &batch[cut[0]..cut[1]])
        .filter(|slice| !slice.is_empty());
    let stored = on_workers(slices, |slice| store_slice(coding, slice));
    let mut values = Vec::with_capacity(batch.len());
    for slice in stored {
        let (slice_values, slice_tally) = slice?;
        values.extend(slice_values);
        tally.add(&slice_tally);
    }
    Ok(batch.into_iter().map(|(key, _)| key).zip(values).collect())
}

/// The stored values of `lists` and what they count.
fn store_slice(coding: Coding, lists: &[(Vec<u8>, Vec<u8>)]) -> Result<(Vec<Vec<u8>>, Tally)> {
    let mut tally = Tally::default();
    let values = lists
        .iter()
        .map(|(key, payload)| {
            let m = key_size(key).ok_or_else(bad_key)?;
            let (value, header_len, stats) =
                build_list_value(coding, m, payload, DEFAULT_RESTART_INTERVAL)?;
            tally.keys += 1;
            tally.postings += stats.postings;
            tally.posting_bytes += (value.len() - header_len) as u64;
            Ok(value)
        })
        .collect::<Result<_>>()?;
    Ok((values, tally))
}

fn bad_key() -> StorageError {
    StorageError::Corrupt("bad canonical key".into())
}

impl SubtreeIndex {
    /// Builds an index over `trees` at `dir` (created/overwritten), on
    /// as many workers as the process has cores
    /// ([`std::thread::available_parallelism`], at most one per tree).
    ///
    /// `interner` must be the interner the trees were built with; it is
    /// persisted alongside the corpus so queries can resolve labels.
    pub fn build(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
    ) -> Result<Self> {
        Self::build_parallel(dir, trees, interner, options, default_workers())
    }

    /// [`SubtreeIndex::build`] on `threads` workers (clamped to
    /// `1..=trees.len()`): each aggregates a contiguous tid range and
    /// transcodes its share of every batch of lists (module docs). The
    /// bytes written do not depend on `threads`; one worker runs on the
    /// calling thread and spawns nothing.
    pub fn build_parallel(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
        threads: usize,
    ) -> Result<Self> {
        let labels = Arc::new(interner.clone());
        Self::build_shard(dir, trees, labels, 0, options, BuildPath::InMemory(threads))
    }

    /// Builds an index with bounded memory: posting lists are spilled to
    /// sorted runs under `<dir>/tmp` and k-way merged into the B+Tree
    /// bulk loader ([`crate::build_ext`]), on one worker. Produces
    /// byte-identical results to [`SubtreeIndex::build`]; use it for
    /// corpora whose posting volume exceeds RAM (the paper's
    /// 10⁶-sentence points).
    pub fn build_external(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
        config: ExternalBuildConfig,
    ) -> Result<Self> {
        let labels = Arc::new(interner.clone());
        Self::build_shard(dir, trees, labels, 0, options, BuildPath::External(config))
    }

    /// The one build behind the three above and behind every shard of a
    /// [`crate::sharded::ShardedIndex`]: the corpus store records only
    /// `labels[label_base..]` ([`CorpusStore::build_with_labels`]).
    pub(crate) fn build_shard(
        dir: &Path,
        trees: &[ParseTree],
        labels: Arc<LabelInterner>,
        label_base: usize,
        options: IndexOptions,
        path: BuildPath,
    ) -> Result<Self> {
        let started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let store =
            CorpusStore::build_with_labels(&dir.join("corpus"), trees.iter(), labels, label_base)?;
        let (btree, tally) = match path {
            BuildPath::InMemory(workers) => {
                let workers = workers.clamp(1, trees.len().max(1));
                let runs = aggregate_ranges(trees, options, workers)
                    .into_iter()
                    .map(|run| run.into_iter().map(Ok))
                    .collect();
                let lists = FragmentMerge::new(options.coding, runs)?;
                load_lists(dir, options.coding, workers, lists)?
            }
            BuildPath::External(config) => {
                let tmp = dir.join("tmp");
                let runs =
                    crate::build_ext::build_runs(&tmp, trees, options.mss, options.coding, config)?;
                let lists = crate::build_ext::merge_runs(&runs, options.coding)?;
                let loaded = load_lists(dir, options.coding, 1, lists)?;
                std::fs::remove_dir_all(&tmp).ok();
                loaded
            }
        };
        let index = Self {
            dir: dir.to_path_buf(),
            options,
            stats: IndexStats {
                keys: tally.keys,
                postings: tally.postings,
                index_bytes: btree.stats().file_bytes,
                posting_bytes: tally.posting_bytes,
                data_bytes: store.data_bytes(),
                build_seconds: started.elapsed().as_secs_f64(),
            },
            btree,
            store,
            stats_memo: Default::default(),
            exec_mode: ExecMode::Streaming,
        };
        index.write_meta()?;
        Ok(index)
    }

    /// Opens an existing index directory. Read-only opens prefer the
    /// mmap-backed pager (borrowed, latch-free page reads) and fall back
    /// to the buffered pager transparently. One shard of a sharded index
    /// may hold only part of the label table and then opens only through
    /// [`crate::sharded::ShardedIndex::open`] on the index directory.
    pub fn open(dir: &Path) -> Result<Self> {
        let store = CorpusStore::open(&dir.join("corpus"))?;
        Self::open_parts(dir, BTree::open_readonly(&dir.join("index.bt"))?, store)
    }

    /// [`SubtreeIndex::open`] for one shard of several, its trees
    /// labelled from the index-wide table `labels`.
    pub(crate) fn open_shard(dir: &Path, labels: Arc<LabelInterner>) -> Result<Self> {
        let store = CorpusStore::open_with_labels(&dir.join("corpus"), labels)?;
        Self::open_parts(dir, BTree::open_readonly(&dir.join("index.bt"))?, store)
    }

    /// Opens an existing index directory on the buffered (LRU) pager
    /// even where a read-only mmap is available. Each open starts with
    /// an empty page cache, which is what a cold-cache measurement
    /// needs per repetition; production opens should prefer
    /// [`SubtreeIndex::open`].
    pub fn open_buffered(dir: &Path) -> Result<Self> {
        let store = CorpusStore::open(&dir.join("corpus"))?;
        Self::open_parts(dir, BTree::open(&dir.join("index.bt"))?, store)
    }

    fn open_parts(dir: &Path, btree: BTree, store: CorpusStore) -> Result<Self> {
        let (options, stats) = decode_meta(&std::fs::read(dir.join("si.meta"))?)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            options,
            btree,
            store,
            stats,
            stats_memo: Default::default(),
            exec_mode: ExecMode::Streaming,
        })
    }

    /// Whether stored posting lists open with a list header (statistics
    /// and, on long lists, a restart-point table): always, since every
    /// index this code opens was written with them.
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
        LabelInterner::clone(self.store.interner())
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
        self.evaluate_as(query, self.exec_mode, ctx, None)
    }

    /// [`SubtreeIndex::evaluate_with`] under an explicit executor: a
    /// [`crate::sharded::ShardedIndex`] selects it per handle, not per
    /// shard — and has looked the cover's keys up already (`probed`,
    /// see [`crate::exec::evaluate_streaming_with`]).
    pub(crate) fn evaluate_as(
        &self,
        query: &Query,
        exec_mode: ExecMode,
        ctx: &crate::exec::ExecContext<'_>,
        probed: Option<&crate::exec::CoverLookups>,
    ) -> Result<EvalResult> {
        let before = si_storage::thread_counters();
        let pf_before = si_storage::thread_prefetch_counters();
        let mut result = match exec_mode {
            ExecMode::Streaming => crate::exec::evaluate_streaming_with(self, query, ctx, probed),
            ExecMode::Materialized => crate::eval::evaluate(self, query),
        }?;
        let after = si_storage::thread_counters();
        let pf_after = si_storage::thread_prefetch_counters();
        result.stats.pager_hits = after.hits.saturating_sub(before.hits);
        result.stats.pager_misses = after.misses.saturating_sub(before.misses);
        result.stats.pager_evictions = after.evictions.saturating_sub(before.evictions);
        result.stats.btree_descents = after.descents.saturating_sub(before.descents);
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

    /// Per-key statistics for planning ([`crate::stats`]): posting
    /// count, distinct tid count, first/last tid and encoded bytes,
    /// exact — they are the front of the stored list, read by the one
    /// descent that finds it, once per key (the index remembers what it
    /// has looked up). `None` when the key is absent, meaning the query
    /// has no matches.
    pub fn key_stats(&self, key: &[u8]) -> Result<Option<KeyStats>> {
        crate::stats::key_stats_cached(self, key, &crate::exec::ExecContext::default())
    }

    /// One descent for `key`'s statistics and where it found the list,
    /// for [`SubtreeIndex::prefetch_list`]; no memo involved.
    pub(crate) fn key_lookup(&self, key: &[u8]) -> Result<Option<(KeyStats, ListPlace)>> {
        let Some(front) = self.btree.value_front(key, STATS_FRONT_BYTES)? else {
            return Ok(None);
        };
        let stats = list_stats(&front.bytes, front.len)?;
        let place = front.extent.map_or(ListPlace::Inline, ListPlace::Heap);
        Ok(Some((stats, place)))
    }

    /// [`SubtreeIndex::prefetch_posting`] at the place a `key_lookup`
    /// found, descending by `key` only when it found none.
    pub(crate) fn prefetch_list(
        &self,
        key: &[u8],
        place: ListPlace,
        max_bytes: u64,
    ) -> Option<si_storage::PrefetchTicket> {
        match place {
            ListPlace::Heap(extent) => self.btree.prefetch_extent(extent, max_bytes),
            ListPlace::Inline => None,
            ListPlace::Unknown => self.prefetch_posting(key, max_bytes),
        }
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
        let m = key_size(key).ok_or_else(bad_key)?;
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
    /// evaluator's byte instrumentation needs both). Read by the cursor
    /// the streaming executor reads with, so a corrupt list is the same
    /// error under both.
    pub fn postings_with_len(&self, key: &[u8]) -> Result<Option<(Vec<Posting>, usize)>> {
        let Some(bytes) = self.btree.get(key)? else {
            return Ok(None);
        };
        let m = key_size(key).ok_or_else(bad_key)?;
        let mut cursor =
            PostingCursor::with_format(self.options.coding, m, SliceSource::new(&bytes), true);
        let mut postings = Vec::new();
        while let Some(posting) = cursor.next_posting()? {
            postings.push(posting.clone());
        }
        Ok(Some((postings, bytes.len())))
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

const META_MAGIC: &[u8; 8] = b"SIMETA6\0";

/// Leading bytes of a stored list [`SubtreeIndex::key_lookup`] reads:
/// enough for [`list_stats`] whatever the header holds.
const STATS_FRONT_BYTES: usize = 96;

fn decode_meta(bytes: &[u8]) -> Result<(IndexOptions, IndexStats)> {
    match bytes.get(..8) {
        Some(magic) if magic == META_MAGIC => {
            decode_meta_fields(&bytes[8..]).ok_or_else(|| StorageError::Corrupt("si.meta".into()))
        }
        // Posting lists of the five earlier formats decode differently
        // (no skip headers; an unpacked head; a versioned skip header
        // and no statistics; varint postings after the header; 32-row
        // blocks of unpatched columns), so those directories are refused
        // by name rather than misread.
        Some(b"SIMETA1\0" | b"SIMETA2\0" | b"SIMETA3\0" | b"SIMETA4\0" | b"SIMETA5\0") => {
            Err(StorageError::Corrupt(
                "si.meta: index written in an older format; rebuild it with `si build`".into(),
            ))
        }
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
