//! Tid-range sharded indexes: parallel build, scatter-gather execution
//! and incremental ingest.
//!
//! A monolithic `index.bt` caps corpus size at single-file build
//! memory/time and serializes index construction. This module partitions
//! the corpus **by contiguous tree-id range** into N shards, each a full
//! [`SubtreeIndex`] (corpus store, B+Tree) but for the label table, of
//! which each stores only what it added (`si_storage::datafile`),
//! described by a [`ShardManifest`] (`MANIFEST.si`, see
//! `si_storage::shard`). The paper's posting lists are tid-sorted under
//! all three codings (§4.4), which makes tid-range partitioning the
//! natural axis: shard-local match sets are disjoint and already
//! ordered, so the global answer is per-shard answers **concatenated**
//! in shard order with local tids offset by the shard base — no dedup,
//! no merge sort.
//!
//! [`ShardedIndex`] is the one index handle: a bare [`SubtreeIndex`]
//! directory (no `MANIFEST.si`) opens as a single implicit shard `{id 0,
//! base 0, generation 0}` rooted at the directory itself, so a
//! monolithic index is simply the one-shard case of everything below.
//!
//! Three capabilities fall out:
//!
//! * **Parallel build** ([`ShardedIndex::build`]): shards build
//!   independently on a worker pool, each on one worker of the in-memory
//!   or the external build path — the pool fills the cores. Unlike a
//!   `SubtreeIndex::build` on several workers, nothing is stitched
//!   afterwards — per-key fragments never cross shard boundaries — and
//!   the per-shard aggregation maps stay small.
//! * **Scatter-gather queries** ([`ShardedIndex::evaluate`]): every
//!   shard plans with its *own* list statistics. Before a shard is even
//!   consulted, its per-key statistics can prove it empty — a cover key
//!   absent from the shard, or shard-local tid ranges disjoint — and the
//!   whole shard is skipped ([`EvalStats::shards_skipped`]). Live shards
//!   evaluate in parallel.
//! * **Incremental ingest** ([`ShardedIndex::ingest`]): new documents
//!   become a fresh shard (built like any other, holding the labels
//!   they introduce); only `MANIFEST.si` is rewritten, atomically. Existing shard
//!   files are never touched — the first update path that does not
//!   rebuild the world.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use si_obs::Stage;
use si_parsetree::{LabelInterner, ParseTree, TreeId};
use si_query::Query;
use si_storage::{CorpusStore, Result, ShardEntry, ShardManifest, StorageError};

use crate::build::{default_workers, BuildPath, IndexOptions, IndexStats, SubtreeIndex};
use crate::coding::Coding;
use crate::cover::decompose;
use crate::eval::{EvalResult, EvalStats};
use crate::exec::{lookup_cover, CoverLookups, ExecContext, ExecMode};
use crate::stats::{intersect_tid_ranges, KeyStats, TID_HIST_BUCKETS};

/// Which single-index build path each shard uses, on one worker: the
/// shard-level workers already use every core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBuildMode {
    /// In-memory aggregation ([`SubtreeIndex::build_parallel`] on one
    /// worker) — the default.
    #[default]
    InMemory,
    /// Bounded-memory external merge ([`SubtreeIndex::build_external`]).
    External,
}

/// Knobs of a sharded build.
#[derive(Debug, Clone, Copy)]
pub struct ShardedBuildConfig {
    /// Number of tid-range shards (clamped to the tree count).
    pub shards: usize,
    /// Worker threads building shards concurrently.
    pub workers: usize,
    /// Build path used inside each shard.
    pub mode: ShardBuildMode,
}

impl Default for ShardedBuildConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            workers: default_workers(),
            mode: ShardBuildMode::InMemory,
        }
    }
}

/// A tid-range partitioned index: N per-shard [`SubtreeIndex`]es plus
/// the manifest tying them together. See the module docs.
pub struct ShardedIndex {
    dir: PathBuf,
    manifest: ShardManifest,
    shards: Vec<Arc<SubtreeIndex>>,
    exec_mode: ExecMode,
    query_threads: usize,
}

impl ShardedIndex {
    /// Builds a sharded index over `trees` at `dir`: the corpus is split
    /// into `config.shards` contiguous tid ranges and each range becomes
    /// a full per-shard index, built concurrently by `config.workers`
    /// worker threads. All shards share `interner`, so canonical keys
    /// agree across shards (and with any monolithic index over the same
    /// corpus).
    pub fn build(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
        config: ShardedBuildConfig,
    ) -> Result<Self> {
        if trees.is_empty() {
            return Err(StorageError::OutOfRange(
                "sharded build needs at least one tree".into(),
            ));
        }
        std::fs::create_dir_all(dir)?;
        // Serialize against a concurrent ingest (same lock): a rebuild
        // racing an in-flight ingest would otherwise interleave the
        // teardown below with the ingest's shard build + manifest
        // rewrite and wedge the directory.
        let _lock = acquire_writer_lock(dir)?;
        // A rebuild into a directory that already held a sharded index
        // stamps its shards *above* the old maximum generation: shard
        // ids restart at 0, so a result cache outliving the rebuild
        // must see fresh `(id, generation)` keys or it would serve the
        // previous corpus's answers.
        let generation = ShardManifest::read(dir)
            .map(|old| old.max_generation() + 1)
            .unwrap_or(0);
        // Rebuilding over an existing sharded directory: tear the old
        // layout down *first* (manifest before shard dirs). The old
        // manifest is replaced only at the very end of the build, so
        // leaving it in place would let a crash mid-build — or a
        // concurrent reader — pair the stale manifest with partially
        // overwritten shard directories and serve a mixed corpus.
        remove_sharded_layout_unlocked(dir)?;
        // The reverse shadowing hazard of the monolithic rebuild path:
        // a stale monolithic index left in this directory would double
        // disk and, should a crash land before the manifest write, be
        // silently served by `ShardedIndex::open` (as an implicit
        // shard) with the old corpus's answers.
        for stale in ["index.bt", "si.meta"] {
            std::fs::remove_file(dir.join(stale)).ok();
        }
        std::fs::remove_dir_all(dir.join("corpus")).ok();
        let shards = config.shards.clamp(1, trees.len());
        let chunk = trees.len().div_ceil(shards);
        let entries: Vec<ShardEntry> = trees
            .chunks(chunk)
            .enumerate()
            .map(|(i, slice)| ShardEntry {
                id: i as u64,
                base: (i * chunk) as TreeId,
                len: slice.len() as TreeId,
                generation,
            })
            .collect();

        // One label table: the first shard stores it, the rest nothing.
        let labels = Arc::new(interner.clone());
        let path = match config.mode {
            ShardBuildMode::InMemory => BuildPath::InMemory(1),
            ShardBuildMode::External => BuildPath::External(Default::default()),
        };
        let built: Vec<Mutex<Option<SubtreeIndex>>> =
            entries.iter().map(|_| Mutex::new(None)).collect();
        let first_error: Mutex<Option<StorageError>> = Mutex::new(None);
        // One shard failing (disk full, I/O error) makes the whole
        // build fail, so other workers stop claiming shards instead of
        // burning minutes (and disk) on work that will be thrown away.
        let failed = std::sync::atomic::AtomicBool::new(false);
        let next = AtomicUsize::new(0);
        let workers = config.workers.clamp(1, entries.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while !failed.load(Ordering::Acquire) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(entry) = entries.get(i) else { break };
                        let slice =
                            &trees[entry.base as usize..entry.base as usize + entry.len as usize];
                        let shard_dir = dir.join(entry.dir_name());
                        let label_base = if i == 0 { 0 } else { labels.len() };
                        let labels = labels.clone();
                        match SubtreeIndex::build_shard(
                            &shard_dir, slice, labels, label_base, options, path,
                        ) {
                            Ok(index) => *built[i].lock().unwrap() = Some(index),
                            Err(e) => {
                                first_error.lock().unwrap().get_or_insert(e);
                                failed.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = first_error.lock().unwrap().take() {
            return Err(e);
        }

        let manifest = ShardManifest {
            mss: options.mss as u64,
            coding: options.coding.id(),
            shards: entries,
        };
        manifest.write(dir)?;
        let shards = built
            .into_iter()
            .map(|slot| Arc::new(slot.into_inner().unwrap().expect("worker built shard")))
            .collect();
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            shards,
            exec_mode: ExecMode::Streaming,
            query_threads: default_workers(),
        })
    }

    /// Opens an index directory. With a `MANIFEST.si` every shard it
    /// names is opened and validated against it (options and tree
    /// count); a bare [`SubtreeIndex`] directory opens as one implicit
    /// shard rooted at `dir` itself.
    pub fn open(dir: &Path) -> Result<Self> {
        let (manifest, shards) = if ShardManifest::exists(dir) {
            let manifest = ShardManifest::read(dir)?;
            let options = manifest_options(&manifest)?;
            // Each shard holds the labels interned since the one before.
            let mut labels = LabelInterner::new();
            for entry in &manifest.shards {
                CorpusStore::read_labels(&dir.join(entry.dir_name()).join("corpus"), &mut labels)?;
            }
            let labels = Arc::new(labels);
            let mut shards = Vec::with_capacity(manifest.shards.len());
            for entry in &manifest.shards {
                let shard = SubtreeIndex::open_shard(&dir.join(entry.dir_name()), labels.clone())?;
                if shard.options() != options {
                    return Err(StorageError::Corrupt(format!(
                        "shard {} options disagree with manifest",
                        entry.dir_name()
                    )));
                }
                if shard.store().len() != entry.len as usize {
                    return Err(StorageError::Corrupt(format!(
                        "shard {} holds {} trees, manifest says {}",
                        entry.dir_name(),
                        shard.store().len(),
                        entry.len
                    )));
                }
                shards.push(Arc::new(shard));
            }
            (manifest, shards)
        } else {
            let shard = SubtreeIndex::open(dir)?;
            let options = shard.options();
            let manifest = ShardManifest {
                mss: options.mss as u64,
                coding: options.coding.id(),
                shards: vec![ShardEntry {
                    id: 0,
                    base: 0,
                    len: shard.store().len() as TreeId,
                    generation: 0,
                }],
            };
            (manifest, vec![Arc::new(shard)])
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            shards,
            exec_mode: ExecMode::Streaming,
            query_threads: default_workers(),
        })
    }

    /// The index directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard manifest (synthesized, never written, for a bare
    /// directory's implicit shard).
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The per-shard indexes, in manifest (tid) order.
    pub fn shards(&self) -> &[Arc<SubtreeIndex>] {
        &self.shards
    }

    /// The shared build options.
    pub fn options(&self) -> IndexOptions {
        manifest_options(&self.manifest).expect("validated at open/build")
    }

    /// Total trees across all shards.
    pub fn num_trees(&self) -> u64 {
        self.manifest.total_trees()
    }

    /// A copy of the label interner queries should be parsed against:
    /// the one table every shard shares. Ingested shards extend it
    /// append-only, so the **last** shard holds the longest version.
    pub fn interner(&self) -> LabelInterner {
        self.shards
            .last()
            .expect("manifest guarantees >= 1 shard")
            .interner()
    }

    /// Selects the per-shard query executor (default streaming; the
    /// materializing oracle is used by the differential suites).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The configured per-shard executor.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Whether every shard serves its B+Tree from a read-only mapping
    /// (any buffered fallback demotes the whole answer — operators care
    /// about the slowest member).
    pub fn is_mapped(&self) -> bool {
        self.shards.iter().all(|shard| shard.is_mapped())
    }

    /// Caps the scatter-gather fan-out (threads evaluating shards
    /// concurrently); defaults to available parallelism.
    pub fn set_query_threads(&mut self, threads: usize) {
        self.query_threads = threads.max(1);
    }

    /// Aggregated build statistics: sums over shards. `keys` counts
    /// per-shard B+Tree entries, so a key hot in every shard is counted
    /// once per shard (the price of disjoint shard files);
    /// `build_seconds` sums per-shard build times (CPU cost, not the
    /// parallel wall time).
    pub fn stats(&self) -> IndexStats {
        let mut agg = IndexStats {
            keys: 0,
            postings: 0,
            index_bytes: 0,
            posting_bytes: 0,
            data_bytes: 0,
            build_seconds: 0.0,
        };
        for shard in &self.shards {
            let s = shard.stats();
            agg.keys += s.keys;
            agg.postings += s.postings;
            agg.index_bytes += s.index_bytes;
            agg.posting_bytes += s.posting_bytes;
            agg.data_bytes += s.data_bytes;
            agg.build_seconds += s.build_seconds;
        }
        agg
    }

    /// Aggregated per-key statistics across shards: posting counts,
    /// distinct tids and bytes sum; the tid range spans from the first
    /// covering shard's range start to the last one's end (shard-local
    /// tids offset by the shard base). `None` when no shard indexes the
    /// key. Backs `si stats KEY`.
    pub fn key_stats(&self, key: &[u8]) -> Result<Option<KeyStats>> {
        let mut agg: Option<KeyStats> = None;
        for (entry, shard) in self.manifest.shards.iter().zip(&self.shards) {
            let Some(s) = shard.key_stats(key)? else {
                continue;
            };
            // Saturate at the shard's own bounds, whatever its bytes say.
            let top = entry.len.saturating_sub(1);
            let first = entry.base + s.first_tid.min(top);
            let last = entry.base + s.last_tid.min(top);
            match &mut agg {
                None => {
                    agg = Some(KeyStats {
                        first_tid: first,
                        last_tid: last,
                        ..s
                    })
                }
                Some(a) => {
                    a.postings += s.postings;
                    a.distinct_tids += s.distinct_tids;
                    a.bytes += s.bytes;
                    a.last_tid = last; // shards ascend in tid order
                                       // Per-shard histograms bucket shard-local ranges and
                                       // cannot be re-bucketed onto the merged span.
                    a.tid_hist = [0; TID_HIST_BUCKETS];
                }
            }
        }
        Ok(agg)
    }

    /// Fetches the tree with **global** id `tid` from whichever shard
    /// covers it.
    pub fn tree(&self, tid: TreeId) -> Result<ParseTree> {
        let i = self
            .manifest
            .shard_of(tid)
            .ok_or_else(|| StorageError::OutOfRange(format!("tid {tid}")))?;
        self.shards[i]
            .store()
            .get(tid - self.manifest.shards[i].base)
    }

    /// Evaluates `query` under a default [`ExecContext`].
    pub fn evaluate(&self, query: &Query) -> Result<EvalResult> {
        self.evaluate_with(query, &ExecContext::default())
    }

    /// Scatter-gather evaluation: plans per shard, skips shards whose
    /// own statistics prove them empty, evaluates the rest in parallel
    /// and concatenates the tid-disjoint match sets in shard order
    /// (global tids = shard-local tids + shard base). The result is
    /// identical whatever the shard count.
    ///
    /// A **sole** shard receives the caller's whole `ctx` — block
    /// cache, shared scans, stats memo, tree cache, timings. With
    /// several shards each one evaluates under a default context (plus
    /// its own timings): shard posting lists share canonical keys, so
    /// one block cache or stats memo must never span shards. When `ctx`
    /// carries enabled timings each of several shards collects its own
    /// and the gather phase folds every snapshot in under a `shard-N`
    /// group node, with the gather itself attributed to the merge
    /// stage; stage nanoseconds then sum **CPU time across shards**,
    /// which exceeds wall time when workers run in parallel.
    pub fn evaluate_with(&self, query: &Query, ctx: &ExecContext<'_>) -> Result<EvalResult> {
        let options = self.options();
        let cover = {
            let _span = ctx.span(Stage::Canonicalize);
            decompose(query, options.mss, options.coding)
        };
        let mut stats = EvalStats {
            covers: cover.subtrees.len(),
            shards: self.shards.len(),
            ..EvalStats::default()
        };
        let sole = self.shards.len() == 1;

        // Shard-skip pruning from per-shard statistics alone: no posting
        // list of a skipped shard is ever opened. Only a sole shard may
        // probe through the caller's stats memo; each of several probes
        // through its own. A live shard's evaluation is handed what its
        // probe found, to look no key up twice.
        let plan_span = ctx.span(Stage::Plan);
        let descents_before = si_storage::thread_counters().descents;
        let own_memos = ExecContext::default();
        let probe_ctx = if sole { ctx } else { &own_memos };
        let mut live: Vec<(usize, CoverLookups)> = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            match probe_shard(shard, &cover.subtrees, probe_ctx)? {
                Some(lookups) => live.push((i, lookups)),
                None => stats.shards_skipped += 1,
            }
        }
        stats.btree_descents = si_storage::thread_counters().descents - descents_before;
        drop(plan_span);
        if live.is_empty() {
            return Ok(EvalResult {
                matches: Vec::new(),
                stats,
            });
        }
        if sole {
            let result =
                self.shards[0].evaluate_as(query, self.exec_mode, ctx, Some(&live[0].1))?;
            stats.absorb(&result.stats);
            return Ok(EvalResult {
                matches: result.matches,
                stats,
            });
        }

        // Cross-shard overlap: hint every live shard's cover lists
        // before a single worker starts, instead of each worker
        // discovering its shard's lists serially when its turn comes —
        // the laggard shards of the scatter find their leading pages
        // already in flight. Held across the scatter; dropped at gather
        // time, cancelling whatever no worker consumed. These hints are
        // issued on the gather thread, so they are counted here rather
        // than in any worker's thread-local delta.
        let cover_hints: Vec<si_storage::PrefetchTicket> = if si_storage::prefetch_enabled() {
            live.iter()
                .flat_map(|(i, lookups)| {
                    let shard = &self.shards[*i];
                    cover
                        .subtrees
                        .iter()
                        .zip(lookups)
                        .filter_map(move |(st, &(_, place))| {
                            shard.prefetch_list(&st.key, place, crate::exec::COVER_HINT_BYTES)
                        })
                })
                .collect()
        } else {
            Vec::new()
        };
        stats.prefetch_hints += cover_hints.len() as u64;

        // Scatter: evaluate live shards on a worker pool.
        let timings = ctx.timings.filter(|t| t.enabled());
        let collect = timings.is_some();
        let eval = |slot: usize| {
            let shard = &self.shards[live[slot].0];
            eval_one_shard(shard, query, self.exec_mode, collect, &live[slot].1)
        };
        type ShardSlot = Mutex<Option<(EvalResult, Option<si_obs::TimingsSnapshot>)>>;
        let results: Vec<ShardSlot> = live.iter().map(|_| Mutex::new(None)).collect();
        let first_error: Mutex<Option<StorageError>> = Mutex::new(None);
        let next = AtomicUsize::new(0);
        let workers = self.query_threads.clamp(1, live.len());
        if workers == 1 {
            for (slot, result) in results.iter().enumerate() {
                *result.lock().unwrap() = Some(eval(slot)?);
            }
        } else {
            // Any shard failing fails the query, so other workers stop
            // claiming shards as soon as the flag flips.
            let failed = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while !failed.load(Ordering::Acquire) {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            if slot >= live.len() {
                                break;
                            }
                            match eval(slot) {
                                Ok(result) => *results[slot].lock().unwrap() = Some(result),
                                Err(e) => {
                                    first_error.lock().unwrap().get_or_insert(e);
                                    failed.store(true, Ordering::Release);
                                    break;
                                }
                            }
                        }
                    });
                }
            });
            if let Some(e) = first_error.lock().unwrap().take() {
                return Err(e);
            }
        }

        // Gather: tid-disjoint shard answers concatenate in shard order;
        // each is already sorted, so the global set is sorted too.
        let merge_span = ctx.span(Stage::Merge);
        let mut matches: Vec<(TreeId, u32)> = Vec::new();
        for (slot, &(i, _)) in results.iter().zip(&live) {
            let (result, snap) = slot
                .lock()
                .unwrap()
                .take()
                .expect("worker filled shard slot");
            if let (Some(t), Some(snap)) = (timings, snap.as_ref()) {
                t.absorb(snap, &format!("shard-{i}"));
            }
            let base = self.manifest.shards[i].base;
            matches.extend(result.matches.iter().map(|&(tid, pre)| (base + tid, pre)));
            stats.absorb(&result.stats);
        }
        drop(merge_span);
        Ok(EvalResult { matches, stats })
    }

    /// Appends `trees` as a brand-new shard: builds a full per-shard
    /// index under the next shard directory, storing the labels
    /// `interner` adds to the index's table, then atomically rewrites
    /// `MANIFEST.si`. **No existing shard file
    /// is touched.** The new documents get the next contiguous global
    /// tids. `interner` must be an append-only extension of
    /// [`ShardedIndex::interner`] (parse the new corpus against a copy
    /// of it, so existing label ids keep their meaning).
    pub fn ingest(&mut self, trees: &[ParseTree], interner: &LabelInterner) -> Result<ShardEntry> {
        if trees.is_empty() {
            return Err(StorageError::OutOfRange("ingest of zero trees".into()));
        }
        // An implicit shard has no manifest to append to, and its files
        // sit where the manifest's `shard-NNNN/` layout cannot name them.
        if !ShardManifest::exists(&self.dir) {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!(
                    "{} is not a sharded index; rebuild it with `si build --shards N` \
                     to enable incremental ingest",
                    self.dir.display()
                ),
            )));
        }
        // Inter-process exclusion: two concurrent writers (ingest or
        // rebuild) would read the same manifest, pick the same next
        // shard id and race building into the same directory — the
        // loser's documents would silently vanish in the manifest
        // rewrite. An OS file lock (released automatically on process
        // death, so a crashed writer never wedges the index)
        // serializes them; the second writer fails fast instead of
        // corrupting.
        let _lock = acquire_writer_lock(&self.dir)?;
        // Another writer may have changed the layout while we were
        // unlocked (the manifest is the source of truth); reload on
        // *any* difference — an ingest appends, but a rebuild can also
        // shrink or replace the shard set — carrying this handle's
        // configuration across.
        let on_disk = ShardManifest::read(&self.dir)?;
        if on_disk != self.manifest {
            let mut fresh = Self::open(&self.dir)?;
            fresh.exec_mode = self.exec_mode;
            fresh.query_threads = self.query_threads;
            *self = fresh;
        }
        let last_shard = self.shards.last().expect("manifest guarantees >= 1 shard");
        let existing = last_shard.store().interner();
        let extends = interner.len() >= existing.len()
            && existing
                .iter()
                .all(|(label, name)| interner.resolve(label) == name);
        if !extends {
            return Err(StorageError::Corrupt(
                "ingest interner must extend the index's interner".into(),
            ));
        }
        // The new shard gets a generation strictly above every live
        // one: `(id, generation)` then names this exact shard state,
        // so result-cache entries for untouched shards stay valid
        // while nothing stale can ever be served for this id.
        let entry = ShardEntry {
            id: self.manifest.next_id(),
            base: self.manifest.next_base(),
            len: trees.len() as TreeId,
            generation: self.manifest.max_generation() + 1,
        };
        let shard_dir = self.dir.join(entry.dir_name());
        // The table grows only when this batch brought new labels.
        let labels = if interner.len() == existing.len() {
            existing.clone()
        } else {
            Arc::new(interner.clone())
        };
        let shard = SubtreeIndex::build_shard(
            &shard_dir,
            trees,
            labels,
            existing.len(),
            self.options(),
            BuildPath::InMemory(1),
        )?;
        let mut manifest = self.manifest.clone();
        manifest.shards.push(entry);
        manifest.write(&self.dir)?;
        self.manifest = manifest;
        self.shards.push(Arc::new(shard));
        Ok(entry)
    }
}

/// Takes the directory's exclusive writer lock (`ingest.lock`), shared
/// by [`ShardedIndex::build`] and [`ShardedIndex::ingest`]. The OS
/// releases the lock when the returned handle drops — including on
/// process death, so a crashed writer never wedges the index. A held
/// lock makes the second writer fail fast instead of corrupting.
fn acquire_writer_lock(dir: &Path) -> Result<std::fs::File> {
    let path = dir.join("ingest.lock");
    let lock_file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)?;
    if let Err(e) = lock_file.try_lock() {
        return Err(StorageError::Io(std::io::Error::other(format!(
            "another build or ingest holds {}: {e}",
            path.display()
        ))));
    }
    Ok(lock_file)
}

/// Removes a sharded layout from `dir`: the manifest first (so readers
/// immediately stop dispatching to the shards), then every shard
/// directory it named. Required before building a bare
/// [`SubtreeIndex`] into a directory that held a sharded layout —
/// [`ShardedIndex::open`] dispatches on the manifest's presence, so a
/// stale `MANIFEST.si` would silently shadow the fresh index with the
/// old corpus's answers. Serializes against concurrent sharded writers via
/// the directory's writer lock. A no-op when `dir` holds no manifest;
/// a corrupt manifest is still removed (its shard directories are then
/// unknown and left behind as inert garbage).
pub fn remove_sharded_layout(dir: &Path) -> Result<()> {
    if !ShardManifest::exists(dir) {
        return Ok(());
    }
    let _lock = acquire_writer_lock(dir)?;
    remove_sharded_layout_unlocked(dir)
}

/// [`remove_sharded_layout`] body, for callers already holding the
/// writer lock (a second `try_lock` on the same file from the same
/// process would fail, not recurse).
fn remove_sharded_layout_unlocked(dir: &Path) -> Result<()> {
    if !ShardManifest::exists(dir) {
        return Ok(());
    }
    let entries = ShardManifest::read(dir)
        .map(|m| m.shards)
        .unwrap_or_default();
    std::fs::remove_file(ShardManifest::path(dir))?;
    for entry in entries {
        std::fs::remove_dir_all(dir.join(entry.dir_name())).ok();
    }
    Ok(())
}

/// Decodes the manifest's shared (mss, coding) into [`IndexOptions`].
fn manifest_options(manifest: &ShardManifest) -> Result<IndexOptions> {
    let coding = Coding::from_id(manifest.coding)
        .ok_or_else(|| StorageError::Corrupt("manifest coding id".into()))?;
    Ok(IndexOptions::new(manifest.mss as usize, coding))
}

/// Whether `shard`'s own statistics prove the query empty there, from
/// its lists' headers alone: a cover key absent from the shard, or
/// disjoint shard-local tid ranges of its cover keys. A `ctx`
/// with a [`crate::stats::StatsCache`] memoizes the per-key probes,
/// which the query service relies on (one probe per key per shard
/// lifetime, not per query); the memo must belong to this shard alone.
pub fn shard_provably_empty(
    shard: &SubtreeIndex,
    cover_subtrees: &[crate::cover::CoverSubtree],
    ctx: &ExecContext<'_>,
) -> Result<bool> {
    Ok(probe_shard(shard, cover_subtrees, ctx)?.is_none())
}

/// [`shard_provably_empty`], keeping what it looked up when the shard
/// is live: `None` means provably empty.
fn probe_shard(
    shard: &SubtreeIndex,
    cover_subtrees: &[crate::cover::CoverSubtree],
    ctx: &ExecContext<'_>,
) -> Result<Option<CoverLookups>> {
    let Some(lookups) = lookup_cover(shard, cover_subtrees, ctx)? else {
        return Ok(None);
    };
    let disjoint = intersect_tid_ranges(lookups.iter().map(|(stats, _)| stats)).is_none();
    Ok((!disjoint).then_some(lookups))
}

/// Evaluates `query` against one shard of several under a default
/// context, which holds no resource keyed by canonical key (those must
/// not span shards). With `collect_timings` the
/// worker records a private [`si_obs::Timings`] and returns its snapshot
/// for the gather phase to fold in.
fn eval_one_shard(
    shard: &SubtreeIndex,
    query: &Query,
    exec_mode: ExecMode,
    collect_timings: bool,
    probed: &CoverLookups,
) -> Result<(EvalResult, Option<si_obs::TimingsSnapshot>)> {
    let timings = collect_timings.then(|| si_obs::Timings::new(true));
    let ctx = ExecContext {
        timings: timings.as_ref(),
        ..ExecContext::default()
    };
    let result = shard.evaluate_as(query, exec_mode, &ctx, Some(probed))?;
    Ok((result, timings.map(|t| t.snapshot())))
}
