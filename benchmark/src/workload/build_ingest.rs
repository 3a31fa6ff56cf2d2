//! `build-ingest`: the write path. Each measured round builds a
//! monolithic index, a two-shard index over the same trees and then
//! appends forty ingest shards — extraction, canonical coding, posting
//! encoding, B+Tree bulk load and the data file do all the work and the
//! read path none, so a read-side gain bought with a slower build or a
//! fatter on-disk format shows here.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use si_core::canonical::canon_encode;
use si_core::coding::{NodeVal, PostingBuilder};
use si_core::extract::for_each_subtree;
use si_core::{Coding, IndexOptions, IndexStats, ShardedIndex, SubtreeIndex};
use si_corpus::rng::StdRng;
use si_corpus::Corpus;
use si_parsetree::{NodeId, ParseTree, TreeId};
use si_query::parse_query;
use si_storage::{BTree, CorpusStore, PAGE_SIZE};

use super::{
    dataset, index_options, opens_after_pass, sharded_config, timed, Measured, Outcome, RunArgs,
    MSS,
};
use crate::digest::{differs_from_first, match_digest};
use crate::schema::Ledger;
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;
use crate::zipf::shuffle;

/// Workload name.
pub const NAME: &str = "build-ingest";

/// Measured rounds. Fixed, so both sides of a comparison compute the
/// same statistic.
const ROUNDS: usize = 3;

/// Shards of the sharded build; with the ingests a round ends on
/// `BUILD_SHARDS + ingests` shards.
const BUILD_SHARDS: usize = 2;

/// Seed-independent queries answered by both indexes after each round:
/// the sharded answer restricted to the built trees must equal the
/// monolithic answer, and both must repeat round after round.
const CHECK_QUERIES: [&str; 4] = [
    "S(NP(DT)(NN))(VP(VBZ)(NP(NNP)(NNP)))",
    "NP(DT)(JJ)(NN)",
    "VP(VBD)(NP(DT)(NN))(PP(IN)(NP))",
    "S(NP(PRP))(VP(//NN))",
];

/// Sizes of the workload.
struct Params {
    /// Trees each of the two builds indexes.
    build_trees: usize,
    /// `ShardedIndex::ingest` calls per round.
    ingests: usize,
    /// Trees per ingest call.
    ingest_trees: usize,
    /// Leading trees the layer probes of a `--trace` run work on.
    probe_trees: usize,
}

impl Params {
    /// The sizes at the manifest's `run_seconds`, scaled to `--seconds`
    /// (a smoke run is a one-second run).
    fn new(args: &RunArgs) -> Self {
        Self {
            build_trees: args.scaled(64_000),
            ingests: 40,
            ingest_trees: args.scaled(800),
            probe_trees: if args.smoke { 1_000 } else { 20_000 },
        }
    }

    fn corpus_trees(&self) -> usize {
        self.build_trees + self.ingests * self.ingest_trees
    }

    /// Trees indexed by one round: two builds plus the ingests.
    fn round_trees(&self) -> u64 {
        (2 * self.build_trees + self.ingests * self.ingest_trees) as u64
    }
}

/// What one round measured and left on disk.
struct Round {
    /// Summed wall of the builds and ingests (directory clean-up and
    /// answer checks excluded).
    wall_s: f64,
    /// Process CPU milliseconds over the same calls.
    cpu_ms: f64,
    mono_s: f64,
    sharded_s: f64,
    ingest_ms: Vec<f64>,
    mono_stats: IndexStats,
    shards: usize,
    /// Engine calls that returned `Err` plus answer checks that failed.
    failed: u64,
    /// Engine calls plus answer checks.
    attempted: u64,
    /// Digests of the check queries: monolithic, then sharded.
    digests: Vec<u64>,
}

/// One full round into fresh directories under `dir`; ingest batch
/// `order[k]` is the `k`-th appended.
fn round(p: &Params, corpus: &Corpus, order: &[u32], dir: &Path, tracer: &mut Tracer) -> Round {
    let (mono_dir, sharded_dir) = (dir.join("mono"), dir.join("sharded"));
    sys::fresh_dir(&mono_dir).expect("mono directory");
    sys::fresh_dir(&sharded_dir).expect("sharded directory");
    let trees = corpus.trees();
    let built = &trees[..p.build_trees];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut ingest_ms = Vec::with_capacity(p.ingests);

    // Nothing after a failed build can be measured, so a build error
    // ends the run without a result.
    let ((mono, sharded, mono_s, sharded_s), wall_s, cpu_ms) = timed(|| {
        let started = Instant::now();
        let mono = tracer.span("si_core.build.mono", |_| {
            SubtreeIndex::build(&mono_dir, built, corpus.interner(), index_options())
                .expect("mono build")
        });
        let mono_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut sharded = tracer.span("si_core.sharded.build", |_| {
            ShardedIndex::build(
                &sharded_dir,
                built,
                corpus.interner(),
                index_options(),
                sharded_config(BUILD_SHARDS),
            )
            .expect("sharded build")
        });
        let sharded_s = started.elapsed().as_secs_f64();

        for (k, &batch) in order.iter().enumerate() {
            let from = p.build_trees + batch as usize * p.ingest_trees;
            let batch = &trees[from..from + p.ingest_trees];
            tracer.set_op(k as u64);
            let started = Instant::now();
            let entry = tracer.span("si_core.sharded.ingest", |_| {
                sharded.ingest(batch, corpus.interner())
            });
            ingest_ms.push(started.elapsed().as_secs_f64() * 1e3);
            failed += u64::from(entry.is_err());
        }
        (mono, sharded, mono_s, sharded_s)
    });
    attempted += 2 + p.ingests as u64;

    // Answers: untimed. The sharded index holds the built trees first
    // (global tids follow build then ingest order), so its answer cut at
    // `build_trees` must be the monolithic answer.
    let mut interner = mono.interner();
    let mut digests = Vec::with_capacity(2 * CHECK_QUERIES.len());
    let mut sharded_digests = Vec::with_capacity(CHECK_QUERIES.len());
    for text in CHECK_QUERIES {
        attempted += 1;
        let query = parse_query(text, &mut interner).expect("check query parses");
        match (mono.evaluate(&query), sharded.evaluate(&query)) {
            (Ok(m), Ok(s)) => {
                let cut = s
                    .matches
                    .partition_point(|&(tid, _)| (tid as usize) < p.build_trees);
                failed += u64::from(m.matches != s.matches[..cut] || m.matches.is_empty());
                digests.push(match_digest(&m.matches));
                sharded_digests.push(match_digest(&s.matches));
            }
            _ => failed += 1,
        }
    }
    digests.append(&mut sharded_digests);

    Round {
        wall_s,
        cpu_ms,
        mono_s,
        sharded_s,
        ingest_ms,
        mono_stats: mono.stats(),
        shards: sharded.manifest().shards.len(),
        failed,
        attempted,
        digests,
    }
}

/// Fresh open of the 42-shard index plus the first query, in ms.
fn open_first(dir: &Path, tracer: &mut Tracer) -> (f64, Option<u64>) {
    let started = Instant::now();
    let digest = tracer.span("open_first", |tracer| {
        let index = tracer.span("si_core.open.open", |_| ShardedIndex::open(dir).ok())?;
        tracer.span("si_core.open.first_query", |_| {
            let mut interner = index.interner();
            let query = parse_query(CHECK_QUERIES[0], &mut interner).ok()?;
            Some(match_digest(&index.evaluate(&query).ok()?.matches))
        })
    });
    (started.elapsed().as_secs_f64() * 1e3, digest)
}

/// One subtree occurrence of the probe slice, as the build sees it.
struct Occurrence {
    tid: TreeId,
    key: Vec<u8>,
    /// Nodes in canonical key order, root first.
    nodes: Vec<NodeId>,
    /// What `PostingBuilder::push` takes for `nodes`.
    values: Vec<(NodeVal, u8)>,
}

/// The `(values, pre-order rank)` list `PostingBuilder::push` takes for
/// the occurrence `nodes` of a key in `tree`.
fn occurrence_values(tree: &ParseTree, nodes: &[NodeId]) -> Vec<(NodeVal, u8)> {
    let mut pres: Vec<u32> = nodes.iter().map(|&n| tree.pre(n)).collect();
    pres.sort_unstable();
    nodes
        .iter()
        .map(|&n| {
            let val = NodeVal {
                pre: tree.pre(n),
                post: tree.post(n),
                level: tree.level(n),
            };
            let order = pres.binary_search(&val.pre).expect("own pre") as u8 + 1;
            (val, order)
        })
        .collect()
}

/// Calls each write-side layer's public functions on a corpus slice,
/// one span per call, and records the per-layer metrics they yield.
fn probe_layers(p: &Params, corpus: &Corpus, dir: &Path, tracer: &mut Tracer, layers: &mut Ledger) {
    let slice = &corpus.trees()[..p.probe_trees];

    // Extraction alone.
    let mut subtrees = 0u64;
    tracer.span("si_core.extract.for_each_subtree", |_| {
        for tree in slice {
            for_each_subtree(tree, MSS, |sub| {
                std::hint::black_box(sub);
                subtrees += 1;
            });
        }
    });

    // Canonical encoding alone, over the node sets extraction found.
    let mut occurrences: Vec<Occurrence> = Vec::new();
    for (tid, tree) in slice.iter().enumerate() {
        for_each_subtree(tree, MSS, |sub| {
            occurrences.push(Occurrence {
                tid: tid as TreeId,
                key: sub.key.clone(),
                values: occurrence_values(tree, &sub.nodes),
                nodes: sub.nodes.clone(),
            });
        });
    }
    tracer.span("si_core.canonical.canon_encode", |_| {
        for occ in &occurrences {
            let tree = &slice[occ.tid as usize];
            let key = canon_encode(
                occ.nodes[0],
                &|n: NodeId| tree.label(n).id(),
                &|n: NodeId| tree.children(n).filter(|c| occ.nodes.contains(c)),
            );
            std::hint::black_box(key);
        }
    });

    // Posting encoding alone: one builder per key, occurrences pushed
    // in (tid, root.pre) order as the build pushes them.
    let mut slots: HashMap<&[u8], usize> = HashMap::new();
    let targets: Vec<usize> = occurrences
        .iter()
        .map(|occ| {
            let next = slots.len();
            *slots.entry(occ.key.as_slice()).or_insert(next)
        })
        .collect();
    let mut builders: Vec<PostingBuilder> = (0..slots.len())
        .map(|_| PostingBuilder::new(Coding::RootSplit))
        .collect();
    let encoded_bytes = tracer.span("si_core.coding.encode", |_| {
        for (occ, &slot) in occurrences.iter().zip(&targets) {
            builders[slot].push(occ.tid, &occ.values);
        }
        builders.iter().map(|b| b.byte_len() as u64).sum::<u64>()
    });

    // The paper's size claim: the same slice under both structural codings.
    let size_of = |coding: Coding, name: &str| {
        let d = dir.join(name);
        sys::fresh_dir(&d).expect("probe directory");
        SubtreeIndex::build(&d, slice, corpus.interner(), IndexOptions::new(MSS, coding))
            .expect("probe build")
            .stats()
            .index_bytes
    };
    let root_split = size_of(Coding::RootSplit, "probe-rootsplit");
    let interval = size_of(Coding::SubtreeInterval, "probe-interval");

    // B+Tree bulk load alone: re-load the monolithic index's pairs.
    let mono = SubtreeIndex::open(&dir.join("mono")).expect("mono opens");
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = mono
        .iter_keys()
        .expect("key scan")
        .collect::<Result<_, _>>()
        .expect("key scan");
    let overflow_cap = PAGE_SIZE - 7; // overflow page: tag u8 | next u32 | len u16 | data
    let overflow_pages: u64 = pairs
        .iter()
        .filter(|(_, v)| v.len() > si_storage::btree::INLINE_MAX)
        .map(|(_, v)| v.len().div_ceil(overflow_cap) as u64)
        .sum();
    let reload_path = dir.join("probe-reload.bt");
    let reloaded = tracer.span("si_storage.btree.bulk_load", |_| {
        let mut tree = BTree::bulk_load(&reload_path, pairs).expect("bulk load");
        tree.flush().expect("flush");
        tree.stats()
    });

    // Data file alone.
    let store = tracer.span("si_storage.datafile.build", |_| {
        CorpusStore::build(
            &dir.join("probe-corpus"),
            corpus.trees()[..p.build_trees].iter(),
            corpus.interner(),
        )
        .expect("corpus store")
    });

    let times = tracer.layer_times();
    let secs = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let built = p.build_trees as f64;
    layers.set(
        "si_core.extract.subtrees_per_s",
        subtrees as f64 / secs("si_core.extract.for_each_subtree"),
    );
    layers.set(
        "si_core.extract.subtrees_per_tree",
        subtrees as f64 / p.probe_trees as f64,
    );
    layers.set(
        "si_core.canonical.keys_per_s",
        subtrees as f64 / secs("si_core.canonical.canon_encode"),
    );
    layers.set(
        "si_core.coding.encode_mb_per_s",
        encoded_bytes as f64 / 1e6 / secs("si_core.coding.encode"),
    );
    layers.set(
        "si_core.coding.rootsplit_over_interval_bytes",
        root_split as f64 / interval as f64,
    );
    layers.set(
        "si_storage.btree.bulk_load_s",
        secs("si_storage.btree.bulk_load"),
    );
    layers.set("si_storage.btree.height", f64::from(reloaded.height));
    layers.set("si_storage.btree.overflow_pages", overflow_pages as f64);
    layers.set(
        "si_storage.btree.file_bytes_per_tree",
        reloaded.file_bytes as f64 / built,
    );
    layers.set(
        "si_storage.datafile.build_s",
        secs("si_storage.datafile.build"),
    );
    layers.set(
        "si_storage.datafile.bytes_per_tree",
        store.data_bytes() as f64 / built,
    );
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let p = Params::new(args);
    let dir: PathBuf = args.dir(NAME);
    let mut quiet = Tracer::new(false);
    let mut out = Outcome::default();
    let mut order: Vec<u32> = (0..p.ingests as u32).collect();
    shuffle(
        &mut order,
        &mut StdRng::seed_from_u64(args.seed ^ 0x494E_4745_5354),
    );

    // Set-up is the corpus plus one full discarded round, which leaves
    // the allocator, the page cache and the directory tree warm.
    let started = Instant::now();
    let corpus = tracer.span("si_corpus.generate", |_| dataset(p.corpus_trees()));
    let generate_s = started.elapsed().as_secs_f64();
    let warm = round(&p, &corpus, &order, &dir, &mut quiet);
    out.setup_s = started.elapsed().as_secs_f64();
    let reference = warm.digests.clone();
    let mut rounds = vec![warm];

    // A measured phase: `ROUNDS` rounds, each a pass whose latency
    // samples are its ingest calls; fresh opens of the 42-shard index a
    // round leaves behind are timed after it.
    let mut first_answer = None;
    let mut phase = |tracer: &mut Tracer, out: &mut Outcome| {
        let mut m = Measured::default();
        for pass in 0..ROUNDS {
            let r = round(&p, &corpus, &order, &dir, tracer);
            m.latencies_ms.extend_from_slice(&r.ingest_ms);
            m.add_pass(p.round_trees(), r.wall_s, r.cpu_ms);
            rounds.push(r);
            for _ in 0..opens_after_pass(pass, ROUNDS) {
                let (ms, digest) = open_first(&dir.join("sharded"), tracer);
                m.open_first_ms.push(ms);
                out.attempted += 1;
                out.failed += u64::from(differs_from_first(&mut first_answer, digest));
            }
        }
        m.finish()
    };
    if args.trace {
        let untraced = phase(&mut quiet, &mut out);
        out.untraced = Some(untraced);
        let traced = phase(tracer, &mut out);
        out.measured = traced;
    } else {
        let measured = phase(&mut quiet, &mut out);
        out.measured = measured;
    }

    for r in &rounds {
        out.attempted += r.attempted;
        out.failed += r.failed + u64::from(r.digests != reference);
        if r.shards != BUILD_SHARDS + p.ingests {
            out.violations.push(format!(
                "{NAME}: round ended with {} shards, expected {}",
                r.shards,
                BUILD_SHARDS + p.ingests
            ));
        }
    }

    let last = rounds.last().expect("at least one round");
    out.index_bytes = sys::dir_bytes(&dir.join("mono")).expect("mono size")
        + sys::dir_bytes(&dir.join("sharded")).expect("sharded size");
    out.trees_indexed = p.round_trees();

    if args.trace {
        let l = &mut out.layers;
        l.set("si_corpus.generate_s", generate_s);
        l.set("si_core.build.mono_s", last.mono_s);
        l.set("si_core.build.keys", last.mono_stats.keys as f64);
        l.set(
            "si_core.build.postings_per_tree",
            last.mono_stats.postings as f64 / p.build_trees as f64,
        );
        l.set(
            "si_core.coding.posting_bytes_per_tree",
            last.mono_stats.posting_bytes as f64 / p.build_trees as f64,
        );
        l.set("si_core.sharded.build_s", last.sharded_s);
        l.set("si_core.sharded.ingest_p50_ms", median(&last.ingest_ms));
        probe_layers(&p, &corpus, &dir, tracer, &mut out.layers);
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| {
        let secs: Vec<String> = rounds.iter().map(|r| format!("{:.3}", f(r))).collect();
        secs.join(" ")
    };
    out.notes.push(format!(
        "seconds per round, warm-up first: mono {} | sharded {} | ingests {}",
        per_round(&|r| r.mono_s),
        per_round(&|r| r.sharded_s),
        per_round(&|r| r.ingest_ms.iter().sum::<f64>() / 1e3),
    ));
    out.notes.push(format!(
        "round: build {} trees mono + {BUILD_SHARDS}-shard, then {} ingests of {} trees; \
         last round mono {:.3} s, sharded {:.3} s, ingest p50 {:.2} ms, {} shards",
        p.build_trees,
        p.ingests,
        p.ingest_trees,
        last.mono_s,
        last.sharded_s,
        median(&last.ingest_ms),
        last.shards,
    ));
    out
}
