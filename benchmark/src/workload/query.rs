//! `query-selective` and `query-scan`: one client, one thread, a
//! memory-mapped monolithic index. The two differ only in which queries
//! their pool admits — small posting lists (front-end bound) or long
//! ones (decode/join bound) — so a change that moves one and not the
//! other names the layer it touched.

use std::ops::{Range, RangeInclusive};
use std::path::PathBuf;
use std::time::Instant;

use si_core::canonical::key_size;
use si_core::coding::{PostingCursor, SliceSource};
use si_core::cover::decompose;
use si_core::plan::{plan_structural_with, DEFAULT_ROOT_PREF_FACTOR};
use si_core::{ExecContext, ExecMode, PlannerMode, SubtreeIndex};
use si_corpus::rng::StdRng;
use si_corpus::{FbClass, GeneratorConfig};
use si_obs::{Stage, Timings};
use si_parsetree::LabelInterner;
use si_query::parse_query;
use si_storage::BTree;

use super::{
    build_index, dataset, opens_after_pass, prepare_in_child, timed, Measured, Outcome, RunArgs,
    HELDOUT_SEED, PASSES,
};
use crate::digest::{differs_from_first, match_digest, Checker};
use crate::pool::{build_pool, listed_postings, wh_descendant_variants, PoolQuery, PoolSpec};
use crate::prepared::{Prepared, FILE_NAME};
use crate::schema::Ledger;
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;
use crate::zipf::shuffle;

/// A stratum of a pool: queries of like cost. Cost follows node count
/// (parse, cover, plan and one descent per cover key — up to three nodes
/// a query is a single key and a scan, above that a join) and postings
/// fetched (decode and join), so a stratum is a range of each, and
/// filling every stratum to the same quota gives every seed's pool the
/// same cost profile.
type Cell = (RangeInclusive<usize>, Range<u64>);

/// Strata of `query-selective`: the (size, fetched) cells the dataset
/// fills readily. Four-node queries, for one, never fetch fewer than
/// 1,500 postings, and three-node ones rarely more.
const SELECTIVE_CELLS: [Cell; 10] = [
    (1..=3, 0..150),
    (1..=3, 150..500),
    (1..=3, 500..1_500),
    (1..=2, 1_500..5_000),
    (4..=6, 1_500..3_000),
    (4..=6, 3_000..5_000),
    (5..=8, 0..150),
    (5..=8, 150..500),
    (5..=6, 500..1_500),
    (7..=10, 500..5_000),
];

/// Strata of `query-scan`: equal-width bins of postings fetched.
const SCAN_CELLS: [Cell; 5] = [
    (1..=usize::MAX, 100_000..200_000),
    (1..=usize::MAX, 200_000..300_000),
    (1..=usize::MAX, 300_000..400_000),
    (1..=usize::MAX, 400_000..500_000),
    (1..=usize::MAX, 500_000..600_000),
];

/// The smoke corpus is this many times smaller than the full one, and
/// so are its posting lists.
const SMOKE_SHRINK: u64 = 40;

/// `cells` with every fetched range divided by `scale`.
fn shrunk(cells: &[Cell], scale: u64) -> Vec<Cell> {
    cells
        .iter()
        .map(|(sizes, f)| (sizes.clone(), f.start / scale..f.end / scale))
        .collect()
}

/// Sizes and admission rules of one of the two workloads.
pub struct Params {
    /// Workload name.
    pub name: &'static str,
    /// Trees indexed.
    pub trees: usize,
    /// Held-out trees query shapes are cut from.
    pub heldout: usize,
    /// Leading corpus trees the FB frequency bands are computed on.
    pub bands_slice: usize,
    /// Pool composition.
    pub spec: PoolSpec,
    /// The pool's strata, disjoint. A candidate is executed once and
    /// belongs to the cell holding its size and what it fetched.
    pub cells: Vec<Cell>,
    /// Range of postings every pool query must fetch: the span of `cells`.
    pub fetched: Range<u64>,
    /// Operations per measured pass at the manifest's `run_seconds`.
    pub ops_per_pass: usize,
    /// Whether a `--trace` run also replays the pool through the
    /// buffered pager (only worth its time where lists span many pages).
    pub buffered_probe: bool,
    /// Seed-independent query answered after every fresh open.
    pub first_query: &'static str,
}

impl Params {
    /// `query-selective` at full or smoke scale.
    pub fn selective(smoke: bool) -> Self {
        let scale = if smoke { SMOKE_SHRINK } else { 1 };
        Self {
            name: "query-selective",
            trees: if smoke { 5_000 } else { 200_000 },
            heldout: if smoke { 500 } else { 3_000 },
            bands_slice: 1_500,
            spec: PoolSpec {
                classes: &[FbClass::L, FbClass::Ml, FbClass::Hl, FbClass::Hml],
                strata: SELECTIVE_CELLS.len(),
                per_stratum: if smoke { 2 } else { 40 },
                wh: Vec::new(),
                max_draws: if smoke { 100 } else { 3_000 },
            },
            cells: shrunk(&SELECTIVE_CELLS, scale),
            fetched: 0..5_000 / scale,
            ops_per_pass: 15_000,
            buffered_probe: false,
            first_query: "NP(DT)(NN(noun40))",
        }
    }

    /// `query-scan` at full or smoke scale.
    pub fn scan(smoke: bool) -> Self {
        let scale = if smoke { SMOKE_SHRINK } else { 1 };
        Self {
            name: "query-scan",
            trees: if smoke { 5_000 } else { 200_000 },
            heldout: if smoke { 500 } else { 3_000 },
            bands_slice: 1_500,
            spec: PoolSpec {
                classes: &[FbClass::H, FbClass::Hm],
                strata: SCAN_CELLS.len(),
                per_stratum: if smoke { 3 } else { 10 },
                wh: wh_descendant_variants(),
                max_draws: if smoke { 100 } else { 3_000 },
            },
            cells: shrunk(&SCAN_CELLS, scale),
            fetched: 100_000 / scale..600_000 / scale,
            ops_per_pass: 180,
            buffered_probe: true,
            first_query: "S(NP(DT)(NN))(VP(VBZ)(NP(NNP)(NNP)))",
        }
    }
}

/// Body of the `prepare` child: dataset → index on disk, the pool
/// generated from `--seed`, every pool query executed once (what it
/// fetched decides admission, its answer is the digest later
/// executions must reproduce) and checked against the materializing
/// oracle.
pub fn prepare(p: &Params, args: &RunArgs) {
    let dir = args.dir(p.name);
    let index_dir = dir.join("index");
    let (generate_s, build_s) = build_index(p.trees, 1, &index_dir);

    let index = SubtreeIndex::open(&index_dir).expect("index open");
    let mut interner = index.interner();
    let heldout = GeneratorConfig::default()
        .with_seed(args.seed ^ HELDOUT_SEED)
        .generate_into(p.heldout, &mut interner);
    // The generator is sequential, so this is the indexed corpus's
    // leading slice, label ids included.
    let bands_from = dataset(p.bands_slice.min(p.trees));

    let started = Instant::now();
    let mut answers = Vec::new();
    let pool = build_pool(
        &p.spec,
        args.seed,
        &bands_from,
        &heldout,
        &mut interner,
        |q, open| {
            let (listed, _) = listed_postings(q, index.options(), |key| {
                Some(index.key_stats(key).ok()??.postings)
            })?;
            // A candidate whose lists hold more than a pool query may
            // fetch is not even tried: its cost would follow the seeks
            // that skip the rest, which no stratum accounts for.
            if listed >= p.fetched.end {
                return None;
            }
            // A query never fetches more than its lists hold, so the
            // cells it can land in are known before it runs. Skip the
            // execution when all of them are full.
            let reachable = |&(i, (sizes, f)): &(usize, &Cell)| {
                open[i] > 0 && sizes.contains(&q.len()) && f.start <= listed
            };
            p.cells.iter().enumerate().find(reachable)?;
            let result = index.evaluate(q).ok()?;
            let fetched = result.stats.postings_fetched as u64;
            let stratum = p
                .cells
                .iter()
                .position(|(sizes, f)| sizes.contains(&q.len()) && f.contains(&fetched))?;
            (open[stratum] > 0).then(|| {
                answers.push((result.matches.len() as u64, match_digest(&result.matches)));
                (stratum, fetched)
            })
        },
    );
    let mut prepared = Prepared {
        generate_s,
        build_s,
        pool_s: started.elapsed().as_secs_f64(),
        draws: pool.draws,
        pool: pool.queries,
        ..Prepared::default()
    };
    // The smoke tier checks the schema, not the workload: its corpus
    // is too small to fill every stratum.
    if let (Some(s), false) = (&pool.shortfall, args.smoke) {
        prepared
            .violations
            .push(format!("{}: pool not filled: {s}", p.name));
    }
    for (q, (matches, digest)) in prepared.pool.iter_mut().zip(answers) {
        q.answer = matches;
        q.digest = Some(digest);
    }

    // Oracle: the materializing evaluator on the same index.
    let mut oracle = SubtreeIndex::open(&index_dir).expect("oracle open");
    oracle.set_exec_mode(ExecMode::Materialized);
    prepared.keep_oracle_confirmed(p.name, |text| {
        let query = parse_query(text, &mut interner).ok()?;
        Some(match_digest(&oracle.evaluate(&query).ok()?.matches))
    });
    prepared.write(&dir.join(FILE_NAME)).expect("prepared file");
}

/// Everything the measured phase needs.
struct Ready {
    dir: PathBuf,
    index: SubtreeIndex,
    interner: LabelInterner,
    pool: Vec<PoolQuery>,
    checker: Checker,
}

/// One timed operation: parse, evaluate, digest. Returns the digest
/// (`None` on any engine error) for the checker.
fn run_op(r: &mut Ready, i: usize, tracer: &mut Tracer, timings: Option<&Timings>) -> OpResult {
    let Ready {
        index,
        interner,
        pool,
        ..
    } = r;
    let text = &pool[i].text;
    tracer.span("op", |tracer| {
        let query = tracer.span("si_query.parser.parse", |_| {
            parse_query(text, interner).ok()
        });
        let result = query.and_then(|q| {
            tracer.span("si_core.exec.evaluate", |_| {
                let ctx = ExecContext {
                    timings,
                    ..ExecContext::default()
                };
                index.evaluate_with(&q, &ctx).ok()
            })
        });
        let digest = result
            .as_ref()
            .map(|res| tracer.span("benchmark.digest", |_| match_digest(&res.matches)));
        OpResult {
            digest,
            stats: result.map(|res| (res.stats, res.matches.len())),
        }
    })
}

struct OpResult {
    digest: Option<u64>,
    stats: Option<(si_core::EvalStats, usize)>,
}

/// Counter sums over traced operations.
#[derive(Default)]
struct Tally {
    ops: u64,
    covers: u64,
    fetched: u64,
    skipped: u64,
    seeks: u64,
    matches: u64,
    range_pruned: u64,
    peak_posting_bytes: u64,
    stage_ns: [u64; si_obs::STAGE_COUNT],
}

impl Tally {
    fn add(&mut self, stats: &si_core::EvalStats, matches: usize, timings: &Timings) {
        self.ops += 1;
        self.covers += stats.covers as u64;
        self.fetched += stats.postings_fetched as u64;
        self.skipped += stats.postings_skipped;
        self.seeks += stats.seeks;
        self.matches += matches as u64;
        self.range_pruned += u64::from(stats.range_pruned);
        self.peak_posting_bytes += stats.peak_posting_bytes as u64;
        for (slot, stage) in self.stage_ns.iter_mut().zip(Stage::ALL) {
            *slot += timings.stage_nanos(stage);
        }
    }

    fn stage_ms_per_op(&self, stage: Stage) -> f64 {
        let i = Stage::ALL.iter().position(|&s| s == stage).expect("stage");
        self.stage_ns[i] as f64 / 1e6 / self.ops.max(1) as f64
    }
}

/// The single closed-loop client: it walks the pool in a seeded order,
/// one pass continuing where the previous one stopped.
struct Client {
    r: Ready,
    order: Vec<u32>,
    cursor: usize,
    /// Digest of the first-open query's answer, pinned by its first run.
    first_answer: Option<u64>,
}

impl Client {
    /// `ops` timed operations, their latencies appended to `latencies_ms`.
    /// Returns the wall seconds and CPU milliseconds they took.
    fn pass(
        &mut self,
        ops: usize,
        latencies_ms: &mut Vec<f64>,
        tracer: &mut Tracer,
        mut tally: Option<&mut Tally>,
    ) -> (f64, f64) {
        let ((), seconds, cpu_ms) = timed(|| {
            for _ in 0..ops {
                let i = self.order[self.cursor % self.order.len()] as usize;
                self.cursor += 1;
                tracer.set_op(self.cursor as u64);
                let timings = tally.as_ref().map(|_| Timings::new(true));
                let started = Instant::now();
                let op = run_op(&mut self.r, i, tracer, timings.as_ref());
                latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                self.r.checker.check(i, op.digest);
                if let (Some(t), Some((stats, matches)), Some(timings)) =
                    (tally.as_deref_mut(), op.stats.as_ref(), timings.as_ref())
                {
                    t.add(stats, *matches, timings);
                }
            }
        });
        (seconds, cpu_ms)
    }

    /// A fresh open of the index plus the first query answered, in ms;
    /// the answer is checked like any other operation.
    fn open_first(&mut self, p: &Params, tracer: &mut Tracer) -> f64 {
        let dir = &self.r.dir;
        let started = Instant::now();
        let digest = tracer.span("open_first", |tracer| {
            let index = tracer.span("si_core.open.open", |_| SubtreeIndex::open(dir).ok())?;
            tracer.span("si_core.open.first_query", |_| {
                let mut interner = index.interner();
                let query = parse_query(p.first_query, &mut interner).ok()?;
                Some(match_digest(&index.evaluate(&query).ok()?.matches))
            })
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let checker = &mut self.r.checker;
        checker.attempted += 1;
        checker.failed += u64::from(differs_from_first(&mut self.first_answer, digest));
        ms
    }

    /// [`PASSES`] measured passes of `ops` operations, a few fresh opens
    /// timed after each.
    fn measure(
        &mut self,
        p: &Params,
        ops: usize,
        tracer: &mut Tracer,
        mut tally: Option<&mut Tally>,
    ) -> Measured {
        let mut m = Measured::default();
        for pass in 0..PASSES {
            let (seconds, cpu_ms) =
                self.pass(ops, &mut m.latencies_ms, tracer, tally.as_deref_mut());
            m.add_pass(ops as u64, seconds, cpu_ms);
            for _ in 0..opens_after_pass(pass, PASSES) {
                m.open_first_ms.push(self.open_first(p, tracer));
            }
        }
        m.finish()
    }
}

/// Probes each layer's public functions on every pool query, one span
/// per call, and returns the bytes read and postings decoded.
fn probe_layers(r: &mut Ready, tracer: &mut Tracer) -> (u64, u64) {
    let btree = BTree::open_readonly(&r.dir.join("index.bt")).expect("btree opens");
    let options = r.index.options();
    let skip_headers = r.index.has_skip_headers();
    let (mut bytes_read, mut decoded) = (0u64, 0u64);
    for (i, entry) in r.pool.iter().enumerate() {
        tracer.set_op(i as u64);
        let query = parse_query(&entry.text, &mut r.interner).expect("pool query parses");
        tracer.span("probe", |tracer| {
            let cover = tracer.span("si_core.cover.decompose", |_| {
                decompose(&query, options.mss, options.coding)
            });
            let stats: Vec<_> = cover
                .subtrees
                .iter()
                .filter_map(|st| {
                    tracer.span("si_core.stats.key_stats", |_| {
                        r.index.key_stats(&st.key).ok().flatten()
                    })
                })
                .collect();
            if stats.len() == cover.subtrees.len() {
                tracer.span("si_core.plan.plan", |_| {
                    std::hint::black_box(plan_structural_with(
                        &query,
                        &cover,
                        options.coding,
                        &stats,
                        PlannerMode::CostBased,
                        DEFAULT_ROOT_PREF_FACTOR,
                    ));
                });
            }
            for st in &cover.subtrees {
                tracer.span("si_storage.btree.lookup", |_| {
                    std::hint::black_box(btree.value_len(&st.key).ok().flatten());
                });
                let mut bytes = Vec::new();
                tracer.span("si_storage.btree.read", |_| {
                    if let Ok(Some(mut reader)) = btree.value_reader(&st.key) {
                        while matches!(reader.read_chunk(&mut bytes), Ok(n) if n > 0) {}
                    }
                });
                bytes_read += bytes.len() as u64;
                let m = key_size(&st.key).expect("canonical key");
                decoded += tracer.span("si_core.coding.decode", |_| {
                    let mut cursor = PostingCursor::with_format(
                        options.coding,
                        m,
                        SliceSource::new(&bytes),
                        skip_headers,
                    );
                    let mut n = 0u64;
                    while let Ok(Some(posting)) = cursor.next_posting() {
                        std::hint::black_box(posting);
                        n += 1;
                    }
                    n
                });
            }
        });
    }
    (bytes_read, decoded)
}

/// Re-runs the pool once through the buffered pager (1 MiB LRU, far
/// below the index size) and reports that path's counters. Production
/// opens are mmap, so nothing end-to-end moves with these.
fn probe_buffered(r: &mut Ready, tracer: &mut Tracer, layers: &mut Ledger) {
    let index = SubtreeIndex::open_buffered(&r.dir).expect("buffered open");
    let before = si_storage::process_counters();
    let started = Instant::now();
    let mut ops = 0u64;
    for i in 0..r.pool.len() {
        let query = parse_query(&r.pool[i].text, &mut r.interner).expect("pool query parses");
        tracer.set_op(i as u64);
        let digest = tracer.span("si_storage.pager.buffered_scan", |_| {
            index
                .evaluate(&query)
                .ok()
                .map(|res| match_digest(&res.matches))
        });
        r.checker.check(i, digest);
        ops += 1;
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    // Let in-flight prefetches land before the counters are read.
    drop(index);
    let after = si_storage::process_counters();
    let hits = (after.hits - before.hits) - (after.mmap_reads - before.mmap_reads);
    let misses = after.misses - before.misses;
    let issued = after.prefetch_issued - before.prefetch_issued;
    let ops_f = ops.max(1) as f64;
    layers.set("si_storage.pager.buffered_scan_ms", wall_ms / ops_f);
    layers.set(
        "si_storage.pager.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set(
        "si_storage.pager.evictions_per_op",
        (after.evictions - before.evictions) as f64 / ops_f,
    );
    layers.set(
        "si_storage.prefetch.useful_share",
        (after.prefetch_useful - before.prefetch_useful) as f64 / issued.max(1) as f64,
    );
    layers.set(
        "si_storage.prefetch.wasted_per_op",
        (after.prefetch_wasted - before.prefetch_wasted) as f64 / ops_f,
    );
}

/// Runs the workload described by `p`.
pub fn run(p: &Params, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let started = Instant::now();
    let prepared = tracer.span("prepare child", |_| prepare_in_child(p.name, args));
    let dir = args.dir(p.name).join("index");
    let index = SubtreeIndex::open(&dir).expect("index open");
    let mut checker = Checker::new(prepared.pool.len());
    for (i, q) in prepared.pool.iter().enumerate() {
        checker.pin(i, q.digest.expect("prepare pins every query"));
    }
    let mut out = Outcome {
        index_bytes: sys::dir_bytes(&dir).expect("index size"),
        trees_indexed: p.trees as u64,
        violations: prepared.violations.clone(),
        ..Outcome::default()
    };

    let mut order: Vec<u32> = (0..prepared.pool.len() as u32).collect();
    shuffle(
        &mut order,
        &mut StdRng::seed_from_u64(args.seed ^ 0x0BDE_0BDE),
    );
    let mut client = Client {
        r: Ready {
            dir,
            interner: index.interner(),
            index,
            pool: prepared.pool.clone(),
            checker,
        },
        order,
        cursor: 0,
        first_answer: None,
    };
    let mut quiet = Tracer::new(false);

    // Warm-up: every distinct query once, untimed.
    let pool_len = client.order.len();
    client.pass(pool_len, &mut Vec::new(), &mut quiet, None);
    out.setup_s = started.elapsed().as_secs_f64();

    let ops = args.scaled(p.ops_per_pass);
    if args.trace {
        out.untraced = Some(client.measure(p, ops, &mut quiet, None));
        let mut tally = Tally::default();
        let before = si_storage::process_counters();
        out.measured = client.measure(p, ops, tracer, Some(&mut tally));
        let after = si_storage::process_counters();
        let (bytes_read, decoded) = probe_layers(&mut client.r, tracer);
        if p.buffered_probe {
            probe_buffered(&mut client.r, tracer, &mut out.layers);
        }
        let pages = after.mmap_reads - before.mmap_reads;
        let l = &mut out.layers;
        l.set("si_corpus.generate_s", prepared.generate_s);
        l.set("si_core.build.mono_s", prepared.build_s);
        layer_metrics(&client.r, &tally, pages, bytes_read, decoded, tracer, l);
    } else {
        out.measured = client.measure(p, ops, &mut quiet, None);
    }

    let r = &client.r;
    out.notes.push(format!(
        "prepare: generate {:.2} s, build {:.2} s, pool {:.2} s ({} of {} draws), oracle {:.2} s",
        prepared.generate_s,
        prepared.build_s,
        prepared.pool_s,
        prepared.draws,
        p.spec.max_draws,
        prepared.oracle_s
    ));
    let fetched: Vec<f64> = r.pool.iter().map(|q| q.cost as f64).collect();
    out.notes.push(format!(
        "pool: {} distinct queries, postings fetched per query min {} median {} max {}",
        r.pool.len(),
        fetched.iter().copied().fold(f64::INFINITY, f64::min),
        median(&fetched),
        fetched.iter().copied().fold(0.0, f64::max),
    ));
    if !args.smoke {
        if let Some(q) = r.pool.iter().find(|q| !p.fetched.contains(&q.cost)) {
            out.violations.push(format!(
                "{}: `{}` fetches {} postings, outside {:?}",
                p.name, q.text, q.cost, p.fetched
            ));
        }
    }
    if let Some((i, expected, given)) = r.checker.first_failure {
        out.notes.push(format!(
            "first failed op: `{}` expected digest {expected:x?}, got {given:x?}",
            r.pool[i].text
        ));
    }
    out.notes.extend(prepared.excluded_note());
    out.attempted = r.checker.attempted;
    out.failed = r.checker.failed;
    out
}

/// Per-layer metrics of a traced phase: `tally` and `pages` (mmap page
/// reads) cover the traced passes, `bytes_read` and `decoded` the layer
/// probes, and the spans everything.
fn layer_metrics(
    r: &Ready,
    tally: &Tally,
    pages: u64,
    bytes_read: u64,
    decoded: u64,
    tracer: &Tracer,
    l: &mut Ledger,
) {
    let times = tracer.layer_times();
    let t = |name: &str| times.get(name).copied().unwrap_or_default();
    let ops = tally.ops.max(1) as f64;
    l.set(
        "si_query.parser.parse_us",
        t("si_query.parser.parse").mean_us(),
    );
    l.set(
        "si_core.cover.decompose_us",
        t("si_core.cover.decompose").mean_us(),
    );
    l.set("si_core.cover.covers_per_query", tally.covers as f64 / ops);
    l.set(
        "si_core.stats.key_stats_us",
        t("si_core.stats.key_stats").mean_us(),
    );
    l.set("si_core.plan.plan_us", t("si_core.plan.plan").mean_us());
    l.set(
        "si_core.plan.range_pruned_share",
        tally.range_pruned as f64 / ops,
    );
    l.set(
        "si_storage.btree.lookup_us",
        t("si_storage.btree.lookup").mean_us(),
    );
    let read = t("si_storage.btree.read");
    l.set(
        "si_storage.btree.read_mb_per_s",
        bytes_read as f64 / 1e6 / (read.total_ns as f64 / 1e9),
    );
    l.set("si_storage.pager.pages_per_op", pages as f64 / ops);
    let decode = t("si_core.coding.decode");
    l.set(
        "si_core.coding.decode_mpostings_per_s",
        decoded as f64 / 1e6 / (decode.total_ns as f64 / 1e9),
    );
    l.set("si_core.exec.seeks_per_op", tally.seeks as f64 / ops);
    l.set(
        "si_core.exec.postings_skipped_share",
        tally.skipped as f64 / (tally.skipped + tally.fetched).max(1) as f64,
    );
    let eval = t("si_core.exec.evaluate");
    l.set("si_core.exec.eval_ms", eval.mean_ms());
    l.set(
        "si_core.exec.stage_seek_ms",
        tally.stage_ms_per_op(Stage::PostingSeek),
    );
    l.set(
        "si_core.exec.stage_decode_ms",
        tally.stage_ms_per_op(Stage::Decode),
    );
    l.set(
        "si_core.exec.stage_join_ms",
        tally.stage_ms_per_op(Stage::Join),
    );
    l.set(
        "si_core.exec.stage_sum_over_wall",
        tally.stage_ns.iter().sum::<u64>() as f64 / eval.total_ns.max(1) as f64,
    );
    l.set(
        "si_core.exec.postings_per_match",
        tally.fetched as f64 / tally.matches.max(1) as f64,
    );
    l.set(
        "si_core.exec.peak_posting_bytes",
        tally.peak_posting_bytes as f64 / ops,
    );
    // Per query: evaluate minus a full read and a full decode of its
    // cover lists, measured by the probes.
    let queries = r.pool.len().max(1) as f64;
    l.set(
        "si_core.join.self_ms",
        eval.mean_ms() - (read.total_ns + decode.total_ns) as f64 / 1e6 / queries,
    );
}
