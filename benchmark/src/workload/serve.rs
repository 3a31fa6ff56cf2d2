//! `serve-zipf`: concurrent, cache-pressured reads. A four-shard index
//! behind `AnyQueryService` with two worker threads, a block cache and
//! a result cache both far below the working set, and one client
//! submitting Zipf-distributed batches back to back. The only workload
//! where the scheduler, shared scans, tuple pool, both caches and the
//! shard scatter-gather carry the result.

use std::path::{Path, PathBuf};
use std::time::Instant;

use si_core::{BlockCacheConfig, ExecContext, ExecMode, ShardedIndex};
use si_corpus::rng::StdRng;
use si_corpus::{FbClass, GeneratorConfig};
use si_obs::{Stage, Timings};
use si_parsetree::LabelInterner;
use si_query::{parse_query, Query};
use si_service::{AnyQueryService, ServiceConfig};

use super::{
    build_index, dataset, opens_after_pass, prepare_in_child, timed, Measured, Outcome, RunArgs,
    ENGINE_THREADS, HELDOUT_SEED, PASSES,
};
use crate::digest::{differs_from_first, match_digest, Checker};
use crate::pool::{build_pool, listed_postings, wh_templates, PoolQuery, PoolSpec};
use crate::prepared::{Prepared, FILE_NAME};
use crate::sys;
use crate::trace::Tracer;
use crate::zipf::{dealt_ranks, Zipf};

/// Workload name.
pub const NAME: &str = "serve-zipf";

/// Index shards.
const SHARDS: usize = 4;

/// Queries per submitted batch.
const BATCH: usize = 32;

/// Skew of the request stream.
const ZIPF_S: f64 = 1.0;

/// Queries the `--trace` merge probe evaluates.
const MERGE_PROBE: usize = 200;

/// Query answered after every fresh open.
const FIRST_QUERY: &str = "S(NP(DT)(NN))(VP(VBZ)(NP(NNP)(NNP)))";

/// Upper edges of the pool's strata at full scale: a query belongs to
/// the first bin its summed cover-key posting count (all shards) is
/// below. Equal quotas per bin fix the pool's cost profile — a third
/// light, a third medium, a third heavy, like the unconstrained FB mix —
/// and the top edge keeps one monster query from deciding a run.
const LISTED_BINS: [u64; 10] = [
    50, 500, 2_000, 6_000, 15_000, 40_000, 80_000, 130_000, 200_000, 300_000,
];

/// Largest answer (matches over all shards) a pool query can have. The
/// result cache admits no per-shard answer above 1/8 of its budget
/// (16k matches at 1 MiB); a query above that is re-evaluated on every
/// request, and one such query among the popular ranks — 2% of the
/// stream each — would decide the run by luck of the seed.
const MAX_ANSWER: u64 = 16_000;

/// Postings fetched per popularity rank the ranking deals out (see
/// `dealt_ranks`): about the mean over a pool filled to [`LISTED_BINS`].
const FETCHED_PER_RANK: u64 = 34_000;

/// Matches per popularity rank the ranking deals out: the answers of
/// the 260 most popular queries then fill the result cache's 1 MiB at
/// 8 bytes a match.
const MATCHES_PER_RANK: u64 = 500;

/// Sizes of the workload.
struct Params {
    trees: usize,
    heldout: usize,
    bands_slice: usize,
    spec: PoolSpec,
    /// [`LISTED_BINS`], scaled down with the corpus in a smoke run.
    listed_bins: Vec<u64>,
    /// [`MAX_ANSWER`], scaled likewise.
    max_answer: u64,
    /// Block-cache budget in bytes (all shards together).
    block_cache_bytes: usize,
    /// Result-cache budget in MiB.
    result_cache_mb: usize,
    warmup_batches: usize,
    /// Batches per measured pass at the manifest's `run_seconds`.
    batches_per_pass: usize,
}

impl Params {
    fn new(smoke: bool) -> Self {
        // The smoke corpus is 40 times smaller, so are its posting lists.
        let scale = if smoke { 40 } else { 1 };
        Self {
            trees: if smoke { 5_000 } else { 200_000 },
            heldout: if smoke { 500 } else { 3_000 },
            bands_slice: 5_000,
            spec: PoolSpec {
                classes: &FbClass::ALL,
                strata: LISTED_BINS.len(),
                per_stratum: if smoke { 10 } else { 100 },
                wh: wh_templates(),
                max_draws: if smoke { 100 } else { 3_000 },
            },
            listed_bins: LISTED_BINS.iter().map(|edge| edge / scale).collect(),
            max_answer: MAX_ANSWER / scale,
            block_cache_bytes: if smoke { 1 << 20 } else { 64 << 20 },
            result_cache_mb: 1,
            warmup_batches: if smoke { 10 } else { 60 },
            batches_per_pass: 170,
        }
    }

    fn service_config(&self, collect_timings: bool) -> ServiceConfig {
        ServiceConfig {
            threads: ENGINE_THREADS,
            cache: BlockCacheConfig::with_budget(self.block_cache_bytes),
            batch_size: BATCH,
            result_cache_mb: self.result_cache_mb,
            collect_timings,
            ..ServiceConfig::default()
        }
    }
}

/// Body of the `prepare` child: dataset → four-shard index on disk,
/// the pool generated from `--seed`, every pool query executed once
/// (its answer is the digest the service must reproduce) and checked
/// against the materializing oracle.
pub fn prepare(args: &RunArgs) {
    let p = Params::new(args.smoke);
    let dir = args.dir(NAME);
    let index_dir = dir.join("index");
    let (generate_s, build_s) = build_index(p.trees, SHARDS, &index_dir);

    let mut oracle = ShardedIndex::open(&index_dir).expect("oracle open");
    oracle.set_query_threads(ENGINE_THREADS);
    let mut interner = oracle.interner();
    let heldout = GeneratorConfig::default()
        .with_seed(args.seed ^ HELDOUT_SEED)
        .generate_into(p.heldout, &mut interner);
    // The generator is sequential, so this is the indexed corpus's
    // leading slice, label ids included.
    let bands_from = dataset(p.bands_slice.min(p.trees));

    let started = Instant::now();
    let pool = build_pool(
        &p.spec,
        args.seed,
        &bands_from,
        &heldout,
        &mut interner,
        |q, _| {
            let (listed, answer_bound) = listed_postings(q, oracle.options(), |key| {
                Some(oracle.key_stats(key).ok()??.postings)
            })?;
            if answer_bound > p.max_answer {
                return None;
            }
            let bin = p.listed_bins.iter().position(|&edge| listed < edge)?;
            Some((bin, listed))
        },
    );
    let mut prepared = Prepared {
        generate_s,
        build_s,
        draws: pool.draws,
        pool: pool.queries,
        ..Prepared::default()
    };
    if let (Some(s), false) = (&pool.shortfall, args.smoke) {
        prepared
            .violations
            .push(format!("{NAME}: pool not filled: {s}"));
    }
    // Every pool query is executed once: what it fetched and how many
    // matches it has place it in the popularity ranking, and its answer
    // is the digest every later execution must reproduce.
    for q in &mut prepared.pool {
        let query = parse_query(&q.text, &mut interner).expect("pool query parses");
        let result = oracle.evaluate(&query).expect("pool query evaluates");
        q.cost = result.stats.postings_fetched as u64;
        q.answer = result.matches.len() as u64;
        q.digest = Some(match_digest(&result.matches));
    }
    prepared.pool_s = started.elapsed().as_secs_f64();

    // Oracle: the materializing evaluator over the same shards.
    oracle.set_exec_mode(ExecMode::Materialized);
    prepared.keep_oracle_confirmed(NAME, |text| {
        let query = parse_query(text, &mut interner).ok()?;
        Some(match_digest(&oracle.evaluate(&query).ok()?.matches))
    });
    prepared.write(&dir.join(FILE_NAME)).expect("prepared file");
}

/// Everything the measured phase needs.
struct Ready {
    service: AnyQueryService,
    interner: LabelInterner,
    pool: Vec<PoolQuery>,
    /// Zipf rank → pool index.
    by_rank: Vec<u32>,
    checker: Checker,
}

/// Sums over the batches of traced passes.
#[derive(Default)]
struct Tally {
    batches: u64,
    queries: u64,
    wall_s: f64,
    busy_s: f64,
    slowest_share: f64,
    shared_keys: u64,
    shards: u64,
    shards_skipped: u64,
    fetched: u64,
    borrowed: u64,
}

/// The single closed-loop client: it submits batches of a Zipf stream
/// back to back. Each pass is a systematic Zipf sample drawn from one
/// seeded generator for the whole run.
struct Client {
    r: Ready,
    zipf: Zipf,
    rng: StdRng,
    /// Digest of the first-open query's answer, pinned by its first run.
    first_answer: Option<u64>,
}

impl Client {
    /// Submits `batches` batches; one latency sample per batch (parse +
    /// submit → all answers), one checked operation per query. Returns
    /// the wall seconds and CPU milliseconds they took.
    fn pass(
        &mut self,
        batches: usize,
        latencies_ms: &mut Vec<f64>,
        tracer: &mut Tracer,
        mut tally: Option<&mut Tally>,
    ) -> (f64, f64) {
        let r = &mut self.r;
        let ranks = self.zipf.systematic(batches * BATCH, &mut self.rng);
        let ((), seconds, cpu_ms) = timed(|| {
            for (b, batch_ranks) in ranks.chunks(BATCH).enumerate() {
                let picked: Vec<usize> = batch_ranks
                    .iter()
                    .map(|&rank| r.by_rank[rank] as usize)
                    .collect();
                tracer.set_op(b as u64);
                let started = Instant::now();
                let report = tracer.span("batch", |tracer| {
                    let queries: Option<Vec<Query>> = tracer.span("si_query.parser.parse", |_| {
                        picked
                            .iter()
                            .map(|&i| parse_query(&r.pool[i].text, &mut r.interner).ok())
                            .collect()
                    });
                    let queries = queries?;
                    tracer.span("si_service.run_batch", |_| {
                        r.service.run_batch(&queries).ok()
                    })
                });
                latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                let Some(report) = report else {
                    for &i in &picked {
                        r.checker.check(i, None);
                    }
                    continue;
                };
                for (&i, outcome) in picked.iter().zip(&report.outcomes) {
                    r.checker
                        .check(i, Some(match_digest(&outcome.result.matches)));
                }
                if let Some(t) = tally.as_deref_mut() {
                    t.batches += 1;
                    t.queries += report.outcomes.len() as u64;
                    t.wall_s += report.wall_seconds;
                    t.shared_keys += report.shared_keys as u64;
                    let mut slowest = 0.0f64;
                    for o in &report.outcomes {
                        t.busy_s += o.seconds;
                        slowest = slowest.max(o.seconds);
                        let s = &o.result.stats;
                        t.shards += s.shards as u64;
                        t.shards_skipped += s.shards_skipped as u64;
                        t.fetched += s.postings_fetched as u64;
                        t.borrowed += s.postings_borrowed;
                    }
                    t.slowest_share += slowest / report.wall_seconds;
                }
            }
        });
        (seconds, cpu_ms)
    }

    /// Fresh open of the service plus the first query answered, in ms;
    /// the answer is checked like any other operation.
    fn open_first(&mut self, p: &Params, dir: &Path, tracer: &mut Tracer) -> f64 {
        let started = Instant::now();
        let digest = tracer.span("open_first", |tracer| {
            let service = tracer.span("si_core.open.open", |_| {
                AnyQueryService::open(dir, p.service_config(false)).ok()
            })?;
            tracer.span("si_core.open.first_query", |_| {
                let mut interner = service.interner();
                let query = parse_query(FIRST_QUERY, &mut interner).ok()?;
                let report = service.run_batch(&[query]).ok()?;
                Some(match_digest(&report.outcomes.first()?.result.matches))
            })
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let checker = &mut self.r.checker;
        checker.attempted += 1;
        checker.failed += u64::from(differs_from_first(&mut self.first_answer, digest));
        ms
    }

    /// [`PASSES`] measured passes of `batches` batches, a few fresh
    /// opens timed after each.
    fn measure(
        &mut self,
        p: &Params,
        dir: &Path,
        batches: usize,
        tracer: &mut Tracer,
        mut tally: Option<&mut Tally>,
    ) -> Measured {
        let mut m = Measured::default();
        for pass in 0..PASSES {
            let (seconds, cpu_ms) =
                self.pass(batches, &mut m.latencies_ms, tracer, tally.as_deref_mut());
            m.add_pass((batches * BATCH) as u64, seconds, cpu_ms);
            for _ in 0..opens_after_pass(pass, PASSES) {
                m.open_first_ms.push(self.open_first(p, dir, tracer));
            }
        }
        m.finish()
    }
}

/// The service never times its own gather step, so the merge stage is
/// probed where the engine does: `ShardedIndex::evaluate_with` (the
/// scatter-gather `si query` runs) over the [`MERGE_PROBE`] most
/// popular queries, with the engine's timings on. Returns the mean
/// `Stage::Merge` milliseconds per query.
fn probe_merge(r: &mut Ready, dir: &Path, tracer: &mut Tracer) -> f64 {
    let mut index = ShardedIndex::open(dir).expect("sharded index opens");
    index.set_query_threads(ENGINE_THREADS);
    let mut merge_ns = 0u64;
    let probed = r.by_rank.len().min(MERGE_PROBE);
    for (rank, &i) in r.by_rank.iter().take(probed).enumerate() {
        let i = i as usize;
        let query = parse_query(&r.pool[i].text, &mut r.interner).expect("pool query parses");
        tracer.set_op(rank as u64);
        let timings = Timings::new(true);
        let digest = tracer.span("si_core.sharded.evaluate", |_| {
            let ctx = ExecContext {
                timings: Some(&timings),
                ..ExecContext::default()
            };
            index
                .evaluate_with(&query, &ctx)
                .ok()
                .map(|res| match_digest(&res.matches))
        });
        r.checker.check(i, digest);
        merge_ns += timings.stage_nanos(Stage::Merge);
    }
    merge_ns as f64 / 1e6 / probed.max(1) as f64
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let p = Params::new(args.smoke);
    let started = Instant::now();
    let prepared = tracer.span("prepare child", |_| prepare_in_child(NAME, args));
    let dir: PathBuf = args.dir(NAME).join("index");
    let mut out = Outcome {
        index_bytes: sys::dir_bytes(&dir).expect("index size"),
        trees_indexed: p.trees as u64,
        violations: prepared.violations.clone(),
        ..Outcome::default()
    };

    let mut checker = Checker::new(prepared.pool.len());
    for (i, q) in prepared.pool.iter().enumerate() {
        if let Some(digest) = q.digest {
            checker.pin(i, digest);
        }
    }
    // Popularity is independent of cost and of answer size by
    // construction: with Zipf(1.0) the ten most popular queries carry
    // 39% of the stream, so a plain shuffle would let their
    // luck-of-the-draw cost decide the run, and their answers' bytes
    // what else fits in the result cache.
    let costs: Vec<u64> = prepared.pool.iter().map(|q| q.cost).collect();
    let answers: Vec<u64> = prepared.pool.iter().map(|q| q.answer).collect();
    let by_rank = dealt_ranks(&costs, &answers, FETCHED_PER_RANK, MATCHES_PER_RANK);
    let service = AnyQueryService::open(&dir, p.service_config(args.trace)).expect("service opens");
    let mut client = Client {
        zipf: Zipf::new(prepared.pool.len(), ZIPF_S),
        rng: StdRng::seed_from_u64(args.seed ^ 0x5354_5245_414D),
        first_answer: None,
        r: Ready {
            interner: service.interner(),
            service,
            pool: prepared.pool.clone(),
            by_rank,
            checker,
        },
    };
    let mut quiet = Tracer::new(false);

    // Warm-up: fills both caches to their budgets, untimed.
    client.pass(p.warmup_batches, &mut Vec::new(), &mut quiet, None);
    out.setup_s = started.elapsed().as_secs_f64();

    let service = &client.r.service;
    let metrics_before = service.sync_metrics();
    let block_before = service.cache_stats();
    let result_before = service.result_cache_stats().expect("result cache is on");
    let pool_before = service.pool_stats();

    let batches = args.scaled(p.batches_per_pass);
    let mut tally = Tally::default();
    if args.trace {
        out.untraced = Some(client.measure(&p, &dir, batches, &mut quiet, None));
        out.measured = client.measure(&p, &dir, batches, tracer, Some(&mut tally));
    } else {
        out.measured = client.measure(&p, &dir, batches, &mut quiet, None);
    }
    let submitted = out.measured.ops + out.untraced.as_ref().map_or(0, |m| m.ops);
    let r = &mut client.r;

    // Cache behaviour over the measured phase, from the caches' own
    // counters; the registry must have seen every submitted query.
    let block = r.service.cache_stats();
    let result = r.service.result_cache_stats().expect("result cache is on");
    let tuple_pool = r.service.pool_stats();
    let metrics = r.service.sync_metrics();
    let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let block_rate = rate(
        block.hits - block_before.hits,
        block.misses - block_before.misses,
    );
    let result_rate = rate(
        result.hits - result_before.hits,
        result.misses - result_before.misses,
    );
    let block_evictions = block.evictions - block_before.evictions;
    let result_evictions = result.evictions - result_before.evictions;
    let counted = metrics
        .counter_delta_since(&metrics_before)
        .get("service.queries")
        .copied()
        .unwrap_or(0);
    if counted != submitted {
        out.violations.push(format!(
            "{NAME}: registry counted {counted} queries, {submitted} were submitted"
        ));
    }
    if !args.smoke {
        for (name, rate, evictions) in [
            ("block cache", block_rate, block_evictions),
            ("result cache", result_rate, result_evictions),
        ] {
            if evictions == 0 {
                out.violations
                    .push(format!("{NAME}: {name} evicted nothing (evictions 0)"));
            }
            if !(0.2..0.9).contains(&rate) {
                out.violations.push(format!(
                    "{NAME}: {name} hit rate {rate:.3} outside (0.2, 0.9)"
                ));
            }
        }
    }
    out.notes.push(format!(
        "prepare: generate {:.2} s, build {:.2} s, pool {:.2} s ({} queries from {} of {} draws), oracle {:.2} s",
        prepared.generate_s,
        prepared.build_s,
        prepared.pool_s,
        r.pool.len(),
        prepared.draws,
        p.spec.max_draws,
        prepared.oracle_s
    ));
    out.notes.push(format!(
        "block cache hit rate {block_rate:.3} evictions {block_evictions}; \
         result cache hit rate {result_rate:.3} evictions {result_evictions}"
    ));

    if args.trace {
        let queries = submitted.max(1) as f64;
        let mib = (1u64 << 20) as f64;
        let l = &mut out.layers;
        l.set("si_corpus.generate_s", prepared.generate_s);
        l.set("si_core.sharded.build_s", prepared.build_s);
        l.set("si_core.blockcache.hit_rate", block_rate);
        l.set(
            "si_core.blockcache.evictions_per_op",
            block_evictions as f64 / queries,
        );
        l.set("si_core.blockcache.peak_mb", block.peak_bytes as f64 / mib);
        l.set(
            "si_core.blockcache.borrowed_postings_share",
            tally.borrowed as f64 / tally.fetched.max(1) as f64,
        );
        l.set("si_core.resultcache.hit_rate", result_rate);
        l.set(
            "si_core.resultcache.negative_share",
            (result.negative_hits - result_before.negative_hits) as f64
                / (result.hits - result_before.hits).max(1) as f64,
        );
        l.set(
            "si_core.resultcache.evictions_per_op",
            result_evictions as f64 / queries,
        );
        l.set(
            "si_core.resultcache.resident_mb",
            result.current_bytes as f64 / mib,
        );
        l.set(
            "si_core.sharded.shards_skipped_share",
            tally.shards_skipped as f64 / tally.shards.max(1) as f64,
        );
        let traced_queries = tally.queries.max(1) as f64;
        let traced_batches = tally.batches.max(1) as f64;
        l.set(
            "si_service.batch_wall_ms",
            tally.wall_s * 1e3 / traced_batches,
        );
        l.set(
            "si_service.worker_busy_share",
            tally.busy_s / (ENGINE_THREADS as f64 * tally.wall_s),
        );
        l.set(
            "si_service.slowest_query_share",
            tally.slowest_share / traced_batches,
        );
        l.set(
            "si_service.shared_keys_per_batch",
            tally.shared_keys as f64 / traced_batches,
        );
        l.set(
            "si_service.tuple_pool.hit_rate",
            rate(
                tuple_pool.hits - pool_before.hits,
                tuple_pool.misses - pool_before.misses,
            ),
        );
        l.set(
            "si_service.tuple_pool.resident_mb",
            tuple_pool.current_bytes as f64 / mib,
        );
        l.set(
            "si_core.sharded.stage_merge_ms",
            probe_merge(r, &dir, tracer),
        );
        let times = tracer.layer_times();
        let parse = times
            .get("si_query.parser.parse")
            .copied()
            .unwrap_or_default();
        l.set(
            "si_query.parser.parse_us",
            parse.total_ns as f64 / 1e3 / traced_queries,
        );
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
