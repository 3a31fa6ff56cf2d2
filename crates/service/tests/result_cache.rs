//! Result-cache consistency suite: whatever the shard count, coding,
//! cache budget or query/ingest interleaving, a cached service must
//! return byte-identical match sets to the uncached paths — and the
//! shard-epoch keys must invalidate exactly the shards an ingest
//! touched.

use std::sync::Arc;

use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{Coding, IndexOptions, ResultCache, ResultCacheConfig, SubtreeIndex};
use si_corpus::rng::StdRng;
use si_corpus::{fb_query_set, wh_query_set, GeneratorConfig};
use si_query::{parse_query, Query};
use si_service::{QueryService, ServiceConfig};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-rescache-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The WH+FB workload of the service differential suite: heavy cover
/// overlap, both hits and guaranteed zero-match queries.
fn workload(corpus: &si_corpus::Corpus, seed: u64) -> Vec<Query> {
    let mut interner = corpus.interner().clone();
    let heldout = GeneratorConfig::default()
        .with_seed(seed + 1)
        .generate_into(60, &mut interner);
    let mut queries: Vec<Query> = wh_query_set(&mut interner)
        .into_iter()
        .map(|q| q.query)
        .collect();
    queries.extend(
        fb_query_set(corpus, &heldout, seed + 2)
            .into_iter()
            .map(|q| q.query),
    );
    queries
}

fn build_config(shards: usize) -> ShardedBuildConfig {
    ShardedBuildConfig {
        shards,
        workers: 2,
        mode: ShardBuildMode::InMemory,
    }
}

fn cached_config() -> ServiceConfig {
    ServiceConfig {
        threads: 2,
        result_cache_mb: 8,
        ..ServiceConfig::default()
    }
}

/// Satellite: randomized query/ingest/repeat-query schedules across
/// {1, 2, 4} shards × 3 codings. Every batch through the cached
/// service must match both an uncached service over the same index
/// state and the core scatter-gather evaluator, byte for byte — with
/// the *same* cache instance carried across every ingest.
#[test]
fn randomized_schedules_match_uncached_across_shards_and_codings() {
    let seed = 0xCAC4_0001;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(240);
    let trees = corpus.trees();
    let initial = 140;
    let chunk = 25;
    let pool = workload(&corpus, seed);
    for coding in Coding::ALL {
        for &shards in &[1usize, 2, 4] {
            let dir = tmp_dir(&format!("sched-{coding:?}-{shards}").to_lowercase());
            let options = IndexOptions::new(3, coding);
            ShardedIndex::build(
                &dir,
                &trees[..initial],
                corpus.interner(),
                options,
                build_config(shards),
            )
            .unwrap();
            let cache = Arc::new(ResultCache::new(ResultCacheConfig::with_budget(8 << 20)));
            let open_services = || {
                let index = Arc::new(ShardedIndex::open(&dir).unwrap());
                let cached = QueryService::new(index.clone(), cached_config())
                    .with_result_cache(cache.clone());
                let plain = QueryService::new(
                    index,
                    ServiceConfig {
                        threads: 2,
                        ..ServiceConfig::default()
                    },
                );
                (cached, plain)
            };
            let (mut cached_svc, mut plain_svc) = open_services();
            let mut rng = StdRng::seed_from_u64(seed ^ (shards as u64) ^ u64::from(coding.id()));
            let mut ingested = initial;
            for step in 0..10 {
                if ingested + chunk <= trees.len() && rng.gen_bool(0.3) {
                    // Ingest through a separate writer handle, then
                    // reopen — keeping the *same* result cache.
                    let mut writer = ShardedIndex::open(&dir).unwrap();
                    writer
                        .ingest(&trees[ingested..ingested + chunk], corpus.interner())
                        .unwrap();
                    ingested += chunk;
                    (cached_svc, plain_svc) = open_services();
                }
                // A batch with deliberate repeats (hot keys) and fresh
                // draws; repeats of earlier steps hit the cache.
                let batch: Vec<Query> = (0..6)
                    .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                    .collect();
                let report = cached_svc.run_batch(&batch).unwrap();
                let plain = plain_svc.run_batch(&batch).unwrap();
                for (i, (c, p)) in report.outcomes.iter().zip(&plain.outcomes).enumerate() {
                    assert_eq!(
                        c.result.matches, p.result.matches,
                        "step {step} query {i}: cached vs uncached service \
                         ({coding:?}, {shards} shards)"
                    );
                    let oracle = cached_svc.index().evaluate(&batch[i]).unwrap();
                    assert_eq!(
                        c.result.matches, oracle.matches,
                        "step {step} query {i}: cached service vs core evaluator \
                         ({coding:?}, {shards} shards)"
                    );
                }
            }
            assert!(
                cache.stats().hits > 0,
                "a repeat-heavy schedule must hit the cache ({coding:?}, {shards} shards)"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Satellite (directed): an ingest-touched shard misses while every
/// untouched shard's partial hits — `partial_reuses` counts exactly
/// the old shards, and the repeat query afterwards is a whole-query
/// hit again.
#[test]
fn ingest_invalidates_only_touched_shards() {
    let seed = 0xCAC4_0002;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(200);
    let trees = corpus.trees();
    let dir = tmp_dir("directed");
    ShardedIndex::build(
        &dir,
        &trees[..160],
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
        build_config(2),
    )
    .unwrap();
    let mut qi = corpus.interner().clone();
    // A hot grammar production: present in every generator slice, so
    // the ingested shard is live (not skip-pruned) for it.
    let query = parse_query("NP(DT)(NN)", &mut qi).unwrap();
    let cache = Arc::new(ResultCache::new(ResultCacheConfig::default()));
    let service = QueryService::new(Arc::new(ShardedIndex::open(&dir).unwrap()), cached_config())
        .with_result_cache(cache.clone());

    // Cold: both shards evaluate, nothing reused.
    let cold = service.run_batch(std::slice::from_ref(&query)).unwrap();
    let s = &cold.outcomes[0].result.stats;
    assert_eq!(
        (s.result_hits, s.result_misses, s.partial_reuses),
        (0, 1, 0)
    );
    let cold_matches = cold.outcomes[0].result.matches.clone();
    assert!(!cold_matches.is_empty(), "hot production must match");

    // Warm repeat: whole-query hit, no shard evaluated.
    let warm = service.run_batch(std::slice::from_ref(&query)).unwrap();
    let s = &warm.outcomes[0].result.stats;
    assert_eq!((s.result_hits, s.result_misses), (1, 0));
    assert_eq!(warm.outcomes[0].result.matches, cold_matches);

    // Ingest 40 trees; only the new shard's epoch is fresh.
    let mut writer = ShardedIndex::open(&dir).unwrap();
    writer.ingest(&trees[160..], corpus.interner()).unwrap();
    let manifest = writer.manifest().clone();
    assert_eq!(manifest.shards.len(), 3);
    assert!(
        manifest.shards[2].generation > manifest.shards[0].generation,
        "ingested shard must carry a fresh generation"
    );

    // Same cache, reloaded index: both old shards reuse their cached
    // partials, only the ingested shard runs the pipeline.
    let service = QueryService::new(Arc::new(ShardedIndex::open(&dir).unwrap()), {
        cached_config()
    })
    .with_result_cache(cache.clone());
    let after = service.run_batch(std::slice::from_ref(&query)).unwrap();
    let s = &after.outcomes[0].result.stats;
    assert_eq!(
        (s.result_hits, s.result_misses, s.partial_reuses),
        (0, 1, 2),
        "exactly the two untouched shards must be reused"
    );
    let oracle = service.index().evaluate(&query).unwrap();
    assert_eq!(after.outcomes[0].result.matches, oracle.matches);
    assert!(
        oracle.matches.len() > cold_matches.len(),
        "the ingested trees must contribute matches"
    );

    // And the repeat after the ingest is a whole-query hit again.
    let warm2 = service.run_batch(std::slice::from_ref(&query)).unwrap();
    let s = &warm2.outcomes[0].result.stats;
    assert_eq!((s.result_hits, s.result_misses), (1, 0));
    assert_eq!(warm2.outcomes[0].result.matches, oracle.matches);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite (directed): negative entries serve repeat zero-match
/// queries and are "invalidated" by an ingest that makes the query
/// non-empty — the new shard is a fresh epoch the negative entry
/// cannot answer for.
#[test]
fn negative_entries_yield_to_an_ingest_with_matches() {
    let mut li = si_parsetree::LabelInterner::new();
    let old: Vec<si_parsetree::ParseTree> = ["(S (NP (NN dog)) (VP (VBZ barks)))"]
        .iter()
        .map(|s| si_parsetree::ptb::parse(s, &mut li).unwrap())
        .collect();
    let dir = tmp_dir("negative");
    ShardedIndex::build(
        &dir,
        &old,
        &li,
        IndexOptions::new(2, Coding::RootSplit),
        build_config(1),
    )
    .unwrap();
    let cache = Arc::new(ResultCache::new(ResultCacheConfig::default()));
    let service = QueryService::new(Arc::new(ShardedIndex::open(&dir).unwrap()), cached_config())
        .with_result_cache(cache.clone());
    let mut qi = service.index().interner();
    // WHNP is unknown to the initial corpus: provably empty, and the
    // skip inserts an explicit negative entry.
    let query = parse_query("WHNP(WP)", &mut qi).unwrap();
    let cold = service.run_batch(std::slice::from_ref(&query)).unwrap();
    assert!(cold.outcomes[0].result.matches.is_empty());

    let warm = service.run_batch(std::slice::from_ref(&query)).unwrap();
    let s = &warm.outcomes[0].result.stats;
    assert!(warm.outcomes[0].result.matches.is_empty());
    assert_eq!(
        (s.result_hits, s.negative_hits),
        (1, 1),
        "repeat zero-match query must hit its negative entry"
    );

    // Ingest a tree that answers the query (new label included).
    let mut writer = ShardedIndex::open(&dir).unwrap();
    let mut extended = writer.interner();
    let new: Vec<si_parsetree::ParseTree> = ["(SBARQ (WHNP (WP who)) (SQ (VBZ barks)))"]
        .iter()
        .map(|s| si_parsetree::ptb::parse(s, &mut extended).unwrap())
        .collect();
    writer.ingest(&new, &extended).unwrap();

    let service = QueryService::new(Arc::new(ShardedIndex::open(&dir).unwrap()), cached_config())
        .with_result_cache(cache.clone());
    let after = service.run_batch(std::slice::from_ref(&query)).unwrap();
    let s = &after.outcomes[0].result.stats;
    let oracle = service.index().evaluate(&query).unwrap();
    assert_eq!(after.outcomes[0].result.matches, oracle.matches);
    assert_eq!(
        after.outcomes[0]
            .result
            .matches
            .iter()
            .map(|&(tid, _)| tid)
            .collect::<Vec<_>>(),
        vec![1],
        "the ingested tree must now answer the query"
    );
    assert_eq!(s.result_misses, 1, "the fresh shard must evaluate");
    assert_eq!(
        s.negative_hits, 1,
        "the old shard's negative entry still serves its own epoch"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: under a cache budget far too small for the workload,
/// eviction churns — and every repeat query after eviction still
/// answers exactly like the uncached oracle (an evicted entry is a
/// re-evaluation, never a wrong answer). Budget bounds hold
/// throughout.
#[test]
fn repeat_queries_after_eviction_answer_correctly() {
    let seed = 0xCAC4_0003;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(200);
    let queries = workload(&corpus, seed);
    let dir = tmp_dir("evict");
    ShardedIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::SubtreeInterval),
        build_config(2),
    )
    .unwrap();
    let budget = 2 << 10;
    let cache = Arc::new(ResultCache::new(ResultCacheConfig {
        budget_bytes: budget,
        shards: 1,
    }));
    let service = QueryService::new(Arc::new(ShardedIndex::open(&dir).unwrap()), cached_config())
        .with_result_cache(cache.clone());
    let expected: Vec<_> = queries
        .iter()
        .map(|q| service.index().evaluate(q).unwrap().matches)
        .collect();
    for round in 0..3 {
        let report = service.run_batch(&queries).unwrap();
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(
                outcome.result.matches, expected[i],
                "round {round} query {i} diverged under eviction pressure"
            );
        }
        let s = cache.stats();
        assert!(
            s.current_bytes as usize <= budget && s.peak_bytes as usize <= budget,
            "round {round}: cache bytes exceed budget ({s:?})"
        );
    }
    assert!(
        cache.stats().evictions > 0,
        "a thrashed result cache must evict: {:?}",
        cache.stats()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A bare directory's cache (the implicit shard's epoch `(0, 0)`):
/// repeats hit, zero-match queries hit negatively, answers never change
/// — including with the cache off entirely.
#[test]
fn bare_directory_cache_hits_without_changing_answers() {
    let seed = 0xCAC4_0004;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(200);
    let queries = workload(&corpus, seed);
    let dir = tmp_dir("bare");
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .unwrap();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| index.evaluate(q).unwrap().matches)
        .collect();
    let cached = QueryService::open(&dir, cached_config()).unwrap();
    let plain = QueryService::open(
        &dir,
        ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    for round in 0..2 {
        for (svc, name) in [(&cached, "cached"), (&plain, "plain")] {
            let report = svc.run_batch(&queries).unwrap();
            for (i, outcome) in report.outcomes.iter().enumerate() {
                assert_eq!(
                    outcome.result.matches, expected[i],
                    "{name} round {round} query {i}"
                );
                let s = &outcome.result.stats;
                match (name, round) {
                    ("plain", _) => {
                        assert_eq!(
                            (s.result_hits, s.result_misses),
                            (0, 0),
                            "cache-off query {i}"
                        )
                    }
                    // Cold: a miss, unless the shard's statistics proved
                    // the query empty — the cache played no part then.
                    ("cached", 0) => assert_eq!(
                        (s.result_hits, s.result_misses),
                        (0, 1 - s.shards_skipped as u64),
                        "cold query {i}"
                    ),
                    ("cached", _) => {
                        assert_eq!(s.result_hits, 1, "warm query {i}");
                        assert_eq!(
                            s.negative_hits,
                            u64::from(expected[i].is_empty()),
                            "zero-match warm query {i} must hit negatively"
                        );
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
    assert!(plain.result_cache_stats().is_none());
    let stats = cached.result_cache_stats().unwrap();
    assert_eq!(stats.hits, queries.len() as u64, "one hit per warm query");
    std::fs::remove_dir_all(&dir).ok();
}
