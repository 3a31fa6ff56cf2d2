//! Layout equivalence: one index handle and one query service must
//! answer identically whatever directory layout they open — a bare
//! `SubtreeIndex` directory (the implicit shard), a manifest of one
//! shard, a manifest of four — across codings, thread counts and result
//! cache states, with the materializing evaluator over a monolithic
//! build as the oracle. Also the two places the layouts legitimately
//! differ: a one-shard manifest can grow by `ingest` (and a carried
//! result cache keeps serving the old shard), a bare directory cannot.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{
    Coding, ExecContext, ExecMode, IndexOptions, ResultCache, ResultCacheConfig, SubtreeIndex,
};
use si_corpus::{fb_query_set, wh_query_set, GeneratorConfig};
use si_query::{parse_query, Query};
use si_service::{QueryService, ServiceConfig};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-layout-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The WH+FB workload of the service suites: heavy cover-key overlap,
/// hits and guaranteed zero-match queries.
fn workload(corpus: &si_corpus::Corpus, seed: u64) -> Vec<Query> {
    let mut interner = corpus.interner().clone();
    let heldout = GeneratorConfig::default()
        .with_seed(seed + 1)
        .generate_into(100, &mut interner);
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

fn build_sharded(dir: &Path, corpus: &si_corpus::Corpus, options: IndexOptions, shards: usize) {
    ShardedIndex::build(
        dir,
        corpus.trees(),
        corpus.interner(),
        options,
        ShardedBuildConfig {
            shards,
            workers: 2,
            mode: ShardBuildMode::InMemory,
        },
    )
    .unwrap();
}

#[test]
fn every_layout_matches_the_materialized_oracle() {
    let seed = 0x1A70_0001;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(350);
    let queries = workload(&corpus, seed);
    for coding in Coding::ALL {
        let options = IndexOptions::new(3, coding);
        let root = tmp_dir(&format!("equiv-{coding:?}").to_lowercase());
        let (bare, one, four) = (root.join("bare"), root.join("one"), root.join("four"));
        let mut oracle =
            SubtreeIndex::build(&bare, corpus.trees(), corpus.interner(), options).unwrap();
        oracle.set_exec_mode(ExecMode::Materialized);
        let expected: Vec<_> = queries
            .iter()
            .map(|q| oracle.evaluate(q).unwrap().matches)
            .collect();
        build_sharded(&one, &corpus, options, 1);
        build_sharded(&four, &corpus, options, 4);

        for (dir, shards) in [(&bare, 1), (&one, 1), (&four, 4)] {
            let layout = dir.file_name().unwrap().to_string_lossy().into_owned();
            let index = Arc::new(ShardedIndex::open(dir).unwrap());
            assert_eq!(index.shards().len(), shards, "{layout}");
            assert_eq!(index.num_trees(), corpus.trees().len() as u64, "{layout}");
            for (i, q) in queries.iter().enumerate() {
                let result = index.evaluate_with(q, &ExecContext::default()).unwrap();
                assert_eq!(
                    result.matches, expected[i],
                    "evaluate_with: query {i} under {coding}, {layout}"
                );
                assert_eq!(result.stats.shards, shards, "query {i}, {layout}");
            }
            // Result cache off exercises the cold/warm block cache and
            // tuple pool at both pool widths; on, the cold/warm result
            // cache.
            for (threads, result_cache_mb) in [(1, 0), (4, 0), (2, 8)] {
                let service = QueryService::new(
                    index.clone(),
                    ServiceConfig {
                        threads,
                        result_cache_mb,
                        ..ServiceConfig::default()
                    },
                );
                for round in 0..2 {
                    let report = service.run_batch(&queries).unwrap();
                    assert_eq!(report.outcomes.len(), queries.len());
                    for (i, outcome) in report.outcomes.iter().enumerate() {
                        let what = format!(
                            "run_batch: query {i} under {coding}, {layout}, {threads} threads, \
                             result cache {result_cache_mb} MiB, round {round}"
                        );
                        assert_eq!(outcome.result.matches, expected[i], "{what}");
                        let s = &outcome.result.stats;
                        assert_eq!(s.shards, shards, "{what}");
                        // Round 0 left a partial (or a negative entry for
                        // a skip-pruned shard) under every shard's epoch,
                        // so the warm round answers wholly from cache.
                        let warm_hit = u64::from(result_cache_mb > 0 && round == 1);
                        assert_eq!(s.result_hits, warm_hit, "{what}");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// An index that starts as `shards: 1` grows by ingest; a result cache
/// carried across it keeps hitting for shard 0 and misses only on the
/// new shard.
#[test]
fn carried_result_cache_survives_ingest_on_a_one_shard_index() {
    let seed = 0x1A70_0002;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(200);
    let trees = corpus.trees();
    let dir = tmp_dir("grow");
    ShardedIndex::build(
        &dir,
        &trees[..160],
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
        ShardedBuildConfig {
            shards: 1,
            workers: 1,
            mode: ShardBuildMode::InMemory,
        },
    )
    .unwrap();
    let mut qi = corpus.interner().clone();
    // A hot grammar production: present in every generator slice, so
    // the ingested shard is live (not skip-pruned) for it.
    let query = parse_query("NP(DT)(NN)", &mut qi).unwrap();
    let cache = Arc::new(ResultCache::new(ResultCacheConfig::default()));
    let open = || {
        let config = ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        };
        QueryService::open(&dir, config)
            .unwrap()
            .with_result_cache(cache.clone())
    };
    let counters = |service: &QueryService| {
        let report = service.run_batch(std::slice::from_ref(&query)).unwrap();
        let outcome = report.outcomes.into_iter().next().unwrap();
        let s = outcome.result.stats;
        (
            outcome.result.matches,
            (s.result_hits, s.result_misses, s.partial_reuses),
        )
    };

    let service = open();
    let (cold, cold_counters) = counters(&service);
    assert_eq!(cold_counters, (0, 1, 0));
    assert!(!cold.is_empty(), "hot production must match");
    assert_eq!(counters(&service), (cold.clone(), (1, 0, 0)));

    let mut writer = ShardedIndex::open(&dir).unwrap();
    let entry = writer.ingest(&trees[160..], corpus.interner()).unwrap();
    assert_eq!((entry.id, entry.base), (1, 160));
    assert!(entry.generation > writer.manifest().shards[0].generation);

    let service = open();
    let (after, after_counters) = counters(&service);
    assert_eq!(
        after_counters,
        (0, 1, 1),
        "shard 0 must be reused, only the ingested shard evaluated"
    );
    assert_eq!(after, service.index().evaluate(&query).unwrap().matches);
    assert!(after.len() > cold.len(), "the ingested trees must match");
    assert_eq!(counters(&service), (after, (1, 0, 0)));
    std::fs::remove_dir_all(&dir).ok();
}

/// A bare directory has no manifest to append a shard to: `ingest`
/// refuses with the rebuild hint and leaves the directory untouched.
#[test]
fn bare_directory_refuses_ingest() {
    let corpus = GeneratorConfig::default()
        .with_seed(0x1A70_0003)
        .generate(60);
    let trees = corpus.trees();
    let dir = tmp_dir("bare-ingest");
    SubtreeIndex::build(
        &dir,
        &trees[..40],
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .unwrap();
    let mut index = ShardedIndex::open(&dir).unwrap();
    let err = index.ingest(&trees[40..], corpus.interner()).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("is not a sharded index; rebuild it with `si build --shards N`"),
        "{message}"
    );
    assert!(!dir.join("MANIFEST.si").exists());
    assert!(!dir.join("ingest.lock").exists());
    assert_eq!(ShardedIndex::open(&dir).unwrap().num_trees(), 40);
    std::fs::remove_dir_all(&dir).ok();
}
