//! Registry-spine tests: the service's process-wide metrics must agree
//! with the per-query `EvalStats` view (same cells, folded exactly once
//! per query — whatever the shard count), the live pool gauges must return to
//! zero at rest, and `sync_metrics` must mirror every subsystem in.

use std::sync::Arc;

use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{Coding, IndexOptions, SubtreeIndex};
use si_corpus::{fb_query_set, wh_query_set, GeneratorConfig};
use si_query::Query;
use si_service::{QueryService, ServiceConfig};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-metrics-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The usual service workload: WH set + corpus-derived FB set (hits and
/// guaranteed misses, heavy cover overlap).
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

#[test]
fn bare_directory_registry_agrees_with_evalstats() {
    let seed = 0x0B5E_0001;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(200);
    let queries = workload(&corpus, seed);
    let dir = tmp_dir("mono");
    SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .unwrap();
    let service = QueryService::open(
        &dir,
        ServiceConfig {
            threads: 4,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut report = service.run_batch(&queries).unwrap();
    let second = service.run_batch(&queries).unwrap();
    report.outcomes.extend(second.outcomes);

    let snap = service.sync_metrics();
    assert_eq!(
        snap.counters["service.queries"],
        2 * queries.len() as u64,
        "every query folded exactly once"
    );
    assert_eq!(snap.counters["service.batches"], 2);

    // The registry's eval.* counters are the fold of the per-query view.
    let sum = |f: fn(&si_core::eval::EvalStats) -> u64| -> u64 {
        report.outcomes.iter().map(|o| f(&o.result.stats)).sum()
    };
    assert_eq!(snap.counters["eval.covers"], sum(|s| s.covers as u64));
    assert_eq!(snap.counters["eval.joins"], sum(|s| s.joins as u64));
    assert_eq!(
        snap.counters["eval.postings_fetched"],
        sum(|s| s.postings_fetched as u64)
    );
    assert_eq!(snap.counters["eval.seeks"], sum(|s| s.seeks));
    assert_eq!(
        snap.counters["eval.postings_skipped"],
        sum(|s| s.postings_skipped)
    );
    assert_eq!(
        snap.counters["service.matches"],
        report
            .outcomes
            .iter()
            .map(|o| o.result.matches.len() as u64)
            .sum::<u64>()
    );

    // Latency landed in the windowed histogram, once per query.
    assert_eq!(
        snap.histograms["service.latency_ns"].count,
        2 * queries.len() as u64
    );

    // At rest the pool gauges are level again.
    assert_eq!(snap.gauges["service.queue_depth"], 0);
    assert_eq!(snap.gauges["service.workers_busy"], 0);

    // sync_metrics mirrored the subsystems: the block cache saw
    // traffic, and the pager names exist with plausible totals.
    assert!(snap.counters["blockcache.hits"] + snap.counters["blockcache.misses"] > 0);
    assert!(snap.counters.contains_key("pager.reads"));
    assert!(snap.counters.contains_key("pager.mmap_reads"));
    assert!(snap.counters.contains_key("tuplepool.hits"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_service_folds_each_query_once() {
    let seed = 0x0B5E_0002;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(200);
    let queries = workload(&corpus, seed);
    let dir = tmp_dir("sharded");
    ShardedIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
        ShardedBuildConfig {
            shards: 4,
            workers: 2,
            mode: ShardBuildMode::InMemory,
        },
    )
    .unwrap();
    let service = QueryService::new(
        Arc::new(ShardedIndex::open(&dir).unwrap()),
        ServiceConfig {
            threads: 4,
            result_cache_mb: 8,
            ..ServiceConfig::default()
        },
    );
    let report = service.run_batch(&queries).unwrap();
    let snap = service.sync_metrics();

    // Despite 4 shard workers behind the service, each query counts
    // once.
    assert_eq!(snap.counters["service.queries"], queries.len() as u64);
    assert_eq!(
        snap.histograms["service.latency_ns"].count,
        queries.len() as u64
    );
    let skips: u64 = report
        .outcomes
        .iter()
        .map(|o| o.result.stats.shards_skipped as u64)
        .sum();
    assert_eq!(snap.counters["shard.skips"], skips);
    assert_eq!(
        snap.counters["shard.visits"],
        report
            .outcomes
            .iter()
            .map(|o| o.result.stats.shards as u64)
            .sum::<u64>()
    );
    assert_eq!(snap.gauges["service.queue_depth"], 0);
    assert_eq!(snap.gauges["service.workers_busy"], 0);

    // Warm repeat: result-cache hits still count as queries, and the
    // mirrored resultcache.* counters see the probes.
    let warm = service.run_batch(&queries).unwrap();
    assert!(warm.outcomes.iter().any(|o| o.result.stats.result_hits > 0));
    let snap2 = service.sync_metrics();
    assert_eq!(snap2.counters["service.queries"], 2 * queries.len() as u64);
    assert!(snap2.counters["resultcache.hits"] > 0);

    // Delta between the two scrapes covers exactly the warm batch.
    let delta = snap2.counter_delta_since(&snap);
    assert_eq!(delta["service.queries"], queries.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}
