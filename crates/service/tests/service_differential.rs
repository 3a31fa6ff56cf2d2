//! Differential and resource-bound tests for the concurrent query
//! service: whatever the batch composition or cache pressure,
//! `run_batch` must return exactly the sequential streaming executor's
//! match set per query — and the decoded-block cache and tuple pool
//! must never exceed their byte budgets. (Equivalence across codings,
//! thread counts and index layouts lives in `layout_equivalence.rs`.)

use si_core::{BlockCacheConfig, Coding, IndexOptions, SubtreeIndex};
use si_corpus::{fb_query_set, wh_query_set, GeneratorConfig};
use si_query::Query;
use si_service::{QueryService, ServiceConfig};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-service-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A randomized workload: the corpus-derived FB query set (drawn from
/// indexed and held-out trees, so it contains hits and misses) plus the
/// fixed WH set — 118 queries with heavy cover-key overlap.
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

#[test]
fn shared_scans_actually_fire_on_overlapping_batches() {
    let seed = 0xBA7C_0002;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(300);
    let queries = workload(&corpus, seed);
    let dir = tmp_dir("sharing");
    SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .unwrap();
    let service = QueryService::open(&dir, ServiceConfig::default()).unwrap();
    let report = service.run_batch(&queries).unwrap();
    assert!(
        report.shared_keys > 0,
        "the WH+FB workload must overlap on cover keys"
    );
    assert!(
        report.shared_consumers >= 2 * report.shared_keys,
        "each shared key feeds >= 2 pipelines: {} keys, {} consumers",
        report.shared_keys,
        report.shared_consumers
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_never_exceeds_configured_budget() {
    let seed = 0xBA7C_0003;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(400);
    let queries = workload(&corpus, seed);
    let dir = tmp_dir("evict");
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .unwrap();
    // A budget tiny enough that the workload's posting lists thrash it.
    let budget = 16 << 10;
    let service = QueryService::open(
        &dir,
        ServiceConfig {
            threads: 4,
            cache: BlockCacheConfig {
                budget_bytes: budget,
                shards: 4,
                block_postings: 64,
            },
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| index.evaluate(q).unwrap().matches)
        .collect();
    for _ in 0..2 {
        let report = service.run_batch(&queries).unwrap();
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.result.matches, expected[i], "query {i}");
        }
    }
    let stats = service.cache_stats();
    assert!(
        stats.peak_bytes as usize <= budget,
        "peak cache bytes {} exceed budget {budget}",
        stats.peak_bytes
    );
    assert!(stats.evictions > 0, "a thrashed cache must evict");
    std::fs::remove_dir_all(&dir).ok();
}

/// The cross-batch shared-scan pool is a byte-bounded LRU now: under a
/// budget far smaller than the workload's shared vectors it must evict
/// (not refuse admission), keep residency within budget, and hit on
/// keys hot across consecutive batches — all without changing answers.
#[test]
fn shared_pool_lru_evicts_and_stays_within_budget() {
    let seed = 0xBA7C_0005;
    let corpus = GeneratorConfig::default().with_seed(seed).generate(400);
    let queries = workload(&corpus, seed);
    let dir = tmp_dir("pool-lru");
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .unwrap();
    let budget = 32 << 10;
    let service = QueryService::open(
        &dir,
        ServiceConfig {
            threads: 2,
            shared_pool_budget_bytes: budget,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| index.evaluate(q).unwrap().matches)
        .collect();
    // Two rounds per workload half: the repeat round must hit the pool
    // on whatever survived the first (insert order varies with worker
    // scheduling, but the key sets are identical, so any resident
    // vector hits), and switching halves under the tiny budget forces
    // evictions — the insert-until-budget pool would instead pin the
    // first half's keys forever.
    let mid = queries.len() / 2;
    for round in 0..4 {
        let (slice, offset) = if round < 2 {
            (&queries[..mid], 0)
        } else {
            (&queries[mid..], mid)
        };
        let report = service.run_batch(slice).unwrap();
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.result.matches, expected[offset + i], "query {i}");
        }
    }
    let pool = service.pool_stats();
    assert!(
        pool.peak_bytes <= budget as u64,
        "pool peak {} exceeds budget {budget}",
        pool.peak_bytes
    );
    assert!(pool.current_bytes <= budget as u64);
    assert!(pool.insertions > 0, "shared vectors must be admitted");
    assert!(
        pool.evictions > 0,
        "a rotating workload over a tiny budget must evict: {pool:?}"
    );
    assert!(
        pool.hits > 0,
        "keys hot across batches must be served from the pool: {pool:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_batch_is_fine() {
    let corpus = GeneratorConfig::default().with_seed(1).generate(50);
    let dir = tmp_dir("empty");
    SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(2, Coding::RootSplit),
    )
    .unwrap();
    let service = QueryService::open(&dir, ServiceConfig::default()).unwrap();
    let report = service.run_batch(&[]).unwrap();
    assert!(report.outcomes.is_empty());
    assert_eq!(report.shared_keys, 0);
    std::fs::remove_dir_all(&dir).ok();
}
