//! The cache-aware and shared-scan execution paths must be invisible to
//! results: for any query, evaluating through a [`BlockCache`] (cold,
//! warm, or eviction-thrashed) or through batch-shared tuple vectors
//! yields exactly the plain streaming executor's match set.

use std::sync::Arc;

use si_core::cover::decompose;
use si_core::exec::collect_scan_tuples;
use si_core::{
    BlockCache, BlockCacheConfig, Coding, ExecContext, IndexOptions, SharedTuples, SubtreeIndex,
};
use si_corpus::GeneratorConfig;
use si_query::parse_query;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-cacheeq-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const QUERIES: &[&str] = &[
    "NP(NN)",
    "S(NP)(VP)",
    "S(NP(DT)(NN))(VP)",
    "VP(VBZ)(NP(NN))",
    "S(//NN)",
    "NP(//DT)",
    "S(NP(NNS))(VP(VBZ)(NP))",
];

#[test]
fn cached_execution_matches_plain_for_all_codings() {
    let corpus = GeneratorConfig::default().with_seed(77).generate(300);
    for coding in Coding::ALL {
        let dir = tmp_dir(&format!("{coding:?}").to_lowercase());
        let index = SubtreeIndex::build(
            &dir,
            corpus.trees(),
            corpus.interner(),
            IndexOptions::new(3, coding),
        )
        .unwrap();
        let mut interner = index.interner();
        // A generous cache and a tiny (eviction-thrashing) cache must
        // both be invisible to results.
        for budget in [16 << 20, 2 << 10] {
            let cache = Arc::new(BlockCache::new(BlockCacheConfig {
                budget_bytes: budget,
                shards: 2,
                block_postings: 64,
            }));
            for text in QUERIES {
                let query = parse_query(text, &mut interner).unwrap();
                let plain = index.evaluate(&query).unwrap();
                let ctx = ExecContext {
                    cache: Some(cache.clone()),
                    ..Default::default()
                };
                // Twice: cold then (possibly) warm.
                let cold = index.evaluate_with(&query, &ctx).unwrap();
                let warm = index.evaluate_with(&query, &ctx).unwrap();
                assert_eq!(cold.matches, plain.matches, "{text} {coding} cold");
                assert_eq!(warm.matches, plain.matches, "{text} {coding} warm");
            }
            let stats = cache.stats();
            assert!(
                stats.peak_bytes as usize <= budget,
                "{coding}: peak {} exceeds budget {budget}",
                stats.peak_bytes
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn warm_cache_registers_hits_in_eval_stats() {
    let corpus = GeneratorConfig::default().with_seed(78).generate(300);
    let dir = tmp_dir("warmhits");
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .unwrap();
    let mut interner = index.interner();
    let query = parse_query("S(NP)(VP)", &mut interner).unwrap();
    let cache = Arc::new(BlockCache::new(BlockCacheConfig::default()));
    let ctx = ExecContext {
        cache: Some(cache),
        ..Default::default()
    };
    let cold = index.evaluate_with(&query, &ctx).unwrap();
    assert!(!cold.matches.is_empty(), "query should match the corpus");
    assert!(cold.stats.cache_misses > 0, "cold run must miss");
    let warm = index.evaluate_with(&query, &ctx).unwrap();
    assert!(warm.stats.cache_hits > 0, "warm run must hit");
    assert_eq!(warm.stats.cache_misses, 0, "fully cached list");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_scans_match_plain_execution() {
    let corpus = GeneratorConfig::default().with_seed(79).generate(300);
    for coding in [Coding::RootSplit, Coding::SubtreeInterval] {
        let dir = tmp_dir(&format!("shared-{coding:?}").to_lowercase());
        let index = SubtreeIndex::build(
            &dir,
            corpus.trees(),
            corpus.interner(),
            IndexOptions::new(3, coding),
        )
        .unwrap();
        let mut interner = index.interner();
        for text in QUERIES {
            let query = parse_query(text, &mut interner).unwrap();
            // Pre-decode every cover key into shared tuple vectors, as
            // the service does for keys shared across a batch.
            let cover = decompose(&query, index.options().mss, coding);
            let mut shared = SharedTuples::new();
            for st in &cover.subtrees {
                if index.posting_len(&st.key).unwrap().is_some() {
                    let tuples =
                        collect_scan_tuples(&index, &st.key, &ExecContext::default()).unwrap();
                    shared.insert(st.key.clone(), tuples);
                }
            }
            let plain = index.evaluate(&query).unwrap();
            let ctx = ExecContext {
                shared: Some(&shared),
                ..Default::default()
            };
            let got = index.evaluate_with(&query, &ctx).unwrap();
            assert_eq!(got.matches, plain.matches, "{text} under {coding}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn pager_counters_flow_into_eval_stats() {
    let corpus = GeneratorConfig::default().with_seed(80).generate(200);
    let dir = tmp_dir("pagerstats");
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .unwrap();
    let mut interner = index.interner();
    let query = parse_query("S(NP)(VP)", &mut interner).unwrap();
    let result = index.evaluate(&query).unwrap();
    assert!(
        result.stats.pager_hits + result.stats.pager_misses > 0,
        "a B+Tree descent must touch pages: {:?}",
        result.stats
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A seek that a resident block shows cannot move opens no list: once
/// every block of a one-key query is cached, the warm scan — seeded to
/// its own first tid — holds no page of the list, and a two-key query,
/// whose seeds can move, answers as the plain executor does.
#[test]
fn warm_scans_open_no_list_for_a_seek_that_cannot_move() {
    let corpus = GeneratorConfig::default().with_seed(81).generate(2000);
    let dir = tmp_dir("warmseek");
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::RootSplit),
    )
    .unwrap();
    let mut interner = index.interner();
    let cache = Arc::new(BlockCache::new(BlockCacheConfig::with_budget(32 << 20)));
    let ctx = ExecContext {
        cache: Some(cache),
        ..Default::default()
    };
    for text in ["NP(NN)", "S(NP(DT)(NN))(VP)"] {
        let query = parse_query(text, &mut interner).unwrap();
        let plain = index.evaluate(&query).unwrap();
        let cold = index.evaluate_with(&query, &ctx).unwrap();
        let warm = index.evaluate_with(&query, &ctx).unwrap();
        assert_eq!(cold.matches, plain.matches, "{text}: cold");
        assert_eq!(warm.matches, plain.matches, "{text}: warm");
        assert_eq!(warm.stats.cache_misses, 0, "{text}: warm run all hits");
        if text == "NP(NN)" {
            assert!(
                cold.stats.postings_fetched > 1024,
                "{text}: a seekable list"
            );
            assert_eq!(warm.stats.peak_posting_bytes, 0, "{text}: no page held");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
