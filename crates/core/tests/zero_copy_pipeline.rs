//! Differential and memory-bound tests for the borrow-based posting
//! pipeline (zero-copy `PostingFeed`).
//!
//! The refactor changed *how* postings flow (borrows out of a reusable
//! decode slot or a pinned cache block, copied into owned tuples only
//! when one survives its source) but must change *nothing* about what
//! any query returns. The randomized suite here drives the borrow-based
//! feed through every configuration axis — all 3 codings ×
//! streaming/materialized × monolith/sharded ×
//! cached/uncached — against the legacy owned path (the materializing
//! evaluator clones every posting a cursor lends into an owned `Vec`) and
//! the in-memory matcher ground truth.
//!
//! The memory-bound test pins the headline win: a warm interval-coded
//! scan serves its postings as borrows out of cached blocks, so its
//! `peak_posting_bytes` collapses to root-split levels instead of
//! paying a fresh `nodes` vector per posting per consumer.

use std::sync::Arc;

use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{
    BlockCache, BlockCacheConfig, Coding, ExecContext, ExecMode, IndexOptions, SubtreeIndex,
};
use si_corpus::GeneratorConfig;
use si_parsetree::{LabelInterner, ParseTree, TreeId};
use si_query::{matcher::Matcher, parse_query, Query};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-zerocopy-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ground_truth(trees: &[ParseTree], query: &Query) -> Vec<(TreeId, u32)> {
    let mut out = Vec::new();
    for (tid, tree) in trees.iter().enumerate() {
        for root in Matcher::new(tree, query).roots() {
            out.push((tid as TreeId, root.0));
        }
    }
    out
}

/// The full configuration matrix: for each coding, the borrow-based
/// streaming path (plain, cached cold, cached warm, both planner
/// modes, sharded) must return byte-identical match sets to the owned
/// materializing evaluator and the matcher.
#[test]
fn borrowed_feed_matches_owned_path_across_matrix() {
    for round in 0u64..3 {
        let seed = 0xBEEF + round * 6151;
        let corpus = GeneratorConfig::default()
            .with_seed(seed)
            .generate(70 + round as usize * 30);
        let mut interner = corpus.interner().clone();
        let heldout = GeneratorConfig::default()
            .with_seed(seed + 1)
            .generate_into(20, &mut interner);
        let fb = si_corpus::fb_query_set(&corpus, &heldout, seed + 2);
        let mss = 2 + (round as usize % 2);
        for coding in Coding::ALL {
            let mono_dir = tmp_dir(&format!("m-{round}-{coding:?}").to_lowercase());
            let shard_dir = tmp_dir(&format!("s-{round}-{coding:?}").to_lowercase());
            let mut mono = SubtreeIndex::build(
                &mono_dir,
                corpus.trees(),
                &interner,
                IndexOptions::new(mss, coding),
            )
            .unwrap();
            let sharded = ShardedIndex::build(
                &shard_dir,
                corpus.trees(),
                &interner,
                IndexOptions::new(mss, coding),
                ShardedBuildConfig {
                    shards: 2,
                    workers: 2,
                    mode: ShardBuildMode::InMemory,
                },
            )
            .unwrap();
            let cache = Arc::new(BlockCache::new(BlockCacheConfig::with_budget(8 << 20)));
            for fbq in fb.iter().step_by(4) {
                let expect = ground_truth(corpus.trees(), &fbq.query);

                // Owned path: the materializing evaluator (decodes
                // every posting into owned Vecs).
                mono.set_exec_mode(ExecMode::Materialized);
                let owned = mono.evaluate(&fbq.query).unwrap();
                assert_eq!(owned.matches, expect, "owned oracle {coding} mss={mss}");
                mono.set_exec_mode(ExecMode::Streaming);

                // Borrow-based feed, every configuration.
                let got = mono.evaluate(&fbq.query).unwrap();
                assert_eq!(got.matches, expect, "streaming {coding} mss={mss}");
                // Cached: first run decodes + warms (borrows on later
                // blocks of hot keys), second run borrows throughout.
                let cached = ExecContext {
                    cache: Some(cache.clone()),
                    ..Default::default()
                };
                let cold = mono.evaluate_with(&fbq.query, &cached).unwrap();
                assert_eq!(cold.matches, expect, "cached cold {coding} mss={mss}");
                let warm = mono.evaluate_with(&fbq.query, &cached).unwrap();
                assert_eq!(warm.matches, expect, "cached warm {coding} mss={mss}");

                // Sharded scatter-gather over the same borrow-based feed.
                let sh = sharded.evaluate(&fbq.query).unwrap();
                assert_eq!(sh.matches, expect, "sharded {coding} mss={mss}");
            }
            std::fs::remove_dir_all(&mono_dir).ok();
            std::fs::remove_dir_all(&shard_dir).ok();
        }
    }
}

/// Warm interval-coded scans must stop paying per-posting `nodes`
/// allocations: with every block a cache hit, the scan's resident
/// footprint collapses to root-split levels (pinned blocks are the
/// cache's bytes, not the scan's), and the borrow counter proves the
/// zero-copy path actually served the postings.
#[test]
fn warm_interval_cache_hits_drop_peak_to_root_split_levels() {
    let mut li = LabelInterner::new();
    // A corpus where the queried keys carry many interval postings.
    let mut srcs: Vec<String> = Vec::new();
    for i in 0..600 {
        let nps: String = (0..4)
            .map(|j| format!("(NP (DT d{i}) (NN w{i}x{j}))"))
            .collect();
        srcs.push(format!("(S {nps} (VP (VBZ v{})))", i % 7));
    }
    let trees: Vec<ParseTree> = srcs
        .iter()
        .map(|s| si_parsetree::ptb::parse(s, &mut li).unwrap())
        .collect();
    let mut qi = li.clone();
    let query = parse_query("NP(DT)(NN)", &mut qi).unwrap();

    // (cold, warm, owned): two cached streaming runs, then the
    // materializing evaluator that decodes every posting into a `Vec`.
    let run = |coding: Coding| -> [si_core::eval::EvalStats; 3] {
        let dir = tmp_dir(&format!("warm-{coding:?}").to_lowercase());
        let mut index =
            SubtreeIndex::build(&dir, &trees, &qi, IndexOptions::new(3, coding)).unwrap();
        let cache = Arc::new(BlockCache::new(BlockCacheConfig::with_budget(32 << 20)));
        let ctx = ExecContext {
            cache: Some(cache),
            ..Default::default()
        };
        let cold = index.evaluate_with(&query, &ctx).unwrap();
        let warm = index.evaluate_with(&query, &ctx).unwrap();
        index.set_exec_mode(ExecMode::Materialized);
        let owned = index.evaluate(&query).unwrap();
        assert_eq!(cold.matches, warm.matches, "{coding}: warm run must agree");
        assert_eq!(
            owned.matches, warm.matches,
            "{coding}: owned run must agree"
        );
        assert!(!warm.matches.is_empty(), "{coding}: query must match");
        std::fs::remove_dir_all(&dir).ok();
        [cold.stats, warm.stats, owned.stats]
    };

    let [iv_cold, iv_warm, iv_owned] = run(Coding::SubtreeInterval);
    let [_, rs_warm, _] = run(Coding::RootSplit);

    // Cold: the scan decodes blocks itself and owns their bytes.
    assert!(
        iv_cold.peak_posting_bytes > 4 * 1024,
        "cold interval scan too small to be meaningful: {}",
        iv_cold.peak_posting_bytes
    );
    assert_eq!(iv_warm.cache_misses, 0, "warm run must be all hits");
    assert!(
        iv_warm.postings_borrowed >= iv_warm.postings_fetched as u64,
        "warm postings must be served as borrows: {} borrowed / {} fetched",
        iv_warm.postings_borrowed,
        iv_warm.postings_fetched
    );
    // Warm: pinned hit blocks are charged to the cache, so the interval
    // scan's own footprint drops by an integer factor, down to the same
    // level a root-split scan pays.
    assert!(
        (iv_warm.peak_posting_bytes as f64) < 0.25 * iv_cold.peak_posting_bytes as f64,
        "warm interval peak {} must be far below cold peak {}",
        iv_warm.peak_posting_bytes,
        iv_cold.peak_posting_bytes
    );
    assert!(
        (iv_warm.peak_posting_bytes as f64) < 0.5 * iv_owned.peak_posting_bytes as f64,
        "warm interval peak {} must be under half the owned path's {}",
        iv_warm.peak_posting_bytes,
        iv_owned.peak_posting_bytes
    );
    assert!(
        iv_warm.peak_posting_bytes <= rs_warm.peak_posting_bytes + 1024,
        "warm interval peak {} must reach root-split levels ({})",
        iv_warm.peak_posting_bytes,
        rs_warm.peak_posting_bytes
    );
}

/// The sort-free plan rule must fire on real workloads: across a seeded
/// FB query set under the interval coding (the only coding that ever
/// needs order enforcers), a healthy fraction of queries report avoided
/// sort exchanges, and turning the preference off still returns the
/// same matches.
#[test]
fn sort_free_plans_fire_on_interval_workload() {
    let corpus = GeneratorConfig::default().with_seed(0x50F7).generate(150);
    let mut interner = corpus.interner().clone();
    let heldout = GeneratorConfig::default()
        .with_seed(0x50F8)
        .generate_into(30, &mut interner);
    let fb = si_corpus::fb_query_set(&corpus, &heldout, 0x50F9);
    let dir = tmp_dir("sortfree");
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        &interner,
        IndexOptions::new(3, Coding::SubtreeInterval),
    )
    .unwrap();
    let mut total_avoided = 0usize;
    for fbq in &fb {
        let expect = ground_truth(corpus.trees(), &fbq.query);
        let r = index.evaluate(&fbq.query).unwrap();
        assert_eq!(r.matches, expect, "class {} size {}", fbq.class, fbq.size);
        total_avoided += r.stats.sort_exchanges_avoided;
    }
    assert!(
        total_avoided > 0,
        "the interval workload must avoid at least one sort exchange"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `postings_borrowed` counts only zero-copy cache-hit serves: zero
/// without a cache, zero on a fully cold cache, and equal to the warm
/// run's posting traffic once every block hits.
#[test]
fn borrow_counter_tracks_cache_hits_exactly() {
    let corpus = GeneratorConfig::default().with_seed(0xB0B).generate(80);
    let mut interner = corpus.interner().clone();
    let query = parse_query("NP(DT)(NN)", &mut interner).unwrap();
    let dir = tmp_dir("borrowctr");
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        &interner,
        IndexOptions::new(3, Coding::SubtreeInterval),
    )
    .unwrap();

    let plain = index.evaluate(&query).unwrap();
    assert_eq!(plain.stats.postings_borrowed, 0, "no cache, no borrows");

    let cache = Arc::new(BlockCache::new(BlockCacheConfig::with_budget(8 << 20)));
    let ctx = ExecContext {
        cache: Some(cache),
        ..Default::default()
    };
    let cold = index.evaluate_with(&query, &ctx).unwrap();
    let warm = index.evaluate_with(&query, &ctx).unwrap();
    assert_eq!(cold.matches, warm.matches);
    assert_eq!(
        cold.stats.postings_borrowed, 0,
        "a cold cache serves no borrowed postings"
    );
    assert!(warm.stats.cache_hits > 0 && warm.stats.cache_misses == 0);
    assert_eq!(
        warm.stats.postings_borrowed, warm.stats.postings_fetched as u64,
        "every warm posting is a borrow"
    );
    std::fs::remove_dir_all(&dir).ok();
}
