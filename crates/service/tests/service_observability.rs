//! Service-level observability: `collect_timings` attaches a span
//! snapshot to every outcome without changing any answer, batches
//! report latency quantiles from the shared histogram type, and the
//! service folds per-shard timings in under `shard-N` groups.

use std::sync::Arc;

use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{Coding, IndexOptions, SubtreeIndex};
use si_corpus::GeneratorConfig;
use si_query::{parse_query, Query};
use si_service::{QueryService, ServiceConfig};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-svc-obs-{name}-{}-{}",
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
    "NP(DT)(NN)",
    "S(NP)(VP)",
    "S(NP(NN))(VP)",
    "VP(//NN)",
    "NP(JJ)(NN)",
    "NP(DT)(NN)",
];

fn queries(interner: &mut si_parsetree::LabelInterner) -> Vec<Query> {
    QUERIES
        .iter()
        .map(|q| parse_query(q, interner).unwrap())
        .collect()
}

#[test]
fn collect_timings_fills_snapshots_without_changing_answers() {
    let corpus = GeneratorConfig::default()
        .with_seed(0x0B5_0001)
        .generate(300);
    let mut interner = corpus.interner().clone();
    let queries = queries(&mut interner);
    let dir = tmp_dir("mono");
    SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(3, Coding::SubtreeInterval),
    )
    .unwrap();
    let plain_svc = QueryService::open(
        &dir,
        ServiceConfig {
            threads: 3,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let timed_svc = QueryService::open(
        &dir,
        ServiceConfig {
            threads: 3,
            collect_timings: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let plain = plain_svc.run_batch(&queries).unwrap();
    let timed = timed_svc.run_batch(&queries).unwrap();
    for (i, (p, t)) in plain.outcomes.iter().zip(&timed.outcomes).enumerate() {
        assert_eq!(
            p.result.matches, t.result.matches,
            "query {i}: collect_timings changed the answer"
        );
        assert!(p.timings.is_none(), "query {i}: timings without opt-in");
        let snap = t.timings.as_ref().expect("collect_timings snapshot");
        assert!(snap.stage_total() > 0, "query {i}: no time attributed");
        assert!(!snap.ops.is_empty(), "query {i}: no operator nodes");
    }
    // Per-batch and cumulative latency come from the shared histogram:
    // one record per query, quantiles ordered.
    for report in [&plain, &timed] {
        let l = &report.latency;
        assert_eq!(l.count, queries.len() as u64);
        // Quantiles are bucket midpoints (may exceed the exact max by
        // up to the ~3% bucket width) but are monotone in rank.
        assert!(l.p50 <= l.p90 && l.p90 <= l.p99 && l.p99 <= l.p999);
        assert!(l.min > 0, "a query cannot take zero nanoseconds");
    }
    assert_eq!(timed_svc.latency_summary().count, queries.len() as u64);
    timed_svc.run_batch(&queries).unwrap();
    assert_eq!(
        timed_svc.latency_summary().count,
        2 * queries.len() as u64,
        "cumulative histogram must span batches"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_batch_absorbs_shard_timings_under_group_nodes() {
    let corpus = GeneratorConfig::default()
        .with_seed(0x0B5_0002)
        .generate(240);
    let mut interner = corpus.interner().clone();
    let queries = queries(&mut interner);
    let dir = tmp_dir("sharded");
    let index = Arc::new(
        ShardedIndex::build(
            &dir,
            corpus.trees(),
            corpus.interner(),
            IndexOptions::new(3, Coding::SubtreeInterval),
            ShardedBuildConfig {
                shards: 3,
                workers: 2,
                mode: ShardBuildMode::InMemory,
            },
        )
        .unwrap(),
    );
    let svc = QueryService::new(
        index,
        ServiceConfig {
            threads: 2,
            collect_timings: true,
            ..ServiceConfig::default()
        },
    );
    let report = svc.run_batch(&queries).unwrap();
    assert_eq!(report.latency.count, queries.len() as u64);
    assert_eq!(svc.latency_summary().count, queries.len() as u64);
    let mut saw_snapshot = false;
    for (i, outcome) in report.outcomes.iter().enumerate() {
        // A query every shard proves empty never runs, so it carries no
        // snapshot; any query that did run must group by shard.
        let Some(snap) = &outcome.timings else {
            continue;
        };
        saw_snapshot = true;
        assert!(snap.stage_total() > 0, "query {i}: no time attributed");
        let roots = snap.roots();
        assert!(!roots.is_empty());
        for r in roots {
            assert!(
                snap.ops[r].label.starts_with("shard-"),
                "query {i}: root {:?} is not a shard group",
                snap.ops[r].label
            );
        }
    }
    assert!(saw_snapshot, "no query produced a timings snapshot");
    std::fs::remove_dir_all(&dir).ok();
}
