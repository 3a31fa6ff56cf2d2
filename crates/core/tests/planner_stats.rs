//! Statistics-subsystem tests: every list's header states what a
//! recount of the list finds, whichever build path wrote it, and the
//! cost-based planner produces bit-identical match sets to the
//! materializing oracle on a randomized corpus (join order and tid-range
//! pruning must never change results).

use std::collections::HashMap;

use si_core::build_ext::ExternalBuildConfig;
use si_core::coding::Posting;
use si_core::{Coding, ExecMode, IndexOptions, SubtreeIndex};
use si_corpus::GeneratorConfig;
use si_parsetree::{LabelInterner, ParseTree, TreeId};
use si_query::parse_query;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-plstats-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recounts one decoded posting list's statistics the slow way.
fn brute_stats(postings: &[Posting]) -> (u64, u64, TreeId, TreeId) {
    let mut distinct = 0u64;
    let mut last: Option<TreeId> = None;
    let mut first_tid = 0;
    let mut last_tid = 0;
    for p in postings {
        let tid = match p {
            Posting::Tid(tid) => *tid,
            Posting::Root { tid, .. } => *tid,
            Posting::Occurrence { tid, .. } => *tid,
        };
        if last != Some(tid) {
            distinct += 1;
        }
        if last.is_none() {
            first_tid = tid;
        }
        last = Some(tid);
        last_tid = tid;
    }
    (postings.len() as u64, distinct, first_tid, last_tid)
}

#[test]
fn list_header_stats_match_brute_force_recount_per_build_path() {
    let corpus = GeneratorConfig::default().with_seed(0xBEEF).generate(80);
    for coding in Coding::ALL {
        let dir_a = tmp_dir(&format!("one-{coding:?}"));
        let dir_b = tmp_dir(&format!("par-{coding:?}"));
        let dir_c = tmp_dir(&format!("ext-{coding:?}"));
        let dir_d = tmp_dir(&format!("default-{coding:?}"));
        let options = IndexOptions::new(3, coding);
        let built = [
            SubtreeIndex::build_parallel(&dir_a, corpus.trees(), corpus.interner(), options, 1)
                .unwrap(),
            SubtreeIndex::build_parallel(&dir_b, corpus.trees(), corpus.interner(), options, 3)
                .unwrap(),
            SubtreeIndex::build_external(
                &dir_c,
                corpus.trees(),
                corpus.interner(),
                options,
                ExternalBuildConfig {
                    run_budget_bytes: 1 << 12, // force several runs
                },
            )
            .unwrap(),
            SubtreeIndex::build(&dir_d, corpus.trees(), corpus.interner(), options).unwrap(),
        ];
        for index in &built {
            for entry in index.iter_keys().unwrap() {
                let (key, bytes) = entry.unwrap();
                let stats = index.key_stats(&key).unwrap().expect("indexed key");
                let postings = index.postings(&key).unwrap().unwrap();
                let (count, distinct, first, last) = brute_stats(&postings);
                assert_eq!(stats.postings, count, "{coding}: posting count");
                assert_eq!(stats.distinct_tids, distinct, "{coding}: distinct tids");
                assert_eq!(stats.first_tid, first, "{coding}: first tid");
                assert_eq!(stats.last_tid, last, "{coding}: last tid");
                assert_eq!(stats.bytes, bytes.len() as u64, "{coding}: encoded bytes");
            }
        }
        for dir in [dir_a, dir_b, dir_c, dir_d] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn stats_survive_reopen() {
    let corpus = GeneratorConfig::default().with_seed(0xF00D).generate(50);
    let dir = tmp_dir("reopen");
    let mut snapshot: HashMap<Vec<u8>, si_core::KeyStats> = HashMap::new();
    {
        let index = SubtreeIndex::build(
            &dir,
            corpus.trees(),
            corpus.interner(),
            IndexOptions::new(3, Coding::RootSplit),
        )
        .unwrap();
        for entry in index.iter_keys().unwrap() {
            let (key, _) = entry.unwrap();
            snapshot.insert(key.clone(), index.key_stats(&key).unwrap().unwrap());
        }
    }
    let index = SubtreeIndex::open(&dir).unwrap();
    for (key, want) in &snapshot {
        assert_eq!(index.key_stats(key).unwrap().as_ref(), Some(want));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn range_pruning_fires_and_preserves_emptiness() {
    // Two unique constructions in different trees: their conjunction is
    // empty, and with exact stats the planner proves it from disjoint
    // tid ranges alone.
    let mut li = LabelInterner::new();
    let srcs = [
        "(S (NP (QQA alpha) (QQB beta)) (VP (VBZ hums)))",
        "(S (NP (NN cat)) (VP (VBD sat)))",
        "(S (NP (DT a) (NN dog)) (VP (VBZ barks)))",
        "(S (NP (QQC gamma) (QQD delta)) (VP (VBZ sings)))",
    ];
    let trees: Vec<ParseTree> = srcs
        .iter()
        .map(|s| si_parsetree::ptb::parse(s, &mut li).unwrap())
        .collect();
    let text = "S(//NP(QQA)(QQB))(//NP(QQC)(QQD))";
    for coding in Coding::ALL {
        let dir = tmp_dir(&format!("prune-{coding:?}"));
        let index = SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(3, coding)).unwrap();
        let mut interner = index.interner();
        let q = parse_query(text, &mut interner).unwrap();
        let cost = index.evaluate(&q).unwrap();
        assert!(cost.matches.is_empty(), "{coding}: conjunction is empty");
        assert!(
            cost.stats.range_pruned,
            "{coding}: disjoint tid ranges prune before execution"
        );
        assert_eq!(
            cost.stats.postings_fetched, 0,
            "{coding}: no posting decoded on the pruned path"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The planner-ordering differential: on a randomized corpus, the
/// cost-based planner and the materializing oracle must produce
/// identical match sets for every query and coding.
#[test]
fn planner_and_oracle_agree_on_randomized_corpus() {
    let corpus = GeneratorConfig::default().with_seed(0x5EED).generate(120);
    let queries = [
        "NP(NN)",
        "S(NP)(VP)",
        "S(NP(NN))(VP)",
        "S(NP(DT)(NN))(VP(VBZ))",
        "VP(//NN)",
        "S(//NP(//NN))(//VP)",
        "S(NP(NP)(PP))(VP)",
        "NP(NP(NN))(PP(IN)(NP))",
        "S(//DT)(//VBZ)",
        "S(NP(NNS))(VP(VBZ)(NP(NN)))",
    ];
    for coding in Coding::ALL {
        for mss in [2, 3] {
            let dir = tmp_dir(&format!("diff-{coding:?}-{mss}"));
            let mut index = SubtreeIndex::build(
                &dir,
                corpus.trees(),
                corpus.interner(),
                IndexOptions::new(mss, coding),
            )
            .unwrap();
            let mut interner = index.interner();
            for text in queries {
                let q = parse_query(text, &mut interner).unwrap();
                let cost = index.evaluate(&q).unwrap().matches;
                index.set_exec_mode(ExecMode::Materialized);
                let oracle = index.evaluate(&q).unwrap().matches;
                index.set_exec_mode(ExecMode::Streaming);
                assert_eq!(cost, oracle, "{text} under {coding} mss={mss}: vs oracle");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
