//! Differential tests: every coding scheme must produce exactly the
//! match set the in-memory matcher computes, across corpora, `mss`
//! values and query shapes — the core exactness claim of the paper
//! ("our subtree interval and root-split codings remove the need for
//! post-validations" while staying exact).

use si_core::{Coding, IndexOptions, SubtreeIndex};
use si_corpus::GeneratorConfig;
use si_parsetree::{LabelInterner, ParseTree, TreeId};
use si_query::{matcher::Matcher, parse_query, Query};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-equiv-{name}-{}-{}",
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

/// Builds indexes for every (coding, mss) combination and checks every
/// query against the matcher.
fn check_all(trees: &[ParseTree], interner: &LabelInterner, queries: &[&str], msses: &[usize]) {
    let mut qi = interner.clone();
    let parsed: Vec<(String, Query)> = queries
        .iter()
        .map(|q| ((*q).to_string(), parse_query(q, &mut qi).unwrap()))
        .collect();
    for &mss in msses {
        for coding in Coding::ALL {
            let dir = tmp_dir(&format!("{coding:?}-{mss}").to_lowercase());
            let index =
                SubtreeIndex::build(&dir, trees, &qi, IndexOptions::new(mss, coding)).unwrap();
            for (text, query) in &parsed {
                let expect = ground_truth(trees, query);
                let got = index.evaluate(query).unwrap();
                assert_eq!(got.matches, expect, "query {text} under {coding} mss={mss}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn handcrafted_corpus_all_codings() {
    let mut li = LabelInterner::new();
    let srcs = [
        "(S (NP (DT the) (NN dog)) (VP (VBZ barks)))",
        "(S (NP (NNS agouti)) (VP (VBZ is) (NP (DT a) (JJ small) (NN rodent))))",
        "(S (NP (NN cat)) (VP (VBD sat) (PP (IN on) (NP (DT the) (NN mat)))))",
        "(S (NP (NP (NN list)) (PP (IN of) (NP (NNS items)))) (VP (VBZ grows)))",
        "(NP (NN x) (NN y))",
        "(S (VP (VBZ runs)))",
    ];
    let trees: Vec<ParseTree> = srcs
        .iter()
        .map(|s| si_parsetree::ptb::parse(s, &mut li).unwrap())
        .collect();
    let queries = [
        "NN",
        "NP(NN)",
        "NP(DT)(NN)",
        "S(NP)(VP)",
        "S(NP(NN))(VP(VBZ))",
        "VP(VBZ)(NP(DT)(NN))",
        "S(//NN)",
        "VP(//NN)",
        "S(NP)(//NN)",
        "NP(NN)(NN)",
        "S(NP(NNS(agouti)))(VP(VBZ(is))(NP(DT(a))(NN)))",
        "PP(IN(on))(NP)",
        "XXUNKNOWN",
        "S(NP(XX))",
    ];
    check_all(&trees, &li, &queries, &[1, 2, 3, 4, 5]);
}

#[test]
fn generated_corpus_all_codings() {
    let corpus = GeneratorConfig::default().with_seed(1234).generate(120);
    let queries = [
        "NP(DT)(NN)",
        "S(NP)(VP)",
        "VP(VBZ)(NP)",
        "NP(NP)(PP(IN)(NP))",
        "S(NP(DT)(NN))(VP)",
        "S(//PP(IN)(NP))",
        "VP(//NN)",
        "NP(DT(the))(NN)",
        "S(NP(PRP))(VP(VBZ)(NP(DT)(NN)))",
        "PP(IN(of))(NP(NNS))",
        "S(//NN)",
        "S(//NP(//NN))",
        "S(//NP)(//VP)",
        "VP(//PP(//NN))",
    ];
    check_all(corpus.trees(), corpus.interner(), &queries, &[1, 2, 3, 5]);
}

#[test]
fn generated_corpus_fb_style_subtree_queries() {
    // Queries extracted as real subtrees of held-out trees (the FB
    // construction): guaranteed non-trivial structure.
    let corpus = GeneratorConfig::default().with_seed(77).generate(100);
    let mut interner = corpus.interner().clone();
    let heldout = GeneratorConfig::default()
        .with_seed(78)
        .generate_into(30, &mut interner);
    let fb = si_corpus::fb_query_set(&corpus, &heldout, 5);
    for &mss in &[2usize, 3, 4] {
        for coding in Coding::ALL {
            let dir = tmp_dir(&format!("fb-{coding:?}-{mss}").to_lowercase());
            let index = SubtreeIndex::build(
                &dir,
                corpus.trees(),
                &interner,
                IndexOptions::new(mss, coding),
            )
            .unwrap();
            // Every 4th query keeps runtime low while covering all
            // classes and sizes.
            for fbq in fb.iter().step_by(4) {
                let expect = ground_truth(corpus.trees(), &fbq.query);
                let got = index.evaluate(&fbq.query).unwrap();
                assert_eq!(
                    got.matches, expect,
                    "class {} size {} under {coding} mss={mss}",
                    fbq.class, fbq.size
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn wh_queries_match_ground_truth() {
    let corpus = GeneratorConfig::default().with_seed(4242).generate(150);
    let mut interner = corpus.interner().clone();
    let wh = si_corpus::wh_query_set(&mut interner);
    for &mss in &[3usize] {
        for coding in Coding::ALL {
            let dir = tmp_dir(&format!("wh-{coding:?}-{mss}").to_lowercase());
            let index = SubtreeIndex::build(
                &dir,
                corpus.trees(),
                &interner,
                IndexOptions::new(mss, coding),
            )
            .unwrap();
            for q in wh.iter().step_by(3) {
                let expect = ground_truth(corpus.trees(), &q.query);
                let got = index.evaluate(&q.query).unwrap();
                assert_eq!(got.matches, expect, "{} under {coding}", q.text);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Nine trees of `si generate --sentences 200000 --seed 12648430` on
/// which the streaming executor once returned a second, false match
/// (tree 0, node 8). Under root-split `mss = 3` four covers meet at the
/// inner `NP`; the planner places the stream exposing it through
/// `NP(CC(and))` before the stream its chain equality named, so with
/// only neighbouring streams equated that root was never tied to the
/// inner `NP`. `cross_stream_predicates` now equates every pair.
#[test]
fn lost_equality_between_streams_sharing_a_query_node() {
    let mut li = LabelInterner::new();
    let trees =
        si_parsetree::ptb::parse_corpus(include_str!("data/lost_equality.ptb"), &mut li).unwrap();
    assert_eq!(trees.len(), 9);
    let query = parse_query("NP(NP(,)(CC(and))(NP(NNS)))", &mut li).unwrap();
    let expect = ground_truth(&trees, &query);
    assert_eq!(expect.len(), 1, "the matcher finds exactly one occurrence");
    for coding in [Coding::RootSplit, Coding::SubtreeInterval] {
        let dir = tmp_dir(&format!("losteq-{coding:?}").to_lowercase());
        let mut index =
            SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(3, coding)).unwrap();
        for mode in [
            si_core::ExecMode::Streaming,
            si_core::ExecMode::Materialized,
        ] {
            index.set_exec_mode(mode);
            let got = index.evaluate(&query).unwrap();
            assert_eq!(got.matches, expect, "{mode:?} under {coding}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Randomized differential property test (self-contained — the external
/// `proptest` crate is unavailable offline): across random corpora and
/// real-subtree queries, the streaming executor must return exactly the
/// match set of the legacy materializing evaluator under every coding,
/// with internally consistent `EvalStats`.
#[test]
fn property_streaming_matches_materialized_across_codings() {
    // Deterministic seed schedule; each round draws a fresh corpus and
    // a fresh FB-style query set.
    for round in 0u64..4 {
        let corpus_seed = 0xC0FFEE + round * 7919;
        let corpus = GeneratorConfig::default()
            .with_seed(corpus_seed)
            .generate(60 + (round as usize) * 25);
        let mut interner = corpus.interner().clone();
        let heldout = GeneratorConfig::default()
            .with_seed(corpus_seed + 1)
            .generate_into(25, &mut interner);
        let fb = si_corpus::fb_query_set(&corpus, &heldout, corpus_seed + 2);
        let mss = 2 + (round as usize % 2); // rotate 2, 3
        for coding in Coding::ALL {
            let dir = tmp_dir(&format!("prop-{round}-{coding:?}-{mss}").to_lowercase());
            let mut index = SubtreeIndex::build(
                &dir,
                corpus.trees(),
                &interner,
                IndexOptions::new(mss, coding),
            )
            .unwrap();
            for fbq in fb.iter().step_by(3) {
                index.set_exec_mode(si_core::ExecMode::Streaming);
                let s = index.evaluate(&fbq.query).unwrap();
                index.set_exec_mode(si_core::ExecMode::Materialized);
                let m = index.evaluate(&fbq.query).unwrap();
                assert_eq!(
                    s.matches, m.matches,
                    "round {round} class {} size {} under {coding} mss={mss}",
                    fbq.class, fbq.size
                );
                // The matcher is the independent ground truth.
                assert_eq!(
                    s.matches,
                    ground_truth(corpus.trees(), &fbq.query),
                    "round {round} ground truth under {coding} mss={mss}"
                );
                // Stats sanity for both executors.
                for (which, stats) in [("streaming", s.stats), ("materialized", m.stats)] {
                    assert!(stats.covers >= 1, "{which}: no covers");
                    assert!(
                        stats.joins <= stats.covers.saturating_sub(1),
                        "{which}: more joins than cover pairs"
                    );
                    if !s.matches.is_empty() {
                        assert_eq!(
                            stats.joins,
                            stats.covers - 1,
                            "{which}: non-empty result must execute the full plan"
                        );
                        assert!(stats.postings_fetched > 0, "{which}: no postings decoded");
                        assert!(
                            stats.peak_posting_bytes > 0,
                            "{which}: resident bytes untracked"
                        );
                    }
                }
                assert_eq!(s.stats.covers, m.stats.covers, "same decomposition");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The acceptance criterion of the streaming refactor, as a test: with
/// one rare and one very frequent cover subtree, the streaming executor
/// holds O(pages in flight) posting bytes while the materializing
/// evaluator pays for the full frequent list — streaming must stay
/// under 50% of the legacy footprint (it is typically under 10%).
#[test]
fn streaming_bounds_resident_bytes_on_skewed_lists() {
    let mut li = LabelInterner::new();
    let mut srcs: Vec<String> = Vec::new();
    // Two rare trees carrying the selective key.
    srcs.push("(FRAG (NP (NN target)))".to_string());
    srcs.push("(S (FRAG (NP (NN target))) (VP (VBZ is)))".to_string());
    // A long tail of filler trees, each contributing many distinct
    // NP-rooted NN occurrences (distinct roots survive root-split
    // deduplication, so the NN-side posting list grows with the corpus).
    for i in 0..1500 {
        let nps: String = (0..8).map(|j| format!("(NP (NN w{i}x{j}))")).collect();
        srcs.push(format!("(S {nps} (VP (VBZ v{i})))"));
    }
    let trees: Vec<ParseTree> = srcs
        .iter()
        .map(|s| si_parsetree::ptb::parse(s, &mut li).unwrap())
        .collect();
    let dir = tmp_dir("skewed");
    let mut index =
        SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(2, Coding::RootSplit)).unwrap();
    let mut qi = li.clone();
    let query = parse_query("FRAG(NP(NN))", &mut qi).unwrap();

    index.set_exec_mode(si_core::ExecMode::Streaming);
    let s = index.evaluate(&query).unwrap();
    index.set_exec_mode(si_core::ExecMode::Materialized);
    let m = index.evaluate(&query).unwrap();

    assert_eq!(s.matches, m.matches);
    assert_eq!(s.matches, ground_truth(&trees, &query));
    assert!(!s.matches.is_empty(), "the rare pattern must match");
    // The frequent NN list spans multiple pages; materializing pays for
    // all of it, streaming only for the pages in flight.
    assert!(
        m.stats.peak_posting_bytes > 8 * 1024,
        "test corpus too small to be meaningful: legacy peak {}",
        m.stats.peak_posting_bytes
    );
    assert!(
        (s.stats.peak_posting_bytes as f64) < 0.5 * m.stats.peak_posting_bytes as f64,
        "streaming peak {} must stay under half of materialized peak {}",
        s.stats.peak_posting_bytes,
        m.stats.peak_posting_bytes
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistence_round_trip() {
    let corpus = GeneratorConfig::default().with_seed(9).generate(60);
    let dir = tmp_dir("persist");
    let mut qi = corpus.interner().clone();
    let query = parse_query("S(NP)(VP(VBZ))", &mut qi).unwrap();
    let expect;
    {
        let index = SubtreeIndex::build(
            &dir,
            corpus.trees(),
            &qi,
            IndexOptions::new(3, Coding::RootSplit),
        )
        .unwrap();
        expect = index.evaluate(&query).unwrap().matches;
    }
    let reopened = SubtreeIndex::open(&dir).unwrap();
    assert_eq!(reopened.options().mss, 3);
    assert_eq!(reopened.options().coding, Coding::RootSplit);
    assert_eq!(reopened.evaluate(&query).unwrap().matches, expect);
    assert_eq!(reopened.stats().keys, {
        let fresh = SubtreeIndex::build(
            &tmp_dir("persist2"),
            corpus.trees(),
            &qi,
            IndexOptions::new(3, Coding::RootSplit),
        )
        .unwrap();
        fresh.stats().keys
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mpmgjn_join_agrees_with_matcher() {
    let corpus = GeneratorConfig::default().with_seed(31).generate(80);
    let dir = tmp_dir("stj");
    let mut qi = corpus.interner().clone();
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        &qi,
        IndexOptions::new(2, Coding::RootSplit),
    )
    .unwrap();
    for src in [
        "S(NP)(VP(VBZ))",
        "S(//NN)",
        "NP(//DT)",
        "VP(VBZ)(NP(DT)(NN))",
    ] {
        let query = parse_query(src, &mut qi).unwrap();
        let got = index.evaluate(&query).unwrap().matches;
        assert_eq!(got, ground_truth(corpus.trees(), &query), "{src}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn external_build_matches_in_memory_build() {
    let corpus = GeneratorConfig::default().with_seed(404).generate(80);
    let mut qi = corpus.interner().clone();
    let queries: Vec<Query> = ["NP(DT)(NN)", "S(NP)(VP)", "VP(//NN)"]
        .iter()
        .map(|s| parse_query(s, &mut qi).unwrap())
        .collect();
    for coding in Coding::ALL {
        let d1 = tmp_dir(&format!("mem-{coding:?}").to_lowercase());
        let d2 = tmp_dir(&format!("ext-{coding:?}").to_lowercase());
        let options = IndexOptions::new(3, coding);
        let mem = SubtreeIndex::build_parallel(&d1, corpus.trees(), &qi, options, 1).unwrap();
        let ext = SubtreeIndex::build_external(
            &d2,
            corpus.trees(),
            &qi,
            IndexOptions::new(3, coding),
            si_core::build_ext::ExternalBuildConfig {
                run_budget_bytes: 4 << 10, // force multiple runs
            },
        )
        .unwrap();
        assert_eq!(mem.stats().keys, ext.stats().keys, "{coding:?}");
        assert_eq!(mem.stats().postings, ext.stats().postings, "{coding:?}");
        assert_eq!(
            mem.stats().posting_bytes,
            ext.stats().posting_bytes,
            "{coding:?}"
        );
        for q in &queries {
            assert_eq!(
                mem.evaluate(q).unwrap().matches,
                ext.evaluate(q).unwrap().matches,
                "{coding:?}"
            );
        }
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d2).ok();
    }
}

#[test]
fn parallel_build_is_byte_identical_to_sequential() {
    let corpus = GeneratorConfig::default().with_seed(505).generate(90);
    let mut qi = corpus.interner().clone();
    let queries: Vec<Query> = ["NP(DT)(NN)", "S(NP)(VP)", "VP(//NN)"]
        .iter()
        .map(|s| parse_query(s, &mut qi).unwrap())
        .collect();
    for coding in Coding::ALL {
        let options = IndexOptions::new(3, coding);
        let d1 = tmp_dir(&format!("seq-{coding:?}").to_lowercase());
        let d2 = tmp_dir(&format!("par-{coding:?}").to_lowercase());
        let d3 = tmp_dir(&format!("default-{coding:?}").to_lowercase());
        let seq = SubtreeIndex::build_parallel(&d1, corpus.trees(), &qi, options, 1).unwrap();
        let par = SubtreeIndex::build_parallel(&d2, corpus.trees(), &qi, options, 4).unwrap();
        let default = SubtreeIndex::build(&d3, corpus.trees(), &qi, options).unwrap();
        for other in [&par, &default] {
            assert_eq!(seq.stats().keys, other.stats().keys, "{coding:?}");
            assert_eq!(seq.stats().postings, other.stats().postings, "{coding:?}");
            assert_eq!(
                seq.stats().posting_bytes,
                other.stats().posting_bytes,
                "{coding:?} stitched bytes must match sequential encoding"
            );
            for q in &queries {
                assert_eq!(
                    seq.evaluate(q).unwrap().matches,
                    other.evaluate(q).unwrap().matches,
                    "{coding:?}"
                );
            }
        }
        for dir in [d1, d2, d3] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
