//! Behavioural tests of the query processor: statistics, early exits,
//! validation avoidance, and cover patching under root-split coding.

use si_core::cover::{decompose, minrc};
use si_core::{Coding, IndexOptions, SubtreeIndex};
use si_corpus::GeneratorConfig;
use si_parsetree::{ptb, LabelInterner, ParseTree};
use si_query::parse_query;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-evalbeh-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn handmade() -> (Vec<ParseTree>, LabelInterner) {
    let mut li = LabelInterner::new();
    let trees = vec![
        ptb::parse("(S (NP (NN a) (NN b)) (VP (VBZ x)))", &mut li).unwrap(),
        ptb::parse("(S (NP (NN c)) (VP (VBZ y)))", &mut li).unwrap(),
        ptb::parse(
            "(S (NP (NP (NN d) (JJ j)) (NP (NN e) (JJ k))) (VP (VBD z)))",
            &mut li,
        )
        .unwrap(),
    ];
    (trees, li)
}

#[test]
fn missing_key_short_circuits_without_fetching() {
    let (trees, mut li) = handmade();
    let dir = tmp_dir("missing");
    let index =
        SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(3, Coding::RootSplit)).unwrap();
    // NP(VP) never occurs: its cover key is absent, so nothing should be
    // decoded at all.
    let q = parse_query("NP(VP)", &mut li).unwrap();
    let r = index.evaluate(&q).unwrap();
    assert!(r.is_empty());
    assert_eq!(r.stats.postings_fetched, 0, "early exit before decode");
    assert_eq!(r.stats.joins, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_stats_reflect_plan_shape() {
    let (trees, mut li) = handmade();
    let dir = tmp_dir("stats");
    let index =
        SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(2, Coding::RootSplit)).unwrap();
    let q = parse_query("S(NP(NN))(VP)", &mut li).unwrap();
    let r = index.evaluate(&q).unwrap();
    assert_eq!(
        r.stats.covers,
        decompose(&q, 2, Coding::RootSplit).subtrees.len()
    );
    assert_eq!(r.stats.joins, r.stats.covers - 1);
    assert!(r.stats.postings_fetched > 0);
    assert!(!r.stats.used_validation);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sibling_clash_avoids_validation_via_root_patches() {
    let (trees, mut li) = handmade();
    // NP(NP(NN))(NP(NN)): two same-label sibling branches of size 2 that
    // cannot co-reside in one mss=3 cover rooted at the outer NP together
    // with both subtrees.
    let q = parse_query("NP(NP(NN)(JJ))(NP(NN)(JJ))", &mut li).unwrap();
    let cover = minrc(&q, 3);
    // Both inner NPs must be cover roots (the distinctness patch).
    let inner: Vec<_> = q.children(q.root()).collect();
    for u in inner {
        assert!(
            cover.subtrees.iter().any(|s| s.root == u),
            "clash sibling {} must root a cover",
            u.0
        );
    }
    let dir = tmp_dir("clash");
    let index =
        SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(3, Coding::RootSplit)).unwrap();
    let r = index.evaluate(&q).unwrap();
    // Tree 2 has exactly one such NP (distinct branches required).
    assert_eq!(r.matches, vec![(2, 1)]);
    assert!(
        !r.stats.used_validation,
        "root patches should make validation unnecessary"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn filter_based_always_validates() {
    let (trees, mut li) = handmade();
    let dir = tmp_dir("filterval");
    let index =
        SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(3, Coding::FilterBased)).unwrap();
    let q = parse_query("S(NP(NN))(VP)", &mut li).unwrap();
    let r = index.evaluate(&q).unwrap();
    assert!(r.stats.validated_trees > 0, "filtering phase must run");
    // Trees 0 and 1 have S(NP(NN))(VP); tree 2's S-level NP has only NP children.
    assert_eq!(r.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_node_queries_hit_the_fast_path() {
    let (trees, mut li) = handmade();
    for coding in Coding::ALL {
        let dir = tmp_dir(&format!("single-{coding:?}").to_lowercase());
        let index = SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(3, coding)).unwrap();
        let q = parse_query("NN", &mut li).unwrap();
        let r = index.evaluate(&q).unwrap();
        assert_eq!(r.len(), 5, "{coding:?}");
        assert_eq!(r.stats.covers, 1);
        assert_eq!(r.stats.joins, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn posting_len_estimates_are_available() {
    let corpus = GeneratorConfig::default().with_seed(15).generate(200);
    let dir = tmp_dir("lens");
    let index = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(2, Coding::RootSplit),
    )
    .unwrap();
    // Frequent single-label keys have longer posting lists than rare
    // ones; the estimate must reflect that without decoding.
    let mut li = corpus.interner().clone();
    let np = decompose(&parse_query("NP", &mut li).unwrap(), 2, Coding::RootSplit);
    let np_len = index.posting_len(&np.subtrees[0].key).unwrap().unwrap();
    let wrb = decompose(&parse_query("WRB", &mut li).unwrap(), 2, Coding::RootSplit);
    let wrb_len = index.posting_len(&wrb.subtrees[0].key).unwrap().unwrap();
    assert!(
        np_len > wrb_len,
        "NP ({np_len}) should dominate WRB ({wrb_len})"
    );
    assert!(index.posting_len(b"not-a-real-key").unwrap().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn descendant_only_query_spans_components() {
    let (trees, mut li) = handmade();
    for coding in Coding::ALL {
        let dir = tmp_dir(&format!("desc-{coding:?}").to_lowercase());
        let index = SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(3, coding)).unwrap();
        let q = parse_query("S(//NN)(//JJ)", &mut li).unwrap();
        let r = index.evaluate(&q).unwrap();
        assert_eq!(r.matches, vec![(2, 0)], "{coding:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
