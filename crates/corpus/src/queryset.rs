//! The two query workloads of §6.1.
//!
//! * **WH query-set** — 48 structure-only queries, 12 each for *who*,
//!   *what*, *which* and *where* questions. The paper had a third person
//!   rewrite AOL-log questions as declarative sentences, parse them and
//!   strip the lexical leaves; our templates are the parse skeletons such
//!   rewrites produce under the generator's grammar.
//! * **FB query-set** — 70 queries in 7 selectivity classes (H, M, L and
//!   their combinations), one query of each size 1–10 per class,
//!   extracted as subtrees of *held-out* parse trees whose node labels
//!   realize the class's frequency bands.

use crate::rng::StdRng;

use si_parsetree::{LabelInterner, NodeId, ParseTree};
use si_query::{parse_query, Query};

use crate::generator::Corpus;

/// The four WH query groups of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WhGroup {
    /// *who* questions.
    Who,
    /// *what* questions.
    What,
    /// *which* questions.
    Which,
    /// *where* questions.
    Where,
}

impl WhGroup {
    /// All groups in the paper's reporting order.
    pub const ALL: [WhGroup; 4] = [WhGroup::Who, WhGroup::Which, WhGroup::Where, WhGroup::What];
}

impl std::fmt::Display for WhGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WhGroup::Who => "Who",
            WhGroup::What => "What",
            WhGroup::Which => "Which",
            WhGroup::Where => "Where",
        };
        f.write_str(s)
    }
}

/// One WH query with its group tag.
#[derive(Debug, Clone)]
pub struct WhQuery {
    /// Which question group the query came from.
    pub group: WhGroup,
    /// The structure-only query tree.
    pub query: Query,
    /// Source text in [`si_query::parse_query`] syntax.
    pub text: String,
}

/// Declarative-rewrite parse skeletons, stripped of lexical leaves.
/// Sizes run 9–15 nodes, matching the join counts of Table 3.
const WH_TEMPLATES: &[(WhGroup, &str)] = &[
    // --- who: subjects and predicates naming people ---
    (
        WhGroup::Who,
        "S(NP(NNP))(VP(VBZ)(NP(DT)(NN))(PP(IN)(NP(NNP))))",
    ),
    (WhGroup::Who, "S(NP(NNP)(NNP))(VP(VBD)(NP(DT)(NN)))"),
    (
        WhGroup::Who,
        "S(NP(NP(DT)(NN))(PP(IN)(NP(NNP))))(VP(VBZ)(NP(NNP)))",
    ),
    (
        WhGroup::Who,
        "S(NP(DT)(NN))(VP(VBZ)(NP(NP(NNP))(PP(IN)(NP))))",
    ),
    (
        WhGroup::Who,
        "S(NP(NNP))(VP(VBD)(NP(DT)(JJ)(NN))(PP(IN)(NP)))",
    ),
    (WhGroup::Who, "S(NP(PRP))(VP(VBZ)(NP(DT)(NN)(NN)))"),
    (WhGroup::Who, "S(NP(NNP))(VP(MD)(VP(VB)(NP(DT)(NN))))"),
    (
        WhGroup::Who,
        "S(NP(NP(DT)(NN))(SBAR(WHNP(WP))(S(VP(VBZ)(NP)))))",
    ),
    (
        WhGroup::Who,
        "S(NP(NNP))(VP(VBZ)(SBAR(IN)(S(NP(PRP))(VP(VBD)))))",
    ),
    (WhGroup::Who, "S(NP(DT)(NN))(VP(VBZ)(NP(NNP)(NNP)))"),
    (WhGroup::Who, "S(NP(NNP))(VP(VBZ)(ADJP(JJ)(PP(IN)(NP))))"),
    (
        WhGroup::Who,
        "S(NP(NNP))(VP(VBZ)(NP(NP(NN))(PP(IN)(NP(NNP)))))",
    ),
    // --- which: restricted nominals, relative clauses ---
    (
        WhGroup::Which,
        "S(NP(NP(DT)(NN))(SBAR(WHNP(WDT))(S(VP(VBZ)(NP)))))",
    ),
    (
        WhGroup::Which,
        "S(NP(DT)(JJ)(NN))(VP(VBZ)(NP(DT)(NN))(PP(IN)(NP)))",
    ),
    (WhGroup::Which, "S(NP(DT)(NN)(NN))(VP(VBD)(NP(DT)(JJ)(NN)))"),
    (
        WhGroup::Which,
        "S(NP(NP(DT)(NNS))(PP(IN)(NP(NNP))))(VP(VBP)(NP))",
    ),
    (
        WhGroup::Which,
        "S(NP(DT)(NN))(VP(VBZ)(NP(NP(DT)(JJ)(NN))(PP(IN)(NP))))",
    ),
    (
        WhGroup::Which,
        "S(NP(JJ)(NNS))(VP(VBP)(NP(DT)(NN))(PP(IN)(NP)))",
    ),
    (
        WhGroup::Which,
        "S(NP(DT)(NN))(VP(MD)(VP(VB)(NP(DT)(NN)(NN))))",
    ),
    (
        WhGroup::Which,
        "S(NP(NP(CD)(NNS))(PP(IN)(NP)))(VP(VBP)(ADJP(JJ)))",
    ),
    (
        WhGroup::Which,
        "S(NP(DT)(NNS))(VP(VBD)(SBAR(IN)(S(NP)(VP(VBZ)))))",
    ),
    (
        WhGroup::Which,
        "S(NP(NP(DT)(NN))(SBAR(WHNP(WDT)(NN))(S(VP(VBZ)))))",
    ),
    (WhGroup::Which, "S(NP(DT)(JJ)(JJ)(NN))(VP(VBZ)(NP(NN)))"),
    (
        WhGroup::Which,
        "S(NP(DT)(NN))(VP(VBZ)(NP(JJ)(NNS))(PP(IN)(NP)))",
    ),
    // --- where: locative prepositional structure ---
    (WhGroup::Where, "S(NP(NNP))(VP(VBZ)(PP(IN)(NP(NNP)(NNP))))"),
    (WhGroup::Where, "S(NP(DT)(NN))(VP(VBZ)(PP(IN)(NP(DT)(NN))))"),
    (
        WhGroup::Where,
        "S(NP(NNP))(VP(VBD)(NP(DT)(NN))(PP(IN)(NP(NNP))))",
    ),
    (WhGroup::Where, "S(PP(IN)(NP(NNP)))(,)(NP(DT)(NN))(VP(VBZ))"),
    (
        WhGroup::Where,
        "S(NP(NP(DT)(NN))(PP(IN)(NP(NNP))))(VP(VBZ)(NP))",
    ),
    (
        WhGroup::Where,
        "S(NP(DT)(NNS))(VP(VBP)(PP(IN)(NP(DT)(JJ)(NN))))",
    ),
    (WhGroup::Where, "S(NP(NNP))(VP(VBZ)(VP(VBN)(PP(IN)(NP))))"),
    (
        WhGroup::Where,
        "S(NP(DT)(NN)(NN))(VP(VBZ)(PP(IN)(NP(NNP))))",
    ),
    (
        WhGroup::Where,
        "S(NP(PRP))(VP(VBD)(PP(IN)(NP(NP(NN))(PP(IN)(NP)))))",
    ),
    (
        WhGroup::Where,
        "S(NP(NNP)(NNP))(VP(VBZ)(PP(TO)(NP(DT)(NN))))",
    ),
    (
        WhGroup::Where,
        "S(NP(DT)(NN))(VP(VBD)(PP(IN)(NP(JJ)(NNS))))",
    ),
    (
        WhGroup::Where,
        "S(NP(NNS))(VP(VBP)(PP(IN)(NP(DT)(NN))(PP(IN)(NP))))",
    ),
    // --- what: definitional and event structure ---
    (WhGroup::What, "S(NP(NN))(VP(VBZ)(NP(DT)(JJ)(NN)))"),
    (
        WhGroup::What,
        "S(NP(DT)(NN))(VP(VBZ)(NP(NP(NN))(PP(IN)(NP(NNS)))))",
    ),
    (WhGroup::What, "S(NP(NNS))(VP(VBP)(NP(DT)(NN))(PP(IN)(NP)))"),
    (
        WhGroup::What,
        "S(NP(DT)(NN))(VP(VBZ)(SBAR(IN)(S(NP(PRP))(VP(VBZ)))))",
    ),
    (WhGroup::What, "S(NP(DT)(NN)(NN))(VP(VBZ)(NP(DT)(NN)))"),
    (WhGroup::What, "S(NP(DT)(NN))(VP(VBZ)(ADJP(RB)(JJ)))"),
    (
        WhGroup::What,
        "S(NP(DT)(JJ)(NN))(VP(VBD)(NP(NNS))(PP(IN)(NP)))",
    ),
    (
        WhGroup::What,
        "S(NP(NP(NN))(PP(IN)(NP(DT)(NN))))(VP(VBZ)(NP))",
    ),
    (WhGroup::What, "S(NP(DT)(NN))(VP(MD)(VP(VB)(NP(JJ)(NNS))))"),
    (WhGroup::What, "S(NP(NN)(NNS))(VP(VBP)(NP(DT)(NN)))"),
    (
        WhGroup::What,
        "S(NP(DT)(NN))(VP(VBZ)(NP(CD)(NNS))(PP(IN)(NP)))",
    ),
    (
        WhGroup::What,
        "S(NP(NNS))(VP(VBD)(SBAR(WHADVP(WRB))(S(NP)(VP))))",
    ),
];

/// Builds the 48-query WH set, interning labels into `interner`.
///
/// # Panics
/// Panics if a template fails to parse (a bug, covered by tests).
pub fn wh_query_set(interner: &mut LabelInterner) -> Vec<WhQuery> {
    WH_TEMPLATES
        .iter()
        .map(|(group, text)| WhQuery {
            group: *group,
            query: parse_query(text, interner)
                .unwrap_or_else(|e| panic!("bad WH template {text}: {e}")),
            text: (*text).to_owned(),
        })
        .collect()
}

/// The seven FB selectivity classes of §6.1 / Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FbClass {
    L,
    M,
    Ml,
    H,
    Hl,
    Hm,
    Hml,
}

impl FbClass {
    /// All classes in the paper's Table 2 row order.
    pub const ALL: [FbClass; 7] = [
        FbClass::L,
        FbClass::M,
        FbClass::Ml,
        FbClass::H,
        FbClass::Hl,
        FbClass::Hm,
        FbClass::Hml,
    ];

    /// The frequency bands a query of this class must contain.
    fn required(&self) -> &'static [Band] {
        match self {
            FbClass::L => &[Band::Low],
            FbClass::M => &[Band::Mid],
            FbClass::Ml => &[Band::Mid, Band::Low],
            FbClass::H => &[Band::High],
            FbClass::Hl => &[Band::High, Band::Low],
            FbClass::Hm => &[Band::High, Band::Mid],
            FbClass::Hml => &[Band::High, Band::Mid, Band::Low],
        }
    }
}

impl std::fmt::Display for FbClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FbClass::L => "L",
            FbClass::M => "M",
            FbClass::Ml => "ML",
            FbClass::H => "H",
            FbClass::Hl => "HL",
            FbClass::Hm => "HM",
            FbClass::Hml => "HML",
        };
        f.write_str(s)
    }
}

/// One FB query with its class and target size.
#[derive(Debug, Clone)]
pub struct FbQuery {
    /// Selectivity class.
    pub class: FbClass,
    /// Node count of the query (1–10).
    pub size: usize,
    /// The extracted all-`/` query.
    pub query: Query,
}

/// Frequency band of a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Band {
    High,
    Mid,
    Low,
}

/// Classifies every label of `corpus` into frequency bands.
///
/// High: the most frequent labels (top 15 by occurrence count — the
/// heavy grammar tags); Low: present but rare (≤ 10 occurrences);
/// Mid: a band around the median of the remaining labels. Labels outside
/// all bands are unclassified (`None`) and never *required*, but may
/// appear as connectors inside extracted subtrees.
fn classify(freq: &[u64]) -> Vec<Option<Band>> {
    let mut by_freq: Vec<(u64, usize)> = freq
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, &f)| (f, i))
        .collect();
    by_freq.sort_unstable_by(|a, b| b.cmp(a));
    let mut bands = vec![None; freq.len()];
    for (rank, &(f, i)) in by_freq.iter().enumerate() {
        let band = if rank < 15 {
            Some(Band::High)
        } else if f <= 10 {
            Some(Band::Low)
        } else if rank < by_freq.len() / 4 {
            // Upper-middle of the distribution: medium selectivity.
            Some(Band::Mid)
        } else {
            None
        };
        bands[i] = band;
    }
    bands
}

/// Constructs the 70-query FB set: for each class, one subtree query of
/// each size 1–10, extracted from `heldout` trees (which must not be part
/// of the indexed corpus). Frequency bands are computed on `corpus`.
///
/// Deterministic given `seed`. Queries that cannot be realized exactly
/// (e.g. a pure-L subtree of size 10 when low-frequency labels only occur
/// at leaves) are built best-effort: the required bands are guaranteed
/// present, remaining nodes are unconstrained connectors.
pub fn fb_query_set(corpus: &Corpus, heldout: &[ParseTree], seed: u64) -> Vec<FbQuery> {
    let freq = corpus.label_frequencies();
    let bands = classify(&freq);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(70);
    for class in FbClass::ALL {
        for size in 1..=10 {
            let query =
                extract_class_query(heldout, &bands, class, size, &mut rng).unwrap_or_else(|| {
                    // Fall back to any subtree of the right size.
                    extract_any_subtree(heldout, size, &mut rng)
                });
            out.push(FbQuery { class, size, query });
        }
    }
    out
}

/// Tries to extract a connected rooted subtree of `size` nodes from a
/// held-out tree such that every band required by `class` occurs among
/// its labels; favours nodes whose band belongs to the class.
fn extract_class_query(
    heldout: &[ParseTree],
    bands: &[Option<Band>],
    class: FbClass,
    size: usize,
    rng: &mut StdRng,
) -> Option<Query> {
    let required = class.required();
    let band_of = |t: &ParseTree, n: NodeId| -> Option<Band> {
        bands.get(t.label(n).id() as usize).copied().flatten()
    };
    for _attempt in 0..4000 {
        let t = &heldout[rng.gen_range(0..heldout.len())];
        if t.len() < size {
            continue;
        }
        let root = NodeId(rng.gen_range(0..t.len() as u32));
        if t.subtree_size(root) < size as u32 {
            continue;
        }
        // Grow a connected subtree from `root`, preferring children whose
        // band is one of the required ones.
        let mut keep: Vec<NodeId> = vec![root];
        let mut frontier: Vec<NodeId> = t.children(root).collect();
        while keep.len() < size && !frontier.is_empty() {
            // Prefer frontier nodes with a required band 3:1.
            let preferred: Vec<usize> = frontier
                .iter()
                .enumerate()
                .filter(|(_, &n)| band_of(t, n).is_some_and(|b| required.contains(&b)))
                .map(|(i, _)| i)
                .collect();
            let idx = if !preferred.is_empty() && rng.gen_bool(0.75) {
                preferred[rng.gen_range(0..preferred.len())]
            } else {
                rng.gen_range(0..frontier.len())
            };
            let n = frontier.swap_remove(idx);
            keep.push(n);
            frontier.extend(t.children(n));
        }
        if keep.len() != size {
            continue;
        }
        let covered = required
            .iter()
            .all(|b| keep.iter().any(|&n| band_of(t, n) == Some(*b)));
        if !covered {
            continue;
        }
        return Some(Query::from_tree_subtree(t, root, &keep));
    }
    None
}

/// Any connected rooted subtree of `size` nodes (class constraint waived).
fn extract_any_subtree(heldout: &[ParseTree], size: usize, rng: &mut StdRng) -> Query {
    loop {
        let t = &heldout[rng.gen_range(0..heldout.len())];
        if t.len() < size {
            continue;
        }
        let root = NodeId(rng.gen_range(0..t.len() as u32));
        if t.subtree_size(root) < size as u32 {
            continue;
        }
        let mut keep: Vec<NodeId> = vec![root];
        let mut frontier: Vec<NodeId> = t.children(root).collect();
        while keep.len() < size && !frontier.is_empty() {
            let idx = rng.gen_range(0..frontier.len());
            let n = frontier.swap_remove(idx);
            keep.push(n);
            frontier.extend(t.children(n));
        }
        if keep.len() == size {
            return Query::from_tree_subtree(t, root, &keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;

    #[test]
    fn wh_set_has_48_queries_in_4_groups() {
        let mut li = LabelInterner::new();
        let set = wh_query_set(&mut li);
        assert_eq!(set.len(), 48);
        for group in WhGroup::ALL {
            assert_eq!(
                set.iter().filter(|q| q.group == group).count(),
                12,
                "group {group}"
            );
        }
        for q in &set {
            assert!(
                (9..=16).contains(&q.query.len()),
                "query {} has size {}",
                q.text,
                q.query.len()
            );
            assert!(q.query.is_child_only());
        }
    }

    #[test]
    fn fb_set_has_70_queries_of_sizes_1_to_10() {
        let corpus = GeneratorConfig::default().with_seed(1).generate(500);
        let mut interner = corpus.interner().clone();
        let heldout = GeneratorConfig::default()
            .with_seed(2)
            .generate_into(100, &mut interner);
        let set = fb_query_set(&corpus, &heldout, 99);
        assert_eq!(set.len(), 70);
        for class in FbClass::ALL {
            let sizes: Vec<usize> = set
                .iter()
                .filter(|q| q.class == class)
                .map(|q| q.size)
                .collect();
            assert_eq!(sizes, (1..=10).collect::<Vec<_>>(), "class {class}");
        }
        for q in &set {
            assert_eq!(q.query.len(), q.size, "extracted size matches");
            assert!(q.query.is_child_only());
        }
    }

    #[test]
    fn fb_set_is_deterministic() {
        let corpus = GeneratorConfig::default().with_seed(1).generate(200);
        let mut interner = corpus.interner().clone();
        let heldout = GeneratorConfig::default()
            .with_seed(2)
            .generate_into(50, &mut interner);
        let a = fb_query_set(&corpus, &heldout, 7);
        let b = fb_query_set(&corpus, &heldout, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.query, y.query);
        }
    }

    #[test]
    fn classify_produces_all_bands() {
        let corpus = GeneratorConfig::default().with_seed(4).generate(500);
        let freq = corpus.label_frequencies();
        let bands = classify(&freq);
        let count = |b: Band| bands.iter().filter(|&&x| x == Some(b)).count();
        assert_eq!(count(Band::High), 15);
        assert!(count(Band::Mid) > 20, "mid labels: {}", count(Band::Mid));
        assert!(count(Band::Low) > 100, "low labels: {}", count(Band::Low));
    }

    #[test]
    fn h_class_queries_use_frequent_labels() {
        let corpus = GeneratorConfig::default().with_seed(1).generate(500);
        let mut interner = corpus.interner().clone();
        let heldout = GeneratorConfig::default()
            .with_seed(2)
            .generate_into(100, &mut interner);
        let freq = corpus.label_frequencies();
        let bands = classify(&freq);
        let set = fb_query_set(&corpus, &heldout, 3);
        for q in set.iter().filter(|q| q.class == FbClass::H) {
            let has_high = q
                .query
                .nodes()
                .any(|n| bands[q.query.label(n).id() as usize] == Some(Band::High));
            assert!(
                has_high,
                "H query of size {} lacks a high-band label",
                q.size
            );
        }
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn class_and_group_display_match_paper_tables() {
        let names: Vec<String> = FbClass::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, ["L", "M", "ML", "H", "HL", "HM", "HML"]);
        let groups: Vec<String> = WhGroup::ALL.iter().map(|g| g.to_string()).collect();
        assert_eq!(groups, ["Who", "Which", "Where", "What"]);
    }

    #[test]
    fn wh_templates_are_structure_only() {
        // No lexical leaves: every label is an uppercase tag or
        // punctuation, mirroring "removed ... the leaves that contain
        // terms" (§6.1).
        let mut li = LabelInterner::new();
        for q in wh_query_set(&mut li) {
            for n in q.query.nodes() {
                let name = li.resolve(q.query.label(n));
                assert!(
                    name.chars().all(|c| c.is_ascii_uppercase()) || name == "," || name == ".",
                    "{} in {}",
                    name,
                    q.text
                );
            }
        }
    }
}
