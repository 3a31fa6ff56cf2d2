//! Query-pool generation: distinct queries of the paper's FB selectivity
//! classes drawn from held-out trees over successive seeds, plus
//! seed-independent WH texts, admitted by a caller-supplied cost test
//! and filled to a fixed quota per query size so the pool has the same
//! composition whatever the seed.

use std::collections::HashSet;

use si_core::cover::decompose;
use si_core::IndexOptions;
use si_corpus::{fb_query_set, wh_query_set, Corpus, FbClass};
use si_parsetree::{LabelInterner, ParseTree};
use si_query::{parse_query, write_query, Query};

/// One distinct query of a pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolQuery {
    /// Text in `si_query::parse_query` syntax — what a client sends.
    pub text: String,
    /// FB class name, or `WH` for a template variant.
    pub class: String,
    /// Node count.
    pub size: usize,
    /// The figure the admission test returned (postings it reads).
    pub cost: u64,
    /// Matches in its answer, once known.
    pub answer: u64,
    /// Digest of the answer every execution must reproduce, once known.
    pub digest: Option<u64>,
}

/// What a pool is made of.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// FB classes queries are drawn from (all sizes 1–10).
    pub classes: &'static [FbClass],
    /// Strata the admission test sorts queries into. A stratum groups
    /// queries of like cost — by node count where the front end
    /// dominates, by postings fetched where decoding does — so filling
    /// each to the same quota gives every seed the same cost profile.
    pub strata: usize,
    /// Queries admitted per stratum.
    pub per_stratum: usize,
    /// Seed-independent WH texts offered, in order, before any FB query.
    pub wh: Vec<String>,
    /// `fb_query_set` draws tried before giving up on unfilled strata.
    pub max_draws: usize,
}

impl PoolSpec {
    /// Queries a full pool holds.
    pub fn size(&self) -> usize {
        self.strata * self.per_stratum
    }
}

/// Posting counts the index statistics list for `query`'s cover keys
/// (`postings_of` looks one key up; nothing is decoded): `(sum over all
/// cover subtrees, the one holding the query root)`. `None` when some
/// key is not indexed — the query then has no match. Root-split lists
/// hold one posting per distinct `(tid, root)`, so the root figure
/// bounds the size of the answer.
pub fn listed_postings(
    query: &Query,
    options: IndexOptions,
    postings_of: impl Fn(&[u8]) -> Option<u64>,
) -> Option<(u64, u64)> {
    let cover = decompose(query, options.mss, options.coding);
    let (mut total, mut root) = (0, 0);
    for st in &cover.subtrees {
        let postings = postings_of(&st.key)?;
        total += postings;
        if st.root == query.root() {
            root = postings;
        }
    }
    Some((total, root))
}

/// The 48 WH templates as text.
pub fn wh_templates() -> Vec<String> {
    wh_query_set(&mut LabelInterner::new())
        .into_iter()
        .map(|wh| wh.text)
        .collect()
}

/// Every single-edge descendant-axis variant of the 48 WH templates,
/// in template order: variant `k` of a template turns the axis of its
/// `k`-th child edge into `//`.
pub fn wh_descendant_variants() -> Vec<String> {
    let mut out = Vec::new();
    for template in wh_templates() {
        for (at, _) in template.match_indices('(') {
            let mut text = template.clone();
            text.insert_str(at + 1, "//");
            out.push(text);
        }
    }
    out
}

/// The seed of the `draw`-th `fb_query_set` call of a pool.
fn draw_seed(seed: u64, draw: usize) -> u64 {
    (seed ^ 0x5EED_F00D_0000_0000)
        .wrapping_add(draw as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A generated pool and how it came about.
#[derive(Debug, Clone, PartialEq)]
pub struct Pool {
    /// The distinct queries, in admission order.
    pub queries: Vec<PoolQuery>,
    /// `fb_query_set` draws it took.
    pub draws: usize,
    /// Which strata stayed short within `max_draws`, if any.
    pub shortfall: Option<String>,
}

/// Builds the pool. `bands_from` fixes the label frequency bands,
/// `heldout` supplies query shapes (its labels interned in `interner`),
/// and `admit` — given a query and the open slots left per stratum —
/// returns the query's `(stratum, cost)` when it belongs in the pool.
/// Deterministic in `seed` for a deterministic `admit`.
pub fn build_pool(
    spec: &PoolSpec,
    seed: u64,
    bands_from: &Corpus,
    heldout: &[ParseTree],
    interner: &mut LabelInterner,
    mut admit: impl FnMut(&Query, &[usize]) -> Option<(usize, u64)>,
) -> Pool {
    let mut pool: Vec<PoolQuery> = Vec::with_capacity(spec.size());
    let mut seen: HashSet<String> = HashSet::new();
    let mut open = vec![spec.per_stratum; spec.strata];
    let mut offer = |class: &str, query: &Query, text: String, open: &mut [usize]| {
        if seen.contains(&text) {
            return;
        }
        if let Some((stratum, cost)) = admit(query, open).filter(|&(s, _)| open[s] > 0) {
            open[stratum] -= 1;
            seen.insert(text.clone());
            pool.push(PoolQuery {
                text,
                class: class.to_owned(),
                size: query.len(),
                cost,
                answer: 0,
                digest: None,
            });
        }
    };

    for text in &spec.wh {
        let query = parse_query(text, interner).expect("WH text parses");
        offer("WH", &query, text.clone(), &mut open);
    }
    let mut draws = 0;
    while draws < spec.max_draws && open.iter().any(|&left| left > 0) {
        let draw = draws;
        draws += 1;
        for fb in fb_query_set(bands_from, heldout, draw_seed(seed, draw)) {
            if spec.classes.contains(&fb.class) {
                let text = write_query(&fb.query, interner);
                offer(&fb.class.to_string(), &fb.query, text, &mut open);
            }
        }
    }

    let short: Vec<String> = open
        .iter()
        .enumerate()
        .filter(|(_, &left)| left > 0)
        .map(|(stratum, left)| format!("stratum {stratum} short {left}"))
        .collect();
    Pool {
        queries: pool,
        draws,
        shortfall: (!short.is_empty()).then(|| short.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_corpus::GeneratorConfig;

    fn pool_for(seed: u64) -> Pool {
        let corpus = GeneratorConfig::default().with_seed(seed).generate(400);
        let mut interner = corpus.interner().clone();
        let heldout = GeneratorConfig::default()
            .with_seed(seed ^ 1)
            .generate_into(80, &mut interner);
        let spec = PoolSpec {
            classes: &[FbClass::L, FbClass::Hml],
            strata: 10,
            per_stratum: 3,
            wh: wh_descendant_variants(),
            max_draws: 200,
        };
        // Admission standing in for index statistics: stratum = size - 1
        // (WH variants, all larger than 10 nodes or not, go by size too),
        // every size that is not a multiple of five.
        build_pool(&spec, seed, &corpus, &heldout, &mut interner, |q, _| {
            (q.len() % 5 != 0 && q.len() <= 10).then_some((q.len() - 1, q.len() as u64 * 100))
        })
    }

    #[test]
    fn pool_is_bit_identical_per_seed_and_differs_across_seeds() {
        let (a, b, c) = (pool_for(21), pool_for(21), pool_for(22));
        assert_eq!(a, b);
        assert_ne!(
            a.queries.iter().map(|q| &q.text).collect::<Vec<_>>(),
            c.queries.iter().map(|q| &q.text).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pool_is_distinct_and_filled_to_quota_where_admissible() {
        let Pool {
            queries: pool,
            draws,
            shortfall,
        } = pool_for(5);
        assert_eq!(draws, 200, "unfillable strata use up every draw");
        let texts: HashSet<&String> = pool.iter().map(|q| &q.text).collect();
        assert_eq!(texts.len(), pool.len(), "queries are distinct");
        // Sizes 5 and 10 are never admitted, so exactly those two strata
        // stay short by their full quota.
        assert_eq!(
            shortfall.as_deref(),
            Some("stratum 4 short 3, stratum 9 short 3")
        );
        assert_eq!(pool.len(), 8 * 3);
        for size in [1, 2, 3, 4, 6, 7, 8, 9] {
            assert_eq!(
                pool.iter().filter(|q| q.size == size).count(),
                3,
                "size {size}"
            );
        }
        // WH variants are offered first, so the 9-node ones fill their stratum.
        assert_eq!(pool.iter().filter(|q| q.class == "WH").count(), 3);
        assert!(pool.iter().all(|q| q.cost == q.size as u64 * 100));
        assert!(pool
            .iter()
            .all(|q| ["WH", "L", "HML"].contains(&q.class.as_str())));
    }

    #[test]
    fn wh_variants_turn_exactly_one_edge_into_a_descendant_edge() {
        let variants = wh_descendant_variants();
        assert!(variants.len() > 400);
        let mut interner = LabelInterner::new();
        for text in &variants {
            let q = parse_query(text, &mut interner).expect("variant parses");
            assert_eq!(text.matches("//").count(), 1);
            assert!(!q.is_child_only());
        }
        let distinct: HashSet<&String> = variants.iter().collect();
        assert_eq!(distinct.len(), variants.len());
    }
}
