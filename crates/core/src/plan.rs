//! Cost-based left-deep join planning for the streaming executor
//! (§4.3's join phase, planned ahead of execution).
//!
//! The legacy evaluator materialized every cover's posting list and only
//! then ordered the joins by tuple counts. This module plans the whole
//! pipeline *before* a single posting is decoded, from per-key
//! statistics ([`KeyStats`]) persisted as each
//! list's header — the "statistics about subtrees such as their
//! selectivities" §7 of the paper anticipates as the step beyond its
//! own implementation.
//!
//! # The cost model
//!
//! Join order is chosen by **estimated cardinality**, not raw encoded
//! bytes. For cover `i` with statistics `s(i)` and the batch-wide
//! common tid range `common = ⋂ᵢ [s(i).first_tid, s(i).last_tid]`:
//!
//! ```text
//! est(i) = postings(i) × autos(i) × |common| / span(i)
//! ```
//!
//! * `postings(i)` — exact posting count from the list's header;
//! * `autos(i)` — the automorphism expansion factor of the key
//!   (interval coding only): each stored posting expands into one join
//!   tuple per automorphic slot assignment, so a symmetric key's true
//!   stream cardinality is a multiple of its posting count. Byte length
//!   systematically mis-ranks such keys;
//! * `|common| / span(i)` — the fraction of the key's tid range that
//!   can still participate after every cover's range is intersected
//!   (assuming uniform posting density). A long list concentrated
//!   outside the common range is cheaper than its byte length suggests.
//!
//! When `common` is empty the executor never calls this planner: no
//! tree holds all cover keys, so the query provably has no matches
//! (the pre-execution pruning in `crate::exec`).
//!
//! # Plan shape
//!
//! The resulting [`Plan`] is a left-deep operator tree:
//!
//! * the cheapest stream (by `est`) becomes the base [`PostingScan`
//!   (`crate::exec::PostingScan`)];
//! * each further step joins the cheapest *connected* remaining stream
//!   via one driving predicate — a sort-merge equality join for shared
//!   query nodes, MPMGJN for `/` and `//` edges (Zhang et al. SIGMOD
//!   2001) — with every other
//!   predicate between the two sides applied as a residual filter;
//! * order requirements are tracked symbolically: posting scans arrive
//!   sorted by `(tid, root.pre)`, joins emit in right-input order, and a
//!   sort enforcer is inserted only where the driving slot's order is
//!   not already established.
//!
//! Predicate derivation (shared query nodes, query edges across covers,
//! and the same-label `/`-sibling distinctness rule of `si_query`'s
//! *Match semantics*) is shared with the legacy evaluator so both
//! executors enforce exactly the same semantics — the basis of the
//! equivalence suite.

use si_query::{Axis, QNodeId, Query};

use crate::canonical::{automorphisms, decode_key};
use crate::coding::Coding;
use crate::cover::Cover;
use crate::join::{JoinKind, Pred};
use crate::stats::{intersect_tid_ranges, KeyStats};

/// Relation between two query nodes exposed by different streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredKind {
    /// Both streams bind the same data node.
    Eq,
    /// The first node is the parent of the second.
    Parent,
    /// The first node is a proper ancestor of the second.
    Ancestor,
    /// The nodes bind distinct data nodes (sibling distinctness).
    Neq,
}

/// A predicate between two streams: `kind` relates query node `aq`
/// (exposed by stream `a`) to `bq` (exposed by stream `b`); for
/// Parent/Ancestor, `aq` is the upper end.
#[derive(Debug, Clone, Copy)]
pub struct StreamPred {
    /// Stream exposing the first endpoint.
    pub a: usize,
    /// Stream exposing the second endpoint.
    pub b: usize,
    /// First endpoint (upper end for Parent/Ancestor).
    pub aq: QNodeId,
    /// Second endpoint.
    pub bq: QNodeId,
    /// The relation.
    pub kind: PredKind,
}

/// The query nodes each cover subtree exposes as tuple slots under
/// `coding`: just the root for root-split, every member for the interval
/// coding.
pub fn exposed_qnodes(cover: &Cover, coding: Coding) -> Vec<Vec<QNodeId>> {
    cover
        .subtrees
        .iter()
        .map(|st| match coding {
            Coding::RootSplit => vec![st.root],
            Coding::SubtreeInterval => st.nodes.clone(),
            Coding::FilterBased => Vec::new(),
        })
        .collect()
}

/// Derives all cross-stream predicates plus the validation-fallback
/// flag. `exposed` lists the query nodes each stream exposes (see
/// [`exposed_qnodes`]).
pub fn cross_stream_predicates(
    query: &Query,
    cover: &Cover,
    exposed: &[Vec<QNodeId>],
) -> (Vec<StreamPred>, bool) {
    let streams_of = |q: QNodeId| -> Vec<usize> {
        exposed
            .iter()
            .enumerate()
            .filter(|(_, s)| s.contains(&q))
            .map(|(i, _)| i)
            .collect()
    };
    let mut preds: Vec<StreamPred> = Vec::new();

    // Shared exposures: same query node in several streams. Every pair,
    // not a chain: whichever streams the join order has already placed,
    // an arriving stream finds an equality to one of them.
    for q in query.nodes() {
        let ex = streams_of(q);
        for (i, &a) in ex.iter().enumerate() {
            for &b in &ex[i + 1..] {
                preds.push(StreamPred {
                    a,
                    b,
                    aq: q,
                    bq: q,
                    kind: PredKind::Eq,
                });
            }
        }
    }

    // Query edges across streams.
    for v in query.nodes().skip(1) {
        let u = query.parent(v).expect("non-root");
        let kind = match query.axis(v) {
            Axis::Child => PredKind::Parent,
            Axis::Descendant => PredKind::Ancestor,
        };
        for &a in &streams_of(u) {
            for &b in &streams_of(v) {
                if a != b {
                    preds.push(StreamPred {
                        a,
                        b,
                        aq: u,
                        bq: v,
                        kind,
                    });
                }
            }
        }
    }

    // Same-label `/`-sibling distinctness.
    let mut needs_validation = false;
    for p in query.nodes() {
        let kids: Vec<QNodeId> = query.children_via(p, Axis::Child).collect();
        for (i, &u) in kids.iter().enumerate() {
            for &v in &kids[i + 1..] {
                if query.label(u) != query.label(v) {
                    continue;
                }
                // Co-residence in one cover implies distinctness (an
                // occurrence is a real subtree).
                if cover
                    .subtrees
                    .iter()
                    .any(|s| s.contains(u) && s.contains(v))
                {
                    continue;
                }
                let eu = streams_of(u);
                let ev = streams_of(v);
                if eu.is_empty() || ev.is_empty() {
                    needs_validation = true;
                    continue;
                }
                for &a in &eu {
                    for &b in &ev {
                        if a != b {
                            preds.push(StreamPred {
                                a,
                                b,
                                aq: u,
                                bq: v,
                                kind: PredKind::Neq,
                            });
                        }
                    }
                }
            }
        }
    }
    (preds, needs_validation)
}

/// One join step of a left-deep [`Plan`]: the accumulated left input is
/// combined with cover `cover`'s posting scan.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Index into `cover.subtrees` of the stream joined at this step.
    pub cover: usize,
    /// Driving condition `(kind, left_combined_slot, right_slot)`; `None`
    /// falls back to a per-tid cross join (disconnected join graphs).
    pub driving: Option<(JoinKind, usize, usize)>,
    /// Residual predicates over the *combined* slot vector (left slots
    /// first), applied as a filter after the driving join.
    pub residuals: Vec<Pred>,
    /// Sort the left input by this combined slot before joining (order
    /// enforcer; absent when the required order is already established).
    pub sort_left: Option<usize>,
    /// Sort the right posting scan by this slot before joining (posting
    /// scans arrive sorted by slot 0, the subtree root).
    pub sort_right: Option<usize>,
}

/// A planned left-deep streaming pipeline for structural codings.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Cover index of the base (smallest) posting scan.
    pub base: usize,
    /// Join steps, in execution order.
    pub steps: Vec<PlanStep>,
    /// Slot of the query root in the final combined slot vector (absent
    /// only when the validation fallback is required).
    pub root_slot: Option<usize>,
    /// Whether matches must be re-validated against the data file
    /// (sibling distinctness not expressible over the exposed slots).
    pub needs_validation: bool,
    /// Order enforcers the planner proved unnecessary: steps where the
    /// root-slot preference picked a driving predicate (or stream)
    /// already in posting order while the first-come rule would have
    /// inserted a `SortExchange`. Seeds
    /// [`crate::eval::EvalStats::sort_exchanges_avoided`].
    pub sorts_avoided: usize,
}

/// Root-slot preference factor of the sort-free plan rule: a stream
/// drivable sort-free on its scan's root slot (already in posting
/// order) is preferred over a cheaper stream needing an order enforcer
/// as long as its estimated cardinality is within this factor of the
/// cheapest.
pub const DEFAULT_ROOT_PREF_FACTOR: f64 = 4.0;

/// How [`plan_structural_with`] orders joins: by the module-doc cost
/// model, the only mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerMode {
    /// Estimated-cardinality ordering plus tid-range pruning and
    /// leapfrog seeding (the module-doc cost model).
    #[default]
    CostBased,
}

/// The sort key the cost-based planner orders streams by: estimated
/// cardinality, then encoded bytes, then cover index (deterministic
/// ties). Build one with [`cost_rank`]; the `Ord` impl is total
/// (`f64::total_cmp`). The service's base-scan prediction uses the
/// same ranks, so it can never drift from the planner's ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostRank {
    /// Estimated stream cardinality ([`estimated_cardinality`]).
    pub est: f64,
    /// Encoded posting-list bytes (first tie-breaker).
    pub bytes: u64,
    /// Cover index (final tie-breaker).
    pub idx: usize,
}

impl Eq for CostRank {}

impl Ord for CostRank {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.est
            .total_cmp(&other.est)
            .then(self.bytes.cmp(&other.bytes))
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialOrd for CostRank {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The cost-based rank of cover `idx` (see [`CostRank`]).
pub fn cost_rank(
    stats: &KeyStats,
    key: &[u8],
    coding: Coding,
    common: (si_parsetree::TreeId, si_parsetree::TreeId),
    idx: usize,
) -> CostRank {
    CostRank {
        est: estimated_cardinality(stats, key, coding, common),
        bytes: stats.bytes,
        idx,
    }
}

/// The cost model's cardinality estimate for one cover stream (see the
/// module docs): postings × automorphism expansion × the fraction of
/// the key's tid range overlapping `common`.
pub fn estimated_cardinality(
    stats: &KeyStats,
    key: &[u8],
    coding: Coding,
    common: (si_parsetree::TreeId, si_parsetree::TreeId),
) -> f64 {
    let autos = match coding {
        Coding::SubtreeInterval => decode_key(key)
            .map(|shape| automorphisms(&shape, 720).len().max(1))
            .unwrap_or(1),
        _ => 1,
    };
    let span = stats.tid_span() as f64;
    let overlap_lo = common.0.max(stats.first_tid);
    let overlap_hi = common.1.min(stats.last_tid);
    let surviving = if overlap_lo > overlap_hi {
        0.0
    } else if stats.has_hist() {
        hist_overlap_fraction(stats, overlap_lo, overlap_hi)
    } else {
        let overlap = (u64::from(overlap_hi) - u64::from(overlap_lo) + 1) as f64;
        (overlap / span).min(1.0)
    };
    stats.postings as f64 * autos as f64 * surviving
}

/// Fraction of a key's postings falling inside `[lo, hi]`, refined by
/// the persisted tid histogram: each of the 8 buckets covers an equal
/// slice of the key's tid span, so the estimate sums fully-covered
/// buckets plus pro-rated boundary buckets instead of assuming uniform
/// density over the whole span. This is what makes block-granular
/// skipping costable: a list whose mass sits outside the common range
/// ranks as nearly free even when its span overlaps it.
fn hist_overlap_fraction(
    stats: &KeyStats,
    lo: si_parsetree::TreeId,
    hi: si_parsetree::TreeId,
) -> f64 {
    let total: u64 = stats.tid_hist.iter().map(|&c| u64::from(c)).sum();
    if total == 0 {
        return 0.0;
    }
    let span = stats.tid_span() as f64;
    let n = stats.tid_hist.len() as f64;
    let first = f64::from(stats.first_tid);
    let mut surviving = 0.0;
    for (b, &count) in stats.tid_hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let b_lo = first + (b as f64) * span / n;
        let b_hi = first + (b as f64 + 1.0) * span / n;
        let o_lo = b_lo.max(f64::from(lo));
        let o_hi = b_hi.min(f64::from(hi) + 1.0);
        if o_hi > o_lo {
            surviving += f64::from(count) * (o_hi - o_lo) / (b_hi - b_lo);
        }
    }
    (surviving / total as f64).min(1.0)
}

/// Resolves a predicate between stream `s` and the placed prefix into
/// `(left combined slot, right stream-local slot, forward)`; `None`
/// when the predicate does not touch `s` or a slot is unexposed.
fn step_endpoints(
    p: &StreamPred,
    placed: &[usize],
    joined_qnodes: &[QNodeId],
    qnodes: &[QNodeId],
    s: usize,
) -> Option<(usize, usize, bool)> {
    let (placed_q, new_q, forward) = if p.b == s && placed.contains(&p.a) {
        (p.aq, p.bq, true)
    } else if p.a == s && placed.contains(&p.b) {
        (p.bq, p.aq, false)
    } else {
        return None;
    };
    // The first slot holding `placed_q` stands for all of them, whichever
    // stream `p` names: `cross_stream_predicates` equates every pair of
    // streams exposing one query node, so each later slot was tied to the
    // first when its stream joined.
    let l = joined_qnodes.iter().position(|&x| x == placed_q)?;
    let rs = qnodes.iter().position(|&x| x == new_q)?;
    Some((l, rs, forward))
}

/// Picks the driving condition for joining stream `s` to the placed
/// prefix — no residuals are built, so this doubles as the planner's
/// cheap "would this step need a sort?" probe. Returns the chosen
/// candidate `(kind, l, rs, pred_idx)` plus how many order enforcers
/// the sort-free preference saved relative to the legacy first-come
/// choice.
///
/// The preference: a driving predicate whose right slot is the scan's
/// root slot (slot 0 — posting order) needs no `sort_right`, and one
/// whose left slot matches the established order needs no `sort_left`.
/// Fewest enforcers win; predicate order breaks ties, reproducing the
/// legacy rule when it was already sort-free. Parent/Ancestor
/// predicates whose child end is already placed cannot drive the merge
/// forms and are never candidates.
fn choose_driving(
    preds: &[StreamPred],
    placed: &[usize],
    joined_qnodes: &[QNodeId],
    qnodes: &[QNodeId],
    s: usize,
    left_sorted: Option<usize>,
) -> (Option<(JoinKind, usize, usize, usize)>, usize) {
    let sorts_needed = |l: usize, rs: usize| -> usize {
        usize::from(left_sorted != Some(l)) + usize::from(rs != 0)
    };
    let mut first: Option<(usize, usize)> = None;
    let mut chosen: Option<(JoinKind, usize, usize, usize)> = None;
    for (pi, p) in preds.iter().enumerate() {
        let Some((l, rs, forward)) = step_endpoints(p, placed, joined_qnodes, qnodes, s) else {
            continue;
        };
        let kind = match (p.kind, forward) {
            (PredKind::Eq, _) => JoinKind::Eq,
            (PredKind::Parent, true) => JoinKind::Parent,
            (PredKind::Ancestor, true) => JoinKind::Ancestor,
            _ => continue,
        };
        if first.is_none() {
            first = Some((l, rs));
        }
        let better = match chosen {
            None => true,
            // Candidates arrive in predicate order, so a strict
            // improvement is required to displace the incumbent.
            Some((_, cl, crs, _)) => sorts_needed(l, rs) < sorts_needed(cl, crs),
        };
        if better {
            chosen = Some((kind, l, rs, pi));
        }
    }
    let saved = match (first, chosen) {
        (Some((fl, frs)), Some((_, cl, crs, _))) => {
            sorts_needed(fl, frs).saturating_sub(sorts_needed(cl, crs))
        }
        _ => 0,
    };
    (chosen, saved)
}

/// One step's predicate split: the chosen driving condition (stream-
/// local right slot), the residual filters (combined slot indexing),
/// and how many order enforcers the sort-free preference saved relative
/// to the legacy first-come driving choice (see [`choose_driving`]).
fn split_step_preds(
    preds: &[StreamPred],
    placed: &[usize],
    joined_qnodes: &[QNodeId],
    qnodes: &[QNodeId],
    s: usize,
    left_sorted: Option<usize>,
) -> (Option<(JoinKind, usize, usize)>, Vec<Pred>, usize) {
    let offset = joined_qnodes.len();
    let (chosen, saved) = choose_driving(preds, placed, joined_qnodes, qnodes, s, left_sorted);
    let chosen_pi = chosen.map(|(_, _, _, pi)| pi);
    let mut residuals: Vec<Pred> = Vec::new();
    for (pi, p) in preds.iter().enumerate() {
        if Some(pi) == chosen_pi {
            continue;
        }
        let Some((l, rs, forward)) = step_endpoints(p, placed, joined_qnodes, qnodes, s) else {
            continue;
        };
        let r_combined = offset + rs;
        match (p.kind, forward) {
            (PredKind::Eq, _) => residuals.push(Pred::Eq(l, r_combined)),
            (PredKind::Parent, true) => residuals.push(Pred::Parent(l, r_combined)),
            (PredKind::Parent, false) => residuals.push(Pred::Parent(r_combined, l)),
            (PredKind::Ancestor, true) => residuals.push(Pred::Ancestor(l, r_combined)),
            (PredKind::Ancestor, false) => residuals.push(Pred::Ancestor(r_combined, l)),
            (PredKind::Neq, _) => residuals.push(Pred::Neq(l, r_combined)),
        }
    }
    (chosen.map(|(k, l, rs, _)| (k, l, rs)), residuals, saved)
}

/// Plans the streaming pipeline for `query` under a structural coding.
/// `stats[i]` holds cover `i`'s per-key statistics — the plan's only
/// input; nothing is decoded at planning time. The root-slot
/// preference runs at [`DEFAULT_ROOT_PREF_FACTOR`].
pub fn plan_structural(query: &Query, cover: &Cover, coding: Coding, stats: &[KeyStats]) -> Plan {
    plan_structural_with(
        query,
        cover,
        coding,
        stats,
        PlannerMode::CostBased,
        DEFAULT_ROOT_PREF_FACTOR,
    )
}

/// [`plan_structural`] with an explicit root-slot preference factor
/// ([`DEFAULT_ROOT_PREF_FACTOR`] in every query; values ≤ 1.0 disable
/// the preference).
pub fn plan_structural_with(
    query: &Query,
    cover: &Cover,
    coding: Coding,
    stats: &[KeyStats],
    _mode: PlannerMode,
    root_pref_factor: f64,
) -> Plan {
    debug_assert_eq!(stats.len(), cover.subtrees.len());
    let exposed = exposed_qnodes(cover, coding);
    let (preds, needs_validation) = cross_stream_predicates(query, cover, &exposed);

    // Per-stream cost ranks, computed once (the estimate enumerates key
    // automorphisms, too costly for a sort comparator). Ties fall back
    // to encoded bytes, then the cover index, so ordering is
    // deterministic.
    let common = intersect_tid_ranges(stats).unwrap_or((0, 0));
    let ranks: Vec<CostRank> = (0..cover.subtrees.len())
        .map(|i| cost_rank(&stats[i], &cover.subtrees[i].key, coding, common, i))
        .collect();

    // Left-deep order: cheapest stream first, then cheapest connected.
    let mut remaining: Vec<usize> = (0..cover.subtrees.len()).collect();
    remaining.sort_by_key(|&i| ranks[i]);
    let base = remaining.remove(0);
    let mut placed = vec![base];
    let mut joined_qnodes: Vec<QNodeId> = exposed[base].clone();
    // Combined slot the left input is currently sorted by; scans arrive
    // sorted by their root slot (slot 0).
    let mut left_sorted: Option<usize> = Some(0);

    let mut steps = Vec::new();
    let mut sorts_avoided = 0usize;
    while !remaining.is_empty() {
        // Positions (into `remaining`) of streams connected to the
        // placed prefix, cheapest first (`remaining` is rank-sorted).
        let connected: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|&(_, &s)| {
                preds.iter().any(|p| {
                    (p.a == s && placed.contains(&p.b)) || (p.b == s && placed.contains(&p.a))
                })
            })
            .map(|(pos, _)| pos)
            .collect();
        let next_pos = match connected.first() {
            None => 0,
            Some(&first_pos) => {
                let mut pick = first_pos;
                // Root-slot preference: when the cheapest connected
                // stream cannot be joined sort-free, a slightly
                // costlier stream that can is the better step — its
                // scan feeds the join in posting order and no tuple is
                // ever buffered for re-ordering.
                if root_pref_factor > 1.0 {
                    let driving_of = |pos: usize| {
                        let s = remaining[pos];
                        choose_driving(&preds, &placed, &joined_qnodes, &exposed[s], s, left_sorted)
                            .0
                    };
                    // Only a stream with a *driving* predicate that still
                    // needs an enforcer is worth trading away; and only a
                    // stream joinable by a sort-free **merge** join may
                    // replace it — a driving-less stream would degrade the
                    // step to a per-tid cross join, which is no win.
                    let first_needs_sort = matches!(
                        driving_of(first_pos),
                        Some((_, l, rs, _)) if rs != 0 || left_sorted != Some(l)
                    );
                    if first_needs_sort {
                        let budget = ranks[remaining[first_pos]].est * root_pref_factor;
                        for &c in &connected[1..] {
                            let sort_free_merge = matches!(
                                driving_of(c),
                                Some((_, l, rs, _)) if rs == 0 && left_sorted == Some(l)
                            );
                            if ranks[remaining[c]].est <= budget && sort_free_merge {
                                pick = c;
                                sorts_avoided += 1;
                                break;
                            }
                        }
                    }
                }
                pick
            }
        };
        let s = remaining.remove(next_pos);
        let qnodes = &exposed[s];
        let offset = joined_qnodes.len();

        let (driving, residuals, saved) =
            split_step_preds(&preds, &placed, &joined_qnodes, qnodes, s, left_sorted);
        sorts_avoided += saved;

        let (sort_left, sort_right) = match driving {
            Some((_, l, rs)) => (
                (left_sorted != Some(l)).then_some(l),
                (rs != 0).then_some(rs),
            ),
            // Per-tid cross join only needs tid-major order, which every
            // stream already has.
            None => (None, None),
        };
        // Merge joins emit in right-input order: sorted by the newly
        // joined stream's driving slot. A cross join interleaves
        // per-tid groups without a slot order.
        left_sorted = driving.map(|(_, _, rs)| offset + rs);

        steps.push(PlanStep {
            cover: s,
            driving,
            residuals,
            sort_left,
            sort_right,
        });
        joined_qnodes.extend(qnodes.iter().copied());
        placed.push(s);
    }

    let root_slot = joined_qnodes.iter().position(|&q| q == query.root());
    debug_assert!(
        needs_validation || root_slot.is_some(),
        "query root exposed by its component's covers"
    );
    Plan {
        base,
        steps,
        root_slot,
        needs_validation,
        sorts_avoided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::decompose;
    use si_parsetree::LabelInterner;
    use si_query::parse_query;

    /// Uniform-density stats over the full tid range: the cost model's
    /// estimate collapses to the posting count, which here equals the
    /// byte length.
    fn stats_of(lens: &[u64]) -> Vec<KeyStats> {
        lens.iter()
            .map(|&l| KeyStats {
                postings: l,
                distinct_tids: l.max(1),
                first_tid: 0,
                last_tid: si_parsetree::TreeId::MAX,
                bytes: l,
                ..KeyStats::default()
            })
            .collect()
    }

    fn plan_for(src: &str, mss: usize, coding: Coding, lens: &[u64]) -> (Plan, Cover) {
        let mut li = LabelInterner::new();
        let q = parse_query(src, &mut li).unwrap();
        let cover = decompose(&q, mss, coding);
        let lens: Vec<u64> = (0..cover.subtrees.len())
            .map(|i| lens.get(i).copied().unwrap_or(10 * (i as u64 + 1)))
            .collect();
        let plan = plan_structural(&q, &cover, coding, &stats_of(&lens));
        (plan, cover)
    }

    #[test]
    fn single_cover_has_no_steps() {
        let (plan, cover) = plan_for("NP(DT)(NN)", 3, Coding::RootSplit, &[]);
        assert_eq!(cover.subtrees.len(), 1);
        assert!(plan.steps.is_empty());
        assert_eq!(plan.root_slot, Some(0));
        assert!(!plan.needs_validation);
    }

    #[test]
    fn base_is_shortest_list() {
        let mut li = LabelInterner::new();
        let q = parse_query("S(NP(DT)(NN))(VP(VBZ)(NP))", &mut li).unwrap();
        let cover = decompose(&q, 2, Coding::RootSplit);
        assert!(cover.subtrees.len() >= 2);
        // Under uniform stats the base must be the cover with the
        // smallest list.
        let lens: Vec<u64> = (0..cover.subtrees.len())
            .map(|i| [500u64, 40, 900, 7, 333, 61][i])
            .collect();
        let min = (0..cover.subtrees.len()).min_by_key(|&i| lens[i]).unwrap();
        let plan = plan_structural(&q, &cover, Coding::RootSplit, &stats_of(&lens));
        assert_eq!(plan.base, min);
        assert_eq!(plan.steps.len(), cover.subtrees.len() - 1);
    }

    #[test]
    fn tid_range_overlap_outranks_raw_length() {
        // One cover is long but concentrated outside the common tid
        // range; the cost model discounts it below the short list.
        let mut li = LabelInterner::new();
        let q = parse_query("S(NP)(VP)", &mut li).unwrap();
        let cover = decompose(&q, 1, Coding::RootSplit);
        assert_eq!(cover.subtrees.len(), 3);
        let stats = vec![
            // Huge list, but only ~1% of its range survives the
            // intersection: est ≈ 100.
            KeyStats {
                postings: 10_000,
                distinct_tids: 10_000,
                first_tid: 0,
                last_tid: 99_999,
                bytes: 70_000,
                ..KeyStats::default()
            },
            // Short list spanning exactly the common range: est = 500.
            KeyStats {
                postings: 500,
                distinct_tids: 500,
                first_tid: 0,
                last_tid: 999,
                bytes: 3_500,
                ..KeyStats::default()
            },
            // Medium list on the common range: est = 800.
            KeyStats {
                postings: 800,
                distinct_tids: 800,
                first_tid: 0,
                last_tid: 999,
                bytes: 5_600,
                ..KeyStats::default()
            },
        ];
        let cost = plan_structural(&q, &cover, Coding::RootSplit, &stats);
        assert_eq!(cost.base, 0, "discounted long list becomes the base");
    }

    #[test]
    fn automorphic_interval_keys_cost_their_expansion() {
        // A symmetric interval key (two same-label children) expands
        // every posting by its automorphism count; the cost model
        // charges for that, byte length cannot see it.
        let mut li = LabelInterner::new();
        let q = parse_query("S(NP(NN)(NN))(VP)", &mut li).unwrap();
        let cover = decompose(&q, 3, Coding::SubtreeInterval);
        assert_eq!(cover.subtrees.len(), 2);
        // Find the symmetric NP(NN)(NN) cover.
        let sym = (0..cover.subtrees.len())
            .find(|&i| cover.subtrees[i].size() == 3)
            .unwrap();
        let other = 1 - sym;
        // Equal posting counts and bytes: only the automorphism factor
        // separates the two streams.
        let stats = vec![
            KeyStats {
                postings: 100,
                distinct_tids: 100,
                first_tid: 0,
                last_tid: 9_999,
                bytes: 700,
                ..KeyStats::default()
            };
            2
        ];
        let plan = plan_structural(&q, &cover, Coding::SubtreeInterval, &stats);
        assert_eq!(plan.base, other, "symmetric key ranks as 2x its postings");
    }

    #[test]
    fn interval_coding_steps_are_fully_connected() {
        // The interval coding exposes every query node, so a connected
        // query always yields driving predicates (root-split covers may
        // leave interior nodes unexposed and fall back to per-tid cross
        // joins — the same fallback the legacy evaluator takes).
        let (plan, _) = plan_for("S(NP(DT)(NN))(VP(VBZ))", 2, Coding::SubtreeInterval, &[]);
        for step in &plan.steps {
            assert!(
                step.driving.is_some(),
                "interval streams expose all nodes; joins must connect"
            );
        }
    }

    #[test]
    fn descendant_edges_plan_structural_joins() {
        let (plan, _) = plan_for("S(//NN)", 3, Coding::RootSplit, &[]);
        assert_eq!(plan.steps.len(), 1);
        let (kind, _, _) = plan.steps[0].driving.unwrap();
        assert!(matches!(kind, JoinKind::Ancestor | JoinKind::Parent));
    }

    #[test]
    fn root_slot_preference_trades_a_sort_for_a_close_stream() {
        // With cover 2 cheapest (base) and cover 1 the cheapest
        // connected stream, joining 1 first needs an order enforcer;
        // cover 3 is within the preference factor and joins sort-free
        // on its root slot. Factor 1.0 reproduces the legacy greedy
        // order; the default factor swaps the step and reports it.
        let mut li = LabelInterner::new();
        let q = parse_query("NP(NP(NN))(PP(IN)(NP))", &mut li).unwrap();
        let cover = decompose(&q, 2, Coding::SubtreeInterval);
        assert_eq!(cover.subtrees.len(), 4);
        let stats: Vec<KeyStats> = (0..4)
            .map(|i| {
                let l = [33u64, 20, 10, 35][i];
                KeyStats {
                    postings: l,
                    distinct_tids: 10,
                    first_tid: 0,
                    last_tid: 1000,
                    bytes: l,
                    ..KeyStats::default()
                }
            })
            .collect();
        let legacy = plan_structural_with(
            &q,
            &cover,
            Coding::SubtreeInterval,
            &stats,
            PlannerMode::CostBased,
            1.0,
        );
        let pref = plan_structural_with(
            &q,
            &cover,
            Coding::SubtreeInterval,
            &stats,
            PlannerMode::CostBased,
            DEFAULT_ROOT_PREF_FACTOR,
        );
        assert_eq!(legacy.sorts_avoided, 0);
        assert!(pref.sorts_avoided >= 1, "preference must report its win");
        let legacy_order: Vec<usize> = legacy.steps.iter().map(|s| s.cover).collect();
        let pref_order: Vec<usize> = pref.steps.iter().map(|s| s.cover).collect();
        assert_ne!(legacy_order, pref_order, "preference must reorder steps");
        // Both plans still place every stream exactly once.
        for plan in [&legacy, &pref] {
            let mut seen: Vec<usize> = plan.steps.iter().map(|s| s.cover).collect();
            seen.push(plan.base);
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn root_split_scans_never_need_right_sorts() {
        // Root-split streams expose exactly one slot (the root), which
        // is the order postings arrive in.
        let (plan, _) = plan_for(
            "S(NP(DT)(NN))(VP(VBZ)(NP(//JJ)))",
            2,
            Coding::RootSplit,
            &[9, 200, 13, 700, 44],
        );
        for step in &plan.steps {
            assert_eq!(step.sort_right, None);
        }
    }
}
