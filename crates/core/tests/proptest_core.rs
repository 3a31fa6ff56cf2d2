//! Property tests for the core invariants: canonical keys are
//! sibling-order invariant, enumeration agrees with brute force,
//! decompositions are always valid covers, and automorphisms are true
//! structure-preserving permutations.
//!
//! Requires the external `proptest` crate; compiled out by default
//! because this build environment is offline (enable the `proptest`
//! feature after adding the dependency to run them).
#![cfg(feature = "proptest")]

use std::collections::HashSet;

use proptest::prelude::*;
use si_core::canonical::{automorphisms, canon_encode, decode_key, key_size};
use si_core::cover::{decompose, minrc};
use si_core::extract::extract_subtrees;
use si_core::Coding;
use si_parsetree::{LabelInterner, NodeId, ParseTree, TreeBuilder};
use si_query::{Axis, QNodeId, Query, QueryBuilder};

#[derive(Debug, Clone)]
struct Shape {
    label: u8,
    children: Vec<Shape>,
}

fn shape_strategy(max_label: u8) -> impl Strategy<Value = Shape> {
    let leaf = (0..max_label).prop_map(|label| Shape {
        label,
        children: Vec::new(),
    });
    leaf.prop_recursive(4, 24, 3, move |inner| {
        ((0..max_label), prop::collection::vec(inner, 0..3))
            .prop_map(|(label, children)| Shape { label, children })
    })
}

fn build_tree(shape: &Shape, li: &mut LabelInterner) -> ParseTree {
    fn go(shape: &Shape, b: &mut TreeBuilder, li: &mut LabelInterner) {
        b.open(li.intern(&format!("L{}", shape.label)));
        for c in &shape.children {
            go(c, b, li);
        }
        b.close();
    }
    let mut b = TreeBuilder::new();
    go(shape, &mut b, li);
    b.finish().unwrap()
}

/// Builds the same shape with children reversed at every level.
fn reversed(shape: &Shape) -> Shape {
    Shape {
        label: shape.label,
        children: shape.children.iter().rev().map(reversed).collect(),
    }
}

/// Builds a query from the shape with random axes driven by `axis_bits`.
fn build_query(shape: &Shape, axis_bits: u64, li: &mut LabelInterner) -> Query {
    fn go(shape: &Shape, bits: &mut u64, b: &mut QueryBuilder, li: &mut LabelInterner) {
        let axis = if *bits & 1 == 1 {
            Axis::Descendant
        } else {
            Axis::Child
        };
        *bits >>= 1;
        b.open(li.intern(&format!("L{}", shape.label)), axis);
        for c in &shape.children {
            go(c, bits, b, li);
        }
        b.close();
    }
    let mut b = QueryBuilder::new();
    let mut bits = axis_bits;
    go(shape, &mut bits, &mut b, li);
    b.finish().unwrap()
}

fn encode_full(tree: &ParseTree) -> Vec<u8> {
    canon_encode(tree.root(), &|n| tree.label(n).id(), &|n| {
        tree.children(n).collect::<Vec<_>>()
    })
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_key_is_sibling_order_invariant(shape in shape_strategy(4)) {
        let mut li = LabelInterner::new();
        let a = build_tree(&shape, &mut li);
        let b = build_tree(&reversed(&shape), &mut li);
        prop_assert_eq!(encode_full(&a), encode_full(&b));
    }

    #[test]
    fn canonical_decode_round_trips(shape in shape_strategy(4)) {
        let mut li = LabelInterner::new();
        let tree = build_tree(&shape, &mut li);
        let key = encode_full(&tree);
        let decoded = decode_key(&key).expect("decodes");
        prop_assert_eq!(decoded.size(), tree.len());
        prop_assert_eq!(key_size(&key), Some(tree.len()));
    }

    #[test]
    fn extraction_counts_match_brute_force(shape in shape_strategy(3), mss in 1usize..4) {
        let mut li = LabelInterner::new();
        let tree = build_tree(&shape, &mut li);
        let subtrees = extract_subtrees(&tree, mss);
        // Node sets are exactly the connected rooted subsets of size <= mss.
        let got: HashSet<Vec<u32>> = subtrees
            .iter()
            .map(|s| {
                let mut ids: Vec<u32> = s.nodes.iter().map(|n| n.0).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        prop_assert_eq!(got.len(), subtrees.len(), "no duplicate occurrences");
        let mut brute: HashSet<Vec<u32>> = HashSet::new();
        for root in tree.nodes() {
            grow(&tree, vec![root], mss, &mut brute);
        }
        let got_sorted: Vec<_> = {
            let mut v: Vec<_> = got.into_iter().collect();
            v.sort();
            v
        };
        let brute_sorted: Vec<_> = {
            let mut v: Vec<_> = brute.into_iter().collect();
            v.sort();
            v
        };
        prop_assert_eq!(got_sorted, brute_sorted);
    }

    #[test]
    fn covers_are_always_valid(shape in shape_strategy(4), axis_bits in any::<u64>(), mss in 1usize..5) {
        let mut li = LabelInterner::new();
        let query = build_query(&shape, axis_bits, &mut li);
        for coding in Coding::ALL {
            let cover = decompose(&query, mss, coding);
            prop_assert_eq!(cover.validate(&query, mss), Ok(()),
                "coding {:?}", coding);
        }
    }

    #[test]
    fn minrc_exposes_uncovered_edge_parents(shape in shape_strategy(4), axis_bits in any::<u64>(), mss in 1usize..5) {
        let mut li = LabelInterner::new();
        let query = build_query(&shape, axis_bits, &mut li);
        let cover = minrc(&query, mss);
        // Every query edge is either inside one cover subtree, or its
        // upper endpoint roots some subtree (so root-only joins can
        // check it). For // edges, the lower endpoint must root its
        // component's covers.
        for v in query.nodes().skip(1) {
            let u = query.parent(v).unwrap();
            if query.axis(v) == Axis::Child {
                let inside = cover.subtrees.iter().any(|s| s.contains(u) && s.contains(v));
                if !inside {
                    prop_assert!(cover.subtrees.iter().any(|s| s.root == u));
                    prop_assert!(cover.subtrees.iter().any(|s| s.root == v));
                }
            } else {
                prop_assert!(cover.subtrees.iter().any(|s| s.root == u),
                    "// parent {} must be a cover root", u.0);
                prop_assert!(cover.subtrees.iter().any(|s| s.root == v));
            }
        }
    }

    #[test]
    fn automorphisms_preserve_structure(shape in shape_strategy(2)) {
        let mut li = LabelInterner::new();
        let tree = build_tree(&shape, &mut li);
        let key = encode_full(&tree);
        let decoded = decode_key(&key).unwrap();
        let autos = automorphisms(&decoded, 1000);
        prop_assert!(!autos.is_empty());
        // Each is a permutation fixing the root.
        let n = decoded.size();
        for perm in &autos {
            prop_assert_eq!(perm.len(), n);
            prop_assert_eq!(perm[0], 0, "root is fixed");
            let mut seen = vec![false; n];
            for &p in perm {
                prop_assert!(!seen[p], "not a permutation");
                seen[p] = true;
            }
            // Labels at mapped positions agree.
            let labels = preorder_labels(&decoded);
            for (i, &p) in perm.iter().enumerate() {
                prop_assert_eq!(labels[i], labels[p]);
            }
        }
    }
}

fn grow(tree: &ParseTree, set: Vec<NodeId>, mss: usize, out: &mut HashSet<Vec<u32>>) {
    let mut ids: Vec<u32> = set.iter().map(|n| n.0).collect();
    ids.sort_unstable();
    if !out.insert(ids) {
        return;
    }
    if set.len() == mss {
        return;
    }
    for &m in &set {
        for c in tree.children(m) {
            if !set.contains(&c) {
                let mut bigger = set.clone();
                bigger.push(c);
                grow(tree, bigger, mss, out);
            }
        }
    }
}

fn preorder_labels(t: &si_core::canonical::CanonTree) -> Vec<u32> {
    let mut out = vec![t.label];
    for c in &t.children {
        out.extend(preorder_labels(c));
    }
    out
}

/// Sanity: query node ids used in properties exist.
#[test]
fn qnode_index_sanity() {
    let mut li = LabelInterner::new();
    let mut b = QueryBuilder::new();
    b.open(li.intern("A"), Axis::Child);
    b.leaf(li.intern("B"), Axis::Child);
    b.close();
    let q = b.finish().unwrap();
    assert_eq!(q.nodes().collect::<Vec<_>>(), vec![QNodeId(0), QNodeId(1)]);
}
