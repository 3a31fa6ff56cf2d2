//! Property tests for the tree substrate: interval-numbering invariants
//! and PTB round-trips on arbitrary trees. The codec's properties run on
//! the in-house RNG in `si_storage`'s `tests/tree_codec.rs`.
//!
//! Requires the external `proptest` crate; compiled out by default
//! because this build environment is offline (enable the `proptest`
//! feature after adding the dependency to run them).
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use si_parsetree::{ptb, Label, LabelInterner, ParseTree, TreeBuilder};

/// A recursive tree shape: label index plus children.
#[derive(Debug, Clone)]
struct Shape {
    label: u8,
    children: Vec<Shape>,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let leaf = (0u8..8).prop_map(|label| Shape {
        label,
        children: Vec::new(),
    });
    leaf.prop_recursive(5, 40, 4, |inner| {
        ((0u8..8), prop::collection::vec(inner, 0..4))
            .prop_map(|(label, children)| Shape { label, children })
    })
}

fn build(shape: &Shape, interner: &mut LabelInterner) -> ParseTree {
    fn go(shape: &Shape, b: &mut TreeBuilder, interner: &mut LabelInterner) {
        b.open(interner.intern(&format!("L{}", shape.label)));
        for c in &shape.children {
            go(c, b, interner);
        }
        b.close();
    }
    let mut b = TreeBuilder::new();
    go(shape, &mut b, interner);
    b.finish().expect("balanced")
}

proptest! {
    #[test]
    fn trees_validate(shape in shape_strategy()) {
        let mut li = LabelInterner::new();
        let tree = build(&shape, &mut li);
        prop_assert_eq!(tree.validate(), Ok(()));
    }

    #[test]
    fn interval_numbering_characterizes_ancestry(shape in shape_strategy()) {
        let mut li = LabelInterner::new();
        let tree = build(&shape, &mut li);
        // For every pair: is_ancestor iff walking parents reaches it.
        for a in tree.nodes() {
            for b in tree.nodes() {
                let mut walk = tree.parent(b);
                let mut reachable = false;
                while let Some(p) = walk {
                    if p == a {
                        reachable = true;
                        break;
                    }
                    walk = tree.parent(p);
                }
                prop_assert_eq!(tree.is_ancestor(a, b), reachable,
                    "nodes {} {}", a.0, b.0);
            }
        }
    }

    #[test]
    fn subtree_size_equals_descendant_count(shape in shape_strategy()) {
        let mut li = LabelInterner::new();
        let tree = build(&shape, &mut li);
        for n in tree.nodes() {
            prop_assert_eq!(tree.subtree_size(n) as usize, tree.descendants(n).count());
        }
    }

    #[test]
    fn ptb_round_trips(shape in shape_strategy()) {
        let mut li = LabelInterner::new();
        let tree = build(&shape, &mut li);
        let text = ptb::write(&tree, &li);
        let mut li2 = LabelInterner::new();
        let back = ptb::parse(&text, &mut li2).expect("reparses");
        // Structure is identical; labels resolve to the same strings.
        prop_assert_eq!(back.len(), tree.len());
        for n in tree.nodes() {
            prop_assert_eq!(li.resolve(tree.label(n)), li2.resolve(back.label(n)));
            prop_assert_eq!(tree.parent(n), back.parent(n));
        }
    }

    #[test]
    fn label_interner_is_stable(names in prop::collection::vec("[a-zA-Z0-9]{1,8}", 1..50)) {
        let mut li = LabelInterner::new();
        let labels: Vec<Label> = names.iter().map(|n| li.intern(n)).collect();
        for (name, label) in names.iter().zip(&labels) {
            prop_assert_eq!(li.resolve(*label), name.as_str());
            prop_assert_eq!(li.intern(name), *label);
        }
        let mut buf = Vec::new();
        li.encode(0, &mut buf);
        let (back, _) = LabelInterner::decode(&buf).expect("decodes");
        prop_assert_eq!(back.len(), li.len());
    }
}
