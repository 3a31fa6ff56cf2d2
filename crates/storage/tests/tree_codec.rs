//! The data file's tree codec on shapes and label ids picked to reach
//! its edges: every tree round-trips and no strict prefix of one decodes.
//! On the same random shapes, the tree substrate's own properties: trees
//! validate, interval numbering characterizes ancestry and gives every
//! node `post − pre + level` descendants, PTB text round-trips, and the
//! label table is stable.
//!
//! Shapes come from the in-house xoshiro (`si_corpus::rng`). The last
//! test re-reads the benchmark's 200k-tree corpus through a store; it is
//! ignored by default and takes seconds in release:
//! `cargo test --release -p si_storage --test tree_codec -- --ignored`.

use si_corpus::rng::StdRng;
use si_parsetree::codec::{self, Encoder};
use si_parsetree::{ptb, Label, LabelInterner, ParseTree, TreeBuilder};
use si_storage::CorpusStore;

/// Every id below this is in the table: the largest a `u32` names.
const ALL_IDS: usize = 1 << 32;

/// A tree of about `nodes` nodes from a random walk: open a child with
/// probability `open`, else close the open node.
fn walk(
    rng: &mut StdRng,
    nodes: usize,
    open: f64,
    id: &mut dyn FnMut(&mut StdRng) -> u32,
) -> ParseTree {
    let mut builder = TreeBuilder::new();
    builder.open(Label(id(rng)));
    let (mut depth, mut made) = (1, 1);
    while depth > 0 {
        if made < nodes && rng.gen_bool(open) {
            builder.open(Label(id(rng)));
            (depth, made) = (depth + 1, made + 1);
        } else {
            builder.close();
            depth -= 1;
        }
    }
    builder.finish().expect("a walk closes what it opens")
}

/// Ids near each varint length boundary and each bit width that matter,
/// mixed with small ones.
fn edge_id(rng: &mut StdRng) -> u32 {
    let edges = [1u32 << 7, 1 << 14, 1 << 21, 1 << 31];
    match rng.gen_range(0..6usize) {
        0 | 1 => rng.gen_range(0..8u32),
        5 => u32::MAX - rng.gen_range(0..3u32),
        k => edges[k - 2 + rng.gen_range(0..2usize)] - 2 + rng.gen_range(0..4u32),
    }
}

/// The shapes the codec has to get right, as `(what, tree, table length)`.
fn shapes() -> Vec<(String, ParseTree, usize)> {
    let mut rng = StdRng::seed_from_u64(0x7EE5);
    let mut shapes = Vec::new();
    let one = |id: u32| {
        let mut builder = TreeBuilder::new();
        builder.leaf(Label(id));
        builder.finish().expect("one node")
    };
    shapes.push(("one node".to_owned(), one(0), 1));
    shapes.push(("one node, widest id".to_owned(), one(u32::MAX), ALL_IDS));
    for depth in [31, 32, 33, 64, 301] {
        // `depth` nodes in a chain: its last run of closes is `depth` long.
        let mut builder = TreeBuilder::new();
        for d in 0..depth {
            builder.open(Label(d % 5));
        }
        (0..depth).for_each(|_| builder.close());
        let tree = builder.finish().expect("a chain");
        shapes.push((format!("unary chain of {depth}"), tree, 5));
    }
    for fanout in [1, 300, 301] {
        let mut builder = TreeBuilder::new();
        builder.open(Label(7));
        for i in 0..fanout {
            builder.leaf(Label(i));
        }
        builder.close();
        let tree = builder.finish().expect("a fan");
        shapes.push((format!("fan-out of {fanout}"), tree, 301));
    }
    let zero_tags = walk(&mut rng, 60, 0.6, &mut |rng| rng.gen_range(0..2u32));
    let tree = relabel(&zero_tags, |tree, n| {
        if tree.is_leaf(n) {
            tree.label(n).id()
        } else {
            0
        }
    });
    shapes.push(("every tag id 0 (width 0)".to_owned(), tree, 2));
    for i in 0..200 {
        let nodes = [3, 40, 400][i % 3];
        let tree = walk(&mut rng, nodes, 0.55, &mut edge_id);
        shapes.push((format!("walk {i} over edge ids"), tree, ALL_IDS));
    }
    // Parsed text interns tags and words in the order they come, so each
    // column holds both small and large ids.
    let mut li = LabelInterner::new();
    let text = [
        "(S (NP (DT the) (NN dog)) (VP (VBZ barks)))",
        "(S (NP (NNS agouti)) (VP (VBZ is) (NP (DT a) (NN rodent))))",
        "(FRAG (NP (NN dog)) (VP (NN)) (DT the) (X (Y (Z dog))))",
        "(NN)",
    ];
    let parsed: Vec<ParseTree> = text
        .iter()
        .map(|t| ptb::parse(t, &mut li).expect("PTB"))
        .collect();
    for (t, tree) in text.iter().zip(parsed) {
        shapes.push((format!("parsed {t}"), tree, li.len()));
    }
    shapes
}

/// `tree` with each node's label replaced by `id(tree, node)`.
fn relabel(tree: &ParseTree, id: impl Fn(&ParseTree, si_parsetree::NodeId) -> u32) -> ParseTree {
    let mut builder = TreeBuilder::new();
    let mut open = Vec::new();
    for n in tree.nodes() {
        while open.last().is_some_and(|&top| !tree.is_ancestor(top, n)) {
            open.pop();
            builder.close();
        }
        builder.open(Label(id(tree, n)));
        open.push(n);
    }
    open.iter().for_each(|_| builder.close());
    builder.finish().expect("same shape")
}

#[test]
fn codec_round_trips() {
    let mut encoder = Encoder::default();
    let mut buf = vec![0xAA]; // a stale byte the encoder must append after
    for (what, tree, labels) in shapes() {
        buf.truncate(1);
        encoder.encode(&tree, &mut buf);
        let (back, used) =
            codec::decode_tree(&buf[1..], labels).unwrap_or_else(|| panic!("{what}"));
        assert_eq!(used, buf.len() - 1, "{what}");
        assert_eq!(back, tree, "{what}");
        let bits = codec::column_bits(&buf[1..]).expect("columns");
        assert_eq!(bits.iter().sum::<u64>(), 8 * used as u64, "{what}");
        if labels > 1 {
            let widest = tree.nodes().map(|n| tree.label(n).id() as usize).max();
            assert!(
                codec::decode_tree(&buf[1..], widest.unwrap_or(0)).is_none(),
                "{what}: table"
            );
        }
    }
}

#[test]
fn codec_rejects_truncation() {
    let mut encoder = Encoder::default();
    let mut buf = Vec::new();
    for (what, tree, labels) in shapes() {
        buf.clear();
        encoder.encode(&tree, &mut buf);
        for cut in 0..buf.len() {
            assert!(
                codec::decode_tree(&buf[..cut], labels).is_none(),
                "{what}: cut at {cut}"
            );
        }
        // A byte too many is left over, which the store refuses.
        buf.push(0);
        assert_eq!(
            codec::decode_tree(&buf, labels).map(|(_, used)| used),
            Some(buf.len() - 1)
        );
    }
}

/// `count` trees from random walks of up to 40 nodes, their labels
/// `L0`–`L7` interned in `interner`.
fn named_walks(rng: &mut StdRng, interner: &mut LabelInterner, count: usize) -> Vec<ParseTree> {
    (0..count)
        .map(|_| {
            let nodes = rng.gen_range(1..41usize);
            let mut name = |rng: &mut StdRng| {
                let label = format!("L{}", rng.gen_range(0..8u32));
                interner.intern(&label).id()
            };
            walk(rng, nodes, 0.6, &mut name)
        })
        .collect()
}

#[test]
fn trees_validate_and_number_their_nodes_by_interval() {
    let mut rng = StdRng::seed_from_u64(0x1E7E);
    let mut interner = LabelInterner::new();
    let mut trees = named_walks(&mut rng, &mut interner, 300);
    trees.extend(shapes().into_iter().map(|(_, tree, _)| tree));
    for tree in &trees {
        assert_eq!(tree.validate(), Ok(()));
        for a in tree.nodes() {
            // `a` is an ancestor of `b` exactly when walking up from `b`
            // reaches it.
            for b in tree.nodes() {
                let mut up = tree.parent(b);
                while up.is_some_and(|p| p != a) {
                    up = up.and_then(|p| tree.parent(p));
                }
                assert_eq!(tree.is_ancestor(a, b), up.is_some(), "{} {}", a.0, b.0);
            }
            let size = tree.subtree_size(a);
            assert_eq!(size as usize, tree.descendants(a).count());
            // What a stored posting's `desc` column holds: the node's
            // descendants, however deep it sits.
            let desc = tree.post(a) + u32::from(tree.level(a)) - tree.pre(a);
            assert_eq!(desc, size - 1, "node {}", a.0);
        }
    }
}

#[test]
fn ptb_text_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x97B);
    let mut interner = LabelInterner::new();
    for tree in named_walks(&mut rng, &mut interner, 300) {
        let text = ptb::write(&tree, &interner);
        let mut reread = LabelInterner::new();
        let back = ptb::parse(&text, &mut reread).expect("reparses");
        // The same structure, its labels the same strings.
        assert_eq!(back.len(), tree.len(), "{text}");
        for n in tree.nodes() {
            let names = (
                interner.resolve(tree.label(n)),
                reread.resolve(back.label(n)),
            );
            assert_eq!(names.0, names.1, "{text}");
            assert_eq!(tree.parent(n), back.parent(n), "{text}");
        }
    }
}

#[test]
fn the_label_table_is_stable() {
    let mut rng = StdRng::seed_from_u64(0x1AB);
    let alphabet: Vec<char> = ('a'..='z').chain('A'..='Z').chain('0'..='9').collect();
    for _ in 0..100 {
        let names: Vec<String> = (0..rng.gen_range(1..50usize))
            .map(|_| {
                let len = rng.gen_range(1..9usize);
                (0..len)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect()
            })
            .collect();
        let mut interner = LabelInterner::new();
        let labels: Vec<Label> = names.iter().map(|n| interner.intern(n)).collect();
        for (name, &label) in names.iter().zip(&labels) {
            assert_eq!(interner.resolve(label), name.as_str());
            assert_eq!(interner.intern(name), label);
        }
        let mut buf = Vec::new();
        interner.encode(0, &mut buf);
        let (back, _) = LabelInterner::decode(&buf).expect("decodes");
        assert_eq!(back.len(), interner.len());
        for &label in &labels {
            assert_eq!(back.resolve(label), interner.resolve(label));
        }
    }
}

#[test]
#[ignore = "the 200k-tree benchmark corpus; run with --release"]
fn the_benchmark_corpus_round_trips_tree_by_tree() {
    let corpus = si_corpus::GeneratorConfig::default()
        .with_seed(0x00C0_FFEE)
        .generate(200_000);
    let dir = std::env::temp_dir().join(format!("si-tree-codec-{}", std::process::id()));
    let store = CorpusStore::build(&dir, corpus.trees(), corpus.interner()).expect("store");
    for (tid, tree) in corpus.trees().iter().enumerate() {
        assert_eq!(&store.get(tid as u32).expect("decodes"), tree, "tree {tid}");
    }
    let per_tree = store.data_bytes() as f64 / corpus.len() as f64;
    assert!(per_tree < 40.5, "{per_tree:.2} B/tree");
    std::fs::remove_dir_all(&dir).ok();
}
