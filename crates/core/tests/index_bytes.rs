//! The bytes of an index directory: that they repeat from build to
//! build, that every build path writes the same ones even where list
//! fragments are stitched at a deep root, that root-split postings stay
//! as small as the block coder makes them, that `index.bt` spends its
//! pages on values, not on framing them, and that the data file stays
//! succinct.

use std::path::Path;

use si_core::build_ext::ExternalBuildConfig;
use si_core::coding::Posting;
use si_core::cover::decompose;
use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{Coding, IndexOptions, SubtreeIndex};
use si_corpus::GeneratorConfig;
use si_parsetree::{LabelInterner, ParseTree};
use si_query::{matcher::Matcher, parse_query};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("si-bytes-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir` as `(path relative to dir, contents)`, sorted.
fn files_under(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let name = path.strip_prefix(root).unwrap().to_string_lossy();
                out.push((name.into_owned(), std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// Asserts two index directories hold the same files with the same
/// bytes, apart from the build time: the last eight bytes of `si.meta`.
fn assert_same_bytes(a: &Path, b: &Path, what: &str) {
    let (fa, fb) = (files_under(a), files_under(b));
    let names = |f: &[(String, Vec<u8>)]| f.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&fa), names(&fb), "{what}: file sets");
    assert!(fa.iter().any(|(n, _)| n.ends_with("si.meta")), "{what}");
    for ((name, bytes_a), (_, bytes_b)) in fa.iter().zip(&fb) {
        assert_eq!(bytes_a.len(), bytes_b.len(), "{what}: size of {name}");
        let compared = if name.ends_with("si.meta") {
            bytes_a.len() - 8
        } else {
            bytes_a.len()
        };
        assert!(
            bytes_a[..compared] == bytes_b[..compared],
            "{what}: bytes of {name}"
        );
    }
}

/// `index_bytes_per_tree` is a function of the corpus alone: two builds
/// give directories of equal size, identical outside the build time.
#[test]
fn two_builds_of_one_corpus_differ_only_in_the_build_time() {
    let corpus = GeneratorConfig::default().with_seed(0xB17E).generate(150);
    let options = IndexOptions::new(3, Coding::RootSplit);
    let (a, b) = (tmp_dir("repeat-a"), tmp_dir("repeat-b"));
    for dir in [&a, &b] {
        SubtreeIndex::build(dir, corpus.trees(), corpus.interner(), options).unwrap();
    }
    assert_same_bytes(&a, &b, "bare directory");
    for dir in [&a, &b] {
        let config = ShardedBuildConfig {
            shards: 3,
            workers: 2,
            mode: ShardBuildMode::InMemory,
        };
        ShardedIndex::build(dir, corpus.trees(), corpus.interner(), options, config).unwrap();
    }
    assert_same_bytes(&a, &b, "three shards");
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

/// A chain `L0(L1(…(L19(w))))` per tree: the key `L17(L18)` occurs only
/// at level 17, so wherever a build path cuts the corpus, that key's
/// fragment opens with a posting whose level escaped the head's nibble
/// — the case the rebase has to carry across. All three paths must still
/// write the same bytes and the answers the matcher gives.
#[test]
fn build_paths_agree_where_fragments_open_on_an_escaped_level() {
    let mut li = LabelInterner::new();
    let trees: Vec<ParseTree> = (0..12)
        .map(|i| {
            let open: String = (0..20).map(|d| format!("(L{d} ")).collect();
            let text = format!("{open}w{}{}", i % 3, ")".repeat(20));
            si_parsetree::ptb::parse(&text, &mut li).unwrap()
        })
        .collect();
    let mut qi = li.clone();
    let deep_key = parse_query("L17(L18)", &mut qi).unwrap();
    let queries = ["L16(L17(L18))", "L3(//L18)", "L14(L15)(//w1)", "L19(w2)"]
        .map(|text| parse_query(text, &mut qi).unwrap());
    for coding in Coding::ALL {
        let options = IndexOptions::new(3, coding);
        let dir = |path: &str| tmp_dir(&format!("deep-{path}-{coding:?}").to_lowercase());
        let dirs = [dir("seq"), dir("par"), dir("ext")];
        let budget = ExternalBuildConfig {
            run_budget_bytes: 256, // a run per tree or two
        };
        let indexes = [
            SubtreeIndex::build(&dirs[0], &trees, &qi, options).unwrap(),
            SubtreeIndex::build_parallel(&dirs[1], &trees, &qi, options, 5).unwrap(),
            SubtreeIndex::build_external(&dirs[2], &trees, &qi, options, budget).unwrap(),
        ];
        assert_same_bytes(&dirs[0], &dirs[1], &format!("{coding}: parallel"));
        assert_same_bytes(&dirs[0], &dirs[2], &format!("{coding}: external"));

        let key = &decompose(&deep_key, 3, coding).subtrees[0].key;
        for index in &indexes {
            let postings = index.postings(key).unwrap().expect("deep key indexed");
            assert_eq!(postings.len(), trees.len(), "{coding}: one per tree");
            for posting in &postings {
                let level = match posting {
                    Posting::Tid(_) => continue,
                    Posting::Root { root, .. } => root.level,
                    Posting::Occurrence { nodes, .. } => nodes[0].0.level,
                };
                assert_eq!(level, 17, "{coding}");
            }
            for query in &queries {
                let want: Vec<(u32, u32)> = trees
                    .iter()
                    .enumerate()
                    .flat_map(|(tid, tree)| {
                        let roots = Matcher::new(tree, query).roots();
                        roots.into_iter().map(move |root| (tid as u32, root.0))
                    })
                    .collect();
                assert!(!want.is_empty(), "probe queries match something");
                assert_eq!(index.evaluate(query).unwrap().matches, want, "{coding}");
            }
        }
        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// The size the block coder buys, held in tier-1 (the benchmark measures
/// it at 200k trees, but not under `cargo test`): on this corpus a
/// stored root-split posting costs 2.344 bytes (3.30 as varints, 2.651
/// in 32-row blocks without patches), and a root-split index stores
/// 0.482 of the posting bytes of a subtree-interval one — both packed by
/// the same coder, which suits the interval coding's many small fields
/// (0.37 as varints). The bounds are those plus 0.05 and 0.03.
#[test]
fn root_split_postings_cost_under_three_bytes() {
    let corpus = GeneratorConfig::default().with_seed(0x517E).generate(3000);
    let size_of = |coding: Coding| {
        let dir = tmp_dir(&format!("guard-{coding:?}").to_lowercase());
        let stats = SubtreeIndex::build(
            &dir,
            corpus.trees(),
            corpus.interner(),
            IndexOptions::new(3, coding),
        )
        .unwrap()
        .stats();
        std::fs::remove_dir_all(&dir).ok();
        stats
    };
    let root_split = size_of(Coding::RootSplit);
    let interval = size_of(Coding::SubtreeInterval);
    let per_posting = root_split.posting_bytes as f64 / root_split.postings as f64;
    assert!(
        per_posting <= 2.394,
        "root-split: {per_posting:.3} bytes per posting"
    );
    let ratio = root_split.posting_bytes as f64 / interval.posting_bytes as f64;
    assert!(
        ratio <= 0.512,
        "root-split / subtree-interval posting bytes: {ratio:.3}"
    );
}

/// Checks one `index.bt` page by page against the layout `meta | heap |
/// leaves | internal levels` and returns `(file bytes, value bytes)`. The meta fields are read at their documented offsets
/// (`si_storage::btree` module docs), the pages told apart by their tag
/// byte, and the heap's length compared with the values `iter_keys`
/// returns — nothing here asks the tree how big it thinks it is.
fn btree_file_is_all_accounted_for(index: &SubtreeIndex) -> (u64, u64) {
    use si_storage::{btree::INLINE_MAX, BTree, PAGE_SIZE};
    let path = index.dir().join("index.bt");
    let file = std::fs::read(&path).unwrap();
    assert_eq!(file.len() % PAGE_SIZE, 0);
    let u32_at = |at: usize| u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
    assert_eq!(&file[..8], b"SIBTREE3");
    let (root, heap_bytes) = (u32_at(8), u64_at(32));

    let (mut long_values, mut value_bytes) = (0usize, 0usize);
    for entry in index.iter_keys().unwrap() {
        let (_, value) = entry.unwrap();
        value_bytes += value.len();
        if value.len() > INLINE_MAX {
            long_values += value.len();
        }
    }
    assert_eq!(
        heap_bytes, long_values,
        "the heap holds the long values and nothing else"
    );
    assert!(heap_bytes > 8 * PAGE_SIZE, "the corpus has long lists");

    let heap_pages = heap_bytes.div_ceil(PAGE_SIZE);
    let tags: Vec<u8> = file.chunks(PAGE_SIZE).map(|page| page[0]).collect();
    let tree_pages = &tags[1 + heap_pages..];
    let leaves = tree_pages.iter().take_while(|&&tag| tag == 1).count();
    let internal = tree_pages.len() - leaves;
    assert!(leaves > 1 && internal >= 1);
    assert!(tree_pages[leaves..].iter().all(|&tag| tag == 2));
    assert_eq!(root, tags.len() - 1, "the root is the file's last page");
    assert_eq!(
        file.len(),
        PAGE_SIZE * (1 + heap_pages + leaves + internal),
        "meta + heap + leaves + internal levels"
    );

    let stats = BTree::open_readonly(&path).unwrap().stats();
    assert_eq!(stats.file_bytes, file.len() as u64);
    assert_eq!(stats.value_bytes, value_bytes as u64);
    (stats.file_bytes, stats.value_bytes)
}

/// The size the packed heap buys, held in tier-1: `index.bt` is its
/// values plus the tree over them — leaf entries, internal pages and
/// under a page of padding — with no per-page framing of long lists and
/// no second structure repeating the keys. At 3k trees most long lists
/// are a page or two, and with each in a chain of its own pages this
/// corpus measured 1.814 bare and 2.050 over three shards; packed, with
/// a statistics run after the tree, 1.411 and 1.613; with each list's
/// statistics as its own header 1.134 and 1.217; with the values a
/// fifth smaller as packed blocks under the same tree 1.173 and 1.268,
/// and the bounds are those plus 0.03. Patched blocks shrink the values
/// a tenth more under a tree of the same size: 1.184 and 1.289.
#[test]
fn index_bt_is_values_plus_a_thin_tree() {
    let corpus = GeneratorConfig::default().with_seed(0x517E).generate(3000);
    let options = IndexOptions::new(3, Coding::RootSplit);
    let bare = tmp_dir("heap-bare");
    let index = SubtreeIndex::build(&bare, corpus.trees(), corpus.interner(), options).unwrap();
    let (file_bytes, value_bytes) = btree_file_is_all_accounted_for(&index);
    let ratio = file_bytes as f64 / value_bytes as f64;
    assert!(ratio <= 1.203, "bare: index.bt / value bytes = {ratio:.3}");

    let sharded = tmp_dir("heap-sharded");
    let config = ShardedBuildConfig {
        shards: 3,
        workers: 1,
        mode: ShardBuildMode::InMemory,
    };
    let index =
        ShardedIndex::build(&sharded, corpus.trees(), corpus.interner(), options, config).unwrap();
    let (mut file_bytes, mut value_bytes) = (0, 0);
    for shard in index.shards() {
        let (file, values) = btree_file_is_all_accounted_for(shard);
        file_bytes += file;
        value_bytes += values;
    }
    let ratio = file_bytes as f64 / value_bytes as f64;
    assert!(
        ratio <= 1.298,
        "three shards: index.bt / value bytes = {ratio:.3}"
    );
    std::fs::remove_dir_all(&bare).ok();
    std::fs::remove_dir_all(&sharded).ok();
}

/// The size of the data file, held in tier-1: on the kick-tires corpus
/// (`scripts/paper/kick-tires.sh`: 10k sentences, seed `0x5EED_0001`) a
/// tree stored as a varint label and a varint subtree size per node cost
/// 70.82 bytes; as balanced parentheses, a tag column and a word column
/// it costs 39.54 (9.12 + 13.86 + 16.56), and the bound is that plus 1.
#[test]
fn the_data_file_costs_about_forty_bytes_per_tree() {
    let corpus = GeneratorConfig::default()
        .with_seed(0x5EED_0001)
        .generate(10_000);
    let dir = tmp_dir("data-file");
    let store = si_storage::CorpusStore::build(&dir, corpus.trees(), corpus.interner()).unwrap();
    let per_tree = |bytes: u64| bytes as f64 / corpus.len() as f64;
    let columns = store.column_bytes().unwrap();
    assert_eq!(columns.iter().sum::<u64>(), store.data_bytes());
    assert!(
        per_tree(store.data_bytes()) <= 40.54,
        "{:.2} bytes per tree, {:?} by column",
        per_tree(store.data_bytes()),
        columns.map(per_tree)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The fixed cost of a shard, held in tier-1: an index stores its label
/// table once, however many shards it grows to. Three ingests — two of
/// them with words the index had not seen — leave `labels.dat` files
/// that together are the table plus a header apiece.
#[test]
fn a_label_table_is_stored_once_per_index() {
    let corpus = GeneratorConfig::default().with_seed(0x1ABE).generate(300);
    let options = IndexOptions::new(2, Coding::RootSplit);
    let dir = tmp_dir("labels-once");
    let config = ShardedBuildConfig {
        shards: 2,
        workers: 2,
        mode: ShardBuildMode::InMemory,
    };
    let mut index =
        ShardedIndex::build(&dir, corpus.trees(), corpus.interner(), options, config).unwrap();
    let mut interner = index.interner();
    for seed in [1u64, 2] {
        let batch = GeneratorConfig::default()
            .with_seed(0x1ABE + seed)
            .generate_into(40, &mut interner);
        assert!(interner.len() > index.interner().len(), "new words");
        index.ingest(&batch, &interner).unwrap();
    }
    index.ingest(&corpus.trees()[..40], &interner).unwrap();

    let mut table = Vec::new();
    interner.encode(0, &mut table);
    let files = files_under(&dir);
    let stored: Vec<usize> = files
        .iter()
        .filter(|(name, _)| name.ends_with("labels.dat"))
        .map(|(_, bytes)| bytes.len())
        .collect();
    assert_eq!(stored.len(), 5);
    let total: usize = stored.iter().sum();
    assert!(
        total >= table.len() && (total as f64) < 1.1 * table.len() as f64,
        "{stored:?} bytes of labels.dat for a table of {}",
        table.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
