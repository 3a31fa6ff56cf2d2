//! The bytes of an index directory: that they repeat from build to
//! build, that every build path writes the same ones even where list
//! fragments are stitched at a deep root, and that root-split postings
//! stay as small as the packed head makes them.

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

/// The size the packed head buys, held in tier-1 (the benchmark measures
/// it at 200k trees, but not under `cargo test`): a root-split posting
/// averages under 3.5 bytes, and a root-split index stores under 0.40
/// of the posting bytes of a subtree-interval one.
#[test]
fn root_split_postings_stay_near_three_bytes() {
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
        per_posting <= 3.5,
        "root-split: {per_posting:.3} bytes per posting"
    );
    let ratio = root_split.posting_bytes as f64 / interval.posting_bytes as f64;
    assert!(
        ratio <= 0.40,
        "root-split / subtree-interval posting bytes: {ratio:.3}"
    );
}
