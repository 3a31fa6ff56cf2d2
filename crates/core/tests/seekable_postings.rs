//! Seekable posting blocks: skip-header round-trips across every build
//! path, randomized seek-vs-linear cursor differentials, the seeking
//! executor against the draining one, clean errors on corrupt-header
//! inputs, and refusal of directories written in an older format.

use si_core::build_ext::ExternalBuildConfig;
use si_core::coding::{
    build_list_value, decode_postings, split_skip_header, NodeVal, Posting, PostingBuilder,
    PostingCursor, SliceSource, DEFAULT_RESTART_INTERVAL,
};
use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{Coding, ExecContext, IndexOptions, PlannerMode, SubtreeIndex};
use si_corpus::GeneratorConfig;
use si_parsetree::{LabelInterner, ParseTree, TreeId};
use si_query::{matcher::Matcher, parse_query, Query};
use si_storage::BTree;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-seek-{name}-{}-{}",
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

/// Deterministic xorshift so the randomized differentials replay.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Every build path stamps `SIMETA3` and prefixes every non-empty list
/// with a parseable skip header at the default restart interval, while
/// the payload decodes to exactly what the cursor streams — across all
/// three codings, and with identical query answers between paths.
#[test]
fn skip_headers_round_trip_across_codings_and_build_paths() {
    let corpus = GeneratorConfig::default().with_seed(0x5EEC).generate(90);
    let mut qi = corpus.interner().clone();
    let queries: Vec<Query> = ["NP(DT)(NN)", "S(NP)(VP)", "VP(//NN)", "NN"]
        .iter()
        .map(|s| parse_query(s, &mut qi).unwrap())
        .collect();
    for coding in Coding::ALL {
        let options = IndexOptions::new(3, coding);
        let build = |path: &str| tmp_dir(&format!("rt-{path}-{coding:?}").to_lowercase());
        let dirs = [build("mem"), build("par"), build("ext")];
        let indexes = [
            SubtreeIndex::build(&dirs[0], corpus.trees(), &qi, options).unwrap(),
            SubtreeIndex::build_parallel(&dirs[1], corpus.trees(), &qi, options, 3).unwrap(),
            SubtreeIndex::build_external(
                &dirs[2],
                corpus.trees(),
                &qi,
                options,
                ExternalBuildConfig {
                    run_budget_bytes: 4 << 10, // force multi-run merges
                },
            )
            .unwrap(),
        ];
        let expect: Vec<Vec<(TreeId, u32)>> = queries
            .iter()
            .map(|q| ground_truth(corpus.trees(), q))
            .collect();
        for (index, dir) in indexes.iter().zip(&dirs) {
            assert!(index.has_skip_headers(), "{coding:?} {dir:?}");
            let meta = std::fs::read(dir.join("si.meta")).unwrap();
            assert_eq!(&meta[..8], b"SIMETA3\0", "{coding:?} {dir:?}");
            for (q, want) in queries.iter().zip(&expect) {
                assert_eq!(
                    &index.evaluate(q).unwrap().matches,
                    want,
                    "{coding:?} {dir:?}"
                );
            }
            // Walk the raw B+Tree: every non-empty value is header +
            // payload, and the header's restart points tile the payload
            // at the default interval.
            let bt = BTree::open_readonly(&dir.join("index.bt")).unwrap();
            let key_nodes = |key: &[u8]| si_core::canonical::key_size(key).unwrap_or(1);
            let mut lists = 0usize;
            for entry in bt.iter().unwrap() {
                let (key, value) = entry.unwrap();
                if value.is_empty() {
                    continue;
                }
                lists += 1;
                let (table, payload) = split_skip_header(&value).unwrap();
                let table = table.expect("non-empty list carries a skip header");
                assert_eq!(table.interval(), DEFAULT_RESTART_INTERVAL);
                let nodes = key_nodes(&key);
                let linear: Vec<Posting> = decode_postings(coding, nodes, payload).collect();
                assert_eq!(
                    table.restarts(),
                    (linear.len().max(1) - 1) / DEFAULT_RESTART_INTERVAL as usize,
                    "one restart per full interval past the first"
                );
                // The cursor (header-aware) streams the same postings.
                let mut cursor =
                    PostingCursor::with_format(coding, nodes, SliceSource::new(&value), true);
                let mut streamed = Vec::new();
                while let Some(p) = cursor.next_posting().unwrap() {
                    streamed.push(p.clone());
                }
                assert_eq!(streamed, linear, "{coding:?} {dir:?}");
            }
            assert!(lists > 0, "corpus produced posting lists");
        }
        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// Randomized cursor differential: after `seek_to_tid(t)` the stream
/// must be exactly the linear decode minus a prefix of postings that
/// all have `tid < t`, with the reported skip count equal to that
/// prefix's length.
#[test]
fn seek_to_tid_matches_linear_decode() {
    let mut rng = Rng(0x5EE1_0000_0001);
    for coding in Coding::ALL {
        let key_nodes = 2usize;
        let mut builder = PostingBuilder::new(coding);
        let mut tid: TreeId = 0;
        let mut pre = 0u32;
        for i in 0..3000u32 {
            // Occasional duplicate tids exercise the multi-occurrence
            // codings; filter-based dedups them itself. Root pre-orders
            // must stay nondecreasing within a tid.
            if i == 0 || rng.below(5) != 0 {
                tid += 1 + rng.below(3) as TreeId;
                pre = rng.below(1000) as u32;
            } else {
                pre += 1 + rng.below(5) as u32;
            }
            let nodes = [
                (
                    NodeVal {
                        pre,
                        post: pre + 10,
                        level: 1,
                    },
                    1u8,
                ),
                (
                    NodeVal {
                        pre: pre + 1,
                        post: pre + 2,
                        level: 2,
                    },
                    2u8,
                ),
            ];
            builder.push(tid, &nodes);
        }
        let (first, last) = (builder.first_tid().unwrap(), builder.last_tid().unwrap());
        let payload = builder.finish();
        let (value, _hist) =
            build_list_value(coding, key_nodes, &payload, 64, first, last).unwrap();
        let linear: Vec<Posting> = {
            let mut c =
                PostingCursor::with_format(coding, key_nodes, SliceSource::new(&value), true);
            let mut out = Vec::new();
            while let Some(p) = c.next_posting().unwrap() {
                out.push(p.clone());
            }
            out
        };
        assert!(linear.len() > 500, "{coding:?}");

        // Fresh-cursor seeks to random targets (including past-the-end).
        for _ in 0..60 {
            let t = rng.below(u64::from(last) + 10) as TreeId;
            let mut c =
                PostingCursor::with_format(coding, key_nodes, SliceSource::new(&value), true);
            let skipped = c.seek_to_tid(t).unwrap() as usize;
            assert!(
                linear[..skipped].iter().all(|p| p.tid() < t),
                "{coding:?}: a posting with tid >= {t} was skipped"
            );
            let mut tail = Vec::new();
            while let Some(p) = c.next_posting().unwrap() {
                tail.push(p.clone());
            }
            assert_eq!(tail, linear[skipped..], "{coding:?} seek to {t}");
        }

        // One cursor, ascending targets interleaved with decoding: the
        // posting after each seek is the linear posting at `position()`.
        let mut c = PostingCursor::with_format(coding, key_nodes, SliceSource::new(&value), true);
        let mut t: TreeId = 0;
        loop {
            t += rng.below(u64::from(last) / 6 + 1) as TreeId + 1;
            if t > last {
                break;
            }
            let before = c.position();
            let skipped = c.seek_to_tid(t).unwrap();
            assert_eq!(
                c.position(),
                before + skipped,
                "{coding:?}: position accounting"
            );
            let at = c.position() as usize;
            match c.next_posting().unwrap() {
                Some(p) => assert_eq!(*p, linear[at], "{coding:?} monotone seek to {t}"),
                None => break,
            }
        }
    }
}

/// A directory written in an earlier format (`SIMETA1`: no skip
/// headers; `SIMETA2`: unpacked posting heads) is refused with an error
/// that says to rebuild, through both handles and both layouts — its
/// lists would otherwise be misdecoded.
#[test]
fn older_index_formats_are_refused_with_a_rebuild_hint() {
    let corpus = GeneratorConfig::default().with_seed(0x01D).generate(40);
    let options = IndexOptions::new(3, Coding::RootSplit);
    let mono = tmp_dir("old-format-mono");
    let sharded = tmp_dir("old-format-sharded");
    SubtreeIndex::build(&mono, corpus.trees(), corpus.interner(), options).unwrap();
    ShardedIndex::build(
        &sharded,
        corpus.trees(),
        corpus.interner(),
        options,
        ShardedBuildConfig {
            shards: 2,
            workers: 1,
            mode: ShardBuildMode::InMemory,
        },
    )
    .unwrap();
    let says_rebuild = |what: &str, err: si_storage::StorageError| {
        assert!(err.to_string().contains("rebuild"), "{what}: {err}");
    };
    for magic in [b"SIMETA1\0", b"SIMETA2\0"] {
        let name = String::from_utf8_lossy(&magic[..7]).into_owned();
        for meta_path in [mono.join("si.meta"), sharded.join("shard-0001/si.meta")] {
            let mut meta = std::fs::read(&meta_path).unwrap();
            meta[..8].copy_from_slice(magic);
            std::fs::write(&meta_path, &meta).unwrap();
        }
        says_rebuild(&name, SubtreeIndex::open(&mono).err().expect("refused"));
        says_rebuild(
            &name,
            SubtreeIndex::open_buffered(&mono).err().expect("refused"),
        );
        says_rebuild(&name, ShardedIndex::open(&mono).err().expect("refused"));
        says_rebuild(&name, ShardedIndex::open(&sharded).err().expect("refused"));
    }
    // The same answer for an `index.bt` of the chained-overflow format
    // under a current `si.meta`.
    let old_tree = |path: std::path::PathBuf| {
        let mut file = std::fs::read(&path).unwrap();
        file[..8].copy_from_slice(b"SIBTREE1");
        std::fs::write(&path, &file).unwrap();
    };
    SubtreeIndex::build(&mono, corpus.trees(), corpus.interner(), options).unwrap();
    old_tree(mono.join("index.bt"));
    let name = "SIBTREE1";
    says_rebuild(name, SubtreeIndex::open(&mono).err().expect("refused"));
    says_rebuild(
        name,
        SubtreeIndex::open_buffered(&mono).err().expect("refused"),
    );
    says_rebuild(name, ShardedIndex::open(&mono).err().expect("refused"));
    let meta_path = sharded.join("shard-0001/si.meta");
    let mut meta = std::fs::read(&meta_path).unwrap();
    meta[..8].copy_from_slice(b"SIMETA3\0");
    std::fs::write(&meta_path, &meta).unwrap();
    ShardedIndex::open(&sharded).expect("current format again");
    old_tree(sharded.join("shard-0001/index.bt"));
    says_rebuild(name, ShardedIndex::open(&sharded).err().expect("refused"));
    // Any other leading bytes are plain corruption, still an `Err`.
    std::fs::write(mono.join("si.meta"), b"SIMETA9\0").unwrap();
    assert!(SubtreeIndex::open(&mono).is_err());
    std::fs::write(mono.join("si.meta"), b"SI").unwrap();
    assert!(ShardedIndex::open(&mono).is_err());
    std::fs::remove_dir_all(&mono).ok();
    std::fs::remove_dir_all(&sharded).ok();
}

/// Truncated or version-bumped skip headers surface as corruption
/// errors, not silent misdecodes — from both the whole-value splitter
/// and the streaming cursor.
#[test]
fn corrupt_skip_headers_error_cleanly() {
    let mut builder = PostingBuilder::new(Coding::FilterBased);
    for tid in 0..200u32 {
        builder.push(
            tid,
            &[(
                NodeVal {
                    pre: 1,
                    post: 2,
                    level: 1,
                },
                1,
            )],
        );
    }
    let payload = builder.finish();
    let (value, _) = build_list_value(Coding::FilterBased, 1, &payload, 16, 0, 199).unwrap();

    // Sanity: the intact value round-trips.
    let (table, rest) = split_skip_header(&value).unwrap();
    assert!(table.is_some());
    assert_eq!(rest, &payload[..]);

    // Truncate inside the header (keep the version byte plus one more).
    let truncated = &value[..2];
    assert!(split_skip_header(truncated).is_err());
    let mut c =
        PostingCursor::with_format(Coding::FilterBased, 1, SliceSource::new(truncated), true);
    assert!(c.next_posting().is_err());

    // An unknown header version is rejected, never guessed at.
    let mut bumped = value.clone();
    bumped[0] = 9;
    assert!(split_skip_header(&bumped).is_err());
    let mut c = PostingCursor::with_format(Coding::FilterBased, 1, SliceSource::new(&bumped), true);
    assert!(c.next_posting().is_err());

    // An empty value stays a clean empty list in both formats.
    let (none, rest) = split_skip_header(&[]).unwrap();
    assert!(none.is_none() && rest.is_empty());
    let mut c = PostingCursor::with_format(Coding::FilterBased, 1, SliceSource::new(&[]), true);
    assert!(c.next_posting().unwrap().is_none());
    assert_eq!(c.seek_to_tid(5).unwrap(), 0);
}

/// Randomized executor differential: seeking on vs off must answer
/// identically across codings × planner modes × mono/sharded layouts,
/// with the in-memory matcher as independent ground truth — and drains
/// must never report a seek.
#[test]
fn seeking_and_draining_executors_agree() {
    for round in 0u64..2 {
        let seed = 0x5EE0 + round * 104729;
        let corpus = GeneratorConfig::default()
            .with_seed(seed)
            .generate(120 + round as usize * 60);
        let mut interner = corpus.interner().clone();
        let heldout = GeneratorConfig::default()
            .with_seed(seed + 1)
            .generate_into(20, &mut interner);
        let fb = si_corpus::fb_query_set(&corpus, &heldout, seed + 2);
        let queries: Vec<&Query> = fb.iter().step_by(7).map(|f| &f.query).collect();
        assert!(!queries.is_empty());
        for coding in Coding::ALL {
            let options = IndexOptions::new(2 + (round as usize % 2), coding);
            let mono_dir = tmp_dir(&format!("ab-mono-{round}-{coding:?}").to_lowercase());
            let shard_dir = tmp_dir(&format!("ab-shard-{round}-{coding:?}").to_lowercase());
            let mono = SubtreeIndex::build(&mono_dir, corpus.trees(), &interner, options).unwrap();
            let sharded = ShardedIndex::build(
                &shard_dir,
                corpus.trees(),
                &interner,
                options,
                ShardedBuildConfig {
                    shards: 2,
                    workers: 2,
                    mode: ShardBuildMode::InMemory,
                },
            )
            .unwrap();
            for planner in [PlannerMode::CostBased, PlannerMode::ByteLen] {
                let seeking = ExecContext {
                    planner,
                    ..ExecContext::default()
                };
                let draining = ExecContext {
                    planner,
                    seeks: false,
                    ..ExecContext::default()
                };
                for q in &queries {
                    let a = mono.evaluate_with(q, &seeking).unwrap();
                    let b = mono.evaluate_with(q, &draining).unwrap();
                    assert_eq!(a.matches, b.matches, "{coding:?} {planner:?} round {round}");
                    assert_eq!(b.stats.seeks, 0, "drains never seek");
                    assert_eq!(b.stats.postings_skipped, 0, "drains decode everything");
                    assert_eq!(
                        a.matches,
                        ground_truth(corpus.trees(), q),
                        "{coding:?} {planner:?}"
                    );
                    // Several shards inherit `seeks` and `planner` from
                    // the caller's context; both arms must agree.
                    let sa = sharded.evaluate_with(q, &seeking).unwrap();
                    let sb = sharded.evaluate_with(q, &draining).unwrap();
                    assert_eq!(sa.matches, a.matches, "sharded {coding:?} {planner:?}");
                    assert_eq!(sb.matches, a.matches, "sharded {coding:?} {planner:?}");
                    assert_eq!(sb.stats.seeks, 0, "sharded drains never seek");
                }
            }
            std::fs::remove_dir_all(&mono_dir).ok();
            std::fs::remove_dir_all(&shard_dir).ok();
        }
    }
}

/// End-to-end seek proof: a corpus long enough to carry restart points
/// on its common lists, probed by a selective query anchored near the
/// tail, must jump at least one whole restart block undecoded — and
/// still answer exactly like the draining executor and the matcher.
#[test]
fn selective_queries_skip_restart_blocks_end_to_end() {
    // 1500 structurally identical trees with unique tokens: the S/NP/VP
    // keys span every tid (1500-posting lists → one restart at 1024),
    // while NN(w{i}) pins tree i exactly.
    let mut li = LabelInterner::new();
    let trees: Vec<ParseTree> = (0..1500)
        .map(|i| {
            si_parsetree::ptb::parse(&format!("(S (NP (NN w{i})) (VP (VBZ barks)))"), &mut li)
                .unwrap()
        })
        .collect();
    for coding in Coding::ALL {
        let dir = tmp_dir(&format!("e2e-{coding:?}").to_lowercase());
        let index = SubtreeIndex::build(&dir, &trees, &li, IndexOptions::new(3, coding)).unwrap();
        assert!(index.has_skip_headers());
        let mut qi = index.interner();
        let q = parse_query("S(//NN(w1400))", &mut qi).unwrap();
        let want = ground_truth(&trees, &q);
        assert_eq!(want.len(), 1, "the token pins exactly one tree");

        let seeking = index.evaluate_with(&q, &ExecContext::default()).unwrap();
        assert_eq!(seeking.matches, want, "{coding:?}");
        assert!(seeking.stats.seeks > 0, "{coding:?}: no seeks recorded");
        assert!(
            seeking.stats.postings_skipped >= u64::from(DEFAULT_RESTART_INTERVAL),
            "{coding:?}: expected at least one whole restart block skipped, got {}",
            seeking.stats.postings_skipped
        );

        let draining = index
            .evaluate_with(
                &q,
                &ExecContext {
                    seeks: false,
                    ..ExecContext::default()
                },
            )
            .unwrap();
        assert_eq!(draining.matches, want, "{coding:?}");
        assert_eq!(draining.stats.seeks, 0);
        assert_eq!(draining.stats.postings_skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Regression: a multi-shard evaluation must forward `seeks: false` to
/// every shard (it used to build default per-shard contexts, so the
/// "seeks off" arm silently ran with seeks on). Tokens repeat with
/// period 1500, so each of the four shards holds the probe's tree at
/// local tid 1400 — every shard is live and would seek if allowed.
#[test]
fn seeks_off_reaches_every_shard() {
    let mut li = LabelInterner::new();
    let trees: Vec<ParseTree> = (0..6000)
        .map(|i| {
            let text = format!("(S (NP (NN w{})) (VP (VBZ barks)))", i % 1500);
            si_parsetree::ptb::parse(&text, &mut li).unwrap()
        })
        .collect();
    let dir = tmp_dir("seeks-off-sharded");
    let index = ShardedIndex::build(
        &dir,
        &trees,
        &li,
        IndexOptions::new(3, Coding::RootSplit),
        ShardedBuildConfig {
            shards: 4,
            workers: 2,
            mode: ShardBuildMode::InMemory,
        },
    )
    .unwrap();
    let mut qi = index.interner();
    let q = parse_query("S(//NN(w1400))", &mut qi).unwrap();
    let want = ground_truth(&trees, &q);
    assert_eq!(want.len(), 4, "one match per shard");

    let seeking = index.evaluate_with(&q, &ExecContext::default()).unwrap();
    assert_eq!(seeking.matches, want);
    assert_eq!(seeking.stats.shards_skipped, 0, "every shard is live");
    assert!(seeking.stats.seeks > 0, "the probe seeks when allowed");

    let draining = index
        .evaluate_with(
            &q,
            &ExecContext {
                seeks: false,
                ..ExecContext::default()
            },
        )
        .unwrap();
    assert_eq!(draining.matches, want);
    assert_eq!(draining.stats.seeks, 0);
    assert_eq!(draining.stats.postings_skipped, 0);
    std::fs::remove_dir_all(&dir).ok();
}
