//! Seekable posting blocks and the list header that carries them:
//! header round-trips across every build path, the header's statistics
//! against a recount of the list, randomized seek-vs-linear cursor
//! differentials, the seeking executor against the draining one, clean
//! errors on hostile header bytes, and refusal of directories written in
//! an older format.

use si_core::build_ext::ExternalBuildConfig;
use si_core::coding::{
    build_list_value, list_anatomy, list_stats, NodeVal, Posting, PostingBuilder, PostingCursor,
    SliceSource, DEFAULT_RESTART_INTERVAL,
};
use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{Coding, ExecContext, IndexOptions, PlannerMode, SubtreeIndex};
use si_corpus::rng::StdRng;
use si_corpus::GeneratorConfig;
use si_parsetree::{varint, LabelInterner, ParseTree, TreeId};
use si_query::{matcher::Matcher, parse_query, Query};
use si_storage::{BTree, StorageError};

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

/// Every build path stamps `SIMETA6` and prefixes every list with a
/// parseable header — with a restart table at the default interval
/// exactly when the list is longer than one — whose count is what the
/// cursor streams out of the blocks — across all three codings, and
/// with identical query answers between paths.
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
            assert_eq!(&meta[..8], b"SIMETA6\0", "{coding:?} {dir:?}");
            for (q, want) in queries.iter().zip(&expect) {
                assert_eq!(
                    &index.evaluate(q).unwrap().matches,
                    want,
                    "{coding:?} {dir:?}"
                );
            }
            // Walk the raw B+Tree: every value is header + blocks, and
            // a long list's restart points tile the blocks at the
            // default interval.
            let bt = BTree::open_readonly(&dir.join("index.bt")).unwrap();
            let key_nodes = |key: &[u8]| si_core::canonical::key_size(key).unwrap_or(1);
            let mut lists = 0usize;
            for entry in bt.iter().unwrap() {
                let (key, value) = entry.unwrap();
                if value.is_empty() {
                    continue;
                }
                lists += 1;
                let nodes = key_nodes(&key);
                // The cursor (header-aware) streams the postings.
                let mut cursor =
                    PostingCursor::with_format(coding, nodes, SliceSource::new(&value), true);
                let mut streamed = Vec::new();
                while let Some(p) = cursor.next_posting().unwrap() {
                    streamed.push(p.clone());
                }
                assert!(
                    streamed.windows(2).all(|w| w[0].tid() <= w[1].tid()),
                    "{coding:?} {dir:?}"
                );
                let anatomy = list_anatomy(coding, nodes, &value).unwrap();
                assert_eq!(anatomy.postings, streamed.len() as u64);
                let restarts = (streamed.len() - 1) / DEFAULT_RESTART_INTERVAL as usize;
                assert_eq!(
                    anatomy.table.is_some(),
                    restarts > 0,
                    "a table iff a restart"
                );
                if let Some(table) = anatomy.table {
                    assert_eq!(table.interval(), DEFAULT_RESTART_INTERVAL);
                    assert_eq!(
                        table.restarts(),
                        restarts,
                        "one restart per full interval past the first"
                    );
                }
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
        let last = builder.last_tid().unwrap();
        let payload = builder.finish();
        let (value, ..) = build_list_value(coding, key_nodes, &payload, 64).unwrap();
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
/// headers; `SIMETA2`: unpacked posting heads; `SIMETA3`: versioned skip
/// headers, statistics in a run of their own; `SIMETA4`: varint postings
/// after the header, not blocks; `SIMETA5`: 32-row blocks of unpatched
/// columns, no first tid in a short list's header) is refused with an error
/// that says to rebuild, through both handles and both layouts — its
/// lists would otherwise be misdecoded. So is an `index.bt` of an older
/// layout, and a corpus store whose files predate their magic.
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
    let says_rebuild = |what: &str, err: StorageError| {
        let hint = "older format; rebuild it with `si build`";
        assert!(err.to_string().contains(hint), "{what}: {err}");
    };
    for magic in [
        b"SIMETA1\0",
        b"SIMETA2\0",
        b"SIMETA3\0",
        b"SIMETA4\0",
        b"SIMETA5\0",
    ] {
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
    let meta_path = sharded.join("shard-0001/si.meta");
    let mut meta = std::fs::read(&meta_path).unwrap();
    meta[..8].copy_from_slice(b"SIMETA6\0");
    std::fs::write(&meta_path, &meta).unwrap();
    SubtreeIndex::build(&mono, corpus.trees(), corpus.interner(), options).unwrap();
    // The same answer for each file that changed format under a current
    // `si.meta`: an `index.bt` of the chained-overflow layout or of the
    // one that ended in a statistics run, the two corpus files from
    // before they opened with a magic (raw `u64` offsets; the bare
    // interner encoding), and the lengths of trees stored as varint
    // `(label, subtree size)` pairs.
    let mut old_labels = Vec::new();
    corpus.interner().encode(0, &mut old_labels);
    let old_files: [(&str, &str, Vec<u8>); 5] = [
        ("SIBTREE1", "index.bt", b"SIBTREE1".to_vec()),
        ("SIBTREE2", "index.bt", b"SIBTREE2".to_vec()),
        ("offsets", "corpus/trees.idx", vec![0u8; 8]),
        ("SITIDX1", "corpus/trees.idx", b"SITIDX1\0".to_vec()),
        ("bare labels", "corpus/labels.dat", old_labels),
    ];
    for (name, file, old_front) in &old_files {
        let swap = |path: std::path::PathBuf, check: &dyn Fn()| {
            let good = std::fs::read(&path).unwrap();
            let mut old = old_front.clone();
            old.extend_from_slice(good.get(old_front.len()..).unwrap_or(&[]));
            std::fs::write(&path, &old).unwrap();
            check();
            std::fs::write(&path, &good).unwrap();
        };
        swap(mono.join(file), &|| {
            says_rebuild(name, SubtreeIndex::open(&mono).err().expect("refused"));
            says_rebuild(
                name,
                SubtreeIndex::open_buffered(&mono).err().expect("refused"),
            );
            says_rebuild(name, ShardedIndex::open(&mono).err().expect("refused"));
        });
        swap(sharded.join("shard-0001").join(file), &|| {
            says_rebuild(name, ShardedIndex::open(&sharded).err().expect("refused"));
        });
        ShardedIndex::open(&sharded).expect("current format again");
    }
    // Any other leading bytes are plain corruption, still an `Err`.
    std::fs::write(mono.join("si.meta"), b"SIMETA9\0").unwrap();
    assert!(SubtreeIndex::open(&mono).is_err());
    std::fs::write(mono.join("si.meta"), b"SI").unwrap();
    assert!(ShardedIndex::open(&mono).is_err());
    std::fs::remove_dir_all(&mono).ok();
    std::fs::remove_dir_all(&sharded).ok();
}

fn drain(mut cursor: PostingCursor<SliceSource<'_>>) -> si_storage::Result<Vec<Posting>> {
    let mut out = Vec::new();
    while let Some(p) = cursor.next_posting()? {
        out.push(p.clone());
    }
    Ok(out)
}

fn is_corrupt<T>(what: &str, result: si_storage::Result<T>) {
    match result {
        Err(StorageError::Corrupt(_)) => {}
        Err(e) => panic!("{what}: expected Corrupt, got {e}"),
        Ok(_) => panic!("{what}: expected Corrupt, got Ok"),
    }
}

/// The header is the list's statistics: for every coding and for list
/// lengths around the restart interval, with repeated tids, what
/// `build_list_value` writes parses back to a brute-force recount of the
/// builder's payload, the cursor streams exactly those postings out of
/// the blocks, and a seek lands on the last restart whose predecessor is
/// below the target.
#[test]
fn header_stats_equal_a_recount_of_the_list() {
    const INTERVAL: u32 = 48;
    let mut rng = StdRng::seed_from_u64(0x4EAD);
    let lengths = [1, 2, INTERVAL - 1, INTERVAL, INTERVAL + 1, 3 * INTERVAL + 7];
    for coding in Coding::ALL {
        for &len in &lengths {
            for round in 0..8 {
                let key_nodes = 2usize;
                let mut builder = PostingBuilder::new(coding);
                let mut tid: TreeId = rng.gen_range(0..1_000u32);
                let mut pre = 0u32;
                // Pushes until `len` postings are kept: filter-based and
                // root-split drop what they deduplicate.
                while builder.count() < u64::from(len) {
                    if builder.count() > 0 && rng.gen_bool(0.3) {
                        pre += rng.gen_range(1..4u32);
                    } else {
                        tid += rng.gen_range(u32::from(builder.count() > 0)..40u32);
                        pre = rng.gen_range(0..50u32);
                    }
                    let level = rng.gen_range(0..20u32) as u16;
                    let root = NodeVal {
                        pre,
                        post: pre + 9,
                        level,
                    };
                    let child = NodeVal {
                        pre: pre + 1,
                        post: pre + 2,
                        level: level + 1,
                    };
                    builder.push(tid, &[(root, 1), (child, 2)]);
                }
                let payload = builder.finish();
                let what = format!("{coding} len {len} round {round}");
                let (value, header, stats) =
                    build_list_value(coding, key_nodes, &payload, INTERVAL).unwrap();
                let value = &value;

                // A recount of the payload as the builder wrote it.
                let bare = PostingCursor::new(coding, key_nodes, SliceSource::new(&payload));
                let linear: Vec<Posting> = drain(bare).unwrap();
                let tids: Vec<TreeId> = linear.iter().map(Posting::tid).collect();
                assert_eq!(tids.len(), len as usize, "{what}");
                let (first, last) = (tids[0], tids[tids.len() - 1]);
                let mut distinct = tids.clone();
                distinct.dedup();
                assert_eq!(stats.postings, u64::from(len), "{what}");
                assert_eq!(stats.distinct_tids, distinct.len() as u64, "{what}");
                assert_eq!((stats.first_tid, stats.last_tid), (first, last), "{what}");
                assert_eq!(stats.bytes, value.len() as u64, "{what}");
                let mut hist = [0u32; si_core::stats::TID_HIST_BUCKETS];
                if len > INTERVAL {
                    let span = u64::from(last - first) + 1;
                    for &t in &tids {
                        hist[(u64::from(t - first) * hist.len() as u64 / span) as usize] += 1;
                    }
                }
                assert_eq!(stats.tid_hist, hist, "{what}: histogram iff restart points");
                assert_eq!(stats.has_hist(), len > INTERVAL, "{what}");

                // What the index reads back, from the front alone.
                for front in [&value[..], &value[..value.len().min(96)]] {
                    let parsed = list_stats(front, value.len() as u64).unwrap();
                    assert_eq!(parsed, stats, "{what}");
                }
                let anatomy = list_anatomy(coding, key_nodes, value).unwrap();
                assert_eq!(anatomy.postings, u64::from(len), "{what}");
                assert_eq!(anatomy.header_bytes as usize, header, "{what}");
                assert_eq!(anatomy.table.is_some(), len > INTERVAL, "{what}");
                // A lone posting's count and tid; most short lists add
                // their repeats and tid span.
                let mut lone = vec![2];
                varint::write_u32(&mut lone, first);
                assert!(
                    header == lone.len() || len > 1,
                    "{what}: {header} header bytes"
                );
                assert!(
                    header <= 9 || len > INTERVAL,
                    "{what}: {header} header bytes"
                );

                let cursor =
                    || PostingCursor::with_format(coding, key_nodes, SliceSource::new(value), true);
                assert_eq!(drain(cursor()).unwrap(), linear, "{what}");
                for t in [0, first, first + 1, last / 2, last, last + 1, TreeId::MAX] {
                    let mut c = cursor();
                    let skipped = c.seek_to_tid(t).unwrap() as usize;
                    let restarts = (1..)
                        .map(|k| k * INTERVAL as usize)
                        .take_while(|&at| at < tids.len() && tids[at - 1] < t)
                        .count();
                    assert_eq!(skipped, restarts * INTERVAL as usize, "{what} seek {t}");
                    assert_eq!(drain(c).unwrap(), linear[skipped..], "{what} seek {t}");
                }
            }
        }
    }
}

/// One block of plain columns as the stored form lays it out, packed by
/// hand: a six-bit code per column — its width — then each column's
/// values at that width, back to back and LSB first, padded to a byte.
/// Widths and values are written as given, so a hostile block can lie
/// about either. (`stored_blocks.rs` packs patched columns.)
fn block(columns: &[(u32, &[u64])]) -> Vec<u8> {
    fn put(bits: &mut Vec<bool>, value: u64, width: u32) {
        bits.extend((0..width).map(|i| value >> i & 1 == 1));
    }
    fn bytes(bits: &[bool]) -> Vec<u8> {
        let byte = |chunk: &[bool]| (0..chunk.len()).fold(0u8, |b, i| b | u8::from(chunk[i]) << i);
        bits.chunks(8).map(byte).collect()
    }
    let (mut widths, mut values) = (Vec::new(), Vec::new());
    for &(width, column) in columns {
        put(&mut widths, u64::from(width), 6);
        for &value in column {
            put(&mut values, value, width);
        }
    }
    widths.extend(values);
    bytes(&widths)
}

/// Hostile header and block bytes surface as corruption errors, never as
/// a panic or a silent misdecode — from the statistics reader
/// (`SubtreeIndex::key_stats`, over a real `index.bt`), the whole-value
/// reader (`list_anatomy`) and the streaming cursor, each for the part
/// of the value it reads.
#[test]
fn corrupt_skip_headers_error_cleanly() {
    let coding = Coding::FilterBased;
    let varints = |vals: &[u64]| {
        let mut out = Vec::new();
        for &v in vals {
            varint::write_u64(&mut out, v);
        }
        out
    };
    // 40 postings, tids 100, 103, …, 217, a restart every 16 — so blocks
    // of 16, 16 and 8 postings, 5, 5 and 3 bytes long, each one 2-bit
    // column whose first `Δtid` counts from the header's first tid, 100:
    // the value `build_list_value` writes is the `good` one below.
    let tids: Vec<u64> = (0..40).map(|i| 100 + 3 * i).collect();
    let mut deltas = vec![0u64];
    deltas.extend(std::iter::repeat_n(3, 39));
    let mut payload_deltas = deltas.clone();
    payload_deltas[0] = 100;
    let blocks_of = |first: (u32, &[u64]), second: (u32, &[u64]), third: (u32, &[u64])| {
        [block(&[first]), block(&[second]), block(&[third])].concat()
    };
    let payload = blocks_of((2, &deltas[..16]), (2, &deltas[16..32]), (2, &deltas[32..]));
    let hist = [5u64; 8];
    let table = |count: u64, entries: &[(u64, u64)]| {
        let mut out = vec![count];
        out.extend(entries.iter().flat_map(|&(dt, doff)| [dt, doff]));
        out
    };
    let value = |front: &[u64], hist: &[u64], table: &[u64], payload: &[u8]| {
        let mut bytes = varints(front);
        bytes.extend(varints(hist));
        bytes.extend(varints(table));
        bytes.extend_from_slice(payload);
        bytes
    };
    let header = |front: &[u64], hist: &[u64], table: &[u64]| value(front, hist, table, &payload);
    let front = [40 << 1 | 1, 0, 117, 100, 16];
    let entries = [(tids[15], 5), (48, 5)];
    let good = header(&front, &hist, &table(2, &entries));
    let (built, header_len, _) =
        build_list_value(coding, 1, &varints(&payload_deltas), 16).unwrap();
    assert_eq!(good, built);
    let short_header = varints(&[3 << 1, 1, 9, 7]);
    let short = [short_header.clone(), block(&[(4, &[0, 0, 9])])].concat();

    let patched = |at: usize, v: u64| {
        let mut f = front;
        f[at] = v;
        header(&f, &hist, &table(2, &entries))
    };
    let with_blocks = |payload: &[u8]| value(&front, &hist, &table(2, &entries), payload);
    let mut skewed = hist;
    skewed[3] += 1;
    // (what, value, whether the statistics — which read neither the
    // restart table nor any block — must already refuse it)
    let hostile: Vec<(&str, Vec<u8>, bool)> = vec![
        ("no postings before a payload", header(&[0], &[], &[]), true),
        ("no postings, table flagged", patched(0, 1), true),
        ("every tid a repeat", patched(1, 40), true),
        (
            "more distinct tids than the span holds",
            patched(2, 38),
            true,
        ),
        (
            "first tid + span past u32::MAX",
            patched(3, u64::from(u32::MAX) - 116),
            true,
        ),
        ("first tid past u32", patched(3, 1 << 32), true),
        ("span past u32", patched(2, 1 << 32), true),
        ("zero restart interval", patched(4, 0), true),
        ("interval no shorter than the list", patched(4, 40), true),
        (
            "histogram does not add up",
            header(&front, &skewed, &table(2, &entries)),
            true,
        ),
        (
            "one restart too many",
            header(&front, &hist, &table(3, &entries)),
            false,
        ),
        (
            "one restart too few",
            header(&front, &hist, &table(1, &entries)),
            false,
        ),
        (
            "offsets do not ascend",
            header(&front, &hist, &table(2, &[(tids[15], 5), (48, 0)])),
            false,
        ),
        (
            "restart tid below the list",
            header(&front, &hist, &table(2, &[(99, 5), (48, 5)])),
            false,
        ),
        (
            "restart tid above the list",
            header(&front, &hist, &table(2, &[(tids[15], 5), (73, 5)])),
            false,
        ),
        (
            "restart offset lands mid-block",
            header(&front, &hist, &table(2, &[(tids[15], 4), (48, 5)])),
            false,
        ),
        (
            "restart tid is not its block's predecessor",
            header(&front, &hist, &table(2, &[(tids[14], 5), (51, 5)])),
            false,
        ),
        (
            "count above the payload",
            [varints(&[41 << 1 | 1]), good[1..].to_vec()].concat(),
            true,
        ),
        (
            "one tid, yet a span",
            [varints(&[2 << 1, 1, 5, 7]), block(&[(3, &[0, 0])])].concat(),
            true,
        ),
        (
            "first tid past u32::MAX - span",
            [
                varints(&[2 << 1, 0, 5, u64::from(u32::MAX) - 2]),
                block(&[(3, &[0, 5])]),
            ]
            .concat(),
            true,
        ),
        // Codes past 32 state patched columns (`stored_blocks.rs` packs
        // those): here the values that follow are no patch list.
        (
            "a column code of 33 over 33-bit values",
            with_blocks(&blocks_of(
                (33, &deltas[..16]),
                (2, &deltas[16..32]),
                (2, &deltas[32..]),
            )),
            false,
        ),
        (
            "a column code of 63 over 63-bit values",
            with_blocks(&blocks_of(
                (2, &deltas[..16]),
                (2, &deltas[16..32]),
                (63, &deltas[32..]),
            )),
            false,
        ),
        (
            "last block shorter than the header's count",
            with_blocks(&blocks_of(
                (2, &deltas[..16]),
                (2, &deltas[16..32]),
                (2, &deltas[32..36]),
            )),
            false,
        ),
        (
            "last block longer than the header's count",
            with_blocks(&blocks_of(
                (2, &deltas[..16]),
                (2, &deltas[16..32]),
                (2, &[3; 12]),
            )),
            false,
        ),
        (
            "first tid disagrees with the blocks",
            with_blocks(&blocks_of(
                (7, &[100, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3]),
                (2, &deltas[16..32]),
                (2, &deltas[32..]),
            )),
            false,
        ),
        (
            "bytes after the last block",
            [good.clone(), vec![0]].concat(),
            false,
        ),
        (
            "tid deltas sum past u32::MAX",
            with_blocks(&blocks_of(
                (2, &deltas[..16]),
                (2, &deltas[16..32]),
                (32, &[3, 3, 3, u64::from(u32::MAX), 3, 3, 3, 3]),
            )),
            false,
        ),
    ];

    // A real index directory whose `index.bt` is swapped for one holding
    // the values under test, so `key_stats` and `posting_cursor` run on
    // them end to end.
    let corpus = GeneratorConfig::default().with_seed(0xBAD).generate(40);
    let dir = tmp_dir("hostile");
    let built = SubtreeIndex::build(
        &dir,
        corpus.trees(),
        corpus.interner(),
        IndexOptions::new(1, coding),
    )
    .unwrap();
    let mut keys: Vec<Vec<u8>> = built.iter_keys().unwrap().map(|e| e.unwrap().0).collect();
    drop(built);
    let mut values: Vec<Vec<u8>> = hostile.iter().map(|(_, v, _)| v.clone()).collect();
    let stats_len = varints(&front).len() + hist.len();
    values.extend((1..good.len()).map(|cut| good[..cut].to_vec()));
    values.extend((1..short.len()).map(|cut| short[..cut].to_vec()));
    values.extend([good.clone(), short.clone(), Vec::new()]);
    assert!(keys.len() >= values.len(), "{} keys", keys.len());
    keys.truncate(values.len());
    let pairs = keys.iter().cloned().zip(values.iter().cloned());
    BTree::bulk_load(&dir.join("index.bt"), pairs)
        .unwrap()
        .flush()
        .unwrap();
    let index = SubtreeIndex::open(&dir).unwrap();
    let through_index = |value: &[u8]| {
        let key = &keys[values.iter().position(|v| v == value).unwrap()];
        let stats = index.key_stats(key).map(|s| s.expect("key is stored"));
        let mut cursor = index.posting_cursor(key).unwrap().expect("key is stored");
        let mut streamed = Vec::new();
        let drained = loop {
            match cursor.next_posting() {
                Ok(Some(p)) => streamed.push(p.clone()),
                Ok(None) => break Ok(streamed),
                Err(e) => break Err(e),
            }
        };
        (stats, drained)
    };
    let slice_cursor = |value: &[u8]| {
        drain(PostingCursor::with_format(
            coding,
            1,
            SliceSource::new(value),
            true,
        ))
    };

    for (what, value, stats_refuse) in &hostile {
        let (stats, drained) = through_index(value);
        is_corrupt(what, drained);
        is_corrupt(what, slice_cursor(value));
        is_corrupt(what, list_anatomy(coding, 1, value));
        if *stats_refuse {
            is_corrupt(what, stats);
            is_corrupt(what, list_stats(value, value.len() as u64));
        } else {
            // The table or a block is wrong: the statistics before them
            // hold.
            assert_eq!(stats.unwrap().postings, 40, "{what}");
        }
    }
    // A seek that trusts a restart entry pointing into a block reads
    // that block's tail as a block of its own — and, here, finds it out.
    let (what, astray, _) = &hostile[15];
    assert_eq!(*what, "restart offset lands mid-block");
    for p in [1, 2] {
        let mut cursor = PostingCursor::with_format(coding, 1, SliceSource::new(astray), true);
        cursor.seek_to_restart(p).unwrap();
        is_corrupt("a seek to a mid-block offset", drain(cursor));
    }
    // Every strict prefix of a value: the cursor and the whole-value
    // reader need all of it — a cut between two blocks leaves fewer
    // postings than the header counts — the statistics everything before
    // the restart table.
    for cut in 1..good.len() {
        let what = format!("value cut at {cut} of {}, header {header_len}", good.len());
        let (stats, drained) = through_index(&good[..cut]);
        is_corrupt(&what, drained);
        is_corrupt(&what, slice_cursor(&good[..cut]));
        is_corrupt(&what, list_anatomy(coding, 1, &good[..cut]));
        if cut < stats_len {
            is_corrupt(&what, stats);
        } else {
            assert_eq!(stats.unwrap().first_tid, 100, "{what}");
        }
    }
    // Without a table the statistics read the header, and that alone.
    for cut in 1..short.len() {
        let what = format!("short value cut at {cut}");
        let (stats, drained) = through_index(&short[..cut]);
        is_corrupt(&what, drained);
        is_corrupt(&what, list_anatomy(coding, 1, &short[..cut]));
        if cut < short_header.len() {
            is_corrupt(&what, stats);
        } else {
            assert_eq!(stats.unwrap().first_tid, 7, "{what}");
        }
    }

    // Sanity: the intact values read back, with and without a table.
    let (stats, drained) = through_index(&good);
    let stats = stats.unwrap();
    assert_eq!((stats.postings, stats.distinct_tids), (40, 40));
    assert_eq!((stats.first_tid, stats.last_tid), (100, 217));
    assert_eq!(stats.tid_hist, [5; 8]);
    assert_eq!(drained.unwrap().len(), 40);
    let anatomy = list_anatomy(coding, 1, &good).unwrap();
    assert_eq!(anatomy.table.unwrap().restarts(), 2);
    assert_eq!(anatomy.header_bytes as usize, header_len);
    assert_eq!(anatomy.block_header_bits, 3 * 6);
    assert_eq!(
        (anatomy.column_bits, anatomy.patch_bits),
        (vec![80], vec![0])
    );
    let (stats, drained) = through_index(&short);
    let stats = stats.unwrap();
    assert_eq!((stats.postings, stats.distinct_tids), (3, 2));
    assert_eq!((stats.first_tid, stats.last_tid), (7, 16));
    let tids: Vec<TreeId> = drained.unwrap().iter().map(Posting::tid).collect();
    assert_eq!(tids, [7, 7, 16]);

    // An empty value stays a clean empty list.
    let (stats, drained) = through_index(&[]);
    assert_eq!(stats.unwrap().postings, 0);
    assert!(drained.unwrap().is_empty());
    assert_eq!(list_anatomy(coding, 1, &[]).unwrap().postings, 0);
    let mut c = PostingCursor::with_format(coding, 1, SliceSource::new(&[]), true);
    assert!(c.next_posting().unwrap().is_none());
    assert_eq!(c.seek_to_tid(5).unwrap(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The node columns of a hostile block: a node no tree can hold —
/// `desc + pre < level`, a `post` rebuilt past `u32::MAX`, a level past
/// `u16::MAX`, an order past `u8::MAX` — is corruption under the codings
/// that store nodes, and the same values at their limits are not.
#[test]
fn impossible_nodes_in_a_block_are_corrupt() {
    let max = u64::from(u32::MAX);
    // (what, pre, desc, level, order, corrupt?)
    let nodes: [(&str, u64, u64, u64, u64, bool); 8] = [
        ("a leaf at the root", 0, 0, 0, 1, false),
        (
            "more ancestors than predecessors and descendants",
            1,
            0,
            2,
            1,
            true,
        ),
        ("as many ancestors as that", 1, 1, 2, 1, false),
        ("post past u32::MAX", max, 5, 4, 1, true),
        ("post at u32::MAX", max, 5, 5, 1, false),
        ("level past u16::MAX", 9, 1 << 16, 1 << 16, 1, true),
        ("level at u16::MAX", 9, 1 << 16, (1 << 16) - 1, 1, false),
        ("order past u8::MAX", 3, 1, 1, 256, true),
    ];
    for (what, pre, desc, level, order, bad) in nodes {
        let one = |v: u64| (u64::BITS - v.leading_zeros(), vec![v]);
        let columns = [one(0), one(pre), one(desc), one(level), one(order)];
        let columns: Vec<(u32, &[u64])> = columns.iter().map(|(w, c)| (*w, &c[..])).collect();
        for (coding, k) in [(Coding::RootSplit, 4), (Coding::SubtreeInterval, 5)] {
            if coding == Coding::RootSplit && what.starts_with("order") {
                continue;
            }
            // One posting in tree 6: the header states the tid, the row's
            // `Δtid` is 0.
            let value = [vec![1 << 1, 6], block(&columns[..k])].concat();
            let read = drain(PostingCursor::with_format(
                coding,
                1,
                SliceSource::new(&value),
                true,
            ));
            assert_eq!(
                list_anatomy(coding, 1, &value).is_ok(),
                read.is_ok(),
                "{coding} {what}"
            );
            if bad {
                is_corrupt(&format!("{coding} {what}"), read);
                continue;
            }
            let post = (pre + desc - level) as u32;
            let root = NodeVal {
                pre: pre as u32,
                post,
                level: level as u16,
            };
            let want = match coding {
                Coding::RootSplit => Posting::Root { tid: 6, root },
                _ => Posting::Occurrence {
                    tid: 6,
                    nodes: vec![(root, order as u8)],
                },
            };
            assert_eq!(read.unwrap(), [want], "{coding} {what}");
        }
    }
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
