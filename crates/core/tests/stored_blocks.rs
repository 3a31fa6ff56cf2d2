//! The stored form of a posting list — header, then bit-packed column
//! blocks — round-trips what a `PostingBuilder` was given: a seeded
//! property test over all three codings, list lengths around the block
//! and restart sizes, and field values at every width, read back in one
//! piece and in chunks that cut every block; and a corrupt stored list
//! is an error under both executors.

use si_core::coding::{
    build_list_value, list_anatomy, list_stats, ChunkSource, NodeVal, Posting, PostingBuilder,
    PostingCursor, SliceSource, BLOCK_POSTINGS, DEFAULT_RESTART_INTERVAL,
};
use si_core::{Coding, ExecMode, IndexOptions, SubtreeIndex};
use si_corpus::rng::StdRng;
use si_corpus::GeneratorConfig;
use si_parsetree::TreeId;
use si_query::parse_query;
use si_storage::{BTree, StorageError};

/// A source that hands its bytes out `chunk` at a time, so blocks
/// straddle chunk boundaries wherever those fall.
struct Drip<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl ChunkSource for Drip<'_> {
    fn read_chunk(&mut self, out: &mut Vec<u8>) -> si_storage::Result<usize> {
        let (now, later) = self.bytes.split_at(self.chunk.min(self.bytes.len()));
        out.extend_from_slice(now);
        self.bytes = later;
        Ok(now.len())
    }
}

fn drain<S: ChunkSource>(mut cursor: PostingCursor<S>) -> Vec<Posting> {
    let mut out = Vec::new();
    while let Some(p) = cursor.next_posting().unwrap() {
        out.push(p.clone());
    }
    out
}

/// A value of a random width up to `max_bits`: small ones and ones that
/// need every bit both turn up in any block.
fn any_width(rng: &mut StdRng, max_bits: u32) -> u32 {
    let bits = rng.gen_range(0..max_bits + 1);
    (rng.gen::<u64>() & ((1u64 << bits) - 1)) as u32
}

/// A node some tree could hold (`post + level ≥ pre`) at `pre`, with a
/// level of up to 6 bits (so often ≥ 15) and `post` up to 2¹⁵ or so.
fn node_at(rng: &mut StdRng, pre: u32) -> NodeVal {
    let desc = any_width(rng, 15);
    let level = any_width(rng, 6).min(pre + desc) as u16;
    NodeVal {
        pre,
        post: pre + desc - u32::from(level),
        level,
    }
}

/// `pushes` occurrences of an `m`-node key in `(tid, root.pre)` order,
/// with repeated tids, repeated roots, and tid gaps of up to 22 bits.
fn occurrences(rng: &mut StdRng, m: usize, pushes: usize) -> Vec<(TreeId, Vec<(NodeVal, u8)>)> {
    let mut out: Vec<(TreeId, Vec<(NodeVal, u8)>)> = Vec::new();
    let (mut tid, mut root) = (any_width(rng, 10), node_at(rng, 0));
    for i in 0..pushes {
        match rng.gen_range(0..8u32) {
            _ if i == 0 => {}
            0 => {} // the same root again, under other children
            1 | 2 => {
                let right = 1 + any_width(rng, 12);
                root = node_at(rng, root.pre + right);
            }
            _ => {
                let gap_bits = if rng.gen_bool(0.05) { 22 } else { 6 };
                tid += 1 + any_width(rng, gap_bits);
                let pre = any_width(rng, 15);
                root = node_at(rng, pre);
            }
        }
        let mut nodes = vec![(root, 1u8)];
        for order in 1..m {
            let below = 1 + any_width(rng, 8);
            nodes.push((node_at(rng, root.pre + below), order as u8 + 1));
        }
        out.push((tid, nodes));
    }
    out
}

/// What a list built from `occs` holds, worked out without a decoder:
/// the coding's projection of each occurrence, deduplicated its way.
fn expected(coding: Coding, occs: &[(TreeId, Vec<(NodeVal, u8)>)]) -> Vec<Posting> {
    let mut out: Vec<Posting> = Vec::new();
    for (tid, nodes) in occs {
        let (tid, root) = (*tid, nodes[0].0);
        let posting = match coding {
            Coding::FilterBased => Posting::Tid(tid),
            Coding::RootSplit => Posting::Root { tid, root },
            Coding::SubtreeInterval => Posting::Occurrence {
                tid,
                nodes: nodes.clone(),
            },
        };
        let repeat = match (out.last(), coding) {
            (Some(Posting::Tid(last)), _) => *last == tid,
            (Some(Posting::Root { tid: t, root: r }), _) => (*t, r.pre) == (tid, root.pre),
            _ => false,
        };
        if !repeat {
            out.push(posting);
        }
    }
    out
}

#[test]
fn stored_lists_round_trip_at_every_length_width_and_chunking() {
    const B: usize = BLOCK_POSTINGS;
    const R: usize = DEFAULT_RESTART_INTERVAL as usize;
    let lengths = [1, 2, B - 1, B, B + 1, 2 * B, R - 1, R, R + 1, 3 * R + 7];
    let shapes = [
        (Coding::FilterBased, 2),
        (Coding::RootSplit, 3),
        (Coding::SubtreeInterval, 1),
        (Coding::SubtreeInterval, 2),
        (Coding::SubtreeInterval, 3),
        (Coding::SubtreeInterval, 5),
    ];
    let mut rng = StdRng::seed_from_u64(0xB10C);
    // What the generator is there to reach: (tid gap, root level, post).
    let mut widest = (0u32, 0u16, 0u32);
    for (coding, m) in shapes {
        for len in lengths {
            // Push until `len` postings are kept: two codings drop
            // what they deduplicate.
            let mut occs = occurrences(&mut rng, m, len);
            while expected(coding, &occs).len() < len {
                let more = occurrences(&mut rng, m, 2 * len);
                let last = occs.last().map_or(0, |(tid, _)| *tid + 1);
                occs.extend(more.into_iter().map(|(tid, nodes)| (last + tid, nodes)));
            }
            let mut want = expected(coding, &occs);
            want.truncate(len);
            let mut builder = PostingBuilder::new(coding);
            for (tid, nodes) in &occs {
                if builder.count() < len as u64 {
                    builder.push(*tid, nodes);
                }
            }
            assert_eq!(builder.count(), len as u64);
            let what = format!("{coding} m={m} len={len}");
            let (value, _, stats) =
                build_list_value(coding, m, &builder.finish(), DEFAULT_RESTART_INTERVAL)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
            let value = &value[..];
            let stored = |src| PostingCursor::with_format(coding, m, src, true);

            assert_eq!(drain(stored(SliceSource::new(value))), want, "{what}");
            for chunk in [1, 7, 4096] {
                let dripped = PostingCursor::with_format(
                    coding,
                    m,
                    Drip {
                        bytes: value,
                        chunk,
                    },
                    true,
                );
                assert_eq!(drain(dripped), want, "{what} in {chunk}-byte chunks");
            }

            // The header is a recount of what went in.
            let tids: Vec<TreeId> = want.iter().map(Posting::tid).collect();
            for (pair, posting) in tids.windows(2).zip(&want[1..]) {
                widest.0 = widest.0.max(pair[1] - pair[0]);
                if let Posting::Root { root, .. } = posting {
                    widest.1 = widest.1.max(root.level);
                    widest.2 = widest.2.max(root.post);
                }
            }
            let mut distinct = tids.clone();
            distinct.dedup();
            assert_eq!(stats.postings, len as u64, "{what}");
            assert_eq!(stats.distinct_tids, distinct.len() as u64, "{what}");
            assert_eq!((stats.first_tid, stats.last_tid), (tids[0], tids[len - 1]));
            assert_eq!(stats.has_hist(), len > R, "{what}");
            let front = &value[..value.len().min(96)];
            assert_eq!(
                list_stats(coding, m, front, value.len() as u64).unwrap(),
                stats,
                "{what}"
            );

            // A seek lands where a linear scan says the restart is —
            // from the list's start and from part-way into a block.
            let restarts = (len - 1) / R;
            for p in 0..=restarts + 1 {
                for lent in [0, B / 2 + 3] {
                    let mut cursor = stored(SliceSource::new(value));
                    let lent = lent.min(len - 1);
                    for posting in &want[..lent] {
                        assert_eq!(cursor.next_posting().unwrap(), Some(posting), "{what}");
                    }
                    let target = if (1..=restarts).contains(&p) && p * R > lent {
                        p * R
                    } else {
                        lent // no such restart, or behind: a no-op
                    };
                    let skipped = cursor.seek_to_restart(p as u32).unwrap() as usize;
                    assert_eq!(skipped, target - lent, "{what} restart {p} after {lent}");
                    assert_eq!(cursor.position() as usize, target, "{what} restart {p}");
                    assert_eq!(drain(cursor), want[target..], "{what} restart {p}");
                }
            }
            for _ in 0..6 {
                let t = rng.gen_range(0..tids[len - 1] + 2);
                let mut cursor = stored(SliceSource::new(value));
                let skipped = cursor.seek_to_tid(t).unwrap() as usize;
                let linear = (1..=restarts).take_while(|p| tids[p * R - 1] < t).count();
                assert_eq!(skipped, linear * R, "{what} seek to tid {t}");
                assert_eq!(drain(cursor), want[skipped..], "{what} seek to tid {t}");
            }
        }
    }
    assert!(
        widest.0 >= 1 << 20 && widest.1 >= 15 && widest.2 >= 1 << 14,
        "{widest:?}"
    );
}

/// One flipped byte inside a stored list is `Corrupt` from the streaming
/// executor and from the materializing one alike: the oracle reads a
/// list with the cursor the engine reads it with, so it cannot answer
/// `Ok` from a list cut short where the engine reports an error.
#[test]
fn a_corrupt_stored_list_is_an_error_under_both_executors() {
    let corpus = GeneratorConfig::default().with_seed(0xBAD5).generate(200);
    let dir = std::env::temp_dir().join(format!("si-blocks-corrupt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let options = IndexOptions::new(2, Coding::RootSplit);
    let built = SubtreeIndex::build(&dir, corpus.trees(), corpus.interner(), options).unwrap();
    let mut interner = built.interner();
    let query = parse_query("NP(NN)", &mut interner).unwrap();
    let healthy = built.evaluate(&query).unwrap().matches;
    assert!(
        healthy.len() > 10,
        "the probe key has a list worth the name"
    );
    let key = si_core::cover::decompose(&query, 2, Coding::RootSplit).subtrees[0]
        .key
        .clone();
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> =
        built.iter_keys().unwrap().map(|e| e.unwrap()).collect();
    drop(built);

    // Past the statistics, which read no further than block 0: the
    // first width of the second block's width table becomes 63 bits. A
    // full root-split block is its three width bytes and four columns
    // of `BLOCK_POSTINGS × width` bits each.
    let value = &mut pairs.iter_mut().find(|(k, _)| *k == key).unwrap().1;
    let anatomy = list_anatomy(Coding::RootSplit, 2, value).unwrap();
    assert!(anatomy.postings > BLOCK_POSTINGS as u64 && anatomy.table.is_none());
    let block = anatomy.header_bytes as usize;
    let table = u32::from_le_bytes([value[block], value[block + 1], value[block + 2], 0]);
    let widths: u32 = (0..4).map(|c| table >> (6 * c) & 63).sum();
    value[block + 3 + widths as usize * BLOCK_POSTINGS / 8] |= 63;
    BTree::bulk_load(&dir.join("index.bt"), pairs)
        .unwrap()
        .flush()
        .unwrap();

    let mut index = SubtreeIndex::open(&dir).unwrap();
    for mode in [ExecMode::Streaming, ExecMode::Materialized] {
        index.set_exec_mode(mode);
        match index.evaluate(&query) {
            Err(StorageError::Corrupt(_)) => {}
            Err(e) => panic!("{mode:?}: expected Corrupt, got {e}"),
            Ok(r) => panic!(
                "{mode:?}: expected Corrupt, got {} matches",
                r.matches.len()
            ),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `order` is a `u8` rank, so a stored row has columns for 255 nodes at
/// most: the widest key round-trips, and a wider one is refused by the
/// writer instead of being stored short of its excess nodes.
#[test]
fn an_interval_key_of_over_255_nodes_is_refused_not_truncated() {
    let coding = Coding::SubtreeInterval;
    for m in [255usize, 256] {
        let nodes: Vec<(NodeVal, u8)> = (0..m as u32)
            .map(|i| {
                let (pre, post, level) = (i, 2 * m as u32 - i, (i % 7) as u16);
                (NodeVal { pre, post, level }, i as u8)
            })
            .collect();
        let mut builder = PostingBuilder::new(coding);
        builder.push(3, &nodes);
        builder.push(9, &nodes);
        let built = build_list_value(coding, m, &builder.finish(), 1024);
        if m > 255 {
            assert!(matches!(built, Err(StorageError::Corrupt(_))), "m = {m}");
            continue;
        }
        let (value, _, stats) = built.unwrap();
        assert_eq!((stats.postings, stats.first_tid, stats.last_tid), (2, 3, 9));
        let cursor = PostingCursor::with_format(coding, m, SliceSource::new(&value), true);
        let expect = |tid| Posting::Occurrence {
            tid,
            nodes: nodes.clone(),
        };
        assert_eq!(drain(cursor), [expect(3), expect(9)]);
    }
}
