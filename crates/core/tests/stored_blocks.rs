//! The stored form of a posting list — header, then bit-packed column
//! blocks with patches — round-trips what a `PostingBuilder` was given:
//! a seeded property test over all three codings, list lengths around
//! the block and restart sizes, and field values at every width, read
//! back in one piece and in chunks that cut every block. Blocks packed
//! by hand at bases the encoder would not choose — every patch count
//! from none to every row — decode too, and hostile patch lists,
//! cut-short lists and trailing bytes are `Corrupt`, never a panic. A
//! corrupt stored list is an error under both executors.
//!
//! The last test builds the benchmark's 200k-tree index; it is ignored
//! by default and takes under a minute in release:
//! `cargo test --release -p si_core --test stored_blocks -- --ignored`.

use si_core::canonical::key_size;
use si_core::coding::{
    build_list_value, list_anatomy, list_stats, ChunkSource, NodeVal, Posting, PostingBuilder,
    PostingCursor, SliceSource, BLOCK_POSTINGS, DEFAULT_RESTART_INTERVAL,
};
use si_core::stats::TID_HIST_BUCKETS;
use si_core::{Coding, ExecMode, IndexOptions, KeyStats, SubtreeIndex};
use si_corpus::rng::StdRng;
use si_corpus::GeneratorConfig;
use si_parsetree::{varint, TreeId};
use si_query::parse_query;
use si_storage::{BTree, StorageError};

const B: usize = BLOCK_POSTINGS;
const R: usize = DEFAULT_RESTART_INTERVAL as usize;
/// List lengths around a block and around a restart interval.
const LENGTHS: [usize; 8] = [1, B - 1, B, B + 1, R - 1, R, R + 1, 3 * R + 7];
/// Codings with the key sizes they are read at.
const SHAPES: [(Coding, usize); 6] = [
    (Coding::FilterBased, 2),
    (Coding::RootSplit, 3),
    (Coding::SubtreeInterval, 1),
    (Coding::SubtreeInterval, 2),
    (Coding::SubtreeInterval, 3),
    (Coding::SubtreeInterval, 5),
];

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

/// Drains a cursor: what it lent out, or the error it stopped with.
fn read<S: ChunkSource>(mut cursor: PostingCursor<S>) -> si_storage::Result<Vec<Posting>> {
    let mut out = Vec::new();
    while let Some(p) = cursor.next_posting()? {
        out.push(p.clone());
    }
    Ok(out)
}

fn drain<S: ChunkSource>(cursor: PostingCursor<S>) -> Vec<Posting> {
    read(cursor).unwrap()
}

fn is_corrupt<T>(what: &str, result: si_storage::Result<T>) {
    match result {
        Err(StorageError::Corrupt(_)) => {}
        Err(e) => panic!("{what}: expected Corrupt, got {e}"),
        Ok(_) => panic!("{what}: expected Corrupt, got Ok"),
    }
}

/// A value of a random width up to `max_bits`: small ones and ones that
/// need every bit both turn up in any block.
fn any_width(rng: &mut StdRng, max_bits: u32) -> u32 {
    let bits = rng.gen_range(0..max_bits + 1);
    (rng.gen::<u64>() & ((1u64 << bits) - 1)) as u32
}

/// A node some tree could hold at `pre` with at least `min_desc`
/// descendants: a level of up to 6 bits (so often ≥ 15), now and then of
/// all 16, and a `desc` of up to 15 bits, now and then of up to 32.
fn node_at(rng: &mut StdRng, pre: u32, min_desc: u32) -> NodeVal {
    let desc_bits = if rng.gen_bool(0.02) { 32 } else { 15 };
    let level = if rng.gen_bool(0.02) {
        1 << 15 | any_width(rng, 15)
    } else {
        any_width(rng, 6)
    };
    // `post = pre + desc − level` fits a `u32`.
    let desc = any_width(rng, desc_bits)
        .max(min_desc)
        .min((u32::MAX - pre).saturating_add(level));
    let (pre, desc) = (u64::from(pre), u64::from(desc));
    let level = u64::from(level).min(pre + desc);
    NodeVal {
        pre: pre as u32,
        post: (pre + desc - level) as u32,
        level: level as u16,
    }
}

/// Pushes of an `m`-node key in `(tid, root pre)` order until `coding`
/// keeps `len` postings: the same root again under other children
/// (which the filter-based and root-split codings drop, and the interval
/// coding keeps with an in-tree `pre` delta of 0), another root in the
/// same tree, and new trees after tid gaps of up to 22 bits and now and
/// then of 31, with roots whose `pre` needs up to 32 bits. Wherever the
/// coding keeps repeated tids, one tree spans the first block edge and
/// the first and second restart edges.
fn occurrences(
    rng: &mut StdRng,
    coding: Coding,
    m: usize,
    len: usize,
) -> Vec<(TreeId, Vec<(NodeVal, u8)>)> {
    let mut out: Vec<(TreeId, Vec<(NodeVal, u8)>)> = Vec::new();
    let mut tid = any_width(rng, 10);
    let pre = any_width(rng, 15);
    let mut root = node_at(rng, pre, m as u32 - 1);
    let mut kept = 0;
    while kept < len {
        let edge = coding != Coding::FilterBased && [B, R, 2 * R].contains(&kept);
        let step = match out.len() {
            0 => None,
            _ if edge => Some(rng.gen_range(0..3u32)),
            _ => Some(rng.gen_range(0..8u32)),
        };
        let (same_tree, same_root) = match step {
            None | Some(0) => (true, true),
            Some(1 | 2) if root.pre < u32::MAX - (1 << 13) - 256 => {
                let pre = root.pre + 1 + any_width(rng, 12);
                root = node_at(rng, pre, m as u32 - 1);
                (true, false)
            }
            Some(_) => {
                let gap_bits = match rng.gen_range(0..200u32) {
                    0 if tid < 1 << 30 => 31,
                    1..=10 => 22,
                    _ => 6,
                };
                tid += 1 + any_width(rng, gap_bits);
                let pre = match rng.gen_range(0..50u32) {
                    0 => u32::MAX - 256 - any_width(rng, 16),
                    1 => any_width(rng, 31),
                    _ => any_width(rng, 15),
                };
                root = node_at(rng, pre, m as u32 - 1);
                (false, false)
            }
        };
        kept += usize::from(match coding {
            _ if out.is_empty() => true,
            Coding::FilterBased => !same_tree,
            Coding::RootSplit => !same_root,
            Coding::SubtreeInterval => true,
        });
        let mut nodes = vec![(root, 1u8)];
        for order in 1..m {
            let below = 1 + any_width(rng, 8);
            let pre = root.pre.saturating_add(below).min(u32::MAX - 1);
            nodes.push((node_at(rng, pre, 0), order as u8 + 1));
        }
        out.push((tid, nodes));
    }
    out
}

/// What `coding` stores of an occurrence.
fn project(coding: Coding, (tid, nodes): &(TreeId, Vec<(NodeVal, u8)>)) -> Posting {
    match coding {
        Coding::FilterBased => Posting::Tid(*tid),
        Coding::RootSplit => Posting::Root {
            tid: *tid,
            root: nodes[0].0,
        },
        Coding::SubtreeInterval => Posting::Occurrence {
            tid: *tid,
            nodes: nodes.clone(),
        },
    }
}

/// What a list built from `occs` holds, worked out without a decoder:
/// the coding's projection of each occurrence, deduplicated its way.
fn expected(coding: Coding, occs: &[(TreeId, Vec<(NodeVal, u8)>)]) -> Vec<Posting> {
    let mut out: Vec<Posting> = Vec::new();
    for occ in occs {
        let posting = project(coding, occ);
        let repeat = match (out.last(), &posting) {
            (Some(Posting::Tid(last)), Posting::Tid(tid)) => last == tid,
            (Some(Posting::Root { tid: t, root: r }), Posting::Root { tid, root }) => {
                (t, r.pre) == (tid, root.pre)
            }
            _ => false,
        };
        if !repeat {
            out.push(posting);
        }
    }
    out
}

/// The statistics a list of `postings` in `bytes` has, counted.
fn recount(postings: &[Posting], bytes: usize) -> KeyStats {
    let tids: Vec<TreeId> = postings.iter().map(Posting::tid).collect();
    let (first_tid, last_tid) = (tids[0], tids[tids.len() - 1]);
    let mut tid_hist = [0u32; TID_HIST_BUCKETS];
    if tids.len() > R {
        let span = u64::from(last_tid - first_tid) + 1;
        for &t in &tids {
            tid_hist[(u64::from(t - first_tid) * TID_HIST_BUCKETS as u64 / span) as usize] += 1;
        }
    }
    KeyStats {
        postings: tids.len() as u64,
        distinct_tids: 1 + tids.windows(2).filter(|w| w[0] != w[1]).count() as u64,
        first_tid,
        last_tid,
        bytes: bytes as u64,
        tid_hist,
    }
}

/// Reads `value` every way the engine does and holds it to `want`: the
/// cursor over one slice and over 1-, 7- and 4096-byte chunks, the
/// statistics from the value's front against a recount, and seeks —
/// to every restart from the start and from part-way into a block, and
/// to tids on either side of every restart edge — against a linear scan.
fn check_list(coding: Coding, m: usize, value: &[u8], want: &[Posting], what: &str) {
    let stored = |src| PostingCursor::with_format(coding, m, src, true);
    let read_back = read(stored(SliceSource::new(value)));
    assert_eq!(
        read_back.unwrap_or_else(|e| panic!("{what}: {e}")),
        want,
        "{what}"
    );
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
    let front = &value[..value.len().min(96)];
    let stats = list_stats(front, value.len() as u64).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(stats, recount(want, value.len()), "{what}");

    let len = want.len();
    let tids: Vec<TreeId> = want.iter().map(Posting::tid).collect();
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
    let mut targets = vec![0, tids[0], tids[len - 1], tids[len - 1].saturating_add(1)];
    for p in 1..=restarts {
        targets.extend([tids[p * R - 1], tids[p * R - 1] + 1, tids[p * R]]);
    }
    for t in targets {
        let mut cursor = stored(SliceSource::new(value));
        let skipped = cursor.seek_to_tid(t).unwrap() as usize;
        let linear = (1..=restarts).take_while(|p| tids[p * R - 1] < t).count();
        assert_eq!(skipped, linear * R, "{what} seek to tid {t}");
        assert_eq!(drain(cursor), want[skipped..], "{what} seek to tid {t}");
    }
}

#[test]
fn stored_lists_round_trip_at_every_length_width_and_chunking() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    // What the generator is there to reach: (tid gap, root level, post).
    let mut widest = (0u32, 0u16, 0u32);
    let mut patched = 0u64;
    // Pushes the builder dropped, and interval rows that repeat a root.
    let (mut dropped, mut repeated_roots) = (0, 0);
    for (coding, m) in SHAPES {
        for len in [1, 2, B - 1, B, B + 1, 2 * B, R - 1, R, R + 1, 3 * R + 7] {
            let occs = occurrences(&mut rng, coding, m, len);
            let want = expected(coding, &occs);
            assert_eq!(want.len(), len);
            let mut builder = PostingBuilder::new(coding);
            for (tid, nodes) in &occs {
                builder.push(*tid, nodes);
            }
            assert_eq!(builder.count(), len as u64);
            dropped += occs.len() - len;
            repeated_roots += occs
                .windows(2)
                .filter(|w| coding == Coding::SubtreeInterval && w[0].0 == w[1].0)
                .filter(|w| w[0].1[0].0.pre == w[1].1[0].0.pre)
                .count();
            let what = format!("{coding} m={m} len={len}");
            let (value, header_len, stats) =
                build_list_value(coding, m, &builder.finish(), DEFAULT_RESTART_INTERVAL)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(stats, recount(&want, value.len()), "{what}: the transcode");
            let blockless = coding == Coding::FilterBased && len == 1;
            assert_eq!(value.len() == header_len, blockless, "{what}: blocks");
            check_list(coding, m, &value, &want, &what);
            let anatomy = list_anatomy(coding, m, &value).unwrap();
            patched += anatomy.patches.iter().sum::<u64>();

            for (pair, posting) in want.windows(2).zip(&want[1..]) {
                widest.0 = widest.0.max(pair[1].tid() - pair[0].tid());
                if let Posting::Root { root, .. } = posting {
                    widest.1 = widest.1.max(root.level);
                    widest.2 = widest.2.max(root.post);
                }
            }
        }
    }
    assert!(
        widest.0 >= 1 << 30 && widest.1 >= 1 << 15 && widest.2 >= 1 << 31,
        "{widest:?}"
    );
    assert!(patched > 1000, "the encoder patches: {patched} values");
    assert!(
        dropped > 1000 && repeated_roots > 1000,
        "{dropped} {repeated_roots}"
    );
}

/// A column of a hand-packed block as it is written: its values at
/// `base` bits and, if some are wider, its patch list — fields a hostile
/// case overwrites.
#[derive(Clone, Debug)]
struct Column {
    base: u32,
    values: Vec<u64>,
    patch: Option<Patch>,
}

/// A column's patch list as written: `count` is the count less one.
#[derive(Clone, Debug)]
struct Patch {
    count: u64,
    high: u64,
    rows: Vec<u64>,
    highs: Vec<u64>,
}

fn bit_length(value: u64) -> u32 {
    u64::BITS - value.leading_zeros()
}

impl Column {
    /// `values` at `base` bits, patching every value wider.
    fn packed(values: Vec<u64>, base: u32) -> Column {
        let widest = values.iter().map(|&v| bit_length(v)).max().unwrap_or(0);
        let rows: Vec<u64> = (0..values.len() as u64)
            .filter(|&row| values[row as usize] >> base != 0)
            .collect();
        let patch = (!rows.is_empty()).then(|| Patch {
            count: rows.len() as u64 - 1,
            high: u64::from(widest - base),
            highs: rows
                .iter()
                .map(|&row| values[row as usize] >> base)
                .collect(),
            rows,
        });
        Column {
            base,
            values,
            patch,
        }
    }

    /// `values` at the width of the widest, unpatched.
    fn plain(values: Vec<u64>) -> Column {
        let widest = values.iter().map(|&v| bit_length(v)).max().unwrap_or(0);
        Column::packed(values, widest)
    }
}

/// `columns` laid out as one block (`si_core::coding`'s module docs),
/// bit by bit.
fn pack(columns: &[Column]) -> Vec<u8> {
    let mut bits: Vec<bool> = Vec::new();
    let mut put = |value: u64, width: u64| bits.extend((0..width).map(|i| value >> i & 1 == 1));
    let position = u64::from(B.trailing_zeros());
    for column in columns {
        let code = column.base + if column.patch.is_some() { 33 } else { 0 };
        put(code.into(), 6);
    }
    for column in columns {
        let low = (1u64 << column.base) - 1;
        let base = u64::from(column.base);
        column.values.iter().for_each(|&v| put(v & low, base));
    }
    for patch in columns.iter().filter_map(|column| column.patch.as_ref()) {
        put(patch.count, position);
        put(patch.high, 6);
        for (&row, &high) in patch.rows.iter().zip(&patch.highs) {
            put(row, position);
            put(high, patch.high);
        }
    }
    let byte = |chunk: &[bool]| (0..chunk.len()).fold(0u8, |b, i| b | u8::from(chunk[i]) << i);
    bits.chunks(8).map(byte).collect()
}

/// A stored value: a header stating `want`'s statistics — and, past one
/// restart interval, a restart table over `blocks` — then the blocks.
fn stored_value(want: &[Posting], blocks: &[Vec<u8>]) -> Vec<u8> {
    let stats = recount(want, 0);
    let n = stats.postings;
    let mut out = Vec::new();
    varint::write_u64(&mut out, n << 1 | u64::from(n > R as u64));
    if n >= 2 {
        varint::write_u64(&mut out, n - stats.distinct_tids);
        varint::write_u32(&mut out, stats.last_tid - stats.first_tid);
    }
    varint::write_u32(&mut out, stats.first_tid);
    if n > R as u64 {
        varint::write_u64(&mut out, R as u64);
        stats
            .tid_hist
            .iter()
            .for_each(|&c| varint::write_u32(&mut out, c));
        let restarts = (want.len() - 1) / R;
        varint::write_u64(&mut out, restarts as u64);
        let (mut prior, mut offset) = (0, 0);
        for p in 1..=restarts {
            let tid = want[p * R - 1].tid();
            let at: usize = blocks[..p * R / B].iter().map(Vec::len).sum();
            varint::write_u32(&mut out, tid - prior);
            varint::write_u64(&mut out, (at - offset) as u64);
            (prior, offset) = (tid, at);
        }
    }
    blocks.iter().for_each(|block| out.extend_from_slice(block));
    out
}

/// The postings stored rows stand for, worked out without the decoder:
/// `Δtid` summed from `first_tid`, a root's `pre` summed within a tree
/// from its block's first row, and its `desc` plus `m − 1`.
fn postings_of(
    coding: Coding,
    m: usize,
    first_tid: TreeId,
    blocks: &[Vec<Vec<u64>>],
) -> Vec<Posting> {
    let mut out = Vec::new();
    let mut tid = u64::from(first_tid);
    for block in blocks {
        let mut prev_pre = 0;
        for row in 0..block[0].len() {
            let delta = block[0][row];
            tid += delta;
            let mut nodes = Vec::new();
            for (n, node) in block[1..]
                .chunks(3 + usize::from(coding == Coding::SubtreeInterval))
                .enumerate()
            {
                let root = n == 0;
                let in_tree = root && row > 0 && delta == 0;
                let pre = node[0][row] + if in_tree { prev_pre } else { 0 };
                let desc = node[1][row] + if root { m as u64 - 1 } else { 0 };
                let level = node[2][row];
                if root {
                    prev_pre = pre;
                }
                let post = pre + desc - level;
                assert!(post <= u64::from(u32::MAX) && level <= u64::from(u16::MAX));
                let val = NodeVal {
                    pre: pre as u32,
                    post: post as u32,
                    level: level as u16,
                };
                nodes.push((val, node.get(3).map_or(1, |order| order[row] as u8)));
            }
            let tid = tid as TreeId;
            out.push(match coding {
                Coding::FilterBased => Posting::Tid(tid),
                Coding::RootSplit => Posting::Root {
                    tid,
                    root: nodes[0].0,
                },
                Coding::SubtreeInterval => Posting::Occurrence { tid, nodes },
            });
        }
    }
    out
}

/// Which rows of a block a hand-packed column patches.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Patches {
    None,
    FirstRow,
    LastRow,
    AllButFirst,
    AllButLast,
    /// Every row, at base width 0.
    Every,
}

const PATTERNS: [Patches; 6] = [
    Patches::None,
    Patches::FirstRow,
    Patches::LastRow,
    Patches::AllButFirst,
    Patches::AllButLast,
    Patches::Every,
];

/// A value that needs exactly `bits` bits, at most `cap`.
fn of_length(rng: &mut StdRng, bits: u32, cap: u64) -> u64 {
    match bits {
        0 => 0,
        _ => ((1u64 << (bits - 1)) | rng.gen::<u64>() & ((1 << (bits - 1)) - 1)).min(cap),
    }
}

/// `len` values of a column whose widest needs `width` bits, none past
/// `cap`, and the base that patches the rows `patches` names. Values
/// that are not patched stay below 4 where `small` says so.
fn focus_column(
    rng: &mut StdRng,
    len: usize,
    width: u32,
    patches: Patches,
    cap: u64,
    small: bool,
) -> (Vec<u64>, u32) {
    let base = match patches {
        Patches::None => width,
        Patches::Every => 0,
        _ => rng.gen_range(0..width.min(31)),
    };
    let patched = |row: usize| match patches {
        Patches::None => false,
        Patches::FirstRow => row == 0,
        Patches::LastRow => row == len - 1,
        Patches::AllButFirst => row > 0 || len == 1,
        Patches::AllButLast => row < len - 1 || len == 1,
        Patches::Every => true,
    };
    let widest = rng.gen_range(0..len);
    let widest = (0..len).find(|&row| patched(row)).unwrap_or(widest);
    let values = (0..len)
        .map(|row| {
            let bits = if row == widest {
                width
            } else if patched(row) {
                rng.gen_range(base + 1..width + 1)
            } else {
                rng.gen_range(0..base + 1)
            };
            let value = of_length(rng, bits, cap);
            if small && !patched(row) && row != widest {
                value.min(3)
            } else {
                value
            }
        })
        .collect();
    (values, base)
}

/// Column `c`'s widest width and what bounds it: `(bits, value cap)`.
/// `Δtid` stays clear of `u32::MAX` however many rows are wide, and
/// `pre` and `desc` leave `post` room.
fn column_bounds(c: usize, patches: Patches) -> (u32, u64) {
    let max = u64::from(u32::MAX);
    let many = matches!(
        patches,
        Patches::AllButFirst | Patches::AllButLast | Patches::Every
    );
    match kind(c) {
        0 if many => (25, max),
        0 => (32, max - (1 << 21)),
        1 => (32, max - 64),
        2 => (32, max - (1 << 20)),
        3 => (16, u64::from(u16::MAX)),
        _ => (8, u64::from(u8::MAX)),
    }
}

/// What column `c` of a row holds: 0 `Δtid`, then a node's 1 `pre`,
/// 2 `desc`, 3 `level` and 4 `order`.
fn kind(c: usize) -> usize {
    if c == 0 {
        0
    } else {
        1 + (c - 1) % 4
    }
}

/// What a root's stored `desc` rests on: the root of every subtree that
/// extraction yields at size `m` has at least `m − 1` descendants, so
/// `desc − (m − 1)` never goes below 0.
#[test]
fn an_extracted_root_has_at_least_its_keys_other_nodes_below_it() {
    let corpus = GeneratorConfig::default().with_seed(0xDE5C).generate(300);
    let mut seen = [0usize; 5];
    for tree in corpus.trees() {
        si_core::extract::for_each_subtree(tree, 4, |subtree| {
            let below = tree.subtree_size(subtree.root()) as usize - 1;
            assert!(
                below >= subtree.size() - 1,
                "{below} < {}",
                subtree.size() - 1
            );
            seen[subtree.size()] += 1;
        });
    }
    assert!(seen[1..].iter().all(|&n| n > 0), "{seen:?}");
}

/// Blocks packed by hand: for every column of every coding, a widest
/// value of every width it can hold, each patched in one of the ways a
/// valid block may — no row, the first, the last, all but the first,
/// all but the last, every row at base 0 — in one block of lists of
/// every length in `LENGTHS`; every other column plain and narrow. The
/// cursor reads exactly the postings the rows stand for, the header is
/// their recount, and seeks land where a linear scan does.
#[test]
fn hand_packed_blocks_decode_at_every_base_and_patch_count() {
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    // (column, width) pairs covered, and patch counts and rows seen.
    let mut widths = std::collections::BTreeSet::new();
    let mut counts = std::collections::BTreeSet::new();
    let (mut first_row, mut last_row, mut every_at_zero) = (false, false, false);
    let mut lists = 0usize;
    for (coding, m) in SHAPES {
        let per_node = 3 + usize::from(coding == Coding::SubtreeInterval);
        let columns = match coding {
            Coding::FilterBased => 1,
            Coding::RootSplit => 4,
            Coding::SubtreeInterval => 1 + 4 * m,
        };
        // `Δtid`, the root's columns and one other node's: the rest of
        // an interval row takes the same path as the latter.
        for c in 0..columns.min(1 + 2 * per_node) {
            let (top, _) = column_bounds(c, Patches::None);
            for width in 0..=top {
                let mut patches = match width {
                    0 => Patches::None,
                    _ => PATTERNS[rng.gen_range(0..PATTERNS.len())],
                };
                if width > column_bounds(c, patches).0 {
                    patches = Patches::LastRow;
                }
                let cap = column_bounds(c, patches).1;
                // Every length, the ones past a restart interval now
                // and then: the blocks of interest are one per list.
                let len = match lists % 16 {
                    0 => LENGTHS[4 + lists / 16 % 4],
                    k => LENGTHS[k % 4],
                };
                lists += 1;
                let first_tid = any_width(&mut rng, 10);
                let block_lens: Vec<usize> =
                    (0..len.div_ceil(B)).map(|b| B.min(len - b * B)).collect();
                // (A `Δtid` focus stays off the first row, whose `Δtid` is 0.)
                let focus = match c {
                    0 => block_lens.len() - 1,
                    _ => rng.gen_range(0..block_lens.len()),
                };
                let mut blocks: Vec<Vec<Vec<u64>>> = Vec::new();
                let mut bases = Vec::new();
                let mut written = 0u64;
                for (b, &rows) in block_lens.iter().enumerate() {
                    // Quiet columns: tid gaps of 0–3, small nodes.
                    let mut block: Vec<Vec<u64>> = (0..columns)
                        .map(|col| {
                            let top = [4, 256, 16, 20, 4][kind(col)];
                            (0..rows).map(|_| rng.gen_range(0..top)).collect()
                        })
                        .collect();
                    let mut base = None;
                    if b == focus {
                        let (values, b) = focus_column(&mut rng, rows, width, patches, cap, c == 0);
                        block[c] = values;
                        base = Some(b);
                        if c == 1 {
                            // Wide root `pre`s are whole: each row a tree of its own.
                            block[0]
                                .iter_mut()
                                .for_each(|delta| *delta = (*delta).max(1));
                        }
                    }
                    if b == 0 {
                        block[0][0] = 0; // the first row's `Δtid` counts from `first_tid`
                    }
                    // A node no tree holds — more ancestors than
                    // predecessors and descendants — gets its level cut,
                    // or, where the level is what is wide, a `desc` to match.
                    let mut prev_pre = 0;
                    (0..rows).for_each(|row| {
                        for n in 0..(columns - 1) / per_node {
                            let [pre, desc, level] = [0, 1, 2].map(|f| 1 + n * per_node + f);
                            let in_tree = n == 0 && row > 0 && block[0][row] == 0;
                            let whole = block[pre][row] + if in_tree { prev_pre } else { 0 };
                            if n == 0 {
                                prev_pre = whole;
                            }
                            let extra = if n == 0 { m as u64 - 1 } else { 0 };
                            if block[level][row] > whole + block[desc][row] + extra {
                                if level == c {
                                    block[desc][row] = block[level][row];
                                } else {
                                    block[level][row] = whole + block[desc][row] + extra;
                                }
                            }
                        }
                    });
                    bases.push(base);
                    blocks.push(block);
                }
                let want = postings_of(coding, m, first_tid, &blocks);
                let packed: Vec<Vec<u8>> = blocks
                    .iter()
                    .zip(&bases)
                    .map(|(block, base)| {
                        let columns: Vec<Column> = block
                            .iter()
                            .enumerate()
                            .map(|(col, values)| match base {
                                Some(base) if col == c => Column::packed(values.clone(), *base),
                                _ => Column::plain(values.clone()),
                            })
                            .collect();
                        if let Some(column) = base.and_then(|_| columns.get(c)) {
                            let patched = column.patch.as_ref().map_or(0, |p| p.rows.len());
                            let rows = column.values.len();
                            let widest = column.values.iter().map(|&v| bit_length(v)).max();
                            written += patched as u64;
                            counts.insert(patched);
                            widths.insert((kind(c), widest.unwrap_or(0)));
                            if let Some(patch) = &column.patch {
                                first_row |= patch.rows[0] == 0;
                                last_row |= *patch.rows.last().unwrap() == rows as u64 - 1;
                                every_at_zero |= column.base == 0 && patched == rows && rows == B;
                            }
                        }
                        pack(&columns)
                    })
                    .collect();
                // A lone filter-based posting is its header's first tid: no block.
                let blocks = if coding == Coding::FilterBased && len == 1 {
                    &[][..]
                } else {
                    &packed[..]
                };
                let value = stored_value(&want, blocks);
                let what = format!("{coding} m={m} column {c} width {width} {patches:?} len {len}");
                check_list(coding, m, &value, &want, &what);
                let anatomy = list_anatomy(coding, m, &value).unwrap();
                assert_eq!(anatomy.postings, len as u64, "{what}");
                assert_eq!(anatomy.patches.iter().sum::<u64>(), written, "{what}");
            }
        }
    }
    for c in 0..5usize {
        let top = [32, 32, 32, 16, 8][c];
        assert!(
            (0..=top).all(|w| widths.contains(&(c, w))),
            "column kind {c}: {widths:?}"
        );
    }
    for count in [0, 1, B - 1, B] {
        assert!(counts.contains(&count), "{count} patches: {counts:?}");
    }
    assert!(first_row && last_row && every_at_zero);
}

/// Hostile blocks and values: a patch list that claims more rows than
/// its block has, names the row at the block's end, the same row twice
/// or rows out of order, or is wider with its base than 32 bits; root
/// `pre`s that sum past `u32::MAX` within a tree, and a root `desc` that
/// does once its key's `m − 1` nodes are added back; every strict prefix
/// of a list, and bytes after its last block — or after the header of a
/// list without one. The cursor — over one slice and over
/// dripped chunks — and `list_anatomy` answer `Corrupt`; `list_stats`,
/// which reads the header alone, answers `Corrupt` for a cut header and
/// otherwise the header's statistics, and nothing panics.
#[test]
fn hostile_patch_lists_and_cut_lists_are_corrupt() {
    let coding = Coding::RootSplit;
    let m = 2;
    // One block of `B − 1` rows in tree 5 and on: `Δtid` 0 or 1, root
    // `pre`s of which rows 3 and 7 are patched, small `desc`s and levels.
    let rows = B - 1;
    let deltas: Vec<u64> = (0..rows as u64).map(|r| u64::from(r % 3 == 1)).collect();
    let pres: Vec<u64> = (0..rows as u64)
        .map(|r| match r {
            3 => 900,
            7 => 1500,
            _ => 2 + r % 5,
        })
        .collect();
    let descs: Vec<u64> = (0..rows as u64).map(|r| r % 4).collect();
    let levels: Vec<u64> = (0..rows as u64).map(|r| r % 2).collect();
    let good = vec![
        Column::plain(deltas.clone()),
        Column::packed(pres.clone(), 3),
        Column::plain(descs.clone()),
        Column::plain(levels.clone()),
    ];
    assert_eq!(good[1].patch.as_ref().unwrap().rows, [3, 7]);
    let blocks = vec![deltas, pres, descs, levels];
    let want = postings_of(coding, m, 5, std::slice::from_ref(&blocks));
    let value_of = |columns: &[Column]| stored_value(&want, &[pack(columns)]);
    let good_value = value_of(&good);
    check_list(coding, m, &good_value, &want, "the intact block");
    let header_len = good_value.len() - pack(&good).len();

    let with_patch = |edit: &dyn Fn(&mut Patch)| {
        let mut columns = good.clone();
        edit(columns[1].patch.as_mut().unwrap());
        value_of(&columns)
    };
    let wide_pres = |pres: [u64; 2]| {
        let mut columns = good.clone();
        columns[0].values[1..3].fill(0);
        columns[1] = Column::plain(pres.iter().chain(&good[1].values[2..]).copied().collect());
        value_of(&columns)
    };
    let mut widest_desc = good.clone();
    widest_desc[2] = Column::plain(
        [u64::from(u32::MAX) - 1]
            .into_iter()
            .chain(good[2].values[1..].iter().copied())
            .collect(),
    );
    widest_desc[1].values[0] = 1;
    let hostile: Vec<(&str, Vec<u8>)> = vec![
        (
            "a patch count above len",
            with_patch(&|p| p.count = rows as u64),
        ),
        (
            "a position at len",
            with_patch(&|p| p.rows[1] = rows as u64),
        ),
        ("a repeated position", with_patch(&|p| p.rows[1] = 3)),
        (
            "positions out of order",
            with_patch(&|p| p.rows = vec![7, 3]),
        ),
        (
            "base plus high width above 32 bits",
            with_patch(&|p| p.high = 30),
        ),
        ("a high width of 0", with_patch(&|p| p.high = 0)),
        (
            "root pres summing past u32::MAX in one tree",
            wide_pres([3 << 30, 1 << 31]),
        ),
        (
            "a desc past u32::MAX once m − 1 is added",
            value_of(&widest_desc),
        ),
        (
            "bytes after the last block",
            [good_value.clone(), vec![0]].concat(),
        ),
    ];
    // A high width of 30 is past 32 bits over the patched base of 3.
    assert_eq!(good[1].base, 3);
    let header_stats = recount(&want, good_value.len());
    let refused = |what: &str, value: &[u8]| {
        let stored = |src| PostingCursor::with_format(coding, m, src, true);
        is_corrupt(what, read(stored(SliceSource::new(value))));
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
            is_corrupt(&format!("{what} in {chunk}-byte chunks"), read(dripped));
        }
        is_corrupt(what, list_anatomy(coding, m, value));
    };
    for (what, value) in &hostile {
        refused(what, value);
        let stats = list_stats(&value[..value.len().min(96)], value.len() as u64).unwrap();
        assert_eq!(stats.postings, header_stats.postings, "{what}");
    }
    for cut in 1..good_value.len() {
        let what = format!("the list cut at {cut} of {} bytes", good_value.len());
        refused(&what, &good_value[..cut]);
        let stats = list_stats(&good_value[..cut], cut as u64);
        if cut < header_len {
            is_corrupt(&what, stats);
        } else {
            assert_eq!(
                stats.unwrap(),
                KeyStats {
                    bytes: cut as u64,
                    ..header_stats
                },
                "{what}"
            );
        }
    }
    // A lone filter-based posting has no block: a byte after its header
    // is one too many.
    let coding = Coding::FilterBased;
    let mut lone = PostingBuilder::new(coding);
    let node = NodeVal {
        pre: 0,
        post: 0,
        level: 0,
    };
    lone.push(9, &[(node, 1)]);
    let (value, header_len, _) =
        build_list_value(coding, 1, &lone.finish(), DEFAULT_RESTART_INTERVAL).unwrap();
    assert_eq!(value.len(), header_len);
    let extra = [value, vec![0]].concat();
    let cursor = PostingCursor::with_format(coding, 1, SliceSource::new(&extra), true);
    is_corrupt("a byte after a lone posting", read(cursor));
    is_corrupt(
        "a byte after a lone posting",
        list_anatomy(coding, 1, &extra),
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

    // Past the statistics, which are the header alone: block 0's four
    // column codes (three bytes) become 63, a patched base of 30 bits,
    // so its columns alone claim 4 × 30 × `BLOCK_POSTINGS` bits — more
    // than the list holds.
    let value = &mut pairs.iter_mut().find(|(k, _)| *k == key).unwrap().1;
    let anatomy = list_anatomy(Coding::RootSplit, 2, value).unwrap();
    assert!(anatomy.postings > BLOCK_POSTINGS as u64 && anatomy.table.is_none());
    let block = anatomy.header_bytes as usize;
    assert!(
        value.len() - block < 4 * 30 * BLOCK_POSTINGS / 8,
        "{} bytes",
        value.len()
    );
    value[block..block + 3].fill(0xff);
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

/// The benchmark's index (`DATASET_SEED` 0xC0FFEE, 200,000 generated
/// trees, `mss` 3, root-split): every stored list decodes, its header
/// is a recount of what it decodes to, and its blocks cost at most 2.36
/// bytes per posting. Prints where the bytes went.
#[test]
#[ignore = "builds the 200k-tree benchmark index; run with --release"]
fn the_benchmark_index_decodes_and_costs_under_2_36_bytes_per_posting() {
    let corpus = GeneratorConfig::default()
        .with_seed(0x00C0_FFEE)
        .generate(200_000);
    let dir = std::env::temp_dir().join(format!("si-blocks-200k-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let options = IndexOptions::new(3, Coding::RootSplit);
    let index = SubtreeIndex::build(&dir, corpus.trees(), corpus.interner(), options).unwrap();
    let coding = options.coding;
    let names = coding.column_names();
    let (mut postings, mut blocks, mut block_headers) = (0u64, 0u64, 0u64);
    let mut in_tree = 0u64;
    let mut bits = vec![(0u64, 0u64, 0u64); names.len()];
    for entry in index.iter_keys().unwrap() {
        let (key, value) = entry.unwrap();
        let m = key_size(&key).unwrap();
        let cursor = PostingCursor::with_format(coding, m, SliceSource::new(&value), true);
        let list = drain(cursor);
        in_tree += list.windows(2).filter(|w| w[0].tid() == w[1].tid()).count() as u64;
        let front = &value[..value.len().min(96)];
        assert_eq!(
            list_stats(front, value.len() as u64).unwrap(),
            recount(&list, value.len())
        );
        let anatomy = list_anatomy(coding, m, &value).unwrap();
        postings += anatomy.postings;
        blocks += value.len() as u64 - anatomy.header_bytes;
        block_headers += anatomy.block_header_bits;
        for (c, total) in bits.iter_mut().enumerate() {
            total.0 += anatomy.column_bits[c];
            total.1 += anatomy.patch_bits[c];
            total.2 += anatomy.patches[c];
        }
    }
    assert_eq!(postings, index.stats().postings);
    let per_posting = blocks as f64 / postings as f64;
    eprintln!(
        "{postings} postings, {blocks} block bytes: {per_posting:.3} B/posting, {:.2} B/tree; \
         block headers {:.3} bits/posting; {:.1}% of rows in the tree of the row before",
        blocks as f64 / corpus.len() as f64,
        block_headers as f64 / postings as f64,
        100.0 * in_tree as f64 / postings as f64
    );
    for (name, (columns, patches, patched)) in names.iter().zip(&bits) {
        let per = |n: u64| n as f64 / postings as f64;
        eprintln!(
            "  {name}: {:.2} bits = {:.2} column + {:.2} patches, {:.2}% patched",
            per(columns + patches),
            per(*columns),
            per(*patches),
            100.0 * per(*patched)
        );
    }
    assert!(per_posting <= 2.36, "{per_posting:.3} bytes per posting");
    std::fs::remove_dir_all(&dir).ok();
}
