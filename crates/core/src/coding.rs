//! The three posting-list coding schemes (§4.4).
//!
//! Every index key (a canonical subtree) owns one posting list; the
//! coding scheme decides what each posting records:
//!
//! | coding            | posting                                   | §     |
//! |-------------------|-------------------------------------------|-------|
//! | filter-based      | `tid`                                     | 4.4.1 |
//! | subtree interval  | `tid, m × (pre, post, level, order)`      | 4.4.2 |
//! | root-split        | `tid, (pre, post, level)` of the root     | 4.4.3 |
//!
//! Lists are sorted by `(tid, root.pre)` and delta-encoded on `tid`.
//! Filter-based postings deduplicate by `tid`; root-split postings by
//! `(tid, root.pre)` — the paper's second source of size reduction:
//! "multiple subtrees which have the same key and the same root ... will
//! be represented with only one posting".
//!
//! Interval postings store nodes in **canonical key order** (position 1
//! is the root); the `order` field is each node's pre-order rank within
//! the occurrence, the paper's disambiguator for symmetric instances.
//!
//! A list has two representations, each with one writer and one reader.
//!
//! # Interchange form: posting bytes
//!
//! What a build aggregates, stitches and spills ([`PostingBuilder`],
//! `rebase_head`, the run files of [`crate::build_ext`]) and what
//! [`PostingCursor::new`] reads; never stored in an index. Every field is
//! an unsigned LEB128 varint. A posting starts with its **head**, which
//! for the two structural codings packs the root's level into the low
//! nibble of the tid delta:
//!
//! ```text
//! filter-based      Δtid
//! root-split        head [level-15]  pre post
//! subtree interval  head [level-15]  pre post order  (pre post level order) × (m-1)
//!
//! head       = (Δtid << 4) | min(root.level, 15)
//! [level-15] = present only when the nibble is 15
//! ```
//!
//! The bit layout lives in three functions of this module and nowhere
//! else: `write_head`, `read_head` and `rebase_head`.
//!
//! # Stored form: header | blocks
//!
//! What an index stores under a key ([`build_list_value`]) and what
//! [`PostingCursor::with_format`]`(.., true)` reads; an empty list is an
//! empty value. The header is the list's statistics ([`KeyStats`]) and,
//! exactly when the list is longer than one restart interval, a
//! histogram and its seek table:
//!
//! ```text
//! header = n << 1 | has_table              n postings, n ≥ 1
//!          n ≥ 2:     n − distinct_tids   last_tid − first_tid
//!          first_tid
//!          has_table: interval  8 × histogram bucket
//!                     restarts  restarts × (Δ prior tid, Δ block offset)
//! ```
//!
//! The postings follow as bit-packed column blocks, one coder for all
//! three codings. A posting is a row of `k` unsigned columns; `desc =
//! post − pre + level` is the node's descendant count, small where
//! `post` is not:
//!
//! ```text
//! filter-based      Δtid                                  k = 1
//! root-split        Δtid  pre desc level                  k = 4
//! subtree interval  Δtid  (pre desc level order) × m      k = 1 + 4m
//! ```
//!
//! Two columns of the key's root (node 0) are stored relative to what is
//! known anyway. Its `desc` is stored less `m − 1`, the descendants an
//! `m`-node key gives it. Its `pre` is stored less the row before's when
//! both rows are in one tree (`Δtid = 0`) and the row is not its block's
//! first, so a block decodes on its own and a seek lands on a whole one.
//!
//! A block packs each column at a base width `b` and patches the few
//! values wider than that (PFOR, Zukowski et al., ICDE 2006). `b` is the
//! cheapest width for the column's values, counted exactly.
//!
//! ```text
//! block = k × 6-bit column code: b ≤ 32 plain, 33 + b patched (b ≤ 30)
//!         k columns: column c is len × b[c] bits, LSB first, back to back
//!         per patched column, in column order:
//!             count − 1 (log2 B bits)  high width h (6 bits)
//!             count × (row, ascending (log2 B bits)  high part (h bits))
//!         padded to a byte
//! ```
//!
//! A patch's high part is ORed into its row's value above bit `b`.
//!
//! A block ends after [`BLOCK_POSTINGS`] (`B`) postings, at a restart
//! point or with the list, so `n` and the restart interval fix every
//! `len` and a block stores no count. `Δtid` runs on across blocks and
//! counts from `first_tid`, so the first row's is 0 — and a filter-based
//! list of one posting, which its header states whole, has no block.

use si_parsetree::bits::{unpack, BitWriter, WIDTH_BITS};
use si_parsetree::{varint, TreeId};

use crate::stats::{KeyStats, TID_HIST_BUCKETS};

/// Selects the posting-list format of a [`crate::SubtreeIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coding {
    /// Tree ids only; query evaluation post-validates candidates.
    FilterBased,
    /// Full structural info for every subtree node; exact matching.
    SubtreeInterval,
    /// Structural info of the subtree root only; exact matching with
    /// root-split covers. The paper's headline scheme.
    RootSplit,
}

impl Coding {
    /// All codings in the paper's reporting order.
    pub const ALL: [Coding; 3] = [
        Coding::FilterBased,
        Coding::RootSplit,
        Coding::SubtreeInterval,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Coding::FilterBased => "filter-based",
            Coding::SubtreeInterval => "subtree interval",
            Coding::RootSplit => "root-split",
        }
    }

    /// Stable on-disk id of the coding (`si.meta`, `MANIFEST.si`).
    pub fn id(self) -> u8 {
        match self {
            Coding::FilterBased => 0,
            Coding::SubtreeInterval => 1,
            Coding::RootSplit => 2,
        }
    }

    /// Names of a stored row's columns (module docs, "Stored form"):
    /// `Δtid`, then one node's columns, which an interval posting
    /// repeats for each node of its key.
    pub fn column_names(self) -> &'static [&'static str] {
        match self {
            Coding::FilterBased => &["Δtid"],
            Coding::RootSplit => &["Δtid", "pre", "desc", "level"],
            Coding::SubtreeInterval => &["Δtid", "pre", "desc", "level", "order"],
        }
    }

    /// The coding a stable on-disk id denotes, if valid.
    pub fn from_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(Coding::FilterBased),
            1 => Some(Coding::SubtreeInterval),
            2 => Some(Coding::RootSplit),
            _ => None,
        }
    }
}

impl std::fmt::Display for Coding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Structural information of one data node, as stored in postings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeVal {
    /// Pre-order rank within the tree.
    pub pre: u32,
    /// Post-order rank within the tree.
    pub post: u32,
    /// Depth (root = 0).
    pub level: u16,
}

impl NodeVal {
    /// Interval containment: is `self` a proper ancestor of `other`
    /// (within the same tree)?
    #[inline]
    pub fn is_ancestor_of(&self, other: &NodeVal) -> bool {
        self.pre < other.pre && other.post < self.post
    }

    /// Containment plus a level check: is `self` the parent of `other`?
    #[inline]
    pub fn is_parent_of(&self, other: &NodeVal) -> bool {
        self.is_ancestor_of(other) && other.level == self.level + 1
    }
}

/// One decoded posting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Posting {
    /// Filter-based: candidate tree.
    Tid(TreeId),
    /// Root-split: root occurrence.
    Root {
        /// Containing tree.
        tid: TreeId,
        /// Structural info of the subtree root.
        root: NodeVal,
    },
    /// Subtree interval: full occurrence.
    Occurrence {
        /// Containing tree.
        tid: TreeId,
        /// `(values, order)` per node, in canonical key order;
        /// `order` is the node's pre-order rank within the occurrence
        /// (1-based).
        nodes: Vec<(NodeVal, u8)>,
    },
}

impl Posting {
    /// The containing tree, whichever coding the posting uses.
    #[inline]
    pub fn tid(&self) -> TreeId {
        match self {
            Posting::Tid(tid) => *tid,
            Posting::Root { tid, .. } => *tid,
            Posting::Occurrence { tid, .. } => *tid,
        }
    }
}

/// Builds one key's posting list during index construction. Occurrences
/// must be pushed in `(tid, root.pre)` order, which
/// [`crate::extract::for_each_subtree`] guarantees.
#[derive(Debug)]
pub struct PostingBuilder {
    coding: Coding,
    buf: Vec<u8>,
    count: u64,
    last_tid: Option<TreeId>,
    last_root_pre: u32,
}

impl PostingBuilder {
    /// Creates an empty builder for `coding`.
    pub fn new(coding: Coding) -> Self {
        Self {
            coding,
            buf: Vec::new(),
            count: 0,
            last_tid: None,
            last_root_pre: 0,
        }
    }

    /// Appends one occurrence. `nodes` lists `(values, order)` in
    /// canonical key order; `nodes[0]` is the root.
    ///
    /// # Panics
    /// Panics (debug) if pushes violate `(tid, root.pre)` order or
    /// `nodes` is empty.
    pub fn push(&mut self, tid: TreeId, nodes: &[(NodeVal, u8)]) {
        debug_assert!(!nodes.is_empty());
        let root_pre = nodes[0].0.pre;
        if let Some(last) = self.last_tid {
            debug_assert!(
                tid > last || (tid == last && root_pre >= self.last_root_pre),
                "postings must arrive in (tid, root.pre) order"
            );
            // Deduplication.
            match self.coding {
                Coding::FilterBased => {
                    if tid == last {
                        return;
                    }
                }
                Coding::RootSplit => {
                    if tid == last && root_pre == self.last_root_pre {
                        return;
                    }
                }
                Coding::SubtreeInterval => {}
            }
        }
        let delta = tid - self.last_tid.unwrap_or(0);
        let (root, root_order) = nodes[0];
        write_head(self.coding, &mut self.buf, delta, root.level);
        match self.coding {
            Coding::FilterBased => {}
            Coding::RootSplit => {
                varint::write_u32(&mut self.buf, root.pre);
                varint::write_u32(&mut self.buf, root.post);
            }
            Coding::SubtreeInterval => {
                varint::write_u32(&mut self.buf, root.pre);
                varint::write_u32(&mut self.buf, root.post);
                varint::write_u32(&mut self.buf, u32::from(root_order));
                for (val, order) in &nodes[1..] {
                    varint::write_u32(&mut self.buf, val.pre);
                    varint::write_u32(&mut self.buf, val.post);
                    varint::write_u32(&mut self.buf, u32::from(val.level));
                    varint::write_u32(&mut self.buf, u32::from(*order));
                }
            }
        }
        self.count += 1;
        self.last_tid = Some(tid);
        self.last_root_pre = root_pre;
    }

    /// Number of postings kept (after deduplication).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest tree id pushed so far (`None` while empty).
    pub fn last_tid(&self) -> Option<TreeId> {
        self.last_tid
    }

    /// Encoded size so far.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Finalizes into list bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Postings per restart block in freshly built indexes. Matches the
/// default [`crate::blockcache::BlockCacheConfig::block_postings`] so a
/// skip jump lands exactly on a decoded-block-cache boundary.
pub const DEFAULT_RESTART_INTERVAL: u32 = 1024;

fn corrupt(msg: &str) -> si_storage::StorageError {
    si_storage::StorageError::Corrupt(msg.into())
}

/// Why the front of a byte window is not a whole posting. One byte and
/// no drop glue, so the decoder's `Result<usize, _>` travels in
/// registers: it is returned once per posting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Undecoded {
    /// The bytes end mid-posting; a refill may complete it.
    Truncated,
    /// The head's tid delta is past `u32::MAX`.
    DeltaOverflow,
    /// The head's escaped root level is past `u16::MAX`.
    LevelOverflow,
    /// Previous tid plus delta is past `u32::MAX`.
    TidOverflow,
    /// A block states a width past 32 bits or a node no tree holds.
    BadBlock,
}

impl Undecoded {
    /// The error to report once no refill can change the verdict.
    #[cold]
    fn into_error(self) -> si_storage::StorageError {
        corrupt(match self {
            Undecoded::Truncated => "posting list ends mid-posting",
            Undecoded::DeltaOverflow => "posting tid delta overflows",
            Undecoded::LevelOverflow => "posting root level overflows",
            Undecoded::TidOverflow => "posting tid overflows",
            Undecoded::BadBlock => "posting block: a width or a node's values out of range",
        })
    }
}

/// Low bits of a structural posting's head that carry the root's level.
const HEAD_LEVEL_BITS: u32 = 4;
/// Nibble value meaning "level ≥ 15; the excess follows as a varint".
const HEAD_LEVEL_ESCAPE: u16 = (1 << HEAD_LEVEL_BITS) - 1;

/// *Write head*: appends a posting's head — the tid delta and, for the
/// structural codings, the root's level — to `out` (see the module docs
/// for the layout). Filter-based postings ignore `root_level`.
fn write_head(coding: Coding, out: &mut Vec<u8>, delta: TreeId, root_level: u16) {
    if coding == Coding::FilterBased {
        return varint::write_u32(out, delta);
    }
    let nibble = root_level.min(HEAD_LEVEL_ESCAPE);
    varint::write_u64(out, u64::from(delta) << HEAD_LEVEL_BITS | u64::from(nibble));
    if nibble == HEAD_LEVEL_ESCAPE {
        varint::write_u32(out, u32::from(root_level - HEAD_LEVEL_ESCAPE));
    }
}

/// *Read head*: the inverse of [`write_head`] — `(tid delta, root
/// level, bytes consumed)` from the front of `bytes`, with level `0` for
/// filter-based postings. A delta past `u32::MAX` or a level past
/// `u16::MAX` is corruption, never wrapped.
///
/// Whether a packed head takes one byte or two depends on how far apart
/// the trees holding the key are — on a list of middling density a coin
/// toss per posting, and a mispredicted branch per posting if the
/// varint's length is branched on (measured: 5.4 ns per posting at a
/// mean tid gap of 1, 11.9 ns at a gap of 16). So both lengths share one
/// straight-line path; only longer heads take the general reader.
#[inline]
fn read_head(coding: Coding, bytes: &[u8]) -> Result<(TreeId, u16, usize), Undecoded> {
    let (head, mut used) = match *bytes {
        // `|`, not `||`: one test for "two bytes at most".
        [b0, b1, ..] if (b0 < 0x80) | (b1 < 0x80) => {
            // `b1` counts only when `b0` says the varint goes on.
            let goes_on = u64::from(b0 >> 7);
            let high = (u64::from(b1 & 0x7f) << 7) * goes_on;
            (u64::from(b0 & 0x7f) | high, 1 + goes_on as usize)
        }
        _ => varint::read_u64(bytes).ok_or(Undecoded::Truncated)?,
    };
    let (delta, nibble) = match coding {
        Coding::FilterBased => (head, 0),
        _ => (head >> HEAD_LEVEL_BITS, head as u16 & HEAD_LEVEL_ESCAPE),
    };
    let delta = TreeId::try_from(delta).map_err(|_| Undecoded::DeltaOverflow)?;
    if nibble < HEAD_LEVEL_ESCAPE {
        return Ok((delta, nibble, used));
    }
    let (excess, more) = varint::read_u64(&bytes[used..]).ok_or(Undecoded::Truncated)?;
    used += more;
    let level = u16::try_from(excess)
        .ok()
        .and_then(|e| e.checked_add(HEAD_LEVEL_ESCAPE))
        .ok_or(Undecoded::LevelOverflow)?;
    Ok((delta, level, used))
}

/// *Rebase head*: appends `fragment` — a list encoded on its own, so
/// its first head carries an absolute tid — to `out`, whose last posting
/// has tid `prev_last`, rewriting that one head into a delta. Builds
/// stitch the fragments of disjoint tid ranges with this, which is what
/// keeps every worker count and the external path byte-identical to one
/// worker; a fragment that does not start past `prev_last` is refused.
pub(crate) fn rebase_head(
    coding: Coding,
    out: &mut Vec<u8>,
    fragment: &[u8],
    prev_last: TreeId,
) -> si_storage::Result<()> {
    let (first_tid, root_level, used) =
        read_head(coding, fragment).map_err(Undecoded::into_error)?;
    let delta = first_tid
        .checked_sub(prev_last)
        .filter(|&delta| delta > 0)
        .ok_or_else(|| corrupt("posting fragments out of tid order"))?;
    write_head(coding, out, delta, root_level);
    out.extend_from_slice(&fragment[used..]);
    Ok(())
}

/// Postings per block of a stored list (module docs). Measured on the
/// benchmark's 200k-tree index: 64 stores 2.300 bytes per root-split
/// posting where 32 stores 2.336, as its block headers halve.
pub const BLOCK_POSTINGS: usize = 64;

// At the default interval no restart point cuts a block short, and a
// patch names its row in `log2 B` bits.
const _: () = assert!(
    (DEFAULT_RESTART_INTERVAL as usize).is_multiple_of(BLOCK_POSTINGS)
        && BLOCK_POSTINGS.is_power_of_two()
);

/// Bits of a patch's row position, and of its column's patch count less one.
const POSITION_BITS: u32 = BLOCK_POSTINGS.trailing_zeros();
/// Column codes from this one on state a patched column of base width
/// `code − PATCHED`, at most `MAX_PATCHED_BASE`; those below, plain ones.
const PATCHED: u32 = u32::BITS + 1;
const MAX_PATCHED_BASE: u32 = (1 << WIDTH_BITS) - 1 - PATCHED;
/// A patched column's header: its patch count and high width.
const PATCH_HEADER_BITS: u32 = POSITION_BITS + WIDTH_BITS;

/// `(base width, patched?)` of a column code.
fn split_code(code: u32) -> (u32, bool) {
    code.checked_sub(PATCHED)
        .map_or((code, false), |base| (base, true))
}

/// `(base, widest, patches)`: the base width that packs `column` in the
/// fewest bits. A base costs its rows plus, below the widest, a patch
/// header and a patch per wider value — one at least, which a short
/// column cannot win back. Else only 0 and the lengths some value has
/// are tried (one bit more costs a bit a row and patches no fewer
/// values); ties go to the wider base.
fn base_width(column: &[u32]) -> (u32, u32, u32) {
    let widest = u32::BITS - column.iter().fold(0, |a, v| a | v).leading_zeros();
    let rows = column.len() as u32;
    if (rows - 1) * widest <= PATCH_HEADER_BITS + POSITION_BITS {
        return (widest, widest, 0);
    }
    let (mut lengths, mut present) = ([0u32; u32::BITS as usize + 1], 1u64);
    for &value in column {
        let length = u32::BITS - value.leading_zeros();
        lengths[length as usize] += 1;
        present |= 1 << length;
    }
    let (mut best, mut cost) = ((widest, widest, 0), rows * widest);
    let (mut bases, mut above, mut wider) = (present & !(1 << widest), widest, 0);
    while bases != 0 {
        let base = u64::BITS - 1 - bases.leading_zeros();
        wider += lengths[above as usize];
        let patched = rows * base + PATCH_HEADER_BITS + wider * (POSITION_BITS + widest - base);
        if base <= MAX_PATCHED_BASE && patched < cost {
            (best, cost) = ((base, widest, wider), patched);
        }
        (above, bases) = (base, bases & !(1 << base));
    }
    best
}

/// The `width ≤ 32`-bit value at bit `at` of `bytes`, read by [`unpack`].
fn read_bits(bytes: &[u8], at: usize, width: u32) -> u32 {
    let mut value = [0];
    unpack(bytes, at, width, &mut value);
    value[0]
}

/// Whether a list has no block: a lone filter-based posting's header says it all.
fn blockless(coding: Coding, postings: u64) -> bool {
    coding == Coding::FilterBased && postings == 1
}

/// Columns of a coding's stored rows. `order` is a `u8` rank, so no
/// occurrence has over 255 nodes; the bound keeps a hostile key from
/// sizing a scratch.
fn columns(coding: Coding, key_nodes: usize) -> usize {
    match coding {
        Coding::FilterBased => 1,
        Coding::RootSplit => 4,
        Coding::SubtreeInterval => 1 + 4 * key_nodes.min(usize::from(u8::MAX)),
    }
}

/// The writer of the stored form's blocks: rows go in, and every
/// [`BLOCK_POSTINGS`] of them — or fewer at a [`BlockPacker::flush`] —
/// come out packed (see the module docs for the layout).
struct BlockPacker {
    /// The open block's `len` rows, a column at a time: column `c` is
    /// `rows[c * stride..][..len]` (`stride < B` only for a short list).
    rows: Vec<u32>,
    stride: usize,
    len: usize,
    /// `m − 1`, which a root's stored `desc` leaves out.
    root_desc: u32,
    /// The root `pre` of the row pushed last.
    prev_pre: u32,
    /// `(base width, widest, patches)` per column of the open block.
    widths: Vec<(u32, u32, u32)>,
    out: Vec<u8>,
}

impl BlockPacker {
    /// Adds `posting`, which follows one in tree `prev_tid`, as a row.
    fn push(&mut self, posting: &Posting, prev_tid: TreeId) -> Result<(), Undecoded> {
        if self.len == BLOCK_POSTINGS {
            self.flush();
        }
        let tid = posting.tid();
        // What the root's `pre` and `desc` are stored less of (others': 0).
        let in_tree = self.len > 0 && tid == prev_tid;
        let mut root_less = (if in_tree { self.prev_pre } else { 0 }, self.root_desc);
        let mut root_pre = None;
        let (rows, mut at, stride) = (&mut self.rows, self.len, self.stride);
        let mut set = |value: u32| {
            rows[at] = value;
            at += stride;
        };
        set(tid - prev_tid);
        let mut node = |v: &NodeVal, order: Option<u8>| {
            root_pre.get_or_insert(v.pre);
            let (pre_less, desc_less) = std::mem::take(&mut root_less);
            let from = u64::from(v.pre) + u64::from(desc_less);
            let desc = (u64::from(v.post) + u64::from(v.level)).checked_sub(from);
            let desc = desc.and_then(|d| u32::try_from(d).ok());
            set(v.pre.checked_sub(pre_less).ok_or(Undecoded::BadBlock)?);
            set(desc.ok_or(Undecoded::BadBlock)?);
            set(v.level.into());
            order.into_iter().for_each(|order| set(order.into()));
            Ok(())
        };
        match posting {
            Posting::Tid(_) => {}
            Posting::Root { root, .. } => node(root, None)?,
            Posting::Occurrence { nodes, .. } => nodes
                .iter()
                .try_for_each(|(v, order)| node(v, Some(*order)))?,
        }
        self.prev_pre = root_pre.unwrap_or(0);
        self.len += 1;
        Ok(())
    }

    /// Packs the open block's rows and opens the next.
    fn flush(&mut self) {
        let columns = || self.rows.chunks(self.stride).map(|c| &c[..self.len]);
        self.widths.clear();
        self.widths.extend(columns().map(base_width));
        let mut bits = BitWriter::new(&mut self.out);
        for &(base, _, patches) in &self.widths {
            bits.put(if patches > 0 { PATCHED + base } else { base }, WIDTH_BITS);
        }
        for (column, &(base, ..)) in columns().zip(&self.widths) {
            let low = ((1u64 << base) - 1) as u32;
            column.iter().for_each(|&value| bits.put(value & low, base));
        }
        for (column, &(base, widest, patches)) in columns().zip(&self.widths) {
            if patches == 0 {
                continue;
            }
            bits.put(patches - 1, POSITION_BITS);
            bits.put(widest - base, WIDTH_BITS);
            let mut rows = column.iter().enumerate().fold(0u64, |rows, (row, &v)| {
                rows | u64::from(v >> base != 0) << row
            });
            while rows != 0 {
                let row = rows.trailing_zeros();
                bits.put(row, POSITION_BITS);
                bits.put(column[row as usize] >> base, widest - base);
                rows &= rows - 1;
            }
        }
        bits.pad();
        self.len = 0;
    }
}

/// A posting list's restart points, decoded from its header.
///
/// Entry `k` (0-based) describes restart block `k + 1`, which starts at
/// posting index `(k + 1) * interval`: it records the tid of the
/// posting *immediately before* the restart (the absolute delta-decode
/// state a seek resumes from) and the byte offset of the restart
/// posting within the payload. Restart block 0 is implicit (offset 0,
/// fresh decode state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipTable {
    interval: u32,
    entries: Vec<(TreeId, u64)>,
}

impl SkipTable {
    /// Postings per restart block.
    pub fn interval(&self) -> u32 {
        self.interval
    }

    /// Number of explicit restart points (excludes the implicit block 0).
    pub fn restarts(&self) -> usize {
        self.entries.len()
    }

    /// The restart block to seek to for target tid `t`: the largest `p`
    /// whose recorded prior tid is `< t` (every posting before block `p`
    /// then has tid `< t`, so skipping them is safe even with duplicate
    /// tids). `0` means "stay where you are".
    pub fn restart_before(&self, t: TreeId) -> u32 {
        self.entries.partition_point(|&(prev, _)| prev < t) as u32
    }

    /// `(prior tid, payload byte offset)` of restart block `p >= 1`.
    fn entry(&self, p: u32) -> Option<(TreeId, u64)> {
        self.entries.get((p as usize).checked_sub(1)?).copied()
    }
}

/// Why a header did not parse.
enum HeaderError {
    /// The bytes end inside it; a refill may complete it.
    Truncated,
    /// A field is out of range or contradicts another.
    Corrupt(&'static str),
}

impl HeaderError {
    /// The error to report once no refill can change the verdict.
    fn into_error(self) -> si_storage::StorageError {
        corrupt(match self {
            HeaderError::Truncated => "posting list ends mid header",
            HeaderError::Corrupt(what) => what,
        })
    }
}

fn header_field(r: &mut varint::Reader<'_>) -> Result<u64, HeaderError> {
    r.u64().ok_or(HeaderError::Truncated)
}

/// A `u32` field, read as the `u64` varint it is stored as so that only
/// a short buffer is `Truncated`.
fn header_u32(r: &mut varint::Reader<'_>) -> Result<u32, HeaderError> {
    u32::try_from(header_field(r)?)
        .map_err(|_| HeaderError::Corrupt("list header: field out of range"))
}

fn header_holds(ok: bool, what: &'static str) -> Result<(), HeaderError> {
    ok.then_some(()).ok_or(HeaderError::Corrupt(what))
}

/// The fixed front of a list header: everything before the restart
/// entries (see the module docs for the layout).
struct HeaderFront {
    postings: u64,
    distinct_tids: u64,
    first_tid: TreeId,
    tid_span: TreeId,
    /// `(restart interval, tid histogram)`, stated with a restart table.
    seekable: Option<(u32, [u32; TID_HIST_BUCKETS])>,
}

impl HeaderFront {
    /// Parses the front of a non-empty stored value, checking every
    /// field against the others.
    fn parse(r: &mut varint::Reader<'_>) -> Result<HeaderFront, HeaderError> {
        let word = header_field(r)?;
        let (postings, has_table) = (word >> 1, word & 1 == 1);
        header_holds(postings > 0, "list header: no postings before a payload")?;
        let (mut distinct_tids, mut tid_span) = (1, 0);
        if postings >= 2 {
            let repeats = header_field(r)?;
            header_holds(
                repeats < postings,
                "list header: more repeated tids than postings",
            )?;
            distinct_tids = postings - repeats;
            tid_span = header_u32(r)?;
            // `d` distinct tids need a range of at least `d`.
            header_holds(
                distinct_tids - 1 <= u64::from(tid_span) && (distinct_tids == 1) == (tid_span == 0),
                "list header: tid span disagrees with distinct tids",
            )?;
        }
        let first_tid = header_u32(r)?;
        header_holds(
            first_tid.checked_add(tid_span).is_some(),
            "list header: tid range overflows",
        )?;
        let mut seekable = None;
        if has_table {
            let interval = header_u32(r)?;
            // A table exists exactly when some posting follows a whole block.
            header_holds(
                interval > 0 && postings > u64::from(interval),
                "list header: restart interval disagrees with postings",
            )?;
            let mut tid_hist = [0u32; TID_HIST_BUCKETS];
            for bucket in &mut tid_hist {
                *bucket = header_u32(r)?;
            }
            // (Buckets saturate: a list past `u32::MAX` postings may sum short.)
            let counted: u64 = tid_hist.iter().map(|&c| u64::from(c)).sum();
            header_holds(
                counted == postings || postings > u64::from(u32::MAX),
                "list header: histogram disagrees with postings",
            )?;
            seekable = Some((interval, tid_hist));
        }
        Ok(HeaderFront {
            postings,
            distinct_tids,
            first_tid,
            tid_span,
            seekable,
        })
    }

    /// Parses the restart entries that follow a seekable front.
    fn parse_table(
        &self,
        interval: u32,
        r: &mut varint::Reader<'_>,
    ) -> Result<SkipTable, HeaderError> {
        let restarts = header_field(r)?;
        header_holds(
            restarts == (self.postings - 1) / u64::from(interval),
            "list header: restart count disagrees with postings",
        )?;
        let tids = self.first_tid..=self.first_tid + self.tid_span;
        let mut entries = Vec::with_capacity(restarts.min(1 << 20) as usize);
        // Both deltas count from 0, like a first posting's.
        let (mut tid, mut off) = (0 as TreeId, 0u64);
        for _ in 0..restarts {
            let (dt, doff) = (header_field(r)?, header_field(r)?);
            tid = u64::from(tid)
                .checked_add(dt)
                .and_then(|t| TreeId::try_from(t).ok())
                .filter(|t| tids.contains(t))
                .ok_or(HeaderError::Corrupt(
                    "list header: restart tid outside the list's range",
                ))?;
            header_holds(doff > 0, "list header: restart offsets must ascend")?;
            off = off.checked_add(doff).ok_or(HeaderError::Corrupt(
                "list header: restart offset overflows",
            ))?;
            entries.push((tid, off));
        }
        Ok(SkipTable { interval, entries })
    }
}

/// A whole header: `(front, restart table, header length)`.
fn parse_header(bytes: &[u8]) -> Result<(HeaderFront, Option<SkipTable>, usize), HeaderError> {
    let mut r = varint::Reader::new(bytes);
    let front = HeaderFront::parse(&mut r)?;
    let table = match front.seekable {
        Some((interval, _)) => Some(front.parse_table(interval, &mut r)?),
        None => None,
    };
    Ok((front, table, r.position()))
}

/// A stored list's statistics from its header alone: the value's first
/// bytes, all of them or the 96 that hold the header up to its restart
/// table. An empty value is an empty list.
pub fn list_stats(front: &[u8], value_len: u64) -> si_storage::Result<KeyStats> {
    if value_len == 0 {
        return Ok(KeyStats::default());
    }
    let header =
        HeaderFront::parse(&mut varint::Reader::new(front)).map_err(HeaderError::into_error)?;
    Ok(KeyStats {
        postings: header.postings,
        distinct_tids: header.distinct_tids,
        first_tid: header.first_tid,
        last_tid: header.first_tid + header.tid_span,
        bytes: value_len,
        tid_hist: header
            .seekable
            .map_or([0; TID_HIST_BUCKETS], |(_, hist)| hist),
    })
}

/// Transcodes a finished payload (the exact [`PostingBuilder`] bytes)
/// into the stored form (module docs) and returns `(value, header
/// length, statistics)`. One decode of the payload fills the blocks and
/// counts everything the header states, so the build paths carry no
/// statistics of their own. An empty payload stays an empty value.
pub fn build_list_value(
    coding: Coding,
    key_nodes: usize,
    payload: &[u8],
    interval: u32,
) -> si_storage::Result<(Vec<u8>, usize, KeyStats)> {
    if payload.is_empty() {
        return Ok((Vec::new(), 0, KeyStats::default()));
    }
    let columns = columns(coding, key_nodes);
    if coding == Coding::SubtreeInterval && columns != 1 + 4 * key_nodes {
        return Err(corrupt("posting list: an interval key of over 255 nodes"));
    }
    let interval = u64::from(interval.max(1));
    // A posting is a byte at least, so a short payload is a short list.
    let stride = payload.len().min(BLOCK_POSTINGS);
    let mut packer = BlockPacker {
        rows: vec![0; columns * stride],
        stride,
        len: 0,
        root_desc: key_nodes.saturating_sub(1) as u32,
        prev_pre: 0,
        widths: Vec::with_capacity(columns),
        out: Vec::with_capacity(payload.len()),
    };
    // A posting is a byte at least, so only a payload this long reaches a
    // restart point — and then the histogram's buckets, which wait for
    // the last tid, need every tid.
    let keep_tids = payload.len() as u64 > interval;
    let mut tids: Vec<TreeId> = Vec::new();
    let mut entries: Vec<(TreeId, u64)> = Vec::new();
    let (mut stats, mut prev) = (KeyStats::default(), 0 as TreeId);
    let (mut posting, mut at) = (Posting::Tid(0), 0);
    while at < payload.len() {
        at += decode_one_into(coding, key_nodes, prev, &payload[at..], &mut posting)
            .map_err(Undecoded::into_error)?;
        let tid = posting.tid();
        if stats.postings == 0 {
            // `Δtid` counts from the first tid, which the header states.
            (stats.first_tid, prev) = (tid, tid);
        } else if stats.postings.is_multiple_of(interval) {
            // A restart point opens a block.
            packer.flush();
            entries.push((prev, packer.out.len() as u64));
        }
        packer.push(&posting, prev).map_err(Undecoded::into_error)?;
        stats.distinct_tids += u64::from(stats.postings == 0 || tid != prev);
        stats.postings += 1;
        if keep_tids {
            tids.push(tid);
        }
        prev = tid;
    }
    packer.flush();
    if blockless(coding, stats.postings) {
        packer.out.clear();
    }
    stats.last_tid = prev;
    let tid_span = stats.last_tid - stats.first_tid;

    let mut out = Vec::with_capacity(packer.out.len() + 16);
    varint::write_u64(
        &mut out,
        stats.postings << 1 | u64::from(!entries.is_empty()),
    );
    if stats.postings >= 2 {
        varint::write_u64(&mut out, stats.postings - stats.distinct_tids);
        varint::write_u32(&mut out, tid_span);
    }
    varint::write_u32(&mut out, stats.first_tid);
    if !entries.is_empty() {
        // Tid offset `o` falls in bucket `o * buckets / (span + 1)`, and
        // tids ascend: count up to each bucket's end in turn.
        let (buckets, mut below) = (TID_HIST_BUCKETS as u64, 0);
        for (b, count) in stats.tid_hist.iter_mut().enumerate() {
            let end = ((b as u64 + 1) * (u64::from(tid_span) + 1)).div_ceil(buckets);
            let upto = tids.partition_point(|&t| u64::from(t - stats.first_tid) < end);
            *count = u32::try_from(upto - below).unwrap_or(u32::MAX);
            below = upto;
        }
        varint::write_u64(&mut out, interval);
        for count in stats.tid_hist {
            varint::write_u32(&mut out, count);
        }
        varint::write_u64(&mut out, entries.len() as u64);
        let (mut ptid, mut poff) = (0u32, 0u64);
        for &(t, off) in &entries {
            varint::write_u32(&mut out, t - ptid);
            varint::write_u64(&mut out, off - poff);
            ptid = t;
            poff = off;
        }
    }
    let header_len = out.len();
    out.extend_from_slice(&packer.out);
    stats.bytes = out.len() as u64;
    Ok((out, header_len, stats))
}

/// Where a stored value's bytes go: `header_bytes`, then `block_header_bits
/// + Σ column_bits + Σ patch_bits` and under a byte of padding per block;
/// vectors by [`Coding::column_names`], an interval key's nodes folded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ListAnatomy {
    /// Postings read — the count the header states.
    pub postings: u64,
    /// Length of the header.
    pub header_bytes: u64,
    /// Bits of the blocks' column codes and patch headers.
    pub block_header_bits: u64,
    /// Bits each column's rows took at their base width over all blocks.
    pub column_bits: Vec<u64>,
    /// Bits each column's patches took: row positions and high parts.
    pub patch_bits: Vec<u64>,
    /// Values each column patched.
    pub patches: Vec<u64>,
    /// The restart table, if the list is long enough to have one.
    pub table: Option<SkipTable>,
}

/// Reads a whole in-memory stored value to its end, block by block as
/// [`PostingCursor`] does — so what the cursor calls corrupt is an error
/// here too — and says where its bytes went. For the CLI's byte ledger
/// and tests.
pub fn list_anatomy(
    coding: Coding,
    key_nodes: usize,
    value: &[u8],
) -> si_storage::Result<ListAnatomy> {
    let names = coding.column_names().len();
    let mut anatomy = ListAnatomy {
        column_bits: vec![0; names],
        patch_bits: vec![0; names],
        patches: vec![0; names],
        ..ListAnatomy::default()
    };
    let mut cursor = PostingCursor::with_format(coding, key_nodes, SliceSource::new(value), true);
    while cursor.next_block()? {
        let len = cursor.block_len;
        // Every row of the block counts as read.
        (cursor.block_at, cursor.decoded) = (len, cursor.decoded + len);
        if blockless(coding, cursor.expected) {
            continue;
        }
        let columns = cursor.codes.iter().zip(&cursor.patches).enumerate();
        for (c, (&code, &(count, high))) in columns {
            // Column 0 is `Δtid`; the rest repeat per node.
            let name = if c == 0 { 0 } else { 1 + (c - 1) % (names - 1) };
            let (base, patched) = split_code(code);
            anatomy.block_header_bits += u64::from(WIDTH_BITS);
            anatomy.column_bits[name] += u64::from(base) * len as u64;
            if patched {
                anatomy.block_header_bits += u64::from(PATCH_HEADER_BITS);
                anatomy.patch_bits[name] += u64::from(count * (POSITION_BITS + high));
                anatomy.patches[name] += u64::from(count);
            }
        }
    }
    anatomy.postings = cursor.position();
    anatomy.header_bytes = cursor.header_len as u64;
    anatomy.table = cursor.skip.take();
    Ok(anatomy)
}

/// An incremental source of decoded postings: a [`PostingCursor`]
/// decoding raw bytes off the pager, or a
/// [`crate::blockcache::CachedListReader`] serving pre-decoded blocks
/// from the shared block cache. The streaming executor's scans are
/// written against this trait so the cache slots in without touching
/// the operator tree.
///
/// # Borrowing contract (zero-copy)
///
/// `next_posting` yields a **borrow** of the feed's internal buffer —
/// the cursor's reusable decode slot, or a cached block the feed pins
/// alive via `Arc` for as long as it is the current block. The borrow
/// is valid until the next `next_posting` call (the lending-iterator
/// shape); consumers copy node values into owned tuples only at the
/// single point a tuple outlives its source posting. Interval-coded
/// postings therefore never re-allocate their `nodes` vector per
/// consumer: a cache hit is served straight out of the shared block.
pub trait PostingFeed {
    /// Produces the next posting as a borrow from the feed's internal
    /// buffer, or `None` at a clean end of list. The borrow is
    /// invalidated by the next call.
    fn next_posting(&mut self) -> si_storage::Result<Option<&Posting>>;

    /// High-water mark of resident bytes attributable to this feed (the
    /// executor's memory-meter contribution). Bytes owned by a shared
    /// cache (pinned blocks) are charged to the cache's budget, not to
    /// the feed.
    fn peak_buffer_bytes(&self) -> usize;

    /// Forward-only seek: positions the feed so no posting with
    /// `tid >= t` is skipped, jumping whole restart blocks when the
    /// list carries a restart table. Returns how many postings were
    /// **never decoded** because of the jump (`0` when the feed cannot
    /// seek, the list has no skip table, or it is already close enough
    /// that no restart lies strictly between). Safe to call at any
    /// point between `next_posting` calls; never moves backwards.
    fn seek_to_tid(&mut self, _t: TreeId) -> si_storage::Result<u64> {
        Ok(0)
    }
}

impl<S: ChunkSource> PostingFeed for PostingCursor<S> {
    fn next_posting(&mut self) -> si_storage::Result<Option<&Posting>> {
        PostingCursor::next_posting(self)
    }

    fn peak_buffer_bytes(&self) -> usize {
        PostingCursor::peak_buffer_bytes(self)
    }

    fn seek_to_tid(&mut self, t: TreeId) -> si_storage::Result<u64> {
        PostingCursor::seek_to_tid(self, t)
    }
}

/// An incremental source of posting-list bytes: an in-memory slice
/// ([`SliceSource`]) or a disk cursor walking a B+Tree heap extent
/// page-by-page (`ValueReader`, see `crate::build`). The streaming
/// executor never sees more than one chunk plus a partial posting in
/// memory at a time.
pub trait ChunkSource {
    /// Appends the next chunk of bytes to `out`, returning how many bytes
    /// were appended. `Ok(0)` signals exhaustion.
    fn read_chunk(&mut self, out: &mut Vec<u8>) -> si_storage::Result<usize>;

    /// Drops up to `n` upcoming bytes **at chunk granularity** without
    /// copying them, returning how many were dropped. `Ok(0)` is always
    /// a valid answer (the caller then falls back to reading and
    /// discarding); sources backed by disk pages override this to hop
    /// whole pages during a [`PostingCursor::seek_to_tid`].
    fn skip_bytes(&mut self, _n: u64) -> si_storage::Result<u64> {
        Ok(0)
    }
}

/// A B+Tree value cursor is a chunk source: each chunk is one disk
/// page's share of the value, so a [`PostingCursor`] over it decodes
/// straight off the pager without ever materializing the list. Seeks
/// hop whole pages without touching them.
impl ChunkSource for si_storage::btree::ValueReader<'_> {
    fn read_chunk(&mut self, out: &mut Vec<u8>) -> si_storage::Result<usize> {
        si_storage::btree::ValueReader::read_chunk(self, out)
    }

    fn skip_bytes(&mut self, n: u64) -> si_storage::Result<u64> {
        si_storage::btree::ValueReader::skip_chunk_bytes(self, n)
    }
}

/// [`ChunkSource`] over an in-memory byte slice; delivers everything as
/// one chunk.
pub struct SliceSource<'a> {
    bytes: &'a [u8],
}

impl<'a> SliceSource<'a> {
    /// Wraps `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }
}

impl ChunkSource for SliceSource<'_> {
    fn read_chunk(&mut self, out: &mut Vec<u8>) -> si_storage::Result<usize> {
        let bytes = std::mem::take(&mut self.bytes);
        out.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn skip_bytes(&mut self, n: u64) -> si_storage::Result<u64> {
        let take = usize::try_from(n)
            .unwrap_or(usize::MAX)
            .min(self.bytes.len());
        self.bytes = &self.bytes[take..];
        Ok(take as u64)
    }
}

/// Streaming decoder of a posting list in either representation (module
/// docs): pulls bytes from any [`ChunkSource`] and lends one [`Posting`]
/// at a time out of a reusable decode slot, carrying the `tid`
/// delta-decode state across chunk (and hence disk-page) boundaries. The
/// resident buffer holds at most one source chunk plus one partial
/// posting or block, so decoding a multi-page posting list costs
/// O(chunk) memory instead of O(list) — and because the slot (including
/// an interval posting's `nodes` vector) and a stored value's block
/// scratch are reused, steady-state decoding performs **zero allocations
/// per posting**.
pub struct PostingCursor<S> {
    coding: Coding,
    key_nodes: usize,
    src: S,
    /// Undecoded byte window; `pos..` is live.
    buf: Vec<u8>,
    pos: usize,
    /// Tid of the last posting decoded, unpacked or seeked past (0
    /// before the first: its delta counts from 0).
    tid: TreeId,
    src_done: bool,
    decoded: usize,
    peak_buf: usize,
    /// Whether the bytes are a stored value rather than a bare payload.
    stored: bool,
    /// Whether a stored value's header has been consumed, and its length.
    header_done: bool,
    header_len: usize,
    skip: Option<SkipTable>,
    /// Postings a stored value's header says the list holds, and the
    /// tid it says the last one has.
    expected: u64,
    last_tid: TreeId,
    /// Payload byte offset of `buf[pos]` (excludes the list header).
    payload_consumed: u64,
    /// Postings jumped over by seeks — never decoded.
    skipped_postings: u64,
    /// Reusable decode slot the borrow returned by
    /// [`PostingCursor::next_posting`] points into.
    current: Posting,
    /// A stored value's current block, unpacked and validated: column
    /// `c` is `block[c * BLOCK_POSTINGS..][..block_len]`, with `Δtid`,
    /// the root's `pre` summed and `desc` rebuilt to `post`; its code
    /// was `codes[c]`, and if patched, `patches[c]` is `(count, high
    /// width)`. Rows before `block_at` have been lent.
    block: Vec<u32>,
    block_len: usize,
    block_at: usize,
    codes: Vec<u32>,
    patches: Vec<(u32, u32)>,
}

impl<S: ChunkSource> PostingCursor<S> {
    /// Creates a cursor over a bare payload ([`PostingBuilder`] bytes,
    /// no list header). `key_nodes` is the key's node count (needed by
    /// the interval coding; ignored otherwise).
    pub fn new(coding: Coding, key_nodes: usize, src: S) -> Self {
        Self::with_format(coding, key_nodes, src, false)
    }

    /// Creates a cursor, stating whether the bytes are a stored value
    /// ([`build_list_value`]'s) or a bare interchange payload.
    pub fn with_format(coding: Coding, key_nodes: usize, src: S, list_header: bool) -> Self {
        Self {
            coding,
            key_nodes,
            src,
            buf: Vec::new(),
            pos: 0,
            tid: 0,
            src_done: false,
            decoded: 0,
            peak_buf: 0,
            stored: list_header,
            header_done: !list_header,
            header_len: 0,
            skip: None,
            expected: 0,
            last_tid: 0,
            payload_consumed: 0,
            skipped_postings: 0,
            current: Posting::Tid(0),
            block: Vec::new(),
            block_len: 0,
            block_at: 0,
            codes: Vec::new(),
            patches: Vec::new(),
        }
    }

    /// Postings decoded so far.
    pub fn decoded(&self) -> usize {
        self.decoded
    }

    /// Index of the next posting in the full list — decoded plus
    /// seek-skipped.
    pub fn position(&self) -> u64 {
        self.decoded as u64 + self.skipped_postings
    }

    /// High-water mark of resident undecoded bytes — the streaming
    /// executor's "pages in flight" figure for this list.
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buf
    }

    /// Pulls one more chunk from the source into the window, compacting
    /// the consumed prefix first. Returns whether new bytes arrived.
    fn refill(&mut self) -> si_storage::Result<bool> {
        if self.src_done {
            return Ok(false);
        }
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let n = self.src.read_chunk(&mut self.buf)?;
        if n == 0 {
            self.src_done = true;
        }
        self.peak_buf = self.peak_buf.max(self.buf.len());
        Ok(n > 0)
    }

    /// Parses a stored value's list header before its first block is
    /// unpacked, refilling from the source until it is whole. A
    /// zero-length value stays a clean empty list.
    fn ensure_header(&mut self) -> si_storage::Result<()> {
        if self.header_done {
            return Ok(());
        }
        loop {
            match parse_header(&self.buf[self.pos..]) {
                Ok((front, table, used)) => {
                    (self.expected, self.last_tid) =
                        (front.postings, front.first_tid + front.tid_span);
                    self.tid = front.first_tid;
                    self.skip = table;
                    self.pos += used;
                    self.header_len = used;
                    let columns = columns(self.coding, self.key_nodes);
                    (self.codes, self.patches) = (vec![0; columns], vec![(0, 0); columns]);
                    self.block = vec![0; columns * BLOCK_POSTINGS];
                }
                Err(HeaderError::Truncated) if self.refill()? => continue,
                // Zero-length value: an empty list has no header.
                Err(HeaderError::Truncated) if self.pos >= self.buf.len() => {}
                Err(e) => return Err(e.into_error()),
            }
            self.header_done = true;
            return Ok(());
        }
    }

    /// The list's restart points, or `None` for bare payloads and lists
    /// too short to have any. Forces the header parse.
    pub fn skip_table(&mut self) -> si_storage::Result<Option<&SkipTable>> {
        self.ensure_header()?;
        Ok(self.skip.as_ref())
    }

    /// Forward-only seek to the latest restart point whose prior tid is
    /// `< t` (see [`SkipTable::restart_before`]); returns the number of
    /// postings jumped over without decoding. No-op (`Ok(0)`) on bare
    /// payloads or when already at or past that restart.
    pub fn seek_to_tid(&mut self, t: TreeId) -> si_storage::Result<u64> {
        self.ensure_header()?;
        let Some(table) = &self.skip else {
            return Ok(0);
        };
        let p = table.restart_before(t);
        self.seek_to_restart(p)
    }

    /// Forward-only jump to restart block `p` (`0` = no-op). Returns the
    /// number of postings skipped without decoding.
    pub fn seek_to_restart(&mut self, p: u32) -> si_storage::Result<u64> {
        self.ensure_header()?;
        let (prev_tid, offset, target_index) = {
            let Some(table) = &self.skip else {
                return Ok(0);
            };
            let Some((prev_tid, offset)) = table.entry(p) else {
                return Ok(0);
            };
            (prev_tid, offset, u64::from(p) * u64::from(table.interval()))
        };
        if target_index <= self.position() {
            return Ok(0);
        }
        // The rest of the current block goes unlent; its bytes are
        // behind the window already.
        (self.block_len, self.block_at) = (0, 0);
        let mut need = offset
            .checked_sub(self.payload_consumed)
            .ok_or_else(|| corrupt("list header: restart offset behind its block"))?;
        loop {
            let avail = (self.buf.len() - self.pos) as u64;
            let take = need.min(avail);
            self.pos += take as usize;
            self.payload_consumed += take;
            need -= take;
            if need == 0 {
                break;
            }
            // Buffer drained — let the source hop whole chunks (disk
            // pages) without copying, then refill for the remainder.
            let fast = self.src.skip_bytes(need)?;
            self.payload_consumed += fast;
            need -= fast;
            if need == 0 {
                break;
            }
            if !self.refill()? {
                return Err(corrupt("posting-list seek past end of list"));
            }
        }
        self.tid = prev_tid;
        let skipped = target_index - self.position();
        self.skipped_postings += skipped;
        Ok(skipped)
    }

    /// Advances a bare-payload cursor by decoding one varint posting
    /// into the reusable slot, refilling from the source as needed.
    /// Returns whether a posting is now available in `self.current`.
    #[inline(never)]
    fn advance_payload(&mut self) -> si_storage::Result<bool> {
        debug_assert!(!self.stored, "a stored value holds no varint posting");
        loop {
            if self.pos < self.buf.len() {
                match decode_one_into(
                    self.coding,
                    self.key_nodes,
                    self.tid,
                    &self.buf[self.pos..],
                    &mut self.current,
                ) {
                    Ok(used) => {
                        self.pos += used;
                        self.payload_consumed += used as u64;
                        self.tid = self.current.tid();
                        self.decoded += 1;
                        return Ok(true);
                    }
                    Err(Undecoded::Truncated) => {}
                    Err(corrupt) => return Err(corrupt.into_error()),
                }
            }
            if !self.refill()? {
                return if self.pos < self.buf.len() {
                    Err(Undecoded::Truncated.into_error())
                } else {
                    Ok(false)
                };
            }
        }
    }

    /// Advances a stored-value cursor whose rows have run out: unpacks
    /// the next block, refilling from the source as needed. Returns
    /// whether there was one.
    #[inline(never)]
    fn next_block(&mut self) -> si_storage::Result<bool> {
        self.ensure_header()?;
        loop {
            let at = self.position();
            let mut len = self.expected.saturating_sub(at).min(BLOCK_POSTINGS as u64);
            if len == 0 {
                // Every posting the header counts has been read.
                return if self.pos < self.buf.len() || self.refill()? {
                    Err(corrupt("posting list: bytes after its last block"))
                } else if self.tid != self.last_tid {
                    Err(corrupt("posting list: last tid disagrees with its header"))
                } else {
                    Ok(false)
                };
            }
            if let Some(table) = &self.skip {
                // A block ends at a restart point, and one that opens at
                // restart `p` sits where the table says.
                let interval = u64::from(table.interval());
                let (p, past) = (at / interval, at % interval);
                len = len.min(interval - past);
                let here = Some((self.tid, self.payload_consumed));
                if past == 0 && p > 0 && table.entry(p as u32) != here {
                    return Err(corrupt("list header: restart entry not at its block"));
                }
            }
            match self.unpack_block(len as usize) {
                Ok(()) => return Ok(true),
                Err(Undecoded::Truncated) => {
                    if !self.refill()? {
                        return Err(corrupt("posting list ends mid-block"));
                    }
                }
                Err(corrupt) => return Err(corrupt.into_error()),
            }
        }
    }

    /// Unpacks the block of `len` postings at the front of the window
    /// into `self.block`, if the window holds all of it, and validates
    /// every row without a branch per posting: sums run in 64 bits, and
    /// they, the levels and the orders are compared once per block.
    fn unpack_block(&mut self, len: usize) -> Result<(), Undecoded> {
        let window = &self.buf[self.pos..];
        let have = window.len() * 8;
        // (Codes past the window's end read as 0, and then `at` is past it.
        // A blockless list reads no code: its one column's stays 0.)
        let coded = usize::from(!blockless(self.coding, self.expected)) * self.codes.len();
        unpack(window, 0, WIDTH_BITS, &mut self.codes[..coded]);
        let widths: usize = self.codes.iter().map(|&c| split_code(c).0 as usize).sum();
        let mut column_at = coded * WIDTH_BITS as usize;
        let mut at = column_at + widths * len;
        if have < at {
            return Err(Undecoded::Truncated);
        }
        let columns = self.block.chunks_mut(BLOCK_POSTINGS).zip(&self.codes);
        for ((column, &code), patch) in columns.zip(&mut self.patches) {
            let (base, patched) = split_code(code);
            let column = &mut column[..len];
            unpack(window, column_at, base, column);
            column_at += base as usize * len;
            if !patched {
                continue;
            }
            // The patch list: its header, then `(row, high part)` pairs.
            if have < at + PATCH_HEADER_BITS as usize {
                return Err(Undecoded::Truncated);
            }
            let count = read_bits(window, at, POSITION_BITS) as usize + 1;
            let high = read_bits(window, at + POSITION_BITS as usize, WIDTH_BITS);
            at += PATCH_HEADER_BITS as usize;
            if count > len || high == 0 || base + high > u32::BITS {
                return Err(Undecoded::BadBlock);
            }
            let pair = (POSITION_BITS + high) as usize;
            if have < at + count * pair {
                return Err(Undecoded::Truncated);
            }
            // Rows strictly ascending, and inside the block.
            let mut next = 0;
            for _ in 0..count {
                let row = read_bits(window, at, POSITION_BITS) as usize;
                if row < next || row >= len {
                    return Err(Undecoded::BadBlock);
                }
                column[row] |= read_bits(window, at + POSITION_BITS as usize, high) << base;
                (next, at) = (row + 1, at + pair);
            }
            *patch = (count as u32, high);
        }
        let used = at.div_ceil(8);

        let (tids, nodes) = self.block.split_at_mut(BLOCK_POSTINGS);
        let mut tid = u64::from(self.tid);
        let mut widest = 0u64;
        // A root in the tree of the row before counts from its `pre`; the
        // first row's counts from 0. (A filter-based row has no root.)
        let mut no_roots = [0; BLOCK_POSTINGS];
        let pre = nodes.get_mut(..len).unwrap_or(&mut no_roots[..len]);
        let mut prev = 0u64;
        for (slot, pre) in tids[..len].iter_mut().zip(pre) {
            tid += u64::from(*slot);
            prev = u64::from(*pre) + if *slot == 0 { prev } else { 0 };
            widest |= prev;
            (*slot, *pre) = (tid as TreeId, prev as u32);
        }
        let per_node = 3 + usize::from(self.coding == Coding::SubtreeInterval);
        // The root's stored `desc` leaves out its key's `m − 1` nodes.
        let mut root_desc = self.key_nodes.saturating_sub(1) as u64;
        for node in nodes.chunks_exact_mut(per_node * BLOCK_POSTINGS) {
            let (pre, rest) = node.split_at_mut(BLOCK_POSTINGS);
            let (desc, rest) = rest.split_at_mut(BLOCK_POSTINGS);
            let (level, order) = rest.split_at(BLOCK_POSTINGS);
            let desc_less = std::mem::take(&mut root_desc);
            for i in 0..len {
                // `desc = post − pre + level`, the node's descendants;
                // a difference below zero wraps far past `u32::MAX`.
                let post = (u64::from(pre[i]) + u64::from(desc[i]) + desc_less)
                    .wrapping_sub(level[i].into());
                // A level past 16 bits sets a bit past 32 too.
                widest |= post | u64::from(level[i] >> u16::BITS) << u32::BITS;
                desc[i] = post as u32;
            }
            let orders = order.iter().take(len).fold(0, |a, &o| a | o >> u8::BITS);
            widest |= u64::from(orders) << u32::BITS;
        }
        if widest > u64::from(u32::MAX) {
            return Err(Undecoded::BadBlock);
        }
        self.tid = TreeId::try_from(tid).map_err(|_| Undecoded::TidOverflow)?;
        self.pos += used;
        self.payload_consumed += used as u64;
        (self.block_len, self.block_at) = (len, 0);
        Ok(())
    }

    /// Assembles row `block_at` of the unpacked block in the reusable
    /// slot, recycling an interval posting's `nodes` vector.
    #[inline]
    fn lend_row(&mut self) {
        let row = &self.block[self.block_at..];
        let node = |v: &[u32]| NodeVal {
            pre: v[0],
            post: v[BLOCK_POSTINGS],
            level: v[2 * BLOCK_POSTINGS] as u16,
        };
        // (A filter-based row is its tid alone.)
        let (tid, columns) = (row[0], row.get(BLOCK_POSTINGS..).unwrap_or_default());
        self.current = match self.coding {
            Coding::FilterBased => Posting::Tid(tid),
            Coding::RootSplit => Posting::Root {
                tid,
                root: node(columns),
            },
            Coding::SubtreeInterval => {
                let mut nodes = match std::mem::replace(&mut self.current, Posting::Tid(0)) {
                    Posting::Occurrence { nodes, .. } => nodes,
                    _ => Vec::with_capacity(self.codes.len() / 4),
                };
                nodes.clear();
                let per_node = columns.chunks(4 * BLOCK_POSTINGS);
                nodes.extend(per_node.map(|v| (node(v), v[3 * BLOCK_POSTINGS] as u8)));
                Posting::Occurrence { tid, nodes }
            }
        };
        self.block_at += 1;
        self.decoded += 1;
    }

    /// Decodes the next posting into the cursor's reusable slot and
    /// lends it out. Returns `Ok(None)` at a clean end of list; a list
    /// that ends mid-posting or mid-block, or a stored one whose blocks
    /// disagree with its header, is reported as corruption. The borrow is
    /// invalidated by the next call (the [`PostingFeed`] contract).
    pub fn next_posting(&mut self) -> si_storage::Result<Option<&Posting>> {
        if self.block_at == self.block_len {
            if !self.stored {
                return Ok(self.advance_payload()?.then_some(&self.current));
            }
            if !self.next_block()? {
                return Ok(None);
            }
        }
        self.lend_row();
        Ok(Some(&self.current))
    }
}

/// Decodes one posting from the front of `bytes` **into** `slot`,
/// returning the bytes consumed. On [`Undecoded::Truncated`] `slot`
/// holds garbage but stays structurally valid. The one reader of the
/// interchange form, behind [`PostingCursor::new`] and
/// [`build_list_value`]. An interval slot's `nodes` vector is recycled,
/// so steady-state decode never allocates.
///
/// `#[inline]` so the cursor loop of a downstream crate gets its own
/// copy: measured 14.0 against 16.2 ns per root-split posting without.
#[inline]
fn decode_one_into(
    coding: Coding,
    key_nodes: usize,
    prev_tid: TreeId,
    bytes: &[u8],
    slot: &mut Posting,
) -> Result<usize, Undecoded> {
    let (delta, root_level, head_len) = read_head(coding, bytes)?;
    let tid = prev_tid.checked_add(delta).ok_or(Undecoded::TidOverflow)?;
    let mut r = varint::Reader::new(&bytes[head_len..]);
    match coding {
        Coding::FilterBased => *slot = Posting::Tid(tid),
        Coding::RootSplit => {
            let (Some(pre), Some(post)) = (r.u32(), r.u32()) else {
                return Err(Undecoded::Truncated);
            };
            *slot = Posting::Root {
                tid,
                root: NodeVal {
                    pre,
                    post,
                    level: root_level,
                },
            };
        }
        Coding::SubtreeInterval => {
            let mut nodes = match std::mem::replace(slot, Posting::Tid(0)) {
                Posting::Occurrence { nodes, .. } => nodes,
                _ => Vec::with_capacity(key_nodes),
            };
            nodes.clear();
            // The root's level came with the head; every other node
            // stores its own.
            let mut node = |is_root: bool| -> Option<(NodeVal, u8)> {
                let pre = r.u32()?;
                let post = r.u32()?;
                let level = if is_root { root_level } else { r.u32()? as u16 };
                let order = r.u32()? as u8;
                Some((NodeVal { pre, post, level }, order))
            };
            let mut complete = true;
            for i in 0..key_nodes {
                match node(i == 0) {
                    Some(n) => nodes.push(n),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            // Park the vector back in the slot even on truncation, so
            // its capacity survives for the retry after a refill.
            *slot = Posting::Occurrence { tid, nodes };
            if !complete {
                return Err(Undecoded::Truncated);
            }
        }
    }
    Ok(head_len + r.position())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nv(pre: u32, post: u32, level: u16) -> NodeVal {
        NodeVal { pre, post, level }
    }

    /// Drains a cursor, returning what it lent out and how it ended.
    fn drain<S: ChunkSource>(
        mut cursor: PostingCursor<S>,
    ) -> (Vec<Posting>, si_storage::Result<()>) {
        let mut got = Vec::new();
        loop {
            match cursor.next_posting() {
                Ok(Some(p)) => got.push(p.clone()),
                Ok(None) => return (got, Ok(())),
                Err(e) => return (got, Err(e)),
            }
        }
    }

    /// The postings a bare payload decodes to, up to where it ends or
    /// stops making sense.
    fn decode(coding: Coding, key_nodes: usize, payload: &[u8]) -> Vec<Posting> {
        drain(PostingCursor::new(
            coding,
            key_nodes,
            SliceSource::new(payload),
        ))
        .0
    }

    #[test]
    fn filter_coding_dedups_by_tid() {
        let mut b = PostingBuilder::new(Coding::FilterBased);
        b.push(3, &[(nv(0, 5, 0), 1)]);
        b.push(3, &[(nv(2, 1, 1), 1)]);
        b.push(7, &[(nv(0, 5, 0), 1)]);
        assert_eq!(b.count(), 2);
        let bytes = b.finish();
        let got: Vec<Posting> = decode(Coding::FilterBased, 1, &bytes);
        assert_eq!(got, vec![Posting::Tid(3), Posting::Tid(7)]);
    }

    #[test]
    fn root_split_dedups_by_tid_and_pre() {
        let mut b = PostingBuilder::new(Coding::RootSplit);
        // Two occurrences sharing a root (e.g. NP(NN) over NP with two NNs
        // would be one posting each, but the same key rooted at the same
        // NP twice collapses).
        b.push(1, &[(nv(4, 9, 2), 1), (nv(5, 7, 3), 2)]);
        b.push(1, &[(nv(4, 9, 2), 1), (nv(6, 8, 3), 2)]);
        b.push(1, &[(nv(9, 12, 2), 1), (nv(10, 11, 3), 2)]);
        b.push(2, &[(nv(0, 3, 0), 1), (nv(1, 2, 1), 2)]);
        assert_eq!(b.count(), 3);
        let bytes = b.finish();
        let got: Vec<Posting> = decode(Coding::RootSplit, 2, &bytes);
        assert_eq!(
            got,
            vec![
                Posting::Root {
                    tid: 1,
                    root: nv(4, 9, 2)
                },
                Posting::Root {
                    tid: 1,
                    root: nv(9, 12, 2)
                },
                Posting::Root {
                    tid: 2,
                    root: nv(0, 3, 0)
                },
            ]
        );
    }

    #[test]
    fn interval_coding_keeps_every_occurrence() {
        let mut b = PostingBuilder::new(Coding::SubtreeInterval);
        let occ1 = [(nv(4, 9, 2), 1), (nv(5, 7, 3), 2)];
        let occ2 = [(nv(4, 9, 2), 1), (nv(6, 8, 3), 2)];
        b.push(1, &occ1);
        b.push(1, &occ2);
        assert_eq!(b.count(), 2);
        let bytes = b.finish();
        let got: Vec<Posting> = decode(Coding::SubtreeInterval, 2, &bytes);
        assert_eq!(
            got,
            vec![
                Posting::Occurrence {
                    tid: 1,
                    nodes: occ1.to_vec()
                },
                Posting::Occurrence {
                    tid: 1,
                    nodes: occ2.to_vec()
                },
            ]
        );
    }

    #[test]
    fn posting_sizes_ranked_as_in_figure_8() {
        // For the same occurrences: filter <= root-split <= interval.
        let occs: Vec<(TreeId, Vec<(NodeVal, u8)>)> = (0..100u32)
            .map(|i| {
                // Three occurrences per tree with ascending root pre.
                let pre = (i % 3) * 4;
                (
                    i / 3,
                    vec![
                        (nv(pre, pre + 3, 1), 1),
                        (nv(pre + 1, pre + 1, 2), 2),
                        (nv(pre + 2, pre + 2, 2), 3),
                    ],
                )
            })
            .collect();
        let mut sizes = Vec::new();
        for coding in [
            Coding::FilterBased,
            Coding::RootSplit,
            Coding::SubtreeInterval,
        ] {
            let mut b = PostingBuilder::new(coding);
            for (tid, nodes) in &occs {
                b.push(*tid, nodes);
            }
            sizes.push(b.finish().len());
        }
        assert!(sizes[0] < sizes[1], "filter < root-split: {sizes:?}");
        assert!(sizes[1] < sizes[2], "root-split < interval: {sizes:?}");
    }

    #[test]
    fn node_val_relations() {
        let root = nv(0, 10, 0);
        let child = nv(1, 4, 1);
        let grandchild = nv(2, 3, 2);
        assert!(root.is_ancestor_of(&child));
        assert!(root.is_ancestor_of(&grandchild));
        assert!(root.is_parent_of(&child));
        assert!(!root.is_parent_of(&grandchild));
        assert!(!child.is_ancestor_of(&root));
        assert!(!child.is_ancestor_of(&child));
    }

    #[test]
    fn empty_list_decodes_empty() {
        assert!(decode(Coding::FilterBased, 1, &[]).is_empty());
        assert!(decode(Coding::RootSplit, 1, &[]).is_empty());
    }

    /// Source that drips bytes in fixed-size chunks, simulating page
    /// boundaries falling mid-varint and mid-posting.
    struct DripSource {
        bytes: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl ChunkSource for DripSource {
        fn read_chunk(&mut self, out: &mut Vec<u8>) -> si_storage::Result<usize> {
            let end = (self.pos + self.chunk).min(self.bytes.len());
            let n = end - self.pos;
            out.extend_from_slice(&self.bytes[self.pos..end]);
            self.pos = end;
            Ok(n)
        }
    }

    fn all_codings_sample() -> Vec<(Coding, usize, Vec<u8>, Vec<Posting>)> {
        let mut out = Vec::new();
        for coding in Coding::ALL {
            let mut b = PostingBuilder::new(coding);
            for tid in [0u32, 1, 5, 5, 1_000_000, 4_000_000_000] {
                b.push(
                    tid,
                    &[
                        (nv(tid % 90, tid % 90 + 3, 2), 1),
                        (nv(tid % 90 + 1, tid % 90 + 1, 3), 2),
                    ],
                );
            }
            let bytes = b.finish();
            let want: Vec<Posting> = decode(coding, 2, &bytes);
            out.push((coding, 2, bytes, want));
        }
        out
    }

    #[test]
    fn cursor_preserves_delta_state_across_chunk_boundaries() {
        for (coding, key_nodes, bytes, want) in all_codings_sample() {
            for chunk in [1usize, 2, 3, 5, 7, 4096] {
                let mut cursor = PostingCursor::new(
                    coding,
                    key_nodes,
                    DripSource {
                        bytes: bytes.clone(),
                        pos: 0,
                        chunk,
                    },
                );
                let mut got = Vec::new();
                while let Some(p) = cursor.next_posting().unwrap() {
                    got.push(p.clone());
                }
                assert_eq!(got, want, "{coding} chunk={chunk}");
                assert_eq!(cursor.decoded(), want.len());
                // Resident window never exceeds one chunk plus the
                // partial posting carried over the boundary.
                assert!(
                    cursor.peak_buffer_bytes() <= chunk + 40,
                    "{coding} chunk={chunk}: peak {}",
                    cursor.peak_buffer_bytes()
                );
            }
        }
    }

    #[test]
    fn cursor_reuses_the_occurrence_buffer_across_postings() {
        // The zero-copy pipeline's decode side: after the first
        // interval posting, the cursor's `nodes` vector is recycled —
        // the lent borrows all point into the same allocation, so
        // steady-state decoding allocates nothing per posting.
        let mut b = PostingBuilder::new(Coding::SubtreeInterval);
        for tid in 0u32..50 {
            b.push(tid, &[(nv(1, 4, 1), 1), (nv(2, 3, 2), 2)]);
        }
        let bytes = b.finish();
        let mut cursor = PostingCursor::new(Coding::SubtreeInterval, 2, SliceSource::new(&bytes));
        let mut ptrs = Vec::new();
        while let Some(p) = cursor.next_posting().unwrap() {
            let Posting::Occurrence { nodes, .. } = p else {
                panic!("interval cursor yields occurrences");
            };
            ptrs.push(nodes.as_ptr());
        }
        assert_eq!(ptrs.len(), 50);
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "nodes buffer must be reused across postings"
        );
    }

    #[test]
    fn cursor_reports_truncated_list() {
        let mut b = PostingBuilder::new(Coding::RootSplit);
        b.push(3, &[(nv(1, 4, 1), 1)]);
        b.push(9, &[(nv(2, 3, 2), 1)]);
        let bytes = b.finish();
        let cut = &bytes[..bytes.len() - 1];
        let mut cursor = PostingCursor::new(Coding::RootSplit, 1, SliceSource::new(cut));
        assert!(cursor.next_posting().unwrap().is_some());
        assert!(
            cursor.next_posting().is_err(),
            "mid-posting end is corruption"
        );
    }

    #[test]
    fn large_tid_gaps_round_trip() {
        let mut b = PostingBuilder::new(Coding::FilterBased);
        for tid in [0u32, 1, 1_000_000, 4_000_000_000] {
            b.push(tid, &[(nv(0, 0, 0), 1)]);
        }
        let bytes = b.finish();
        let got: Vec<Posting> = decode(Coding::FilterBased, 1, &bytes);
        assert_eq!(
            got,
            vec![
                Posting::Tid(0),
                Posting::Tid(1),
                Posting::Tid(1_000_000),
                Posting::Tid(4_000_000_000)
            ]
        );
    }

    /// What a list built from `occs` must decode to, worked out without
    /// the decoder: the coding's projection of each occurrence, with
    /// its deduplication rule applied.
    fn expected(coding: Coding, occs: &[(TreeId, Vec<(NodeVal, u8)>)]) -> Vec<Posting> {
        let mut out: Vec<Posting> = Vec::new();
        for (tid, nodes) in occs {
            let posting = match coding {
                Coding::FilterBased => Posting::Tid(*tid),
                Coding::RootSplit => Posting::Root {
                    tid: *tid,
                    root: nodes[0].0,
                },
                Coding::SubtreeInterval => Posting::Occurrence {
                    tid: *tid,
                    nodes: nodes.clone(),
                },
            };
            if coding == Coding::SubtreeInterval || out.last() != Some(&posting) {
                out.push(posting);
            }
        }
        out
    }

    fn encode(coding: Coding, occs: &[(TreeId, Vec<(NodeVal, u8)>)]) -> Vec<u8> {
        let mut b = PostingBuilder::new(coding);
        for (tid, nodes) in occs {
            b.push(*tid, nodes);
        }
        b.finish()
    }

    const EDGE_DELTAS: [u32; 7] = [0, 7, 8, 127, 1 << 10, 1 << 24, u32::MAX];
    const EDGE_LEVELS: [u16; 6] = [0, 14, 15, 16, 300, u16::MAX];

    #[test]
    fn head_round_trips_at_its_edges() {
        for coding in Coding::ALL {
            for delta in EDGE_DELTAS {
                for level in EDGE_LEVELS {
                    // The second posting's head carries exactly `delta`
                    // and `level`; the first one's root sits at another
                    // `pre`, so `delta == 0` is not deduplicated away.
                    let occs = vec![
                        (0, vec![(nv(1, 9, 3), 1), (nv(2, 2, 4), 2)]),
                        (
                            delta,
                            vec![(nv(5, 8, level), 1), (nv(6, 7, level.wrapping_add(1)), 2)],
                        ),
                    ];
                    let want = expected(coding, &occs);
                    let bytes = encode(coding, &occs);
                    let what = format!("{coding} delta={delta} level={level}");

                    assert_eq!(decode(coding, 2, &bytes), want, "{what}: in one chunk");
                    let drip = DripSource {
                        bytes: bytes.clone(),
                        pos: 0,
                        chunk: 1,
                    };
                    let (got, end) = drain(PostingCursor::new(coding, 2, drip));
                    assert_eq!(got, want, "{what}: cursor, one byte at a time");
                    assert!(end.is_ok(), "{what}");
                    let (value, _, stats) =
                        build_list_value(coding, 2, &bytes, 1).expect("transcode");
                    assert_eq!(
                        stats.postings as usize,
                        want.len(),
                        "{what}: the transcode counts every posting"
                    );
                    assert_eq!(stats.last_tid, delta, "{what}");
                    let (got, end) = drain(PostingCursor::with_format(
                        coding,
                        2,
                        SliceSource::new(&value),
                        true,
                    ));
                    assert_eq!(got, want, "{what}: stored value");
                    assert!(end.is_ok(), "{what}");
                }
            }
        }
    }

    #[test]
    fn small_root_split_posting_is_three_bytes() {
        // Δtid < 8 and level < 15 share the head's first byte.
        let occs: Vec<(TreeId, Vec<(NodeVal, u8)>)> = (0..10u32)
            .map(|i| (i * 7, vec![(nv(i, 100 + i, 14), 1)]))
            .collect();
        assert_eq!(encode(Coding::RootSplit, &occs).len(), 3 * occs.len());
        // An escaped level costs exactly one more byte than it did
        // before the level moved into the head.
        let deep = vec![(3u32, vec![(nv(1, 2, 15), 1)])];
        assert_eq!(encode(Coding::RootSplit, &deep).len(), 4);
    }

    /// Postings of every head shape: one- and multi-byte deltas, levels
    /// below, at and far past the escape.
    fn mixed_heads() -> Vec<(TreeId, Vec<(NodeVal, u8)>)> {
        let mut tid = 0u32;
        let mut occs = Vec::new();
        for (i, delta) in [0u32, 0, 3, 8, 200, 1, 70_000, 0, 2, 5_000_000]
            .into_iter()
            .enumerate()
        {
            tid += delta;
            let level = EDGE_LEVELS[i % EDGE_LEVELS.len()];
            let pre = 10 * i as u32;
            occs.push((
                tid,
                vec![(nv(pre, pre + 300, level), 1), (nv(pre + 1, pre + 1, 2), 2)],
            ));
        }
        occs
    }

    #[test]
    fn every_proper_prefix_decodes_to_a_prefix_then_stops() {
        for coding in Coding::ALL {
            let occs = mixed_heads();
            let want = expected(coding, &occs);
            let bytes = encode(coding, &occs);
            let mut clean_ends = 0;
            for cut in 0..bytes.len() {
                let (got, end) = drain(PostingCursor::new(
                    coding,
                    2,
                    SliceSource::new(&bytes[..cut]),
                ));
                assert!(got.len() < want.len(), "{coding} cut={cut}");
                assert_eq!(got, want[..got.len()], "{coding} cut={cut}: cursor");
                // A cut between two postings is a shorter list; any
                // other cut is reported, not papered over.
                clean_ends += usize::from(end.is_ok());
                let stored = build_list_value(coding, 2, &bytes[..cut], 4);
                assert_eq!(stored.is_ok(), end.is_ok(), "{coding} cut={cut}: transcode");
            }
            assert_eq!(
                clean_ends,
                want.len(),
                "{coding}: one clean cut per posting"
            );
        }
    }

    #[test]
    fn out_of_range_heads_are_corrupt_not_wrapped() {
        let varints = |vals: &[u64]| {
            let mut out = Vec::new();
            for &v in vals {
                varint::write_u64(&mut out, v);
            }
            out
        };
        let too_far = u64::from(u32::MAX) + 1;
        let max_excess = u64::from(u16::MAX - HEAD_LEVEL_ESCAPE);
        let bad: Vec<(Coding, &str, Vec<u8>)> = vec![
            (Coding::FilterBased, "delta past u32", varints(&[too_far])),
            (
                Coding::RootSplit,
                "delta past u32",
                varints(&[too_far << 4 | 3, 1, 2]),
            ),
            (
                Coding::SubtreeInterval,
                "delta past u32",
                varints(&[too_far << 4 | 3, 1, 2, 1]),
            ),
            (
                Coding::RootSplit,
                "level past u16",
                varints(&[15, max_excess + 1, 1, 2]),
            ),
            (
                Coding::SubtreeInterval,
                "level far past u16",
                varints(&[15, u64::MAX, 1, 2, 1]),
            ),
            (
                Coding::FilterBased,
                "tid sum past u32",
                varints(&[u64::from(u32::MAX), 1]),
            ),
            (
                Coding::RootSplit,
                "tid sum past u32",
                varints(&[u64::from(u32::MAX) << 4, 1, 2, 1 << 4, 3, 4]),
            ),
        ];
        for (coding, what, bytes) in &bad {
            let (got, end) = drain(PostingCursor::new(*coding, 1, SliceSource::new(bytes)));
            assert!(
                matches!(end, Err(si_storage::StorageError::Corrupt(_))),
                "{coding} {what}: cursor"
            );
            assert!(
                build_list_value(*coding, 1, bytes, 4).is_err(),
                "{coding} {what}: transcode"
            );
            // Nothing is lent past the bad head.
            assert!(got.len() <= 1, "{coding} {what}");
            if !what.starts_with("tid sum") {
                assert!(got.is_empty(), "{coding} {what}");
                assert!(
                    rebase_head(*coding, &mut Vec::new(), bytes, 0).is_err(),
                    "{coding} {what}: rebase"
                );
            }
        }
        // The largest level there is still fits.
        let deepest = varints(&[15, max_excess, 1, 2]);
        assert_eq!(
            decode(Coding::RootSplit, 1, &deepest),
            vec![Posting::Root {
                tid: 0,
                root: nv(1, 2, u16::MAX)
            }]
        );
        // A fragment that starts before its predecessor ended, or in
        // the tree it ended in.
        let fragment = encode(Coding::RootSplit, &[(4, vec![(nv(1, 2, 3), 1)])]);
        for prev_last in [4, 5] {
            assert!(rebase_head(Coding::RootSplit, &mut Vec::new(), &fragment, prev_last).is_err());
        }
    }

    #[test]
    fn seeks_land_on_restart_blocks_that_open_with_an_escaped_level() {
        for coding in Coding::ALL {
            // With a restart every 4 postings, every block's first
            // posting carries an escaped level (15, 16, 300, 65535 in
            // turn) and the ones between do not.
            let occs: Vec<(TreeId, Vec<(NodeVal, u8)>)> = (0..64u32)
                .map(|i| {
                    let level = if i % 4 == 0 {
                        EDGE_LEVELS[2 + (i as usize / 4) % 4]
                    } else {
                        (i % 15) as u16
                    };
                    (
                        3 * i + i / 8 * 200,
                        vec![(nv(i, i + 99, level), 1), (nv(i + 1, i + 1, 1), 2)],
                    )
                })
                .collect();
            let last = occs.last().unwrap().0;
            let linear = expected(coding, &occs);
            let (value, ..) = build_list_value(coding, 2, &encode(coding, &occs), 4).unwrap();
            let cursor = || PostingCursor::with_format(coding, 2, SliceSource::new(&value), true);
            assert_eq!(drain(cursor()).0, linear, "{coding}: linear decode");
            for p in 0..=(linear.len() as u32 / 4) {
                let mut c = cursor();
                let skipped = c.seek_to_restart(p).unwrap() as usize;
                let want = if (p as usize) < linear.len() / 4 {
                    p as usize * 4
                } else {
                    0 // no such block: the seek is a no-op
                };
                assert_eq!(skipped, want, "{coding} restart {p}");
                assert_eq!(drain(c).0, linear[skipped..], "{coding} restart {p}");
            }
            for t in 0..=last + 1 {
                let mut c = cursor();
                let skipped = c.seek_to_tid(t).unwrap() as usize;
                assert!(linear[..skipped].iter().all(|p| p.tid() < t), "{coding}");
                assert_eq!(drain(c).0, linear[skipped..], "{coding} seek to {t}");
            }
        }
    }

    #[test]
    fn rebased_fragments_equal_the_sequential_encoding() {
        for coding in Coding::ALL {
            let occs = mixed_heads();
            let whole = encode(coding, &occs);
            // Split wherever the tid changes (fragments cover disjoint
            // tid ranges), so boundaries fall on every head shape —
            // escaped levels and heads that shrink once rebased alike.
            let mut boundaries = 0;
            for k in 1..occs.len() {
                if occs[k - 1].0 == occs[k].0 {
                    continue;
                }
                boundaries += 1;
                let mut stitched = encode(coding, &occs[..k]);
                let fragment = encode(coding, &occs[k..]);
                rebase_head(coding, &mut stitched, &fragment, occs[k - 1].0).unwrap();
                assert_eq!(stitched, whole, "{coding} split at {k}");
            }
            assert!(boundaries >= 6, "{coding}");
        }
    }
}
