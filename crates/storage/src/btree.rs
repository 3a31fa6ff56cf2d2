//! A disk-based, write-once B+Tree mapping byte keys to byte values.
//!
//! This is the index structure of §6.1: "our subtree index was implemented
//! as a native disk-based B+Tree index". Keys are canonical subtree
//! encodings; values are posting lists. The tree supports
//!
//! * **bulk loading** from a sorted stream (the only way a tree is
//!   written),
//! * **point lookups**, and
//! * **in-order scans** over all entries (used by the frequency-based
//!   baseline and by statistics collection).
//!
//! The file is **write-once**: [`BTree::bulk_load`] lays it out front to
//! back and nothing mutates a written tree — incremental additions to an
//! index are new shards, each its own bulk-loaded file.
//!
//! Values larger than [`INLINE_MAX`] bytes live in the **heap**: one
//! byte-packed extent per value, laid back to back over the ascending
//! pages that follow the meta page. Heap pages carry no tag and no
//! header, a value starts on the byte after the previous one ends, and
//! the leaf entry records `(length, heap byte offset)` — so reading a
//! long posting list walks the file forwards, and seeking inside one is
//! arithmetic that touches no page.
//!
//! # File layout (4096-byte pages)
//!
//! ```text
//! meta (page 0) | heap pages 1..=H | leaves | internal levels
//!
//! meta:     "SIBTREE3" | root u32 | height u32 | key_count u64
//!           | value_bytes u64 | heap_bytes u64
//! heap:     raw value bytes; H = ceil(heap_bytes / 4096), the last page
//!           zero-padded
//! leaf:     0x01 | n u16 | next_leaf u32 | n * entry
//!   entry:  key_len varint | key | flag u8
//!           flag 0: val_len varint | val
//!           flag 1: total_len varint | heap byte offset varint
//! internal: 0x02 | n_children u16 | child0 u32 | (key varint+bytes, child u32)*
//! ```
//!
//! Every length and offset above is checked against the file when it is
//! read: an extent that passes the heap's end, a heap that passes the
//! file's last page, and a `flag 1` value short enough to be inline are
//! all [`StorageError::Corrupt`].
//!
//! The tree knows nothing about what a value holds: whatever describes a
//! value (a posting list's statistics, say) is the front of the value
//! itself, and [`BTree::value_front`] hands a caller those first bytes
//! from the one descent that finds the value.

use std::path::Path;

use si_parsetree::varint;

use crate::error::{Result, StorageError};
use crate::pager::{PageId, Pager, PAGE_SIZE};

/// Values up to this many bytes are stored inline in leaf pages.
pub const INLINE_MAX: usize = 1024;

/// Maximum supported key length; guarantees any single entry fits a page.
pub const KEY_MAX: usize = 1024;

const NIL: PageId = PageId::MAX;

const MAGIC: &[u8; 8] = b"SIBTREE3";
/// The chained-overflow format and the one with a trailing statistics
/// run; both refused at open.
const OLD_MAGICS: [&[u8; 8]; 2] = [b"SIBTREE1", b"SIBTREE2"];

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

const PAGE_BYTES: u64 = PAGE_SIZE as u64;

/// The pages a `len`-byte run starting at file byte `pos` touches, as
/// `(first page, page count)`. Callers pass extents already checked
/// against the file's page count, so both fit.
fn pages_spanned(pos: u64, len: u64) -> (PageId, u32) {
    let first = pos / PAGE_BYTES;
    let end = (pos + len).div_ceil(PAGE_BYTES);
    (first as PageId, (end - first) as u32)
}

/// Where a heap value lives: `len` bytes of the heap starting at heap
/// byte `offset`. Only the leaf decoder and the bulk loader make one, so
/// an extent in a caller's hands has been checked against the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapExtent {
    offset: u64,
    len: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ValueRef {
    Inline(Vec<u8>),
    Heap(HeapExtent),
}

impl ValueRef {
    fn encoded_len(&self) -> usize {
        match self {
            ValueRef::Inline(v) => 1 + varint::len_u64(v.len() as u64) + v.len(),
            ValueRef::Heap(e) => 1 + varint::len_u64(e.len) + varint::len_u64(e.offset),
        }
    }

    fn len(&self) -> u64 {
        match self {
            ValueRef::Inline(v) => v.len() as u64,
            ValueRef::Heap(e) => e.len,
        }
    }
}

/// What one descent learns about a stored value (see
/// [`BTree::value_front`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueFront {
    /// Stored length of the whole value.
    pub len: u64,
    /// The value's first bytes: all of an inline value, the first `want`
    /// (or all `len`, if fewer) of a heap value.
    pub bytes: Vec<u8>,
    /// Where a heap value lives, for [`BTree::prefetch_extent`]; `None`
    /// for an inline value.
    pub extent: Option<HeapExtent>,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, ValueRef)>,
        next: PageId,
    },
    Internal {
        /// `children.len() == keys.len() + 1`; `keys[i]` separates
        /// `children[i]` (keys < keys[i]) from `children[i+1]` (keys >=).
        children: Vec<PageId>,
        keys: Vec<Vec<u8>>,
    },
}

impl Node {
    fn encode(&self, out: &mut [u8; PAGE_SIZE]) {
        out.fill(0);
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        match self {
            Node::Leaf { entries, next } => {
                buf.push(TAG_LEAF);
                buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                buf.extend_from_slice(&next.to_le_bytes());
                for (key, val) in entries {
                    varint::write_u64(&mut buf, key.len() as u64);
                    buf.extend_from_slice(key);
                    match val {
                        ValueRef::Inline(v) => {
                            buf.push(0);
                            varint::write_u64(&mut buf, v.len() as u64);
                            buf.extend_from_slice(v);
                        }
                        ValueRef::Heap(e) => {
                            buf.push(1);
                            varint::write_u64(&mut buf, e.len);
                            varint::write_u64(&mut buf, e.offset);
                        }
                    }
                }
            }
            Node::Internal { children, keys } => {
                debug_assert_eq!(children.len(), keys.len() + 1);
                buf.push(TAG_INTERNAL);
                buf.extend_from_slice(&(children.len() as u16).to_le_bytes());
                buf.extend_from_slice(&children[0].to_le_bytes());
                for (key, &child) in keys.iter().zip(&children[1..]) {
                    varint::write_u64(&mut buf, key.len() as u64);
                    buf.extend_from_slice(key);
                    buf.extend_from_slice(&child.to_le_bytes());
                }
            }
        }
        debug_assert!(buf.len() <= PAGE_SIZE, "node overflows page: {}", buf.len());
        out[..buf.len()].copy_from_slice(&buf);
    }

    /// Decodes a page, checking every heap extent a leaf names against
    /// the heap's `heap_bytes`: the entries come from untrusted file
    /// bytes, and readers turn them into page arithmetic unchecked.
    fn decode(buf: &[u8; PAGE_SIZE], heap_bytes: u64) -> Result<Node> {
        let corrupt = |what: &str| StorageError::Corrupt(format!("btree node: {what}"));
        match buf[0] {
            TAG_LEAF => {
                let n = u16::from_le_bytes([buf[1], buf[2]]) as usize;
                let next = PageId::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]);
                let mut r = varint::Reader::new(&buf[7..]);
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let klen = r.u64().ok_or_else(|| corrupt("key len"))? as usize;
                    let key = r.bytes(klen).ok_or_else(|| corrupt("key bytes"))?.to_vec();
                    let flag = r.bytes(1).ok_or_else(|| corrupt("flag"))?[0];
                    let val = match flag {
                        0 => {
                            let vlen = r.u64().ok_or_else(|| corrupt("val len"))? as usize;
                            ValueRef::Inline(
                                r.bytes(vlen).ok_or_else(|| corrupt("val bytes"))?.to_vec(),
                            )
                        }
                        1 => {
                            let len = r.u64().ok_or_else(|| corrupt("heap len"))?;
                            let offset = r.u64().ok_or_else(|| corrupt("heap offset"))?;
                            if len <= INLINE_MAX as u64 {
                                return Err(corrupt("heap value of inline length"));
                            }
                            if offset.checked_add(len).is_none_or(|end| end > heap_bytes) {
                                return Err(corrupt("heap extent passes the heap's end"));
                            }
                            ValueRef::Heap(HeapExtent { offset, len })
                        }
                        _ => return Err(corrupt("bad value flag")),
                    };
                    entries.push((key, val));
                }
                Ok(Node::Leaf { entries, next })
            }
            TAG_INTERNAL => {
                let n = u16::from_le_bytes([buf[1], buf[2]]) as usize;
                if n == 0 {
                    return Err(corrupt("internal with no children"));
                }
                let mut r = varint::Reader::new(&buf[3..]);
                let b = r.bytes(4).ok_or_else(|| corrupt("child0"))?;
                let mut children = vec![PageId::from_le_bytes([b[0], b[1], b[2], b[3]])];
                let mut keys = Vec::with_capacity(n - 1);
                for _ in 1..n {
                    let klen = r.u64().ok_or_else(|| corrupt("sep len"))? as usize;
                    keys.push(r.bytes(klen).ok_or_else(|| corrupt("sep bytes"))?.to_vec());
                    let b = r.bytes(4).ok_or_else(|| corrupt("child"))?;
                    children.push(PageId::from_le_bytes([b[0], b[1], b[2], b[3]]));
                }
                Ok(Node::Internal { children, keys })
            }
            t => Err(corrupt(&format!("unexpected page tag {t}"))),
        }
    }
}

fn u32_at(buf: &[u8; PAGE_SIZE], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

fn u64_at(buf: &[u8; PAGE_SIZE], at: usize) -> u64 {
    u64::from(u32_at(buf, at)) | u64::from(u32_at(buf, at + 4)) << 32
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    root: PageId,
    height: u32,
    key_count: u64,
    value_bytes: u64,
    /// Byte length of the heap, which fills pages `1..=heap_pages`.
    heap_bytes: u64,
}

impl Meta {
    fn encode(&self, out: &mut [u8; PAGE_SIZE]) {
        out.fill(0);
        out[..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&self.root.to_le_bytes());
        out[12..16].copy_from_slice(&self.height.to_le_bytes());
        out[16..24].copy_from_slice(&self.key_count.to_le_bytes());
        out[24..32].copy_from_slice(&self.value_bytes.to_le_bytes());
        out[32..40].copy_from_slice(&self.heap_bytes.to_le_bytes());
    }

    /// Decodes page 0 of a file of `page_count` pages. The heap is
    /// checked against the page count here, once, so the arithmetic
    /// readers do over it later cannot leave the file.
    fn decode(buf: &[u8; PAGE_SIZE], page_count: u32) -> Result<Meta> {
        if OLD_MAGICS.iter().any(|old| &buf[..8] == *old) {
            return Err(StorageError::Corrupt(
                "index.bt: index written in an older format; rebuild it with `si build`".into(),
            ));
        }
        if &buf[..8] != MAGIC {
            return Err(StorageError::Corrupt("bad btree magic".into()));
        }
        let meta = Meta {
            root: u32_at(buf, 8),
            height: u32_at(buf, 12),
            key_count: u64_at(buf, 16),
            value_bytes: u64_at(buf, 24),
            heap_bytes: u64_at(buf, 32),
        };
        // Page 0 is this one, so a run of `n` pages fits after it only
        // when `n < page_count`.
        let pages = u64::from(page_count);
        let heap_pages = meta.heap_bytes.div_ceil(PAGE_BYTES);
        if heap_pages >= pages {
            return Err(StorageError::Corrupt(
                "btree meta: heap passes the end of the file".into(),
            ));
        }
        if u64::from(meta.root) <= heap_pages || meta.root >= page_count {
            return Err(StorageError::Corrupt(
                "btree meta: root outside the tree pages".into(),
            ));
        }
        Ok(meta)
    }
}

/// Aggregate statistics of a [`BTree`], used by the index-size experiments
/// (Figure 8) and posting-count reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BTreeStats {
    /// Number of distinct keys.
    pub key_count: u64,
    /// Total bytes across all stored values.
    pub value_bytes: u64,
    /// Height of the tree (0 = the root is a leaf).
    pub height: u32,
    /// Total pages in the backing file, the meta page included.
    pub pages: u32,
    /// Total size of the backing file in bytes.
    pub file_bytes: u64,
}

/// Writes one contiguous byte run over freshly allocated pages: the
/// heap during a bulk load. Bytes are packed back to back with no
/// per-page framing; the last page is zero-padded.
struct RunWriter<'a> {
    pager: &'a Pager,
    page: [u8; PAGE_SIZE],
    bytes: u64,
}

impl<'a> RunWriter<'a> {
    fn new(pager: &'a Pager) -> Self {
        Self {
            pager,
            page: [0u8; PAGE_SIZE],
            bytes: 0,
        }
    }

    /// Appends `value`, returning the run offset of its first byte.
    fn append(&mut self, value: &[u8]) -> Result<u64> {
        let offset = self.bytes;
        let mut rest = value;
        while !rest.is_empty() {
            let fill = (self.bytes % PAGE_BYTES) as usize;
            let take = rest.len().min(PAGE_SIZE - fill);
            self.page[fill..fill + take].copy_from_slice(&rest[..take]);
            self.bytes += take as u64;
            rest = &rest[take..];
            if fill + take == PAGE_SIZE {
                self.write_page()?;
            }
        }
        Ok(offset)
    }

    fn write_page(&mut self) -> Result<()> {
        let id = self.pager.allocate()?;
        self.pager.write(id, &self.page)?;
        self.page.fill(0);
        Ok(())
    }

    /// Writes the partly filled last page, returning the run's length.
    fn finish(mut self) -> Result<u64> {
        if !self.bytes.is_multiple_of(PAGE_BYTES) {
            self.write_page()?;
        }
        Ok(self.bytes)
    }
}

/// A disk-resident B+Tree; see the module docs for the format.
pub struct BTree {
    pager: Pager,
    meta: Meta,
}

impl BTree {
    fn from_pager(pager: Pager) -> Result<Self> {
        let mut buf = [0u8; PAGE_SIZE];
        pager.read(0, &mut buf)?;
        let meta = Meta::decode(&buf, pager.page_count())?;
        Ok(Self { pager, meta })
    }

    /// Opens an existing tree on the buffered pager.
    pub fn open(path: &Path) -> Result<Self> {
        Self::from_pager(Pager::open(path)?)
    }

    /// Opens an existing tree read-only, preferring the mmap-backed
    /// pager ([`Pager::open_readonly`]): page reads become borrowed
    /// slices of the mapping with no shard latch. Falls back to the
    /// buffered pager when mapping fails, so this is always safe to
    /// call where [`BTree::open`] would be.
    pub fn open_readonly(path: &Path) -> Result<Self> {
        Self::from_pager(Pager::open_readonly(path)?)
    }

    /// Whether reads are served from a read-only mmap of the file.
    pub fn is_mapped(&self) -> bool {
        self.pager.is_mapped()
    }

    /// Flushes all buffered pages and the meta page.
    pub fn flush(&mut self) -> Result<()> {
        self.sync_meta()?;
        self.pager.flush()
    }

    /// Pager cache hit/miss/eviction counters — the storage half of the
    /// per-query observability surface (`EvalStats`, `si query
    /// --verbose`).
    pub fn pager_counters(&self) -> crate::pager::PagerCounters {
        self.pager.counters()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BTreeStats {
        BTreeStats {
            key_count: self.meta.key_count,
            value_bytes: self.meta.value_bytes,
            height: self.meta.height,
            pages: self.pager.page_count(),
            file_bytes: self.pager.size_bytes(),
        }
    }

    /// Descends to the leaf entry of `key`, returning its [`ValueRef`].
    fn lookup(&self, key: &[u8]) -> Result<Option<ValueRef>> {
        crate::pager::bump_descent();
        let mut page = self.meta.root;
        for _ in 0..self.meta.height {
            match self.read_node(page)? {
                Node::Internal { children, keys } => {
                    page = children[child_index(&keys, key)];
                }
                Node::Leaf { .. } => {
                    return Err(StorageError::Corrupt("leaf above leaf level".into()))
                }
            }
        }
        match self.read_node(page)? {
            Node::Leaf { mut entries, .. } => {
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => Ok(Some(entries.swap_remove(i).1)),
                    Err(_) => Ok(None),
                }
            }
            Node::Internal { .. } => Err(StorageError::Corrupt("internal at leaf level".into())),
        }
    }

    /// Looks up `key`, returning its value if present. Thin wrapper over
    /// [`BTree::value_reader`]; prefer the reader for long values (it
    /// streams heap extents page-by-page instead of materializing).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.value_reader(key)? {
            Some(reader) => Ok(Some(reader.read_to_vec()?)),
            None => Ok(None),
        }
    }

    /// Opens a streaming cursor over the value of `key`. The cursor pulls
    /// bytes page-at-a-time through the pager, so memory stays O(1 page)
    /// regardless of value length — the storage end of the streaming
    /// query pipeline.
    pub fn value_reader(&self, key: &[u8]) -> Result<Option<ValueReader<'_>>> {
        Ok(self.lookup(key)?.map(|val| self.reader_for(val)))
    }

    /// The stored value's length in bytes without materializing it (a
    /// heap value's length lives in the leaf entry). Used as a cheap
    /// selectivity statistic by the query processor.
    pub fn value_len(&self, key: &[u8]) -> Result<Option<u64>> {
        Ok(self.lookup(key)?.map(|v| v.len()))
    }

    /// Whether `key` is present (no value materialization).
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.lookup(key)?.is_some())
    }

    /// One descent for the front of `key`'s value: how a value that
    /// opens with a description of itself (a posting list's header) is
    /// read without a second lookup, the extent letting the caller hint
    /// the value's pages without one either. Reads only the pages the
    /// front touches and hints nothing.
    pub fn value_front(&self, key: &[u8], want: usize) -> Result<Option<ValueFront>> {
        Ok(match self.lookup(key)? {
            None => None,
            Some(ValueRef::Inline(bytes)) => Some(ValueFront {
                len: bytes.len() as u64,
                bytes,
                extent: None,
            }),
            Some(ValueRef::Heap(extent)) => {
                let take = extent.len.min(want as u64);
                let front = ValueReader {
                    tree: self,
                    total: take,
                    state: ReaderState::Extent {
                        pos: PAGE_BYTES + extent.offset,
                        remaining: take,
                    },
                    lookahead: None,
                    chunks_since_hint: 0,
                };
                Some(ValueFront {
                    len: extent.len,
                    bytes: front.read_to_vec()?,
                    extent: Some(extent),
                })
            }
        })
    }

    /// Hints the prefetcher at the first `max_bytes` of a heap value, so
    /// a cursor opened over it shortly finds its leading pages warm (the
    /// executor hints every cover key once the join order is fixed).
    /// Dropping the ticket cancels the remainder.
    pub fn prefetch_extent(
        &self,
        extent: HeapExtent,
        max_bytes: u64,
    ) -> Option<crate::prefetch::PrefetchTicket> {
        let (first, pages) =
            pages_spanned(PAGE_BYTES + extent.offset, extent.len.min(max_bytes).max(1));
        self.pager.prefetch_run(first, pages)
    }

    /// [`BTree::prefetch_extent`] by key, at the cost of one tree
    /// descent on the calling thread; inline and absent values return
    /// `None` (nothing to overlap).
    pub fn prefetch_value(
        &self,
        key: &[u8],
        max_bytes: u64,
    ) -> Result<Option<crate::prefetch::PrefetchTicket>> {
        Ok(match self.lookup(key)? {
            Some(ValueRef::Heap(extent)) => self.prefetch_extent(extent, max_bytes),
            _ => None,
        })
    }

    /// Bulk-loads a tree from a stream of key/value pairs in strictly
    /// ascending key order, producing ~full pages.
    ///
    /// Heap values are written as they arrive; leaf pages are encoded
    /// as they fill but held back and written after the last value, so
    /// the heap is one unbroken run of ascending pages (see the module
    /// docs for the layout).
    ///
    /// # Errors
    /// Fails if keys are not strictly ascending.
    pub fn bulk_load<I>(path: &Path, pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let pager = Pager::create(path)?;
        let meta_page = pager.allocate()?;
        debug_assert_eq!(meta_page, 0);

        // Fill leaves left to right; `leaf_keys[i]` is the first key of
        // `leaf_pages[i]`.
        let mut heap = RunWriter::new(&pager);
        let mut leaf_pages: Vec<[u8; PAGE_SIZE]> = Vec::new();
        let mut leaf_keys: Vec<Vec<u8>> = Vec::new();
        let mut cur: Vec<(Vec<u8>, ValueRef)> = Vec::new();
        let mut cur_size = 7usize;
        let (mut key_count, mut value_bytes) = (0u64, 0u64);
        let mut seal_leaf = |cur: &mut Vec<(Vec<u8>, ValueRef)>| {
            leaf_keys.push(cur.first().map_or_else(Vec::new, |(key, _)| key.clone()));
            // A leaf's successor is the page after it; the links are
            // filled in once the heap's length fixes the page ids.
            let node = Node::Leaf {
                entries: std::mem::take(cur),
                next: NIL,
            };
            let mut page = [0u8; PAGE_SIZE];
            node.encode(&mut page);
            leaf_pages.push(page);
        };
        for (key, value) in pairs {
            if key.len() > KEY_MAX {
                return Err(StorageError::OutOfRange(format!(
                    "key length {} exceeds {KEY_MAX}",
                    key.len()
                )));
            }
            // `cur` is empty only before the first pair: a sealed leaf is
            // followed at once by the entry that did not fit it.
            if cur.last().is_some_and(|(prev, _)| prev >= &key) {
                return Err(StorageError::OutOfRange(
                    "bulk_load keys must be strictly ascending".into(),
                ));
            }
            let val_ref = if value.len() <= INLINE_MAX {
                ValueRef::Inline(value)
            } else {
                ValueRef::Heap(HeapExtent {
                    offset: heap.append(&value)?,
                    len: value.len() as u64,
                })
            };
            let esize = varint::len_u64(key.len() as u64) + key.len() + val_ref.encoded_len();
            if cur_size + esize > PAGE_SIZE {
                seal_leaf(&mut cur);
                cur_size = 7;
            }
            cur_size += esize;
            key_count += 1;
            value_bytes += val_ref.len();
            cur.push((key, val_ref));
        }
        // The last leaf, or the empty root of an empty tree.
        seal_leaf(&mut cur);
        let heap_bytes = heap.finish()?;

        let last_leaf = leaf_pages.len() - 1;
        let mut level: Vec<(Vec<u8>, PageId)> = Vec::with_capacity(leaf_pages.len());
        for (i, (mut page, first_key)) in leaf_pages.into_iter().zip(leaf_keys).enumerate() {
            let id = pager.allocate()?;
            if i < last_leaf {
                page[3..7].copy_from_slice(&(id + 1).to_le_bytes());
            }
            pager.write(id, &page)?;
            level.push((first_key, id));
        }

        // Build internal levels bottom-up.
        let write_internal = |children: &mut Vec<PageId>, keys: &mut Vec<Vec<u8>>| {
            let id = pager.allocate()?;
            let mut page = [0u8; PAGE_SIZE];
            Node::Internal {
                children: std::mem::take(children),
                keys: std::mem::take(keys),
            }
            .encode(&mut page);
            pager.write(id, &page)?;
            Ok::<PageId, StorageError>(id)
        };
        let mut height = 0u32;
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut children: Vec<PageId> = Vec::new();
            let mut keys: Vec<Vec<u8>> = Vec::new();
            // First key under the node being filled.
            let mut node_key: Vec<u8> = Vec::new();
            let mut size = 3usize;
            for (key, page) in level {
                let separator = 4 + varint::len_u64(key.len() as u64) + key.len();
                if !children.is_empty() && size + separator > PAGE_SIZE {
                    let id = write_internal(&mut children, &mut keys)?;
                    next_level.push((std::mem::take(&mut node_key), id));
                    size = 3;
                }
                if children.is_empty() {
                    node_key = key;
                    size += 4;
                } else {
                    size += separator;
                    keys.push(key);
                }
                children.push(page);
            }
            let id = write_internal(&mut children, &mut keys)?;
            next_level.push((node_key, id));
            level = next_level;
        }
        let mut tree = Self {
            meta: Meta {
                root: level[0].1,
                height,
                key_count,
                value_bytes,
                heap_bytes,
            },
            pager,
        };
        tree.sync_meta()?;
        Ok(tree)
    }

    /// Iterates all `(key, value)` pairs in key order.
    pub fn iter(&self) -> Result<Iter<'_>> {
        let mut page = self.meta.root;
        for _ in 0..self.meta.height {
            match self.read_node(page)? {
                Node::Internal { children, .. } => page = children[0],
                Node::Leaf { .. } => {
                    return Err(StorageError::Corrupt("leaf above leaf level".into()))
                }
            }
        }
        Ok(Iter {
            tree: self,
            leaf: Some(page),
            entries: Vec::new(),
            pos: 0,
        })
    }

    // ---- internals ----

    fn sync_meta(&mut self) -> Result<()> {
        let mut buf = [0u8; PAGE_SIZE];
        self.meta.encode(&mut buf);
        self.pager.write(0, &buf)
    }

    fn read_node(&self, page: PageId) -> Result<Node> {
        let mut buf = [0u8; PAGE_SIZE];
        self.pager.read(page, &mut buf)?;
        Node::decode(&buf, self.meta.heap_bytes)
    }

    /// A reader over `len` file bytes starting at byte `pos`; the caller
    /// has checked the run against the file (see [`Meta::decode`] and
    /// [`Node::decode`]).
    fn extent_reader(&self, pos: u64, len: u64) -> ValueReader<'_> {
        let mut reader = ValueReader {
            tree: self,
            total: len,
            state: ReaderState::Extent {
                pos,
                remaining: len,
            },
            lookahead: None,
            chunks_since_hint: 0,
        };
        reader.hint_ahead();
        reader
    }

    /// Builds a [`ValueReader`] over a leaf entry's value — the single
    /// implementation behind [`BTree::get`], [`BTree::value_reader`] and
    /// [`Iter`].
    fn reader_for(&self, val: ValueRef) -> ValueReader<'_> {
        match val {
            ValueRef::Inline(v) => ValueReader {
                tree: self,
                total: v.len() as u64,
                state: ReaderState::Inline(v),
                lookahead: None,
                chunks_since_hint: 0,
            },
            // The heap starts on the page after the meta page.
            ValueRef::Heap(e) => self.extent_reader(PAGE_BYTES + e.offset, e.len),
        }
    }
}

fn child_index(keys: &[Vec<u8>], key: &[u8]) -> usize {
    // First child whose separator is > key; equal separators go right.
    match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

enum ReaderState {
    /// Inline value; emptied once emitted.
    Inline(Vec<u8>),
    /// `remaining` file bytes starting at byte `pos` are still to come.
    /// The run was checked against the file when the reader was built,
    /// so stepping through it is plain arithmetic.
    Extent { pos: u64, remaining: u64 },
}

/// Pages a reader keeps requested ahead of its own position (the
/// read/decode pipeline depth: ~64 KiB of postings in flight while the
/// consumer decodes).
const LOOKAHEAD_PAGES: u32 = 16;
/// Chunks consumed between lookahead refreshes. Re-hinting from the
/// current position overlaps the tail of the previous window — cheap,
/// because the worker steps over already-cached pages without I/O.
const REHINT_INTERVAL: u32 = 8;
/// A skip at least this long gets a hint of its own where it lands;
/// shorter hops stay inside the rolling window.
const LONG_HOP_BYTES: u64 = 4 * PAGE_BYTES;

/// A streaming cursor over one stored value (see
/// [`BTree::value_reader`]). Each [`ValueReader::read_chunk`] call pulls
/// at most one page's worth through the pager, so a consumer that
/// processes chunks incrementally holds O(pages in flight) bytes even
/// for multi-megabyte values.
///
/// # Lookahead
///
/// A reader over a heap value keeps a rolling prefetch window ahead of
/// itself: on open, every `REHINT_INTERVAL` chunks and after a long
/// skip, it hints the next `LOOKAHEAD_PAGES` pages of its own extent to
/// the [prefetcher](crate::prefetch), so chunk N+1 is in flight while
/// chunk N decodes. Dropping the reader drops the ticket, cancelling
/// whatever was not yet loaded.
pub struct ValueReader<'a> {
    tree: &'a BTree,
    total: u64,
    state: ReaderState,
    lookahead: Option<crate::prefetch::PrefetchTicket>,
    chunks_since_hint: u32,
}

impl ValueReader<'_> {
    /// Total value length in bytes (known up front from the leaf entry).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the value has zero bytes.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends the next chunk of the value to `out`, returning the number
    /// of bytes appended. `Ok(0)` signals the end of the value. A heap
    /// value's chunks end on file page boundaries (so each is at most
    /// `PAGE_SIZE` bytes, and only the first and last may be shorter);
    /// inline values arrive as a single chunk.
    ///
    /// Heap bytes are appended straight out of the pager's cache slot
    /// via [`crate::Pager::with_page`] (no intermediate page copy); the
    /// page is pinned only for the duration of the append, so a reader
    /// may stay open across an arbitrarily long scan without holding
    /// any latch between chunks.
    pub fn read_chunk(&mut self, out: &mut Vec<u8>) -> Result<usize> {
        match &mut self.state {
            ReaderState::Inline(v) => {
                let v = std::mem::take(v);
                out.extend_from_slice(&v);
                Ok(v.len())
            }
            ReaderState::Extent { pos, remaining } => {
                let at = (*pos % PAGE_BYTES) as usize;
                let take = (PAGE_BYTES - at as u64).min(*remaining) as usize;
                if take == 0 {
                    return Ok(0);
                }
                let page = (*pos / PAGE_BYTES) as PageId;
                self.tree
                    .pager
                    .with_page(page, |buf| out.extend_from_slice(&buf[at..at + take]))?;
                *pos += take as u64;
                *remaining -= take as u64;
                self.chunks_since_hint += 1;
                if self.chunks_since_hint >= REHINT_INTERVAL {
                    self.hint_ahead();
                }
                Ok(take)
            }
        }
    }

    /// Hints the next [`LOOKAHEAD_PAGES`] pages of the extent from the
    /// cursor's position. Replacing the ticket drops (cancels) the old
    /// one, which by now has either completed or fallen behind.
    fn hint_ahead(&mut self) {
        self.chunks_since_hint = 0;
        match self.state {
            ReaderState::Extent { pos, remaining } if remaining > 0 => {
                let (first, pages) = pages_spanned(pos, remaining);
                let hint = self
                    .tree
                    .pager
                    .prefetch_run(first, pages.min(LOOKAHEAD_PAGES));
                if hint.is_some() {
                    self.lookahead = hint;
                }
            }
            _ => self.lookahead = None,
        }
    }

    /// Drops up to `n` upcoming bytes **at chunk granularity**,
    /// returning how many were dropped. Only whole chunks (the bytes up
    /// to the next page boundary or the value's end, or the entire
    /// inline value) are skipped; the tail the caller still needs
    /// arrives via [`ValueReader::read_chunk`]. This is the disk half of
    /// a posting-list seek: chunk boundaries are known from the extent
    /// alone, so a skip of any length touches no page.
    pub fn skip_chunk_bytes(&mut self, n: u64) -> Result<u64> {
        match &mut self.state {
            ReaderState::Inline(v) => {
                if v.len() as u64 > n {
                    return Ok(0);
                }
                Ok(std::mem::take(v).len() as u64)
            }
            ReaderState::Extent { pos, remaining } => {
                // The first chunk ends at the next page boundary; every
                // later one is a whole page but the last.
                let first = (PAGE_BYTES - *pos % PAGE_BYTES).min(*remaining);
                let skipped = if n >= *remaining {
                    *remaining
                } else if n < first {
                    0
                } else {
                    first + (n - first) / PAGE_BYTES * PAGE_BYTES
                };
                *pos += skipped;
                *remaining -= skipped;
                if skipped >= LONG_HOP_BYTES {
                    self.hint_ahead();
                }
                Ok(skipped)
            }
        }
    }

    /// Materializes the remainder of the value (the implementation behind
    /// [`BTree::get`]).
    pub fn read_to_vec(mut self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.total as usize);
        while self.read_chunk(&mut out)? > 0 {}
        Ok(out)
    }
}

/// In-order iterator over all entries of a [`BTree`].
pub struct Iter<'a> {
    tree: &'a BTree,
    leaf: Option<PageId>,
    entries: Vec<(Vec<u8>, ValueRef)>,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.pos < self.entries.len() {
                let (key, val) = &self.entries[self.pos];
                self.pos += 1;
                let value = match self.tree.reader_for(val.clone()).read_to_vec() {
                    Ok(v) => v,
                    Err(e) => return Some(Err(e)),
                };
                return Some(Ok((key.clone(), value)));
            }
            let page = self.leaf?;
            match self.tree.read_node(page) {
                Ok(Node::Leaf { entries, next }) => {
                    self.entries = entries;
                    self.pos = 0;
                    self.leaf = (next != NIL).then_some(next);
                    if self.entries.is_empty() && self.leaf.is_none() {
                        return None;
                    }
                }
                Ok(Node::Internal { .. }) => {
                    self.leaf = None;
                    return Some(Err(StorageError::Corrupt("internal in leaf chain".into())));
                }
                Err(e) => {
                    self.leaf = None;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-btree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn pair(key: &str, value: &[u8]) -> (Vec<u8>, Vec<u8>) {
        (key.as_bytes().to_vec(), value.to_vec())
    }

    #[test]
    fn empty_tree_lookup() {
        let path = tmp("empty");
        let tree = BTree::bulk_load(&path, Vec::new()).unwrap();
        assert_eq!(tree.get(b"missing").unwrap(), None);
        assert!(!tree.contains(b"missing").unwrap());
        assert_eq!(tree.stats().key_count, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overflow_values_round_trip() {
        let path = tmp("overflow");
        let big: Vec<u8> = (0..50_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let pairs = vec![
            pair("big", &big),
            pair("big2", &big[..40_000]),
            pair("small", b"x"),
        ];
        let tree = BTree::bulk_load(&path, pairs).unwrap();
        assert_eq!(tree.get(b"big").unwrap().unwrap(), big);
        assert_eq!(tree.get(b"big2").unwrap().unwrap(), &big[..40_000]);
        assert_eq!(tree.get(b"small").unwrap().unwrap(), b"x");
        // meta | heap, packed to the byte | one leaf.
        let heap_pages = (big.len() + 40_000).div_ceil(PAGE_SIZE) as u32;
        assert_eq!(tree.stats().pages, 1 + heap_pages + 1);
        assert_eq!(tree.stats().value_bytes, big.len() as u64 + 40_001);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let path = tmp("unsorted");
        let pairs = vec![pair("b", b"1"), pair("a", b"2")];
        assert!(BTree::bulk_load(&path, pairs).is_err());
        // Equal neighbours are refused too, also across a leaf boundary.
        let dup = vec![pair("a", b"1"), pair("a", b"2")];
        assert!(BTree::bulk_load(&path, dup).is_err());
        let filler = vec![7u8; INLINE_MAX];
        let wide: Vec<_> = ["a", "b", "c", "d", "d"]
            .iter()
            .map(|k| pair(k, &filler))
            .collect();
        assert!(BTree::bulk_load(&path, wide).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bulk_load_empty() {
        let path = tmp("bulk-empty");
        let tree = BTree::bulk_load(&path, Vec::new()).unwrap();
        assert_eq!(tree.get(b"x").unwrap(), None);
        assert_eq!(tree.iter().unwrap().count(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmp("reopen");
        {
            let pairs =
                (0..500u32).map(|i| (format!("k{i:04}").into_bytes(), i.to_le_bytes().to_vec()));
            let mut tree = BTree::bulk_load(&path, pairs).unwrap();
            tree.flush().unwrap();
        }
        let tree = BTree::open(&path).unwrap();
        assert_eq!(tree.stats().key_count, 500);
        for i in 0..500u32 {
            assert_eq!(
                tree.get(format!("k{i:04}").as_bytes()).unwrap().unwrap(),
                i.to_le_bytes()
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn oversized_key_rejected() {
        let path = tmp("bigkey");
        let pairs = vec![(vec![7u8; KEY_MAX + 1], b"v".to_vec())];
        assert!(BTree::bulk_load(&path, pairs).is_err());
        let pairs = vec![(vec![7u8; KEY_MAX], b"v".to_vec())];
        assert!(BTree::bulk_load(&path, pairs).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bulk_load_with_overflow_values() {
        let path = tmp("bulk-ov");
        let big = vec![0xEEu8; 30_000];
        let pairs = vec![pair("aaa", &big), pair("bbb", b"tiny"), pair("ccc", &big)];
        let tree = BTree::bulk_load(&path, pairs).unwrap();
        assert_eq!(tree.get(b"aaa").unwrap().unwrap(), big);
        assert_eq!(tree.get(b"bbb").unwrap().unwrap(), b"tiny");
        assert_eq!(tree.get(b"ccc").unwrap().unwrap(), big);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_is_heap_then_leaves_then_internal_levels() {
        // Long keys make a deep tree out of few entries; every third
        // value goes to the heap.
        let path = tmp("layout");
        let pairs: Vec<_> = (0..600u32)
            .map(|i| {
                let mut key = format!("{i:04}").into_bytes();
                key.resize(900, b'k');
                let len = if i % 3 == 0 { 1500 } else { 10 };
                (key, vec![i as u8; len])
            })
            .collect();
        let mut tree = BTree::bulk_load(&path, pairs.clone()).unwrap();
        tree.flush().unwrap();
        assert!(tree.stats().height >= 3, "{:?}", tree.stats());
        let heap_pages = (200 * 1500usize).div_ceil(PAGE_SIZE);
        assert_eq!(tree.meta.heap_bytes, 200 * 1500);
        let file = std::fs::read(&path).unwrap();
        let tags: Vec<u8> = file.chunks(PAGE_SIZE).map(|page| page[0]).collect();
        let tree_pages = &tags[1 + heap_pages..];
        let leaves = tree_pages.iter().take_while(|&&t| t == TAG_LEAF).count();
        assert!(leaves > 100);
        assert!(tree_pages[leaves..].iter().all(|&t| t == TAG_INTERNAL));
        assert_eq!(
            tree.meta.root as usize,
            tags.len() - 1,
            "the root is written last"
        );
        let got: Vec<_> = tree.iter().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got, pairs);
        std::fs::remove_file(path).ok();
    }
}

/// What the file's own bytes can claim: every length and offset a
/// reader turns into page arithmetic is checked first.
#[cfg(test)]
mod untrusted_bytes_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-btree-untrusted");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    const HEAP_LEN: usize = 3 * PAGE_SIZE + 100;

    /// One inline value, one heap value of [`HEAP_LEN`] bytes:
    /// `meta | 4 heap pages | leaf (the root)`.
    fn fixture(path: &Path) -> Vec<u8> {
        let pairs = vec![
            (b"heap".to_vec(), vec![9u8; HEAP_LEN]),
            (b"inline".to_vec(), b"abc".to_vec()),
        ];
        let mut tree = BTree::bulk_load(path, pairs).unwrap();
        tree.flush().unwrap();
        assert_eq!((tree.meta.root, tree.stats().pages), (5, 6));
        std::fs::read(path).unwrap()
    }

    fn is_corrupt<T>(what: &str, result: Result<T>) {
        match result {
            Err(StorageError::Corrupt(_)) => {}
            Err(e) => panic!("{what}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{what}: expected Corrupt, got Ok"),
        }
    }

    /// Rewrites the root leaf's heap entry to `(len, offset)`.
    fn patch_heap_entry(file: &[u8], len: u64, offset: u64) -> Vec<u8> {
        let at = 5 * PAGE_SIZE;
        let page: &[u8; PAGE_SIZE] = file[at..at + PAGE_SIZE].try_into().unwrap();
        let Node::Leaf { mut entries, next } = Node::decode(page, u64::MAX).unwrap() else {
            panic!("root is a leaf");
        };
        assert_eq!(
            entries[0].1,
            ValueRef::Heap(HeapExtent {
                offset: 0,
                len: HEAP_LEN as u64
            })
        );
        entries[0].1 = ValueRef::Heap(HeapExtent { offset, len });
        let mut page = [0u8; PAGE_SIZE];
        Node::Leaf { entries, next }.encode(&mut page);
        let mut file = file.to_vec();
        file[at..at + PAGE_SIZE].copy_from_slice(&page);
        file
    }

    #[test]
    fn leaf_extents_are_checked_against_the_heap() {
        let path = tmp("leaf");
        let good = fixture(&path);
        let len = HEAP_LEN as u64;
        for (what, patched) in [
            ("one byte past the heap", patch_heap_entry(&good, len, 1)),
            ("length past the heap", patch_heap_entry(&good, len + 1, 0)),
            (
                "offset + length wraps",
                patch_heap_entry(&good, len, u64::MAX),
            ),
            ("huge length", patch_heap_entry(&good, u64::MAX, 0)),
            (
                "inline length in the heap",
                patch_heap_entry(&good, INLINE_MAX as u64, 0),
            ),
        ] {
            std::fs::write(&path, patched).unwrap();
            for tree in [
                BTree::open(&path).unwrap(),
                BTree::open_readonly(&path).unwrap(),
            ] {
                is_corrupt(what, tree.value_reader(b"heap"));
                is_corrupt(what, tree.get(b"heap"));
                is_corrupt(what, tree.get(b"inline"));
                is_corrupt(what, tree.value_len(b"heap"));
                is_corrupt(what, tree.value_front(b"heap", 64));
                is_corrupt(what, tree.prefetch_value(b"heap", 1 << 20));
                let first = tree.iter().unwrap().next().expect("one item");
                is_corrupt(what, first);
            }
        }
        // The longest extent that still fits reads back.
        std::fs::write(&path, patch_heap_entry(&good, len - 1, 1)).unwrap();
        let tree = BTree::open_readonly(&path).unwrap();
        assert_eq!(tree.get(b"heap").unwrap().unwrap(), vec![9u8; HEAP_LEN - 1]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn meta_runs_are_checked_against_the_file() {
        let path = tmp("meta");
        let good = fixture(&path);
        let patch = |at: usize, bytes: &[u8]| {
            let mut file = good.clone();
            file[at..at + bytes.len()].copy_from_slice(bytes);
            file
        };
        let page = PAGE_BYTES;
        for (what, patched) in [
            // 6 pages: the heap may hold at most 5 of them, less a root.
            (
                "heap fills the file",
                patch(32, &(5 * page + 1).to_le_bytes()),
            ),
            (
                "heap swallows the root",
                patch(32, &(5 * page).to_le_bytes()),
            ),
            ("heap length wraps", patch(32, &u64::MAX.to_le_bytes())),
            ("root past the file", patch(8, &6u32.to_le_bytes())),
            ("root in the heap", patch(8, &4u32.to_le_bytes())),
            ("root is the meta page", patch(8, &0u32.to_le_bytes())),
        ] {
            std::fs::write(&path, patched).unwrap();
            is_corrupt(what, BTree::open(&path));
            is_corrupt(what, BTree::open_readonly(&path));
        }
        // A heap length that stays inside the file is believed, and the
        // leaf entries are then held to it.
        std::fs::write(&path, patch(32, &(HEAP_LEN as u64 - 1).to_le_bytes())).unwrap();
        let tree = BTree::open_readonly(&path).unwrap();
        is_corrupt("extent passes the shortened heap", tree.get(b"heap"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn chained_overflow_format_is_refused_with_a_rebuild_hint() {
        let path = tmp("old-magic");
        let mut file = fixture(&path);
        // The chained-overflow format, and the one that ended in a
        // statistics run.
        for old in [b"SIBTREE1", b"SIBTREE2"] {
            file[..8].copy_from_slice(old);
            std::fs::write(&path, &file).unwrap();
            for result in [BTree::open(&path), BTree::open_readonly(&path)] {
                let err = result.err().expect("refused");
                assert!(
                    err.to_string().contains("rebuild it with `si build`"),
                    "{err}"
                );
            }
        }
        file[..8].copy_from_slice(b"SIBTREE9");
        std::fs::write(&path, &file).unwrap();
        assert!(BTree::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }
}

#[cfg(test)]
mod value_reader_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-btree-vreader");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn patterned(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i + salt) % 251) as u8).collect()
    }

    /// Bulk-loads `values` under keys `k000, k001, …` (so heap order is
    /// slice order) and hands the tree to `check` twice: opened
    /// buffered, then read-only (mmap when the platform allows).
    /// Behaviour must be identical on both read paths.
    fn on_both_read_paths(name: &str, values: &[Vec<u8>], check: impl Fn(&BTree)) {
        let path = tmp(name);
        let pairs = values.iter().enumerate().map(|(i, v)| (key(i), v.clone()));
        BTree::bulk_load(&path, pairs).unwrap().flush().unwrap();
        let buffered = BTree::open(&path).unwrap();
        assert!(!buffered.is_mapped());
        check(&buffered);
        check(&BTree::open_readonly(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    fn key(i: usize) -> Vec<u8> {
        format!("k{i:03}").into_bytes()
    }

    /// The chunk lengths a reader must deliver for `len` bytes at heap
    /// byte `offset`: up to the next page boundary, whole pages, the
    /// rest. Heap page boundaries are file page boundaries.
    fn expected_chunks(offset: u64, len: u64) -> Vec<usize> {
        let mut chunks = Vec::new();
        let (mut pos, mut left) = (offset, len);
        while left > 0 {
            let take = (PAGE_BYTES - pos % PAGE_BYTES).min(left);
            chunks.push(take as usize);
            pos += take;
            left -= take;
        }
        chunks
    }

    fn drain(reader: &mut ValueReader<'_>) -> (Vec<u8>, Vec<usize>) {
        let (mut out, mut chunks) = (Vec::new(), Vec::new());
        loop {
            let n = reader.read_chunk(&mut out).unwrap();
            if n == 0 {
                return (out, chunks);
            }
            chunks.push(n);
        }
    }

    #[test]
    fn inline_value_single_chunk() {
        on_both_read_paths("inline", &[b"small value".to_vec()], |tree| {
            let mut r = tree.value_reader(&key(0)).unwrap().unwrap();
            assert_eq!(r.len(), 11);
            assert!(!r.is_empty());
            let mut out = Vec::new();
            assert_eq!(r.read_chunk(&mut out).unwrap(), 11);
            assert_eq!(out, b"small value");
            assert_eq!(r.read_chunk(&mut out).unwrap(), 0);
            assert!(tree.value_reader(b"missing").unwrap().is_none());
        });
    }

    #[test]
    fn overflow_value_streams_page_sized_chunks() {
        let big: Vec<u8> = (0..60_000u32).flat_map(|i| i.to_le_bytes()).collect();
        on_both_read_paths("stream", std::slice::from_ref(&big), |tree| {
            let mut r = tree.value_reader(&key(0)).unwrap().unwrap();
            assert_eq!(r.len(), big.len() as u64);
            let (out, chunks) = drain(&mut r);
            assert_eq!(out, big);
            // First in the heap, so page-aligned: whole pages and a tail.
            assert_eq!(chunks.len(), big.len().div_ceil(PAGE_SIZE));
            assert!(chunks[..chunks.len() - 1].iter().all(|&n| n == PAGE_SIZE));
            assert_eq!(chunks[chunks.len() - 1], big.len() % PAGE_SIZE);
        });
    }

    #[test]
    fn read_to_vec_matches_get() {
        let values = vec![
            Vec::new(),
            b"tiny".to_vec(),
            vec![0xAB; INLINE_MAX],
            vec![0xCD; INLINE_MAX + 1],
            vec![0xEF; 3 * PAGE_SIZE + 17],
        ];
        on_both_read_paths("same", &values, |tree| {
            for (i, v) in values.iter().enumerate() {
                assert_eq!(&tree.get(&key(i)).unwrap().unwrap(), v);
                let r = tree.value_reader(&key(i)).unwrap().unwrap();
                assert_eq!(&r.read_to_vec().unwrap(), v);
            }
        });
    }

    #[test]
    fn streaming_reads_do_not_spike_cache() {
        // A value much larger than the pager cache still streams through:
        // the reader only ever asks for one page at a time.
        on_both_read_paths("coldcache", &[vec![7u8; 64 * PAGE_SIZE]], |tree| {
            let mut r = tree.value_reader(&key(0)).unwrap().unwrap();
            let mut total = 0usize;
            let mut chunk = Vec::new();
            loop {
                chunk.clear();
                let n = r.read_chunk(&mut chunk).unwrap();
                if n == 0 {
                    break;
                }
                // The consumer drops every chunk: peak memory is one page.
                assert!(chunk.len() <= PAGE_SIZE);
                total += n;
            }
            assert_eq!(total, 64 * PAGE_SIZE);
        });
    }

    #[test]
    fn heap_values_at_their_edges_read_and_skip_like_slices() {
        let p = PAGE_SIZE;
        let mut values = vec![
            patterned(INLINE_MAX, 0),         // the longest inline value
            patterned(INLINE_MAX + 1, 1),     // the shortest heap value, at heap byte 0
            patterned(p - INLINE_MAX - 1, 2), // ends exactly on a page boundary
            patterned(p, 3),                  // exactly one page, page-aligned
            patterned(2 * p - 1, 4),          // leaves one byte of its last page
            patterned(1500, 5),               // starts on the last byte of a page
        ];
        // Many 1–2 KB values sharing pages.
        values.extend((0..40).map(|i| patterned(INLINE_MAX + 1 + 23 * i, 6 + i)));
        values.push(patterned(3 * 1024 * 1024 + 123, 99)); // several megabytes
        on_both_read_paths("edges", &values, |tree| {
            let mut heap_end = 0u64;
            for (i, value) in values.iter().enumerate() {
                let len = value.len() as u64;
                assert_eq!(
                    tree.get(&key(i)).unwrap().as_ref(),
                    Some(value),
                    "value {i}"
                );
                let chunks = match tree.lookup(&key(i)).unwrap().unwrap() {
                    ValueRef::Inline(v) => {
                        assert!(v.len() <= INLINE_MAX);
                        vec![v.len()]
                    }
                    ValueRef::Heap(HeapExtent {
                        offset,
                        len: stored,
                    }) => {
                        assert!(value.len() > INLINE_MAX);
                        // Packed: each value starts where the last ended.
                        assert_eq!((offset, stored), (heap_end, len), "value {i}");
                        heap_end += len;
                        expected_chunks(offset, len)
                    }
                };
                let mut r = tree.value_reader(&key(i)).unwrap().unwrap();
                let (out, got_chunks) = drain(&mut r);
                assert_eq!(&out, value, "value {i}");
                assert_eq!(got_chunks, chunks, "value {i}");

                // The front is one descent: an inline value whole, the
                // first bytes of a heap value even across a page edge.
                for want in [0usize, 1, 96, 5000] {
                    let before = crate::pager::thread_counters();
                    let front = tree.value_front(&key(i), want).unwrap().unwrap();
                    let d = crate::pager::thread_counters().delta_since(&before);
                    assert_eq!(d.descents, 1, "value {i}");
                    assert_eq!(front.len, len, "value {i}");
                    let inline = value.len() <= INLINE_MAX;
                    assert_eq!(front.extent.is_none(), inline, "value {i}");
                    let take = if inline {
                        value.len()
                    } else {
                        want.min(value.len())
                    };
                    assert_eq!(front.bytes, value[..take], "value {i} want {want}");
                }

                // A skip drops the longest run of leading whole chunks
                // that fits in `n`, and the reader resumes right after.
                let mut sweep = vec![0, 1, len - 1, len, len + 1, u64::MAX];
                let mut boundary = 0u64;
                for &chunk in chunks.iter().take(4) {
                    boundary += chunk as u64;
                    sweep.extend([boundary - 1, boundary, boundary + 1]);
                }
                sweep.extend((0..len).step_by(value.len() / 7 + 1));
                for n in sweep {
                    let want: u64 = chunks
                        .iter()
                        .scan(0u64, |sum, &c| {
                            *sum += c as u64;
                            Some(*sum)
                        })
                        .take_while(|&sum| sum <= n)
                        .last()
                        .unwrap_or(0);
                    let mut r = tree.value_reader(&key(i)).unwrap().unwrap();
                    assert_eq!(r.skip_chunk_bytes(n).unwrap(), want, "value {i} skip {n}");
                    let (rest, _) = drain(&mut r);
                    assert_eq!(&rest[..], &value[want as usize..], "value {i} skip {n}");
                }
            }
            assert_eq!(heap_end, tree.meta.heap_bytes);
            // The cases the value lengths above were chosen for.
            let offset_of = |i: usize| match tree.lookup(&key(i)).unwrap().unwrap() {
                ValueRef::Heap(e) => e.offset,
                ValueRef::Inline(_) => panic!("value {i} is inline"),
            };
            assert_eq!(offset_of(1), 0);
            assert_eq!(offset_of(3), PAGE_BYTES);
            assert_eq!(offset_of(5) % PAGE_BYTES, PAGE_BYTES - 1);
        });
    }

    #[test]
    fn skip_landing_exactly_on_page_boundary() {
        // Skipping exactly k whole chunks must drop exactly k chunks
        // and resume delivery at the first byte of chunk k.
        let value = patterned(4 * PAGE_SIZE, 0);
        on_both_read_paths("skip-boundary", std::slice::from_ref(&value), |tree| {
            for k in 1..=3u64 {
                let n = k * PAGE_BYTES;
                let mut r = tree.value_reader(&key(0)).unwrap().unwrap();
                assert_eq!(r.skip_chunk_bytes(n).unwrap(), n);
                let mut out = Vec::new();
                assert_eq!(r.read_chunk(&mut out).unwrap(), PAGE_SIZE);
                assert_eq!(&out[..], &value[n as usize..n as usize + PAGE_SIZE]);
            }
        });
    }

    #[test]
    fn skip_past_end_of_list_stops_at_last_chunk() {
        // Asking for more than remains skips every whole chunk and
        // leaves the reader cleanly at end-of-value.
        let value = patterned(3 * PAGE_SIZE + 17, 0);
        on_both_read_paths("skip-past-end", std::slice::from_ref(&value), |tree| {
            let mut r = tree.value_reader(&key(0)).unwrap().unwrap();
            let skipped = r.skip_chunk_bytes(u64::MAX).unwrap();
            assert_eq!(skipped, value.len() as u64);
            let mut out = Vec::new();
            assert_eq!(r.read_chunk(&mut out).unwrap(), 0, "nothing left");
            // A second over-ask on an exhausted reader is a no-op.
            let mut r = tree.value_reader(&key(0)).unwrap().unwrap();
            assert_eq!(r.skip_chunk_bytes(u64::MAX).unwrap(), value.len() as u64);
            assert_eq!(r.skip_chunk_bytes(u64::MAX).unwrap(), 0);
        });
    }

    #[test]
    fn skip_mid_chunk_keeps_boundary_chunk_whole() {
        // A skip that lands inside a chunk must not skip it: the whole
        // boundary chunk arrives via read_chunk (chunk-granularity
        // contract), and the bytes after it line up.
        let value = patterned(3 * PAGE_SIZE, 0);
        on_both_read_paths("skip-mid", std::slice::from_ref(&value), |tree| {
            let mut r = tree.value_reader(&key(0)).unwrap().unwrap();
            assert_eq!(
                r.skip_chunk_bytes(PAGE_BYTES + 100).unwrap(),
                PAGE_BYTES,
                "only the whole first chunk is skippable"
            );
            let (rest, _) = drain(&mut r);
            assert_eq!(&rest[..], &value[PAGE_SIZE..]);
        });
    }

    #[test]
    fn skip_on_zero_length_and_inline_values() {
        on_both_read_paths("skip-zero", &[Vec::new(), b"abc".to_vec()], |tree| {
            // Zero-length value: nothing to skip, reader is already done.
            let mut r = tree.value_reader(&key(0)).unwrap().unwrap();
            assert!(r.is_empty());
            assert_eq!(r.skip_chunk_bytes(10).unwrap(), 0);
            let mut out = Vec::new();
            assert_eq!(r.read_chunk(&mut out).unwrap(), 0);
            // Inline value: skippable only as a whole.
            let mut r = tree.value_reader(&key(1)).unwrap().unwrap();
            assert_eq!(r.skip_chunk_bytes(2).unwrap(), 0, "partial inline skip");
            assert_eq!(r.read_chunk(&mut out).unwrap(), 3);
            let mut r = tree.value_reader(&key(1)).unwrap().unwrap();
            assert_eq!(r.skip_chunk_bytes(3).unwrap(), 3, "whole inline skip");
            assert_eq!(r.read_chunk(&mut out).unwrap(), 0);
            // Zero-byte skip request is a no-op from any state.
            let mut r = tree.value_reader(&key(1)).unwrap().unwrap();
            assert_eq!(r.skip_chunk_bytes(0).unwrap(), 0);
        });
    }

    #[test]
    fn boundary_page_descended_once_after_skip() {
        // A skip is arithmetic over the extent: it descends to no page,
        // however far it hops, and the chunk it stops on costs the one
        // descent of the read that delivers it.
        let value = patterned(200 * PAGE_SIZE, 0);
        on_both_read_paths("skip-once", std::slice::from_ref(&value), |tree| {
            let mut r = tree.value_reader(&key(0)).unwrap().unwrap();
            let before = crate::pager::thread_counters();
            let n = 150 * PAGE_BYTES + 1;
            assert_eq!(r.skip_chunk_bytes(n).unwrap(), n - 1);
            let d = crate::pager::thread_counters().delta_since(&before);
            assert_eq!(d.hits + d.misses, 0, "a skip touches no page: {d:?}");
            let mut out = Vec::new();
            assert_eq!(r.read_chunk(&mut out).unwrap(), PAGE_SIZE);
            assert_eq!(&out[..], &value[150 * PAGE_SIZE..151 * PAGE_SIZE]);
            let d = crate::pager::thread_counters().delta_since(&before);
            assert_eq!(d.hits + d.misses, 1, "the boundary page, once: {d:?}");
        });
    }
}

#[cfg(test)]
mod value_len_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-btree-vlen");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn value_len_matches_stored_sizes() {
        let path = tmp("basic");
        let pairs = vec![
            (b"big".to_vec(), vec![7u8; 20_000]), // a heap value
            (b"small".to_vec(), vec![1, 2, 3]),
        ];
        let tree = BTree::bulk_load(&path, pairs).unwrap();
        assert_eq!(tree.value_len(b"small").unwrap(), Some(3));
        assert_eq!(tree.value_len(b"big").unwrap(), Some(20_000));
        assert_eq!(tree.value_len(b"missing").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn value_len_on_bulk_loaded_tree() {
        let path = tmp("bulk");
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..500u32)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    vec![0u8; (i % 97) as usize],
                )
            })
            .collect();
        let tree = BTree::bulk_load(&path, pairs.clone()).unwrap();
        for (k, v) in &pairs {
            assert_eq!(tree.value_len(k).unwrap(), Some(v.len() as u64));
        }
        std::fs::remove_file(&path).ok();
    }
}
