//! Page-granular file access with a sharded write-back LRU cache.
//!
//! All index structures sit on 4096-byte pages (the system page size of the
//! paper's test machine). The [`Pager`] owns the backing file, hands out
//! copies of page contents, and buffers writes through an LRU cache whose
//! eviction flushes dirty pages. The cache is deliberately small by
//! default — the paper "did not implement a caching system over the B+Tree
//! and relied on the page buffering of the operating system"; ours exists
//! mainly to batch writes during bulk load, and its size is tunable so
//! experiments can approximate the paper's cold(ish)-cache regime.
//!
//! # Concurrency
//!
//! The cache is split into shards, each behind its own mutex, and file
//! I/O uses positioned reads/writes (`pread`/`pwrite`) so no global file
//! lock exists: worker threads streaming *different* posting lists hit
//! different shards and read different file offsets fully in parallel,
//! which is what the multi-query service layer (`si_service`) relies on.
//! Page count and I/O counters are atomics. A small cache (as used by
//! the eviction tests and the cold-cache experiments) collapses to a
//! single shard, preserving exact global-LRU behavior.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::{Result, StorageError};

/// Size of every on-disk page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within one pager file (page 0 is the first).
pub type PageId = u32;

/// A fixed-size page buffer.
pub type PageBuf = Box<[u8; PAGE_SIZE]>;

fn new_page_buf() -> PageBuf {
    vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap()
}

/// Default number of cached pages (1 MiB).
pub const DEFAULT_CACHE_PAGES: usize = 256;

/// Shards only pay off once the cache is big enough for each shard to
/// hold a meaningful working set; below this capacity the pager uses a
/// single shard (exact global LRU).
const PAGES_PER_SHARD: usize = 64;
const MAX_SHARDS: usize = 16;

struct CacheSlot {
    page: PageId,
    buf: PageBuf,
    dirty: bool,
    /// Loaded by the prefetcher and not yet consumed by a real read.
    /// The first hit clears it (and counts as a *useful* prefetch);
    /// eviction while still set counts as a *wasted* one.
    prefetched: bool,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// Intrusive-list LRU over cache slots. Head = most recently used.
struct Lru {
    slots: Vec<CacheSlot>,
    map: HashMap<PageId, usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[i].prev = NIL;
        self.slots[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn get(&mut self, page: PageId) -> Option<usize> {
        let i = *self.map.get(&page)?;
        self.touch(i);
        Some(i)
    }

    /// Slot index of `page` without touching LRU order — used by the
    /// prefetcher, whose probes must not perturb recency.
    fn peek(&self, page: PageId) -> Option<usize> {
        self.map.get(&page).copied()
    }

    /// Inserts a slot for `page`, evicting the LRU slot if full.
    /// Returns `(slot_index, evicted, evicted_prefetched)` where
    /// `evicted` is the page and buffer of a dirty evictee that must be
    /// written back, and `evicted_prefetched` reports whether the
    /// recycled slot still carried an unconsumed prefetch (a *wasted*
    /// prefetch, clean or dirty).
    fn insert(
        &mut self,
        page: PageId,
        buf: PageBuf,
        dirty: bool,
        prefetched: bool,
    ) -> (usize, Option<(PageId, PageBuf)>, bool) {
        debug_assert!(!self.map.contains_key(&page));
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(CacheSlot {
                page,
                buf,
                dirty,
                prefetched,
                prev: NIL,
                next: NIL,
            });
            self.push_front(i);
            self.map.insert(page, i);
            return (i, None, false);
        }
        // Reuse the tail slot.
        let i = self.tail;
        self.unlink(i);
        let slot = &mut self.slots[i];
        let old_page = slot.page;
        let was_dirty = slot.dirty;
        let was_prefetched = slot.prefetched;
        let old_buf = std::mem::replace(&mut slot.buf, buf);
        slot.page = page;
        slot.dirty = dirty;
        slot.prefetched = prefetched;
        self.map.remove(&old_page);
        self.map.insert(page, i);
        self.push_front(i);
        let evicted = was_dirty.then_some((old_page, old_buf));
        (i, evicted, was_prefetched)
    }
}

/// Cache traffic counters — the pager end of the query-service
/// observability surface (`EvalStats` / `si query --verbose`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerCounters {
    /// Read requests served from the cache.
    pub hits: u64,
    /// Read requests that went to disk (== physical reads).
    pub misses: u64,
    /// Cache slots recycled (clean or dirty).
    pub evictions: u64,
    /// B+Tree root-to-leaf descents ([`crate::BTree`] lookups by key);
    /// per thread and per process only — zero in [`Pager::counters`].
    pub descents: u64,
}

impl PagerCounters {
    /// Field-wise `self - earlier`, saturating. The idiom for
    /// attributing traffic to a window: snapshot before, snapshot
    /// after, diff.
    pub fn delta_since(&self, earlier: &PagerCounters) -> PagerCounters {
        PagerCounters {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            descents: self.descents.saturating_sub(earlier.descents),
        }
    }
}

/// Pager traffic summed over **every pager in the process** since
/// start: the feed for the long-lived metrics registry (`pager.*`
/// dotted names), where per-instance [`Pager::counters`] would vanish
/// with each reopened index. `mmap_reads` counts page reads served
/// straight from a read-only mapping (those also count as `hits`, the
/// OS page cache being the cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessPagerCounters {
    /// Read requests served from a cache (including the mmap path).
    pub hits: u64,
    /// Read requests that went to disk (== physical reads).
    pub misses: u64,
    /// Cache slots recycled with a dirty write-back.
    pub evictions: u64,
    /// Reads served zero-copy from a read-only mmap.
    pub mmap_reads: u64,
    /// B+Tree root-to-leaf descents ([`crate::BTree`] lookups by key).
    pub descents: u64,
    /// Pages loaded (or mmap-touched) ahead of a consumer by the
    /// prefetcher's workers.
    pub prefetch_issued: u64,
    /// Prefetched pages later consumed by a real read (first hit on a
    /// still-flagged slot).
    pub prefetch_useful: u64,
    /// Prefetched pages evicted before any consumer read them.
    pub prefetch_wasted: u64,
    /// Prefetch requests abandoned: ticket dropped, cap-rejected at
    /// submit, or their pager closed before the worker got there.
    pub prefetch_cancelled: u64,
}

static PROCESS_HITS: AtomicU64 = AtomicU64::new(0);
static PROCESS_MISSES: AtomicU64 = AtomicU64::new(0);
static PROCESS_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static PROCESS_MMAP_READS: AtomicU64 = AtomicU64::new(0);
static PROCESS_DESCENTS: AtomicU64 = AtomicU64::new(0);
static PROCESS_PREFETCH_ISSUED: AtomicU64 = AtomicU64::new(0);
static PROCESS_PREFETCH_USEFUL: AtomicU64 = AtomicU64::new(0);
static PROCESS_PREFETCH_WASTED: AtomicU64 = AtomicU64::new(0);
static PROCESS_PREFETCH_CANCELLED: AtomicU64 = AtomicU64::new(0);

/// Process-wide pager traffic totals, monotone since process start and
/// aggregated across all pagers (and all threads). Scrape-and-mirror
/// this into a metrics registry; for per-query attribution use
/// [`thread_counters`] instead.
pub fn process_counters() -> ProcessPagerCounters {
    ProcessPagerCounters {
        hits: PROCESS_HITS.load(Ordering::Relaxed),
        misses: PROCESS_MISSES.load(Ordering::Relaxed),
        evictions: PROCESS_EVICTIONS.load(Ordering::Relaxed),
        mmap_reads: PROCESS_MMAP_READS.load(Ordering::Relaxed),
        descents: PROCESS_DESCENTS.load(Ordering::Relaxed),
        prefetch_issued: PROCESS_PREFETCH_ISSUED.load(Ordering::Relaxed),
        prefetch_useful: PROCESS_PREFETCH_USEFUL.load(Ordering::Relaxed),
        prefetch_wasted: PROCESS_PREFETCH_WASTED.load(Ordering::Relaxed),
        prefetch_cancelled: PROCESS_PREFETCH_CANCELLED.load(Ordering::Relaxed),
    }
}

/// Bumps the worker-side *issued* total (pages actually loaded or
/// touched ahead of a consumer). Worker threads only.
pub(crate) fn bump_prefetch_issued(n: u64) {
    if n > 0 {
        PROCESS_PREFETCH_ISSUED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Bumps the *cancelled* total (requests abandoned before completion).
pub(crate) fn bump_prefetch_cancelled(n: u64) {
    if n > 0 {
        PROCESS_PREFETCH_CANCELLED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Prefetch activity attributable to the **calling thread**: `hints`
/// counts requests this thread submitted, `useful` counts prefetched
/// pages this thread's reads consumed. Like [`thread_counters`], deltas
/// are exact for single-threaded query execution — hints are submitted
/// on the query thread, and a useful prefetch is observed at the hit,
/// which also happens on the query thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadPrefetchCounters {
    /// Prefetch requests submitted by this thread.
    pub hints: u64,
    /// Prefetched pages consumed by this thread's reads.
    pub useful: u64,
}

impl ThreadPrefetchCounters {
    /// Field-wise `self - earlier`, saturating.
    pub fn delta_since(&self, earlier: &ThreadPrefetchCounters) -> ThreadPrefetchCounters {
        ThreadPrefetchCounters {
            hints: self.hints.saturating_sub(earlier.hints),
            useful: self.useful.saturating_sub(earlier.useful),
        }
    }
}

thread_local! {
    static THREAD_PREFETCH: std::cell::Cell<ThreadPrefetchCounters> =
        const { std::cell::Cell::new(ThreadPrefetchCounters { hints: 0, useful: 0 }) };
}

/// Bumps the calling thread's submitted-hint count (no process-wide
/// mirror: process totals track worker-side pages, not requests).
pub(crate) fn bump_prefetch_hint_local() {
    THREAD_PREFETCH.with(|c| {
        let mut v = c.get();
        v.hints += 1;
        c.set(v);
    });
}

fn bump_prefetch_useful_local() {
    PROCESS_PREFETCH_USEFUL.fetch_add(1, Ordering::Relaxed);
    THREAD_PREFETCH.with(|c| {
        let mut v = c.get();
        v.useful += 1;
        c.set(v);
    });
}

fn bump_prefetch_wasted(n: u64) {
    if n > 0 {
        PROCESS_PREFETCH_WASTED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Snapshot of the calling thread's prefetch attribution counters,
/// monotone since thread start (see [`ThreadPrefetchCounters`]).
pub fn thread_prefetch_counters() -> ThreadPrefetchCounters {
    THREAD_PREFETCH.with(|c| c.get())
}

thread_local! {
    // Per-thread mirror of the pager counters. Every bump site below
    // updates the per-pager atomics, the process-wide statics above,
    // and this cell, so a query that runs entirely on one thread —
    // which is how both the CLI and the service's batch workers
    // execute — can attribute cache traffic to itself exactly, even
    // while other workers hammer the same pager.
    static THREAD_COUNTERS: std::cell::Cell<PagerCounters> =
        const { std::cell::Cell::new(PagerCounters { hits: 0, misses: 0, evictions: 0, descents: 0 }) };
}

/// Counts one B+Tree descent against the process and the calling thread.
pub(crate) fn bump_descent() {
    PROCESS_DESCENTS.fetch_add(1, Ordering::Relaxed);
    THREAD_COUNTERS.with(|c| {
        let mut v = c.get();
        v.descents += 1;
        c.set(v);
    });
}

#[inline]
fn bump_thread(hits: u64, misses: u64, evictions: u64) {
    if hits > 0 {
        PROCESS_HITS.fetch_add(hits, Ordering::Relaxed);
    }
    if misses > 0 {
        PROCESS_MISSES.fetch_add(misses, Ordering::Relaxed);
    }
    if evictions > 0 {
        PROCESS_EVICTIONS.fetch_add(evictions, Ordering::Relaxed);
    }
    THREAD_COUNTERS.with(|c| {
        let mut v = c.get();
        v.hits += hits;
        v.misses += misses;
        v.evictions += evictions;
        c.set(v);
    });
}

/// Cache hit/miss/eviction totals accumulated by the **calling thread**
/// across every pager, monotone since thread start. Unlike
/// [`Pager::counters`] (a process-wide total shared by all threads),
/// deltas of this snapshot are exact for work the current thread did —
/// the query engine uses it to make per-query `EvalStats` attribution
/// precise under concurrency.
pub fn thread_counters() -> PagerCounters {
    THREAD_COUNTERS.with(|c| c.get())
}

/// The backing file with positioned (seek-free) page I/O, shareable
/// across threads without a lock on Unix.
struct PageFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl PageFile {
    fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            Self { file }
        }
        #[cfg(not(unix))]
        {
            Self {
                file: Mutex::new(file),
            }
        }
    }

    #[cfg(unix)]
    fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let base = id as u64 * PAGE_SIZE as u64;
        // Pages past the materialized end of file read as zeroes.
        let mut read = 0;
        while read < PAGE_SIZE {
            match self.file.read_at(&mut buf[read..], base + read as u64) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        buf[read..].fill(0);
        Ok(())
    }

    #[cfg(unix)]
    fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, id as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    /// Reads `buf.len() / PAGE_SIZE` consecutive pages starting at
    /// `start` in **one** positioned read — the prefetcher's batching
    /// primitive (one syscall where the consumer would issue one per
    /// page). Bytes past end of file read as zeroes, like `read_page`.
    #[cfg(unix)]
    fn read_span(&self, start: PageId, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        debug_assert_eq!(buf.len() % PAGE_SIZE, 0);
        let base = start as u64 * PAGE_SIZE as u64;
        let mut read = 0;
        while read < buf.len() {
            match self.file.read_at(&mut buf[read..], base + read as u64) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        buf[read..].fill(0);
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_span(&self, start: PageId, buf: &mut [u8]) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        debug_assert_eq!(buf.len() % PAGE_SIZE, 0);
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.seek(SeekFrom::Start(start as u64 * PAGE_SIZE as u64))?;
        let mut read = 0;
        while read < buf.len() {
            match file.read(&mut buf[read..]) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        buf[read..].fill(0);
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        let mut read = 0;
        while read < PAGE_SIZE {
            match file.read(&mut buf[read..]) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        buf[read..].fill(0);
        Ok(())
    }

    #[cfg(not(unix))]
    fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        file.write_all(buf)?;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        #[cfg(unix)]
        {
            Ok(self.file.metadata()?.len())
        }
        #[cfg(not(unix))]
        {
            let file = self.file.lock().unwrap_or_else(|e| e.into_inner());
            Ok(file.metadata()?.len())
        }
    }

    fn set_len(&self, len: u64) -> Result<()> {
        #[cfg(unix)]
        {
            self.file.set_len(len)?;
        }
        #[cfg(not(unix))]
        {
            let file = self.file.lock().unwrap_or_else(|e| e.into_inner());
            file.set_len(len)?;
        }
        Ok(())
    }
}

/// A read-only `mmap(2)` of a whole pager file, unmapped on drop.
///
/// Raw-syscall shim rather than a binding crate: the constants are the
/// POSIX values shared by Linux and the BSDs, and std already links
/// libc on Unix so the symbols resolve without any new dependency.
/// Mappings are only taken over *immutable* index files (every build
/// and every shard-ingest writes a fresh directory and never mutates an
/// opened one), so the file cannot shrink under the map.
#[cfg(unix)]
mod mapped {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_SHARED: i32 = 1;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    pub struct MappedFile {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ over a file no live code path
    // writes; the pointer is valid for `len` bytes until drop.
    unsafe impl Send for MappedFile {}
    unsafe impl Sync for MappedFile {}

    impl MappedFile {
        /// Maps `len` bytes of `file` read-only; `len` must be non-zero.
        pub fn map(file: &File, len: usize) -> std::io::Result<Self> {
            // SAFETY: null hint, length validated non-zero by the
            // caller, fd lives across the call; failure is checked.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MappedFile {
        fn drop(&mut self) {
            // SAFETY: exactly the region map() returned; errors at
            // unmap leak the region, which is harmless at drop.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Non-Unix stub: mapping always fails, so read-only opens fall back to
/// the buffered pager.
#[cfg(not(unix))]
mod mapped {
    use std::fs::File;

    pub struct MappedFile;

    impl MappedFile {
        pub fn map(_file: &File, _len: usize) -> std::io::Result<Self> {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "mmap unavailable on this platform",
            ))
        }

        pub fn as_slice(&self) -> &[u8] {
            &[]
        }
    }
}

/// The shared state behind a [`Pager`]. Lives in an `Arc` so the
/// prefetcher's worker threads can hold `Weak` references: a request
/// whose pager has been dropped simply fails to upgrade and is counted
/// cancelled — closing an index implicitly cancels its outstanding
/// prefetches without any explicit unregistration.
pub(crate) struct PagerInner {
    file: PageFile,
    map: Option<mapped::MappedFile>,
    page_count: AtomicU32,
    shards: Vec<Mutex<Lru>>,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    cache_hits: AtomicU64,
    evictions: AtomicU64,
}

impl PagerInner {
    fn with_file(file: File, page_count: u32, cache_pages: usize) -> Self {
        let cache_pages = cache_pages.max(1);
        let n_shards = (cache_pages / PAGES_PER_SHARD).clamp(1, MAX_SHARDS);
        let per_shard = cache_pages.div_ceil(n_shards);
        Self {
            file: PageFile::new(file),
            map: None,
            page_count: AtomicU32::new(page_count),
            shards: (0..n_shards)
                .map(|_| Mutex::new(Lru::new(per_shard)))
                .collect(),
            physical_reads: AtomicU64::new(0),
            physical_writes: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks the shard owning `id`; a poisoned lock (a panic mid-operation
    /// in another thread) still yields the data, matching the previous
    /// panic-oblivious mutex semantics.
    fn shard(&self, id: PageId) -> std::sync::MutexGuard<'_, Lru> {
        let i = id as usize % self.shards.len();
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Creates a new empty pager file at `path`, truncating any existing
    /// file.
    pub fn create(path: &Path) -> Result<Self> {
        Self::create_with_cache(path, DEFAULT_CACHE_PAGES)
    }

    /// [`Pager::create`] with an explicit cache capacity in pages.
    pub fn create_with_cache(path: &Path, cache_pages: usize) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::with_file(file, 0, cache_pages))
    }

    /// Opens an existing pager file.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_cache(path, DEFAULT_CACHE_PAGES)
    }

    /// [`Pager::open`] with an explicit cache capacity in pages.
    pub fn open_with_cache(path: &Path, cache_pages: usize) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} not a multiple of page size"
            )));
        }
        let page_count = u32::try_from(len / PAGE_SIZE as u64)
            .map_err(|_| StorageError::Corrupt("too many pages".into()))?;
        Ok(Self::with_file(file, page_count, cache_pages))
    }

    /// Opens an existing pager file read-only, preferring an mmap of
    /// the whole file (borrowed, latch-free page reads; see the struct
    /// docs). Falls back to the buffered read-write pager on any
    /// mapping failure — empty files, exotic filesystems, non-Unix
    /// platforms — so callers need no error handling of their own.
    pub fn open_readonly(path: &Path) -> Result<Self> {
        match Self::open_mapped(path) {
            Ok(pager) => Ok(pager),
            Err(_) => Self::open(path),
        }
    }

    fn open_mapped(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().read(true).open(path)?;
        let len = file.metadata()?.len();
        if len == 0 || len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} not mappable as whole pages"
            )));
        }
        let page_count = u32::try_from(len / PAGE_SIZE as u64)
            .map_err(|_| StorageError::Corrupt("too many pages".into()))?;
        let map_len =
            usize::try_from(len).map_err(|_| StorageError::Corrupt("file too large".into()))?;
        let map = mapped::MappedFile::map(&file, map_len)?;
        let mut pager = Self::with_file(file, page_count, 1);
        pager.map = Some(map);
        Ok(pager)
    }

    /// Whether this pager serves reads from a read-only mmap.
    pub fn is_mapped(&self) -> bool {
        self.map.is_some()
    }

    fn mapped_page(&self, id: PageId) -> Result<Option<&[u8; PAGE_SIZE]>> {
        let Some(map) = &self.map else {
            return Ok(None);
        };
        if id >= self.page_count() {
            return Err(StorageError::OutOfRange(format!("page {id}")));
        }
        let off = id as usize * PAGE_SIZE;
        let page = map.as_slice()[off..off + PAGE_SIZE]
            .try_into()
            .expect("page-sized slice");
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        PROCESS_MMAP_READS.fetch_add(1, Ordering::Relaxed);
        bump_thread(1, 0, 0);
        Ok(Some(page))
    }

    fn read_only_rejected(op: &str) -> StorageError {
        StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            format!("{op} on a read-only (mmap) pager"),
        ))
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire)
    }

    /// `(physical_reads, physical_writes)` performed so far.
    pub fn io_stats(&self) -> (u64, u64) {
        (
            self.physical_reads.load(Ordering::Relaxed),
            self.physical_writes.load(Ordering::Relaxed),
        )
    }

    /// Cache hit/miss/eviction counters since creation.
    pub fn counters(&self) -> PagerCounters {
        PagerCounters {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.physical_reads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            descents: 0,
        }
    }

    /// Writes back a dirty evictee. Must be called while still holding
    /// the latch of the shard the eviction came from: the evicted page
    /// maps to the same shard (ids are distributed by `id % shards`), so
    /// the latch blocks concurrent readers of that page until its bytes
    /// are durable — releasing first would let them read stale data.
    fn write_back(&self, evicted: Option<(PageId, PageBuf)>) -> Result<()> {
        if let Some((page, buf)) = evicted {
            self.file.write_page(page, &buf)?;
            self.physical_writes.fetch_add(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            bump_thread(0, 0, 1);
        }
        Ok(())
    }

    /// Allocates a fresh zeroed page at the end of the file.
    pub fn allocate(&self) -> Result<PageId> {
        if self.map.is_some() {
            return Err(Self::read_only_rejected("allocate"));
        }
        // CAS loop instead of fetch_add: a plain increment would wrap
        // MAX → 0 before any corrective store, handing a concurrent
        // allocator a duplicate low page id.
        let mut cur = self.page_count.load(Ordering::Acquire);
        let id = loop {
            if cur == PageId::MAX {
                return Err(StorageError::OutOfRange("page id overflow".into()));
            }
            match self.page_count.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break cur,
                Err(seen) => cur = seen,
            }
        };
        let mut shard = self.shard(id);
        // The id became visible to readers at the CAS, before this latch
        // was taken; a racing read of the (zeroed, past-EOF) page may
        // have inserted a slot already. Reuse it rather than tripping
        // Lru::insert's no-duplicates contract.
        if let Some(slot) = shard.get(id) {
            shard.slots[slot].buf.fill(0);
            shard.slots[slot].dirty = true;
            shard.slots[slot].prefetched = false;
        } else {
            let (_, evicted, was_prefetched) = shard.insert(id, new_page_buf(), true, false);
            bump_prefetch_wasted(was_prefetched as u64);
            self.write_back(evicted)?;
        }
        drop(shard);
        Ok(id)
    }

    /// Reads page `id` into `out`.
    pub fn read(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        if let Some(page) = self.mapped_page(id)? {
            out.copy_from_slice(page);
            return Ok(());
        }
        if id >= self.page_count() {
            return Err(StorageError::OutOfRange(format!("page {id}")));
        }
        let mut shard = self.shard(id);
        if let Some(slot) = shard.get(id) {
            if shard.slots[slot].prefetched {
                shard.slots[slot].prefetched = false;
                bump_prefetch_useful_local();
            }
            out.copy_from_slice(&shard.slots[slot].buf[..]);
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            bump_thread(1, 0, 0);
            return Ok(());
        }
        // Miss: read while holding the shard latch so two threads cannot
        // insert the same page twice; other shards proceed in parallel.
        let mut buf = new_page_buf();
        self.file.read_page(id, &mut buf)?;
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
        bump_thread(0, 1, 0);
        out.copy_from_slice(&buf[..]);
        let (_, evicted, was_prefetched) = shard.insert(id, buf, false, false);
        bump_prefetch_wasted(was_prefetched as u64);
        self.write_back(evicted)
    }

    /// Runs `f` over page `id`'s bytes **in place** in the cache slot —
    /// the zero-copy read path of the posting pipeline. Where
    /// [`Pager::read`] copies the whole page into a caller buffer,
    /// `with_page` lends the cached buffer directly, so consumers that
    /// extract only part of a page (one chunk of a B+Tree heap value,
    /// say) pay one copy instead of two.
    ///
    /// # Pinning contract
    ///
    /// The page is pinned by the owning shard latch for exactly the
    /// duration of `f`; the borrow cannot escape the closure, and no
    /// latch is held between calls — which is what lets long-lived
    /// readers ([`crate::btree::ValueReader`], and the posting feeds
    /// built over it) stay open across an entire scan without blocking
    /// writers or other shards. `f` must not call back into this pager
    /// (the shard latch is not reentrant).
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        if let Some(page) = self.mapped_page(id)? {
            return Ok(f(page));
        }
        if id >= self.page_count() {
            return Err(StorageError::OutOfRange(format!("page {id}")));
        }
        let mut shard = self.shard(id);
        if let Some(slot) = shard.get(id) {
            if shard.slots[slot].prefetched {
                shard.slots[slot].prefetched = false;
                bump_prefetch_useful_local();
            }
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            bump_thread(1, 0, 0);
            return Ok(f(&shard.slots[slot].buf));
        }
        // Miss: read while holding the shard latch so two threads cannot
        // insert the same page twice; other shards proceed in parallel.
        let mut buf = new_page_buf();
        self.file.read_page(id, &mut buf)?;
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
        bump_thread(0, 1, 0);
        let (slot, evicted, was_prefetched) = shard.insert(id, buf, false, false);
        bump_prefetch_wasted(was_prefetched as u64);
        let out = f(&shard.slots[slot].buf);
        self.write_back(evicted)?;
        Ok(out)
    }

    /// Writes `data` as the new contents of page `id`.
    pub fn write(&self, id: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        if self.map.is_some() {
            return Err(Self::read_only_rejected("write"));
        }
        if id >= self.page_count() {
            return Err(StorageError::OutOfRange(format!("page {id}")));
        }
        let mut shard = self.shard(id);
        if let Some(slot) = shard.get(id) {
            shard.slots[slot].buf.copy_from_slice(data);
            shard.slots[slot].dirty = true;
            shard.slots[slot].prefetched = false;
            return Ok(());
        }
        let mut buf = new_page_buf();
        buf.copy_from_slice(data);
        let (_, evicted, was_prefetched) = shard.insert(id, buf, true, false);
        bump_prefetch_wasted(was_prefetched as u64);
        self.write_back(evicted)
    }

    /// Flushes all dirty pages (and the file) to disk. A no-op on a
    /// read-only mapped pager (nothing can be dirty).
    pub fn flush(&self) -> Result<()> {
        if self.map.is_some() {
            return Ok(());
        }
        // Ensure the file is long enough even if tail pages were never
        // explicitly flushed.
        let want_len = self.page_count() as u64 * PAGE_SIZE as u64;
        if self.file.len()? < want_len {
            self.file.set_len(want_len)?;
        }
        for shard in &self.shards {
            let mut g = shard.lock().unwrap_or_else(|e| e.into_inner());
            let dirty: Vec<usize> = (0..g.slots.len()).filter(|&i| g.slots[i].dirty).collect();
            for i in dirty {
                let page = g.slots[i].page;
                // Split borrow: copy out then write.
                let buf = g.slots[i].buf.clone();
                self.file.write_page(page, &buf)?;
                self.physical_writes.fetch_add(1, Ordering::Relaxed);
                g.slots[i].dirty = false;
            }
        }
        Ok(())
    }

    /// Total size of the file in bytes after a flush.
    pub fn size_bytes(&self) -> u64 {
        self.page_count() as u64 * PAGE_SIZE as u64
    }

    // ---- prefetch-worker surface (no hit/miss accounting) ----
    //
    // These run on prefetcher worker threads. They deliberately bypass
    // the hit/miss/eviction counters: a speculative load is not a cache
    // miss the consumer suffered, and a probe must not perturb LRU
    // recency. Their traffic is accounted under `prefetch.*` instead.

    /// Whether `id` has a cached copy. Does not touch LRU order or any
    /// counter.
    pub(crate) fn is_cached(&self, id: PageId) -> bool {
        self.shard(id).peek(id).is_some()
    }

    /// Reads consecutive pages starting at `start` in one positioned
    /// read, without counting a miss (see `PageFile::read_span`).
    pub(crate) fn read_span_raw(&self, start: PageId, buf: &mut [u8]) -> Result<()> {
        self.file.read_span(start, buf)
    }

    /// Inserts a speculatively read page into the cache, flagged
    /// `prefetched`. Returns `false` (and drops the bytes) if the page
    /// is already resident — a concurrent consumer beat the worker to
    /// it, which must not clobber a dirtied copy or reset its flag.
    pub(crate) fn insert_prefetched(&self, id: PageId, page: &[u8; PAGE_SIZE]) -> Result<bool> {
        if id >= self.page_count() {
            return Ok(false);
        }
        let mut shard = self.shard(id);
        if shard.peek(id).is_some() {
            return Ok(false);
        }
        let mut buf = new_page_buf();
        buf.copy_from_slice(page);
        let (_, evicted, was_prefetched) = shard.insert(id, buf, false, true);
        bump_prefetch_wasted(was_prefetched as u64);
        self.write_back(evicted)?;
        Ok(true)
    }

    /// Borrow of page `id` in the read-only mapping, if this pager is
    /// mapped and the id is in range. No counters (unlike the consumer
    /// path through `mapped_page`): used for madvise-style touch reads.
    pub(crate) fn peek_mapped(&self, id: PageId) -> Option<&[u8]> {
        let map = self.map.as_ref()?;
        if id >= self.page_count() {
            return None;
        }
        let off = id as usize * PAGE_SIZE;
        Some(&map.as_slice()[off..off + PAGE_SIZE])
    }
}

/// A file of fixed-size pages with a sharded write-back LRU cache.
///
/// Thread-safe: each cache shard sits behind its own mutex and file I/O
/// is positioned, so concurrent readers of different pages proceed in
/// parallel (see the module docs). The state lives behind an `Arc` so
/// the [prefetcher](crate::prefetch) can reference it weakly from its
/// worker pool; the handle itself stays single-owner.
///
/// # Read-only mmap mode
///
/// [`Pager::open_readonly`] maps the whole file instead of buffering
/// pages: every read is served as a borrowed slice of the mapping with
/// **no shard latch and no copy**, mutations are rejected, and flush is
/// a no-op. Reads under the map count as cache hits (the OS page cache
/// is the cache). Any mapping failure falls back to the buffered pager
/// transparently.
pub struct Pager {
    inner: std::sync::Arc<PagerInner>,
}

impl Pager {
    fn from_inner(inner: PagerInner) -> Self {
        Self {
            inner: std::sync::Arc::new(inner),
        }
    }

    /// Creates a new empty pager file at `path`, truncating any existing
    /// file.
    pub fn create(path: &Path) -> Result<Self> {
        Ok(Self::from_inner(PagerInner::create(path)?))
    }

    /// [`Pager::create`] with an explicit cache capacity in pages.
    pub fn create_with_cache(path: &Path, cache_pages: usize) -> Result<Self> {
        Ok(Self::from_inner(PagerInner::create_with_cache(
            path,
            cache_pages,
        )?))
    }

    /// Opens an existing pager file.
    pub fn open(path: &Path) -> Result<Self> {
        Ok(Self::from_inner(PagerInner::open(path)?))
    }

    /// [`Pager::open`] with an explicit cache capacity in pages.
    pub fn open_with_cache(path: &Path, cache_pages: usize) -> Result<Self> {
        Ok(Self::from_inner(PagerInner::open_with_cache(
            path,
            cache_pages,
        )?))
    }

    /// Opens an existing pager file read-only, preferring an mmap of
    /// the whole file (see the struct docs). Falls back to the buffered
    /// read-write pager on any mapping failure.
    pub fn open_readonly(path: &Path) -> Result<Self> {
        Ok(Self::from_inner(PagerInner::open_readonly(path)?))
    }

    /// Whether this pager serves reads from a read-only mmap.
    pub fn is_mapped(&self) -> bool {
        self.inner.is_mapped()
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    /// `(physical_reads, physical_writes)` performed so far.
    pub fn io_stats(&self) -> (u64, u64) {
        self.inner.io_stats()
    }

    /// Cache hit/miss/eviction counters since creation.
    pub fn counters(&self) -> PagerCounters {
        self.inner.counters()
    }

    /// Allocates a fresh zeroed page at the end of the file.
    pub fn allocate(&self) -> Result<PageId> {
        self.inner.allocate()
    }

    /// Reads page `id` into `out`.
    pub fn read(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.inner.read(id, out)
    }

    /// Runs `f` over page `id`'s bytes **in place** in the cache slot —
    /// the zero-copy read path of the posting pipeline; see
    /// `PagerInner::with_page` for the pinning contract (the page is
    /// pinned by the shard latch exactly for the duration of `f`, and
    /// `f` must not reenter the pager).
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        self.inner.with_page(id, f)
    }

    /// Writes `data` as the new contents of page `id`.
    pub fn write(&self, id: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        self.inner.write(id, data)
    }

    /// Flushes all dirty pages (and the file) to disk.
    pub fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    /// Total size of the file in bytes after a flush.
    pub fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    /// Asks the prefetcher to pull the `pages` pages starting at `start`
    /// into the page cache (buffered mode) or touch them into the OS
    /// page cache (mmap mode), ahead of a consumer about to stream them.
    /// Returns `None` when prefetching is disabled, the queue cap is
    /// reached, or there is nothing to do. Dropping the ticket cancels
    /// whatever has not happened yet.
    ///
    /// Safe only against pages no writer mutates concurrently — the
    /// B+Tree guarantees this (a written tree is never mutated), and
    /// speculative loads of stale bytes are shed at insert time if a
    /// consumer got there first.
    pub fn prefetch_run(&self, start: PageId, pages: u32) -> Option<PrefetchTicket> {
        if self.hint_window_resident(start, pages) {
            return None;
        }
        crate::prefetch::submit(std::sync::Arc::downgrade(&self.inner), start, pages)
    }

    /// True when the hinted window is (heuristically) already
    /// cache-resident, so submitting would only wake a worker to step
    /// over resident pages — and contend on shard latches with the very
    /// consumer the hint is meant to help. That wakeup-and-walk is
    /// pure overhead on fully warm scans, so the hint is suppressed.
    ///
    /// The probe checks the two *ends* of the window; probing only the
    /// start page would break cold rolling re-hints, whose start is
    /// exactly the page the previous hint just loaded. Both probes are
    /// counter- and LRU-neutral. A wrong guess fails safe: a window
    /// that straddles an eviction gap submits as before, and the
    /// worker's walk over its resident prefix is cheap. Mapped pagers
    /// always submit — OS page-cache residency is not cheaply
    /// observable, and their touch reads have no latches to contend.
    fn hint_window_resident(&self, start: PageId, pages: u32) -> bool {
        if pages == 0 || self.inner.is_mapped() {
            return false;
        }
        let far = start.saturating_add(pages - 1);
        self.inner.is_cached(start) && (far == start || self.inner.is_cached(far))
    }
}

pub use crate::prefetch::PrefetchTicket;

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-storage-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn allocate_read_write_round_trip() {
        let path = tmp("rw");
        let pager = Pager::create(&path).unwrap();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_ne!(a, b);
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        pager.write(b, &page).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        pager.read(b, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);
        pager.read(a, &mut out).unwrap();
        assert_eq!(out, [0u8; PAGE_SIZE]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmp("persist");
        {
            let pager = Pager::create(&path).unwrap();
            for i in 0..10u8 {
                let id = pager.allocate().unwrap();
                let mut page = [0u8; PAGE_SIZE];
                page[7] = i;
                pager.write(id, &page).unwrap();
            }
            pager.flush().unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        assert_eq!(pager.page_count(), 10);
        let mut out = [0u8; PAGE_SIZE];
        for i in 0..10u8 {
            pager.read(i as PageId, &mut out).unwrap();
            assert_eq!(out[7], i);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let path = tmp("evict");
        let pager = Pager::create_with_cache(&path, 2).unwrap();
        let ids: Vec<_> = (0..8).map(|_| pager.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut page = [0u8; PAGE_SIZE];
            page[0] = i as u8 + 1;
            pager.write(id, &page).unwrap();
        }
        pager.flush().unwrap();
        let mut out = [0u8; PAGE_SIZE];
        for (i, &id) in ids.iter().enumerate() {
            pager.read(id, &mut out).unwrap();
            assert_eq!(out[0], i as u8 + 1, "page {id}");
        }
        let (reads, writes) = pager.io_stats();
        assert!(writes >= 6, "expected evictions to hit disk, got {writes}");
        assert!(reads >= 6, "expected cache misses, got {reads}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn thread_counters_attribute_exactly_under_concurrency() {
        // Two threads hammer the same pager; each thread's TLS delta
        // must equal exactly its own access count, while the shared
        // counters see the blended total.
        let path = tmp("tls");
        let pager = std::sync::Arc::new(Pager::create(&path).unwrap());
        let id = pager.allocate().unwrap();
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 1;
        pager.write(id, &page).unwrap();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let spawn = |reps: u64| {
            let pager = std::sync::Arc::clone(&pager);
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let before = thread_counters();
                barrier.wait();
                let mut out = [0u8; PAGE_SIZE];
                for _ in 0..reps {
                    pager.read(id, &mut out).unwrap();
                }
                let d = thread_counters().delta_since(&before);
                assert_eq!(d.hits + d.misses, reps, "thread did {reps} reads");
                d
            })
        };
        let global_before = pager.counters();
        let (a, b) = (spawn(400), spawn(300));
        let (da, db) = (a.join().unwrap(), b.join().unwrap());
        let dg = pager.counters().delta_since(&global_before);
        assert_eq!(da.hits + da.misses + db.hits + db.misses, 700);
        assert_eq!(dg.hits + dg.misses, 700);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn process_counters_accumulate_across_pagers() {
        // Two separate pagers both feed the same process-wide totals;
        // the delta across a known access pattern covers every read.
        let before = process_counters();
        for name in ["proc-a", "proc-b"] {
            let path = tmp(name);
            let pager = Pager::create_with_cache(&path, 4).unwrap();
            let id = pager.allocate().unwrap();
            pager.flush().unwrap();
            let mut out = [0u8; PAGE_SIZE];
            for _ in 0..5 {
                pager.read(id, &mut out).unwrap();
            }
            std::fs::remove_file(path).ok();
        }
        let after = process_counters();
        // Other tests run concurrently, so only assert our contribution
        // as a lower bound: 10 reads happened on this thread.
        assert!(
            after.hits + after.misses >= before.hits + before.misses + 10,
            "process totals must cover this thread's 10 reads: {before:?} -> {after:?}"
        );
        assert!(after.mmap_reads >= before.mmap_reads);
    }

    #[test]
    fn out_of_range_rejected() {
        let path = tmp("oob");
        let pager = Pager::create(&path).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        assert!(matches!(
            pager.read(0, &mut out),
            Err(StorageError::OutOfRange(_))
        ));
        assert!(matches!(
            pager.write(3, &out),
            Err(StorageError::OutOfRange(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_rejects_ragged_file() {
        let path = tmp("ragged");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 1]).unwrap();
        assert!(matches!(Pager::open(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lru_touch_keeps_hot_pages() {
        let path = tmp("lru");
        let pager = Pager::create_with_cache(&path, 2).unwrap();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        let c = pager.allocate().unwrap();
        pager.flush().unwrap();
        let mut out = [0u8; PAGE_SIZE];
        pager.read(a, &mut out).unwrap();
        pager.read(b, &mut out).unwrap();
        pager.read(a, &mut out).unwrap(); // touch a
        pager.read(c, &mut out).unwrap(); // evicts b, not a
        let (reads_before, _) = pager.io_stats();
        pager.read(a, &mut out).unwrap(); // should be a hit
        let (reads_after, _) = pager.io_stats();
        assert_eq!(reads_before, reads_after);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let path = tmp("counters");
        let pager = Pager::create_with_cache(&path, 4).unwrap();
        let ids: Vec<_> = (0..4).map(|_| pager.allocate().unwrap()).collect();
        pager.flush().unwrap();
        let mut out = [0u8; PAGE_SIZE];
        // First pass misses only if pages fell out; with cap 4 they are
        // all resident after allocate, so reads are hits.
        for &id in &ids {
            pager.read(id, &mut out).unwrap();
        }
        let c = pager.counters();
        assert_eq!(c.hits, 4);
        assert_eq!(c.misses, 0);
        std::fs::remove_file(path).ok();
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;

    #[test]
    fn concurrent_readers_and_writers_on_distinct_pages() {
        let path = std::env::temp_dir().join(format!("si-pager-conc-{}", std::process::id()));
        let pager = std::sync::Arc::new(Pager::create_with_cache(&path, 8).unwrap());
        let pages: Vec<PageId> = (0..32).map(|_| pager.allocate().unwrap()).collect();
        std::thread::scope(|scope| {
            for (w, chunk) in pages.chunks(8).enumerate() {
                let pager = pager.clone();
                let chunk = chunk.to_vec();
                scope.spawn(move || {
                    for &id in &chunk {
                        let mut page = [0u8; PAGE_SIZE];
                        page[0] = w as u8 + 1;
                        page[1..5].copy_from_slice(&id.to_le_bytes());
                        pager.write(id, &page).unwrap();
                    }
                    for &id in &chunk {
                        let mut out = [0u8; PAGE_SIZE];
                        pager.read(id, &mut out).unwrap();
                        assert_eq!(out[0], w as u8 + 1);
                        assert_eq!(PageId::from_le_bytes(out[1..5].try_into().unwrap()), id);
                    }
                });
            }
        });
        pager.flush().unwrap();
        // Everything is durable and uncorrupted after the scramble.
        for (w, chunk) in pages.chunks(8).enumerate() {
            for &id in chunk {
                let mut out = [0u8; PAGE_SIZE];
                pager.read(id, &mut out).unwrap();
                assert_eq!(out[0], w as u8 + 1, "page {id}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parallel_shared_reads_see_consistent_data() {
        // Many threads hammer the same page set through a sharded cache;
        // every read must observe exactly the bytes written, and the
        // cache must serve the hot set mostly from memory.
        let path = std::env::temp_dir().join(format!("si-pager-shared-{}", std::process::id()));
        let pager = std::sync::Arc::new(Pager::create_with_cache(&path, 256).unwrap());
        let pages: Vec<PageId> = (0..64).map(|_| pager.allocate().unwrap()).collect();
        for &id in &pages {
            let mut page = [0u8; PAGE_SIZE];
            page[..4].copy_from_slice(&id.to_le_bytes());
            page[PAGE_SIZE - 4..].copy_from_slice(&id.to_le_bytes());
            pager.write(id, &page).unwrap();
        }
        pager.flush().unwrap();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let pager = pager.clone();
                let pages = pages.clone();
                scope.spawn(move || {
                    let mut out = [0u8; PAGE_SIZE];
                    for round in 0..50 {
                        let id = pages[(t * 13 + round * 7) % pages.len()];
                        pager.read(id, &mut out).unwrap();
                        assert_eq!(PageId::from_le_bytes(out[..4].try_into().unwrap()), id);
                        assert_eq!(
                            PageId::from_le_bytes(out[PAGE_SIZE - 4..].try_into().unwrap()),
                            id
                        );
                    }
                });
            }
        });
        let c = pager.counters();
        assert!(c.hits > 0, "hot pages should be cache hits: {c:?}");
        std::fs::remove_file(&path).ok();
    }
}
