//! Overlapped posting I/O: a small worker pool that pulls pages into
//! the pager cache ahead of the consumer that will read them.
//!
//! The paper's query cost is dominated by posting-list scans over the
//! B+Tree's heap extents. Those reads are synchronous in the executor:
//! a cursor that exhausts its decode window blocks on the pager before
//! the next page arrives. Decode time is pure slack we can overlap
//! reads under — so the executor (and `ValueReader` itself) submit
//! *hints* here, and two daemon workers materialize them while the
//! consumer decodes.
//!
//! There is one request shape: a **run** of contiguous ascending pages.
//! A stored value is one extent of the file, so every hint is
//! `(first page, page count)`; the worker reads the run several pages
//! per positioned read, stepping over pages that are already cached.
//!
//! # Lifecycle and cancellation
//!
//! `submit` enqueues a request and returns a [`PrefetchTicket`].
//! Dropping the ticket cancels whatever has not happened yet (workers
//! re-check the flag at every page boundary); [`PrefetchTicket::detach`]
//! makes a hint fire-and-forget. Requests hold only a `Weak` reference
//! to the pager, so dropping an index cancels its outstanding requests
//! naturally — an upgrade failure counts as cancelled. A process-wide
//! cap ([`QUEUED_PAGES_CAP`]) bounds queued work; submissions over the
//! cap are rejected (counted cancelled) rather than queued.
//!
//! # mmap mode
//!
//! A mapped pager has no slot cache to populate; the worker instead
//! performs `madvise(WILLNEED)`-style *touch reads* of the mapped
//! bytes, faulting pages into the OS page cache. Only `issued` is
//! accounted there — with no cache slot there is no first-hit or
//! eviction event to classify a touch as useful or wasted.
//!
//! # Accounting
//!
//! Worker-side traffic lands in the process-wide `prefetch.*` counters
//! (`issued`/`useful`/`wasted`/`cancelled`, see
//! [`crate::process_counters`]); submission and consumption are also
//! mirrored per-thread ([`crate::thread_prefetch_counters`]) so a query
//! can attribute its own hints and useful hits exactly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

use crate::pager::{
    bump_prefetch_cancelled, bump_prefetch_hint_local, bump_prefetch_issued, PageId, PagerInner,
    PAGE_SIZE,
};

/// Worker threads serving all pagers in the process.
const WORKERS: usize = 2;

/// Pages fetched per positioned read when the run allows.
const BATCH_PAGES: u32 = 8;

/// Process-wide bound on queued prefetch pages (16 MiB of 4 KiB
/// pages). Keeps a storm of hints from ballooning the queue; rejected
/// submissions count as cancelled.
pub const QUEUED_PAGES_CAP: usize = 4096;

static PREFETCH_ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables prefetching (default: enabled). With
/// it disabled, `submit` returns `None` after a single atomic load —
/// the knob behind `--prefetch false`.
pub fn set_prefetch_enabled(on: bool) {
    PREFETCH_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether prefetching is globally enabled.
pub fn prefetch_enabled() -> bool {
    PREFETCH_ENABLED.load(Ordering::Relaxed)
}

struct Request {
    pager: Weak<PagerInner>,
    start: PageId,
    pages: u32,
    cancel: Arc<AtomicBool>,
}

struct QueueState {
    queue: VecDeque<Request>,
    queued_pages: usize,
}

struct Scheduler {
    state: Mutex<QueueState>,
    work: Condvar,
}

static SCHEDULER: OnceLock<Arc<Scheduler>> = OnceLock::new();

fn scheduler() -> &'static Arc<Scheduler> {
    SCHEDULER.get_or_init(|| {
        let sched = Arc::new(Scheduler {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                queued_pages: 0,
            }),
            work: Condvar::new(),
        });
        for i in 0..WORKERS {
            let sched = Arc::clone(&sched);
            std::thread::Builder::new()
                .name(format!("si-prefetch-{i}"))
                .spawn(move || worker_loop(sched))
                .expect("spawn prefetch worker");
        }
        sched
    })
}

/// Handle to one submitted prefetch request. Dropping it cancels
/// whatever the worker has not done yet; a request that already
/// completed is unaffected. [`PrefetchTicket::detach`] turns the hint
/// fire-and-forget.
pub struct PrefetchTicket {
    cancel: Option<Arc<AtomicBool>>,
}

impl PrefetchTicket {
    /// Consumes the ticket without cancelling: the request runs (or
    /// stays queued) to completion. For hints whose beneficiary cannot
    /// conveniently hold the ticket, e.g. the next query in a batch.
    pub fn detach(mut self) {
        self.cancel = None;
    }
}

impl Drop for PrefetchTicket {
    fn drop(&mut self) {
        if let Some(cancel) = &self.cancel {
            cancel.store(true, Ordering::Relaxed);
        }
    }
}

/// Enqueues a prefetch request (see the module docs). Returns `None` —
/// submitting nothing — when prefetching is disabled, the request is
/// empty, or the queued-pages cap would be exceeded.
pub(crate) fn submit(pager: Weak<PagerInner>, start: PageId, pages: u32) -> Option<PrefetchTicket> {
    if pages == 0 || !prefetch_enabled() {
        return None;
    }
    let sched = scheduler();
    let cancel = Arc::new(AtomicBool::new(false));
    {
        let mut st = sched.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.queued_pages + pages as usize > QUEUED_PAGES_CAP {
            bump_prefetch_cancelled(1);
            return None;
        }
        st.queued_pages += pages as usize;
        st.queue.push_back(Request {
            pager,
            start,
            pages,
            cancel: Arc::clone(&cancel),
        });
    }
    sched.work.notify_one();
    bump_prefetch_hint_local();
    Some(PrefetchTicket {
        cancel: Some(cancel),
    })
}

fn worker_loop(sched: Arc<Scheduler>) {
    loop {
        let req = {
            let mut st = sched.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(req) = st.queue.pop_front() {
                    break req;
                }
                st = sched.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let reserved = req.pages as usize;
        run_request(&req);
        let mut st = sched.state.lock().unwrap_or_else(|e| e.into_inner());
        st.queued_pages = st.queued_pages.saturating_sub(reserved);
    }
}

fn run_request(req: &Request) {
    if req.cancel.load(Ordering::Relaxed) {
        bump_prefetch_cancelled(1);
        return;
    }
    let Some(pager) = req.pager.upgrade() else {
        // The index was closed while the request was queued.
        bump_prefetch_cancelled(1);
        return;
    };
    run_pages(&pager, req);
}

/// Loads a contiguous ascending run of pages, batching the reads.
fn run_pages(pager: &PagerInner, req: &Request) {
    let end = req
        .start
        .saturating_add(req.pages)
        .min(pager.page_count().max(req.start));
    let mut cur = req.start;
    if pager.is_mapped() {
        while cur < end {
            if req.cancel.load(Ordering::Relaxed) {
                bump_prefetch_cancelled(1);
                return;
            }
            if let Some(page) = pager.peek_mapped(cur) {
                touch(page);
                bump_prefetch_issued(1);
            }
            cur += 1;
        }
        return;
    }
    let mut batch = vec![0u8; BATCH_PAGES as usize * PAGE_SIZE];
    while cur < end {
        if req.cancel.load(Ordering::Relaxed) {
            bump_prefetch_cancelled(1);
            return;
        }
        // Already resident (a rolling hint overlaps the window before
        // it): step over the page without touching the disk, the LRU
        // order or any counter.
        if pager.is_cached(cur) {
            cur += 1;
            continue;
        }
        let span = BATCH_PAGES.min(end - cur);
        let window = &mut batch[..span as usize * PAGE_SIZE];
        if pager.read_span_raw(cur, window).is_err() {
            return;
        }
        for i in 0..span {
            let off = i as usize * PAGE_SIZE;
            let page: &[u8; PAGE_SIZE] = batch[off..off + PAGE_SIZE]
                .try_into()
                .expect("page-sized slice");
            match pager.insert_prefetched(cur + i, page) {
                Ok(true) => bump_prefetch_issued(1),
                Ok(false) => {}
                Err(_) => return,
            }
        }
        cur += span;
    }
}

/// Touch read faulting a mapped page into the OS page cache without
/// counting as a pager hit. `black_box` keeps the loads from being
/// optimized away.
fn touch(page: &[u8]) {
    std::hint::black_box(page[0]);
    std::hint::black_box(page[page.len() / 2]);
    std::hint::black_box(page[page.len() - 1]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{process_counters, Pager};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-prefetch-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// Polls until `pred` holds or ~2s elapse (workers are async).
    fn wait_for(mut pred: impl FnMut() -> bool) -> bool {
        for _ in 0..2000 {
            if pred() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        false
    }

    /// Creates a file of `n` pages, page `i` starting with byte `i`,
    /// flushed to disk.
    fn write_run(path: &std::path::Path, n: u8) {
        let pager = Pager::create(path).unwrap();
        for i in 0..n {
            let id = pager.allocate().unwrap();
            let mut page = [0u8; PAGE_SIZE];
            page[0] = i;
            pager.write(id, &page).unwrap();
        }
        pager.flush().unwrap();
    }

    #[test]
    fn run_prefetch_loads_contiguous_pages() {
        let path = tmp("run");
        write_run(&path, 20);
        let pager = Pager::open(&path).unwrap();
        let before = process_counters();
        let ticket = pager.prefetch_run(0, 20).expect("submit");
        assert!(
            wait_for(|| process_counters().prefetch_issued >= before.prefetch_issued + 20),
            "worker should load the whole run: {:?}",
            process_counters()
        );
        // Every consumer read is a hit on a prefetched slot: zero
        // physical reads, and each page counts useful exactly once.
        let (reads_before, _) = pager.io_stats();
        let thread_before = crate::pager::thread_prefetch_counters();
        let mut out = [0u8; PAGE_SIZE];
        for round in 0..2 {
            for i in 0..20u8 {
                pager.read(PageId::from(i), &mut out).unwrap();
                assert_eq!(out[0], i, "round {round}");
            }
        }
        let (reads_after, _) = pager.io_stats();
        assert_eq!(reads_after, reads_before, "all pages were prefetched");
        let d = crate::pager::thread_prefetch_counters().delta_since(&thread_before);
        assert_eq!(d.useful, 20, "every prefetched page consumed once");
        ticket.detach();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn resident_window_is_topped_up_then_not_resubmitted() {
        // A rolling hint overlaps the window before it: a window whose
        // far end is cold is submitted and its cold pages arrive
        // flagged; a fully resident window is not submitted at all.
        let path = tmp("resident");
        write_run(&path, 12);
        let pager = Pager::open(&path).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        for id in 0..6 {
            pager.read(id, &mut out).unwrap();
        }
        let _ticket = pager.prefetch_run(0, 12).expect("far end is cold");
        assert!(
            wait_for(|| pager.prefetch_run(0, 12).is_none()),
            "both ends resident once the worker is through"
        );
        let thread_before = crate::pager::thread_prefetch_counters();
        let (reads_before, _) = pager.io_stats();
        for id in 0..12 {
            pager.read(id, &mut out).unwrap();
        }
        assert_eq!(pager.io_stats().0, reads_before, "nothing left to read");
        let d = crate::pager::thread_prefetch_counters().delta_since(&thread_before);
        assert_eq!(d.useful, 6, "only the cold half came from the worker");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn disabled_prefetch_submits_nothing() {
        let path = tmp("disabled");
        write_run(&path, 4);
        let pager = Pager::open(&path).unwrap();
        set_prefetch_enabled(false);
        let got = pager.prefetch_run(0, 4);
        set_prefetch_enabled(true);
        assert!(got.is_none(), "disabled prefetch must refuse submissions");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dropped_pager_cancels_queued_requests() {
        let path = tmp("drop");
        write_run(&path, 4);
        // Cold reopen: with nothing cached, the request must either
        // load pages (issued) or be abandoned (cancelled) — it cannot
        // complete silently off the cache.
        let pager = Pager::open(&path).unwrap();
        let before = process_counters();
        // Race the worker deliberately: whichever side wins, the
        // request must resolve (issued or cancelled), never hang.
        let ticket = pager.prefetch_run(0, 4);
        drop(pager);
        drop(ticket);
        assert!(
            wait_for(|| {
                let c = process_counters();
                c.prefetch_cancelled > before.prefetch_cancelled
                    || c.prefetch_issued >= before.prefetch_issued + 4
            }),
            "request must resolve after pager drop"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn eviction_of_unconsumed_prefetch_counts_wasted() {
        let path = tmp("wasted");
        write_run(&path, 8);
        // Cache of 2 pages: prefetching an 8-page run must evict most
        // of its own unconsumed loads.
        let pager = Pager::open_with_cache(&path, 2).unwrap();
        let before = process_counters();
        let _ticket = pager.prefetch_run(0, 8);
        assert!(
            wait_for(|| process_counters().prefetch_wasted > before.prefetch_wasted),
            "tiny cache must evict unconsumed prefetched pages: {:?}",
            process_counters()
        );
        std::fs::remove_file(path).ok();
    }
}
