//! Per-key statistics for cost-based planning (§7 of the paper).
//!
//! §7 anticipates "statistics about subtrees such as their
//! selectivities" as the natural next step beyond the paper's
//! implementation; disk-based keyword-search engines (EMBANKS-style)
//! keep exactly such per-term statistics with the disk-resident list
//! they describe, and lean on them for join ordering. This module is
//! that subsystem's query-side surface:
//!
//! * [`KeyStats`] — one canonical key's posting count, distinct tid
//!   count, `[first_tid, last_tid]` range, encoded byte length and, for
//!   a list long enough to seek in, a tid histogram. Counted at
//!   index-build time from the finished list and stored as **the list's
//!   own header** ([`crate::coding`], "Stored values"), so every list
//!   carries exact statistics and reading them is the one B+Tree descent
//!   that finds the list.
//! * [`StatsCache`] — a concurrent memo of `key_stats` lookups. Each
//!   lookup is a B+Tree descent and a read-only index never changes its
//!   answers, so every index keeps one of what it has looked up, and
//!   the query service shares one per shard across queries, threads and
//!   batches.
//!
//! How the planner uses the figures — join ordering by estimated
//! cardinality, empty-join pruning from disjoint tid ranges
//! ([`intersect_tid_ranges`]), leapfrog seeding — is in [`crate::plan`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use si_parsetree::TreeId;
use si_storage::{HeapExtent, Result};

use crate::build::SubtreeIndex;
use crate::exec::ExecContext;

/// Buckets of the per-key tid histogram ([`KeyStats::tid_hist`]).
pub const TID_HIST_BUCKETS: usize = 8;

/// One canonical key's posting-list statistics — the selectivity
/// statistics §7 of the paper anticipates ("statistics about subtrees
/// such as their selectivities"). Exact for every list: they are the
/// list's stored header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyStats {
    /// Postings stored under the key (after coding-specific dedup).
    pub postings: u64,
    /// Distinct tree ids the postings span.
    pub distinct_tids: u64,
    /// Smallest tree id with a posting under the key.
    pub first_tid: TreeId,
    /// Largest tree id with a posting under the key.
    pub last_tid: TreeId,
    /// Encoded byte length of the stored value, header included (same
    /// figure as [`SubtreeIndex::posting_len`]).
    pub bytes: u64,
    /// Posting counts over [`TID_HIST_BUCKETS`] equal-width tid buckets
    /// spanning `[first_tid, last_tid]` (saturating). Stored only for
    /// lists with restart points — the seek targets; all-zero means "no
    /// histogram" and planners fall back to uniform-density costing.
    pub tid_hist: [u32; TID_HIST_BUCKETS],
}

impl KeyStats {
    /// Whether a tid histogram was stored for this key.
    pub fn has_hist(&self) -> bool {
        self.tid_hist.iter().any(|&c| c != 0)
    }

    /// Mean postings per distinct tree — the clustering statistic
    /// (always ≥ 1 for a non-empty list).
    pub fn mean_postings_per_tid(&self) -> f64 {
        if self.distinct_tids == 0 {
            0.0
        } else {
            self.postings as f64 / self.distinct_tids as f64
        }
    }

    /// Width of the covered tid range, inclusive (`last - first + 1`).
    pub fn tid_span(&self) -> u64 {
        u64::from(self.last_tid) - u64::from(self.first_tid) + 1
    }
}

/// A concurrent memo of [`SubtreeIndex::key_stats`] lookups (the index is
/// read-only, so entries never go stale): each index owns one, and the
/// query service shares one per shard across queries, threads and
/// batches.
pub type StatsCache = Arc<Mutex<HashMap<Vec<u8>, Option<KeyStats>>>>;

/// Where a key's list lives, as far as looking its statistics up told
/// — what the plan-time prefetch hint would otherwise descend for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ListPlace {
    /// In the B+Tree's heap, at this extent.
    Heap(HeapExtent),
    /// Inline in its leaf: nothing to hint.
    Inline,
    /// Not looked at — the statistics came from a memo.
    Unknown,
}

/// `index.key_lookup(key)` through the context's memo, or the index's
/// own when the context brings none. A memo hit has no descent behind
/// it and so no place to report.
pub(crate) fn key_lookup_cached(
    index: &SubtreeIndex,
    key: &[u8],
    ctx: &ExecContext<'_>,
) -> Result<Option<(KeyStats, ListPlace)>> {
    let cache = ctx.stats.as_ref().unwrap_or(&index.stats_memo);
    if let Some(stats) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(key) {
        return Ok(stats.map(|s| (s, ListPlace::Unknown)));
    }
    let found = index.key_lookup(key)?;
    cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key.to_vec(), found.map(|(stats, _)| stats));
    Ok(found)
}

/// `index.key_stats(key)` through the context's memo or the index's own.
pub fn key_stats_cached(
    index: &SubtreeIndex,
    key: &[u8],
    ctx: &ExecContext<'_>,
) -> Result<Option<KeyStats>> {
    Ok(key_lookup_cached(index, key, ctx)?.map(|(stats, _)| stats))
}

/// Intersects every cover key's `[first_tid, last_tid]` range. `None`
/// means some pair of ranges is disjoint: no tree can hold all cover
/// keys, so the query provably has no matches and the executor skips
/// the join phase entirely.
pub fn intersect_tid_ranges<'a, I>(stats: I) -> Option<(TreeId, TreeId)>
where
    I: IntoIterator<Item = &'a KeyStats>,
{
    let mut iter = stats.into_iter();
    let first = iter.next()?;
    let mut lo = first.first_tid;
    let mut hi = first.last_tid;
    for s in iter {
        lo = lo.max(s.first_tid);
        hi = hi.min(s.last_tid);
        if lo > hi {
            return None;
        }
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(first: TreeId, last: TreeId) -> KeyStats {
        KeyStats {
            postings: 10,
            distinct_tids: 10,
            first_tid: first,
            last_tid: last,
            bytes: 70,
            ..KeyStats::default()
        }
    }

    #[test]
    fn range_intersection_narrows_and_detects_disjoint() {
        let a = [ks(0, 100), ks(50, 200), ks(60, 80)];
        assert_eq!(intersect_tid_ranges(&a), Some((60, 80)));
        let b = [ks(0, 10), ks(11, 20)];
        assert_eq!(intersect_tid_ranges(&b), None);
        let single = [ks(5, 5)];
        assert_eq!(intersect_tid_ranges(&single), Some((5, 5)));
        assert_eq!(intersect_tid_ranges([].iter()), None);
    }

    #[test]
    fn key_stats_helpers() {
        let s = KeyStats {
            postings: 13,
            distinct_tids: 5,
            ..ks(4, 38)
        };
        assert!((s.mean_postings_per_tid() - 13.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.tid_span(), 35);
        assert_eq!(ks(0, u32::MAX).tid_span(), 1 << 32);
        assert_eq!(KeyStats::default().mean_postings_per_tid(), 0.0);
        assert!(!s.has_hist());
    }
}
