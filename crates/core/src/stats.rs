//! Per-key statistics for cost-based planning (§7 of the paper).
//!
//! §7 anticipates "statistics about subtrees such as their
//! selectivities" as the natural next step beyond the paper's
//! implementation; disk-based keyword-search engines (EMBANKS-style)
//! lean on exactly such per-term statistics for join ordering. This
//! module is that subsystem's query-side surface:
//!
//! * [`KeyStats`] (re-exported from `si_storage`) — one canonical key's
//!   posting count, distinct tid count, `[first_tid, last_tid]` range,
//!   and encoded byte length. Computed at index-build time by
//!   [`PostingBuilder`](crate::coding::PostingBuilder) and persisted in
//!   the B+Tree file's **stats segment** (versioned header; see
//!   `si_storage::btree`).
//! * [`Stats`] — the provider trait the planner consumes. The index
//!   implements it: exact figures from the segment when present, and
//!   for index files built before the segment existed a conservative
//!   [estimate](estimate_from_len) from the encoded list length
//!   (`exact == false`, full tid range — safe: it orders like the old
//!   byte heuristic and never prunes).
//! * [`StatsCache`] — a concurrent memo of `key_stats` lookups. Each
//!   lookup is a B+Tree descent (or a segment-table probe); a read-only
//!   index never changes its answers, so the query service shares one
//!   cache across queries, threads and batches. This subsumes PR 2's
//!   `LenCache`: the cached [`KeyStats::bytes`] field carries what
//!   `posting_len` used to provide.
//!
//! # How the planner uses the figures
//!
//! [`plan_structural`](crate::plan::plan_structural) orders joins by
//! **estimated cardinality** instead of raw encoded bytes:
//!
//! ```text
//! est(i) = postings(i) × autos(i) × overlap(common, range(i)) / span(range(i))
//! ```
//!
//! where `common` is the intersection of every cover key's tid range
//! ([`intersect_tid_ranges`]) and `autos` is the automorphism expansion
//! factor of the key (interval coding only). When `common` is empty the
//! query provably has no matches — every match needs all cover keys in
//! the *same* tree — and the executor returns before opening a single
//! posting list. The same ranges seed the filter-coding leapfrog
//! intersection: its initial target starts at `max(first_tid)` and the
//! merge stops once the target passes `min(last_tid)`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use si_parsetree::TreeId;
use si_storage::Result;

pub use si_storage::KeyStats;

use crate::build::SubtreeIndex;
use crate::canonical::key_size;
use crate::coding::Coding;
use crate::exec::ExecContext;

/// A source of per-key planning statistics — the seam between the
/// planner and whatever holds the figures (the index's stats segment,
/// a service-level cache, or a test double).
pub trait Stats {
    /// Statistics for `key`; `None` when the key is not indexed (the
    /// containing query then has no matches).
    fn key_stats(&self, key: &[u8]) -> Result<Option<KeyStats>>;
}

impl Stats for SubtreeIndex {
    fn key_stats(&self, key: &[u8]) -> Result<Option<KeyStats>> {
        SubtreeIndex::key_stats(self, key)
    }
}

/// A concurrent memo of [`Stats::key_stats`] lookups, shared by the
/// query service across queries, threads and batches (the index is
/// read-only, so entries never go stale). Subsumes the former
/// `LenCache`: [`KeyStats::bytes`] carries the encoded length.
pub type StatsCache = Arc<Mutex<HashMap<Vec<u8>, Option<KeyStats>>>>;

/// `index.key_stats(key)` through the context's memo when present.
pub fn key_stats_cached(
    index: &SubtreeIndex,
    key: &[u8],
    ctx: &ExecContext<'_>,
) -> Result<Option<KeyStats>> {
    let Some(cache) = &ctx.stats else {
        return index.key_stats(key);
    };
    if let Some(stats) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(key) {
        return Ok(*stats);
    }
    let stats = index.key_stats(key)?;
    cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key.to_vec(), stats);
    Ok(stats)
}

/// Synthesizes [`KeyStats`] from an encoded list length — the fallback
/// for index files that predate the stats segment. The posting count is
/// the length divided by the coding's typical encoded posting size, so
/// relative ordering degrades gracefully to the old byte heuristic; the
/// tid range is the full id space (`exact == false`), which never
/// prunes and never seeds a seek past real postings.
pub fn estimate_from_len(bytes: u64, coding: Coding, key: &[u8]) -> KeyStats {
    // Typical encoded posting sizes: one tid-delta varint for
    // filter-based; head + (pre, post) varints for root-split; head +
    // m × (pre, post, level, order) varints for the interval coding of
    // an m-node key.
    let per_posting = match coding {
        Coding::FilterBased => 2,
        Coding::RootSplit => 7,
        Coding::SubtreeInterval => 1 + 5 * key_size(key).unwrap_or(1) as u64,
    };
    let postings = (bytes / per_posting).max(1);
    KeyStats {
        postings,
        distinct_tids: postings,
        first_tid: 0,
        last_tid: TreeId::MAX,
        bytes,
        exact: false,
        ..KeyStats::default()
    }
}

/// Intersects every cover key's `[first_tid, last_tid]` range. `None`
/// means some pair of ranges is disjoint: no tree can hold all cover
/// keys, so the query provably has no matches and the executor skips
/// the join phase entirely. Estimated stats carry the full range and
/// therefore never produce `None`.
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
            exact: true,
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
    fn estimates_are_conservative() {
        for coding in Coding::ALL {
            let s = estimate_from_len(700, coding, &[]);
            assert!(!s.exact);
            assert!(s.postings >= 1);
            assert_eq!((s.first_tid, s.last_tid), (0, TreeId::MAX));
            assert_eq!(s.bytes, 700);
        }
        // Larger interval keys decode fewer postings per byte.
        let small = estimate_from_len(1000, Coding::FilterBased, &[]);
        let big = estimate_from_len(1000, Coding::RootSplit, &[]);
        assert!(small.postings > big.postings);
    }

    #[test]
    fn estimated_ranges_never_prune() {
        let est = estimate_from_len(10, Coding::RootSplit, &[]);
        let tight = ks(1_000, 1_001);
        assert_eq!(
            intersect_tid_ranges([&est, &tight].into_iter()),
            Some((1_000, 1_001))
        );
    }
}
