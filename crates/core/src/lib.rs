//! The Subtree Index (SI) — the paper's primary contribution.
//!
//! * [`extract`] — enumeration of all unique rooted subtrees of sizes
//!   `1..=mss` (§4.1–4.2, Figures 2–4);
//! * [`canonical`] — canonical unordered subtree encoding used as B+Tree
//!   keys (§4.2);
//! * [`coding`] — the three posting-list coding schemes (§4.4):
//!   filter-based, subtree interval and root-split;
//! * [`build`] — index construction (§4.2, §6.2);
//! * [`cover`] — query decomposition: covers, `assign`, `optimalCover`,
//!   `minRC` (§5);
//! * [`join`] — MPMGJN and stack-based structural joins plus sort-merge
//!   equality joins (§2);
//! * [`stats`] — per-key planning statistics (§7's "statistics about
//!   subtrees such as their selectivities"): counted at build time and
//!   stored as each posting list's header;
//! * [`plan`] — cost-based left-deep streaming join planning over the
//!   per-key statistics (no decoding at plan time);
//! * [`exec`] — the Volcano-style streaming executor: cursor-based
//!   posting scans, merge/structural join operators and order
//!   enforcers (§4.3, the default query path);
//! * [`eval`] — the legacy materializing query processor, retained as
//!   the equivalence oracle behind [`exec::ExecMode::Materialized`];
//! * [`sharded`] — tid-range partitioned shards: parallel build,
//!   scatter-gather execution with shard-skip pruning, and incremental
//!   ingest via the shard manifest (`si_storage::shard`).

pub mod blockcache;
pub mod build;
pub mod build_ext;
pub mod canonical;
pub mod coding;
pub mod cover;
pub mod eval;
pub mod exec;
pub mod extract;
pub mod join;
pub mod plan;
pub mod resultcache;
pub mod sharded;
pub mod stats;

pub use blockcache::{BlockCache, BlockCacheConfig, BlockCacheStats};
pub use build::{IndexOptions, IndexStats, SubtreeIndex};
pub use coding::Coding;
pub use cover::{minrc, optimal_cover, Cover, CoverSubtree};
pub use eval::{EvalResult, EvalStats};
pub use exec::{ExecContext, ExecMode, SharedTuples};
pub use extract::{extract_subtrees, SubtreeRef};
pub use plan::PlannerMode;
pub use resultcache::{
    canonical_query_key, pack_match, unpack_match, ResultCache, ResultCacheConfig, ResultCacheStats,
};
pub use sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
pub use stats::{KeyStats, StatsCache};
