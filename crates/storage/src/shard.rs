//! The shard manifest of a tid-range partitioned index directory.
//!
//! A sharded index directory holds
//!
//! ```text
//! <dir>/MANIFEST.si       this manifest
//! <dir>/shard-0000/       a full index (corpus/, index.bt, si.meta)
//! <dir>/shard-0001/
//! ...
//! ```
//!
//! Each shard is a complete self-contained index over a **contiguous
//! range of global tree ids**: shard `i` covers trees
//! `[base_i, base_i + len_i)` of the logical corpus, stored under
//! shard-local ids `0..len_i`. The coding schemes store posting lists in
//! ascending tid order (ChubakR12 §4.4), so tid-range partitioning makes
//! shard-local answers **disjoint**: a global match set is the
//! concatenation of per-shard match sets (local tids offset by `base`)
//! in shard order, with no dedup or merge sort.
//!
//! The manifest is the *only* file incremental ingest rewrites: a new
//! shard directory is built for the new documents and one entry is
//! appended here. The rewrite is atomic (temp file + rename), so a
//! reader either sees the old shard set or the new one, never a torn
//! state.
//!
//! ## On-disk format (`MANIFEST.si`, version 2)
//!
//! ```text
//! magic    8 bytes  "SISHRD1\0"
//! version  varint   2
//! mss      varint   build-time mss, identical across shards
//! coding   1 byte   posting coding id, identical across shards
//! count    varint   number of shards (>= 1)
//! entry*   varint id, varint base, varint len, varint generation
//! ```
//!
//! A version 1 manifest (no per-entry generation varint) is refused
//! with a rebuild hint, like the older `si.meta` and `index.bt`
//! formats. The generation is an epoch counter for result caching:
//! `si ingest` stamps the shard it writes with a fresh generation, and
//! a full rebuild into the same directory stamps every shard above the
//! old maximum, so a cache entry keyed by `(shard id, generation)` can
//! never alias a shard's earlier contents.
//!
//! Decoding validates structure: shard ids strictly increase (directory
//! names never collide, even after future shard drops), `len > 0`, and
//! tid coverage is contiguous from 0 (`base_0 == 0`,
//! `base_{i+1} == base_i + len_i`). Any violation, truncation or bad
//! magic is rejected as [`StorageError::Corrupt`].

use std::path::{Path, PathBuf};

use si_parsetree::varint;

use crate::error::{Result, StorageError};

/// File name of the shard manifest inside a sharded index directory.
pub const MANIFEST_FILE: &str = "MANIFEST.si";

const MAGIC: &[u8; 8] = b"SISHRD1\0";
const VERSION: u64 = 2;

/// One shard's manifest record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEntry {
    /// Stable shard id; ids strictly increase in manifest order and are
    /// never reused, so shard directory names never collide.
    pub id: u64,
    /// First global tree id this shard covers.
    pub base: u32,
    /// Number of trees in the shard (local tids `0..len`).
    pub len: u32,
    /// Epoch counter bumped every time this shard's contents change
    /// (ingest writes a fresh shard at a fresh generation; a rebuild
    /// stamps above the old maximum). `(id, generation)` uniquely
    /// names one immutable shard state — the invalidation key of the
    /// result cache. Version-1 manifests load with generation 0.
    pub generation: u64,
}

impl ShardEntry {
    /// Directory name of this shard under the index directory.
    pub fn dir_name(&self) -> String {
        format!("shard-{:04}", self.id)
    }

    /// First global tid covered (inclusive).
    pub fn first_tid(&self) -> u32 {
        self.base
    }

    /// Last global tid covered (inclusive).
    pub fn last_tid(&self) -> u32 {
        self.base + self.len.saturating_sub(1)
    }

    /// Whether `tid` (global) falls inside this shard's range.
    pub fn contains(&self, tid: u32) -> bool {
        tid >= self.first_tid() && tid <= self.last_tid()
    }
}

/// The decoded shard manifest; see the module docs for the format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Build-time `mss` shared by every shard.
    pub mss: u64,
    /// Posting-coding id shared by every shard (opaque at this layer;
    /// `si_core` maps it to its `Coding` enum).
    pub coding: u8,
    /// Shard records in tid order.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Whether `dir` holds a sharded index (its manifest file exists).
    pub fn exists(dir: &Path) -> bool {
        dir.join(MANIFEST_FILE).is_file()
    }

    /// Path of the manifest file under `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Total trees across all shards.
    pub fn total_trees(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.len)).sum()
    }

    /// The id the next appended shard must use (strictly above all
    /// existing ids).
    pub fn next_id(&self) -> u64 {
        self.shards.last().map_or(0, |s| s.id + 1)
    }

    /// The global base tid the next appended shard must use (contiguous
    /// coverage).
    pub fn next_base(&self) -> u32 {
        self.shards.last().map_or(0, |s| s.base + s.len)
    }

    /// The highest generation across all shards (0 for an empty
    /// manifest); a rebuild stamps its shards above this.
    pub fn max_generation(&self) -> u64 {
        self.shards.iter().map(|s| s.generation).max().unwrap_or(0)
    }

    /// The shard covering global `tid`, as an index into
    /// [`ShardManifest::shards`].
    pub fn shard_of(&self, tid: u32) -> Option<usize> {
        // Ranges are contiguous and ascending; binary search on base.
        self.shards
            .binary_search_by(|s| {
                if tid < s.first_tid() {
                    std::cmp::Ordering::Greater
                } else if tid > s.last_tid() {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
    }

    /// Serializes the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.shards.len() * 8);
        out.extend_from_slice(MAGIC);
        varint::write_u64(&mut out, VERSION);
        varint::write_u64(&mut out, self.mss);
        out.push(self.coding);
        varint::write_u64(&mut out, self.shards.len() as u64);
        for s in &self.shards {
            varint::write_u64(&mut out, s.id);
            varint::write_u64(&mut out, u64::from(s.base));
            varint::write_u64(&mut out, u64::from(s.len));
            varint::write_u64(&mut out, s.generation);
        }
        out
    }

    /// Deserializes and validates a manifest; any structural violation
    /// is [`StorageError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let corrupt = |what: &str| StorageError::Corrupt(format!("shard manifest: {what}"));
        let magic = bytes.get(..8).ok_or_else(|| corrupt("truncated magic"))?;
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let mut r = varint::Reader::new(&bytes[8..]);
        let version = r.u64().ok_or_else(|| corrupt("truncated version"))?;
        if version < VERSION {
            return Err(StorageError::Corrupt(format!(
                "{MANIFEST_FILE}: index written in an older format; rebuild it with `si build`"
            )));
        }
        if version != VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let mss = r.u64().ok_or_else(|| corrupt("truncated mss"))?;
        if !(1..=8).contains(&mss) {
            return Err(corrupt("mss out of range"));
        }
        let coding = r.bytes(1).ok_or_else(|| corrupt("truncated coding"))?[0];
        let count = r.u64().ok_or_else(|| corrupt("truncated shard count"))?;
        if count == 0 {
            return Err(corrupt("zero shards"));
        }
        let mut shards = Vec::with_capacity(count.min(1 << 20) as usize);
        for _ in 0..count {
            let id = r.u64().ok_or_else(|| corrupt("truncated shard id"))?;
            let base = r.u64().ok_or_else(|| corrupt("truncated shard base"))?;
            let len = r.u64().ok_or_else(|| corrupt("truncated shard len"))?;
            let generation = r
                .u64()
                .ok_or_else(|| corrupt("truncated shard generation"))?;
            let base = u32::try_from(base).map_err(|_| corrupt("shard base overflows u32"))?;
            let len = u32::try_from(len).map_err(|_| corrupt("shard len overflows u32"))?;
            if len == 0 {
                return Err(corrupt("empty shard"));
            }
            base.checked_add(len - 1)
                .ok_or_else(|| corrupt("tid range overflows u32"))?;
            let entry = ShardEntry {
                id,
                base,
                len,
                generation,
            };
            if let Some(prev) = shards.last() {
                let prev: &ShardEntry = prev;
                if entry.id <= prev.id {
                    return Err(corrupt("shard ids not strictly increasing"));
                }
                if entry.base != prev.base + prev.len {
                    return Err(corrupt("tid ranges not contiguous"));
                }
            } else if entry.base != 0 {
                return Err(corrupt("first shard must start at tid 0"));
            }
            shards.push(entry);
        }
        Ok(Self {
            mss,
            coding,
            shards,
        })
    }

    /// Reads and validates `dir`'s manifest.
    pub fn read(dir: &Path) -> Result<Self> {
        let bytes = std::fs::read(Self::path(dir))?;
        Self::decode(&bytes)
    }

    /// Writes the manifest atomically: a temp file in `dir` is renamed
    /// over [`MANIFEST_FILE`], so concurrent readers see either the old
    /// or the new shard set, never a torn write. Validates `self` first
    /// (a manifest that would not decode must never reach disk).
    pub fn write(&self, dir: &Path) -> Result<()> {
        // Round-trip through decode to reuse the full validation.
        Self::decode(&self.encode())?;
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, Self::path(dir))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> ShardManifest {
        ShardManifest {
            mss: 3,
            coding: 2,
            shards: vec![
                ShardEntry {
                    id: 0,
                    base: 0,
                    len: 100,
                    generation: 1,
                },
                ShardEntry {
                    id: 1,
                    base: 100,
                    len: 50,
                    generation: 1,
                },
                ShardEntry {
                    id: 4,
                    base: 150,
                    len: 7,
                    generation: 3,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let m = manifest();
        let decoded = ShardManifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.total_trees(), 157);
        assert_eq!(decoded.next_id(), 5);
        assert_eq!(decoded.next_base(), 157);
        assert_eq!(decoded.max_generation(), 3);
    }

    /// Satellite: generations round-trip exactly, including large
    /// multi-byte varint values.
    #[test]
    fn generation_round_trips() {
        let mut m = manifest();
        m.shards[0].generation = 0;
        m.shards[1].generation = 300; // two varint bytes
        m.shards[2].generation = u64::MAX >> 1;
        let decoded = ShardManifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.max_generation(), u64::MAX >> 1);
    }

    /// A pre-generation (version 1) `MANIFEST.si` is refused by name,
    /// the way older `si.meta` and `index.bt` files are.
    #[test]
    fn version1_manifest_is_refused_with_a_rebuild_hint() {
        let mut old = manifest().encode();
        old[8] = 1;
        let err = ShardManifest::decode(&old).unwrap_err();
        assert!(
            err.to_string().contains("rebuild it with `si build`"),
            "unexpected error: {err}"
        );
    }

    /// Satellite: a version-2 header whose generation block is cut off
    /// is corruption, not a silent zero.
    #[test]
    fn truncated_generation_block_is_rejected() {
        let good = manifest().encode();
        // The last entry's generation (3) is the final varint byte.
        let cut = &good[..good.len() - 1];
        let err = ShardManifest::decode(cut).unwrap_err();
        assert!(
            err.to_string().contains("generation"),
            "unexpected error: {err}"
        );
        // So is a body that stops where the first entry's generation
        // should start (what a version 1 entry under a version 2 header
        // looks like): id, base and len are one varint byte each here.
        let header = 8 + 1 + 1 + 1 + 1; // magic, version, mss, coding, count
        let err = ShardManifest::decode(&good[..header + 3]).unwrap_err();
        assert!(
            err.to_string().contains("generation"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn file_round_trip_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("si-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(!ShardManifest::exists(&dir));
        let m = manifest();
        m.write(&dir).unwrap();
        assert!(ShardManifest::exists(&dir));
        assert_eq!(ShardManifest::read(&dir).unwrap(), m);
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_lookup_by_tid() {
        let m = manifest();
        assert_eq!(m.shard_of(0), Some(0));
        assert_eq!(m.shard_of(99), Some(0));
        assert_eq!(m.shard_of(100), Some(1));
        assert_eq!(m.shard_of(149), Some(1));
        assert_eq!(m.shard_of(150), Some(2));
        assert_eq!(m.shard_of(156), Some(2));
        assert_eq!(m.shard_of(157), None);
        assert!(m.shards[1].contains(120));
        assert!(!m.shards[1].contains(10));
        assert_eq!(m.shards[2].dir_name(), "shard-0004");
    }

    #[test]
    fn corruption_is_rejected() {
        let good = manifest().encode();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(ShardManifest::decode(&bad).is_err());

        // Truncations at every prefix length must error, not panic.
        for cut in 0..good.len() {
            assert!(
                ShardManifest::decode(&good[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }

        // Unsupported version.
        let mut bad = good.clone();
        bad[8] = 9;
        assert!(ShardManifest::decode(&bad).is_err());

        // Structural violations.
        let mut m = manifest();
        m.shards[1].base = 90; // overlap
        assert!(ShardManifest::decode(&m.encode()).is_err());
        assert!(m.write(std::path::Path::new("/nonexistent")).is_err());
        let mut m = manifest();
        m.shards[1].base = 110; // gap
        assert!(ShardManifest::decode(&m.encode()).is_err());
        let mut m = manifest();
        m.shards[2].id = 1; // id reuse
        assert!(ShardManifest::decode(&m.encode()).is_err());
        let mut m = manifest();
        m.shards[0].base = 5; // does not start at 0
        assert!(ShardManifest::decode(&m.encode()).is_err());
        let mut m = manifest();
        m.shards.clear(); // zero shards
        assert!(ShardManifest::decode(&m.encode()).is_err());
        let mut m = manifest();
        m.shards[2].len = 0; // empty shard
        assert!(ShardManifest::decode(&m.encode()).is_err());
        let mut m = manifest();
        m.mss = 99; // mss out of range
        assert!(ShardManifest::decode(&m.encode()).is_err());
    }
}
