//! Memory-bounded (external-merge) index construction.
//!
//! The default [`crate::SubtreeIndex::build`] aggregates all posting
//! lists in memory — fine up to a few hundred thousand sentences, but
//! the paper's largest corpus (10⁶ sentences, Figures 2 and 13) deserves
//! a bounded-memory path. This module implements the classic external
//! inverted-index build:
//!
//! 1. aggregate postings per key until the in-memory budget is hit;
//! 2. flush a **sorted run** to disk (`run-N.tmp`);
//! 3. k-way **merge** the runs in key order, stitching each key's
//!    posting chunks back into one delta-coherent list;
//! 4. stream the merged pairs straight into the B+Tree bulk loader.
//!
//! Because trees are processed in ascending tid order, the chunks of one
//! key across runs cover disjoint, increasing tid ranges; stitching only
//! needs to rewrite the first tid delta of each later chunk.
//!
//! Run-entry layout (all varints except raw bytes):
//!
//! ```text
//! key_len key first_tid last_tid bytes_len bytes
//! ```
//!
//! The tid range is what stitching needs: it orders a key's chunks and
//! rebases each later chunk's head onto its predecessor's last tid.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use si_parsetree::{varint, ParseTree, TreeId};
use si_storage::{Result, StorageError};

use crate::coding::{rebase_head, Coding, NodeVal, PostingBuilder};
use crate::extract::for_each_subtree;

/// Budget knob for [`build_runs`]: flush a run when the buffered posting
/// bytes exceed this.
#[derive(Debug, Clone, Copy)]
pub struct ExternalBuildConfig {
    /// Buffered posting bytes that trigger a run flush. The default
    /// (256 MiB) keeps the build comfortably inside small-machine RAM
    /// even at the paper's 10⁶-sentence scale.
    pub run_budget_bytes: usize,
}

impl Default for ExternalBuildConfig {
    fn default() -> Self {
        Self {
            run_budget_bytes: 256 << 20,
        }
    }
}

/// A posting-list fragment of one key within one run.
struct Chunk {
    first_tid: TreeId,
    last_tid: TreeId,
    bytes: Vec<u8>,
}

/// Tracks a [`PostingBuilder`] plus the tid span it covers.
struct OpenList {
    builder: PostingBuilder,
    first_tid: TreeId,
    last_tid: TreeId,
}

/// Phase 1+2: extracts subtrees from `trees`, spilling sorted runs into
/// `tmp_dir`. Returns the run paths.
pub fn build_runs(
    tmp_dir: &Path,
    trees: &[ParseTree],
    mss: usize,
    coding: Coding,
    config: ExternalBuildConfig,
) -> Result<Vec<PathBuf>> {
    std::fs::create_dir_all(tmp_dir)?;
    let mut runs: Vec<PathBuf> = Vec::new();
    let mut lists: HashMap<Vec<u8>, OpenList> = HashMap::new();
    let mut buffered = 0usize;
    let mut occurrence: Vec<(NodeVal, u8)> = Vec::new();

    let flush = |lists: &mut HashMap<Vec<u8>, OpenList>, runs: &mut Vec<PathBuf>| -> Result<()> {
        if lists.is_empty() {
            return Ok(());
        }
        let path = tmp_dir.join(format!("run-{}.tmp", runs.len()));
        let mut entries: Vec<(Vec<u8>, OpenList)> = lists.drain().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut w = BufWriter::new(File::create(&path)?);
        let mut scratch = Vec::new();
        for (key, open) in entries {
            scratch.clear();
            varint::write_u64(&mut scratch, key.len() as u64);
            scratch.extend_from_slice(&key);
            varint::write_u32(&mut scratch, open.first_tid);
            varint::write_u32(&mut scratch, open.last_tid);
            let bytes = open.builder.finish();
            varint::write_u64(&mut scratch, bytes.len() as u64);
            w.write_all(&scratch)?;
            w.write_all(&bytes)?;
        }
        w.flush()?;
        runs.push(path);
        Ok(())
    };

    for (tid, tree) in trees.iter().enumerate() {
        let tid = tid as TreeId;
        let mut added = 0usize;
        for_each_subtree(tree, mss, |sub| {
            occurrence.clear();
            occurrence.extend(sub.nodes.iter().map(|&n| {
                (
                    NodeVal {
                        pre: tree.pre(n),
                        post: tree.post(n),
                        level: tree.level(n),
                    },
                    0u8,
                )
            }));
            let mut pres: Vec<u32> = occurrence.iter().map(|(v, _)| v.pre).collect();
            pres.sort_unstable();
            for (v, order) in occurrence.iter_mut() {
                *order = pres.binary_search(&v.pre).expect("own pre") as u8 + 1;
            }
            let entry = lists.entry(sub.key.clone()).or_insert_with(|| OpenList {
                builder: PostingBuilder::new(coding),
                first_tid: tid,
                last_tid: tid,
            });
            let before = entry.builder.byte_len();
            entry.builder.push(tid, &occurrence);
            entry.last_tid = tid;
            added += entry.builder.byte_len() - before;
        });
        buffered += added;
        // Flush only at tree boundaries so every key chunk covers a
        // whole-tid range and chunks never interleave.
        if buffered >= config.run_budget_bytes {
            flush(&mut lists, &mut runs)?;
            buffered = 0;
        }
    }
    flush(&mut lists, &mut runs)?;
    Ok(runs)
}

/// A sequential reader over one run file.
struct RunReader {
    r: BufReader<File>,
    /// Look-ahead entry.
    head: Option<(Vec<u8>, Chunk)>,
}

impl RunReader {
    fn open(path: &Path) -> Result<Self> {
        let mut reader = Self {
            r: BufReader::new(File::open(path)?),
            head: None,
        };
        reader.advance()?;
        Ok(reader)
    }

    fn advance(&mut self) -> Result<()> {
        self.head = self.read_entry()?;
        Ok(())
    }

    fn read_varint(&mut self) -> Result<Option<u64>> {
        let mut v = 0u64;
        let mut shift = 0u32;
        let mut first = true;
        loop {
            let mut byte = [0u8; 1];
            match self.r.read(&mut byte)? {
                0 if first => return Ok(None),
                0 => return Err(StorageError::Corrupt("run: truncated varint".into())),
                _ => {}
            }
            first = false;
            v |= u64::from(byte[0] & 0x7f) << shift;
            if byte[0] & 0x80 == 0 {
                return Ok(Some(v));
            }
            shift += 7;
            if shift > 63 {
                return Err(StorageError::Corrupt("run: varint overflow".into()));
            }
        }
    }

    fn read_entry(&mut self) -> Result<Option<(Vec<u8>, Chunk)>> {
        let Some(key_len) = self.read_varint()? else {
            return Ok(None);
        };
        let mut key = vec![0u8; key_len as usize];
        self.r.read_exact(&mut key)?;
        let mut fields = [0u64; 3]; // first tid, last tid, byte length
        for field in &mut fields {
            *field = self
                .read_varint()?
                .ok_or_else(|| StorageError::Corrupt("run: entry ends early".into()))?;
        }
        let mut bytes = vec![0u8; fields[2] as usize];
        self.r.read_exact(&mut bytes)?;
        let chunk = Chunk {
            first_tid: fields[0] as TreeId,
            last_tid: fields[1] as TreeId,
            bytes,
        };
        Ok(Some((key, chunk)))
    }
}

/// One merged entry: `(key, posting bytes)`.
pub type MergedEntry = (Vec<u8>, Vec<u8>);

/// Phase 3: a k-way merge over run files yielding
/// `(key, posting bytes)` in ascending key order.
pub struct RunMerger {
    coding: Coding,
    readers: Vec<RunReader>,
}

impl RunMerger {
    /// Opens all runs; `coding` is what [`build_runs`] wrote them with.
    pub fn open(runs: &[PathBuf], coding: Coding) -> Result<Self> {
        let readers = runs
            .iter()
            .map(|p| RunReader::open(p))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { coding, readers })
    }

    /// Pulls the next merged key. Chunks are stitched in ascending
    /// `first_tid` order, each later chunk's head rebased onto the
    /// previous chunk's last tid.
    pub fn next_key(&mut self) -> Result<Option<MergedEntry>> {
        // Smallest key among reader heads.
        let min_key: Option<Vec<u8>> = self
            .readers
            .iter()
            .filter_map(|r| r.head.as_ref().map(|(k, _)| k.clone()))
            .min();
        let Some(key) = min_key else {
            return Ok(None);
        };
        let mut chunks: Vec<Chunk> = Vec::new();
        for reader in &mut self.readers {
            if reader.head.as_ref().is_some_and(|(k, _)| *k == key) {
                let (_, chunk) = reader.head.take().expect("checked");
                chunks.push(chunk);
                reader.advance()?;
            }
        }
        chunks.sort_by_key(|c| c.first_tid);
        // Tid ranges must be disjoint (runs flush at tree boundaries).
        for w in chunks.windows(2) {
            if w[0].last_tid >= w[1].first_tid {
                return Err(StorageError::Corrupt(
                    "run chunks overlap in tid range".into(),
                ));
            }
        }
        let mut bytes: Vec<u8> = Vec::new();
        let mut last_tid: Option<TreeId> = None;
        for chunk in chunks {
            match last_tid {
                None => bytes.extend_from_slice(&chunk.bytes),
                Some(prev) => rebase_head(self.coding, &mut bytes, &chunk.bytes, prev)?,
            }
            last_tid = Some(chunk.last_tid);
        }
        Ok(Some((key, bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_corpus::GeneratorConfig;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("si-extbuild-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tiny_budget_produces_many_runs_and_merges_cleanly() {
        let corpus = GeneratorConfig::default().with_seed(21).generate(60);
        for coding in Coding::ALL {
            let dir = tmp(&format!("runs-{coding:?}"));
            let runs = build_runs(
                &dir,
                corpus.trees(),
                3,
                coding,
                ExternalBuildConfig {
                    run_budget_bytes: 1 << 10, // 1 KiB: force many runs
                },
            )
            .unwrap();
            assert!(runs.len() > 2, "expected multiple runs, got {}", runs.len());
            // Merge and compare against the in-memory aggregation.
            let mut merger = RunMerger::open(&runs, coding).unwrap();
            let mut merged: Vec<MergedEntry> = Vec::new();
            while let Some(entry) = merger.next_key().unwrap() {
                merged.push(entry);
            }
            // Keys ascend strictly.
            for w in merged.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            // Reference: single-run build (unbounded budget).
            let dir2 = tmp(&format!("ref-{coding:?}"));
            let ref_runs = build_runs(
                &dir2,
                corpus.trees(),
                3,
                coding,
                ExternalBuildConfig::default(),
            )
            .unwrap();
            assert_eq!(ref_runs.len(), 1);
            let mut ref_merger = RunMerger::open(&ref_runs, coding).unwrap();
            let mut reference: Vec<MergedEntry> = Vec::new();
            while let Some(entry) = ref_merger.next_key().unwrap() {
                reference.push(entry);
            }
            assert_eq!(merged.len(), reference.len(), "{coding:?} key counts");
            for (m, r) in merged.iter().zip(&reference) {
                assert_eq!(m.0, r.0, "{coding:?} key order");
                assert_eq!(m.1, r.1, "{coding:?} stitched bytes");
            }
            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir_all(&dir2).ok();
        }
    }

    #[test]
    fn empty_corpus_yields_no_runs() {
        let dir = tmp("empty");
        let runs = build_runs(
            &dir,
            &[],
            3,
            Coding::RootSplit,
            ExternalBuildConfig::default(),
        )
        .unwrap();
        assert!(runs.is_empty());
        let mut merger = RunMerger::open(&runs, Coding::RootSplit).unwrap();
        assert!(merger.next_key().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
