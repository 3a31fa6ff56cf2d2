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
//!    posting fragments back into one delta-coherent list;
//! 4. stream the merged pairs into the B+Tree bulk loader.
//!
//! Because trees are processed in ascending tid order, the fragments of
//! one key across runs cover disjoint, increasing tid ranges in run
//! order; stitching only needs to rewrite the first tid delta of each
//! later fragment. The in-memory build's workers end in the same merge
//! (`FragmentMerge`), their sorted maps standing in for run files.
//!
//! Run-entry layout (all varints except raw bytes):
//!
//! ```text
//! key_len key last_tid bytes_len bytes
//! ```
//!
//! The last tid is what stitching needs: the next run's fragment of the
//! key is rebased onto it.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use si_parsetree::{varint, ParseTree, TreeId};
use si_storage::{Result, StorageError};

use crate::build::{add_tree, IndexOptions, OccurrenceScratch};
use crate::coding::{rebase_head, Coding, PostingBuilder};

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
    let mut lists: HashMap<Vec<u8>, PostingBuilder> = HashMap::new();
    let mut buffered = 0usize;
    let mut scratch = OccurrenceScratch::default();
    let options = IndexOptions { mss, coding };

    let flush =
        |lists: &mut HashMap<Vec<u8>, PostingBuilder>, runs: &mut Vec<PathBuf>| -> Result<()> {
            if lists.is_empty() {
                return Ok(());
            }
            let path = tmp_dir.join(format!("run-{}.tmp", runs.len()));
            let mut entries: Vec<(Vec<u8>, PostingBuilder)> = lists.drain().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let mut w = BufWriter::new(File::create(&path)?);
            let mut scratch = Vec::new();
            for (key, builder) in entries {
                scratch.clear();
                varint::write_u64(&mut scratch, key.len() as u64);
                scratch.extend_from_slice(&key);
                let last_tid = builder.last_tid().expect("a list has a posting");
                varint::write_u32(&mut scratch, last_tid);
                let bytes = builder.finish();
                varint::write_u64(&mut scratch, bytes.len() as u64);
                w.write_all(&scratch)?;
                w.write_all(&bytes)?;
            }
            w.flush()?;
            runs.push(path);
            Ok(())
        };

    for (tid, tree) in trees.iter().enumerate() {
        buffered += add_tree(&mut lists, tree, tid as TreeId, options, &mut scratch);
        // Flush only at tree boundaries so every key fragment covers a
        // whole-tid range and fragments never interleave.
        if buffered >= config.run_budget_bytes {
            flush(&mut lists, &mut runs)?;
            buffered = 0;
        }
    }
    flush(&mut lists, &mut runs)?;
    Ok(runs)
}

/// A sequential reader over one run file, yielding its entries.
pub(crate) struct RunReader {
    r: BufReader<File>,
}

impl RunReader {
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

    fn read_entry(&mut self) -> Result<Option<(Vec<u8>, Fragment)>> {
        let Some(key_len) = self.read_varint()? else {
            return Ok(None);
        };
        let mut key = vec![0u8; key_len as usize];
        self.r.read_exact(&mut key)?;
        let mut fields = [0u64; 2]; // last tid, byte length
        for field in &mut fields {
            *field = self
                .read_varint()?
                .ok_or_else(|| StorageError::Corrupt("run: entry ends early".into()))?;
        }
        let mut bytes = vec![0u8; fields[1] as usize];
        self.r.read_exact(&mut bytes)?;
        let last_tid = TreeId::try_from(fields[0])
            .map_err(|_| StorageError::Corrupt("run: tid out of range".into()))?;
        Ok(Some((key, Fragment { bytes, last_tid })))
    }
}

impl Iterator for RunReader {
    type Item = Result<(Vec<u8>, Fragment)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_entry().transpose()
    }
}

/// One merged entry: `(key, posting bytes)`.
pub type MergedEntry = (Vec<u8>, Vec<u8>);

/// One key's posting bytes within one run, and the last tid they hold.
pub(crate) struct Fragment {
    pub(crate) bytes: Vec<u8>,
    pub(crate) last_tid: TreeId,
}

/// A k-way merge of runs — each yielding `(key, fragment)` in ascending
/// key order — into [`MergedEntry`]s in ascending key order. The runs
/// cover ascending, disjoint tid ranges in the order given, so a key's
/// fragments are stitched in run order, each later fragment's head
/// rebased onto the previous one's last tid ([`rebase_head`], which
/// refuses fragments out of tid order). Both build paths end in it: the
/// runs are files here and the workers' sorted maps in
/// [`crate::build`].
pub(crate) struct FragmentMerge<R> {
    coding: Coding,
    runs: Vec<R>,
    heads: Vec<Option<(Vec<u8>, Fragment)>>,
}

impl<R: Iterator<Item = Result<(Vec<u8>, Fragment)>>> FragmentMerge<R> {
    pub(crate) fn new(coding: Coding, mut runs: Vec<R>) -> Result<Self> {
        let heads = runs
            .iter_mut()
            .map(|run| run.next().transpose())
            .collect::<Result<_>>()?;
        Ok(Self {
            coding,
            runs,
            heads,
        })
    }

    /// Takes run `i`'s head and reads the next one.
    fn advance(&mut self, i: usize) -> Result<(Vec<u8>, Fragment)> {
        let head = self.heads[i].take().expect("a head to advance past");
        self.heads[i] = self.runs[i].next().transpose()?;
        Ok(head)
    }

    fn next_key(&mut self) -> Result<Option<MergedEntry>> {
        // The first run whose head holds the smallest key.
        let mut first: Option<(usize, &[u8])> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((key, _)) = head {
                if first.is_none_or(|(_, min)| key.as_slice() < min) {
                    first = Some((i, key));
                }
            }
        }
        let Some((first, _)) = first else {
            return Ok(None);
        };
        let (key, mut list) = self.advance(first)?;
        for i in first + 1..self.heads.len() {
            if self.heads[i].as_ref().is_some_and(|(k, _)| *k == key) {
                let (_, fragment) = self.advance(i)?;
                rebase_head(self.coding, &mut list.bytes, &fragment.bytes, list.last_tid)?;
                list.last_tid = fragment.last_tid;
            }
        }
        Ok(Some((key, list.bytes)))
    }
}

impl<R: Iterator<Item = Result<(Vec<u8>, Fragment)>>> Iterator for FragmentMerge<R> {
    type Item = Result<MergedEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_key().transpose()
    }
}

/// Phase 3: a k-way merge over the run files, in the order
/// [`build_runs`] returned them, yielding `(key, posting bytes)` in
/// ascending key order; `coding` is what [`build_runs`] wrote them with.
pub(crate) fn merge_runs(runs: &[PathBuf], coding: Coding) -> Result<FragmentMerge<RunReader>> {
    let readers = runs
        .iter()
        .map(|path| {
            Ok(RunReader {
                r: BufReader::new(File::open(path)?),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    FragmentMerge::new(coding, readers)
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
            let merged: Vec<MergedEntry> = merge_runs(&runs, coding)
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
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
            let reference: Vec<MergedEntry> = merge_runs(&ref_runs, coding)
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
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
        assert!(merge_runs(&runs, Coding::RootSplit)
            .unwrap()
            .next()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
