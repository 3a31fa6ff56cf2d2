//! The corpus store: data file + length index + label table.
//!
//! Mirrors §6.1 of the paper: "we also flattened and sequentially stored
//! parse trees in a separate file, which we call the data file". A
//! [`CorpusStore`] is a directory holding
//!
//! * `trees.dat` — concatenated flattened trees ([`si_parsetree::codec`]),
//! * `trees.idx` — `"SITIDX1\0" | count varint | one byte-length varint
//!   per tree`; opening prefix-sums the lengths into offsets and checks
//!   that they add up to `trees.dat`'s length,
//! * `labels.dat` — `"SILABL1\0" | base varint |` the labels with ids
//!   `base..` of the [`LabelInterner`] the trees were built with
//!   ([`LabelInterner::encode`]).
//!
//! A store on its own holds the whole table (`base == 0`). The shards of
//! one sharded index share a table that only grows, so each stores just
//! the labels interned since the shard before it (`base` = the table's
//! length then) and the index's opener puts the table back together
//! ([`CorpusStore::read_labels`], [`CorpusStore::open_with_labels`]).
//!
//! Random access by [`TreeId`] is an offset lookup plus one ranged read;
//! the filtering phase of filter-based coding and the post-validation of
//! the baselines go through this path, so its cost is part of what the
//! paper measures.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use si_parsetree::{codec, varint, LabelInterner, ParseTree, TreeId};

use crate::error::{Result, StorageError};

const IDX_MAGIC: &[u8; 8] = b"SITIDX1\0";
const LABELS_MAGIC: &[u8; 8] = b"SILABL1\0";

/// The error for a corpus file that does not open with its magic.
fn older_format(file: &str) -> StorageError {
    StorageError::Corrupt(format!(
        "corpus/{file}: index written in an older format; rebuild it with `si build`"
    ))
}

/// An on-disk corpus of parse trees with random access by tree id.
pub struct CorpusStore {
    dir: PathBuf,
    data: Mutex<File>,
    /// Byte offset of each tree in `trees.dat`; entry `len` is the total
    /// data length, so tree `i` spans `offsets[i]..offsets[i+1]`.
    offsets: Vec<u64>,
    interner: Arc<LabelInterner>,
}

impl CorpusStore {
    /// Builds a corpus store at `dir` from an iterator of trees and the
    /// interner their labels live in, whole. Any existing store is
    /// overwritten.
    pub fn build<'a, I>(dir: &Path, trees: I, interner: &LabelInterner) -> Result<Self>
    where
        I: IntoIterator<Item = &'a ParseTree>,
    {
        Self::build_with_labels(dir, trees, Arc::new(interner.clone()), 0)
    }

    /// [`CorpusStore::build`] for one shard of several: `labels.dat`
    /// records only `table`'s labels from id `label_base` on, and the
    /// store shares `table` instead of copying it.
    pub fn build_with_labels<'a, I>(
        dir: &Path,
        trees: I,
        table: Arc<LabelInterner>,
        label_base: usize,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = &'a ParseTree>,
    {
        std::fs::create_dir_all(dir)?;
        let data_path = dir.join("trees.dat");
        let mut writer = BufWriter::new(File::create(&data_path)?);
        let mut offsets = vec![0u64];
        let mut lengths = Vec::new();
        let mut buf = Vec::with_capacity(4096);
        for tree in trees {
            buf.clear();
            codec::encode_tree(tree, &mut buf);
            writer.write_all(&buf)?;
            varint::write_u64(&mut lengths, buf.len() as u64);
            let last = *offsets.last().unwrap();
            offsets.push(last + buf.len() as u64);
        }
        writer.flush()?;
        drop(writer);

        let mut idx = IDX_MAGIC.to_vec();
        varint::write_u64(&mut idx, offsets.len() as u64 - 1);
        idx.extend_from_slice(&lengths);
        std::fs::write(dir.join("trees.idx"), idx)?;

        let mut suffix = LabelInterner::new();
        for (_, name) in table.iter().skip(label_base) {
            suffix.intern(name);
        }
        let mut labels = LABELS_MAGIC.to_vec();
        varint::write_u64(&mut labels, label_base as u64);
        suffix.encode(&mut labels);
        std::fs::write(dir.join("labels.dat"), labels)?;

        let data = OpenOptions::new().read(true).open(&data_path)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            data: Mutex::new(data),
            offsets,
            interner: table,
        })
    }

    /// Opens an existing store that holds its whole label table. A shard
    /// that holds only a suffix of its index's table is refused: it
    /// opens through the index's directory.
    pub fn open(dir: &Path) -> Result<Self> {
        let mut table = LabelInterner::new();
        Self::read_labels(dir, &mut table)?;
        Self::open_with_labels(dir, Arc::new(table))
    }

    /// Appends the labels `dir`'s `labels.dat` adds to `table`. `Corrupt`
    /// unless the file continues the table exactly where it ends.
    pub fn read_labels(dir: &Path, table: &mut LabelInterner) -> Result<()> {
        let (base, suffix) = read_label_file(dir)?;
        if base != table.len() as u64 {
            // `dir` is `<index>/shard-NNNN/corpus`.
            let index = dir.parent().and_then(Path::parent).unwrap_or(dir);
            return Err(StorageError::Corrupt(format!(
                "{}: labels.dat holds the labels from id {base} on, after a table of {}; \
                 a shard opens through its index directory, {}",
                dir.display(),
                table.len(),
                index.display()
            )));
        }
        for (_, name) in suffix.iter() {
            let next = table.len() as u32;
            // A name the table already holds would shift every later id.
            if table.intern(name).id() != next {
                return Err(StorageError::Corrupt(format!(
                    "labels.dat: label {name:?} stored twice"
                )));
            }
        }
        Ok(())
    }

    /// Opens an existing store whose trees are labelled from `table`
    /// (built from the index's `labels.dat` files by the caller).
    pub fn open_with_labels(dir: &Path, table: Arc<LabelInterner>) -> Result<Self> {
        let data = OpenOptions::new().read(true).open(dir.join("trees.dat"))?;
        let idx = std::fs::read(dir.join("trees.idx"))?;
        let lengths = idx
            .strip_prefix(IDX_MAGIC)
            .ok_or_else(|| older_format("trees.idx"))?;
        let corrupt = |what: &str| StorageError::Corrupt(format!("trees.idx: {what}"));
        let mut r = varint::Reader::new(lengths);
        let count = r.u64().ok_or_else(|| corrupt("tree count"))?;
        // A length is never under a byte, which bounds an untrusted count.
        if count > lengths.len() as u64 {
            return Err(corrupt("more trees than bytes"));
        }
        let mut offsets = Vec::with_capacity(count as usize + 1);
        let mut end = 0u64;
        offsets.push(end);
        for _ in 0..count {
            let len = r.u64().ok_or_else(|| corrupt("tree length"))?;
            end = end
                .checked_add(len)
                .ok_or_else(|| corrupt("lengths overflow"))?;
            offsets.push(end);
        }
        if !r.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        // Otherwise `get` would fail tree by tree, reading past the end.
        let data_len = data.metadata()?.len();
        if end != data_len {
            return Err(corrupt(&format!(
                "lengths sum to {end} bytes, trees.dat holds {data_len}"
            )));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            data: Mutex::new(data),
            offsets,
            interner: table,
        })
    }

    /// Number of trees stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the store holds no trees.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The label interner shared by all stored trees (and, in a
    /// sharded index, by all its stores).
    pub fn interner(&self) -> &Arc<LabelInterner> {
        &self.interner
    }

    /// Directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes of the data file (the paper's "data file size").
    pub fn data_bytes(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Fetches and decodes tree `tid`.
    pub fn get(&self, tid: TreeId) -> Result<ParseTree> {
        let i = tid as usize;
        if i + 1 >= self.offsets.len() {
            return Err(StorageError::OutOfRange(format!("tid {tid}")));
        }
        let start = self.offsets[i];
        let len = (self.offsets[i + 1] - start) as usize;
        let mut buf = vec![0u8; len];
        {
            let mut f = self.data.lock().unwrap_or_else(|e| e.into_inner());
            f.seek(SeekFrom::Start(start))?;
            f.read_exact(&mut buf)?;
        }
        let (tree, used) =
            codec::decode_tree(&buf).ok_or_else(|| StorageError::Corrupt(format!("tree {tid}")))?;
        if used != len {
            return Err(StorageError::Corrupt(format!("tree {tid} trailing bytes")));
        }
        Ok(tree)
    }

    /// Iterates all trees in id order (sequential scan of the data file).
    pub fn iter(&self) -> impl Iterator<Item = Result<(TreeId, ParseTree)>> + '_ {
        (0..self.len() as TreeId).map(move |tid| self.get(tid).map(|t| (tid, t)))
    }
}

/// `labels.dat` as `(base, the labels it holds)`.
fn read_label_file(dir: &Path) -> Result<(u64, LabelInterner)> {
    let bytes = std::fs::read(dir.join("labels.dat"))?;
    let fields = bytes
        .strip_prefix(LABELS_MAGIC)
        .ok_or_else(|| older_format("labels.dat"))?;
    let corrupt = || StorageError::Corrupt("labels.dat".into());
    let (base, used) = varint::read_u64(fields).ok_or_else(corrupt)?;
    let (count, _) = varint::read_u64(&fields[used..]).ok_or_else(corrupt)?;
    match LabelInterner::decode(&fields[used..]) {
        // (A label written twice would have been interned once.)
        Some((suffix, len)) if used + len == fields.len() && suffix.len() as u64 == count => {
            Ok((base, suffix))
        }
        _ => Err(corrupt()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_parsetree::ptb;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("si-corpusstore-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn sample_corpus() -> (Vec<ParseTree>, LabelInterner) {
        let mut li = LabelInterner::new();
        let trees = vec![
            ptb::parse("(S (NP (DT the) (NN dog)) (VP (VBZ barks)))", &mut li).unwrap(),
            ptb::parse(
                "(S (NP (NNS agouti)) (VP (VBZ is) (NP (DT a) (NN rodent))))",
                &mut li,
            )
            .unwrap(),
            ptb::parse("(NN)", &mut li).unwrap(),
        ];
        (trees, li)
    }

    #[test]
    fn build_and_get() {
        let dir = tmp("build");
        let (trees, li) = sample_corpus();
        let store = CorpusStore::build(&dir, &trees, &li).unwrap();
        assert_eq!(store.len(), 3);
        for (i, t) in trees.iter().enumerate() {
            assert_eq!(&store.get(i as TreeId).unwrap(), t);
        }
        assert!(store.get(3).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_preserves_everything() {
        let dir = tmp("reopen");
        let (trees, li) = sample_corpus();
        {
            CorpusStore::build(&dir, &trees, &li).unwrap();
        }
        let store = CorpusStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.interner().len(), li.len());
        assert_eq!(store.get(1).unwrap(), trees[1]);
        let all: Vec<_> = store.iter().map(|r| r.unwrap().1).collect();
        assert_eq!(all, trees);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_corpus() {
        let dir = tmp("empty");
        let li = LabelInterner::new();
        let store = CorpusStore::build(&dir, std::iter::empty(), &li).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.data_bytes(), 0);
        assert!(store.get(0).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_index_rejected() {
        let dir = tmp("corrupt");
        let (trees, li) = sample_corpus();
        CorpusStore::build(&dir, &trees, &li).unwrap();
        std::fs::write(dir.join("trees.idx"), [1, 2, 3]).unwrap();
        assert!(CorpusStore::open(&dir).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    fn is_corrupt<T>(what: &str, result: Result<T>) -> String {
        match result {
            Err(StorageError::Corrupt(msg)) => msg,
            Err(e) => panic!("{what}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{what}: expected Corrupt, got Ok"),
        }
    }

    #[test]
    fn data_file_must_be_as_long_as_the_index_says() {
        let dir = tmp("datalen");
        let (trees, li) = sample_corpus();
        CorpusStore::build(&dir, &trees, &li).unwrap();
        let data = std::fs::read(dir.join("trees.dat")).unwrap();
        for (what, bytes) in [
            ("one byte short", &data[..data.len() - 1]),
            ("one byte long", &[&data[..], &[0]].concat()[..]),
            ("empty", &[][..]),
        ] {
            std::fs::write(dir.join("trees.dat"), bytes).unwrap();
            let msg = is_corrupt(what, CorpusStore::open(&dir));
            assert!(msg.contains("trees.dat holds"), "{what}: {msg}");
        }
        std::fs::write(dir.join("trees.dat"), &data).unwrap();
        // The index itself: every strict prefix, and a byte too many.
        let idx = std::fs::read(dir.join("trees.idx")).unwrap();
        for cut in 0..idx.len() {
            std::fs::write(dir.join("trees.idx"), &idx[..cut]).unwrap();
            is_corrupt("index prefix", CorpusStore::open(&dir));
        }
        std::fs::write(dir.join("trees.idx"), [&idx[..], &[0]].concat()).unwrap();
        is_corrupt("index trailing byte", CorpusStore::open(&dir));
        std::fs::write(dir.join("trees.idx"), &idx).unwrap();
        assert_eq!(CorpusStore::open(&dir).unwrap().get(2).unwrap(), trees[2]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unversioned_files_are_refused_with_a_rebuild_hint() {
        let dir = tmp("unversioned");
        let (trees, li) = sample_corpus();
        CorpusStore::build(&dir, &trees, &li).unwrap();
        // What the two files held before they had a magic: raw `u64`
        // offsets, and the bare interner encoding.
        let mut old_labels = Vec::new();
        li.encode(&mut old_labels);
        let old_idx: Vec<u8> = [0u64, 31, 70, 73]
            .iter()
            .flat_map(|o| o.to_le_bytes())
            .collect();
        for (file, old) in [("trees.idx", old_idx), ("labels.dat", old_labels)] {
            let good = std::fs::read(dir.join(file)).unwrap();
            std::fs::write(dir.join(file), old).unwrap();
            let msg = is_corrupt(file, CorpusStore::open(&dir));
            assert!(
                msg.contains("older format; rebuild it with `si build`"),
                "{msg}"
            );
            assert!(msg.contains(file), "{msg}");
            std::fs::write(dir.join(file), good).unwrap();
        }
        assert!(CorpusStore::open(&dir).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn label_suffixes_rebuild_the_table_in_order() {
        let root = tmp("suffix");
        let (trees, li) = sample_corpus();
        let base = 4;
        let prefix = {
            let mut p = LabelInterner::new();
            for (_, name) in li.iter().take(base) {
                p.intern(name);
            }
            p
        };
        let (first, second) = (root.join("a/corpus"), root.join("b/corpus"));
        CorpusStore::build(&first, &trees[..0], &prefix).unwrap();
        let table = Arc::new(li.clone());
        let built = CorpusStore::build_with_labels(&second, &trees, table.clone(), base).unwrap();
        assert_eq!(built.interner().len(), li.len());

        let mut rebuilt = LabelInterner::new();
        let msg = is_corrupt(
            "suffix first",
            CorpusStore::read_labels(&second, &mut rebuilt),
        );
        assert!(msg.contains("from id 4 on"), "{msg}");
        CorpusStore::read_labels(&first, &mut rebuilt).unwrap();
        CorpusStore::read_labels(&second, &mut rebuilt).unwrap();
        assert!(rebuilt.iter().eq(li.iter()));
        is_corrupt(
            "suffix twice",
            CorpusStore::read_labels(&second, &mut rebuilt),
        );

        let store = CorpusStore::open_with_labels(&second, Arc::new(rebuilt)).unwrap();
        assert_eq!(store.get(1).unwrap(), trees[1]);
        // On its own the second store cannot name its labels.
        let msg = is_corrupt("bare open of a suffix", CorpusStore::open(&second));
        let hint = format!("index directory, {}", root.display());
        assert!(msg.contains(&hint), "{msg}");
        // Every strict prefix of the file is refused.
        let labels = std::fs::read(second.join("labels.dat")).unwrap();
        for cut in 0..labels.len() {
            std::fs::write(second.join("labels.dat"), &labels[..cut]).unwrap();
            is_corrupt(
                "labels prefix",
                CorpusStore::read_labels(&second, &mut prefix.clone()),
            );
        }
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn data_bytes_reports_file_size() {
        let dir = tmp("size");
        let (trees, li) = sample_corpus();
        let store = CorpusStore::build(&dir, &trees, &li).unwrap();
        let meta = std::fs::metadata(dir.join("trees.dat")).unwrap();
        assert_eq!(store.data_bytes(), meta.len());
        std::fs::remove_dir_all(dir).ok();
    }
}
