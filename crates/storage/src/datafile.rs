//! The corpus store: data file + length index + label table.
//!
//! Mirrors §6.1 of the paper: "we also flattened and sequentially stored
//! parse trees in a separate file, which we call the data file". A
//! [`CorpusStore`] is a directory holding
//!
//! * `trees.dat` — the trees back to back ([`si_parsetree::codec`]: balanced
//!   parentheses, a bit-packed tag column, a column of word varints),
//! * `trees.idx` — `"SITIDX2\0" | count varint | one byte-length varint
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
//! Random access by [`TreeId`] is an offset lookup plus one positioned
//! read, which threads share without a lock; the filtering phase of
//! filter-based coding and the post-validation of the baselines go
//! through this path, so its cost is part of what the paper measures.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use si_parsetree::{codec, varint, LabelInterner, ParseTree, TreeId};

use crate::error::{Result, StorageError};

const IDX_MAGIC: &[u8; 8] = b"SITIDX2\0";
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
    data: File,
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
        let mut writer = BufWriter::with_capacity(1 << 20, File::create(&data_path)?);
        let (mut offsets, mut end) = (vec![0u64], 0);
        let mut lengths = Vec::new();
        let (mut encoder, mut buf) = (codec::Encoder::default(), Vec::with_capacity(4096));
        for tree in trees {
            buf.clear();
            encoder.encode(tree, &mut buf);
            writer.write_all(&buf)?;
            varint::write_u64(&mut lengths, buf.len() as u64);
            end += buf.len() as u64;
            offsets.push(end);
        }
        writer.flush()?;
        drop(writer);

        let mut idx = IDX_MAGIC.to_vec();
        varint::write_u64(&mut idx, offsets.len() as u64 - 1);
        idx.extend_from_slice(&lengths);
        std::fs::write(dir.join("trees.idx"), idx)?;

        let mut labels = LABELS_MAGIC.to_vec();
        varint::write_u64(&mut labels, label_base as u64);
        table.encode(label_base, &mut labels);
        std::fs::write(dir.join("labels.dat"), labels)?;

        Ok(Self {
            dir: dir.to_path_buf(),
            data: File::open(&data_path)?,
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
        let data = File::open(dir.join("trees.dat"))?;
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
            data,
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
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(&self.data, &mut buf, start)?;
        #[cfg(not(unix))]
        {
            let mut file = File::open(self.dir.join("trees.dat"))?;
            std::io::Seek::seek(&mut file, std::io::SeekFrom::Start(start))?;
            file.read_exact(&mut buf)?;
        }
        match codec::decode_tree(&buf, self.interner.len()) {
            Some((tree, used)) if used == len => Ok(tree),
            _ => Err(StorageError::Corrupt(format!("trees.dat: tree {tid}"))),
        }
    }

    /// `trees.dat`'s `[shape, tag column, word column]` bytes from one
    /// sequential pass, adding up to [`Self::data_bytes`] (tag bits that
    /// share a byte with the shape round into it).
    pub fn column_bytes(&self) -> Result<[u64; 3]> {
        let mut data = BufReader::new(File::open(self.dir.join("trees.dat"))?);
        let (mut bits, mut buf) = ([0u64; 3], Vec::new());
        for (tid, span) in self.offsets.windows(2).enumerate() {
            buf.resize((span[1] - span[0]) as usize, 0);
            data.read_exact(&mut buf)?;
            let tree = codec::column_bits(&buf)
                .ok_or_else(|| StorageError::Corrupt(format!("trees.dat: tree {tid}")))?;
            bits.iter_mut().zip(tree).for_each(|(total, b)| *total += b);
        }
        let [tags, words] = [bits[1] / 8, bits[2] / 8];
        Ok([self.data_bytes() - tags - words, tags, words])
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
        // offsets, and the bare interner encoding; and the lengths of
        // trees stored as varint `(label, subtree size)` pairs.
        let mut old_labels = Vec::new();
        li.encode(0, &mut old_labels);
        let old_idx: Vec<u8> = [0u64, 31, 70, 73]
            .iter()
            .flat_map(|o| o.to_le_bytes())
            .collect();
        let idx = std::fs::read(dir.join("trees.idx")).unwrap();
        let pairs_idx = [&b"SITIDX1\0"[..], &idx[8..]].concat();
        for (file, old) in [
            ("trees.idx", old_idx),
            ("trees.idx", pairs_idx),
            ("labels.dat", old_labels),
        ] {
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

    /// Every single-bit flip of `trees.dat` leaves each tree it did not
    /// touch as it was, and the one it did a `Corrupt` or a well-formed
    /// tree over the table: a flipped label bit can name another label,
    /// which nothing short of a checksum would notice.
    #[test]
    fn a_flipped_bit_is_corrupt_or_a_tree_never_a_panic() {
        let dir = tmp("flips");
        let corpus = si_corpus::GeneratorConfig::default()
            .with_seed(0xF11B)
            .generate(12);
        let store = CorpusStore::build(&dir, corpus.trees(), corpus.interner()).unwrap();
        let data = std::fs::read(dir.join("trees.dat")).unwrap();
        let (mut corrupt, mut same, mut other) = (0, 0, 0);
        for bit in 0..8 * data.len() {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(dir.join("trees.dat"), &flipped).unwrap();
            let hit = store.offsets.partition_point(|&o| o <= (bit / 8) as u64) - 1;
            for (tid, want) in corpus.trees().iter().enumerate() {
                match store.get(tid as TreeId) {
                    Ok(tree) if tid != hit => assert_eq!(&tree, want, "bit {bit}"),
                    Ok(tree) if &tree == want => same += 1,
                    Ok(tree) => {
                        assert_eq!(tree.validate(), Ok(()), "bit {bit}");
                        let labels = corpus.interner().len() as u32;
                        assert!(tree.nodes().all(|n| tree.label(n).id() < labels));
                        other += 1;
                    }
                    Err(StorageError::Corrupt(_)) if tid == hit => corrupt += 1,
                    Err(e) => panic!("bit {bit}, tree {tid}: {e}"),
                }
            }
        }
        assert_eq!(corrupt + same + other, 8 * data.len());
        assert!(
            corrupt > 8 * data.len() / 4,
            "{corrupt} corrupt, {same} same, {other} other"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn the_columns_add_up_to_the_data_file() {
        let dir = tmp("columns");
        let (trees, li) = sample_corpus();
        let store = CorpusStore::build(&dir, &trees, &li).unwrap();
        let [shape, tags, words] = store.column_bytes().unwrap();
        assert_eq!(shape + tags + words, store.data_bytes());
        // Eight leaves, one of them the whole third tree, of ids < 128.
        assert_eq!(words, 8);
        assert_eq!(store.column_bytes().unwrap(), [shape, tags, words]);
        std::fs::remove_dir_all(dir).ok();
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
