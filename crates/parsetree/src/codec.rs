//! The data file's tree codec: balanced parentheses and two label columns.
//!
//! The paper "flattened and sequentially stored parse trees in a separate
//! file, which we call the data file" (§6.1). This is that flattening: not
//! §4.2's key encoding, which has to sort, but a small, succinct one:
//!
//! ```text
//! tree = shape    one bit per parenthesis in pre-order, LSB first:
//!                 1 opens a node, 0 closes it; no node count, the
//!                 tree ends where the depth returns to zero
//!        width    6 bits: w, the bit length of the widest tag
//!        tags     one w-bit label id per internal node, in pre-order
//!                 padding to a byte
//!        words    one varint label id per leaf, in pre-order
//! ```
//!
//! A node whose open is followed by a close is a leaf; that position, not
//! the label (which may name both), decides its id's column.

use crate::bits::{unpack, BitWriter, WIDTH_BITS};
use crate::label::Label;
use crate::tree::{ParseTree, TreeBuilder};
use crate::varint;

/// Writes trees in the stored form. It keeps its scratch from tree to
/// tree, so a run of trees allocates nothing once the largest is seen.
#[derive(Debug, Default)]
pub struct Encoder {
    tags: Vec<u32>,
    words: Vec<u8>,
}

impl Encoder {
    /// Appends the stored form of `tree` to `out`, in one pass over it.
    pub fn encode(&mut self, tree: &ParseTree, out: &mut Vec<u8>) {
        // Each id goes to both columns' next slot (after n − 1 words of 5
        // bytes an 8-byte store still fits), and only its own column's
        // cursor moves past it: no branch on the node's kind.
        self.tags.resize(tree.len(), 0);
        self.words.resize(5 * tree.len() + 3, 0);
        let (mut tags, mut words) = (0, 0);
        let mut bits = BitWriter::new(out);
        for (i, (&level, label)) in tree.level.iter().zip(&tree.labels).enumerate() {
            // A node opens, then closes once for each level the next node
            // sits above it and once more if it is a leaf.
            let next = tree.level.get(i + 1).map_or(0, |&next| u32::from(next));
            let closes = u32::from(level) + 1 - next;
            bits.put(1, 1 + closes.min(u32::BITS - 1));
            // The closes one put cannot hold, after 32 levels or more.
            for done in (u32::BITS - 1..closes).step_by(32) {
                bits.put(0, (closes - done).min(u32::BITS));
            }
            self.tags[tags] = label.id();
            tags += usize::from(closes == 0);
            let (bytes, len) = varint::spread_u32(label.id());
            self.words[words..words + 8].copy_from_slice(&bytes.to_le_bytes());
            words += len * usize::from(closes > 0);
        }
        let tags = &self.tags[..tags];
        let width = u32::BITS - tags.iter().fold(0, |acc, id| acc | id).leading_zeros();
        bits.put(width, WIDTH_BITS);
        tags.iter().for_each(|&id| bits.put(id, width));
        bits.pad();
        out.extend_from_slice(&self.words[..words]);
    }
}

/// Decodes the tree at the front of `buf` and returns it with the bytes
/// it took, or `None` unless `buf` opens with a whole tree whose label ids
/// are below `labels`, the length of the label table.
pub fn decode_tree(buf: &[u8], labels: usize) -> Option<(ParseTree, usize)> {
    let (tags_at, internal, width, words_at) = layout(buf)?;
    let mut tags = vec![0; internal];
    unpack(buf, tags_at, width, &mut tags);
    let mut tags = tags.into_iter();
    let mut words = varint::Reader::new(&buf[words_at..]);
    let mut builder = TreeBuilder::new();
    for i in 0..tags_at - WIDTH_BITS as usize {
        if !bit(buf, i) {
            builder.close();
            continue;
        }
        let leaf = !bit(buf, i + 1);
        let id = if leaf { words.u32() } else { tags.next() };
        builder.open(Label(id.filter(|&id| (id as usize) < labels)?));
    }
    Some((builder.finish()?, words_at + words.position()))
}

/// The bits of the tree stored as all of `buf`: `[shape (with the width and
/// padding), tags, words]`, or `None` where [`decode_tree`] finds no columns.
pub fn column_bits(buf: &[u8]) -> Option<[u64; 3]> {
    let (_, internal, width, words_at) = layout(buf)?;
    let tags = (internal * width as usize) as u64;
    Some([
        8 * words_at as u64 - tags,
        tags,
        8 * (buf.len() - words_at) as u64,
    ])
}

/// Bit `i` of `buf`, LSB first; past the end, a close.
fn bit(buf: &[u8], i: usize) -> bool {
    buf.get(i / 8).is_some_and(|byte| byte >> (i % 8) & 1 == 1)
}

/// Where the parts of a stored tree lie: `(tags_at, tags, width,
/// words_at)` — the bit its tag column starts at, how many tags of what
/// width it holds, and the byte its word column starts at.
fn layout(buf: &[u8]) -> Option<(usize, usize, u32, usize)> {
    let (mut parens, mut depth, mut internal, mut opened) = (0, 0usize, 0, false);
    // A close at depth 0 opens the bits, or one returns to depth 0 and
    // ends them: no tree has a second root.
    while parens == 0 || depth > 0 {
        // Bits that never close, or a level past `ParseTree`'s `u16`.
        if parens == 8 * buf.len() || depth > 1 << u16::BITS {
            return None;
        }
        let open = bit(buf, parens);
        internal += usize::from(opened && open);
        depth = depth.checked_add_signed(if open { 1 } else { -1 })?;
        (parens, opened) = (parens + 1, open);
    }
    let (tags_at, mut width) = (parens + WIDTH_BITS as usize, [0]);
    unpack(buf, parens, WIDTH_BITS, &mut width);
    let [width] = width;
    let words_at = (tags_at + internal * width as usize).div_ceil(8);
    (width <= u32::BITS && words_at <= buf.len()).then_some((tags_at, internal, width, words_at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelInterner;
    use crate::ptb;

    fn round_trip(src: &str) -> Vec<u8> {
        let mut li = LabelInterner::new();
        let tree = ptb::parse(src, &mut li).unwrap();
        let mut buf = Vec::new();
        Encoder::default().encode(&tree, &mut buf);
        let (back, used) = decode_tree(&buf, li.len()).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, tree);
        assert_eq!(
            column_bits(&buf).unwrap().iter().sum::<u64>(),
            8 * used as u64
        );
        buf
    }

    #[test]
    fn round_trips() {
        // "10", a zero width, then the word: two bytes.
        assert_eq!(round_trip("(NN)"), [0b0000_0001, 0]);
        round_trip("(S (NP (DT the) (NN dog)) (VP (VBZ barks)))");
        round_trip("(A (B (C (D (E)))))"); // unary chain
        round_trip("(A B C D E F G H I J)"); // flat fan-out
        round_trip("(A (B (C (D x y) z) (E w)) v)"); // closes of several levels
    }

    #[test]
    fn two_trees_back_to_back() {
        let mut li = LabelInterner::new();
        let t1 = ptb::parse("(S (NP dog))", &mut li).unwrap();
        let t2 = ptb::parse("(S (VP runs) (NP fast))", &mut li).unwrap();
        let (mut encoder, mut buf) = (Encoder::default(), Vec::new());
        encoder.encode(&t1, &mut buf);
        let split = buf.len();
        encoder.encode(&t2, &mut buf);
        let (a, used1) = decode_tree(&buf, li.len()).unwrap();
        assert_eq!(used1, split);
        let (b, used2) = decode_tree(&buf[split..], li.len()).unwrap();
        assert_eq!(split + used2, buf.len());
        assert_eq!(a, t1);
        assert_eq!(b, t2);
    }

    /// `shape` as parentheses, then `width`, `tags` and `words`.
    fn stored(shape: &str, width: u32, tags: &[u32], words: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut bits = BitWriter::new(&mut buf);
        shape.chars().for_each(|c| bits.put(u32::from(c == '('), 1));
        bits.put(width, WIDTH_BITS);
        tags.iter().for_each(|&tag| bits.put(tag, width));
        bits.pad();
        words.iter().for_each(|&w| varint::write_u32(&mut buf, w));
        buf
    }

    /// What the data file accepts: a tree that is all of `buf`.
    fn whole(buf: &[u8], labels: usize) -> Option<ParseTree> {
        decode_tree(buf, labels).and_then(|(tree, used)| (used == buf.len()).then_some(tree))
    }

    #[test]
    fn malformed_inputs_rejected() {
        let good = stored("(()())", 1, &[1], &[0, 2]);
        let tree = whole(&good, 3).expect("the fixture is a tree");
        assert_eq!(tree.len(), 3);
        for cut in 0..good.len() {
            assert!(decode_tree(&good[..cut], 3).is_none(), "prefix of {cut}");
        }
        assert!(whole(&good, 2).is_none(), "a word id past the table");
        assert!(
            whole(&stored("(()())", 2, &[3], &[0, 0]), 3).is_none(),
            "a tag id past it"
        );
        assert!(
            whole(&stored("()()", 0, &[], &[0, 0]), 1).is_none(),
            "a second root"
        );
        assert!(whole(&[0xff; 4], 1).is_none(), "shape never closes");
        assert!(
            whole(&stored(")()", 0, &[], &[0]), 1).is_none(),
            "close at depth 0"
        );
        for width in 33..64 {
            let buf = stored("(()())", width.min(32), &[0], &[0, 0]);
            let mut wide = buf.clone();
            // The width sits at bits 6..12: set it past 32 by hand.
            let bits = u16::from_le_bytes([wide[0], wide[1]]) & !(0x3f << 6) | (width as u16) << 6;
            wide[..2].copy_from_slice(&bits.to_le_bytes());
            assert!(whole(&wide, 1).is_none(), "width {width}");
        }
        assert!(
            whole(&stored("(()())", 1, &[0], &[0]), 1).is_none(),
            "words short"
        );
        let trailing = stored("(()())", 1, &[0], &[0, 0, 0]);
        assert_eq!(decode_tree(&trailing, 1).unwrap().1, trailing.len() - 1);
        assert!(whole(&trailing, 1).is_none(), "words trail");
        assert!(whole(&[], 1).is_none());
    }

    #[test]
    fn columns_are_decided_by_position_not_by_label() {
        // `x` labels a leaf and an internal node, `NN` an internal node
        // and a leaf.
        let buf = round_trip("(S (x (NN y)) (VP x NN))");
        let mut li = LabelInterner::new();
        ptb::parse("(S (x (NN y)) (VP x NN))", &mut li).unwrap();
        // S x NN VP are tags (ids 0 1 2 4, width 3); y x NN are words.
        let [shape, tags, words] = column_bits(&buf).unwrap();
        assert_eq!((tags, words), (4 * 3, 8 * 3));
        assert_eq!(shape, 8 * buf.len() as u64 - tags - words);
    }
}
