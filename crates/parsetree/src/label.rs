//! Node-label interning.
//!
//! The alphabet of node labels (`ΣV` in the paper) of a parsed corpus is
//! small — Penn Treebank tags plus a vocabulary of word forms — so labels
//! are interned to dense `u32` ids once and compared as integers everywhere
//! else. The interner is shared by a corpus and all indexes built over it.

use std::collections::HashMap;

/// An interned node label (an index into a [`LabelInterner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

impl Label {
    /// The raw interned id.
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }
}

/// Bidirectional map between label strings and dense [`Label`] ids.
///
/// Ids are assigned in first-seen order, which makes corpora generated from
/// a fixed seed fully deterministic.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its existing id if already present.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&id) = self.ids.get(name) {
            return Label(id);
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        Label(id)
    }

    /// Looks up a label id without interning.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.ids.get(name).copied().map(Label)
    }

    /// Resolves an id back to its string form.
    ///
    /// # Panics
    /// Panics if `label` was not produced by this interner.
    pub fn resolve(&self, label: Label) -> &str {
        &self.names[label.0 as usize]
    }

    /// Number of distinct labels interned so far (`|ΣV|`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no label has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(Label, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (Label(i as u32), s.as_str()))
    }

    /// Serializes the labels with ids `first..` (all for 0) into `out`.
    pub fn encode(&self, first: usize, out: &mut Vec<u8>) {
        let names = self.names.get(first..).unwrap_or_default();
        crate::varint::write_u64(out, names.len() as u64);
        for name in names {
            crate::varint::write_u64(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
    }

    /// Deserializes labels written by [`Self::encode`] as an interner.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        let mut pos = 0;
        let (n, used) = crate::varint::read_u64(&buf[pos..])?;
        pos += used;
        let mut interner = Self::new();
        for _ in 0..n {
            let (len, used) = crate::varint::read_u64(&buf[pos..])?;
            pos += used;
            let end = pos.checked_add(len as usize)?;
            let name = std::str::from_utf8(buf.get(pos..end)?).ok()?;
            interner.intern(name);
            pos = end;
        }
        Some((interner, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = LabelInterner::new();
        let a = i.intern("NP");
        let b = i.intern("VP");
        assert_ne!(a, b);
        assert_eq!(i.intern("NP"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = LabelInterner::new();
        for name in ["S", "NP", "VP", "the", "dog"] {
            let l = i.intern(name);
            assert_eq!(i.resolve(l), name);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = LabelInterner::new();
        assert_eq!(i.get("S"), None);
        let s = i.intern("S");
        assert_eq!(i.get("S"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut i = LabelInterner::new();
        for name in ["S", "NP", "VP", "νπ-unicode", ""] {
            i.intern(name);
        }
        let mut buf = Vec::new();
        i.encode(0, &mut buf);
        let (j, used) = LabelInterner::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(j.len(), i.len());
        for (l, s) in i.iter() {
            assert_eq!(j.resolve(l), s);
        }
    }

    #[test]
    fn iter_in_id_order() {
        let mut i = LabelInterner::new();
        i.intern("a");
        i.intern("b");
        let v: Vec<_> = i.iter().map(|(l, s)| (l.id(), s.to_owned())).collect();
        assert_eq!(v, vec![(0, "a".to_owned()), (1, "b".to_owned())]);
    }
}
