//! LEB128 variable-length integer encoding.
//!
//! Used throughout the on-disk formats: posting lists, the data file and
//! the B+Tree all store small integers (label ids, deltas of tree ids,
//! pre/post ranks) whose common values fit in one or two bytes.

/// Appends `v` to `out` in unsigned LEB128.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 integer from the front of `buf`.
///
/// Returns the value and the number of bytes consumed, or `None` if the
/// buffer is truncated or the encoding exceeds 10 bytes.
#[inline]
pub fn read_u64(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= 10 {
            return None;
        }
        v |= u64::from(byte & 0x7f)
            .checked_shl(shift)
            .unwrap_or(u64::from(byte & 0x7f) << (shift % 64));
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

/// Appends `v` as a u32 varint.
#[inline]
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    write_u64(out, u64::from(v));
}

/// Reads a u32 varint; fails if the decoded value overflows u32.
#[inline]
pub fn read_u32(buf: &[u8]) -> Option<(u32, usize)> {
    let (v, used) = read_u64(buf)?;
    u32::try_from(v).ok().map(|v| (v, used))
}

/// [`write_u32`]'s bytes for `v` as a little-endian `u64`, and their count.
#[inline]
pub fn spread_u32(v: u32) -> (u64, usize) {
    let v = u64::from(v);
    let len = len_u64(v | 1);
    let bytes = (0..5).fold(0, |acc, g| acc | (v >> (7 * g) & 0x7f) << (8 * g));
    (bytes | 0x80_8080_8080 & ((1 << (8 * (len - 1))) - 1), len)
}

/// Number of bytes [`write_u64`] will emit for `v`.
#[inline]
pub fn len_u64(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// A cursor for sequentially decoding varints out of a byte slice.
///
/// Its methods are `#[inline]`: they sit in the posting decoder's
/// innermost loop, two crates away, and a plain method of a non-generic
/// type reaches another crate's code only as a call unless link-time
/// optimisation happens to import it.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` with the cursor at offset 0.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether all bytes have been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Decodes the next u64 varint.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        let (v, used) = read_u64(&self.buf[self.pos..])?;
        self.pos += used;
        Some(v)
    }

    /// Decodes the next u32 varint.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        let (v, used) = read_u32(&self.buf[self.pos..])?;
        self.pos += used;
        Some(v)
    }

    /// Takes the next `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), len_u64(v), "len for {v}");
            let (back, used) = read_u64(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn read_truncated_fails() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(read_u64(&buf[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn spread_is_what_write_appends() {
        let edges = [0u32, 1, 127, 128, 16383, 16384, (1 << 21) - 1, 1 << 21];
        for v in edges.into_iter().chain([(1 << 28) - 1, 1 << 28, u32::MAX]) {
            let mut buf = Vec::new();
            write_u32(&mut buf, v);
            let (bytes, len) = spread_u32(v);
            assert_eq!(bytes.to_le_bytes()[..len], buf[..], "{v}");
            assert_eq!(bytes >> (8 * len), 0, "{v}");
        }
    }

    #[test]
    fn u32_overflow_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(read_u32(&buf).is_none());
    }

    #[test]
    fn reader_sequential_decoding() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 7);
        write_u64(&mut buf, 300);
        buf.extend_from_slice(b"abc");
        write_u64(&mut buf, 0);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64(), Some(7));
        assert_eq!(r.u32(), Some(300));
        assert_eq!(r.bytes(3), Some(&b"abc"[..]));
        assert_eq!(r.u64(), Some(0));
        assert!(r.is_empty());
        assert_eq!(r.u64(), None);
    }

    #[test]
    fn dense_range_round_trips() {
        let mut buf = Vec::new();
        for v in 0..5000u64 {
            buf.clear();
            write_u64(&mut buf, v);
            assert_eq!(read_u64(&buf).unwrap(), (v, buf.len()));
        }
    }
}
