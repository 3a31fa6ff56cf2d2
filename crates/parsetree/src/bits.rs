//! LSB-first bit packing of values up to 32 bits wide, for the posting
//! blocks and the data file; inlined as [`crate::varint::Reader`] is.

/// Bits both formats spend on stating a width (`0..=32`).
pub const WIDTH_BITS: u32 = 6;

/// Reads `out.len()` values of `width ≤ 32` bits each, LSB first, from
/// bit `at` of `bytes` on; bits past the end read as zero. Eight values
/// span 33 bytes at most, so each group loads from one 40-byte window,
/// copied out only where `bytes` ends sooner: a bounds check per group.
#[inline]
pub fn unpack(bytes: &[u8], mut at: usize, width: u32, out: &mut [u32]) {
    let width = width.min(u32::BITS) as usize;
    let mask = (1u64 << width) - 1;
    for group in out.chunks_mut(8) {
        let from = bytes.get(at / 8..).unwrap_or(&[]);
        let mut padded = [0u8; 40];
        let window = from.first_chunk().unwrap_or_else(|| {
            padded[..from.len()].copy_from_slice(from);
            &padded
        });
        for (i, slot) in group.iter_mut().enumerate() {
            let bit = at % 8 + i * width;
            let word = window[bit / 8..].first_chunk().unwrap_or(&[0; 8]);
            *slot = (u64::from_le_bytes(*word) >> (bit % 8) & mask) as u32;
        }
        at += 8 * width;
    }
}

/// Appends values up to 32 bits wide, LSB first, as [`unpack`] reads them.
pub struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    filled: u32,
}

impl<'a> BitWriter<'a> {
    /// Starts writing at the end of `out`, on a byte boundary.
    #[inline]
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            out,
            acc: 0,
            filled: 0,
        }
    }

    /// Appends the low `width ≤ 32` bits of `value`; higher bits must be 0.
    #[inline]
    pub fn put(&mut self, value: u32, width: u32) {
        self.acc |= u64::from(value) << self.filled;
        self.filled += width;
        if self.filled >= u32::BITS {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= u32::BITS;
            self.filled -= u32::BITS;
        }
    }

    /// Pads to a byte boundary with zero bits.
    #[inline]
    pub fn pad(&mut self) {
        let bytes = self.filled.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        (self.acc, self.filled) = (0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_of_every_width_round_trip_at_every_offset() {
        for width in 0..=32u32 {
            let max = if width == 0 {
                0
            } else {
                u32::MAX >> (32 - width)
            };
            let values: Vec<u32> = (0..21u32).map(|i| max.wrapping_mul(i + 7) & max).collect();
            for lead in 0..9u32 {
                let mut buf = Vec::new();
                let mut bits = BitWriter::new(&mut buf);
                bits.put(0, lead);
                values.iter().for_each(|&v| bits.put(v, width));
                bits.pad();
                assert_eq!(buf.len(), (lead + 21 * width).div_ceil(8) as usize);
                let mut back = vec![u32::MAX; values.len()];
                unpack(&buf, lead as usize, width, &mut back);
                assert_eq!(back, values, "width {width}, lead {lead}");
            }
        }
    }

    #[test]
    fn bits_past_the_end_read_as_zero() {
        let mut out = [7u32; 3];
        unpack(&[0xff], 4, 4, &mut out);
        assert_eq!(out, [0xf, 0, 0]);
    }
}
