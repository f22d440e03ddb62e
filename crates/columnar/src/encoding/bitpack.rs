//! Fixed-width bit packing of `u64` values — the primitive under
//! frame-of-reference and delta encoding.

use crate::encoding::BLOCK_ROWS;

/// A packed array of `len` values, each `width` bits wide.
///
/// `width == 0` encodes the all-zeros array in zero data words, the
/// common case for constant columns after frame-of-reference shifting.
///
/// ```
/// use haec_columnar::encoding::bitpack::BitPacked;
/// let p = BitPacked::pack(&[3, 0, 7, 5], 3);
/// assert_eq!(p.get(2), 7);
/// assert_eq!(p.unpack(), vec![3, 0, 7, 5]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitPacked {
    words: Vec<u64>,
    width: u32,
    len: usize,
}

impl BitPacked {
    /// Packs `values` at `width` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, or if any value needs more than `width`
    /// bits.
    pub fn pack(values: &[u64], width: u32) -> Self {
        assert!(width <= 64, "width must be <= 64");
        if width == 0 {
            assert!(values.iter().all(|&v| v == 0), "width 0 requires all-zero values");
            return BitPacked { words: Vec::new(), width, len: values.len() };
        }
        if width < 64 {
            let limit = 1u64 << width;
            assert!(values.iter().all(|&v| v < limit), "value does not fit in {width} bits");
        }
        let total_bits = values.len() * width as usize;
        let mut words = vec![0u64; total_bits.div_ceil(64)];
        for (i, &v) in values.iter().enumerate() {
            let bit = i * width as usize;
            let (w, off) = (bit / 64, (bit % 64) as u32);
            words[w] |= v << off;
            let spill = off + width;
            if spill > 64 {
                words[w + 1] |= v >> (64 - off);
            }
        }
        BitPacked { words, width, len: values.len() }
    }

    /// The minimal width able to represent `max`.
    pub fn width_for(max: u64) -> u32 {
        64 - max.leading_zeros()
    }

    /// Number of packed values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no values are packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured bit width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Random access to value `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        if self.width == 0 {
            return 0;
        }
        let width = self.width;
        let bit = i * width as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let mut v = self.words[w] >> off;
        let spill = off + width;
        if spill > 64 {
            v |= self.words[w + 1] << (64 - off);
        }
        v & mask
    }

    /// Unpacks block `block` — values `[64 * block, 64 * block + 64)`,
    /// fewer in the last block — into the front of `out` and returns how
    /// many it holds (0 past the end); lanes beyond that are
    /// unspecified. 64 values of `width` bits are exactly `width` words,
    /// so every block starts word-aligned: this is the one bit-unpacking
    /// routine every sequential reader (FOR and Delta blocks, scans,
    /// decodes) goes through, compiled once per bit width so that every
    /// lane's word index and shift are constants.
    pub fn unpack_block(&self, block: usize, out: &mut [u64; BLOCK_ROWS]) -> usize {
        let n = self.len.saturating_sub(block * BLOCK_ROWS).min(BLOCK_ROWS);
        let width = self.width as usize;
        if n == 0 || width == 0 {
            out.fill(0);
            return n;
        }
        // The column's last block may own fewer than `width` words: it
        // unpacks from a zero-padded copy.
        let start = block * width;
        let padded: [u64; BLOCK_ROWS];
        let words = match self.words.get(start..start + width) {
            Some(words) => words,
            None => {
                let rest = &self.words[start..];
                padded = std::array::from_fn(|i| rest.get(i).copied().unwrap_or(0));
                &padded[..width]
            }
        };
        unpack_words(words, out);
        n
    }

    /// Unpacks everything into a fresh vector.
    // haec-lint: allow(dead-pub) — the round-trip reference decoder the tests and the doc example check packing against.
    pub fn unpack(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut buf = [0u64; BLOCK_ROWS];
        for block in 0..self.len.div_ceil(BLOCK_ROWS) {
            let n = self.unpack_block(block, &mut buf);
            out.extend_from_slice(&buf[..n]);
        }
        out
    }

    /// Payload size in bytes (words only; excludes the struct header).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Expands `$body` 64 times with `$lane` bound to the constants
/// `0..=63`: straight-line code, whatever the optimizer's unrolling
/// budget.
macro_rules! for_each_lane {
    ($lane:ident => $body:expr) => {
        for_each_lane!(@ $lane => $body;
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63)
    };
    (@ $lane:ident => $body:expr; $($n:literal)*) => {
        $({
            const $lane: usize = $n;
            $body
        })*
    };
}

/// Unpacks the 64 `W`-bit values held in `words` (exactly `W` words).
/// With the width a constant, every lane's word index, shift and
/// straddle test fold away: 64 shift-and-mask statements, no loop, no
/// bounds check, no branch.
#[inline(always)]
fn unpack_lanes<const W: usize>(words: &[u64], out: &mut [u64; BLOCK_ROWS]) {
    let words: &[u64; W] = words.try_into().expect("a block of W-bit values is W words");
    let mask = if W == 64 { u64::MAX } else { (1u64 << W) - 1 };
    for_each_lane!(LANE => {
        let (w, off) = (LANE * W / 64, LANE * W % 64);
        let low = words[w] >> off;
        // The `%`s only keep the arm not taken in bounds.
        out[LANE] = if off + W > 64 { (low | words[(w + 1) % W] << ((64 - off) % 64)) & mask } else { low & mask };
    });
}

/// [`unpack_lanes`] for `words.len()`, the block's bit width (1..=64).
fn unpack_words(words: &[u64], out: &mut [u64; BLOCK_ROWS]) {
    macro_rules! by_width {
        ($($w:literal)*) => {
            match words.len() {
                $($w => unpack_lanes::<$w>(words, out),)*
                width => unreachable!("bit width {width}"),
            }
        };
    }
    by_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_widths() {
        for width in [1u32, 3, 7, 8, 13, 31, 33, 63, 64] {
            let max = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let values: Vec<u64> =
                (0..200u64).map(|i| (i * 2_654_435_761) % (max.saturating_add(1)).max(1)).collect();
            let values: Vec<u64> = values.iter().map(|&v| if width == 64 { v } else { v & max }).collect();
            let p = BitPacked::pack(&values, width);
            assert_eq!(p.unpack(), values, "width {width}");
            assert_eq!(p.len(), 200);
        }
    }

    #[test]
    fn width_zero_all_zeros() {
        let p = BitPacked::pack(&[0, 0, 0], 0);
        assert_eq!(p.size_bytes(), 0);
        assert_eq!(p.unpack(), vec![0, 0, 0]);
        assert_eq!(p.get(1), 0);
    }

    #[test]
    #[should_panic(expected = "width 0 requires all-zero")]
    fn width_zero_nonzero_panics() {
        let _ = BitPacked::pack(&[1], 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_panics() {
        let _ = BitPacked::pack(&[8], 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        BitPacked::pack(&[1], 1).get(1);
    }

    #[test]
    fn width_for_values() {
        assert_eq!(BitPacked::width_for(0), 0);
        assert_eq!(BitPacked::width_for(1), 1);
        assert_eq!(BitPacked::width_for(7), 3);
        assert_eq!(BitPacked::width_for(8), 4);
        assert_eq!(BitPacked::width_for(u64::MAX), 64);
    }

    #[test]
    fn compression_is_real() {
        let values: Vec<u64> = (0..1000).map(|i| i % 16).collect();
        let p = BitPacked::pack(&values, 4);
        // 4 bits * 1000 = 500 bytes, rounded up to whole u64 words.
        assert_eq!(p.size_bytes(), 504);
    }

    #[test]
    fn cross_word_boundary() {
        // width 13: values straddle u64 boundaries regularly.
        let values: Vec<u64> = (0..64).map(|i| (i * 97) % 8192).collect();
        let p = BitPacked::pack(&values, 13);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(p.get(i), v, "index {i}");
        }
    }

    #[test]
    fn unpack_block_matches_get_at_block_edges() {
        for width in [0u32, 1, 5, 13, 32, 63, 64] {
            let max = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            for len in [0usize, 1, 63, 64, 65, 128, 200] {
                let values: Vec<u64> =
                    (0..len as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & max).collect();
                let p = BitPacked::pack(&values, width);
                let mut buf = [u64::MAX; BLOCK_ROWS];
                for block in 0..len / BLOCK_ROWS + 2 {
                    let n = p.unpack_block(block, &mut buf);
                    let want = values.chunks(BLOCK_ROWS).nth(block).unwrap_or(&[]);
                    assert_eq!(&buf[..n], want, "width {width} len {len} block {block}");
                }
            }
        }
    }

    #[test]
    fn empty_pack() {
        let p = BitPacked::pack(&[], 5);
        assert!(p.is_empty());
        assert_eq!(p.unpack(), Vec::<u64>::new());
    }
}
