//! Frame-of-reference (FOR) encoding: values stored as bit-packed
//! unsigned offsets from the column minimum.
//!
//! FOR keeps random access O(1) and allows predicates to be rewritten
//! into the packed domain, so a scan never reconstructs the original
//! values — comparisons happen on the raw packed offsets.

use crate::bitmap::Bitmap;
use crate::encoding::bitpack::BitPacked;
use crate::encoding::{match_word, per_op, BLOCK_ROWS};
use crate::value::CmpOp;

/// A frame-of-reference encoded integer column.
///
/// ```
/// use haec_columnar::encoding::foref::ForInts;
/// let e = ForInts::encode(&[1000, 1003, 1001, 1007]);
/// assert_eq!(e.get(3), 1007);
/// assert!(e.size_bytes() < 4 * 8);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForInts {
    reference: i64,
    packed: BitPacked,
}

impl ForInts {
    /// Encodes a slice.
    pub fn encode(data: &[i64]) -> Self {
        let reference = data.iter().copied().min().unwrap_or(0);
        let offsets: Vec<u64> = data.iter().map(|&v| v.wrapping_sub(reference) as u64).collect();
        let width = offsets.iter().copied().max().map_or(0, BitPacked::width_for);
        ForInts { reference, packed: BitPacked::pack(&offsets, width) }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Returns `true` if the column is empty.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The frame reference (column minimum).
    pub fn reference(&self) -> i64 {
        self.reference
    }

    /// The packed offset width in bits.
    pub fn width(&self) -> u32 {
        self.packed.width()
    }

    /// Random access to row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        self.reference.wrapping_add(self.packed.get(i) as i64)
    }

    /// Decodes block `block` — rows `[64 * block, 64 * block + 64)`,
    /// fewer in the last block — into the front of `out` and returns how
    /// many rows it holds (0 past the end). `offsets` is scratch space
    /// for the unpacked block.
    pub(crate) fn decode_block(
        &self,
        block: usize,
        offsets: &mut [u64; BLOCK_ROWS],
        out: &mut [i64; BLOCK_ROWS],
    ) -> usize {
        let n = self.packed.unpack_block(block, offsets);
        for (lane, &off) in out.iter_mut().zip(&*offsets) {
            *lane = self.reference.wrapping_add(off as i64);
        }
        n
    }

    /// Decodes to a fresh vector.
    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len());
        let (mut offsets, mut buf) = ([0u64; BLOCK_ROWS], [0i64; BLOCK_ROWS]);
        for block in 0..self.len().div_ceil(BLOCK_ROWS) {
            let n = self.decode_block(block, &mut offsets, &mut buf);
            out.extend_from_slice(&buf[..n]);
        }
        out
    }

    /// Evaluates `value op literal` into `out` without leaving the packed
    /// domain: the literal is translated once, out-of-frame literals
    /// short-circuit to constant-true/false range fills, and in-frame
    /// ones compare each unpacked block of *offsets* against the
    /// translated literal — no value is ever rebased.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn scan(&self, op: CmpOp, literal: i64, out: &mut Bitmap) {
        assert_eq!(out.len(), self.len(), "output bitmap length mismatch");
        let n = self.len();
        if n == 0 {
            return;
        }
        let max_offset = if self.width() == 64 { u64::MAX } else { (1u64 << self.width()) - 1 };
        // Translate literal into the offset domain, saturating.
        let distance = literal as i128 - self.reference as i128;
        let (below, above) = (distance < 0, distance > max_offset as i128);

        // Short circuits: literal outside the frame.
        let all = |out: &mut Bitmap, v: bool| out.set_range(0, n, v);
        match op {
            CmpOp::Eq if below || above => return all(out, false),
            CmpOp::Ne if below || above => return all(out, true),
            CmpOp::Lt | CmpOp::Le if below => return all(out, false),
            CmpOp::Lt | CmpOp::Le if above => return all(out, true),
            CmpOp::Gt | CmpOp::Ge if below => return all(out, true),
            CmpOp::Gt | CmpOp::Ge if above => return all(out, false),
            _ => {}
        }
        let lit_off = distance as u64;
        let mut offsets = [0u64; BLOCK_ROWS];
        per_op!(op, lit_off, |hit| {
            for block in 0..n.div_ceil(BLOCK_ROWS) {
                let rows = self.packed.unpack_block(block, &mut offsets);
                out.set_word(block, match_word(&offsets[..rows], hit));
            }
        });
    }

    /// Minimum and maximum over all rows (min is the reference by
    /// construction; max needs one pass over packed offsets).
    pub fn min_max(&self) -> Option<(i64, i64)> {
        let mut offsets = [0u64; BLOCK_ROWS];
        let max_off = (0..self.len().div_ceil(BLOCK_ROWS))
            .filter_map(|block| {
                let n = self.packed.unpack_block(block, &mut offsets);
                offsets[..n].iter().copied().max()
            })
            .max()?;
        Some((self.reference, self.reference.wrapping_add(max_off as i64)))
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.packed.size_bytes() + std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data = vec![100, 107, 101, 100, 163];
        let e = ForInts::encode(&data);
        assert_eq!(e.decode(), data);
        assert_eq!(e.reference(), 100);
        assert_eq!(e.width(), 6); // max offset 63
    }

    #[test]
    fn negative_values() {
        let data = vec![-50, -10, -50, 0, 13];
        let e = ForInts::encode(&data);
        assert_eq!(e.decode(), data);
        assert_eq!(e.reference(), -50);
    }

    #[test]
    fn constant_column_is_free() {
        let data = vec![42i64; 5000];
        let e = ForInts::encode(&data);
        assert_eq!(e.width(), 0);
        assert!(e.size_bytes() <= 16);
        assert_eq!(e.get(4999), 42);
    }

    #[test]
    fn empty() {
        let e = ForInts::encode(&[]);
        assert!(e.is_empty());
        assert_eq!(e.min_max(), None);
        assert_eq!(e.decode(), Vec::<i64>::new());
    }

    #[test]
    fn scan_matches_reference_impl() {
        let data: Vec<i64> = (0..257).map(|i| 1000 + (i * 37) % 91).collect();
        let e = ForInts::encode(&data);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for lit in [999, 1000, 1045, 1090, 2000] {
                let mut got = Bitmap::zeros(data.len());
                e.scan(op, lit, &mut got);
                let want = Bitmap::from_bools(&data.iter().map(|&v| op.eval(v, lit)).collect::<Vec<_>>());
                assert_eq!(got, want, "op {op} lit {lit}");
            }
        }
    }

    #[test]
    fn scan_out_of_frame_short_circuits() {
        let data = vec![10, 11, 12];
        let e = ForInts::encode(&data);
        let mut out = Bitmap::zeros(3);
        e.scan(CmpOp::Lt, 5, &mut out);
        assert_eq!(out.count_ones(), 0);
        let mut out = Bitmap::zeros(3);
        e.scan(CmpOp::Lt, 100, &mut out);
        assert_eq!(out.count_ones(), 3);
        let mut out = Bitmap::zeros(3);
        e.scan(CmpOp::Eq, 100, &mut out);
        assert_eq!(out.count_ones(), 0);
        let mut out = Bitmap::zeros(3);
        e.scan(CmpOp::Ne, 5, &mut out);
        assert_eq!(out.count_ones(), 3);
        let mut out = Bitmap::zeros(3);
        e.scan(CmpOp::Ge, 5, &mut out);
        assert_eq!(out.count_ones(), 3);
        let mut out = Bitmap::zeros(3);
        e.scan(CmpOp::Gt, 100, &mut out);
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn min_max() {
        let e = ForInts::encode(&[5, -3, 19, 2]);
        assert_eq!(e.min_max(), Some((-3, 19)));
    }

    #[test]
    fn compression_on_narrow_range() {
        let data: Vec<i64> = (0..10_000).map(|i| 1_000_000 + i % 100).collect();
        let e = ForInts::encode(&data);
        // 7 bits per value ≈ 8750 bytes vs 80 000 plain.
        assert!(e.size_bytes() < 10_000, "{}", e.size_bytes());
    }
}
