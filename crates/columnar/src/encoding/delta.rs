//! Delta encoding: consecutive differences, zig-zag mapped and
//! bit-packed, with periodic checkpoints for seekable access.
//!
//! Ideal for monotonically increasing keys (timestamps, surrogate ids)
//! where deltas are tiny even though absolute values need 64 bits.

use crate::encoding::bitpack::BitPacked;
use crate::encoding::BLOCK_ROWS;

/// Checkpoint spacing: a decoded value is stored verbatim every this many
/// rows so `get` is O(CHECKPOINT_EVERY) instead of O(n) — on average
/// `CHECKPOINT_EVERY / 2` delta unpacks per call, which is why readers
/// of an ascending row sequence go through [`DeltaInts::cursor`].
pub const CHECKPOINT_EVERY: usize = 1024;

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A delta-encoded integer column.
///
/// ```
/// use haec_columnar::encoding::delta::DeltaInts;
/// let data: Vec<i64> = (0..100).map(|i| 1_600_000_000 + i * 30).collect();
/// let e = DeltaInts::encode(&data);
/// assert_eq!(e.decode(), data);
/// assert!(e.size_bytes() < 100 * 8 / 4);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaInts {
    /// Zig-zag deltas, bit-packed. deltas[i] = data[i+1] - data[i].
    deltas: BitPacked,
    /// data[k * CHECKPOINT_EVERY] for fast seeking; checkpoint 0 is the
    /// first value.
    checkpoints: Vec<i64>,
    len: usize,
}

impl DeltaInts {
    /// Encodes a slice.
    pub fn encode(data: &[i64]) -> Self {
        if data.is_empty() {
            return DeltaInts { deltas: BitPacked::pack(&[], 0), checkpoints: Vec::new(), len: 0 };
        }
        let zz: Vec<u64> = data.windows(2).map(|w| zigzag(w[1].wrapping_sub(w[0]))).collect();
        let checkpoints = data.iter().copied().step_by(CHECKPOINT_EVERY).collect();
        let width = zz.iter().copied().max().map_or(0, BitPacked::width_for);
        DeltaInts { deltas: BitPacked::pack(&zz, width), checkpoints, len: data.len() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed delta width in bits.
    pub fn width(&self) -> u32 {
        self.deltas.width()
    }

    /// Random access to row `i`, reconstructing from the nearest
    /// checkpoint: O([`CHECKPOINT_EVERY`]) delta unpacks, not O(1). Use
    /// it for genuine point access; a sequence of rows is cheaper
    /// through [`DeltaInts::cursor`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> i64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        let ck = i / CHECKPOINT_EVERY;
        self.walk(ck * CHECKPOINT_EVERY, self.checkpoints[ck], i)
    }

    /// The value of row `to`, prefix-summing the deltas from row `from`
    /// (whose value is `v`).
    #[inline]
    fn walk(&self, from: usize, mut v: i64, to: usize) -> i64 {
        for d in from..to {
            v = v.wrapping_add(unzigzag(self.deltas.get(d)));
        }
        v
    }

    /// A forward cursor: [`DeltaCursor::at`] answers like [`DeltaInts::get`]
    /// for any row, but resumes from the last row it decoded, so an
    /// ascending sequence of rows costs one delta unpack per row
    /// *skipped* instead of a re-walk from the checkpoint per row. Safe
    /// to create on an empty column.
    pub fn cursor(&self) -> DeltaCursor<'_> {
        DeltaCursor { col: self, row: 0, value: self.first() }
    }

    /// Decodes block `block` — rows `[64 * block, 64 * block + 64)`,
    /// fewer in the last block — into the front of `out` and returns how
    /// many rows it holds (0 past the end). `carry` is the value of the
    /// block's first row on entry (row 0's is [`DeltaInts::first`]) and
    /// of the next block's first row on return: one unpacked block of
    /// zig-zag deltas, prefix-summed. Blocks must be decoded in order;
    /// `zz` is scratch space for the unpacked block.
    pub(crate) fn decode_block(
        &self,
        block: usize,
        carry: &mut i64,
        zz: &mut [u64; BLOCK_ROWS],
        out: &mut [i64; BLOCK_ROWS],
    ) -> usize {
        let n = self.len.saturating_sub(block * BLOCK_ROWS).min(BLOCK_ROWS);
        // Row `i + 1` is row `i` plus delta `i`, so a block of rows pairs
        // with the same block of deltas; the column's last row has none
        // (its lane unpacks as zero and carries nowhere).
        self.deltas.unpack_block(block, zz);
        let mut v = *carry;
        for (lane, &d) in out[..n].iter_mut().zip(&*zz) {
            *lane = v;
            v = v.wrapping_add(unzigzag(d));
        }
        *carry = v;
        n
    }

    /// The first row's value (0 for an empty column): the carry
    /// [`DeltaInts::decode_block`] starts from.
    pub(crate) fn first(&self) -> i64 {
        self.checkpoints.first().copied().unwrap_or(0)
    }

    /// Calls `f` with every block of decoded rows, in order.
    fn for_each_block(&self, mut f: impl FnMut(&[i64])) {
        let (mut carry, mut zz, mut buf) = (self.first(), [0u64; BLOCK_ROWS], [0i64; BLOCK_ROWS]);
        for block in 0..self.len.div_ceil(BLOCK_ROWS) {
            let n = self.decode_block(block, &mut carry, &mut zz, &mut buf);
            f(&buf[..n]);
        }
    }

    /// Decodes to a fresh vector (sequential, O(n)).
    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_block(|b| out.extend_from_slice(b));
        out
    }

    /// Minimum and maximum over all rows (one block-decoding pass).
    pub fn min_max(&self) -> Option<(i64, i64)> {
        let mut range = (i64::MAX, i64::MIN);
        self.for_each_block(|b| range = b.iter().fold(range, |(lo, hi), &v| (lo.min(v), hi.max(v))));
        (!self.is_empty()).then_some(range)
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.deltas.size_bytes() + self.checkpoints.len() * 8
    }
}

/// Forward cursor over a [`DeltaInts`] column (see [`DeltaInts::cursor`]).
#[derive(Clone, Debug)]
pub struct DeltaCursor<'a> {
    col: &'a DeltaInts,
    /// The last row decoded (row 0 before the first call).
    row: usize,
    /// The value of `row`.
    value: i64,
}

impl DeltaCursor<'_> {
    /// The value of row `i`. Resumes from the last decoded row; seeks to
    /// `i`'s checkpoint only when `i` lies before that row or in a later
    /// checkpoint block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn at(&mut self, i: usize) -> i64 {
        assert!(i < self.col.len, "index {i} out of bounds ({})", self.col.len);
        let block = i / CHECKPOINT_EVERY;
        if i < self.row || block > self.row / CHECKPOINT_EVERY {
            self.row = block * CHECKPOINT_EVERY;
            self.value = self.col.checkpoints[block];
        }
        self.value = self.col.walk(self.row, self.value, i);
        self.row = i;
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_decode_matches_input_at_block_edges() {
        for data in [
            vec![],
            vec![42],
            (0..3000).map(|i| i * 7 - 1000).collect::<Vec<i64>>(),
            // 65 rows = exactly 64 deltas: the last block holds one row
            // and no delta.
            (0..65).map(|i| i * i).collect(),
            vec![i64::MIN, i64::MAX, 0, -1],
        ] {
            let e = DeltaInts::encode(&data);
            assert_eq!(e.decode(), data);
            assert_eq!(e.min_max(), data.iter().copied().min().zip(data.iter().copied().max()));
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [-5i64, -1, 0, 1, 5, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
    }

    #[test]
    fn zigzag_small_magnitudes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn round_trip_monotone() {
        let data: Vec<i64> = (0..5000).map(|i| 1_000_000 + i * 17).collect();
        let e = DeltaInts::encode(&data);
        assert_eq!(e.decode(), data);
    }

    #[test]
    fn round_trip_random_walk() {
        let mut v = 0i64;
        let data: Vec<i64> = (0..3000u64)
            .map(|i| {
                v = v.wrapping_add(((i.wrapping_mul(2_654_435_761)) % 2001) as i64 - 1000);
                v
            })
            .collect();
        let e = DeltaInts::encode(&data);
        assert_eq!(e.decode(), data);
    }

    #[test]
    fn get_uses_checkpoints() {
        let data: Vec<i64> = (0..(CHECKPOINT_EVERY as i64 * 3 + 7)).map(|i| i * 3).collect();
        let e = DeltaInts::encode(&data);
        for &i in &[
            0usize,
            1,
            CHECKPOINT_EVERY - 1,
            CHECKPOINT_EVERY,
            CHECKPOINT_EVERY + 1,
            2 * CHECKPOINT_EVERY + 500,
            data.len() - 1,
        ] {
            assert_eq!(e.get(i), data[i], "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_oob_panics() {
        DeltaInts::encode(&[1, 2]).get(2);
    }

    #[test]
    fn empty_and_singleton() {
        let e = DeltaInts::encode(&[]);
        assert!(e.is_empty());
        assert_eq!(e.decode(), Vec::<i64>::new());
        assert_eq!(e.min_max(), None);

        let e = DeltaInts::encode(&[99]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.decode(), vec![99]);
        assert_eq!(e.get(0), 99);
        assert_eq!(e.min_max(), Some((99, 99)));
    }

    #[test]
    fn min_max_non_monotone() {
        let e = DeltaInts::encode(&[10, 5, 30, -2, 7]);
        assert_eq!(e.min_max(), Some((-2, 30)));
    }

    #[test]
    fn compresses_timestamps_hard() {
        // Regular 1-second ticks: delta = 1 → 2 bits zig-zagged.
        let data: Vec<i64> = (0..100_000).map(|i| 1_600_000_000 + i).collect();
        let e = DeltaInts::encode(&data);
        let plain = data.len() * 8;
        assert!(e.size_bytes() * 10 < plain, "{} vs {}", e.size_bytes(), plain);
    }

    #[test]
    fn extreme_delta_values() {
        let data = vec![i64::MIN, i64::MAX, 0, i64::MIN / 2];
        let e = DeltaInts::encode(&data);
        assert_eq!(e.decode(), data);
    }
}
