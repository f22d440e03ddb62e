//! Delta encoding: consecutive differences, packed as unsigned
//! residuals over the column's smallest difference, with periodic
//! checkpoints for seekable access.
//!
//! Ideal for monotonically increasing keys (timestamps, surrogate ids)
//! where deltas are tiny even though absolute values need 64 bits. An
//! arithmetic sequence — a counting key, a fixed-tick timestamp — has
//! every delta equal to the smallest, so it packs to zero bits and every
//! read of it is `first + i × step`.

use crate::encoding::bitpack::BitPacked;
use crate::encoding::BLOCK_ROWS;

/// Checkpoint spacing: a decoded value is stored verbatim every this many
/// rows so `get` is O(CHECKPOINT_EVERY) instead of O(n) — on average
/// eight 64-row block unpacks per call, which is why readers of an
/// ascending row sequence go through [`DeltaInts::cursor`]. A whole
/// number of 64-row blocks (16), so a seek from a checkpoint starts on a
/// block boundary.
const CHECKPOINT_EVERY: usize = 1024;

/// Blocks between two checkpoints.
const CHECKPOINT_BLOCKS: usize = CHECKPOINT_EVERY / BLOCK_ROWS;
const _: () = assert!(CHECKPOINT_EVERY.is_multiple_of(BLOCK_ROWS));

/// A delta-encoded integer column.
///
/// Each delta `data[i + 1] - data[i]` (wrapping) is stored as its
/// residual over `step`, the smallest delta: a non-negative number, and
/// never wider than the delta's zig-zag code would be, since the
/// residuals span `max − min` of the deltas and zig-zag needs about
/// twice the larger magnitude. When every delta equals `step` the
/// residuals pack to width 0, and a read is arithmetic: no unpack, no
/// prefix sum.
///
/// ```
/// use haec_columnar::encoding::delta::DeltaInts;
/// let data: Vec<i64> = (0..100).map(|i| 1_600_000_000 + i * 30).collect();
/// let e = DeltaInts::encode(&data);
/// assert_eq!(e.decode(), data);
/// assert_eq!(e.width(), 0);
/// assert_eq!(e.get(99), 1_600_002_970);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaInts {
    /// `deltas[i] - step`, bit-packed, where deltas[i] = data[i+1] -
    /// data[i].
    residuals: BitPacked,
    /// The smallest delta (0 for fewer than two rows).
    step: i64,
    /// data[k * CHECKPOINT_EVERY] for fast seeking; checkpoint 0 is the
    /// first value.
    checkpoints: Vec<i64>,
    len: usize,
}

impl DeltaInts {
    /// Encodes a slice: one pass for the smallest and largest delta,
    /// then the residuals over the smallest, packed at the width of
    /// their span.
    pub fn encode(data: &[i64]) -> Self {
        let deltas = || data.windows(2).map(|w| w[1].wrapping_sub(w[0]));
        let (step, top) = deltas().fold((i64::MAX, i64::MIN), |(lo, hi), d| (lo.min(d), hi.max(d)));
        let (step, width) =
            if data.len() < 2 { (0, 0) } else { (step, BitPacked::width_for(top.wrapping_sub(step) as u64)) };
        let residuals: Vec<u64> = deltas().map(|d| d.wrapping_sub(step) as u64).collect();
        let checkpoints = data.iter().copied().step_by(CHECKPOINT_EVERY).collect();
        DeltaInts { residuals: BitPacked::pack(&residuals, width), step, checkpoints, len: data.len() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed residual width in bits: 0 for an arithmetic sequence.
    pub fn width(&self) -> u32 {
        self.residuals.width()
    }

    /// Whether every delta equals `step`: the column is `first + i ×
    /// step` and every read is that product.
    #[inline]
    fn arithmetic(&self) -> bool {
        self.residuals.width() == 0
    }

    /// Row `i` of an arithmetic column (wrapping, like the deltas).
    #[inline]
    fn nth(&self, i: usize) -> i64 {
        self.first().wrapping_add((i as i64).wrapping_mul(self.step))
    }

    /// Random access to row `i`. An arithmetic column answers in O(1);
    /// any other is a one-shot [`DeltaCursor`] seek, with no block kept
    /// — from the nearest checkpoint, one block unpack and a summed fold
    /// per whole block before `i`'s (at most `CHECKPOINT_EVERY` / 64 − 1
    /// of them), then `i`'s own block unpacked and summed up to `i`. Use
    /// it for genuine point access; a sequence of rows is cheaper
    /// through [`DeltaInts::cursor`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> i64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        if self.arithmetic() {
            return self.nth(i);
        }
        let block = i / BLOCK_ROWS;
        let checkpoint = block / CHECKPOINT_BLOCKS;
        let mut res = [0u64; BLOCK_ROWS];
        let first = self.seek(checkpoint * CHECKPOINT_BLOCKS, self.checkpoints[checkpoint], block, &mut res);
        self.residuals.unpack_block(block, &mut res);
        res[..i % BLOCK_ROWS].iter().fold(first, |v, &r| v.wrapping_add(self.step).wrapping_add(r as i64))
    }

    /// A forward cursor: [`DeltaCursor::at`] answers like [`DeltaInts::get`]
    /// for any row, but keeps the last 64-row block it decoded, so an
    /// ascending sequence of rows costs an array load per row inside
    /// that block and one block unpack per block *skipped* — never a
    /// re-walk from the checkpoint per row. On an arithmetic column it
    /// holds no block (and allocates nothing): every read is O(1). Safe
    /// to create on an empty column.
    pub fn cursor(&self) -> DeltaCursor<'_> {
        let held =
            (!self.arithmetic()).then(|| Box::new(HeldBlock { res: [0; BLOCK_ROWS], rows: [0; BLOCK_ROWS] }));
        DeltaCursor { col: self, block: None, carry: 0, held }
    }

    /// The value of block `to`'s first row, given `carry`, the value of
    /// block `from`'s (`from <= to`): `64 × step` plus one unpack and a
    /// summed residual fold per block in between, or one product on an
    /// arithmetic column — the seek under [`DeltaInts::get`], every
    /// [`DeltaCursor`] load and a skipped block of
    /// [`crate::encoding::Blocks`]. `res` is scratch space for the
    /// unpacked blocks.
    pub(crate) fn seek(&self, from: usize, carry: i64, to: usize, res: &mut [u64; BLOCK_ROWS]) -> i64 {
        let stride = self.step.wrapping_mul(BLOCK_ROWS as i64);
        if self.arithmetic() {
            return carry.wrapping_add(stride.wrapping_mul((to - from) as i64));
        }
        (from..to).fold(carry, |v, block| {
            self.residuals.unpack_block(block, res);
            res.iter().fold(v.wrapping_add(stride), |sum, &r| sum.wrapping_add(r as i64))
        })
    }

    /// Decodes block `block` — rows `[64 * block, 64 * block + 64)`,
    /// fewer in the last block — into the front of `out` and returns how
    /// many rows it holds (0 past the end). `carry` is the value of the
    /// block's first row on entry (row 0's is [`DeltaInts::first`]) and
    /// of the next block's first row on return: one unpacked block of
    /// residuals, each plus `step` and prefix-summed — or, on an
    /// arithmetic column, `step` added lane by lane with no unpack.
    /// Blocks must be decoded in order; `res` is scratch space for the
    /// unpacked block.
    pub(crate) fn decode_block(
        &self,
        block: usize,
        carry: &mut i64,
        res: &mut [u64; BLOCK_ROWS],
        out: &mut [i64; BLOCK_ROWS],
    ) -> usize {
        let n = self.len.saturating_sub(block * BLOCK_ROWS).min(BLOCK_ROWS);
        let (mut v, step) = (*carry, self.step);
        if self.arithmetic() {
            // A running sum, not `v + j × step`: without a 64-bit SIMD
            // multiply the product form runs at half the speed.
            for lane in &mut out[..n] {
                *lane = v;
                v = v.wrapping_add(step);
            }
            *carry = v;
            return n;
        }
        // Row `i + 1` is row `i` plus delta `i`, so a block of rows pairs
        // with the same block of deltas; the column's last row has none
        // (its lane unpacks as zero and carries nowhere).
        self.residuals.unpack_block(block, res);
        for (lane, &r) in out[..n].iter_mut().zip(&*res) {
            *lane = v;
            v = v.wrapping_add(step).wrapping_add(r as i64);
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
        let (mut carry, mut res, mut buf) = (self.first(), [0u64; BLOCK_ROWS], [0i64; BLOCK_ROWS]);
        for block in 0..self.len.div_ceil(BLOCK_ROWS) {
            let n = self.decode_block(block, &mut carry, &mut res, &mut buf);
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

    /// Payload size in bytes: the packed residuals, `step` and the
    /// checkpoints.
    pub fn size_bytes(&self) -> usize {
        self.residuals.size_bytes() + std::mem::size_of::<i64>() + self.checkpoints.len() * 8
    }
}

/// Forward cursor over a [`DeltaInts`] column (see [`DeltaInts::cursor`]).
///
/// On an arithmetic column (width 0) it holds nothing and every read is
/// `first + i × step`. Otherwise it holds one decoded 64-row block. A
/// read inside that block is an array load. A read further on skips
/// each whole block in between — one [`BitPacked::unpack_block`] and a
/// summed residual fold, no per-row writes — and decodes the target
/// block through `DeltaInts::decode_block`, the decoder under every
/// sequential reader. A read before the held block, or past the next
/// checkpoint, restarts from the target's checkpoint, so no read walks
/// more than `CHECKPOINT_EVERY` / 64 blocks.
///
/// The block lives on the heap: every cursor of every scheme shares one
/// enum, and an inline kilobyte there would be copied with each Plain or
/// FOR cursor too (≈ 20 ns per cursor, against one allocation per Delta
/// cursor that holds a block).
#[derive(Clone, Debug)]
pub struct DeltaCursor<'a> {
    col: &'a DeltaInts,
    /// The block held in `held.rows` (`None` before the first read).
    block: Option<usize>,
    /// The value of the row after the held block: where skipping resumes.
    carry: i64,
    /// `None` on an arithmetic column, which needs no block.
    held: Option<Box<HeldBlock>>,
}

/// A [`DeltaCursor`]'s decoded block and its unpacking scratch space.
#[derive(Clone, Debug)]
struct HeldBlock {
    /// One unpacked block of residuals.
    res: [u64; BLOCK_ROWS],
    /// The held block's decoded rows.
    rows: [i64; BLOCK_ROWS],
}

impl DeltaCursor<'_> {
    /// The value of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn at(&mut self, i: usize) -> i64 {
        assert!(i < self.col.len, "index {i} out of bounds ({})", self.col.len);
        let Some(held) = &mut self.held else {
            return self.col.nth(i);
        };
        let block = i / BLOCK_ROWS;
        if self.block != Some(block) {
            let checkpoint = block / CHECKPOINT_BLOCKS;
            let (next, carry) = match self.block {
                Some(held) if held < block && held / CHECKPOINT_BLOCKS == checkpoint => {
                    (held + 1, self.carry)
                }
                _ => (checkpoint * CHECKPOINT_BLOCKS, self.col.checkpoints[checkpoint]),
            };
            let HeldBlock { res, rows } = &mut **held;
            let mut carry = self.col.seek(next, carry, block, res);
            self.col.decode_block(block, &mut carry, res, rows);
            (self.block, self.carry) = (Some(block), carry);
        }
        held.rows[i % BLOCK_ROWS]
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
    fn cursor_steps_blocks_and_reseeks_at_checkpoints() {
        // Random-walk deltas, so a skipped block's summed step is rarely 0.
        let mut v = i64::MAX - 5;
        let data: Vec<i64> = (0..(3 * CHECKPOINT_EVERY + 70) as u64)
            .map(|i| {
                v = v.wrapping_add((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as i64 - (1 << 23));
                v
            })
            .collect();
        let e = DeltaInts::encode(&data);
        let last = data.len() - 1;
        let seqs: [&[usize]; 4] = [
            // Inside one block, repeats, then block by block across a
            // checkpoint and skipping several blocks at once.
            &[5, 5, 63, 64, 65, 127, 128, 640, 1023, 1024, 1025, 1600, 2047, 2048],
            // Backwards: within a block, across blocks and checkpoints.
            &[3000, 2999, 2048, 2047, 1500, 1024, 1023, 64, 63, 0],
            // Straight to the ragged last block, then back into it.
            &[last, last - 3, last - 69, last],
            // Forward past the next checkpoint with no read in between.
            &[10, 3 * CHECKPOINT_EVERY + 1, 2 * CHECKPOINT_EVERY - 1],
        ];
        for seq in seqs {
            let mut cur = e.cursor();
            for &i in seq {
                assert_eq!(cur.at(i), data[i], "row {i} of {seq:?}");
            }
        }
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
        // Regular 1-second ticks: every delta is the step → 0 bits.
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
