//! Packed bitmaps used as selection vectors and null masks.
//!
//! The 64-lane word representation is also the engine's stand-in for
//! SIMD: predicate kernels produce/consume one `u64` of match bits at a
//! time, so combining predicates is a single AND per 64 rows.

use std::fmt;

/// A fixed-length bitmap over row positions.
///
/// ```
/// use haec_columnar::bitmap::Bitmap;
/// let mut b = Bitmap::zeros(10);
/// b.set(3, true);
/// b.set(7, true);
/// assert_eq!(b.count_ones(), 2);
/// assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an all-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// Builds a bitmap from a boolean slice.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut b = Bitmap::zeros(bools.len());
        for (i, &v) in bools.iter().enumerate() {
            if v {
                b.set(i, true);
            }
        }
        b
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits (0 for an empty bitmap).
    pub fn selectivity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Iterates over the positions of set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            len: self.len,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement.
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Direct access to the packed words (the SIMD-style lane view).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Sets 64 bits at once from a lane mask; `word_idx` addresses bits
    /// `[64*word_idx, 64*word_idx+64)`. Bits beyond `len` are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx` is out of range.
    #[inline]
    pub fn set_word(&mut self, word_idx: usize, mask: u64) {
        self.words[word_idx] = mask;
        if word_idx == self.words.len() - 1 {
            self.mask_tail();
        }
    }

    /// Sets all bits in `[start, end)` to `value`; the fast path for
    /// run-length-encoded scans.
    ///
    /// # Panics
    ///
    /// Panics if `end > len` or `start > end`.
    pub fn set_range(&mut self, start: usize, end: usize, value: bool) {
        assert!(start <= end && end <= self.len, "range {start}..{end} out of bounds ({})", self.len);
        if start == end {
            return;
        }
        let (first_word, first_bit) = (start / 64, start % 64);
        let (last_word, last_bit) = ((end - 1) / 64, (end - 1) % 64);
        if first_word == last_word {
            let mask = (u64::MAX >> (63 - last_bit)) & (u64::MAX << first_bit);
            if value {
                self.words[first_word] |= mask;
            } else {
                self.words[first_word] &= !mask;
            }
            return;
        }
        let head = u64::MAX << first_bit;
        let tail = u64::MAX >> (63 - last_bit);
        if value {
            self.words[first_word] |= head;
            for w in &mut self.words[first_word + 1..last_word] {
                *w = u64::MAX;
            }
            self.words[last_word] |= tail;
        } else {
            self.words[first_word] &= !head;
            for w in &mut self.words[first_word + 1..last_word] {
                *w = 0;
            }
            self.words[last_word] &= !tail;
        }
    }

    fn mask_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap({} of {} set)", self.count_ones(), self.len)
    }
}

/// Iterator over set-bit positions; see [`Bitmap::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    words: &'a [u64],
    len: usize,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                let pos = self.word_idx * 64 + bit;
                if pos < self.len {
                    return Some(pos);
                }
                continue;
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let mut b = Bitmap::zeros(100);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.len(), 100);
        for i in 0..100 {
            b.set(i, true);
        }
        assert_eq!(b.count_ones(), 100);
    }

    #[test]
    fn ones_masks_tail() {
        let mut o = Bitmap::zeros(65);
        o.negate();
        assert_eq!(o.count_ones(), 65);
        assert_eq!(o.words().len(), 2);
        assert_eq!(o.words()[1], 1);
    }

    #[test]
    fn set_get_round_trip() {
        let mut b = Bitmap::zeros(130);
        for i in (0..130).step_by(3) {
            b.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        b.set(0, false);
        assert!(!b.get(0));
    }

    #[test]
    fn from_bools_and_positions() {
        let b = Bitmap::from_bools(&[true, false, true]);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
        let p = Bitmap::from_bools(&[false, true, false, false, false, false, false, false, false, true]);
        assert_eq!(p.iter_ones().collect::<Vec<_>>(), vec![1, 9]);
    }

    #[test]
    fn logical_ops() {
        let mut a = Bitmap::from_bools(&[true, true, false, false]);
        let b = Bitmap::from_bools(&[true, false, true, false]);
        let mut a2 = a.clone();
        a.and_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0]);
        a2.or_with(&b);
        assert_eq!(a2.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn negate_respects_length() {
        let mut b = Bitmap::from_bools(&[true, false, true]);
        b.negate();
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn selectivity() {
        let b = Bitmap::from_bools(&[true, false, false, false]);
        assert_eq!(b.selectivity(), 0.25);
        assert_eq!(Bitmap::zeros(0).selectivity(), 0.0);
        assert!(Bitmap::zeros(0).is_empty());
    }

    #[test]
    fn iter_ones_across_words() {
        let mut b = Bitmap::zeros(200);
        let positions = [0, 63, 64, 127, 128, 199];
        for &p in &positions {
            b.set(p, true);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), positions.to_vec());
    }

    #[test]
    fn set_word_masks_tail() {
        let mut b = Bitmap::zeros(70);
        b.set_word(1, u64::MAX);
        assert_eq!(b.count_ones(), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::zeros(5).get(5);
    }

    #[test]
    fn set_range_within_word() {
        let mut b = Bitmap::zeros(64);
        b.set_range(3, 7, true);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        b.set_range(4, 6, false);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 6]);
    }

    #[test]
    fn set_range_across_words() {
        let mut b = Bitmap::zeros(300);
        b.set_range(60, 260, true);
        assert_eq!(b.count_ones(), 200);
        assert!(!b.get(59));
        assert!(b.get(60));
        assert!(b.get(259));
        assert!(!b.get(260));
        b.set_range(0, 300, false);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn set_range_empty_is_noop() {
        let mut b = Bitmap::zeros(10);
        b.set_range(5, 5, true);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_range_out_of_bounds_panics() {
        Bitmap::zeros(5).set_range(0, 6, true);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let mut a = Bitmap::zeros(5);
        a.and_with(&Bitmap::zeros(6));
    }

    #[test]
    fn debug_format() {
        let b = Bitmap::from_bools(&[true, true, false]);
        assert_eq!(format!("{b:?}"), "Bitmap(2 of 3 set)");
    }
}
