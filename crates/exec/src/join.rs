//! Equi-joins: hash join (build + probe) and sort-merge join.
//!
//! Both return matching index pairs `(build_row, probe_row)` /
//! `(left_row, right_row)` so callers can gather any payload columns —
//! the late-materialization style of column stores.

/// The build side of an equi-join as one flat CSR table: every distinct
/// key owns a *slot*, and slot `s`'s build rows are
/// `rows[offsets[s]..offsets[s + 1]]`, in the order they arrived. Two
/// `Vec<u32>`s hold every row id — no per-key allocation.
///
/// Building is a counting sort: map each key to its slot, count rows per
/// slot, prefix-sum the counts into `offsets`, then scatter the row ids
/// back to front so each slot's rows keep their arrival order.
///
/// A key reaches its slot one of two ways, picked per build:
/// * **direct** — slot = `key − min`, when the key span is at most
///   `DIRECT_SPAN_PER_ROW` (8) times the build rows (dictionary codes,
///   dense surrogate keys and filtered runs of them): a probe is a
///   subtraction, a bounds check and two offset loads;
/// * **hashed** — otherwise: open addressing with linear probing over
///   the distinct keys, a power-of-two capacity at most half full, and a
///   Fibonacci multiplicative hash (the top bits of `key · 2⁶⁴/φ`).
///
/// ```
/// use haec_exec::join::HashJoin;
/// let build = vec![10i64, 20, 30];
/// let probe = vec![20i64, 20, 99];
/// let join = HashJoin::build(&build);
/// let pairs = join.probe(&probe);
/// assert_eq!(pairs, vec![(1, 0), (1, 1)]); // build row 1 matches probe rows 0 and 1
/// ```
#[derive(Clone, Debug)]
pub struct HashJoin {
    slots: SlotMap,
    /// `slots + 1` prefix sums: slot `s` owns `rows[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    /// Build row ids grouped by slot, in arrival order within a slot.
    rows: Vec<u32>,
    distinct: usize,
}

/// Largest key span, per build row, that still gets a direct slot map.
/// A direct map spends one 4-byte offset per value of the span; a hashed
/// one is sized before the distinct count is known, at 2–4 buckets of
/// 16 bytes per build row, and pays a hash and a bucket walk per probe.
/// At 8 slots per row the direct map's offsets (32 bytes per row) are
/// no more than the hashed map's buckets (32 at least), so the faster
/// map is never the larger one. 8 rather than less also keeps a
/// filtered dimension direct: every 5th surrogate key (a
/// `tier = uid % 5` filter) spans 5 slots per row.
const DIRECT_SPAN_PER_ROW: u64 = 8;

/// How keys find their slots (see [`HashJoin`]).
#[derive(Clone, Debug)]
enum SlotMap {
    /// Slot = `key − lo`, for `span` slots.
    Direct { lo: i64, span: usize },
    /// Open addressing: `(key, slot)` buckets, [`EMPTY`] slot when free,
    /// `buckets.len()` a power of two; a key's home bucket is its
    /// Fibonacci hash's top bits (`>> shift`).
    Hashed { buckets: Vec<(i64, u32)>, shift: u32 },
}

/// Slot of a free bucket.
const EMPTY: u32 = u32::MAX;

/// 2⁶⁴ / φ, rounded to odd: multiplying by it spreads consecutive and
/// strided keys across the top bits.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

impl SlotMap {
    /// A direct map when the `n` `keys` span at most
    /// [`DIRECT_SPAN_PER_ROW`] slots per key, else an empty hashed map
    /// with room for `n` distinct keys.
    fn for_keys(keys: impl Iterator<Item = i64>, n: usize) -> Self {
        let (lo, hi) = keys.fold((i64::MAX, i64::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
        let span = (hi as i128 - lo as i128 + 1).max(0) as u128;
        if span <= (DIRECT_SPAN_PER_ROW * n as u64) as u128 {
            return SlotMap::Direct { lo, span: span as usize };
        }
        let capacity = (2 * n).next_power_of_two();
        SlotMap::Hashed { buckets: vec![(0, EMPTY); capacity], shift: 64 - capacity.trailing_zeros() }
    }

    /// `key`'s slot, or `None` when no build row has it.
    #[inline]
    fn get(&self, key: i64) -> Option<usize> {
        match self {
            SlotMap::Direct { lo, span } => {
                let slot = (key as u64).wrapping_sub(*lo as u64);
                (slot < *span as u64).then_some(slot as usize)
            }
            SlotMap::Hashed { buckets, shift } => {
                let (_, slot) = buckets[bucket(buckets, *shift, key)];
                (slot != EMPTY).then_some(slot as usize)
            }
        }
    }

    /// `key`'s slot, assigning the next free one (`*next`) on first
    /// sight. Direct slots exist up front.
    #[inline]
    fn get_or_insert(&mut self, key: i64, next: &mut usize) -> usize {
        match self {
            SlotMap::Direct { lo, .. } => (key as u64).wrapping_sub(*lo as u64) as usize,
            SlotMap::Hashed { buckets, shift } => {
                let b = bucket(buckets, *shift, key);
                if buckets[b].1 == EMPTY {
                    buckets[b] = (key, *next as u32);
                    *next += 1;
                }
                buckets[b].1 as usize
            }
        }
    }
}

/// The bucket holding `key`, or else the free bucket that ends its probe
/// run: linear probing from the key's Fibonacci hash. `buckets` is never
/// full, so the walk ends.
#[inline]
fn bucket(buckets: &[(i64, u32)], shift: u32, key: i64) -> usize {
    let mask = buckets.len() - 1;
    let mut b = ((key as u64).wrapping_mul(FIBONACCI) >> shift) as usize;
    while buckets[b].1 != EMPTY && buckets[b].0 != key {
        b = (b + 1) & mask;
    }
    b
}

impl HashJoin {
    /// Builds the table over `keys`; build row `i` is `keys[i]`'s.
    ///
    /// # Panics
    ///
    /// Panics if the build side exceeds `u32` rows.
    pub fn build(keys: &[i64]) -> Self {
        assert!(keys.len() <= u32::MAX as usize, "build side too large");
        Self::from_rows(keys.len(), |i| (keys[i], i as u32))
    }

    /// Builds from `(key, row id)` pairs — the streaming entry point for
    /// callers that extract keys from compressed segments (dictionary
    /// codes, encoded ints) without materializing a flat key column. Row
    /// ids are the caller's own (e.g. global table rows), not positions
    /// in a slice.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` pairs.
    pub fn from_pairs(pairs: &[(i64, u32)]) -> Self {
        assert!(pairs.len() <= u32::MAX as usize, "build side too large");
        Self::from_rows(pairs.len(), |i| pairs[i])
    }

    /// The CSR build over the `n` `(key, row id)` pairs `pair(0..n)`.
    fn from_rows(n: usize, pair: impl Fn(usize) -> (i64, u32)) -> Self {
        let mut slots = SlotMap::for_keys((0..n).map(|i| pair(i).0), n);
        // Each pair's slot, and the row count per slot.
        let mut assigned = 0;
        let of: Vec<u32> = (0..n).map(|i| slots.get_or_insert(pair(i).0, &mut assigned) as u32).collect();
        let slot_count = match slots {
            SlotMap::Direct { span, .. } => span,
            SlotMap::Hashed { .. } => assigned,
        };
        let mut offsets = vec![0u32; slot_count + 1];
        for &s in &of {
            offsets[s as usize] += 1;
        }
        let distinct = offsets.iter().filter(|&&c| c > 0).count();
        // Inclusive prefix sums: `offsets[s]` is where slot `s` ends, and
        // the extra last entry is `n`.
        for s in 1..offsets.len() {
            offsets[s] += offsets[s - 1];
        }
        // Scatter back to front: every slot's end moves down to its
        // start, and its rows land in arrival order.
        let mut rows = vec![0u32; n];
        for (i, &s) in of.iter().enumerate().rev() {
            let at = &mut offsets[s as usize];
            *at -= 1;
            rows[*at as usize] = pair(i).1;
        }
        HashJoin { slots, offsets, rows, distinct }
    }

    /// The build rows matching `key` (`None` on a miss) — the streaming
    /// probe primitive for callers that probe key-by-key as they decode.
    /// Rows come back in the order they were built from.
    #[inline]
    pub fn matches(&self, key: i64) -> Option<&[u32]> {
        let slot = self.slots.get(key)?;
        let (start, end) = (self.offsets[slot] as usize, self.offsets[slot + 1] as usize);
        (start < end).then(|| &self.rows[start..end])
    }

    /// Number of rows on the build side.
    pub fn build_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct build keys.
    pub fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Probes with `keys`, returning `(build_row, probe_row)` pairs in
    /// probe order.
    pub fn probe(&self, keys: &[i64]) -> Vec<(u32, u32)> {
        // Reserve for the common ~1 match/probe (FK join) shape so the
        // output vector doesn't double-write its way up.
        let mut out = Vec::with_capacity(keys.len());
        for (j, &k) in keys.iter().enumerate() {
            if let Some(rows) = self.matches(k) {
                out.extend(rows.iter().map(|&i| (i, j as u32)));
            }
        }
        out
    }

    /// Probes and reports semi-join (exists) matches only.
    pub fn probe_semi(&self, keys: &[i64]) -> Vec<u32> {
        keys.iter().enumerate().filter(|&(_, &k)| self.matches(k).is_some()).map(|(j, _)| j as u32).collect()
    }
}

/// Bytes a hash probe touches per bucket access (header + key slot) —
/// what an executor that bills its own streaming probes (`haecdb`'s)
/// charges per probe.
pub const HASH_BUCKET_BYTES: u64 = 16;

/// Sort-merge equi-join: sorts index permutations of both inputs and
/// merges, returning `(left_row, right_row)` pairs (sorted by key, then
/// input order). Handles duplicate keys on both sides (cross product per
/// key group).
pub fn sort_merge_join(left: &[i64], right: &[i64]) -> Vec<(u32, u32)> {
    assert!(left.len() <= u32::MAX as usize && right.len() <= u32::MAX as usize, "input too large");
    let mut li: Vec<u32> = (0..left.len() as u32).collect();
    let mut ri: Vec<u32> = (0..right.len() as u32).collect();
    li.sort_by_key(|&i| left[i as usize]);
    ri.sort_by_key(|&j| right[j as usize]);

    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < li.len() && j < ri.len() {
        let lk = left[li[i] as usize];
        let rk = right[ri[j] as usize];
        match lk.cmp(&rk) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Extent of equal keys on both sides.
                let i_end = li[i..].iter().take_while(|&&x| left[x as usize] == lk).count() + i;
                let j_end = ri[j..].iter().take_while(|&&x| right[x as usize] == rk).count() + j;
                for &l in &li[i..i_end] {
                    for &r in &ri[j..j_end] {
                        out.push((l, r));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    out
}

/// Sort-merge equi-join over `(key, row id)` pairs — the streaming
/// entry point matching [`HashJoin::from_pairs`]: callers extract keys
/// from compressed segments and join without flat key columns. Returns
/// `(left_row, right_row)` pairs ordered by key, then row ids (cross
/// product per duplicate-key group).
///
/// A side not flagged sorted is sorted in place by `(key, row)`. A side
/// the caller *knows* is already in key order — a table whose declared
/// sort key is the join key streams its keys pre-sorted out of the main
/// store, and the sort pass would be pure waste — is left untouched
/// (debug builds verify the claim); its intra-group row order is then
/// its storage order (ascending row ids — the same order `sort_unstable`
/// by `(key, row)` would produce for distinct rows).
pub fn sort_merge_join_pairs_presorted(
    left: &mut [(i64, u32)],
    right: &mut [(i64, u32)],
    left_sorted: bool,
    right_sorted: bool,
) -> Vec<(u32, u32)> {
    if left_sorted {
        debug_assert!(left.windows(2).all(|w| w[0].0 <= w[1].0), "left side claimed sorted");
    } else {
        left.sort_unstable();
    }
    if right_sorted {
        debug_assert!(right.windows(2).all(|w| w[0].0 <= w[1].0), "right side claimed sorted");
    } else {
        right.sort_unstable();
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let lk = left[i].0;
        let rk = right[j].0;
        match lk.cmp(&rk) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let i_end = i + left[i..].iter().take_while(|&&(k, _)| k == lk).count();
                let j_end = j + right[j..].iter().take_while(|&&(k, _)| k == rk).count();
                for &(_, l) in &left[i..i_end] {
                    for &(_, r) in &right[j..j_end] {
                        out.push((l, r));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        pairs.sort_unstable();
        pairs
    }

    fn nested_loop(left: &[i64], right: &[i64]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                if l == r {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let left: Vec<i64> = (0..200).map(|i| i % 23).collect();
        let right: Vec<i64> = (0..150).map(|i| i % 31).collect();
        let want = canonical(nested_loop(&left, &right));
        let got = canonical(HashJoin::build(&left).probe(&right));
        assert_eq!(got, want);
    }

    #[test]
    fn sort_merge_matches_nested_loop() {
        let left: Vec<i64> = (0..200).map(|i| (i * 7) % 23).collect();
        let right: Vec<i64> = (0..150).map(|i| (i * 3) % 31).collect();
        let want = canonical(nested_loop(&left, &right));
        let got = canonical(sort_merge_join(&left, &right));
        assert_eq!(got, want);
    }

    #[test]
    fn duplicate_keys_cross_product() {
        let left = vec![5, 5];
        let right = vec![5, 5, 5];
        assert_eq!(HashJoin::build(&left).probe(&right).len(), 6);
        assert_eq!(sort_merge_join(&left, &right).len(), 6);
    }

    #[test]
    fn empty_sides() {
        assert!(HashJoin::build(&[]).probe(&[1, 2]).is_empty());
        assert!(HashJoin::build(&[1]).probe(&[]).is_empty());
        assert!(sort_merge_join(&[], &[1]).is_empty());
        assert!(sort_merge_join(&[1], &[]).is_empty());
    }

    #[test]
    fn semi_join() {
        let join = HashJoin::build(&[1, 2, 3]);
        assert_eq!(join.probe_semi(&[0, 2, 2, 9, 3]), vec![1, 2, 4]);
    }

    #[test]
    fn build_metadata() {
        let join = HashJoin::build(&[7, 7, 8]);
        assert_eq!(join.build_rows(), 3);
        assert_eq!(join.distinct_keys(), 2);
    }

    #[test]
    fn pair_entry_points_match_slice_kernels() {
        let left: Vec<i64> = (0..120).map(|i| (i * 5) % 17).collect();
        let right: Vec<i64> = (0..90).map(|i| (i * 11) % 13).collect();
        let want = canonical(nested_loop(&left, &right));
        // from_pairs + matches reproduces build+probe.
        let lp: Vec<(i64, u32)> = left.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let join = HashJoin::from_pairs(&lp);
        assert_eq!(join.build_rows(), left.len());
        let mut got = Vec::new();
        for (j, k) in right.iter().enumerate() {
            if let Some(rows) = join.matches(*k) {
                got.extend(rows.iter().map(|&i| (i, j as u32)));
            }
        }
        assert_eq!(canonical(got), want);
        assert!(join.matches(i64::MAX).is_none());
        // The pair entry point of the merge join agrees too, with
        // shifted row ids.
        let mut lp: Vec<(i64, u32)> = left.iter().enumerate().map(|(i, &k)| (k, i as u32 + 7)).collect();
        let mut rp: Vec<(i64, u32)> = right.iter().enumerate().map(|(j, &k)| (k, j as u32 + 3)).collect();
        let got = sort_merge_join_pairs_presorted(&mut lp, &mut rp, false, false);
        let shifted: Vec<(u32, u32)> = want.iter().map(|&(l, r)| (l + 7, r + 3)).collect();
        assert_eq!(canonical(got), canonical(shifted));
        assert!(sort_merge_join_pairs_presorted(&mut [], &mut [(1, 0)], false, false).is_empty());
    }

    #[test]
    fn slot_map_is_direct_exactly_up_to_the_span_threshold() {
        let n = 10i64;
        let at = DIRECT_SPAN_PER_ROW as i64 * n;
        for (span, direct) in [(at - 1, true), (at, true), (at + 1, false)] {
            // Nine keys near the bottom, one at the top of the span; a
            // duplicate of the top key keeps rows in arrival order.
            let mut keys: Vec<i64> = (0..n - 1).map(|i| -7 + i % 5).collect();
            keys.push(-7 + span - 1);
            keys[2] = -7 + span - 1;
            let join = HashJoin::build(&keys);
            assert_eq!(matches!(join.slots, SlotMap::Direct { .. }), direct, "span {span}");
            assert_eq!(join.matches(-7 + span - 1), Some(&[2u32, 9][..]), "span {span}");
            assert_eq!(join.matches(-7), Some(&[0u32, 5][..]), "span {span}");
            assert_eq!(join.matches(-8), None);
            assert_eq!(join.matches(-7 + span), None);
            assert_eq!(join.distinct_keys(), 6, "span {span}");
        }
        // The whole of `i64` hashes, and both ends are found.
        let join = HashJoin::build(&[i64::MAX, 0, i64::MIN, i64::MAX]);
        assert!(matches!(join.slots, SlotMap::Hashed { .. }));
        assert_eq!(join.matches(i64::MAX), Some(&[0u32, 3][..]));
        assert_eq!(join.matches(i64::MIN), Some(&[2u32][..]));
        assert_eq!(join.matches(1), None);
    }

    #[test]
    fn negative_and_extreme_keys() {
        let left = vec![i64::MIN, -1, 0, i64::MAX];
        let right = vec![i64::MAX, i64::MIN];
        let want = canonical(nested_loop(&left, &right));
        assert_eq!(canonical(HashJoin::build(&left).probe(&right)), want);
        assert_eq!(canonical(sort_merge_join(&left, &right)), want);
    }
}
