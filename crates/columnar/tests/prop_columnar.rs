//! Property-based tests: encodings are lossless and scan-equivalent for
//! arbitrary data, bitmaps obey boolean algebra.

use haec_columnar::encoding::delta::DeltaInts;
use haec_columnar::prelude::*;
use proptest::prelude::*;

/// Arbitrary integer data with a bias toward runs and narrow ranges so
/// all encodings get exercised on their favourable shapes too.
fn int_data() -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        proptest::collection::vec(any::<i64>(), 0..300),
        proptest::collection::vec(-100i64..100, 0..300),
        // run-heavy
        proptest::collection::vec((0i64..5, 1usize..20), 0..40)
            .prop_map(|runs| { runs.into_iter().flat_map(|(v, n)| std::iter::repeat_n(v, n)).collect() }),
        // monotone
        proptest::collection::vec(0i64..1000, 0..300).prop_map(|mut v| {
            let mut acc = 0i64;
            for x in &mut v {
                acc += *x;
                *x = acc;
            }
            v
        }),
    ]
}

/// Column lengths at the block-decoder's edges: empty, one row, one
/// short of / exactly / one past a 64-row block (65 rows is exactly 64
/// Delta deltas: the last block holds one value and no delta), and the
/// same around every later block boundary.
fn block_edge_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        (1usize..6, 0usize..3).prop_map(|(k, d)| 64 * k + d - 1),
    ]
}

/// Value palettes by the bit width they force: FOR widths 0, 1, 62, 63
/// and 64, Delta widths 0, 1 (unit steps down), 63 and 64.
const PALETTES: [&[i64]; 6] = [
    &[-17],
    &[1000, 1001],
    &[0, (1 << 62) - 1],
    &[0, i64::MAX],
    &[i64::MIN, i64::MAX, 0, -1],
    &[5, 6, 7, 8, 9, 10, 11, 12],
];

/// `len` rows drawn from palette `palette` by a splitmix stream of
/// `seed`; the last palette instead walks down in steps of 0 or 1.
fn palette_data(len: usize, palette: usize, seed: u64) -> Vec<i64> {
    let mut state = seed;
    let mut draw = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ state >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ z >> 27) as usize
    };
    let values = PALETTES[palette];
    if palette == PALETTES.len() - 1 {
        let mut v = 0i64;
        return (0..len)
            .map(|_| {
                v -= (draw() % 2) as i64;
                v
            })
            .collect();
    }
    (0..len).map(|_| values[draw() % values.len()]).collect()
}

/// Row sequences at the Delta cursor's edges, clipped to `len` rows:
/// the rows around a block edge (63/64/65) and a checkpoint edge
/// (1 023/1 024/1 025), repeats inside one block, backward jumps across
/// blocks and checkpoints, and the ragged last block entered directly,
/// from the block before it and from behind.
fn delta_sequences(len: usize) -> Vec<Vec<usize>> {
    let last = len.saturating_sub(1);
    let tail = last / 64 * 64;
    let seqs = [
        vec![63, 64, 65, 1023, 1024, 1025, 2047, 2048, 2049],
        vec![10, 10, 11, 10, 63, 63, 0, 63],
        vec![1025, 1024, 1023, 65, 64, 63, 1, 0],
        vec![2100, 130, 1500, 700, 3000, 64, 2500],
        vec![last, tail, last, tail.saturating_sub(1), last.saturating_sub(1), 0, last],
        (0..len).step_by(97).chain((0..len).rev().step_by(61)).collect(),
    ];
    seqs.into_iter().map(|s| s.into_iter().filter(|&i| i < len).collect()).collect()
}

/// Duplicate-run lengths for [`sorted_checkpoint_data`]: single rows,
/// runs one short of / exactly / one past a 64-row block, and runs
/// spanning a whole Delta checkpoint (1 024 rows) or more.
const SORTED_RUNS: [usize; 7] = [1, 63, 64, 65, 100, 1024, 1500];

/// A sorted column of three whole Delta checkpoint spans (3 × 1 024
/// rows) and a ragged tail of `tail` more: `head` rows of `i64::MIN`,
/// then runs of `run` equal values rising by `step` from `start` —
/// offset by `shift` rows, so runs straddle block and checkpoint edges —
/// and finally `foot` rows of `i64::MAX`.
fn sorted_checkpoint_data(
    tail: usize,
    run: usize,
    shift: usize,
    (start, step): (i64, i64),
    head: usize,
    foot: usize,
) -> Vec<i64> {
    let len = 3 * 1024 + tail;
    (0..len)
        .map(|i| match i {
            _ if i < head => i64::MIN,
            _ if i + foot >= len => i64::MAX,
            _ => start + ((i + shift) / run) as i64 * step,
        })
        .collect()
}

/// The search `EncodedInts::sorted_range` must reproduce probe for
/// probe — the bill of a sort-key lookup is its probe count: for each
/// bound, the textbook bisection (midpoint `lo + (hi - lo) / 2`) over an
/// RLE column's run values, or over every other scheme's rows read one
/// `get` at a time. Returns the range and the probes, `None` for `Ne`.
fn reference_sorted_range(e: &EncodedInts, op: CmpOp, lit: i64) -> Option<(usize, usize, u64)> {
    let n = e.len();
    let mut probes = 0u64;
    let mut bound = |after: bool| -> usize {
        let below = |v: i64| if after { v <= lit } else { v < lit };
        let (keys, key): (usize, Box<dyn Fn(usize) -> i64>) = match e {
            EncodedInts::Rle(r) => (r.runs().len(), Box::new(|m| r.runs()[m].value)),
            _ => (n, Box::new(|m| e.get(m))),
        };
        let (mut lo, mut hi) = (0usize, keys);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            if below(key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        match e {
            EncodedInts::Rle(r) => r.runs().get(lo).map_or(n, |run| run.start),
            _ => lo,
        }
    };
    let (lo, hi) = match op {
        CmpOp::Eq => {
            let lo = bound(false);
            (lo, bound(true))
        }
        CmpOp::Lt => (0, bound(false)),
        CmpOp::Le => (0, bound(true)),
        CmpOp::Gt => (bound(true), n),
        CmpOp::Ge => (bound(false), n),
        CmpOp::Ne => return None,
    };
    Some((lo, hi, probes))
}

/// Column lengths around one row, one 64-row block (63/64/65) and one
/// Delta checkpoint (1 023/1 024/1 025).
fn delta_layout_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..3, 62usize..67, 1022usize..1027]
}

/// Steps of an arithmetic sequence: any, small of either sign or 0, and
/// the extremes, whose wrapping sequences jump between `i64::MIN` and
/// `i64::MAX`.
fn delta_step() -> impl Strategy<Value = i64> {
    prop_oneof![any::<i64>(), -3i64..4, Just(i64::MIN), Just(i64::MAX), Just(i64::MIN + 1)]
}

/// `len` rows of shape `kind` from a splitmix stream of `seed`: 0 is
/// arbitrary data, 1 the arithmetic sequence `start + i × step`
/// (wrapping), 2 that sequence with one delta replaced by a random one,
/// and 3 that sequence with each delta nudged by 0 or 1.
fn delta_layout_data(len: usize, kind: usize, seed: u64, start: i64, step: i64) -> Vec<i64> {
    let mut state = seed;
    let mut draw = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ state >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ z >> 27
    };
    if kind == 0 {
        return (0..len).map(|_| draw() as i64).collect();
    }
    let odd = draw() as usize % len.max(1);
    let mut v = start;
    (0..len)
        .map(|i| {
            let row = v;
            let delta = match kind {
                2 if i == odd => draw() as i64,
                3 => step.wrapping_add((draw() % 2) as i64),
                _ => step,
            };
            v = v.wrapping_add(delta);
            row
        })
        .collect()
}

/// The bit width zig-zag coding would pack `data`'s deltas at: the
/// width of the largest `(d << 1) ^ (d >> 63)`.
fn zigzag_width(data: &[i64]) -> u32 {
    let top = data.windows(2).map(|w| w[1].wrapping_sub(w[0])).map(|d| ((d << 1) ^ (d >> 63)) as u64).max();
    64 - top.unwrap_or(0).leading_zeros()
}

proptest! {
    /// The block reader is the one sequential decoder: its concatenated
    /// blocks, `decode()` and `iter()` all reproduce the input, `scan`
    /// agrees with per-row evaluation for every operator and for
    /// literals below, inside and above the frame, and the iterator
    /// stays an honest `ExactSizeIterator` (and `Clone` + `Debug`)
    /// through partial consumption — at every block-edge length and
    /// packed width.
    #[test]
    fn block_reads_agree_at_block_and_width_edges(
        len in block_edge_len(),
        palette in 0usize..6,
        seed in any::<u64>(),
        taken in any::<prop::sample::Index>(),
    ) {
        let data = palette_data(len, palette, seed);
        let (lo, hi) = (data.iter().copied().min().unwrap_or(0), data.iter().copied().max().unwrap_or(0));
        let literals = [
            lo.saturating_sub(1), lo, lo.saturating_add(1), lo / 2 + hi / 2, hi.saturating_sub(1), hi,
            hi.saturating_add(1), i64::MIN, i64::MAX, 0,
        ];
        for scheme in Scheme::ALL {
            let e = EncodedInts::encode(&data, scheme);
            let mut blocks = e.blocks();
            let mut concat = Vec::new();
            loop {
                prop_assert_eq!(blocks.remaining(), len - concat.len(), "{} remaining", scheme);
                let block = blocks.next();
                if block.is_empty() { break; }
                prop_assert!(block.len() == 64 || concat.len() + block.len() == len, "{} short block", scheme);
                concat.extend_from_slice(block);
            }
            prop_assert!(blocks.next().is_empty(), "{} stays empty at the end", scheme);
            prop_assert_eq!(&concat, &data, "{} blocks", scheme);
            prop_assert_eq!(&e.decode(), &data, "{} decode", scheme);
            prop_assert_eq!(&e.iter().collect::<Vec<_>>(), &data, "{} iter", scheme);
            prop_assert_eq!(e.iter().fold(0i64, i64::wrapping_add), data.iter().fold(0i64, |a, &v| a.wrapping_add(v)));

            // Skipped blocks leave the blocks after them intact.
            let mut skipping = e.blocks();
            let mut row = 0;
            while skipping.remaining() > 0 {
                if (row / 64) % 2 == 0 {
                    skipping.skip();
                    prop_assert!(skipping.current().is_empty());
                } else {
                    prop_assert_eq!(skipping.next(), &data[row..(row + 64).min(len)], "{} after skip", scheme);
                }
                row += 64;
            }

            // Partial consumption: the size stays exact, a clone resumes
            // from the same row, `fold` picks up mid-block.
            let mut it = e.iter();
            let taken = if len == 0 { 0 } else { taken.index(len + 1) };
            for want in &data[..taken] {
                prop_assert_eq!(it.next(), Some(*want));
            }
            prop_assert_eq!(it.len(), len - taken, "{} len after {}", scheme, taken);
            let shown = format!("{:?}", it);
            prop_assert!(shown.contains("EncodedIter"));
            prop_assert_eq!(&it.clone().collect::<Vec<_>>(), &data[taken..], "{} clone", scheme);
            prop_assert_eq!(
                it.fold(Vec::new(), |mut acc, v| { acc.push(v); acc }),
                data[taken..].to_vec(),
                "{} fold after {}", scheme, taken
            );

            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                for lit in literals {
                    let want = Bitmap::from_bools(&data.iter().map(|&v| op.eval(v, lit)).collect::<Vec<_>>());
                    let mut got = Bitmap::zeros(len);
                    e.scan(op, lit, &mut got);
                    prop_assert_eq!(&got, &want, "{} {} {} (len {}, palette {})", scheme, op, lit, len, palette);
                }
            }
        }
    }

    /// A sort-key search on columns spanning several Delta checkpoints —
    /// duplicate runs across block and checkpoint edges, `i64::MIN` /
    /// `MAX` rows and literals — returns exactly the matching rows, and
    /// the range *and probe count* of a reference bisection through
    /// `get`, on every scheme and for every operator: reading probes
    /// through a cursor leaves the bill unchanged.
    #[test]
    fn sorted_range_bisects_like_get_across_checkpoints(
        (tail, run) in (0usize..1100, 0usize..SORTED_RUNS.len()),
        shift in 0usize..1500,
        rise in (-1_000_000i64..1_000_000, 0i64..1000),
        (head, foot) in (0usize..1100, 0usize..1100),
        pick in any::<prop::sample::Index>(),
    ) {
        let data = sorted_checkpoint_data(tail, SORTED_RUNS[run], shift, rise, head, foot);
        let last = data.len() - 1;
        let mut literals = vec![i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX, 0, rise.0 - 1];
        for row in [0, 63, 64, 1023, 1024, 2047, 2048, 3071, 3072, last, pick.index(data.len())] {
            let v = data[row];
            literals.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
        }
        for scheme in Scheme::ALL {
            let e = EncodedInts::encode(&data, scheme);
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                for &lit in &literals {
                    let mut probes = 0u64;
                    let got = e.sorted_range(op, lit, &mut probes);
                    let want = reference_sorted_range(&e, op, lit);
                    prop_assert_eq!(got.map(|(lo, hi)| (lo, hi, probes)), want, "{} {} {}", scheme, op, lit);
                    if let Some((lo, hi)) = got {
                        let matching = data.iter().filter(|&&v| op.eval(v, lit)).count();
                        prop_assert!(data[lo..hi].iter().all(|&v| op.eval(v, lit)), "{} {} {}", scheme, op, lit);
                        prop_assert_eq!(hi - lo, matching, "{} {} {} matches", scheme, op, lit);
                    }
                }
            }
        }
    }

    /// The Delta layout — residuals over the smallest delta — reads
    /// back like a Plain column through every reader, on arbitrary,
    /// arithmetic (any step, wrapping across `i64::MIN` / `MAX`) and
    /// near-arithmetic data at block and checkpoint edges: `decode`,
    /// `get`, a cursor over a shuffled order with repeats, `blocks()`
    /// with skipped blocks, `scan`, and `sorted_range` (range and probe
    /// count) on the sorted rows. It never packs wider than zig-zag
    /// coding would, and an arithmetic sequence packs to width 0.
    #[test]
    fn delta_layout_reads_like_plain(
        len in delta_layout_len(),
        kind in 0usize..4,
        seed in any::<u64>(),
        start in prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), -5i64..5],
        step in delta_step(),
    ) {
        let data = delta_layout_data(len, kind, seed, start, step);
        let delta = DeltaInts::encode(&data);
        prop_assert!(delta.width() <= zigzag_width(&data), "width {} > zig-zag {}", delta.width(), zigzag_width(&data));
        if kind == 1 {
            prop_assert_eq!(delta.width(), 0, "arithmetic step {}", step);
        }
        let (e, plain) = (EncodedInts::encode(&data, Scheme::Delta), EncodedInts::encode(&data, Scheme::Plain));
        prop_assert_eq!(e.decode(), plain.decode());
        for i in 0..len {
            prop_assert_eq!(e.get(i), plain.get(i), "get {}", i);
        }

        // Every row twice, in a seeded shuffle.
        let mut rows: Vec<usize> = (0..len).chain(0..len).collect();
        let mut state = seed | 1;
        for i in (1..rows.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            rows.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut cur = e.cursor();
        for &i in &rows {
            prop_assert_eq!(cur.at(i), plain.get(i), "cursor row {}", i);
        }

        // Skip the blocks whose bit of `seed` is set.
        let mut blocks = e.blocks();
        let mut row = 0;
        while blocks.remaining() > 0 {
            if seed >> (row / 64 % 64) & 1 == 1 {
                blocks.skip();
                prop_assert!(blocks.current().is_empty());
            } else {
                prop_assert_eq!(blocks.next(), &data[row..(row + 64).min(len)], "block at {}", row);
            }
            row += 64;
        }
        prop_assert!(blocks.next().is_empty());

        let mut literals = vec![i64::MIN, i64::MAX, 0, start, start.wrapping_add(step)];
        if let Some(&v) = data.get(seed as usize % len.max(1)) {
            literals.extend([v.wrapping_sub(1), v, v.wrapping_add(1)]);
        }
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let (sorted_delta, sorted_plain) =
            (EncodedInts::encode(&sorted, Scheme::Delta), EncodedInts::encode(&sorted, Scheme::Plain));
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for &lit in &literals {
                let (mut got, mut want) = (Bitmap::zeros(len), Bitmap::zeros(len));
                e.scan(op, lit, &mut got);
                plain.scan(op, lit, &mut want);
                prop_assert_eq!(&got, &want, "scan {} {}", op, lit);
                let (mut got_probes, mut want_probes) = (0u64, 0u64);
                prop_assert_eq!(
                    sorted_delta.sorted_range(op, lit, &mut got_probes),
                    sorted_plain.sorted_range(op, lit, &mut want_probes),
                    "sorted_range {} {}", op, lit
                );
                prop_assert_eq!(got_probes, want_probes, "probes {} {}", op, lit);
            }
        }
    }

    #[test]
    fn encodings_round_trip(data in int_data()) {
        for scheme in Scheme::ALL {
            let e = EncodedInts::encode(&data, scheme);
            prop_assert_eq!(e.decode(), data.clone(), "{}", scheme);
        }
    }

    #[test]
    fn encoded_get_matches(data in int_data(), idx in any::<prop::sample::Index>()) {
        if data.is_empty() { return Ok(()); }
        let i = idx.index(data.len());
        for scheme in Scheme::ALL {
            let e = EncodedInts::encode(&data, scheme);
            prop_assert_eq!(e.get(i), data[i], "{} row {}", scheme, i);
        }
    }

    /// A forward cursor answers like `get` whatever the index sequence —
    /// random order, repeats — on columns long enough (the data tiled up
    /// to a few thousand rows) to span Delta checkpoint blocks. The Delta
    /// cursor, which holds one decoded block and skips whole blocks, also
    /// walks the fixed [`delta_sequences`] over the data and over a
    /// palette column of the same length at every packed delta width.
    #[test]
    fn encoded_cursor_matches_get(
        data in int_data(),
        reps in 1usize..12,
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..64),
        ascending in any::<bool>(),
        (palette, seed) in (0usize..6, any::<u64>()),
    ) {
        if data.is_empty() { return Ok(()); }
        let data = data.repeat(reps);
        let mut rows: Vec<usize> = picks.iter().map(|p| p.index(data.len())).collect();
        if ascending { rows.sort_unstable(); }
        for scheme in Scheme::ALL {
            let e = EncodedInts::encode(&data, scheme);
            let mut cur = e.cursor();
            for &i in &rows {
                prop_assert_eq!(cur.at(i), data[i], "{} row {}", scheme, i);
            }
        }
        for column in [data.clone(), palette_data(data.len(), palette, seed)] {
            let e = EncodedInts::encode(&column, Scheme::Delta);
            for (s, seq) in delta_sequences(column.len()).iter().enumerate() {
                let mut cur = e.cursor();
                for &i in seq {
                    prop_assert_eq!(cur.at(i), column[i], "delta sequence {} row {} (palette {})", s, i, palette);
                }
            }
        }
    }

    #[test]
    fn encoded_scan_matches_reference(data in int_data(), lit in -150i64..150) {
        // Full parity matrix: every scheme × every operator on the same
        // input must agree with the row-at-a-time reference.
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let reference: Vec<bool> = data.iter().map(|&v| op.eval(v, lit)).collect();
            let want = Bitmap::from_bools(&reference);
            for scheme in Scheme::ALL {
                let e = EncodedInts::encode(&data, scheme);
                let mut got = Bitmap::zeros(data.len());
                e.scan(op, lit, &mut got);
                prop_assert_eq!(&got, &want, "{} {} {}", scheme, op, lit);
            }
        }
    }

    #[test]
    fn auto_is_never_larger_than_plain(data in int_data()) {
        let auto = EncodedInts::auto(&data);
        prop_assert!(auto.size_bytes() <= data.len() * 8);
    }

    #[test]
    fn min_max_matches(data in int_data()) {
        let want = data.iter().copied().min().zip(data.iter().copied().max());
        for scheme in Scheme::ALL {
            let e = EncodedInts::encode(&data, scheme);
            prop_assert_eq!(e.min_max(), want, "{}", scheme);
        }
    }

    #[test]
    fn bitmap_de_morgan(bools_a in proptest::collection::vec(any::<bool>(), 1..200)) {
        let n = bools_a.len();
        let bools_b: Vec<bool> = bools_a.iter().map(|b| !b).collect();
        let a = Bitmap::from_bools(&bools_a);
        let b = Bitmap::from_bools(&bools_b);
        // !(a & b) == !a | !b
        let mut lhs = a.clone();
        lhs.and_with(&b);
        lhs.negate();
        let mut na = a.clone();
        na.negate();
        let mut nb = b.clone();
        nb.negate();
        let mut rhs = na;
        rhs.or_with(&nb);
        prop_assert_eq!(lhs, rhs);
        // complement counts
        let mut c = a.clone();
        c.negate();
        prop_assert_eq!(c.count_ones(), n - a.count_ones());
    }

    #[test]
    fn bitmap_set_range_equals_loop(len in 1usize..300, a in any::<prop::sample::Index>(), b in any::<prop::sample::Index>()) {
        let (mut lo, mut hi) = (a.index(len), b.index(len));
        if lo > hi { std::mem::swap(&mut lo, &mut hi); }
        let mut fast = Bitmap::zeros(len);
        fast.set_range(lo, hi, true);
        let mut slow = Bitmap::zeros(len);
        for i in lo..hi { slow.set(i, true); }
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn dict_column_round_trip(values in proptest::collection::vec("[a-z]{0,6}", 0..100)) {
        let c = DictColumn::from_iter(values.iter());
        prop_assert_eq!(c.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(c.get(i), Some(v.as_str()));
        }
        prop_assert!(c.dict_size() <= values.len().max(1));
    }

    #[test]
    fn chunk_gather_preserves_rows(data in proptest::collection::vec(any::<i64>(), 1..100)) {
        let col: Column = data.clone().into_iter().collect();
        let chunk = Chunk::new(vec![("v".into(), col)]).unwrap();
        let positions: Vec<usize> = (0..data.len()).rev().collect();
        let g = chunk.gather(&positions);
        for (out_row, &src) in positions.iter().enumerate() {
            prop_assert_eq!(g.row(out_row).unwrap()[0].as_int().unwrap(), data[src]);
        }
    }
}
