//! Property-based tests: encodings are lossless and scan-equivalent for
//! arbitrary data, bitmaps obey boolean algebra.

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

proptest! {
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
    /// to a few thousand rows) to span Delta checkpoint blocks.
    #[test]
    fn encoded_cursor_matches_get(
        data in int_data(),
        reps in 1usize..12,
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..64),
        ascending in any::<bool>(),
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
