//! The flat join table against a map-of-vectors reference: for every
//! build key, its neighbours and random misses, `HashJoin::matches`
//! returns the same build rows in the same (arrival) order as a
//! `HashMap<i64, Vec<u32>>` built by pushing each row under its key, and
//! `distinct_keys`, `build_rows`, `probe` and `probe_semi` agree with it
//! — over empty, single-key, duplicate-heavy, dense, sparse, negative
//! and `i64::MIN` / `i64::MAX` key sets, and key spans on both sides of
//! the table's direct/hashed switch.

use haec_exec::join::HashJoin;
use proptest::prelude::*;
use std::collections::HashMap;

/// Key sets by shape. Spans of `k · n − 1`, `k · n` and `k · n + 1` for
/// every `k` in 1..=16 put one case exactly on the direct/hashed
/// threshold, whatever small multiple of the build rows it is.
fn key_sets() -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        Just(Vec::new()),
        (any::<i64>(), 1usize..40).prop_map(|(k, n)| vec![k; n]),
        proptest::collection::vec(0i64..4, 0..300),
        proptest::collection::vec(-50i64..50, 0..300),
        proptest::collection::vec(any::<i64>(), 0..300),
        proptest::collection::vec(-1_000_000i64..-999_000, 0..300),
        proptest::collection::vec(0usize..6, 0..100)
            .prop_map(|picks| picks.into_iter().map(|p| EXTREMES[p]).collect()),
        (2usize..80, 1i64..=16, -1i64..=1, -1_000i64..1_000, any::<u64>()).prop_map(spanning),
    ]
}

const EXTREMES: [i64; 6] = [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX - 1, i64::MAX];

/// `n` keys spanning exactly `k · n + d` values from `base`: both ends
/// pinned, the rest drawn inside by a splitmix stream of `seed`.
fn spanning((n, k, d, base, seed): (usize, i64, i64, i64, u64)) -> Vec<i64> {
    let span = k * n as i64 + d;
    let mut state = seed;
    let mut keys: Vec<i64> = (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ state >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            base + ((z ^ z >> 27) % span as u64) as i64
        })
        .collect();
    (keys[0], keys[n - 1]) = (base, base + span - 1);
    keys
}

/// The reference: one `Vec` per key, rows pushed in arrival order.
fn reference(pairs: &[(i64, u32)]) -> HashMap<i64, Vec<u32>> {
    let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
    for &(k, row) in pairs {
        map.entry(k).or_default().push(row);
    }
    map
}

/// Every build key, its two neighbours, and `misses`.
fn probe_keys(keys: &[i64], misses: &[i64]) -> Vec<i64> {
    let near = keys.iter().flat_map(|&k| [k, k.wrapping_sub(1), k.wrapping_add(1)]);
    near.chain(misses.iter().copied()).collect()
}

/// `table` answers every query exactly like `want`.
fn agrees(
    table: &HashJoin,
    want: &HashMap<i64, Vec<u32>>,
    rows: usize,
    probes: &[i64],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.build_rows(), rows);
    prop_assert_eq!(table.distinct_keys(), want.len());
    for &k in probes {
        prop_assert_eq!(table.matches(k), want.get(&k).map(Vec::as_slice), "matches({})", k);
    }
    let mut pairs = Vec::new();
    for (j, k) in probes.iter().enumerate() {
        pairs.extend(want.get(k).into_iter().flatten().map(|&b| (b, j as u32)));
    }
    prop_assert_eq!(table.probe(probes), pairs, "probe");
    let semi: Vec<u32> =
        (0..probes.len() as u32).filter(|&j| want.contains_key(&probes[j as usize])).collect();
    prop_assert_eq!(table.probe_semi(probes), semi, "probe_semi");
    Ok(())
}

proptest! {
    /// `build` numbers rows by position; `from_pairs` takes the caller's
    /// row ids, here scattered and out of order, and must keep them in
    /// the order given.
    #[test]
    fn flat_table_matches_map_reference(
        keys in key_sets(),
        misses in proptest::collection::vec(any::<i64>(), 0..40),
        stride in 1u32..1_000,
        offset in any::<u32>(),
    ) {
        let probes = probe_keys(&keys, &misses);

        let positional: Vec<(i64, u32)> = keys.iter().copied().zip(0u32..).collect();
        agrees(&HashJoin::build(&keys), &reference(&positional), keys.len(), &probes)?;

        let ids = |i: usize| offset.wrapping_add((keys.len() - i) as u32 * stride);
        let pairs: Vec<(i64, u32)> = keys.iter().enumerate().map(|(i, &k)| (k, ids(i))).collect();
        agrees(&HashJoin::from_pairs(&pairs), &reference(&pairs), keys.len(), &probes)?;
    }
}
