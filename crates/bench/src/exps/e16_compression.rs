//! E16 — lightweight compression substrate: ratios, codec throughput,
//! random access, and scanning without decompression (feeds E3; §IV.B,
//! ref \[1\]).

use crate::report::{fmt_rate, time_it, Report};
use haec_columnar::bitmap::Bitmap;
use haec_columnar::encoding::{EncodedInts, Scheme};
use haec_columnar::value::CmpOp;

fn dataset(name: &str, n: usize) -> Vec<i64> {
    match name {
        "constant" => vec![42; n],
        "runs" => (0..n).map(|i| (i / 512) as i64 % 37).collect(),
        "narrow" => (0..n).map(|i| 1_000_000 + ((i * 2_654_435_761) % 256) as i64).collect(),
        "timestamps" => (0..n).map(|i| 1_360_000_000_000 + (i as i64) * 33).collect(),
        "random" => (0..n).map(|i| ((i as i64).wrapping_mul(0x9E3779B97F4A7C15u64 as i64)) >> 3).collect(),
        _ => unreachable!("unknown dataset"),
    }
}

/// Rows read one `get` at a time: a fixed pseudo-random list.
const GETS: usize = 65_536;

/// Runs the experiment.
pub fn run() -> Report {
    let mut r = Report::new(
        "E16",
        "lightweight integer compression (1M values per dataset)",
        "column stores scan compressed data in place; the ratio feeds the shipping decision of E3 (§IV.B, [1])",
    );
    r.headers(["dataset", "scheme", "ratio", "encode", "decode", "get", "scan-compressed", "auto picks"]);

    let n = 1_000_000usize;
    let rows: Vec<usize> =
        (0..GETS as u64).map(|j| (j.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as usize % n).collect();
    for name in ["constant", "runs", "narrow", "timestamps", "random"] {
        let data = dataset(name, n);
        let auto_scheme = EncodedInts::auto(&data).scheme();
        for scheme in Scheme::ALL {
            let (encoded, enc_t) = time_it(|| EncodedInts::encode(&data, scheme));
            let (decoded, dec_t) = time_it(|| encoded.decode());
            assert_eq!(decoded.len(), data.len(), "lossy codec?!");
            let (got, get_t) = time_it(|| rows.iter().map(|&i| encoded.get(i)).collect::<Vec<_>>());
            assert!(
                rows.iter().zip(&got).all(|(&i, &v)| v == data[i]),
                "{name}/{scheme}: get differs from the data"
            );
            let lit = data[n / 2];
            let (hits, scan_t) = time_it(|| {
                let mut bm = Bitmap::zeros(data.len());
                encoded.scan(CmpOp::Ge, lit, &mut bm);
                bm.count_ones()
            });
            assert!(hits > 0);
            r.row([
                name.to_string(),
                format!("{scheme}"),
                format!("{:.1}x", encoded.stats().ratio()),
                fmt_rate(n as f64 / enc_t.as_secs_f64()),
                fmt_rate(n as f64 / dec_t.as_secs_f64()),
                fmt_rate(GETS as f64 / get_t.as_secs_f64()),
                fmt_rate(n as f64 / scan_t.as_secs_f64()),
                if scheme == auto_scheme { "←" } else { "" }.to_string(),
            ]);
        }
    }
    r.note("RLE scans run-at-a-time: orders of magnitude faster than row-at-a-time on run-heavy data");
    r.note("FOR keeps O(1) random access; delta wins on timestamps, and a fixed-tick series (every delta equal) packs to 0 bits and reads in O(1) too — other delta columns seek from a checkpoint a block at a time");
    r.note("`auto` picks the smallest encoding per column — the storage default");
    r
}
