//! Criterion microbenchmarks over the engine's hot kernels — the
//! measured backbone of experiments E4, E5, E10 and E16.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use haec_columnar::bitmap::Bitmap;
use haec_columnar::encoding::{EncodedInts, Scheme};
use haec_columnar::value::CmpOp;
use haec_exec::agg::{parallel_group_sum, SyncStrategy};
use haec_exec::join::HashJoin;
use haec_exec::select::{select_positions, SelectKernel};
use haecdb::prelude::*;

fn shuffled(n: usize) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for i in (1..v.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

/// E5: the three selection kernels at the adversarial selectivity (0.5).
fn bench_select_kernels(c: &mut Criterion) {
    let n = 1_000_000;
    let data = shuffled(n);
    let lit = (n / 2) as i64;
    let mut g = c.benchmark_group("e05_select_kernels_sel0.5");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    for kernel in SelectKernel::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(kernel), &kernel, |b, &k| {
            b.iter(|| select_positions(&data, CmpOp::Lt, lit, k))
        });
    }
    g.finish();
}

/// E16: encode/decode/scan throughput per scheme on run-heavy data.
fn bench_compression(c: &mut Criterion) {
    let n = 1_000_000usize;
    let data: Vec<i64> = (0..n).map(|i| (i / 512) as i64 % 37).collect();
    let mut g = c.benchmark_group("e16_compression_runs");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    for scheme in Scheme::ALL {
        g.bench_with_input(BenchmarkId::new("encode", scheme), &scheme, |b, &s| {
            b.iter(|| EncodedInts::encode(&data, s))
        });
        let encoded = EncodedInts::encode(&data, scheme);
        g.bench_with_input(BenchmarkId::new("scan", scheme), &encoded, |b, e| {
            b.iter(|| {
                let mut bm = Bitmap::zeros(n);
                e.scan(CmpOp::Ge, 18, &mut bm);
                bm.count_ones()
            })
        });
    }
    g.finish();
}

/// E4: parallel aggregation synchronization strategies.
fn bench_sync_strategies(c: &mut Criterion) {
    let n = 1_000_000usize;
    let groups = 8usize;
    let keys: Vec<u32> = (0..n).map(|i| ((i * 2_654_435_761) % groups) as u32).collect();
    let values: Vec<i64> = (0..n).map(|i| (i % 1000) as i64).collect();
    let threads = std::thread::available_parallelism().map(|x| x.get()).unwrap_or(2);
    let mut g = c.benchmark_group("e04_parallel_group_sum");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    for strategy in SyncStrategy::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(strategy), &strategy, |b, &s| {
            b.iter(|| parallel_group_sum(&keys, &values, groups, threads, s))
        });
    }
    g.finish();
}

/// Joins: build+probe throughput (supports E1's cost constants), then
/// build and probe alone, on each of the join table's two slot maps —
/// `direct` (surrogate keys `0..100 K`, a key span of one per row) and
/// `hashed` (the same keys scattered over all of `i64`). Half the probes
/// hit in both.
fn bench_hash_join(c: &mut Criterion) {
    let scatter = |k: i64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64);
    let dense: Vec<i64> = (0..100_000).collect();
    let dense_probe: Vec<i64> = (50_000..550_000).collect();
    let sparse: Vec<i64> = dense.iter().map(|&k| scatter(k)).collect();
    let sparse_probe: Vec<i64> = dense_probe.iter().map(|&k| scatter(k)).collect();
    let mut g = c.benchmark_group("join_hash");
    g.sample_size(10);
    for (map, build, probe) in [("direct", &dense, &dense_probe), ("hashed", &sparse, &sparse_probe)] {
        g.throughput(Throughput::Elements((build.len() + probe.len()) as u64));
        g.bench_function(&format!("build_probe/{map}"), |b| {
            b.iter(|| HashJoin::build(build).probe(probe).len())
        });
        g.throughput(Throughput::Elements(build.len() as u64));
        g.bench_function(&format!("build/{map}"), |b| b.iter(|| HashJoin::build(build).distinct_keys()));
        let join = HashJoin::build(build);
        g.throughput(Throughput::Elements(probe.len() as u64));
        g.bench_function(&format!("probe/{map}"), |b| b.iter(|| join.probe(probe).len()));
    }
    g.finish();
}

/// Per-hit reads of one 64 K-row segment at ascending hits, point
/// access (`get`) against the forward cursor the query path uses
/// (`cursor().at`) — the per-scheme numbers behind
/// `haecdb::table::SPARSE_HIT_RATIO`: its 1:8 crossover is the densest
/// list read this way, so 1/16 sits just under it and 1/1024 is one hit
/// per Delta checkpoint block. Delta, whose cursor skips whole 64-row
/// blocks between hits, is also read at the crossover itself (1:8) and
/// at 1:50 and 1:100, the hit densities of the sort-key gathers in
/// `haecbench`'s `project_sparse` and `join_int_filtered`. Each column
/// is in the shape `auto` picks that scheme for; the Delta one ticks
/// with jitter, since a column whose deltas are all equal (a counting
/// key) packs to width 0 and reads in O(1) through `get` and cursor
/// alike.
fn bench_sparse_access(c: &mut Criterion) {
    let n = 64 * 1024usize;
    let shaped = |scheme: Scheme| -> Vec<i64> {
        match scheme {
            Scheme::Plain => {
                shuffled(n).iter().map(|&v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)).collect()
            }
            Scheme::Rle => (0..n as i64).map(|i| (i / 4096) % 7).collect(),
            Scheme::For => shuffled(n).iter().map(|&v| v % 16_384).collect(),
            Scheme::Delta => (0..n as i64).map(|i| 1_600_000_000_000 + i * 1000 + (i * i) % 17).collect(),
        }
    };
    let mut g = c.benchmark_group("sparse_access");
    g.sample_size(10);
    for scheme in Scheme::ALL {
        let e = EncodedInts::encode(&shaped(scheme), scheme);
        let densities: &[usize] =
            if scheme == Scheme::Delta { &[8, 16, 50, 64, 100, 1024] } else { &[16, 64, 1024] };
        for &every in densities {
            let hits: Vec<usize> = (every / 2..n).step_by(every).collect();
            g.throughput(Throughput::Elements(hits.len() as u64));
            g.bench_with_input(
                BenchmarkId::new(format!("get/{scheme}"), format!("1:{every}")),
                &hits,
                |b, h| b.iter(|| h.iter().fold(0i64, |acc, &i| acc.wrapping_add(e.get(i)))),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("cursor/{scheme}"), format!("1:{every}")),
                &hits,
                |b, h| {
                    b.iter(|| {
                        let mut cur = e.cursor();
                        h.iter().fold(0i64, |acc, &i| acc.wrapping_add(cur.at(i)))
                    })
                },
            );
        }
    }
    g.finish();
}

/// The gather stage over a 16-segment table (1 M rows): a projection of
/// three columns — Delta-encoded ids, FOR values, dictionary codes —
/// behind filters keeping 1 row in 50 (read per cell) and 1 in 8 (each
/// segment streamed), run `serial` (a one-unit grant) and `pooled` (two
/// units: each segment's share of the gather is its own pool task).
/// Both include the filter scan, which is pooled alike. Then a
/// join-shaped positional list — unordered, with duplicates — through
/// `gather_rows`, the serial reference the pooled shares are held to.
fn bench_gather(c: &mut Criterion) {
    let db = Database::new();
    db.create_table(
        "t",
        &[("id", DataType::Int64), ("sel", DataType::Int64), ("v", DataType::Int64), ("tag", DataType::Str)],
    )
    .unwrap();
    db.set_merge_threshold("t", usize::MAX).unwrap();
    let n = 16 * SEGMENT_ROWS;
    let values = shuffled(n);
    for (i, &v) in values.iter().enumerate() {
        let i = i as i64;
        let record = Record::new()
            .with("id", 1_600_000_000_000 + i)
            .with("sel", (i * 7919) % 400)
            .with("v", v % 16_384)
            .with("tag", ["red", "green", "blue"][(v % 3) as usize]);
        db.insert("t", &record).unwrap();
    }
    db.merge("t").unwrap();
    let mut g = c.benchmark_group("gather");
    g.sample_size(10);
    for (every, keep) in [(50, 8), (8, 50)] {
        let q = Query::scan("t").filter("sel", CmpOp::Lt, keep).select(["id", "v", "tag"]);
        g.throughput(Throughput::Elements((n / every) as u64));
        for (label, dop) in [("serial", 1), ("pooled", 2)] {
            let opts = ExecOpts::with_dop(dop);
            g.bench_function(&format!("{label}/1:{every}"), |b| {
                b.iter(|| db.execute_opts(&q, &opts).unwrap().rows.rows())
            });
        }
    }
    let snap = db.table("t").unwrap();
    let names: Vec<String> = ["id", "v", "tag"].iter().map(ToString::to_string).collect();
    let rows: Vec<u32> = values[..n / 50].iter().map(|&v| (v as u32 / 2) * 2).collect();
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("positional/serial", |b| b.iter(|| snap.gather_rows(&names, &rows).unwrap().1));
    g.finish();
}

criterion_group!(
    benches,
    bench_select_kernels,
    bench_compression,
    bench_sync_strategies,
    bench_hash_join,
    bench_sparse_access,
    bench_gather
);
criterion_main!(benches);
