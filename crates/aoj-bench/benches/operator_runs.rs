//! Meso-benchmarks: full operator runs on the simulated cluster at small
//! scale — one per paper artifact family, so `cargo bench` regenerates a
//! miniature of every evaluation dimension (runtime comparisons, skew
//! resilience, fluctuation adaptivity).

use aoj_bench::experiments::config;
use aoj_datagen::queries::eq5;
use aoj_datagen::stream::{fluctuating, interleave};
use aoj_datagen::tpch::{ScaledGb, TpchDb};
use aoj_datagen::zipf::Skew;
use aoj_operators::{run, OperatorKind};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn small_db(skew: Skew) -> TpchDb {
    TpchDb::generate(
        ScaledGb {
            gb: 2,
            reduction: 1000,
        },
        skew,
        42,
    )
}

fn bench_operator_comparison(c: &mut Criterion) {
    let mut g = c.benchmark_group("operator_eq5_2gb_j16");
    g.sample_size(10);
    let db = small_db(Skew::Z0);
    let w = eq5(&db);
    let arrivals = interleave(&w, 7);
    for kind in [
        OperatorKind::Dynamic,
        OperatorKind::StaticMid,
        OperatorKind::StaticOpt,
        OperatorKind::Shj,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let cfg = config(16, kind, &w);
                    black_box(run(&arrivals, &cfg))
                });
            },
        );
    }
    g.finish();
}

fn bench_skew_resilience(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynamic_under_skew_2gb_j16");
    g.sample_size(10);
    for skew in [Skew::Z0, Skew::Z4] {
        let db = small_db(skew);
        let w = eq5(&db);
        let arrivals = interleave(&w, 7);
        g.bench_with_input(BenchmarkId::from_parameter(skew.label()), &skew, |b, _| {
            b.iter(|| {
                let cfg = config(16, OperatorKind::Dynamic, &w);
                black_box(run(&arrivals, &cfg))
            });
        });
    }
    g.finish();
}

fn bench_fluctuation(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynamic_fluctuating_j16");
    g.sample_size(10);
    let db = small_db(Skew::Z0);
    let w = eq5(&db);
    for k in [2u64, 8] {
        let arrivals = fluctuating(&w, k, 1);
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                let cfg = config(16, OperatorKind::Dynamic, &w);
                black_box(run(&arrivals, &cfg))
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_operator_comparison,
    bench_skew_resilience,
    bench_fluctuation
);
criterion_main!(benches);
