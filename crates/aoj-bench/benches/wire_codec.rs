//! Microbenchmarks for the aoj-net wire codec's hot path: encoding and
//! decoding the three message shapes that dominate data-plane traffic
//! (`IngestBatch`, `DataBatch`, `MigBatch`), at the batch sizes the
//! operator actually ships, with the pooled encode-into-reused-buffer
//! discipline the TCP backend uses versus the naive fresh-`Vec` per
//! frame it replaced. The pooled/fresh gap is the allocation overhead
//! the zero-allocation hot path removed; the counting-allocator test
//! (`aoj-net/tests/zero_alloc.rs`) pins the "pooled means zero
//! allocations" claim, this bench tracks the cycles.

use aoj_core::tuple::{Rel, Tuple};
use aoj_net::wire::{TaskMsg, Wire};
use aoj_operators::messages::{IngestItem, OpMsg};
use aoj_simnet::{SimTime, TaskId};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const BATCH_SIZES: [usize; 3] = [1, 64, 256];

fn tuple(i: u64) -> Tuple {
    let rel = if i.is_multiple_of(2) { Rel::R } else { Rel::S };
    Tuple::new(rel, i, (i as i64 * 37) % 1_000, i)
}

fn ingest_batch(n: usize) -> OpMsg {
    OpMsg::IngestBatch {
        items: (0..n as u64)
            .map(|i| IngestItem {
                rel: if i.is_multiple_of(2) { Rel::R } else { Rel::S },
                key: (i as i64 * 31) % 1_000,
                aux: i as i32,
                bytes: 96,
                seq: i,
            })
            .collect(),
    }
}

fn data_batch(n: usize) -> OpMsg {
    OpMsg::DataBatch {
        tag: 3,
        store: true,
        tuples: (0..n as u64).map(tuple).collect(),
        arrived: (0..n as u64).map(SimTime).collect(),
    }
}

fn mig_batch(n: usize) -> OpMsg {
    OpMsg::MigBatch {
        tuples: (0..n as u64).map(tuple).collect(),
    }
}

fn shapes(n: usize) -> [(&'static str, TaskMsg); 3] {
    let (from, to) = (TaskId(7), TaskId(11));
    [
        ("ingest_batch", (from, to, ingest_batch(n))),
        ("data_batch", (from, to, data_batch(n))),
        ("mig_batch", (from, to, mig_batch(n))),
    ]
}

/// Encode throughput: pooled (append into a cleared reused buffer — the
/// steady-state TCP hot path) vs fresh (a new `Vec<u8>` per frame).
fn bench_encode(c: &mut Criterion) {
    for &n in &BATCH_SIZES {
        for (name, msg) in shapes(n) {
            let mut g = c.benchmark_group(format!("wire_encode_{name}"));
            g.bench_function(BenchmarkId::new("pooled", n), |b| {
                let mut buf = Vec::new();
                b.iter(|| {
                    buf.clear();
                    msg.encode_into(&mut buf);
                    black_box(buf.len())
                });
            });
            g.bench_function(BenchmarkId::new("fresh", n), |b| {
                b.iter(|| black_box(msg.to_bytes().len()));
            });
            g.finish();
        }
    }
}

/// Decode throughput over the same shapes (the decoder reads scalars
/// straight off the payload slice; its allocations are the message's
/// own vectors, so there is no pooled/fresh axis here).
fn bench_decode(c: &mut Criterion) {
    for &n in &BATCH_SIZES {
        let mut g = c.benchmark_group("wire_decode");
        for (name, msg) in shapes(n) {
            let bytes = msg.to_bytes();
            g.bench_function(BenchmarkId::new(name, n), |b| {
                b.iter(|| black_box(TaskMsg::from_bytes(black_box(&bytes)).expect("decode")));
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
