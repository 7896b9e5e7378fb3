//! The batch-first data plane's contracts:
//!
//! * `batch_tuples = 1` reproduces the per-tuple data plane's simulator
//!   event timeline **bit-for-bit** (golden values captured from the
//!   pre-batching code on the same seeded workloads);
//! * any batch size yields the identical join multiset;
//! * batching cuts message counts and per-tuple latency accounting
//!   survives coalescing (p50/p99 come from each tuple's own arrival
//!   time, so a deliberately aged buffer inflates measured latency).

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::{run, OperatorKind, SessionBuilder, SourcePacing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The session configuration for `kind` on `j` joiners over `w`.
fn config(j: u32, kind: OperatorKind, w: &Workload) -> SessionBuilder {
    SessionBuilder::new(j, kind)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
}

fn workload(predicate: Predicate, nr: usize, ns: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = |key_space: i64| StreamItem {
        key: {
            let a = rng.gen_range(0..key_space);
            let b = rng.gen_range(0..key_space);
            a.min(b)
        },
        aux: rng.gen_range(0..1_000i32),
        bytes: 64,
    };
    Workload {
        name: "golden",
        predicate,
        r_items: (0..nr).map(|_| item(300)).collect(),
        s_items: (0..ns).map(|_| item(300)).collect(),
    }
}

/// Golden regression: the per-tuple plane's exact simulator timeline,
/// captured from the pre-batching code (commit before this refactor) on
/// this seeded workload. A batch size of one must leave every quantity
/// untouched — same virtual end time, same message count, same bytes,
/// same matches, same latency percentiles.
#[test]
fn batch_of_one_reproduces_the_per_tuple_timeline_dynamic_band() {
    let w = workload(Predicate::Band { width: 2 }, 300, 3_000, 0x601D);
    let arrivals = interleave(&w, 0x601D ^ 0xA0A0);
    let cfg = config(4, OperatorKind::Dynamic, &w).with_batch_tuples(1);
    let r = run(&arrivals, &cfg);
    assert_eq!(r.exec_time.as_micros(), 7188, "virtual end time drifted");
    assert_eq!(r.network_messages, 10364, "message count drifted");
    assert_eq!(r.network_bytes, 568_860, "wire bytes drifted");
    assert_eq!(r.matches, 19_426);
    assert_eq!(r.migrations, 1);
    assert_eq!((r.p50_latency_us, r.p99_latency_us), (511, 635));
}

#[test]
fn batch_of_one_reproduces_the_per_tuple_timeline_shj() {
    let w = workload(Predicate::Equi, 300, 3_000, 0x601D);
    let arrivals = interleave(&w, 0x601D ^ 0xA0A0);
    let cfg = config(4, OperatorKind::Shj, &w).with_batch_tuples(1);
    let r = run(&arrivals, &cfg);
    assert_eq!(r.exec_time.as_micros(), 5459, "virtual end time drifted");
    assert_eq!(r.network_messages, 9520, "message count drifted");
    assert_eq!(r.network_bytes, 509_252, "wire bytes drifted");
    assert_eq!(r.matches, 3_933);
    assert_eq!((r.p50_latency_us, r.p99_latency_us), (488, 488));
}

/// Batching must not change the join result, and must visibly cut the
/// message count (the whole point of the refactor).
#[test]
fn batched_runs_emit_identical_multisets_with_fewer_messages() {
    let w = workload(Predicate::Band { width: 2 }, 300, 3_000, 0xBA7C);
    let arrivals = interleave(&w, 0xBA7C ^ 0xA0A0);
    let mut base = config(4, OperatorKind::Dynamic, &w).with_batch_tuples(1);
    base.backend.collect_matches = true;
    let unbatched = run(&arrivals, &base);
    assert!(unbatched.matches > 0, "vacuous workload");
    for batch in [4usize, 64, 256] {
        let cfg = base.clone().with_batch_tuples(batch);
        let batched = run(&arrivals, &cfg);
        assert_eq!(
            batched.match_pairs, unbatched.match_pairs,
            "batch={batch}: join multiset diverged from the per-tuple plane"
        );
        assert!(
            batched.network_messages < unbatched.network_messages / 2,
            "batch={batch}: expected a big message-count cut, got {} vs {}",
            batched.network_messages,
            unbatched.network_messages
        );
    }
}

/// Satellite: latency accounting at batch boundaries. A coalescing
/// buffer that (deliberately) only ever flushes by age must inflate the
/// *measured* per-tuple latency by roughly its age bound — because every
/// sample is computed from the tuple's own `arrived` timestamp, never
/// from the batch flush time. If batching hid the buffered wait, p50
/// would stay near the unbatched value and this test would fail.
#[test]
fn aged_coalescing_buffer_inflates_measured_latency() {
    let w = workload(Predicate::Equi, 200, 2_000, 0xA6ED);
    let arrivals = interleave(&w, 0xA6ED ^ 0xA0A0);
    let mut cfg = config(4, OperatorKind::Dynamic, &w).with_batch_tuples(1);
    // Slow the source so coalescing buffers trickle-fill: the arrivals
    // spread over 4 reshufflers × 4 destinations never reach the huge
    // threshold below before the age flush fires.
    cfg.source.pacing = SourcePacing::per_second(50_000);
    let unbatched = run(&arrivals, &cfg);

    let mut aged = cfg.clone();
    aged.data_plane.batch_tuples = 4_096; // never filled: flushes happen by age only
    aged.data_plane.batch_max_delay_us = 20_000;
    let aged_run = run(&arrivals, &aged);

    assert_eq!(aged_run.matches, unbatched.matches, "exactness must hold");
    assert!(
        aged_run.p50_latency_us >= 10_000,
        "tuples sat up to 20ms in aged buffers; measured p50 {}us must show it",
        aged_run.p50_latency_us
    );
    assert!(
        aged_run.p50_latency_us >= 4 * unbatched.p50_latency_us,
        "aged p50 {}us should dwarf the unbatched p50 {}us",
        aged_run.p50_latency_us,
        unbatched.p50_latency_us
    );
}
