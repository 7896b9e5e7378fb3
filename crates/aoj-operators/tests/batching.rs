//! The batch-first data plane's contracts:
//!
//! * `batch_tuples = 1` reproduces the per-tuple data plane's simulator
//!   event timeline **bit-for-bit** (golden values captured from the
//!   pre-batching code on the same seeded workloads);
//! * any batch size yields the identical join multiset;
//! * batching cuts message counts and per-tuple latency accounting
//!   survives coalescing (p50/p99 come from each tuple's own arrival
//!   time, so a deliberately aged buffer inflates measured latency);
//! * a saturated source is paced by the joiners, not by the coalescers'
//!   age timer: the default flow-control window follows the batch size
//!   (an explicit one is verbatim) — while a trickling source keeps its
//!   timeline, quantity for quantity.

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::{run, OperatorKind, RunReport, SessionBuilder, SourcePacing};
use aoj_simnet::FlushCause;
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

/// A uniform equi-join at about one match per tuple, |R| = |S|.
fn uniform_equi(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let key_space = (n / 4) as i64;
    let mut item = || StreamItem {
        key: rng.gen_range(0..key_space),
        aux: 0,
        bytes: 64,
    };
    Workload {
        name: "cliff",
        predicate: Predicate::Equi,
        r_items: (0..n / 2).map(|_| item()).collect(),
        s_items: (0..n / 2).map(|_| item()).collect(),
    }
}

fn tuples_per_batch(r: &RunReport) -> f64 {
    let shipped: u64 = r.flushes.tuples.iter().sum();
    shipped as f64 / r.flushes.total_batches() as f64
}

/// The throughput cliff: at batch 64 the old default window of `64·J`
/// copies was two ingest blocks on the (2,2) grid, every coalescing slot
/// stopped at half a batch, and every data batch left on the 200 µs age
/// timer — 392,434 tuples/s on this stream at J = 4 against 733,366 with
/// flow control off, in exactly repeating virtual time. With the window
/// derived from the batch size, flow control costs a saturated stream
/// neither throughput nor batch fill.
#[test]
fn default_window_does_not_throttle_a_saturated_stream() {
    let w = uniform_equi(40_000, 0xC11F);
    let arrivals = interleave(&w, 0xC11F ^ 0xA0A0);
    for j in [4u32, 16] {
        let cfg = config(j, OperatorKind::Dynamic, &w);
        let windowed = run(&arrivals, &cfg);
        let unbounded = run(&arrivals, &cfg.clone().with_window_copies(0));
        assert_eq!(windowed.matches, unbounded.matches);
        assert!(
            windowed.throughput >= 0.9 * unbounded.throughput,
            "J={j}: {:.0} tuples/s under the default window vs {:.0} without flow control",
            windowed.throughput,
            unbounded.throughput
        );
        // The machines are CPU-bound here, so the age bound still trims
        // batches (a slot takes longer than 200 µs to fill) — but no
        // more than it does with no window at all. The old window held
        // every batch to half a slot.
        assert!(
            tuples_per_batch(&windowed) >= 0.9 * tuples_per_batch(&unbounded),
            "J={j}: {:.1} tuples per data batch under the default window vs {:.1} without \
             flow control ({} vs {})",
            tuples_per_batch(&windowed),
            tuples_per_batch(&unbounded),
            windowed.flushes,
            unbounded.flushes
        );
    }
}

/// What the cliff looks like in the counters, and that an explicit
/// window is honoured verbatim: pinned back to the old `64·J` copies,
/// this stream's coalescers hardly ever fill — 97 % of the data batches
/// leave on the age timer at half a slot and throughput is window ÷ timer again.
#[test]
fn an_explicit_small_window_starves_the_coalescers_and_the_counters_say_so() {
    let w = uniform_equi(40_000, 0xC11F);
    let arrivals = interleave(&w, 0xC11F ^ 0xA0A0);
    let cfg = config(4, OperatorKind::Dynamic, &w);
    let default = run(&arrivals, &cfg);
    let starved = run(&arrivals, &cfg.clone().with_window_copies(64 * 4));
    assert_eq!(starved.matches, default.matches);
    let aged = starved.flushes.batches(FlushCause::Deadline);
    assert!(
        aged * 100 >= starved.flushes.total_batches() * 95,
        "a starved window ships on the age timer: {}",
        starved.flushes
    );
    assert!(
        starved.throughput <= 0.6 * default.throughput,
        "{:.0} tuples/s under 64·J copies vs {:.0} under the default window",
        starved.throughput,
        default.throughput
    );
}

/// A source paced at 50k tuples/s never comes near either window, so the
/// window rule must not move it: every batch leaves on the age bound and
/// the timeline is the parent commit's (1a81506), quantity for quantity.
#[test]
fn trickling_source_keeps_the_age_bound_and_the_timeline() {
    let w = uniform_equi(20_000, 0x7121);
    let arrivals = interleave(&w, 0x7121 ^ 0xA0A0);
    let cfg = config(4, OperatorKind::Dynamic, &w).with_pacing(SourcePacing::per_second(50_000));
    let r = run(&arrivals, &cfg);
    assert_eq!(r.flushes.batches, [0, 5_000, 0, 0], "{}", r.flushes);
    assert_eq!(r.exec_time.as_micros(), 400_243, "virtual end time drifted");
    assert_eq!(r.network_messages, 9_801, "message count drifted");
    assert_eq!(r.network_bytes, 4_048_732, "wire bytes drifted");
    assert_eq!(r.matches, 20_294);
    assert_eq!((r.p50_latency_us, r.p99_latency_us), (338, 338));
}
