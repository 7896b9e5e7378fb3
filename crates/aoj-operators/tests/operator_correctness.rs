//! End-to-end operator correctness over the simulated cluster: every
//! operator must emit exactly the reference number of join matches, for
//! every workload shape, including runs where the Dynamic operator
//! migrates repeatedly while data is in flight.

use aoj_core::epoch::Reconfig;
use aoj_core::mapping::{GridAssignment, Mapping};
use aoj_core::predicate::Predicate;
use aoj_core::tuple::{Rel, Tuple};
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::{fluctuating, interleave, Arrivals};
use aoj_operators::joiner_task::JoinerFinal;
use aoj_operators::report::{ControllerFinal, Finals, MatchDigest};
use aoj_operators::reshuffler::ControlEvent;
use aoj_operators::{run, OperatorKind, SessionBuilder};
use aoj_simnet::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference match count straight off the arrival list.
fn reference_matches(arrivals: &Arrivals, predicate: &Predicate) -> u64 {
    let rs: Vec<&StreamItem> = arrivals
        .iter()
        .filter(|(rel, _)| *rel == Rel::R)
        .map(|(_, i)| i)
        .collect();
    let ss: Vec<&StreamItem> = arrivals
        .iter()
        .filter(|(rel, _)| *rel == Rel::S)
        .map(|(_, i)| i)
        .collect();
    let mut count = 0u64;
    for r in &rs {
        let rt = Tuple::new(Rel::R, 0, r.key, 0).with_aux(r.aux);
        for s in &ss {
            let st = Tuple::new(Rel::S, 1, s.key, 0).with_aux(s.aux);
            if predicate.matches(&rt, &st) {
                count += 1;
            }
        }
    }
    count
}

fn synthetic_workload(nr: usize, ns: usize, key_space: i64, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = |_: usize| StreamItem {
        key: rng.gen_range(0..key_space),
        aux: 0,
        bytes: 64,
    };
    Workload {
        name: "synthetic",
        predicate: Predicate::Equi,
        r_items: (0..nr).map(&mut item).collect(),
        s_items: (0..ns).map(&mut item).collect(),
    }
}

/// The session configuration for `kind` on `j` joiners over `w`.
fn config(j: u32, kind: OperatorKind, w: &Workload) -> SessionBuilder {
    SessionBuilder::new(j, kind)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
}

#[test]
fn dynamic_is_exact_on_lopsided_equi_join() {
    // 40:1 stream ratio forces the square start to walk to an edge
    // mapping mid-stream; output must still be exact.
    let w = synthetic_workload(100, 4000, 64, 11);
    let arrivals = interleave(&w, 22);
    let expected = reference_matches(&arrivals, &w.predicate);
    let cfg = config(16, OperatorKind::Dynamic, &w);
    let report = run(&arrivals, &cfg);
    assert!(
        report.migrations > 0,
        "lopsided input must trigger migrations"
    );
    assert_eq!(report.matches, expected);
}

#[test]
fn dynamic_is_exact_under_fluctuation() {
    // The §5.4 sawtooth: migrations in both directions, repeatedly.
    let w = synthetic_workload(3000, 3000, 48, 5);
    let arrivals = fluctuating(&w, 4, 0);
    let expected = reference_matches(&arrivals, &w.predicate);
    let cfg = config(16, OperatorKind::Dynamic, &w);
    let report = run(&arrivals, &cfg);
    assert!(
        report.migrations >= 2,
        "fluctuation must trigger repeated migrations, got {}",
        report.migrations
    );
    assert_eq!(report.matches, expected);
}

#[test]
fn dynamic_is_exact_on_band_join() {
    let mut w = synthetic_workload(400, 2400, 100, 77);
    w.predicate = Predicate::Band { width: 2 };
    let arrivals = interleave(&w, 3);
    let expected = reference_matches(&arrivals, &w.predicate);
    let cfg = config(8, OperatorKind::Dynamic, &w);
    let report = run(&arrivals, &cfg);
    assert_eq!(report.matches, expected);
}

#[test]
fn static_operators_are_exact() {
    let w = synthetic_workload(300, 2000, 50, 3);
    let arrivals = interleave(&w, 9);
    let expected = reference_matches(&arrivals, &w.predicate);
    for kind in [OperatorKind::StaticMid, OperatorKind::StaticOpt] {
        let cfg = config(16, kind, &w);
        let report = run(&arrivals, &cfg);
        assert_eq!(report.matches, expected, "{kind:?}");
        assert_eq!(report.migrations, 0, "{kind:?} must never migrate");
    }
}

#[test]
fn shj_is_exact_for_equi_joins() {
    let w = synthetic_workload(500, 1500, 40, 8);
    let arrivals = interleave(&w, 4);
    let expected = reference_matches(&arrivals, &w.predicate);
    let cfg = config(16, OperatorKind::Shj, &w);
    let mut report = run(&arrivals, &cfg);
    assert_eq!(report.matches, expected);
    // The one collect phase serves SHJ as "the run without a controller":
    // every field is what the dedicated SHJ collect produced (captured at
    // c73ed95, timeline and pair log elided).
    let timeline = std::mem::take(&mut report.samples);
    assert_eq!(
        format!("{report:?}|{}|{:?}", timeline.len(), timeline.last()),
        "RunReport { operator: \"SHJ\", backend: \"sim\", workload: \"synthetic\", j: 16, \
         input_tuples: 2000, exec_time: 2069us, matches: 18674, throughput: 966650.5558240695, \
         max_ilf_bytes: 22208, avg_ilf_bytes: 8000.0, total_storage_bytes: 128000, \
         network_bytes: 312540, network_messages: 457, \
         flushes: FlushCounts { batches: [0, 256, 0], tuples: [0, 2000, 0] }, \
         migration_bytes: 0, migrations: 0, expansions: 0, contractions: 0, \
         expand_transfers: [], contract_transfers: [], provisioned_machines: 17, \
         peak_provisioned_machines: 17, machines: [], \
         skew: SkewSummary { hot_keys: [], \
         observed_bytes: 0 }, max_spilled_bytes: 0, avg_latency_us: 632.8030785562632, \
         p50_latency_us: 1023, p99_latency_us: 1674, max_latency_us: 1674, \
         final_mapping: Mapping { n: 1, m: 1 }, samples: [], events: [], competitive: [], \
         match_pairs: [], match_digest: MatchDigest { count: 18674, \
         sum: 3144252334477007610, xor: 15676485725139494612 } }|133|\
         Some(ProgressSample { seq: 2000, at: t=1812us, max_stored_bytes: 22208, \
         total_stored_bytes: 128000 })"
    );
}

/// A machine slot that ran as two incarnations (retired by a contraction,
/// re-provisioned later — two processes on the TCP backend) reports twice:
/// what it counted sums, the controller's state is the later one.
#[test]
fn finals_merge_sums_a_slots_incarnations_and_takes_the_later_controller() {
    let incarnation = |slot, matches: u64, pair: (u64, u64)| {
        let mut f = JoinerFinal {
            slot,
            matches,
            match_log: vec![pair],
            ..Default::default()
        };
        f.latency.record(matches);
        f.counters.migration_bytes_in = 10 * matches;
        f.counters.retirements = 1;
        f.match_digest.fold(pair.0, pair.1);
        f
    };
    let controller = |n, m, epoch| ControllerFinal {
        assign: GridAssignment::initial(Mapping::new(n, m)),
        events: vec![ControlEvent::Complete {
            kind: Reconfig::Expand,
            at: SimTime(epoch as u64),
            epoch,
        }],
        samples: Vec::new(),
        resume: None,
    };
    let mut finals = Finals {
        joiners: vec![incarnation(3, 5, (1, 2))],
        controller: Some(controller(2, 2, 1)),
    };
    finals.merge(Finals {
        joiners: vec![incarnation(1, 4, (7, 8)), incarnation(3, 6, (3, 4))],
        controller: None,
    });
    let slots: Vec<usize> = finals.joiners.iter().map(|f| f.slot).collect();
    assert_eq!(slots, [1, 3], "one entry per slot, in slot order");
    let merged = &finals.joiners[1];
    assert_eq!(merged.matches, 11);
    assert_eq!(merged.match_log, [(1, 2), (3, 4)]);
    assert_eq!(merged.counters.migration_bytes_in, 110);
    assert_eq!(merged.counters.retirements, 2);
    assert_eq!((merged.latency.count, merged.latency.sum_us), (2, 11));
    let mut digest = MatchDigest::default();
    digest.fold(1, 2);
    digest.fold(3, 4);
    assert_eq!(merged.match_digest, digest);
    // A bundle without a controller leaves it; one with, replaces it.
    assert_eq!(finals.controller.as_ref().unwrap().assign.j(), 4);
    finals.merge(Finals {
        joiners: Vec::new(),
        controller: Some(controller(1, 8, 2)),
    });
    let ctrl = finals.controller.unwrap();
    assert_eq!(ctrl.assign.mapping(), Mapping::new(1, 8));
    assert!(matches!(
        ctrl.events[..],
        [ControlEvent::Complete { epoch: 2, .. }]
    ));
}

#[test]
fn all_operators_agree_with_each_other() {
    let w = synthetic_workload(800, 1600, 32, 13);
    let arrivals = interleave(&w, 6);
    let expected = reference_matches(&arrivals, &w.predicate);
    for kind in [
        OperatorKind::Dynamic,
        OperatorKind::StaticMid,
        OperatorKind::StaticOpt,
        OperatorKind::Shj,
    ] {
        let report = run(&arrivals, &config(8, kind, &w));
        assert_eq!(report.matches, expected, "{kind:?} diverged");
    }
}

#[test]
fn dynamic_converges_to_optimal_mapping() {
    let w = synthetic_workload(50, 6400, 64, 21);
    let arrivals = interleave(&w, 2);
    let cfg = config(16, OperatorKind::Dynamic, &w);
    let report = run(&arrivals, &cfg);
    // |S| >> |R|: the optimum is (1, 16) and Dynamic must reach it.
    assert_eq!(report.final_mapping, Mapping::new(1, 16));
}

#[test]
fn runs_are_deterministic() {
    let w = synthetic_workload(400, 1200, 30, 17);
    let arrivals = interleave(&w, 1);
    let cfg = config(8, OperatorKind::Dynamic, &w);
    let a = run(&arrivals, &cfg);
    let b = run(&arrivals, &cfg);
    assert_eq!(a.matches, b.matches);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.network_bytes, b.network_bytes);
}

#[test]
fn dynamic_lowers_ilf_versus_static_mid() {
    // The headline effect: on a lopsided stream, the adaptive operator's
    // per-joiner storage is far below the square grid's.
    let w = synthetic_workload(100, 6400, 64, 31);
    let arrivals = interleave(&w, 12);
    let dynamic = run(&arrivals, &config(16, OperatorKind::Dynamic, &w));
    let static_mid = run(&arrivals, &config(16, OperatorKind::StaticMid, &w));
    assert!(
        (dynamic.max_ilf_bytes as f64) < 0.6 * static_mid.max_ilf_bytes as f64,
        "dynamic ILF {} should be well below static-mid {}",
        dynamic.max_ilf_bytes,
        static_mid.max_ilf_bytes
    );
    assert_eq!(dynamic.matches, static_mid.matches);
}

#[test]
fn migration_traffic_is_bounded_by_amortized_cost() {
    // Theorem 4.2 (ε = 1): amortised migration cost per input tuple is
    // constant. Check total exchanged bytes stay within a small multiple
    // of the input volume.
    let w = synthetic_workload(2000, 2000, 64, 41);
    let arrivals = fluctuating(&w, 4, 0);
    // 4,000 tuples are 16,000 copies at J = 16: the stream is sized
    // against the per-tuple plane's 64·J window. The batch-derived
    // default (8·J·64 copies) would hold half of it in flight, and the
    // fluctuations would be over before a second migration could start.
    let cfg = config(16, OperatorKind::Dynamic, &w).with_window_copies(64 * 16);
    let report = run(&arrivals, &cfg);
    let input_bytes: u64 = arrivals.iter().map(|(_, i)| i.bytes as u64).sum();
    assert!(report.migrations >= 2);
    assert!(
        report.migration_bytes < 8 * input_bytes,
        "migration bytes {} exceed the amortised bound vs input {}",
        report.migration_bytes,
        input_bytes
    );
}

#[test]
fn competitive_ratio_stays_within_bound_after_warmup() {
    let w = synthetic_workload(4000, 4000, 64, 51);
    let arrivals = fluctuating(&w, 4, 0);
    let mut cfg = config(16, OperatorKind::Dynamic, &w);
    // Theorem 4.6's premise is that input arrives no faster than joiners
    // process (the paper's Storm deployment has backpressure; migrations
    // are serviced at twice the data rate). A saturating source would let
    // the whole stream race ahead of in-flight migrations, which no
    // adaptive scheme could track. Pace the source below capacity.
    cfg.source.pacing = aoj_operators::SourcePacing::per_second(150_000);
    let report = run(&arrivals, &cfg);
    // Skip the warm-up third; allow slack for the decentralised estimate
    // noise (the theorem assumes exact cardinalities).
    let max_ratio = report.max_competitive_ratio(arrivals.len() as u64 / 3);
    assert!(
        max_ratio <= 1.25 * 1.15,
        "ILF/ILF* = {max_ratio} exceeds 1.25 plus estimator slack"
    );
}

#[test]
fn blocking_migrations_are_exact_but_spike_latency() {
    // The §4.3 strawman: stall routing during state relocation, redirect
    // afterwards. Output must still be exact; the cost is a latency spike
    // on every tuple that waited out the migration.
    let w = synthetic_workload(2000, 2000, 64, 61);
    let arrivals = fluctuating(&w, 4, 0);
    let expected = reference_matches(&arrivals, &w.predicate);

    let rate = 150_000;
    let mut nonblocking = config(16, OperatorKind::Dynamic, &w);
    nonblocking.source.pacing = aoj_operators::SourcePacing::per_second(rate);
    let nb = run(&arrivals, &nonblocking);

    let mut blocking = nonblocking.clone();
    blocking.elasticity.blocking_migrations = true;
    let b = run(&arrivals, &blocking);

    assert_eq!(nb.matches, expected, "non-blocking output");
    assert_eq!(b.matches, expected, "blocking output");
    assert!(nb.migrations >= 2 && b.migrations >= 2);
    // With backpressure, part of the stall manifests as throttled
    // admission rather than queued latency; the worst-case latency of
    // tuples already inside the operator still rises markedly.
    assert!(
        b.max_latency_us as f64 > 1.3 * nb.max_latency_us as f64,
        "blocking should spike worst-case latency (blocking {} vs non-blocking {})",
        b.max_latency_us,
        nb.max_latency_us
    );
    assert!(
        b.avg_latency_us > nb.avg_latency_us,
        "blocking should raise average latency ({} vs {})",
        b.avg_latency_us,
        nb.avg_latency_us
    );
}
