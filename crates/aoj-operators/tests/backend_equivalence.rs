//! Backend equivalence: the simulator and the threaded runtime must
//! produce the **same join result multiset** for the same seeded
//! workload.
//!
//! This is a strong claim for the Dynamic operator: the threaded
//! backend's migration timing is wall-clock-nondeterministic (acks race
//! with data), so the two backends generally execute *different*
//! migration schedules — yet the epoch protocol guarantees every
//! matching pair is emitted exactly once under any schedule. Comparing
//! sorted `(R seq, S seq)` multisets across backends exercises exactly
//! that guarantee on real threads.

use std::sync::{Mutex, PoisonError};

use aoj_core::epoch::Reconfig;
use aoj_core::predicate::Predicate;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_datagen::zipf::ZipfSampler;
use aoj_operators::reshuffler::ControlEvent;
use aoj_operators::{
    run, BackendChoice, ElasticConfig, JoinSession, OperatorKind, RunReport, SessionBuilder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The session configuration for `kind` on `j` joiners over `w`.
fn config(j: u32, kind: OperatorKind, w: &Workload) -> SessionBuilder {
    SessionBuilder::new(j, kind)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
}

// The TCP process backend re-executes this test binary as its workers;
// this declares the re-exec entry point.
aoj_net::worker_entry!();

/// TCP runs record a process-global [`aoj_net::last_run_summary`], so
/// the tests asserting on it must not interleave their runs.
static TCP_RUNS: Mutex<()> = Mutex::new(());

/// A lopsided, moderately skewed workload: R dimension-like, S fact-like,
/// overlapping key space so the join produces real output.
fn workload(predicate: Predicate, nr: usize, ns: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = |key_space: i64| StreamItem {
        // Mild quadratic skew: low keys are hot.
        key: {
            let a = rng.gen_range(0..key_space);
            let b = rng.gen_range(0..key_space);
            a.min(b)
        },
        aux: rng.gen_range(0..1_000i32),
        bytes: 64,
    };
    Workload {
        name: "equiv",
        predicate,
        r_items: (0..nr).map(|_| item(400)).collect(),
        s_items: (0..ns).map(|_| item(400)).collect(),
    }
}

fn run_both(kind: OperatorKind, predicate: Predicate, seed: u64) {
    let w = workload(predicate, 400, 4_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let mut cfg = config(4, kind, &w);
    cfg.backend.collect_matches = true;
    cfg.seed = seed;

    let sim = run(&arrivals, &cfg.clone().with_backend(BackendChoice::Sim));
    let threaded = run(&arrivals, &cfg.with_backend(BackendChoice::Threaded));

    assert_eq!(sim.backend, "sim");
    assert_eq!(threaded.backend, "threaded");
    assert!(
        sim.matches > 0,
        "workload produced no matches — test is vacuous"
    );
    assert_eq!(
        sim.matches, threaded.matches,
        "{kind:?}: match counts diverge across backends"
    );
    // The strong form: identical sorted multisets of pair identities.
    assert_eq!(
        sim.match_pairs, threaded.match_pairs,
        "{kind:?}: join result multisets diverge across backends"
    );
    assert_eq!(sim.match_pairs.len() as u64, sim.matches);
}

#[test]
fn dynamic_join_results_match_across_backends() {
    run_both(OperatorKind::Dynamic, Predicate::Equi, 0xD1_2014);
}

#[test]
fn dynamic_band_join_results_match_across_backends() {
    run_both(
        OperatorKind::Dynamic,
        Predicate::Band { width: 2 },
        0xBA_2014,
    );
}

#[test]
fn shj_join_results_match_across_backends() {
    run_both(OperatorKind::Shj, Predicate::Equi, 0x54_2014);
}

/// An elastic Dynamic run must (a) actually expand mid-stream on both
/// backends, (b) emit the exact same join multiset as the equivalent
/// non-elastic run, on both backends, and (c) respect Theorem 4.3's
/// per-parent `transmitted ≤ 2 × stored` bound. The threaded split
/// interleaves with live traffic at wall-clock-dependent instants —
/// exactness must survive any such interleaving.
#[test]
fn elastic_dynamic_expands_live_and_stays_exact_across_backends() {
    let seed = 0xE1A_2014;
    let w = workload(Predicate::Equi, 400, 4_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let mut cfg = config(2, OperatorKind::Dynamic, &w);
    cfg.backend.collect_matches = true;
    cfg.seed = seed;
    // 64 B payloads, ~4.4k tuples: every joiner blows well past 32 KB of
    // stored state mid-stream, so one ×4 expansion (J 2 → 8) must fire.
    cfg.elasticity.elastic = Some(ElasticConfig::new(64 << 10, 1));

    // The non-elastic reference output (simulator).
    let mut base_cfg = cfg.clone();
    base_cfg.elasticity.elastic = None;
    let reference = run(&arrivals, &base_cfg);
    assert!(reference.matches > 0, "vacuous workload");

    for backend in [BackendChoice::Sim, BackendChoice::Threaded] {
        let report = run(&arrivals, &cfg.clone().with_backend(backend));
        assert!(
            report.expansions >= 1,
            "{backend:?}: no live expansion fired — the test is vacuous"
        );
        assert_eq!(
            report.final_mapping.j(),
            8,
            "{backend:?}: cluster did not finish at 4×J₀"
        );
        assert_eq!(
            report.match_pairs, reference.match_pairs,
            "{backend:?}: elastic run diverged from the non-elastic output"
        );
        assert!(
            !report.expand_transfers.is_empty(),
            "{backend:?}: parents recorded no expansion transfers"
        );
        for t in &report.expand_transfers {
            assert!(
                t.sent_tuples <= 2 * t.stored_tuples,
                "{backend:?}: parent {} shipped {} copies of {} stored tuples \
                 (> 2× — Theorem 4.3 violated)",
                t.joiner,
                t.sent_tuples,
                t.stored_tuples
            );
        }
    }
}

/// Sim vs the TCP **process** backend: same seeded workload, identical
/// sorted join multisets. Every machine is a separate OS process here,
/// so this exercises the wire codec, the per-class sockets, and the
/// connection-level EOS/drain protocol end to end.
fn run_sim_vs_tcp(kind: OperatorKind, predicate: Predicate, seed: u64) {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let w = workload(predicate, 400, 4_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let mut cfg = config(4, kind, &w);
    cfg.backend.collect_matches = true;
    cfg.seed = seed;

    let sim = run(&arrivals, &cfg.clone().with_backend(BackendChoice::Sim));
    let tcp = run(&arrivals, &cfg.with_backend(BackendChoice::Tcp));

    assert_eq!(tcp.backend, "tcp");
    assert!(sim.matches > 0, "vacuous workload");
    assert_eq!(
        sim.match_pairs, tcp.match_pairs,
        "{kind:?}: join result multisets diverge between sim and tcp"
    );
    // Every worker process was reaped cleanly.
    let summary = aoj_net::last_run_summary().expect("tcp run recorded a summary");
    assert_eq!(summary.spawned as usize, summary.reaped.len());
    for r in &summary.reaped {
        assert_eq!(
            r.exit_code,
            Some(0),
            "worker {} (gen {}) exited abnormally",
            r.machine,
            r.gen
        );
    }
}

#[test]
fn tcp_dynamic_band_join_results_match_sim() {
    run_sim_vs_tcp(
        OperatorKind::Dynamic,
        Predicate::Band { width: 2 },
        0xBA_2014,
    );
}

#[test]
fn tcp_shj_join_results_match_sim() {
    run_sim_vs_tcp(OperatorKind::Shj, Predicate::Equi, 0x54_2014);
}

/// The operator measures its own `ILF/ILF*`: the source stamps the
/// stream's exact counts on the controller's ingest, the controller
/// prices each stamp against the mapping in force, and the trace comes
/// home in the controller's finals. So a seeded run reports the same
/// `(tuples, ratio)` sequence on the simulator, the threaded runtime and
/// the TCP processes. The 1:16 stream makes exactly one migration,
/// `(2, 2) → (1, 4)`, which begins at the same source block on every
/// backend; a chained second step would begin at an ack, whose timing
/// is the backend's.
#[test]
fn tcp_competitive_trace_is_identical_on_every_backend() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0x7AC3_2014;
    let w = workload(Predicate::Equi, 300, 4_800, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let cfg = config(4, OperatorKind::Dynamic, &w).with_seed(seed);
    let trace = |r: &RunReport| -> Vec<(u64, f64)> {
        r.competitive
            .iter()
            .map(|p| (p.tuples, p.ratio()))
            .collect()
    };
    let sim = run(&arrivals, &cfg.clone().with_backend(BackendChoice::Sim));
    assert_eq!(
        sim.migrations, 1,
        "the stream must make exactly one migration"
    );
    assert!(
        trace(&sim).len() >= 20,
        "vacuous: {} trace points",
        trace(&sim).len()
    );
    for backend in [BackendChoice::Threaded, BackendChoice::Tcp] {
        let live = run(&arrivals, &cfg.clone().with_backend(backend));
        assert_ne!(live.backend, sim.backend);
        assert_eq!(live.migrations, 1, "{backend:?}: one migration");
        assert_eq!(trace(&live), trace(&sim), "{backend:?}: the trace moved");
    }
}

/// The elastic Dynamic operator on the TCP backend: a live ×4 expansion
/// must fire **mid-stream**, provisioning real worker processes at
/// trigger time, and the join multiset must still be exactly the
/// non-elastic simulator reference.
#[test]
fn tcp_elastic_expansion_provisions_processes_and_stays_exact() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0xE1A_2014;
    let w = workload(Predicate::Equi, 400, 4_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let mut cfg = config(2, OperatorKind::Dynamic, &w);
    cfg.backend.collect_matches = true;
    cfg.seed = seed;
    cfg.elasticity.elastic = Some(ElasticConfig::new(64 << 10, 1));

    let mut base_cfg = cfg.clone();
    base_cfg.elasticity.elastic = None;
    let reference = run(&arrivals, &base_cfg);
    assert!(reference.matches > 0, "vacuous workload");

    let report = run(&arrivals, &cfg.with_backend(BackendChoice::Tcp));
    assert!(report.expansions >= 1, "no live expansion fired");
    assert_eq!(report.final_mapping.j(), 8, "cluster did not reach 4×J₀");
    assert_eq!(
        report.match_pairs, reference.match_pairs,
        "elastic tcp run diverged from the non-elastic output"
    );
    // Trigger-time provisioning: the cluster started at 2 joiner
    // machines and expanded ×4 live, so the peak must show the spawned
    // processes (8 joiners + the coordinator-hosted source machine).
    assert_eq!(
        report.peak_provisioned_machines, 9,
        "peak provisioning does not reflect the trigger-time spawns"
    );
    let summary = aoj_net::last_run_summary().expect("tcp run recorded a summary");
    assert_eq!(
        summary.spawned, 8,
        "expected 2 eager + 6 trigger-time worker spawns"
    );
    assert_eq!(summary.spawned as usize, summary.reaped.len());
    for r in &summary.reaped {
        assert_eq!(r.exit_code, Some(0), "worker {} crashed", r.machine);
    }
}

/// A forced elastic contraction on the TCP backend, then a re-expansion
/// onto the slots it retired: retired machines' processes perform the
/// quiesce-barrier teardown and **exit mid-run** (waitpid-confirmed),
/// their slots come back as generation-1 processes, and the join
/// multiset stays exact.
#[test]
fn tcp_contraction_retires_processes_and_stays_exact() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0xE1A_2014;
    let w = workload(Predicate::Equi, 400, 4_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let mut cfg = config(2, OperatorKind::Dynamic, &w);
    cfg.backend.collect_matches = true;
    cfg.seed = seed;
    // Expand at 80 KB a joiner. The controller's estimate for J₀ = 2,
    // |R| + |S|/2 on its (1, 2) grid, passes that a little over half way
    // through the stream; the eight joiners' (2, 4) estimate stays below
    // it (76.8 KB with the whole stream in), so however late the
    // expansion completes, a permissive contraction threshold past the
    // holdoff pulls the cluster back 4→1 next. The merged estimate is
    // past 80 KB again, so the cluster re-expands onto the retired slots
    // and contracts once more. Each change begins as the previous one
    // completes, so the chain runs even once the whole stream is in.
    cfg.elasticity.elastic = Some(
        ElasticConfig::new(160 << 10, 2)
            .with_contraction(1 << 40, 2)
            .with_contract_holdoff(2_000),
    );

    let mut base_cfg = cfg.clone();
    base_cfg.elasticity.elastic = None;
    let reference = run(&arrivals, &base_cfg);

    let report = run(&arrivals, &cfg.with_backend(BackendChoice::Tcp));
    assert!(report.expansions >= 2, "no re-expansion fired");
    assert!(report.contractions >= 1, "no contraction fired");
    let resizes: Vec<Reconfig> = report
        .events
        .iter()
        .filter_map(|e| match *e {
            ControlEvent::Begin { kind, .. } if !matches!(kind, Reconfig::Step(_)) => Some(kind),
            _ => None,
        })
        .collect();
    assert!(
        resizes.starts_with(&[Reconfig::Expand, Reconfig::Contract, Reconfig::Expand]),
        "expected expansion, contraction, re-expansion: {resizes:?}"
    );
    // The run ends contracted: two slots hold everything, each past the
    // half capacity that fired the first expansion.
    assert_eq!(resizes.last(), Some(&Reconfig::Contract), "{resizes:?}");
    let holding: Vec<u64> = report
        .machines
        .iter()
        .map(|m| m.stored_bytes)
        .filter(|&b| b > 0)
        .collect();
    assert_eq!(holding.len(), 2, "{:?}", report.machines);
    assert!(holding.iter().all(|&b| b > 80 << 10), "{holding:?}");
    assert_eq!(
        report.match_pairs, reference.match_pairs,
        "contracting tcp run diverged from the non-elastic output"
    );
    let summary = aoj_net::last_run_summary().expect("tcp run recorded a summary");
    let mid_run: Vec<_> = summary.reaped.iter().filter(|r| r.mid_run).collect();
    assert!(
        !mid_run.is_empty(),
        "contraction did not retire any worker process mid-run"
    );
    // The re-expansion lands on the slots the contraction retired — in
    // about half the runs from the very handler that retired them — so
    // some slot ran as generation 0 and as generation 1 (both exit 0,
    // below): the retire-then-reprovision ordering (every token consumed
    // before the new generation's first frame) stays exercised.
    assert!(
        summary.reaped.iter().any(|old| old.gen == 0
            && summary
                .reaped
                .iter()
                .any(|new| new.machine == old.machine && new.gen == 1)),
        "no slot was retired and re-provisioned: {:?}",
        summary.reaped
    );
    for r in &summary.reaped {
        assert_eq!(
            r.exit_code,
            Some(0),
            "worker {} (gen {}) exited abnormally",
            r.machine,
            r.gen
        );
    }
}

#[test]
fn threaded_runtime_reports_wall_clock_metrics() {
    let w = workload(Predicate::Equi, 200, 2_000, 7);
    let arrivals = interleave(&w, 7);
    let cfg = config(4, OperatorKind::Dynamic, &w).with_backend(BackendChoice::Threaded);
    let report = run(&arrivals, &cfg);
    assert!(
        report.exec_time.as_micros() > 0,
        "wall clock did not advance"
    );
    assert!(report.throughput > 0.0);
    // The shared atomic gauge array gives the threaded backend a global
    // metrics view, so the progress/ILF timelines are populated (they
    // used to be suppressed on this backend).
    assert!(
        !report.samples.is_empty(),
        "threaded backend suppressed progress timelines"
    );
    assert!(report.p99_latency_us >= report.p50_latency_us);
    assert!(report.max_latency_us >= report.p99_latency_us);
    // Processed-side check: the operator emitted exactly the join's
    // true result size (brute-forced from the workload), so nothing
    // was dropped by a premature shutdown or duplicated by a race.
    let mut s_key_counts = std::collections::HashMap::new();
    for s in &w.s_items {
        *s_key_counts.entry(s.key).or_insert(0u64) += 1;
    }
    let expected: u64 = w
        .r_items
        .iter()
        .map(|r| s_key_counts.get(&r.key).copied().unwrap_or(0))
        .sum();
    assert_eq!(
        report.matches, expected,
        "threaded run lost or duplicated matches"
    );
}

/// A workload with one genuinely hot key: ~30% of both streams land on
/// key 0, the rest spread over the quadratic-skew tail. Hot enough that
/// the sampled SpaceSaving sketch must flag it.
fn hot_key_workload(nr: usize, ns: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = |key_space: i64| StreamItem {
        key: if rng.gen_range(0..10) < 3 {
            0
        } else {
            1 + rng.gen_range(0..key_space).min(rng.gen_range(0..key_space))
        },
        aux: rng.gen_range(0..1_000i32),
        bytes: 64,
    };
    Workload {
        name: "hot-key",
        predicate: Predicate::Equi,
        r_items: (0..nr).map(|_| item(400)).collect(),
        s_items: (0..ns).map(|_| item(400)).collect(),
    }
}

fn hot_key_session(
    arrivals: &[(Rel, StreamItem)],
    w: &Workload,
    seed: u64,
    backend: BackendChoice,
) -> RunReport {
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
        .with_seed(seed)
        .with_backend(backend)
        // Same capacity target as the elastic equivalence pin: one ×4
        // expansion (J 2 → 8) fires mid-stream on every backend.
        .with_elastic(ElasticConfig::new(64 << 10, 1))
        .with_collect_matches(true);
    let mut session = JoinSession::open(builder);
    session.push_batch(arrivals.iter().copied()).unwrap();
    session.close()
}

/// A stream with one hot key stays exact across a live ×4 expansion on
/// all three backends — the join multiset is bit-identical to the fixed-size
/// simulator reference — and every backend's merged sampled sketch flags
/// the hot key.
#[test]
fn hot_key_stream_stays_exact_and_flagged_across_backends_and_expansion() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0x407_2014;
    let w = hot_key_workload(500, 5_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);

    // Reference: no elastic, simulator.
    let mut base_cfg = config(2, OperatorKind::Dynamic, &w);
    base_cfg.backend.collect_matches = true;
    base_cfg.seed = seed;
    let reference = run(&arrivals, &base_cfg);
    assert!(reference.matches > 0, "vacuous workload");

    for backend in [
        BackendChoice::Sim,
        BackendChoice::Threaded,
        BackendChoice::Tcp,
    ] {
        let report = hot_key_session(&arrivals, &w, seed, backend);
        assert!(
            report.expansions >= 1,
            "{backend:?}: no live expansion fired — the test is vacuous"
        );
        assert_eq!(
            report.match_pairs, reference.match_pairs,
            "{backend:?}: the expansion changed the join multiset"
        );
        // The sketches' 1-in-64 ticket-chosen sample must still see the
        // skew: key 0 carries ~30% of the load, far above the 5%
        // heavy-hitter threshold.
        assert!(
            report.skew.hot_keys.iter().any(|h| h.key == 0),
            "{backend:?}: merged sketch failed to flag the hot key \
             (hot: {:?}, observed {} bytes)",
            report.skew.hot_keys,
            report.skew.observed_bytes
        );
    }
}

/// R and S over the same Zipf(0.75) key space of `keys` keys, `|R|:|S|`
/// = 1:16 so that a Dynamic operator on J = 4 makes its one
/// `(2, 2) → (1, 4)` migration.
fn zipf_workload(predicate: Predicate, keys: u64, seed: u64) -> Workload {
    let mut zipf = ZipfSampler::new(keys, 0.75, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = || StreamItem {
        key: zipf.next() as i64,
        aux: rng.gen_range(0..1_000i32),
        bytes: 64,
    };
    Workload {
        name: "hot-runs",
        predicate,
        r_items: (0..300).map(|_| item()).collect(),
        s_items: (0..4_800).map(|_| item()).collect(),
    }
}

/// A live session over `arrivals` on `backend`, with one subscriber
/// whose 64-match bound is shorter than a hot bucket, so emitters wait
/// in mid-run. The session closes (which lifts every bound) only once
/// the subscriber holds all `expected` matches. Returns the report and
/// the subscriber's sorted pairs.
fn subscribed_run(
    arrivals: &[(Rel, StreamItem)],
    cfg: &SessionBuilder,
    backend: BackendChoice,
    expected: usize,
) -> (RunReport, Vec<(u64, u64)>) {
    let builder = cfg.clone().with_backend(backend).with_match_buffer(64);
    let mut session = JoinSession::open(builder);
    let mut sub = session.subscribe();
    let ingest = session.ingest();
    let producer = std::thread::spawn({
        let arrivals = arrivals.to_vec();
        move || ingest.push_batch(arrivals).unwrap()
    });
    let (all_in, got_all) = std::sync::mpsc::channel();
    let subscriber = std::thread::spawn(move || {
        let mut streamed: Vec<(u64, u64)> = sub.by_ref().take(expected).map(|m| m.pair()).collect();
        all_in.send(()).unwrap();
        streamed.extend(sub.map(|m| m.pair()));
        streamed
    });
    assert_eq!(producer.join().unwrap() as usize, arrivals.len());
    got_all
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the subscriber stalled under its bound before close");
    let report = session.close();
    let mut streamed = subscriber.join().unwrap();
    streamed.sort_unstable();
    (report, streamed)
}

/// Matches leave the join kernels a stored bucket at a time: an equi
/// stream over 8 keys promotes hash key-sides far past a chain into
/// runs, and a width-2 band stream over 50 keys fills B-tree buckets
/// with hundreds of tuples. Across the Dynamic operator's one migration
/// the simulator, the threaded runtime and the TCP processes emit the
/// same multiset with the same digest, and a subscriber on each live
/// leg receives exactly that multiset.
#[test]
fn tcp_hot_key_runs_match_sim() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    for (predicate, keys, seed) in [
        (Predicate::Equi, 8, 0x8E_2014),
        (Predicate::Band { width: 2 }, 50, 0x50_2014),
    ] {
        let w = zipf_workload(predicate, keys, seed);
        let arrivals = interleave(&w, seed ^ 0xA0A0);
        let cfg = config(4, OperatorKind::Dynamic, &w)
            .with_seed(seed)
            .with_collect_matches(true);
        let sim = run(&arrivals, &cfg.clone().with_backend(BackendChoice::Sim));
        let label = w.predicate.clone();
        assert_eq!(sim.migrations, 1, "{label:?}: one migration");
        assert!(
            sim.matches > 100 * arrivals.len() as u64 / 4,
            "{label:?}: {} matches are too few for long runs",
            sim.matches
        );
        assert_eq!(sim.match_pairs.len() as u64, sim.matches);
        for backend in [BackendChoice::Threaded, BackendChoice::Tcp] {
            let (live, streamed) = subscribed_run(&arrivals, &cfg, backend, sim.match_pairs.len());
            assert_eq!(live.migrations, 1, "{label:?} {backend:?}: one migration");
            assert_eq!(
                live.match_pairs, sim.match_pairs,
                "{label:?} {backend:?}: join multisets diverge"
            );
            assert_eq!(
                live.match_digest, sim.match_digest,
                "{label:?} {backend:?}: digests diverge"
            );
            assert_eq!(
                streamed, sim.match_pairs,
                "{label:?} {backend:?}: the subscriber's stream diverges"
            );
        }
    }
}
