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
use std::time::{Duration, Instant};

use aoj_core::predicate::Predicate;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::{
    run, BackendChoice, ElasticConfig, JoinSession, OperatorKind, RunReport, SessionBuilder,
    SessionHandle, SessionStats,
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

/// The elastic scenarios size their ~4.4k-tuple streams and KB-scale
/// capacity targets against the per-tuple plane's `64·J` flow-control
/// window (J₀ = 2) and pin it: under the batch-derived default
/// (`8·J·64` copies) a quarter of the stream is in flight before the
/// stored-byte gauges — periodic frames on TCP — can report the fill, and
/// the mid-stream expansion they assert may never fire.
const ELASTIC_WINDOW: u64 = 64 * 2;

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
/// per-parent `transmitted ≤ 2 × stored` bound. The threaded expansion
/// fires at a wall-clock-dependent instant — exactness must survive any
/// interleaving of the split with live traffic.
#[test]
fn elastic_dynamic_expands_live_and_stays_exact_across_backends() {
    let seed = 0xE1A_2014;
    let w = workload(Predicate::Equi, 400, 4_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let mut cfg = config(2, OperatorKind::Dynamic, &w).with_window_copies(ELASTIC_WINDOW);
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

/// Runs an elastic session on the TCP backend, pushing `arrivals` in two
/// parts so the expansion trigger can see the fill.
///
/// Stored-byte gauges reach the controller only through the workers'
/// periodic gauge frames, and a few-thousand-tuple stream drains in
/// about one relay period. So this pushes three fifths of the stream,
/// waits until the coordinator sees both initial joiners past the
/// trigger's `capacity/2`, lets a few more frames land, and only then
/// pushes the rest: the trigger is evaluated as that ingest reaches the
/// controller.
fn run_tcp_elastic(cfg: SessionBuilder, arrivals: &[(Rel, StreamItem)]) -> RunReport {
    let (mut session, tail) = open_and_fill(cfg, arrivals);
    session.push_batch(tail.iter().copied()).unwrap();
    session.close()
}

/// Opens `cfg` on the TCP backend, pushes three fifths of `arrivals` and
/// waits until the expansion trigger can see both initial joiners past
/// `capacity/2` (see [`run_tcp_elastic`]). Returns the session and the
/// arrivals not pushed yet.
fn open_and_fill(
    cfg: SessionBuilder,
    arrivals: &[(Rel, StreamItem)],
) -> (SessionHandle, &[(Rel, StreamItem)]) {
    let half = cfg
        .elasticity
        .elastic
        .expect("an elastic run")
        .capacity_bytes
        / 2;
    let mut session = JoinSession::open(cfg.with_backend(BackendChoice::Tcp));
    let (head, tail) = arrivals.split_at(arrivals.len() * 3 / 5);
    session.push_batch(head.iter().copied()).unwrap();
    wait_for_gauges(&session, "both initial joiners past capacity/2", |s| {
        s.machines[..2].iter().all(|m| m.stored_bytes > half)
    });
    (session, tail)
}

/// Polls the coordinator's gauge view until `reached` holds (failing
/// with `what` after five seconds), then lets a few more gauge frames
/// reach the controller.
fn wait_for_gauges(session: &SessionHandle, what: &str, reached: impl Fn(&SessionStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = session.stats();
        if reached(&stats) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the gauges never showed {what}: {:?}",
            stats.machines
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
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
    let mut cfg = config(2, OperatorKind::Dynamic, &w).with_window_copies(ELASTIC_WINDOW);
    cfg.backend.collect_matches = true;
    cfg.seed = seed;
    cfg.elasticity.elastic = Some(ElasticConfig::new(64 << 10, 1));

    let mut base_cfg = cfg.clone();
    base_cfg.elasticity.elastic = None;
    let reference = run(&arrivals, &base_cfg);
    assert!(reference.matches > 0, "vacuous workload");

    let report = run_tcp_elastic(cfg, &arrivals);
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
    let mut cfg = config(2, OperatorKind::Dynamic, &w).with_window_copies(ELASTIC_WINDOW);
    cfg.backend.collect_matches = true;
    cfg.seed = seed;
    // Expand at 72 KB a joiner — three fifths of the stream fill J₀ = 2
    // past that (~90 KB each), four fifths leave every one of the eight
    // children below it (~60 KB) — so a permissive contraction
    // threshold with a short holdoff pulls the cluster back 4→1 before
    // any second expansion could fire; the rest of the stream, pushed
    // once the contraction is visible, re-expands onto the retired slots
    // and contracts again.
    cfg.elasticity.elastic = Some(
        ElasticConfig::new(144 << 10, 2)
            .with_contraction(1 << 40, 2)
            .with_contract_holdoff(2_000),
    );

    let mut base_cfg = cfg.clone();
    base_cfg.elasticity.elastic = None;
    let reference = run(&arrivals, &base_cfg);

    let (mut session, rest) = open_and_fill(cfg, &arrivals);
    let filled = session.stats().max_stored_bytes();
    let (middle, tail) = rest.split_at(arrivals.len() / 5);
    session.push_batch(middle.iter().copied()).unwrap();
    // Expanded and contracted again: two slots hold everything, each
    // well past what the first three fifths filled a joiner to.
    wait_for_gauges(&session, "the contraction back to two joiners", |s| {
        let holding: Vec<u64> = s
            .machines
            .iter()
            .map(|m| m.stored_bytes)
            .filter(|&b| b > 0)
            .collect();
        holding.len() == 2 && holding.iter().all(|&b| b > filled + filled * 3 / 20)
    });
    session.push_batch(tail.iter().copied()).unwrap();
    let report = session.close();
    assert!(report.expansions >= 2, "no re-expansion fired");
    assert!(report.contractions >= 1, "no contraction fired");
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
/// the SpaceSaving sketch must flag it and `KeyedHotSplit` must actually
/// replicate it across the grid.
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

fn hot_split_session(
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
        .with_routing(aoj_core::RoutingMode::KeyedHotSplit)
        // Same capacity target as the elastic equivalence pin: one ×4
        // expansion (J 2 → 8) fires mid-stream on every backend.
        .with_elastic(ElasticConfig::new(64 << 10, 1))
        .with_window_copies(ELASTIC_WINDOW)
        .with_collect_matches(true);
    let mut session = JoinSession::open(builder);
    session.push_batch(arrivals.iter().copied()).unwrap();
    session.close()
}

/// The tentpole exactness pin: hot-key replication (`KeyedHotSplit`
/// routing — hot build tuples spread across joiner rows, hot probe
/// tuples round-robined across columns) changes only *placement*, never
/// the output. Across a live ×4 expansion, on all three backends, the
/// join multiset is bit-identical to the skew-blind simulator reference.
#[test]
fn hot_key_replication_stays_exact_across_backends_and_expansion() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0x407_2014;
    let w = hot_key_workload(500, 5_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);

    // Reference: default Random routing, no elastic, simulator.
    let mut base_cfg = config(2, OperatorKind::Dynamic, &w);
    base_cfg.backend.collect_matches = true;
    base_cfg.seed = seed;
    let reference = run(&arrivals, &base_cfg);
    assert!(reference.matches > 0, "vacuous workload");
    // Random routing feeds its sketches a 1-in-64 ticket-chosen sample,
    // which still finds a key carrying ~30% of the stream.
    assert!(
        reference.skew.hot_keys.iter().any(|h| h.key == 0),
        "the sampled sketch missed the hot key (hot: {:?}, observed {} bytes)",
        reference.skew.hot_keys,
        reference.skew.observed_bytes
    );

    for backend in [
        BackendChoice::Sim,
        BackendChoice::Threaded,
        BackendChoice::Tcp,
    ] {
        let report = hot_split_session(&arrivals, &w, seed, backend);
        assert!(
            report.expansions >= 1,
            "{backend:?}: no live expansion fired — the test is vacuous"
        );
        assert_eq!(
            report.match_pairs, reference.match_pairs,
            "{backend:?}: hot-key split routing changed the join multiset"
        );
        // The sketches must actually have seen the skew: key 0 carries
        // ~30% of the load, far above the 5% heavy-hitter threshold.
        assert!(
            report.skew.hot_keys.iter().any(|h| h.key == 0),
            "{backend:?}: merged sketch failed to flag the hot key \
             (hot: {:?}, observed {} bytes)",
            report.skew.hot_keys,
            report.skew.observed_bytes
        );
    }
}
