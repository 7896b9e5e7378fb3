//! The state lifecycle subsystem's contracts:
//!
//! * a count-window session holds **bounded** steady-state storage on an
//!   unbounded-looking stream, with the evicted/occupancy gauges visible
//!   in `SessionHandle::stats()`;
//! * eviction never drops an in-window pair — pinned deterministically
//!   on a FIFO topology and property-tested over random spans and
//!   partitionings;
//! * eviction-off sessions reproduce the pre-lifecycle simulator
//!   timeline bit for bit (golden pin);
//! * a checkpoint written mid-sawtooth on **any** backend — simulator,
//!   threads, TCP worker processes — restores onto any other and the
//!   pre+post match multisets union to exactly the uninterrupted run's
//!   output — including under replay from an upstream log
//!   (exactly-once), and under a supervisor's checkpoint cadence on a
//!   windowed TCP session;
//! * the elastic 4→1 contraction arms from genuine eviction drain, with
//!   no stream-position hold-off configured.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use aoj_core::decision::DecisionConfig;
use aoj_core::ilf::optimal_ilf;
use aoj_core::lifecycle::{Checkpoint, WindowSpec, DEFAULT_SUB_WINDOWS};
use aoj_core::mapping::Mapping;
use aoj_core::predicate::Predicate;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::{
    run, BackendChoice, ElasticConfig, JoinSession, OperatorKind, SessionBuilder, SupervisedSession,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The TCP process backend re-executes this test binary as its workers;
// this declares the re-exec entry point.
aoj_net::worker_entry!();

/// TCP runs record a process-global [`aoj_net::last_run_summary`] and
/// spawn a process per machine, so the tests using them do not
/// interleave their runs.
static TCP_RUNS: Mutex<()> = Mutex::new(());

const BACKENDS: [BackendChoice; 3] = [
    BackendChoice::Sim,
    BackendChoice::Threaded,
    BackendChoice::Tcp,
];

fn workload(nr: usize, ns: usize, key_space: i64, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = |space: i64| StreamItem {
        key: rng.gen_range(0..space),
        aux: rng.gen_range(0..100i32),
        bytes: 64,
    };
    Workload {
        name: "lifecycle",
        predicate: Predicate::Equi,
        r_items: (0..nr).map(|_| item(key_space)).collect(),
        s_items: (0..ns).map(|_| item(key_space)).collect(),
    }
}

/// All key-equal `(R seq, S seq)` pairs of an arrival sequence whose
/// stream distance is below `gap`, sorted — the reference output of a
/// count-windowed equi-join.
fn in_window_pairs(arrivals: &[(aoj_core::tuple::Rel, StreamItem)], gap: u64) -> Vec<(u64, u64)> {
    use aoj_core::tuple::Rel;
    let mut pairs = Vec::new();
    for (i, (ri, a)) in arrivals.iter().enumerate() {
        for (j, (rj, b)) in arrivals.iter().enumerate().skip(i + 1) {
            if (j - i) as u64 >= gap || a.key != b.key {
                continue;
            }
            match (ri, rj) {
                (Rel::R, Rel::S) => pairs.push((i as u64, j as u64)),
                (Rel::S, Rel::R) => pairs.push((j as u64, i as u64)),
                _ => {}
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

fn ckpt_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("aoj-lifecycle-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The acceptance pin: a J=4 count-window session over a long stream
/// holds bounded steady-state stored bytes — the stored gauge plateaus
/// at the window size while the evicted gauge keeps climbing — and the
/// per-machine lifecycle gauges surface through `stats()`.
#[test]
fn count_window_bounds_steady_state_storage_j4() {
    let seed = 0x11FE_0001;
    let span = 2_000u64;
    let w = workload(6_000, 6_000, 300, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_count_window(span);
    let mut session = JoinSession::open(builder);

    // Steady state: each tuple is stored on 2 of the 4 (2,2)-grid
    // machines, so the cluster window holds ~2·span tuples · 64 B
    // ≈ 256 KB. Allow slack for sub-window granularity, straddling
    // segments and migration pauses.
    let steady_bound = 2 * span * 64 * 3;
    let mut peak_after_warmup = 0u64;
    for (n, chunk) in arrivals.chunks(1_000).enumerate() {
        session.push_batch(chunk.iter().copied()).unwrap();
        let stats = session.stats();
        if n >= 4 {
            peak_after_warmup = peak_after_warmup.max(stats.total_stored_bytes());
        }
    }
    let stats = session.stats();
    assert!(
        stats.total_evicted_bytes() > 0,
        "the window never evicted anything"
    );
    assert!(
        stats.total_window_tuples() > 0,
        "window occupancy gauge never moved"
    );
    assert!(
        peak_after_warmup <= steady_bound,
        "stored bytes kept growing: peak {peak_after_warmup} > bound {steady_bound} \
         (unwindowed total would be {})",
        arrivals.len() as u64 * 2 * 64
    );
    // The per-machine breakdown is live: every active joiner both holds
    // and has evicted state.
    let active_evictors = stats
        .machines
        .iter()
        .filter(|m| m.evicted_bytes > 0)
        .count();
    assert!(
        active_evictors >= 2,
        "only {active_evictors} machines ever evicted on a (2,2) grid"
    );
    let report = session.close();
    assert!(report.matches > 0, "vacuous windowed run");
}

/// Same lifecycle gauges on real threads: the shared atomic gauge array
/// carries evicted bytes and window occupancy to `stats()` while the
/// session runs.
#[test]
fn threaded_sessions_expose_lifecycle_gauges() {
    let seed = 0x11FE_0002;
    let w = workload(3_000, 3_000, 200, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_backend(BackendChoice::Threaded)
        .with_count_window(1_000);
    let mut session = JoinSession::open(builder);
    session.push_batch(arrivals.iter().copied()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = session.stats();
        if stats.total_evicted_bytes() > 0 && stats.total_window_tuples() > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "threaded lifecycle gauges never moved"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = session.close();
    assert!(report.matches > 0);
}

/// On a FIFO topology (J=1: one reshuffler, one joiner, per-tuple
/// batches) the window guarantee is exact: **every** pair within the
/// span is emitted, and nothing survives past the span plus one
/// sub-window of eviction lag.
#[test]
fn eviction_never_drops_an_in_window_pair_fifo() {
    let seed = 0x11FE_0003;
    let span = 600u64;
    let spec = WindowSpec::count(span).with_sub_windows(6);
    let w = workload(800, 800, 40, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(1, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_batch_tuples(1)
        .with_window(spec)
        .with_collect_matches(true);
    let mut session = JoinSession::open(builder);
    session.push_batch(arrivals.iter().copied()).unwrap();
    let report = session.close();

    let must_have = in_window_pairs(&arrivals, span);
    let got: std::collections::BTreeSet<(u64, u64)> = report.match_pairs.iter().copied().collect();
    for p in &must_have {
        assert!(
            got.contains(p),
            "in-window pair {p:?} (gap < {span}) was dropped by eviction"
        );
    }
    // Retention upper bound: eviction lag is bounded by the sub-window
    // granularity, so no match can span wildly past the window.
    let max_gap = span + 2 * spec.sub_span();
    for &(r, s) in &report.match_pairs {
        let gap = r.abs_diff(s);
        assert!(
            gap <= max_gap,
            "pair ({r},{s}) matched at gap {gap} > {max_gap}: eviction stalled"
        );
    }
    assert!(report.matches > 0, "vacuous workload");
}

/// Satellite: time windows can tick on real event time carried in the
/// tuple `aux` column. The event clock here advances ~10 ms per arrival
/// while the virtual arrival clock crosses the whole stream in a few
/// milliseconds, so the same span evicts aggressively under
/// `time_event_aux` ticks and not at all under arrival ticks — and the
/// FIFO window guarantee holds in *event* time.
#[test]
fn event_time_windows_tick_on_the_aux_column() {
    use aoj_core::tuple::Rel;
    let seed = 0x11FE_0009;
    let mut rng = StdRng::seed_from_u64(seed);
    let stride = 10_000u64; // 10 ms of event time per arrival
    let span = 300_000u64; // a 300 ms window reaches back ~30 arrivals
    let arrivals: Vec<(Rel, StreamItem)> = (0..1_200usize)
        .map(|i| {
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            let item = StreamItem {
                key: rng.gen_range(0..24i64),
                aux: (i as u64 * stride) as i32,
                bytes: 64,
            };
            (rel, item)
        })
        .collect();

    let spec = WindowSpec::time_event_aux(span).with_sub_windows(6);
    assert_eq!(spec.ticks, aoj_core::TickSource::AuxEventTime);
    let run_with = |spec: WindowSpec| {
        let builder = SessionBuilder::new(1, OperatorKind::Dynamic)
            .with_predicate(Predicate::Equi)
            .with_seed(seed)
            .with_batch_tuples(1)
            .with_window(spec)
            .with_collect_matches(true);
        let mut session = JoinSession::open(builder);
        session.push_batch(arrivals.iter().copied()).unwrap();
        let evicted = session.stats().total_evicted_bytes();
        (session.close(), evicted)
    };

    let (report, evicted) = run_with(spec);
    assert!(evicted > 0, "the event-time window never evicted");
    let got: std::collections::BTreeSet<(u64, u64)> = report.match_pairs.iter().copied().collect();
    let aux_gap = |a: u64, b: u64| a.abs_diff(b) * stride;
    let mut must_have = 0usize;
    for (i, (ri, a)) in arrivals.iter().enumerate() {
        for (j, (rj, b)) in arrivals.iter().enumerate().skip(i + 1) {
            if a.key != b.key || aux_gap(i as u64, j as u64) >= span {
                continue;
            }
            let pair = match (ri, rj) {
                (Rel::R, Rel::S) => (i as u64, j as u64),
                (Rel::S, Rel::R) => (j as u64, i as u64),
                _ => continue,
            };
            must_have += 1;
            assert!(
                got.contains(&pair),
                "in-window pair {pair:?} (event gap < {span}) was dropped"
            );
        }
    }
    assert!(must_have > 0, "vacuous event-time workload");
    // Nothing survives past the span plus the sub-window eviction lag,
    // measured on the event clock the extractor supplies.
    let max_gap = span + 2 * spec.sub_span();
    for &(r, s) in &report.match_pairs {
        let gap = aux_gap(r, s);
        assert!(
            gap <= max_gap,
            "pair ({r},{s}) matched at event gap {gap} > {max_gap}"
        );
    }

    // Control: the identical span on the *arrival* clock never evicts —
    // the whole stream arrives in well under 300 virtual milliseconds —
    // so the eviction above was demonstrably driven by the extractor.
    let (control, control_evicted) = run_with(WindowSpec::time_micros(span).with_sub_windows(6));
    assert_eq!(
        control_evicted, 0,
        "arrival-tick control evicted; the contrast is lost"
    );
    assert!(
        control.match_pairs.len() > report.match_pairs.len(),
        "the event-time window should emit strictly fewer pairs than the \
         never-evicting arrival-tick control"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The FIFO window guarantee holds for arbitrary spans and
    /// sub-window partitionings (satellite: proptest that eviction
    /// never drops an in-window pair).
    #[test]
    fn window_guarantee_holds_under_random_spans(
        seed in 0u64..1_000,
        span in 100u64..800,
        subs in 1u32..10,
        n in 200usize..500,
    ) {
        let spec = WindowSpec::count(span).with_sub_windows(subs);
        let w = workload(n, n, 30, seed);
        let arrivals = interleave(&w, seed ^ 0x51AB);
        let builder = SessionBuilder::new(1, OperatorKind::Dynamic)
            .with_predicate(w.predicate.clone())
            .with_seed(seed)
            .with_batch_tuples(1)
            .with_window(spec)
            .with_collect_matches(true);
        let mut session = JoinSession::open(builder);
        session.push_batch(arrivals.iter().copied()).unwrap();
        let report = session.close();
        let got: std::collections::BTreeSet<(u64, u64)> =
            report.match_pairs.iter().copied().collect();
        for p in in_window_pairs(&arrivals, span) {
            prop_assert!(
                got.contains(&p),
                "in-window pair {:?} dropped (span {}, subs {})", p, span, subs
            );
        }
        let max_gap = span + 2 * spec.sub_span();
        for &(r, s) in &report.match_pairs {
            prop_assert!(r.abs_diff(s) <= max_gap, "retention past the window");
        }
    }
}

/// Golden pin: a session with no window configured takes the exact
/// code path the pre-lifecycle operator did — same virtual end time,
/// same message count, same wire bytes, same matches as the golden
/// values captured before this subsystem existed (the same pins as
/// `tests/batching.rs`, reproduced here against an explicitly-default
/// lifecycle section).
#[test]
fn eviction_off_sessions_reproduce_the_golden_timeline() {
    let seed = 0x601D;
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
    let w = Workload {
        name: "golden",
        predicate: Predicate::Band { width: 2 },
        r_items: (0..300).map(|_| item(300)).collect(),
        s_items: (0..3_000).map(|_| item(300)).collect(),
    };
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let cfg = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
        .with_batch_tuples(1);
    assert!(
        cfg.lifecycle.window.is_none(),
        "the default config must not grow a window implicitly"
    );
    let r = run(&arrivals, &cfg);
    assert_eq!(r.exec_time.as_micros(), 7188, "virtual end time drifted");
    assert_eq!(r.network_messages, 10364, "message count drifted");
    assert_eq!(r.network_bytes, 568_860, "wire bytes drifted");
    assert_eq!(r.matches, 19_426);
}

/// The sawtooth session builder used by the checkpoint tests: elastic
/// grow-then-drain with match collection on.
fn sawtooth_builder(w: &Workload, seed: u64, backend: BackendChoice) -> SessionBuilder {
    SessionBuilder::new(1, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
        .with_seed(seed)
        .with_backend(backend)
        .with_elastic(
            ElasticConfig::new(48 << 10, 2)
                .with_contraction(1 << 40, 2)
                .with_contract_holdoff(3_000),
        )
        .with_collect_matches(true)
}

/// Checkpoint mid-sawtooth, restore, continue: the union of the
/// pre-checkpoint and post-restore match multisets equals the
/// uninterrupted output exactly — across backend pairings, including
/// simulator checkpoints restored onto real threads or worker processes
/// and vice versa (a TCP checkpoint is the workers' state, shipped home
/// in their finals).
#[test]
fn restore_mid_sawtooth_multiset_identity_across_backends() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0x11FE_0004;
    let w = workload(2_000, 2_000, 300, seed);
    let arrivals = interleave(&w, seed);
    let expected = in_window_pairs(&arrivals, u64::MAX);
    let cut = arrivals.len() * 3 / 5;

    for (first, second) in [
        (BackendChoice::Sim, BackendChoice::Sim),
        (BackendChoice::Sim, BackendChoice::Threaded),
        (BackendChoice::Threaded, BackendChoice::Sim),
        (BackendChoice::Tcp, BackendChoice::Sim),
        (BackendChoice::Sim, BackendChoice::Tcp),
    ] {
        let path = ckpt_path(&format!("sawtooth-{first:?}-{second:?}.ckpt"));
        let mut session = JoinSession::open(sawtooth_builder(&w, seed, first));
        session.push_batch(arrivals[..cut].iter().copied()).unwrap();
        let pre = session.checkpoint(&path).unwrap();
        assert!(
            pre.expansions >= 1,
            "{first:?}: the sawtooth never grew before the checkpoint"
        );

        let mut restored = JoinSession::restore(sawtooth_builder(&w, seed, second), &path).unwrap();
        restored
            .push_batch(arrivals[cut..].iter().copied())
            .unwrap();
        let post = restored.close();

        let mut union: Vec<(u64, u64)> = pre
            .match_pairs
            .iter()
            .chain(post.match_pairs.iter())
            .copied()
            .collect();
        union.sort_unstable();
        assert_eq!(
            union, expected,
            "{first:?}→{second:?}: checkpoint/restore lost or duplicated matches"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Exactly-once under upstream replay: the caller re-pushes the whole
/// stream from sequence 0 and the session silently skips the
/// already-processed prefix — no lost pairs, no duplicates — whichever
/// backend took the checkpoint.
#[test]
fn restore_with_replay_is_exactly_once() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0x11FE_0005;
    let w = workload(700, 700, 120, seed);
    let arrivals = interleave(&w, seed);
    let expected = in_window_pairs(&arrivals, u64::MAX);
    let cut = arrivals.len() / 2;

    let builder = || {
        SessionBuilder::new(4, OperatorKind::Dynamic)
            .with_predicate(w.predicate.clone())
            .with_seed(seed)
            .with_collect_matches(true)
    };
    for checkpointing in BACKENDS {
        let path = ckpt_path(&format!("replay-{checkpointing:?}.ckpt"));
        let mut session = JoinSession::open(builder().with_backend(checkpointing));
        session.push_batch(arrivals[..cut].iter().copied()).unwrap();
        let pre = session.checkpoint(&path).unwrap();

        let mut restored = JoinSession::restore_with_replay(builder(), &path, 0).unwrap();
        // Replay the *entire* stream; the session must drop the prefix.
        restored.push_batch(arrivals.iter().copied()).unwrap();
        let post = restored.close();

        let mut union: Vec<(u64, u64)> = pre
            .match_pairs
            .iter()
            .chain(post.match_pairs.iter())
            .copied()
            .collect();
        union.sort_unstable();
        assert_eq!(
            union, expected,
            "{checkpointing:?}: replay broke exactly-once delivery"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Restore refuses a mismatched configuration: the checkpoint
/// fingerprint (j, kind, seed) must match the re-supplied builder, and
/// replay cannot start past the cursor.
#[test]
fn restore_validates_fingerprint_and_replay_cursor() {
    let seed = 0x11FE_0006;
    let w = workload(200, 200, 50, seed);
    let arrivals = interleave(&w, seed);
    let path = ckpt_path("fingerprint.ckpt");
    let builder = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed);
    let mut session = JoinSession::open(builder.clone());
    session.push_batch(arrivals.iter().copied()).unwrap();
    let report = session.checkpoint(&path).unwrap();
    assert!(report.matches > 0);

    let expect_invalid =
        |result: std::io::Result<aoj_operators::SessionHandle>, what: &str| match result {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}"),
            Ok(_) => panic!("restore accepted {what}"),
        };
    let wrong_seed = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed ^ 1);
    expect_invalid(JoinSession::restore(wrong_seed, &path), "a mismatched seed");

    let wrong_j = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed);
    expect_invalid(JoinSession::restore(wrong_j, &path), "a mismatched J");

    expect_invalid(
        JoinSession::restore_with_replay(builder.clone(), &path, arrivals.len() as u64 + 100),
        "a replay point past the cursor",
    );

    // And a restored session continues to completion.
    let restored = JoinSession::restore(builder, &path).unwrap();
    let post = restored.close();
    assert_eq!(post.input_tuples, arrivals.len() as u64);
    std::fs::remove_file(&path).ok();
}

/// A snapshot from a differently *shaped* session is a bad file, not a
/// bug: elasticity and the machine-slot space are validated next to the
/// fingerprint and refused as `InvalidData` — never a panic out of the
/// topology builder.
#[test]
fn restore_rejects_a_snapshot_from_a_differently_shaped_session() {
    let seed = 0x11FE_0009;
    let w = workload(2_000, 2_000, 300, seed);
    let arrivals = interleave(&w, seed);
    let path = ckpt_path("shape.ckpt");
    let elastic = sawtooth_builder(&w, seed, BackendChoice::Sim);
    let mut session = JoinSession::open(elastic.clone());
    session
        .push_batch(arrivals[..arrivals.len() / 2].iter().copied())
        .unwrap();
    let pre = session.checkpoint(&path).unwrap();
    assert!(pre.expansions >= 1, "the snapshot must sit above J0");

    let mut fixed = elastic.clone();
    fixed.elasticity.elastic = None;
    let cramped = elastic.with_elastic(ElasticConfig::new(48 << 10, 0));
    for (builder, what) in [(fixed, "non-elastic"), (cramped, "too few slots")] {
        match JoinSession::restore(builder, &path) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}"),
            Ok(_) => panic!("restore accepted a {what} builder"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A fresh start *is* the restore of the initial state: a checkpoint
/// taken at cursor 0 of a freshly opened session restores to a topology
/// that runs the whole stream exactly like a fresh one — same simulator
/// timeline, same control events, same matches.
#[test]
fn restoring_a_cursor_zero_checkpoint_equals_a_fresh_start() {
    let seed = 0x11FE_000A;
    let w = workload(2_000, 2_000, 300, seed);
    let arrivals = interleave(&w, seed);
    let path = ckpt_path("cursor-zero.ckpt");
    let builder = sawtooth_builder(&w, seed, BackendChoice::Sim);

    let mut fresh = JoinSession::open(builder.clone());
    fresh.push_batch(arrivals.iter().copied()).unwrap();
    let fresh = fresh.close();
    assert!(fresh.expansions >= 1 && fresh.contractions >= 1);

    let empty = JoinSession::open(builder.clone())
        .checkpoint(&path)
        .unwrap();
    assert_eq!(empty.input_tuples, 0);
    let mut restored = JoinSession::restore(builder, &path).unwrap();
    restored.push_batch(arrivals.iter().copied()).unwrap();
    let restored = restored.close();

    assert_eq!(restored.exec_time, fresh.exec_time);
    assert_eq!(restored.network_messages, fresh.network_messages);
    assert_eq!(restored.network_bytes, fresh.network_bytes);
    assert_eq!(restored.match_pairs, fresh.match_pairs);
    assert_eq!(
        format!("{:?}", restored.events),
        format!("{:?}", fresh.events)
    );
    assert_eq!(restored.machines, fresh.machines);
    std::fs::remove_file(&path).ok();
}

/// A checkpoint is a function of the session's inputs: two simulator
/// sessions with the same builder, seed and stream write byte-identical
/// files. Joiner state is serialised in the index's own iteration order,
/// so an index that iterates in a per-process hash order (`RandomState`)
/// reshuffles the tuples in the file from run to run.
#[test]
fn same_inputs_write_byte_identical_checkpoints() {
    let seed = 0x11FE_000C;
    let w = workload(2_000, 2_000, 300, seed);
    let arrivals = interleave(&w, seed);
    let cut = arrivals.len() * 3 / 5;
    let files: Vec<Vec<u8>> = (0..2)
        .map(|run| {
            let path = ckpt_path(&format!("deterministic-{run}.ckpt"));
            let mut session = JoinSession::open(sawtooth_builder(&w, seed, BackendChoice::Sim));
            session.push_batch(arrivals[..cut].iter().copied()).unwrap();
            session.checkpoint(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        })
        .collect();
    assert!(files[0].len() > 1_000, "the checkpoint holds joiner state");
    assert!(
        files[0] == files[1],
        "two identical sessions wrote different checkpoints"
    );
}

/// A windowed checkpoint restores the window clock too: continuing the
/// stream keeps evicting, stats stay continuous (the evicted counter
/// never goes backwards across the restore), and storage stays bounded
/// — whichever backend took the checkpoint. (The live backends publish
/// their gauges asynchronously, so the base count is read off the
/// checkpointing session's final report.)
#[test]
fn windowed_restore_carries_the_eviction_counters() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0x11FE_0007;
    let span = 1_000u64;
    let w = workload(3_000, 3_000, 200, seed);
    let arrivals = interleave(&w, seed);
    let cut = arrivals.len() / 2;
    let builder = || {
        SessionBuilder::new(4, OperatorKind::Dynamic)
            .with_predicate(w.predicate.clone())
            .with_seed(seed)
            .with_count_window(span)
    };
    for checkpointing in BACKENDS {
        let path = ckpt_path(&format!("windowed-{checkpointing:?}.ckpt"));
        let mut session = JoinSession::open(builder().with_backend(checkpointing));
        session.push_batch(arrivals[..cut].iter().copied()).unwrap();
        let pre_evicted = session.checkpoint(&path).unwrap().total_evicted_bytes();
        assert!(
            pre_evicted > 0,
            "{checkpointing:?}: no eviction before the checkpoint"
        );

        let mut restored = JoinSession::restore(builder(), &path).unwrap();
        assert!(
            restored.stats().total_evicted_bytes() >= pre_evicted,
            "{checkpointing:?}: evicted gauge lost the checkpoint's base count"
        );
        restored
            .push_batch(arrivals[cut..].iter().copied())
            .unwrap();
        let stats = restored.stats();
        assert!(
            stats.total_evicted_bytes() > pre_evicted,
            "{checkpointing:?}: eviction stalled after restore"
        );
        assert!(
            stats.total_stored_bytes() <= 2 * span * 64 * 3,
            "{checkpointing:?}: restored window stopped bounding storage"
        );
        restored.close();
        std::fs::remove_file(&path).ok();
    }
}

/// A supervised **windowed** TCP session on a checkpoint cadence: every
/// rotation drains the cluster, takes the workers' state home and
/// reopens from the file, so adoption waits on nothing but the drain —
/// in particular not on a second run of the interval emitting the same
/// match set, which at a window's edge (where each run evicts at its own
/// instants) it does not. Delivery is exactly-once: no pair twice, every
/// pair well inside the window present, nothing but join pairs.
#[test]
fn supervised_windowed_tcp_session_rotates_and_closes() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0x11FE_000B;
    // Shorter than the cadence: a restore flattens the checkpointed
    // segments into one sealed sub-window, which only expires whole.
    let span = 900u64;
    let w = workload(1_500, 1_500, 40, seed);
    let arrivals = interleave(&w, seed);
    let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_predicate(w.predicate.clone())
        .with_seed(seed)
        .with_backend(BackendChoice::Tcp)
        .with_count_window(span)
        // Bounds how far one joiner's stream clock can run ahead of a
        // tuple another reshuffler still holds (see below).
        .with_window_copies(64)
        .with_batch_tuples(16)
        .with_checkpoint_every(1_000);
    let dir = std::env::temp_dir().join(format!("aoj-lifecycle-sup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut session = SupervisedSession::open(builder, &dir);
    for &(rel, item) in &arrivals {
        session.push(rel, item);
    }
    let outcome = session.close();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        outcome.stats.checkpoints >= 2,
        "only {} checkpoints adopted over {} tuples",
        outcome.stats.checkpoints,
        arrivals.len()
    );
    assert_eq!(outcome.stats.crashes, 0);
    assert!(
        outcome.report.total_evicted_bytes() > 0,
        "the window never evicted: not a windowed run"
    );

    let mut got: Vec<(u64, u64)> = outcome.matches.iter().map(|m| (m.r_seq, m.s_seq)).collect();
    got.sort_unstable();
    let delivered = got.len();
    got.dedup();
    assert_eq!(got.len(), delivered, "a pair was delivered twice");
    let all = in_window_pairs(&arrivals, u64::MAX);
    assert!(
        got.iter().all(|p| all.binary_search(p).is_ok()),
        "a delivered pair is not a join pair of the stream"
    );
    // Each joiner evicts against its own stream clock, which runs ahead
    // of tuples still in flight from another reshuffler (ROADMAP item
    // 5(ii)). Between worker processes the lead is whatever the source's
    // window lets the other three route while one is descheduled with
    // its share unrouted: 64 tuples in 16-tuple batches here, so about
    // four rounds of 64. A third of the span is inside the window by
    // twice that.
    for p in in_window_pairs(&arrivals, span / 3) {
        assert!(
            got.binary_search(&p).is_ok(),
            "in-window pair {p:?} (gap < {}) was never delivered",
            span / 3
        );
    }
}

/// Drain-driven contraction (the satellite that retires the hold-off
/// gate): with a window configured and **no** `contract_holdoff_tuples`,
/// the 4→1 merge arms from genuine eviction drain. The control run —
/// identical config, window too wide to ever evict — must never
/// contract, even though its joiners sit trivially below the low-water
/// mark from the first tuple.
#[test]
fn contraction_arms_from_genuine_drain_without_holdoff() {
    let seed = 0x11FE_0008;
    let w = workload(4_000, 4_000, 300, seed);
    let arrivals = interleave(&w, seed);
    let elastic = ElasticConfig::new(48 << 10, 1).with_contraction(1 << 40, 1);
    let session_with_span = |span: u64| {
        let builder = SessionBuilder::new(1, OperatorKind::Dynamic)
            .with_predicate(w.predicate.clone())
            .with_seed(seed)
            .with_elastic(elastic)
            .with_count_window(span);
        let mut session = JoinSession::open(builder);
        session.push_batch(arrivals.iter().copied()).unwrap();
        let evicted = session.stats().total_evicted_bytes();
        (session.close(), evicted)
    };

    // Window far wider than the stream: nothing ever drains, so the
    // trigger stays disarmed despite the huge low-water mark.
    let (control, control_evicted) = session_with_span(1 << 40);
    assert!(control.expansions >= 1, "control run never grew");
    assert_eq!(control_evicted, 0);
    assert_eq!(
        control.contractions, 0,
        "contraction fired without any drain (the hold-off gate is gone, \
         so only eviction may arm it)"
    );

    // A real window drains state once the stream passes the span; the
    // drain arms the trigger and the merge fires.
    let (drained, drained_evicted) = session_with_span(2_000);
    assert!(drained.expansions >= 1, "drained run never grew");
    assert!(drained_evicted > 0, "the window never evicted");
    assert_eq!(
        drained.contractions, 1,
        "genuine drain must arm the contraction"
    );
}

/// The §5.4 fluctuation schedule (factor 4) over `n` tuples of 64 B with
/// uniform keys: R, S, R, … phases, each four times the other side's
/// count so far. At `n = 125_000` with a 25,000-tuple window (the
/// benchmark's `fluct_window_paced` at a tenth of its size, in the same
/// proportions) the last two phases are 58,404 S tuples and a drain of
/// 46,116 R, so the window ends holding R alone while the cumulative
/// count is 1:1, and the drain is short enough (1.8 windows) that state
/// relocated by its migrations must expire on time.
fn fluctuating_arrivals(n: usize, seed: u64) -> Vec<(Rel, StreamItem)> {
    let w = workload(n / 2, n - n / 2, 2_000, seed);
    aoj_datagen::stream::fluctuating(&w, 4, seed)
}

/// `ILF*` in bytes of the last `span` arrivals: what a count window of
/// `span` holds.
fn window_optimal_ilf(arrivals: &[(Rel, StreamItem)], j: u32, span: u64) -> f64 {
    let live = &arrivals[arrivals.len().saturating_sub(span as usize)..];
    let bytes = |rel| -> u64 {
        let of_rel = live.iter().filter(|(r, _)| *r == rel);
        of_rel.map(|(_, it)| it.bytes as u64).sum()
    };
    optimal_ilf(j, bytes(Rel::R), bytes(Rel::S))
}

/// The decider runs on the live window. On a fluctuating stream whose
/// window ends holding R alone, a J = 4 session walks to `(4, 1)`, where
/// the cumulative count (1:1) keeps the square, and once the first
/// window has filled the window-aware competitive trace stays within
/// the bound `aoj_core::decision` derives against the exact window,
/// `1.25 · (1 + J/sub_windows)`. The largest joiner stores within 1.25
/// of the window's `ILF*` once the in-flight volume is bounded (64·J
/// flow-control copies, as `reproduce lifecycle`'s leg runs): with the
/// default window tuples trail the joiners' clocks by ~2,700 sequence
/// numbers here, and the lateness allowance keeps most of a second
/// 3,125-tuple sub-window (1.26).
#[test]
fn windowed_decider_follows_the_live_window_j4() {
    let (n, span) = (125_000usize, 25_000u64);
    let seed = 0x11FE_0009;
    let arrivals = fluctuating_arrivals(n, seed);
    let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_seed(seed)
        .with_backend(BackendChoice::Sim);
    let windowed = run(&arrivals, &builder.clone().with_count_window(span));
    let cumulative = run(&arrivals, &builder);
    assert_eq!(windowed.final_mapping, Mapping::new(4, 1));
    assert_eq!(cumulative.final_mapping, Mapping::new(2, 2));

    let bounded = builder.clone().with_window_copies(64 * 4);
    let bounded = run(&arrivals, &bounded.with_count_window(span));
    assert_eq!(bounded.final_mapping, Mapping::new(4, 1));
    let ratio = bounded.max_ilf_bytes as f64 / window_optimal_ilf(&arrivals, 4, span);
    assert!(
        ratio <= 1.25,
        "final ILF/ILF* of the window {ratio:.3} > 1.25"
    );
    let bound =
        DecisionConfig::default().competitive_ratio() * (1.0 + 4.0 / DEFAULT_SUB_WINDOWS as f64);
    let trace = windowed.max_competitive_ratio(span);
    assert!(
        !windowed.competitive.is_empty() && trace <= bound,
        "window-aware competitive ratio {trace:.3} > {bound}"
    );
    // A time window's population depends on arrival instants the trace
    // does not record: no trace rather than a wrong one.
    let timed = builder.with_window(WindowSpec::time_micros(1_000));
    assert!(run(&arrivals[..2_000].to_vec(), &timed)
        .competitive
        .is_empty());
}

/// A session restored mid-window seeds the decider's window model with
/// the checkpoint's population as one sealed sub-window. It retires once
/// the stream has moved a window past the cursor: from there the model
/// holds exactly what the uninterrupted run's holds (block routing gives
/// the controller the same tuples), and both end at the same mapping.
#[test]
fn restored_window_model_retires_the_checkpoint_and_converges() {
    let (n, span) = (125_000usize, 25_000u64);
    let seed = 0x11FE_000A;
    let arrivals = fluctuating_arrivals(n, seed);
    let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_seed(seed)
        .with_backend(BackendChoice::Sim)
        .with_count_window(span);
    // The live `(R, S)` units of the decider a session ends with.
    let ended_with = |session: aoj_operators::SessionHandle, name: &str| {
        let path = ckpt_path(name);
        let report = session.checkpoint(&path).unwrap();
        let d = Checkpoint::read_from(&path).unwrap().decider;
        std::fs::remove_file(&path).ok();
        (report.final_mapping, (d.r + d.dr, d.s + d.ds))
    };

    let mut whole = JoinSession::open(builder.clone());
    whole.push_batch(arrivals.iter().copied()).unwrap();
    let (whole_mapping, whole_live) = ended_with(whole, "window-model-whole.ckpt");

    // Cut 11k tuples into the R drain: the window is mixed there.
    let (head, tail) = arrivals.split_at(90_000);
    let mut first = JoinSession::open(builder.clone());
    first.push_batch(head.iter().copied()).unwrap();
    let path = ckpt_path("window-model-cut.ckpt");
    first.checkpoint(&path).unwrap();
    let at_cut = Checkpoint::read_from(&path).unwrap().decider;
    // A few thousand R tuples on, the restored S is still modelled.
    let mut early = JoinSession::restore(builder.clone(), &path).unwrap();
    early.push_batch(tail[..4_000].iter().copied()).unwrap();
    let (_, early_live) = ended_with(early, "window-model-early.ckpt");
    let mut restored = JoinSession::restore(builder, &path).unwrap();
    std::fs::remove_file(&path).ok();
    restored.push_batch(tail.iter().copied()).unwrap();
    let (restored_mapping, restored_live) = ended_with(restored, "window-model-restored.ckpt");

    assert!(
        at_cut.s + at_cut.ds > 0,
        "the cut must hold S for the model to retire"
    );
    assert_eq!(
        early_live.1,
        at_cut.s + at_cut.ds,
        "the restored S left early"
    );
    assert_eq!(
        restored_live, whole_live,
        "the restored sub-window never retired"
    );
    assert_eq!(restored_live.1, 0, "the window ends holding R alone");
    assert_eq!(restored_mapping, whole_mapping);
    assert_eq!(whole_mapping, Mapping::new(4, 1));
}

/// Small sub-windows on a J = 4 grid. A joiner's clock runs up to
/// ~2,500 sequence numbers ahead of tuples still in flight from other
/// reshufflers (a 64-tuple batch for one row of a `(4, 1)` grid covers
/// a thousand sequence numbers), more than the one 1,125-tuple
/// sub-window of margin and less than two. The lateness allowance
/// covers the second, so the simulator emits every pair closer than
/// `span − span/sub_windows` through the migrations of a fluctuating
/// stream.
#[test]
fn small_sub_windows_keep_every_pair_inside_the_margin_j4() {
    let (n, span) = (62_500usize, 9_000u64);
    let seed = 0x11FE_000B;
    let arrivals = fluctuating_arrivals(n, seed);
    let gap = span - WindowSpec::count(span).sub_span();
    // Key-equal `(R seq, S seq)` pairs closer than `gap`.
    let mut by_key: std::collections::HashMap<i64, Vec<(u64, Rel)>> = Default::default();
    for (i, (rel, it)) in arrivals.iter().enumerate() {
        by_key.entry(it.key).or_default().push((i as u64, *rel));
    }
    let mut expected = std::collections::BTreeSet::new();
    for seqs in by_key.values() {
        for (k, &(a, ra)) in seqs.iter().enumerate() {
            for &(b, rb) in seqs[k + 1..].iter().take_while(|(b, _)| b - a < gap) {
                match (ra, rb) {
                    (Rel::R, Rel::S) => expected.insert((a, b)),
                    (Rel::S, Rel::R) => expected.insert((b, a)),
                    _ => false,
                };
            }
        }
    }
    let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_seed(seed)
        .with_backend(BackendChoice::Sim)
        .with_collect_matches(true)
        .with_count_window(span);
    let report = run(&arrivals, &builder);
    assert!(report.migrations > 0, "the stream must migrate");
    let got: std::collections::BTreeSet<(u64, u64)> = report.match_pairs.into_iter().collect();
    let missing = expected.difference(&got).count();
    assert_eq!(
        missing,
        0,
        "{missing} of {} pairs closer than {gap} were dropped",
        expected.len()
    );
}
