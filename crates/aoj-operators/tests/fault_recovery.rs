//! Crash-recovery equivalence: a fault-injected supervised run on any
//! backend must deliver **exactly** the fault-free simulator's join
//! multiset — no lost matches (at-least-once replay from the rollback
//! base) and no duplicates (the supervisor's identity dedup).
//!
//! Each test has the [`SupervisedSession`] fire its plan's kills
//! through `inject_kill`, which kills a real worker mid-stream with the
//! backend's own primitive (simulator kill between pumps, threaded
//! worker crash, TCP worker SIGKILL); the supervisor detects and
//! recovers each crash, and the test compares the delivered `(R seq, S seq)` multiset against a
//! fault-free simulator witness of the same seeded workload.

use std::sync::{Mutex, PoisonError};

use aoj_core::fault::FaultPlan;
use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::{
    BackendChoice, ElasticConfig, JoinSession, OperatorKind, SessionBuilder, SupervisedOutcome,
    SupervisedSession,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The TCP process backend re-executes this test binary as its workers;
// this declares the re-exec entry point.
aoj_net::worker_entry!();

/// TCP runs record a process-global [`aoj_net::last_run_summary`], so
/// the tests asserting on it must not interleave their runs.
static TCP_RUNS: Mutex<()> = Mutex::new(());

fn workload(nr: usize, ns: usize, seed: u64) -> Workload {
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
        name: "faults",
        predicate: Predicate::Equi,
        r_items: (0..nr).map(|_| item(300)).collect(),
        s_items: (0..ns).map(|_| item(300)).collect(),
    }
}

fn builder(seed: u64) -> SessionBuilder {
    SessionBuilder::new(4, OperatorKind::Dynamic)
        .with_workload("faults")
        .with_seed(seed)
}

/// The fault-free simulator witness: sorted match-identity multiset.
fn witness(b: &SessionBuilder, arrivals: &[(aoj_core::tuple::Rel, StreamItem)]) -> Vec<(u64, u64)> {
    let mut b = b.clone();
    b.fault = Default::default();
    b.backend.choice = BackendChoice::Sim;
    let mut s = JoinSession::open(b);
    let mut sub = s.subscribe();
    for &(rel, item) in arrivals {
        s.push(rel, item).unwrap();
    }
    let _report = s.close();
    let mut ids: Vec<(u64, u64)> = Vec::new();
    while let Some(m) = sub.try_next() {
        ids.push((m.r_seq, m.s_seq));
    }
    ids.sort_unstable();
    ids
}

/// Run supervised with the builder's fault plan and return the sorted
/// delivered multiset plus the outcome.
fn supervised(
    b: SessionBuilder,
    arrivals: &[(aoj_core::tuple::Rel, StreamItem)],
    dir: &std::path::Path,
) -> (Vec<(u64, u64)>, SupervisedOutcome) {
    let mut s = SupervisedSession::open(b, dir);
    for &(rel, item) in arrivals {
        s.push(rel, item);
    }
    let outcome = s.close();
    let mut ids: Vec<(u64, u64)> = outcome.matches.iter().map(|m| (m.r_seq, m.s_seq)).collect();
    ids.sort_unstable();
    (ids, outcome)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("aoj-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Simulator: an injected tuple-count kill drops a machine mid-stream
/// (its in-flight deliveries vanish), the supervisor detects it on the
/// next pump, rolls back to the latest automatic checkpoint, and
/// replays. Deterministic end to end.
#[test]
fn sim_kill_recovers_to_exact_multiset() {
    let seed = 0xFA_0001;
    let w = workload(300, 3_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let b = builder(seed);
    let expect = witness(&b, &arrivals);
    assert!(!expect.is_empty(), "vacuous workload");

    let faulty = b
        .clone()
        .with_checkpoint_every(800)
        .with_fault_plan(FaultPlan::new().kill_after_tuples(1, 1_500));
    let (got, outcome) = supervised(faulty, &arrivals, &tmpdir("sim"));
    assert_eq!(outcome.stats.crashes, 1, "the injected kill never fired");
    assert!(
        outcome.stats.checkpoints >= 1,
        "no automatic checkpoint was taken before the crash"
    );
    assert!(
        outcome.stats.replayed_tuples > 0,
        "recovery replayed nothing"
    );
    assert_eq!(got, expect, "sim crash recovery lost or duplicated matches");
}

/// Simulator: a fired kill is visible through `health()` from the push
/// that fired it until the next push, which recovers it. The simulator
/// records the death at once, so every step is deterministic.
#[test]
fn sim_kill_is_visible_through_health_until_the_next_push() {
    let seed = 0xFA_0003;
    let w = workload(300, 3_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let b = builder(seed);
    let expect = witness(&b, &arrivals);

    let faulty = b.with_fault_plan(FaultPlan::new().kill_after_tuples(1, 1_500));
    let mut s = SupervisedSession::open(faulty, tmpdir("sim-health"));
    for (i, &(rel, item)) in arrivals.iter().enumerate() {
        s.push(rel, item);
        let visible = usize::from(i + 1 == 1_500);
        assert_eq!(s.health(), visible, "deaths visible after push {}", i + 1);
    }
    assert_eq!(s.stats().crashes, 1, "the injected kill never fired");
    let outcome = s.close();
    let mut got: Vec<(u64, u64)> = outcome.matches.iter().map(|m| (m.r_seq, m.s_seq)).collect();
    got.sort_unstable();
    assert_eq!(got, expect, "recovery after the observed kill diverged");
}

/// Simulator: a kill scheduled on the 2nd automatic checkpoint — the
/// crash lands immediately after a rotation, so the rollback base is
/// the checkpoint the victim died on and the replay suffix is empty at
/// injection time.
#[test]
fn sim_on_checkpoint_kill_recovers() {
    let seed = 0xFA_0002;
    let w = workload(300, 3_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let b = builder(seed);
    let expect = witness(&b, &arrivals);

    let faulty = b
        .clone()
        .with_checkpoint_every(700)
        .with_fault_plan(FaultPlan::new().kill_on_checkpoint(2, 2));
    let (got, outcome) = supervised(faulty, &arrivals, &tmpdir("sim-ckpt"));
    assert_eq!(outcome.stats.crashes, 1);
    assert!(outcome.stats.checkpoints >= 2);
    assert_eq!(got, expect, "on-checkpoint crash recovery diverged");
}

/// Threaded runtime: the armed fault vanishes a worker *thread* after a
/// processed-tuple threshold; the run wedges realistically (no
/// quiescence), the supervisor detects the typed death, aborts the
/// incarnation through the kill switch, and recovers from the rollback
/// base. Wall-clock nondeterministic — exactness must survive any
/// crash point.
#[test]
fn threaded_abort_recovers_to_exact_multiset() {
    let seed = 0xFA_0003;
    let w = workload(300, 3_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let b = builder(seed);
    let expect = witness(&b, &arrivals);

    let faulty = b
        .clone()
        .with_backend(BackendChoice::Threaded)
        .with_checkpoint_every(800)
        .with_fault_plan(FaultPlan::new().kill_after_tuples(2, 1_200));
    let (got, outcome) = supervised(faulty, &arrivals, &tmpdir("thr"));
    assert_eq!(outcome.stats.crashes, 1, "the armed abort never tripped");
    assert!(
        outcome.stats.replayed_tuples > 0,
        "recovery replayed nothing"
    );
    assert_eq!(
        got, expect,
        "threaded crash recovery lost or duplicated matches"
    );
}

/// Threaded runtime: crash landing **mid-×4-expansion** — the elastic
/// trigger fires around the same processed-tuple region as the kill, so
/// recovery must roll back across (or into) an in-flight Theorem-4.3
/// state split and still reproduce the exact multiset.
#[test]
fn threaded_crash_near_expansion_recovers() {
    let seed = 0xFA_0004;
    let w = workload(300, 3_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let b = SessionBuilder::new(2, OperatorKind::Dynamic)
        .with_workload("faults")
        .with_seed(seed)
        // 64 B payloads: joiners pass 48 KB mid-stream, one ×4 split.
        .with_elastic(ElasticConfig::new(48 << 10, 1));
    let expect = witness(&b, &arrivals);

    let faulty = b
        .clone()
        .with_backend(BackendChoice::Threaded)
        .with_checkpoint_every(700)
        .with_fault_plan(FaultPlan::new().kill_after_tuples(1, 1_100));
    let (got, outcome) = supervised(faulty, &arrivals, &tmpdir("thr-exp"));
    assert_eq!(outcome.stats.crashes, 1);
    assert_eq!(
        got, expect,
        "crash near the live expansion lost or duplicated matches"
    );
}

/// TCP process backend: a worker process is **SIGKILL'd** mid-stream.
/// The coordinator's failure detector confirms the death (connection
/// reset or heartbeat timeout), surfaces it as a typed
/// [`aoj_core::fault::WorkerDeath`], and the supervisor respawns the
/// cluster from the latest adopted checkpoint and replays — the
/// subscribed match stream still equals the fault-free simulator
/// witness exactly.
#[test]
fn tcp_sigkill_detect_respawn_exactly_once() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0xFA_0005;
    let w = workload(300, 3_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let b = builder(seed);
    let expect = witness(&b, &arrivals);

    let faulty = b
        .clone()
        .with_backend(BackendChoice::Tcp)
        .with_checkpoint_every(900)
        .with_fault_plan(FaultPlan::new().kill_after_tuples(1, 1_400));
    let (got, outcome) = supervised(faulty, &arrivals, &tmpdir("tcp"));
    assert!(
        outcome.stats.crashes >= 1,
        "the SIGKILL was never confirmed by the failure detector"
    );
    assert!(
        outcome.stats.checkpoints >= 1,
        "no checkpoint was adopted before the crash"
    );
    assert_eq!(
        got, expect,
        "tcp SIGKILL recovery lost or duplicated matches"
    );
}

/// TCP without any checkpoint: recovery must fall back to a fresh
/// cluster and a full replay from sequence 0 — the degenerate rollback
/// base — and still be exactly-once.
#[test]
fn tcp_sigkill_without_checkpoint_replays_from_scratch() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0xFA_0006;
    let w = workload(200, 2_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let b = builder(seed);
    let expect = witness(&b, &arrivals);

    let faulty = b
        .clone()
        .with_backend(BackendChoice::Tcp)
        .with_fault_plan(FaultPlan::new().kill_after_tuples(3, 900));
    let (got, outcome) = supervised(faulty, &arrivals, &tmpdir("tcp-scratch"));
    assert!(outcome.stats.crashes >= 1, "the SIGKILL never fired");
    assert_eq!(outcome.stats.checkpoints, 0);
    assert!(
        outcome.stats.replayed_tuples >= 900,
        "full replay expected with no rollback base"
    );
    assert_eq!(got, expect, "scratch replay lost or duplicated matches");
}

/// Two kills in one plan, on two machines: the supervisor fires each
/// once its accepted-tuple count crosses the threshold, so the second
/// lands on the incarnation the first recovery reopened. Both crashes
/// are recovered, and the delivered stream is still exactly the
/// fault-free witness — on the threaded and the TCP backend alike.
#[test]
fn two_kills_recover_exactly_once() {
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0xFA_0007;
    let w = workload(300, 3_000, seed);
    let arrivals = interleave(&w, seed ^ 0xA0A0);
    let b = builder(seed);
    let expect = witness(&b, &arrivals);

    for (backend, tag) in [
        (BackendChoice::Threaded, "two-thr"),
        (BackendChoice::Tcp, "two-tcp"),
    ] {
        let faulty = b
            .clone()
            .with_backend(backend)
            .with_checkpoint_every(700)
            .with_fault_plan(
                FaultPlan::new()
                    .kill_after_tuples(1, 900)
                    .kill_after_tuples(2, 2_000),
            );
        let (got, outcome) = supervised(faulty, &arrivals, &tmpdir(tag));
        assert_eq!(outcome.stats.crashes, 2, "{tag}: both kills must land");
        assert_eq!(
            got, expect,
            "{tag}: two-kill recovery lost or duplicated matches"
        );
    }
}
