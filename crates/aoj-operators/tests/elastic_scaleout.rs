//! Live elastic scale-out (§4.2.2): the running operator grows
//! `(n, m) → (2n, 2m)` at migration checkpoints, exactly.
//!
//! `backend_equivalence.rs` pins the cross-backend guarantee for a single
//! expansion; this suite drills the protocol itself: chained ×4
//! expansions (on the simulator and the TCP backend), interplay with
//! ordinary Alg. 2 migrations, event-log sanity, and the no-trigger case.

use std::sync::{Mutex, PoisonError};

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{reference_match_count, StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::reshuffler::ControlEvent;
use aoj_operators::{run, BackendChoice, ElasticConfig, OperatorKind, SessionBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The TCP process backend re-executes this test binary as its workers;
// this declares the re-exec entry point.
aoj_net::worker_entry!();

/// TCP runs spawn a worker process per machine; they take turns.
static TCP_RUNS: Mutex<()> = Mutex::new(());

/// The session configuration for `kind` on `j` joiners over `w`.
fn config(j: u32, kind: OperatorKind, w: &Workload) -> SessionBuilder {
    SessionBuilder::new(j, kind)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
}

fn workload(nr: usize, ns: usize, key_space: i64, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = |space: i64| StreamItem {
        key: rng.gen_range(0..space),
        aux: rng.gen_range(0..100i32),
        bytes: 64,
    };
    Workload {
        name: "elastic",
        predicate: Predicate::Equi,
        r_items: (0..nr).map(|_| item(key_space)).collect(),
        s_items: (0..ns).map(|_| item(key_space)).collect(),
    }
}

#[test]
fn chained_double_expansion_is_exact() {
    // J₀ = 1: the degenerate (1,1) grid grows (1,1) → (2,2) → (4,4),
    // 16 provisioned machines, two live expansions back to back.
    let _serial = TCP_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    aoj_net::install();
    let seed = 0x2E_2014;
    let w = workload(500, 3_500, 300, seed);
    let arrivals = interleave(&w, seed);
    let mut cfg = config(1, OperatorKind::Dynamic, &w);
    cfg.seed = seed;
    cfg.elasticity.elastic = Some(ElasticConfig::new(48 << 10, 2));
    for backend in [BackendChoice::Sim, BackendChoice::Tcp] {
        let report = run(&arrivals, &cfg.clone().with_backend(backend));
        assert_eq!(
            report.expansions, 2,
            "{backend:?}: both expansions must fire"
        );
        assert_eq!(report.final_mapping.j(), 16, "{backend:?}");
        assert_eq!(
            report.matches,
            reference_match_count(&w),
            "{backend:?}: chained expansions lost or duplicated matches"
        );
        // Second-generation parents include first-generation children: the
        // transfer log must cover machines beyond the initial J₀.
        assert!(
            report.expand_transfers.iter().any(|t| t.joiner > 0),
            "{backend:?}"
        );
        for t in &report.expand_transfers {
            assert!(
                t.sent_tuples <= 2 * t.stored_tuples,
                "{backend:?}: Theorem 4.3 bound"
            );
        }
    }
}

#[test]
fn expansions_interleave_with_migrations_exactly() {
    // A skewed stream (S ≫ R) drives ordinary Alg. 2 migrations; a small
    // capacity target drives an expansion. Both kinds of reconfiguration
    // must serialise through the controller and keep the output exact.
    let seed = 0x3E_2014;
    let w = workload(150, 4_500, 300, seed);
    let arrivals = interleave(&w, seed);
    let mut cfg = config(4, OperatorKind::Dynamic, &w);
    cfg.seed = seed;
    cfg.elasticity.elastic = Some(ElasticConfig::new(40 << 10, 1));
    let report = run(&arrivals, &cfg);
    assert_eq!(report.expansions, 1);
    assert!(
        report.migrations >= 1,
        "the skewed stream should also migrate (got {} migrations)",
        report.migrations
    );
    assert_eq!(report.matches, reference_match_count(&w));
    assert_eq!(report.final_mapping.j(), 16);

    // Event-log sanity: reconfigurations never overlap — every change
    // of any kind is completed before the next one starts — and the
    // expansion epoch advances past prior migrations.
    let mut in_flight = None;
    let mut last_epoch = 0;
    for e in &report.events {
        match *e {
            ControlEvent::Begin { kind, epoch, .. } => {
                assert_eq!(in_flight, None, "reconfigurations overlapped");
                assert_eq!(epoch, last_epoch + 1, "epoch must advance by one");
                last_epoch = epoch;
                in_flight = Some(kind);
            }
            ControlEvent::Complete { kind, epoch, .. } => {
                assert_eq!(in_flight, Some(kind), "completion without its decision");
                assert_eq!(epoch, last_epoch);
                in_flight = None;
            }
        }
    }
}

#[test]
fn under_capacity_run_never_expands() {
    let seed = 0x4E_2014;
    let w = workload(200, 1_800, 300, seed);
    let arrivals = interleave(&w, seed);
    let mut cfg = config(2, OperatorKind::Dynamic, &w);
    cfg.seed = seed;
    // Capacity far above what the stream can fill: the armed trigger
    // must stay quiet and the dormant machines idle.
    cfg.elasticity.elastic = Some(ElasticConfig::new(1 << 30, 1));
    let report = run(&arrivals, &cfg);
    assert_eq!(report.expansions, 0);
    assert_eq!(report.final_mapping.j(), 2);
    assert!(report.expand_transfers.is_empty());
    assert_eq!(report.matches, reference_match_count(&w));
}
