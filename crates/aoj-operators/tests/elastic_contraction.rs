//! Live elastic contraction: the running operator merges 4→1 at
//! low-water checkpoints, exactly — plus trigger-time provisioning.
//!
//! Pins the reverse half of §4.2.2's adaptivity story: a full sawtooth
//! (grow 1→4→16, drain 16→4→1) emits the identical join multiset as a
//! static run on both backends, retired machines end with zero stored
//! bytes, every retiree respects the 1× transfer bound (the mirror of
//! Theorem 4.3's 2× expansion bound), and a later burst re-expands into
//! the machines an earlier contraction handed back. Trigger-time
//! provisioning is pinned through the backends' provisioned-machine
//! accounting: an elastic run starts at `J₀ + 1` worker shards and only
//! ever acquires what its expansions actually use.

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{reference_match_count, StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::reshuffler::ControlEvent;
use aoj_operators::{run, BackendChoice, ElasticConfig, OperatorKind, SessionBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The session configuration for `kind` on `j` joiners over `w`. These
/// scenarios size their few-thousand-tuple streams and KB-scale capacity
/// targets against the per-tuple plane's `64·J` flow-control window, so
/// they pin it: under the batch-derived default (`8·J·64` copies) most of
/// a stream is in flight before the stored-byte gauges move, and the
/// expand → drain → re-expand schedules they assert never get to run.
fn config(j: u32, kind: OperatorKind, w: &Workload) -> SessionBuilder {
    SessionBuilder::new(j, kind)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
        .with_window_copies(64 * j as u64)
}

fn workload(nr: usize, ns: usize, key_space: i64, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut item = |space: i64| StreamItem {
        key: rng.gen_range(0..space),
        aux: rng.gen_range(0..100i32),
        bytes: 64,
    };
    Workload {
        name: "contraction",
        predicate: Predicate::Equi,
        r_items: (0..nr).map(|_| item(key_space)).collect(),
        s_items: (0..ns).map(|_| item(key_space)).collect(),
    }
}

/// The sawtooth configuration: grow 1→4→16 on a tight capacity target,
/// then — once the hold-off gate opens late in the stream — drain
/// 16→4→1 under a generous low-water mark.
fn sawtooth_config(seed: u64, w: &Workload) -> SessionBuilder {
    let mut cfg = config(1, OperatorKind::Dynamic, w);
    cfg.seed = seed;
    cfg.elasticity.elastic = Some(
        ElasticConfig::new(48 << 10, 2)
            .with_contraction(1 << 40, 2)
            .with_contract_holdoff(3_000),
    );
    cfg
}

#[test]
fn sawtooth_grow_then_drain_is_exact_and_retires_clean() {
    let seed = 0x5E_2014;
    // Balanced streams keep Alg. 2 at square mappings, so every level of
    // the sawtooth is geometrically contractible: (1,1) → (2,2) → (4,4)
    // → (2,2) → (1,1).
    let w = workload(2_000, 2_000, 300, seed);
    let arrivals = interleave(&w, seed);
    let report = run(&arrivals, &sawtooth_config(seed, &w));

    assert_eq!(report.expansions, 2, "grow phase must reach J=16");
    assert_eq!(report.contractions, 2, "drain phase must return to J=1");
    assert_eq!(report.final_mapping.j(), 1);
    assert_eq!(
        report.matches,
        reference_match_count(&w),
        "the sawtooth lost or duplicated matches"
    );

    // Retired machines hold zero stored bytes; the lone survivor —
    // machine 0, the group minimum at every merge — holds everything.
    assert!(report.machines[0].stored_bytes > 0);
    for ms in report.machines.iter().skip(1) {
        assert_eq!(
            ms.stored_bytes, 0,
            "retired machine {} still stores bytes",
            ms.machine
        );
    }

    // Every retiree respects the contraction transfer bound: at most one
    // copy per stored tuple (the diagonal retirees send none).
    assert!(!report.contract_transfers.is_empty());
    for t in &report.contract_transfers {
        assert!(
            t.sent_tuples <= t.stored_tuples,
            "retiree {} sent {} > stored {}",
            t.joiner,
            t.sent_tuples,
            t.stored_tuples
        );
    }
    let diagonal_quiet = report.contract_transfers.iter().any(|t| t.sent_tuples == 0);
    assert!(
        diagonal_quiet,
        "some retiree must be a diagonal (sends nothing)"
    );

    // Trigger-time provisioning: 1 joiner + source up front, 17 machines
    // at peak, back down to 2 after the drain.
    assert_eq!(report.peak_provisioned_machines, 17);
    assert_eq!(report.provisioned_machines, 2);

    // Event-log sanity: reconfigurations serialise and the epochs climb.
    let mut in_flight = None;
    let mut last_epoch = 0;
    for e in &report.events {
        match *e {
            ControlEvent::Begin { kind, epoch, .. } => {
                assert_eq!(in_flight, None, "reconfigurations overlapped");
                assert_eq!(epoch, last_epoch + 1);
                last_epoch = epoch;
                in_flight = Some(kind);
            }
            ControlEvent::Complete { kind, epoch, .. } => {
                assert_eq!(in_flight, Some(kind));
                assert_eq!(epoch, last_epoch);
                in_flight = None;
            }
        }
    }
    assert_eq!(in_flight, None, "a reconfiguration never completed");
}

#[test]
fn sawtooth_multiset_is_identical_across_backends() {
    // The acceptance pin: a live expand-then-contract run emits the
    // identical join multiset on the simulator and on real threads —
    // and both match a plain non-elastic run.
    let seed = 0x6E_2014;
    let w = workload(400, 2_800, 250, seed);
    let arrivals = interleave(&w, seed);

    let mut reference = config(1, OperatorKind::Dynamic, &w);
    reference.seed = seed;
    reference.backend.collect_matches = true;
    let base = run(&arrivals, &reference);

    for backend in [BackendChoice::Sim, BackendChoice::Threaded] {
        let mut cfg = config(1, OperatorKind::Dynamic, &w);
        cfg.seed = seed;
        cfg.backend.choice = backend;
        cfg.backend.collect_matches = true;
        cfg.elasticity.elastic = Some(
            ElasticConfig::new(40 << 10, 2)
                .with_contraction(1 << 40, 2)
                .with_contract_holdoff(2_000),
        );
        let report = run(&arrivals, &cfg);
        assert!(
            report.expansions >= 1,
            "{backend:?}: the elastic run never expanded"
        );
        assert!(
            report.contractions >= 1,
            "{backend:?}: the elastic run never contracted"
        );
        assert_eq!(
            base.match_pairs, report.match_pairs,
            "{backend:?}: expand-then-contract diverged from the static output"
        );
        for t in &report.contract_transfers {
            assert!(t.sent_tuples <= t.stored_tuples, "1x contraction bound");
        }
    }
}

#[test]
fn later_burst_reexpands_into_retired_machines() {
    // expand → drain → re-expand: the second expansion must reuse the
    // machines the contraction handed back (dormant pool) instead of
    // fresh slots, so the peak footprint never exceeds 4 joiners.
    let seed = 0x7E_2014;
    let w = workload(500, 3_000, 300, seed);
    let arrivals = interleave(&w, seed);
    let mut cfg = config(1, OperatorKind::Dynamic, &w);
    cfg.seed = seed;
    cfg.elasticity.elastic = Some(
        ElasticConfig::new(100 << 10, 2)
            .with_contraction(1 << 40, 1)
            .with_contract_holdoff(1_100),
    );
    let report = run(&arrivals, &cfg);

    assert_eq!(report.expansions, 2, "initial grow + post-drain re-grow");
    assert_eq!(report.contractions, 1);
    assert_eq!(report.final_mapping.j(), 4);
    assert_eq!(report.matches, reference_match_count(&w));
    // Pool reuse: 2 expansions from J=1 with a drain in between touch
    // only machines 0..4 (+ the source) — not the 16-slot bound.
    assert_eq!(
        report.peak_provisioned_machines, 5,
        "re-expansion must draw from the dormant pool, not fresh slots"
    );
    for ms in report.machines.iter() {
        let (m, bytes) = (ms.machine, ms.stored_bytes);
        assert_eq!(
            bytes > 0,
            m < 4,
            "machine {m}: exactly the re-expanded four hold state"
        );
    }
}

#[test]
fn trigger_time_provisioning_starts_small_on_both_backends() {
    // An elastic run must pay for J₀ + 1 worker shards up front and
    // acquire the rest only when the expansion actually fires.
    let seed = 0x8E_2014;
    let w = workload(300, 2_100, 250, seed);
    let arrivals = interleave(&w, seed);
    let mut cfg = config(4, OperatorKind::Dynamic, &w);
    cfg.seed = seed;
    cfg.elasticity.elastic = Some(ElasticConfig::new(64 << 10, 1));

    // Threaded: worker threads are the provisioned resource.
    let report = run(
        &arrivals,
        &cfg.clone().with_backend(BackendChoice::Threaded),
    );
    if report.expansions == 1 {
        assert_eq!(report.peak_provisioned_machines, 17);
    }

    // Simulator: same accounting, deterministic trigger.
    let report = run(&arrivals, &cfg);
    assert_eq!(report.expansions, 1, "the capacity target must be hit");
    assert_eq!(report.peak_provisioned_machines, 17);
    assert_eq!(
        report.provisioned_machines, 17,
        "no contraction armed: nothing is handed back"
    );

    // And a run that never expands never provisions past J0: only the
    // J0 + source shards (threads, on the threaded backend) spawn eagerly.
    let quiet = cfg.with_elastic(ElasticConfig::new(1 << 30, 1));
    for backend in [BackendChoice::Sim, BackendChoice::Threaded] {
        let report = run(&arrivals, &quiet.clone().with_backend(backend));
        assert_eq!(report.expansions, 0, "{backend:?}");
        assert_eq!(report.peak_provisioned_machines, 5, "{backend:?}");
    }
}

#[test]
fn migration_after_contraction_is_exact() {
    // Regression: a skew-heavy tail drives an ordinary Alg. 2 migration
    // *after* the drain phase, so the grid relabels while twelve retired
    // machines hold stale positions — this used to corrupt the routing
    // grid. The output must stay exact and the retirees empty.
    let seed = 0xAE_2014;
    let mut w = workload(1_500, 1_500, 300, seed);
    let mut arrivals = interleave(&w, seed);
    // Balanced head grows 1→4→16 and (post-hold-off) drains 16→4; the
    // all-S tail then skews the estimates until the (2,2) survivors
    // migrate.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11);
    for _ in 0..3_000 {
        let item = StreamItem {
            key: rng.gen_range(0..300),
            aux: rng.gen_range(0..100i32),
            bytes: 64,
        };
        w.s_items.push(item);
        arrivals.push((aoj_core::tuple::Rel::S, item));
    }
    let mut cfg = config(1, OperatorKind::Dynamic, &w);
    cfg.seed = seed;
    // A small ε makes Alg. 2 re-evaluate eagerly, so the tail's skew is
    // acted on well before the stream ends.
    cfg.elasticity.decision.epsilon_num = 1;
    cfg.elasticity.decision.epsilon_den = 8;
    cfg.elasticity.elastic = Some(
        ElasticConfig::new(36 << 10, 2)
            .with_contraction(1 << 40, 1)
            .with_contract_holdoff(2_200),
    );
    let report = run(&arrivals, &cfg);
    assert_eq!(report.expansions, 2);
    assert_eq!(report.contractions, 1);
    assert!(
        report.migrations >= 1,
        "the skewed tail must migrate the contracted grid"
    );
    assert_eq!(report.final_mapping.j(), 4);
    assert_eq!(report.matches, reference_match_count(&w));
    let live = report
        .machines
        .iter()
        .filter(|m| m.stored_bytes > 0)
        .count();
    assert_eq!(live, 4, "exactly the surviving grid holds state");
}

#[test]
fn contraction_interleaves_with_migrations_exactly() {
    // A skewed stream drives ordinary Alg. 2 migrations around the
    // sawtooth; every reconfiguration kind serialises through the
    // controller and the output stays exact.
    let seed = 0x9E_2014;
    let w = workload(150, 4_500, 300, seed);
    let arrivals = interleave(&w, seed);
    let mut cfg = config(4, OperatorKind::Dynamic, &w);
    cfg.seed = seed;
    cfg.elasticity.elastic = Some(
        ElasticConfig::new(40 << 10, 1)
            .with_contraction(1 << 40, 1)
            .with_contract_holdoff(3_800),
    );
    let report = run(&arrivals, &cfg);
    assert_eq!(report.expansions, 1);
    assert!(
        report.migrations >= 1,
        "the skewed stream should also migrate"
    );
    assert_eq!(report.matches, reference_match_count(&w));
    if report.contractions == 1 {
        assert_eq!(report.final_mapping.j(), 4);
    } else {
        // The post-migration mapping can be axis-degenerate ((n,1) or
        // (1,m)), where a 4→1 merge is geometrically impossible and the
        // trigger must hold off rather than fire.
        assert!(
            report.final_mapping.n == 1 || report.final_mapping.m == 1,
            "contraction skipped without an axis-degenerate mapping"
        );
    }
}
