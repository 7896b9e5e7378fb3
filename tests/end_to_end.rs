//! Workspace-level integration tests: the full stack (datagen → operators
//! → simnet) on the paper's actual workloads, checking cross-crate
//! agreement and the headline claims at reduced scale.

use adaptive_online_joins::core::ilf::optimal_mapping;
use adaptive_online_joins::core::Predicate;
use adaptive_online_joins::datagen::queries::{self, reference_match_count, Workload};
use adaptive_online_joins::datagen::stream::{fluctuating, interleave};
use adaptive_online_joins::datagen::tpch::{ScaledGb, TpchDb};
use adaptive_online_joins::datagen::zipf::Skew;
use adaptive_online_joins::operators::{run, OperatorKind, SessionBuilder, SourcePacing};

/// The session configuration for `kind` on `j` joiners over `w`.
fn config(j: u32, kind: OperatorKind, w: &Workload) -> SessionBuilder {
    SessionBuilder::new(j, kind)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
}

fn small_db(skew: Skew) -> TpchDb {
    TpchDb::generate(
        ScaledGb {
            gb: 1,
            reduction: 1000,
        },
        skew,
        11,
    )
}

#[test]
fn eq5_output_is_exact_for_all_operators() {
    let db = small_db(Skew::Z2);
    let w = queries::eq5(&db);
    let expected = reference_match_count(&w);
    let arrivals = interleave(&w, 5);
    for kind in [
        OperatorKind::Dynamic,
        OperatorKind::StaticMid,
        OperatorKind::StaticOpt,
        OperatorKind::Shj,
    ] {
        let report = run(&arrivals, &config(8, kind, &w));
        assert_eq!(report.matches, expected, "{kind:?} on EQ5");
    }
}

#[test]
fn band_join_bci_is_exact_under_adaptivity() {
    let db = small_db(Skew::Z0);
    let w = queries::bci(&db);
    let expected = reference_match_count(&w);
    let arrivals = interleave(&w, 6);
    let report = run(&arrivals, &config(16, OperatorKind::Dynamic, &w));
    assert_eq!(report.matches, expected);
    assert!(report.migrations > 0, "BCI's lopsided streams should adapt");
}

#[test]
fn bnci_is_exact() {
    let db = small_db(Skew::Z0);
    let w = queries::bnci(&db);
    let expected = reference_match_count(&w);
    let arrivals = interleave(&w, 8);
    let report = run(&arrivals, &config(8, OperatorKind::Dynamic, &w));
    assert_eq!(report.matches, expected);
}

#[test]
fn fluct_join_is_exact_across_fluctuation_factors() {
    let db = small_db(Skew::Z0);
    let w = queries::fluct_join(&db);
    let expected = reference_match_count(&w);
    for k in [2u64, 8] {
        let arrivals = fluctuating(&w, k, 3);
        let report = run(&arrivals, &config(16, OperatorKind::Dynamic, &w));
        assert_eq!(report.matches, expected, "k={k}");
        assert!(report.migrations >= 2, "k={k} should migrate repeatedly");
    }
}

#[test]
fn dynamic_converges_to_the_oracle_mapping_on_real_workloads() {
    let db = small_db(Skew::Z0);
    let w = queries::eq7(&db);
    let arrivals = interleave(&w, 2);
    let (r_bytes, s_bytes) = {
        let mut r = 0u64;
        let mut s = 0u64;
        for (rel, item) in &arrivals {
            match rel {
                adaptive_online_joins::core::Rel::R => r += item.bytes as u64,
                adaptive_online_joins::core::Rel::S => s += item.bytes as u64,
            }
        }
        (r, s)
    };
    let oracle = optimal_mapping(16, r_bytes, s_bytes);
    let report = run(&arrivals, &config(16, OperatorKind::Dynamic, &w));
    assert_eq!(
        report.final_mapping, oracle,
        "Dynamic must land on the oracle mapping"
    );
}

#[test]
fn skew_does_not_degrade_dynamic_but_degrades_shj() {
    // Table 2's mechanism: per-machine peak storage at the paper's
    // 10 GB / 16-machine configuration. Needs the full-size key domain —
    // at tiny scale, key granularity hides the Zipf effect.
    let uniform = TpchDb::generate(ScaledGb::new(10), Skew::Z0, 11);
    let skewed = TpchDb::generate(ScaledGb::new(10), Skew::Z4, 11);
    let j = 16;
    let run_max_ilf = |db: &TpchDb, kind| {
        let w = queries::eq5(db);
        let arrivals = interleave(&w, 4);
        let cfg = config(j, kind, &w); // unbounded RAM: compare imbalance
        run(&arrivals, &cfg).max_ilf_bytes as f64
    };
    let shj_skew_blowup =
        run_max_ilf(&skewed, OperatorKind::Shj) / run_max_ilf(&uniform, OperatorKind::Shj);
    let dyn_skew_blowup =
        run_max_ilf(&skewed, OperatorKind::Dynamic) / run_max_ilf(&uniform, OperatorKind::Dynamic);
    assert!(
        shj_skew_blowup > 1.7,
        "SHJ's hottest machine should blow up under Z4 (got {shj_skew_blowup:.2}x)"
    );
    assert!(
        dyn_skew_blowup < 1.3,
        "Dynamic must be skew-insensitive (got {dyn_skew_blowup:.2}x)"
    );
}

#[test]
fn theta_closure_predicates_run_through_the_full_stack() {
    use adaptive_online_joins::core::Tuple;
    use std::sync::Arc;
    let db = small_db(Skew::Z1);
    let mut w = queries::eq5(&db);
    // Same key and even quantity: exercises the nested-loop path.
    w.predicate = Predicate::Theta(Arc::new(|r: &Tuple, s: &Tuple| {
        r.key == s.key && s.aux % 2 == 0
    }));
    let expected = reference_match_count(&w);
    let arrivals = interleave(&w, 13);
    let report = run(&arrivals, &config(4, OperatorKind::Dynamic, &w));
    assert_eq!(report.matches, expected);
}

#[test]
fn paced_latency_is_far_below_saturated_latency() {
    let db = small_db(Skew::Z0);
    let w = queries::eq7(&db);
    let arrivals = interleave(&w, 1);
    let mut sat_cfg = config(8, OperatorKind::Dynamic, &w);
    sat_cfg.source.window_copies = Some(0); // no backpressure: queues build up
    let saturated = run(&arrivals, &sat_cfg);
    let mut paced_cfg = config(8, OperatorKind::Dynamic, &w);
    paced_cfg.source.pacing = SourcePacing::per_second((saturated.throughput * 0.5) as u64);
    let paced = run(&arrivals, &paced_cfg);
    assert!(
        paced.avg_latency_us < saturated.avg_latency_us,
        "pacing must reduce queueing latency ({} vs {})",
        paced.avg_latency_us,
        saturated.avg_latency_us
    );
}
