//! The `elastic` experiment: live §4.2.2 scale-out, measured.
//!
//! Two runs over the identical seeded stream, on the chosen backend:
//!
//! * **at-capacity** — Dynamic with the full `J` from tuple one (the
//!   over-provisioned baseline the paper's elasticity argument wants to
//!   avoid paying for);
//! * **grow-from-small** — Dynamic starting at `J/4` with live
//!   elasticity armed: the controller expands `(n, m) → (2n, 2m)` at a
//!   migration checkpoint once every active joiner fills past `M/2`,
//!   splitting parent state across dormant machines while tuples flow.
//!
//! Both runs must emit the identical join multiset (checked), the
//! elastic run must actually expand, and every parent must ship at most
//! twice its stored state (Theorem 4.3, checked). Results go to stdout
//! and to machine-readable `BENCH_elastic.json` for the perf trajectory.

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_datagen::zipf::ZipfSampler;
use aoj_operators::{human_bytes, run, BackendChoice, ElasticConfig, OperatorKind, RunReport};

use super::common::{banner, config, Table, SEED};

/// Zipf-skewed equi-join: hot-headed keys, fact-vs-dimension sizing.
fn zipf_equi_workload(nr: usize, ns: usize, key_space: u64, seed: u64) -> Workload {
    let mut zr = ZipfSampler::new(key_space, 0.8, seed);
    let mut zs = ZipfSampler::new(key_space, 0.8, seed ^ 0xE1A5);
    let item = |z: &mut ZipfSampler| StreamItem {
        key: z.next() as i64,
        aux: 0,
        bytes: 96,
    };
    Workload {
        name: "zipf-equi",
        predicate: Predicate::Equi,
        r_items: (0..nr).map(|_| item(&mut zr)).collect(),
        s_items: (0..ns).map(|_| item(&mut zs)).collect(),
    }
}

fn row(table: &mut Table, name: &str, r: &RunReport, j0: u32) {
    table.row(vec![
        name.to_string(),
        format!("{j0}"),
        format!("{}", r.final_mapping.j()),
        format!("({},{})", r.final_mapping.n, r.final_mapping.m),
        r.expansions.to_string(),
        r.migrations.to_string(),
        format!("{:.3}", r.exec_secs()),
        format!("{:.0}", r.throughput),
        human_bytes(r.max_ilf_bytes),
        human_bytes(r.network_bytes),
        human_bytes(r.migration_bytes),
    ]);
}

fn json_run(name: &str, j0: u32, r: &RunReport) -> String {
    format!(
        concat!(
            "{{\"name\":\"{}\",\"backend\":\"{}\",\"j_initial\":{},\"j_final\":{},",
            "\"final_mapping\":[{},{}],\"expansions\":{},\"migrations\":{},",
            "\"exec_s\":{:.6},\"throughput_tps\":{:.1},\"matches\":{},",
            "\"max_ilf_bytes\":{},\"network_bytes\":{},\"migration_bytes\":{},",
            "\"p50_latency_us\":{},\"p99_latency_us\":{}}}"
        ),
        name,
        r.backend,
        j0,
        r.final_mapping.j(),
        r.final_mapping.n,
        r.final_mapping.m,
        r.expansions,
        r.migrations,
        r.exec_secs(),
        r.throughput,
        r.matches,
        r.max_ilf_bytes,
        r.network_bytes,
        r.migration_bytes,
        r.p50_latency_us,
        r.p99_latency_us,
    )
}

/// One at-capacity + one grow-from-small run; panics if the elastic run
/// fails to expand, diverges from the baseline output, or violates the
/// Theorem 4.3 transfer bound. Returns `(at_capacity, elastic)`.
pub fn run_elastic_pair(
    backend: BackendChoice,
    j_full: u32,
    nr: usize,
    ns: usize,
) -> (RunReport, RunReport) {
    let w = zipf_equi_workload(nr, ns, 2_000, SEED);
    let arrivals = interleave(&w, SEED ^ 0xE1A5);
    let total_bytes: u64 = arrivals.iter().map(|(_, i)| i.bytes as u64).sum();
    let j0 = j_full / 4;

    // Both runs pin the per-tuple plane's 64·J flow-control window: the
    // stream (3k tuples in smoke mode) and the capacity target below are
    // sized against it. The batch-derived default (8·J·64 copies) holds a
    // third of the smoke stream in flight, so the last ingest block — the
    // last point the controller evaluates the trigger — passes before
    // the stored-byte gauges reach M/2.
    let mut at_capacity =
        config(j_full, OperatorKind::Dynamic, &w).with_window_copies(64 * j_full as u64);
    at_capacity.backend.collect_matches = true;
    at_capacity.backend.choice = backend;
    let full = run(&arrivals, &at_capacity);

    let mut grow = config(j0, OperatorKind::Dynamic, &w).with_window_copies(64 * j0 as u64);
    grow.backend.collect_matches = true;
    grow.backend.choice = backend;
    // Capacity target such that the small grid fills past M/2 roughly a
    // third of the way through the stream: per-joiner stored bytes on a
    // square grid track ~(copies/j0) ≈ total·√j0/j0.
    grow.elasticity.elastic = Some(ElasticConfig::new(total_bytes / 3, 1));
    let elastic = run(&arrivals, &grow);

    assert!(
        elastic.expansions >= 1,
        "elastic run never expanded — lower the capacity target"
    );
    assert_eq!(
        full.match_pairs, elastic.match_pairs,
        "elastic and at-capacity runs must emit the identical join multiset"
    );
    for t in &elastic.expand_transfers {
        assert!(
            t.sent_tuples <= 2 * t.stored_tuples,
            "parent {} violated Theorem 4.3: sent {} > 2x stored {}",
            t.joiner,
            t.sent_tuples,
            t.stored_tuples
        );
    }
    (full, elastic)
}

/// The `reproduce elastic [--smoke]` entry point.
pub fn run_elastic(backend: BackendChoice, smoke: bool) {
    let j_full = 16u32;
    let (nr, ns) = if smoke { (600, 2_400) } else { (3_000, 12_000) };
    let backend_label = match backend {
        BackendChoice::Sim => "sim",
        BackendChoice::Threaded => "threaded",
        BackendChoice::Tcp => "tcp",
    };
    banner(&format!(
        "elastic scale-out ({backend_label}{}): start-at-capacity J={j_full} vs grow-from-small J={} -> {j_full}",
        if smoke { ", smoke" } else { "" },
        j_full / 4,
    ));
    let (full, elastic) = run_elastic_pair(backend, j_full, nr, ns);

    let mut table = Table::new(&[
        "run",
        "J0",
        "J final",
        "mapping",
        "expansions",
        "migrations",
        "exec (s)",
        "tuples/s",
        "max ILF",
        "network",
        "relocated",
    ]);
    row(&mut table, "at-capacity", &full, j_full);
    row(&mut table, "grow-from-small", &elastic, j_full / 4);
    table.print();

    let (sent, stored): (u64, u64) = elastic
        .expand_transfers
        .iter()
        .fold((0, 0), |(a, b), t| (a + t.sent_tuples, b + t.stored_tuples));
    println!(
        "  expansion fan-out: {} parents shipped {} copies of {} stored tuples \
         ({:.2}x, Theorem 4.3 bound 2x)",
        elastic.expand_transfers.len(),
        sent,
        stored,
        sent as f64 / stored.max(1) as f64,
    );
    println!(
        "  verified: both runs emitted the identical multiset of {} join pairs",
        elastic.matches
    );

    let json = format!(
        "{{\"experiment\":\"elastic\",\"backend\":\"{}\",\"smoke\":{},\"workload\":\"{}\",\
         \"input_tuples\":{},\"theorem43_ratio\":{:.4},\"runs\":[{},{}]}}\n",
        backend_label,
        smoke,
        elastic.workload,
        elastic.input_tuples,
        sent as f64 / stored.max(1) as f64,
        json_run("at-capacity", j_full, &full),
        json_run("grow-from-small", j_full / 4, &elastic),
    );
    // Smoke runs (CI, quick local checks) write to a side file so they
    // never clobber the committed full-run baseline.
    let path = if smoke {
        "BENCH_elastic_smoke.json"
    } else {
        "BENCH_elastic.json"
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
