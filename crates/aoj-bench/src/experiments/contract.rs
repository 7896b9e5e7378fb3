//! The `contract` experiment: the full elastic sawtooth, measured.
//!
//! Two runs over the identical seeded stream, on the chosen backend:
//!
//! * **static** — Dynamic pinned at `J₀ = 1` for the whole stream (the
//!   exactness reference);
//! * **sawtooth** — Dynamic starting at `J₀ = 1` with both elastic
//!   directions armed: the grow phase expands `1 → 4 → 16` on a tight
//!   capacity target with machines provisioned at trigger time, then —
//!   once the drain gate opens late in the stream — the low-water mark
//!   merges `16 → 4 → 1`, retiring machines back into the dormant pool.
//!
//! Both runs must emit the identical join multiset (checked), the
//! sawtooth must actually contract, retired machines must end with zero
//! stored bytes, and every retiree must ship at most 1× its stored
//! state (the mirror of Theorem 4.3's 2× expansion bound — checked).
//! Results go to stdout and to machine-readable
//! `BENCH_contract[_smoke].json`.

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_datagen::zipf::ZipfSampler;
use aoj_operators::{human_bytes, run, BackendChoice, ElasticConfig, OperatorKind, RunReport};

use super::common::{banner, config, Table, SEED};

/// Balanced Zipf-skewed equi-join: equal stream sizes keep Alg. 2 at
/// square mappings, so every sawtooth level is geometrically
/// contractible ((4,4) → (2,2) → (1,1)).
fn balanced_zipf_workload(n_each: usize, key_space: u64, seed: u64) -> Workload {
    let mut zr = ZipfSampler::new(key_space, 0.8, seed);
    let mut zs = ZipfSampler::new(key_space, 0.8, seed ^ 0xC0_17AC);
    let item = |z: &mut ZipfSampler| StreamItem {
        key: z.next() as i64,
        aux: 0,
        bytes: 96,
    };
    Workload {
        name: "zipf-balanced",
        predicate: Predicate::Equi,
        r_items: (0..n_each).map(|_| item(&mut zr)).collect(),
        s_items: (0..n_each).map(|_| item(&mut zs)).collect(),
    }
}

fn row(table: &mut Table, name: &str, r: &RunReport) {
    table.row(vec![
        name.to_string(),
        format!("{}", r.j),
        format!("{}", r.final_mapping.j()),
        r.expansions.to_string(),
        r.contractions.to_string(),
        r.peak_provisioned_machines.to_string(),
        r.provisioned_machines.to_string(),
        format!("{:.3}", r.exec_secs()),
        format!("{:.0}", r.throughput),
        human_bytes(r.max_ilf_bytes),
        human_bytes(r.migration_bytes),
    ]);
}

fn json_run(name: &str, r: &RunReport) -> String {
    format!(
        concat!(
            "{{\"name\":\"{}\",\"backend\":\"{}\",\"j_initial\":{},\"j_final\":{},",
            "\"expansions\":{},\"contractions\":{},\"peak_machines\":{},",
            "\"final_machines\":{},\"exec_s\":{:.6},\"throughput_tps\":{:.1},",
            "\"matches\":{},\"max_ilf_bytes\":{},\"network_bytes\":{},",
            "\"migration_bytes\":{},\"p50_latency_us\":{},\"p99_latency_us\":{}}}"
        ),
        name,
        r.backend,
        r.j,
        r.final_mapping.j(),
        r.expansions,
        r.contractions,
        r.peak_provisioned_machines,
        r.provisioned_machines,
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

/// One static + one sawtooth run; panics if the sawtooth fails to
/// expand or contract, diverges from the static output, violates the 1×
/// contraction transfer bound, or leaves state on a retired machine.
/// Returns `(static, sawtooth)`.
pub fn run_contract_pair(backend: BackendChoice, n_each: usize) -> (RunReport, RunReport) {
    let w = balanced_zipf_workload(n_each, 2_000, SEED);
    let arrivals = interleave(&w, SEED ^ 0xC0_17AC);
    let total_bytes: u64 = arrivals.iter().map(|(_, i)| i.bytes as u64).sum();

    let mut fixed = config(1, OperatorKind::Dynamic, &w);
    fixed.backend.collect_matches = true;
    fixed.backend.choice = backend;
    let static_run = run(&arrivals, &fixed);

    let mut saw = config(1, OperatorKind::Dynamic, &w);
    saw.backend.collect_matches = true;
    saw.backend.choice = backend;
    // Grow phase: a capacity target the stream fills early and again
    // after the first split, so both expansions land in the front half.
    // Drain phase: the hold-off gate opens at 60% of the stream (the
    // controller samples 1/J of the ingest, so the gate must sit below
    // its last observed sequence), and the generous low-water mark then
    // merges everything back.
    saw.elasticity.elastic = Some(
        ElasticConfig::new(total_bytes / 6, 2)
            .with_contraction(u64::MAX / 2, 2)
            .with_contract_holdoff(3 * arrivals.len() as u64 / 5),
    );
    let sawtooth = run(&arrivals, &saw);

    assert!(
        sawtooth.expansions >= 1,
        "sawtooth never expanded — lower the capacity target"
    );
    assert!(
        sawtooth.contractions >= 1,
        "sawtooth never contracted — the hold-off gate never opened"
    );
    assert_eq!(
        static_run.match_pairs, sawtooth.match_pairs,
        "sawtooth and static runs must emit the identical join multiset"
    );
    for t in &sawtooth.contract_transfers {
        assert!(
            t.sent_tuples <= t.stored_tuples,
            "retiree {} violated the 1x contraction bound: sent {} > stored {}",
            t.joiner,
            t.sent_tuples,
            t.stored_tuples
        );
    }
    // Every machine outside the final active set must be empty.
    let final_j = sawtooth.final_mapping.j() as usize;
    let live: u64 = sawtooth
        .machines
        .iter()
        .filter(|m| m.stored_bytes > 0)
        .count() as u64;
    assert!(
        live <= final_j as u64,
        "{live} machines hold state but only {final_j} are active — \
         a retired machine kept stored bytes"
    );
    (static_run, sawtooth)
}

/// The `reproduce contract [--smoke]` entry point.
pub fn run_contract(backend: BackendChoice, smoke: bool) {
    let n_each = if smoke { 1_500 } else { 4_000 };
    let backend_label = match backend {
        BackendChoice::Sim => "sim",
        BackendChoice::Threaded => "threaded",
        BackendChoice::Tcp => "tcp",
    };
    banner(&format!(
        "elastic contraction ({backend_label}{}): sawtooth J=1 -> 16 -> 1 vs static J=1",
        if smoke { ", smoke" } else { "" },
    ));
    let (static_run, sawtooth) = run_contract_pair(backend, n_each);

    let mut table = Table::new(&[
        "run",
        "J0",
        "J final",
        "expansions",
        "contractions",
        "peak mach",
        "final mach",
        "exec (s)",
        "tuples/s",
        "max ILF",
        "relocated",
    ]);
    row(&mut table, "static", &static_run);
    row(&mut table, "sawtooth", &sawtooth);
    table.print();

    let (sent, stored): (u64, u64) = sawtooth
        .contract_transfers
        .iter()
        .fold((0, 0), |(a, b), t| (a + t.sent_tuples, b + t.stored_tuples));
    println!(
        "  contraction fan-in: {} retirees shipped {} copies of {} stored tuples \
         ({:.2}x, bound 1x; expansion's Theorem 4.3 bound is 2x)",
        sawtooth.contract_transfers.len(),
        sent,
        stored,
        sent as f64 / stored.max(1) as f64,
    );
    println!(
        "  trigger-time provisioning: {} machine slots registered, {} provisioned at peak, \
         {} at quiescence",
        16 + 1,
        sawtooth.peak_provisioned_machines,
        sawtooth.provisioned_machines,
    );
    println!(
        "  verified: both runs emitted the identical multiset of {} join pairs",
        sawtooth.matches
    );

    let json = format!(
        "{{\"experiment\":\"contract\",\"backend\":\"{}\",\"smoke\":{},\"workload\":\"{}\",\
         \"input_tuples\":{},\"contract_ratio\":{:.4},\"runs\":[{},{}]}}\n",
        backend_label,
        smoke,
        sawtooth.workload,
        sawtooth.input_tuples,
        sent as f64 / stored.max(1) as f64,
        json_run("static", &static_run),
        json_run("sawtooth", &sawtooth),
    );
    // Smoke runs (CI) write to a side file so they never clobber the
    // committed baseline.
    let path = if smoke {
        "BENCH_contract_smoke.json"
    } else {
        "BENCH_contract.json"
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
