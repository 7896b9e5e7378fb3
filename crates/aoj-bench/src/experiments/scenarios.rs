//! The **verified scenarios**: six end-to-end runs of what the repo adds
//! to the paper's operator — batching, elasticity in both directions,
//! windows and checkpoints, skew observability, crash recovery.
//!
//! Every scenario pushes seeded Zipf streams (one; `lifecycle` two)
//! through the simulator and each live backend named in its banner, and
//! **panics on a violated invariant**: the join multiset must equal the
//! simulator witness's on every backend, and the subsystem's own bound
//! (Theorem 4.3's 2× transfer, the contraction's 1×, bounded windowed
//! storage, a windowed decider within 1.25 of the window's optimum,
//! exactly-once delivery across a kill, …) must hold. What a
//! scenario prints is hardware-independent — counts, bytes, ratios,
//! imbalance, the simulator's virtual time — and it writes no file.
//! Speed is not measured here: `bash benchmark/run.sh` is the repo's
//! one benchmark (see `benchmark/README.md`).

use aoj_core::fault::FaultPlan;
use aoj_core::ilf::{ilf, optimal_ilf};
use aoj_core::predicate::Predicate;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::{fluctuating, interleave, Arrivals};
use aoj_datagen::zipf::ZipfSampler;
use aoj_operators::driver::stream_bytes;
use aoj_operators::reshuffler::ControlEvent;
use aoj_operators::BackendChoice::{Sim, Tcp, Threaded};
use aoj_operators::{
    human_bytes, run, BackendChoice, ElasticConfig, JoinSession, MachineStats, OperatorKind,
    RecoveryStats, RunReport, SessionBuilder, SupervisedOutcome, SupervisedSession,
};

use super::common::{arrivals_of, banner, config, Table, SEED};

/// `n` tuples of `bytes` bytes with Zipf(`z`) keys out of `keys`: every
/// scenario's input is two such streams, interleaved.
fn zipf_items(n: usize, keys: u64, z: f64, bytes: u32, seed: u64) -> Vec<StreamItem> {
    let mut sampler = ZipfSampler::new(keys, z, seed);
    let item = |_| StreamItem {
        key: sampler.next() as i64,
        aux: 0,
        bytes,
    };
    (0..n).map(item).collect()
}

/// The band-join input of `batching` and `skew`: `|r.key − s.key| ≤ 2`
/// over a hot key head.
fn band_stream(name: &'static str, z: f64, nr: usize, ns: usize) -> (Workload, Arrivals) {
    let w = Workload {
        name,
        predicate: Predicate::Band { width: 2 },
        r_items: zipf_items(nr, 1_000, z, 96, SEED),
        s_items: zipf_items(ns, 1_000, z, 96, SEED ^ 0x5A5A),
    };
    let arrivals = arrivals_of(&w);
    (w, arrivals)
}

/// The moderately skewed (z = 0.8) equi-join input of the other four;
/// `salt` seeds the scenario's S-side keys and its interleaving.
fn equi_stream(name: &'static str, bytes: u32, salt: u64, n: [usize; 2]) -> (Workload, Arrivals) {
    let w = Workload {
        name,
        predicate: Predicate::Equi,
        r_items: zipf_items(n[0], 2_000, 0.8, bytes, SEED),
        s_items: zipf_items(n[1], 2_000, 0.8, bytes, SEED ^ salt),
    };
    let arrivals = interleave(&w, SEED ^ salt);
    (w, arrivals)
}

/// The exactness witness: `cfg` on the deterministic simulator.
fn sim_witness(cfg: &SessionBuilder, arrivals: &Arrivals) -> RunReport {
    run(arrivals, &cfg.clone().with_backend(Sim))
}

/// Run `cfg` on `backend` and panic unless it emitted exactly the
/// witness's (non-empty) join multiset: same count, same
/// order-independent digest, and — when the scenario collects them on
/// both sides — the same sorted `(R seq, S seq)` pairs.
fn run_verified(
    cfg: &SessionBuilder,
    arrivals: &Arrivals,
    backend: BackendChoice,
    witness: &RunReport,
) -> RunReport {
    let r = run(arrivals, &cfg.clone().with_backend(backend));
    let what = format!("{} {} vs the simulator witness", r.backend, r.workload);
    assert!(witness.matches > 0, "{what}: vacuous, the witness is empty");
    assert_eq!(r.matches, witness.matches, "{what}: match counts diverged");
    assert_eq!(
        r.match_digest, witness.match_digest,
        "{what}: join multisets diverged"
    );
    assert_eq!(
        r.match_pairs, witness.match_pairs,
        "{what}: join pairs diverged"
    );
    r
}

/// A column: its header, and how to read its cell from a row.
type Column<T> = (&'static str, fn(&T) -> String);

/// Print `rows` as a table of `columns`.
fn print_table<T>(rows: &[T], columns: &[Column<T>]) {
    let headers: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let mut table = Table::new(&headers);
    for row in rows {
        table.row(columns.iter().map(|c| (c.1)(row)).collect());
    }
    table.print();
}

/// The simulator's virtual seconds. A live backend's clock is the
/// wall's, which only `benchmark/` measures.
fn virtual_secs(r: &RunReport) -> String {
    if r.backend == "sim" {
        format!("{:.3}", r.exec_secs())
    } else {
        "-".to_string()
    }
}

/// `batching`: the data-plane batch size changes how tuples travel —
/// messages, bytes, why each batch left its coalescing buffer — and
/// never what joins. One Zipf(z = 1) band-join stream at batch 1, 16, 64
/// and 256 on all three backends; every run must emit the multiset of
/// the per-tuple (batch 1) simulator run.
pub fn run_batching() {
    let j = 4u32;
    banner(&format!(
        "batching: Dynamic, Zipf(z=1) band-join, J={j}, batch 1/16/64/256 on sim, threaded, tcp"
    ));
    let (w, arrivals) = band_stream("zipf-band", 1.0, 2_000, 20_000);
    let cfg = |batch: usize| config(j, OperatorKind::Dynamic, &w).with_batch_tuples(batch);
    let witness = sim_witness(&cfg(1), &arrivals);

    let mut rows: Vec<(usize, RunReport)> = Vec::new();
    for batch in [1, 16, 64, 256] {
        for backend in [Sim, Threaded, Tcp] {
            let r = run_verified(&cfg(batch), &arrivals, backend, &witness);
            rows.push((batch, r));
        }
    }
    // Mostly `deadline` flushes on a saturated run means the buffers age
    // out before they fill; `idle` ones left early because their live
    // machine ran out of work (the simulator never fires an age timer
    // early). Simulator counts repeat exactly; live ones vary run to run.
    print_table(
        &rows,
        &[
            ("batch", |(batch, _)| batch.to_string()),
            ("backend", |(_, r)| r.backend.to_string()),
            ("virtual (s)", |(_, r)| virtual_secs(r)),
            ("matches", |(_, r)| r.matches.to_string()),
            ("messages", |(_, r)| r.network_messages.to_string()),
            ("network", |(_, r)| human_bytes(r.network_bytes)),
            ("migrations", |(_, r)| r.migrations.to_string()),
            ("flushed batches/tuples by cause", |(_, r)| {
                r.flushes.to_string()
            }),
        ],
    );
    println!("  verified: one join multiset at every batch size on every backend");
}

/// The worst `ILF/ILF*` of the trace from the first resize (a ×4
/// expansion or a 4→1 contraction) on, each point priced at the `J` then
/// in force; `-` for a run that never resized.
fn ratio_after_resize(r: &RunReport) -> String {
    let resized = r.events.iter().find_map(|e| match *e {
        ControlEvent::Begin { seq, from, to, .. } if from.j() != to.j() => Some(seq),
        _ => None,
    });
    match resized {
        Some(seq) if r.competitive.iter().any(|p| p.tuples >= seq) => {
            format!("{:.3}", r.max_competitive_ratio(seq))
        }
        _ => "-".to_string(),
    }
}

/// `sent/stored (ratio)` summed over `(sent, stored)` state transfers.
fn sent_over_stored(transfers: impl Iterator<Item = (u64, u64)>) -> String {
    let (sent, stored) = transfers.fold((0, 0), |(a, b), (s, t)| (a + s, b + t));
    let ratio = sent as f64 / stored.max(1) as f64;
    format!("{sent}/{stored} ({ratio:.2}x)")
}

/// The body of `elastic` and `contract`: a fixed-size `reference` and
/// an `elastic` configuration over the same stream, on the simulator
/// and the threaded backend. All four runs must emit the simulator
/// reference's multiset. The elastic run must scale out, and in, at
/// least `min = [expansions, contractions]` times, and keep the transfer
/// bounds: each expansion parent ships at most 2× its stored tuples
/// (Theorem 4.3), each contraction retiree at most 1× (the diagonal one
/// nothing), and no machine outside the final grid still holds state.
fn run_elastic_pair(
    arrivals: &Arrivals,
    reference: (&'static str, SessionBuilder),
    elastic: (&'static str, SessionBuilder),
    min: [u64; 2],
) {
    let witness = sim_witness(&reference.1, arrivals);
    let mut rows: Vec<(&str, RunReport)> = Vec::new();
    for backend in [Sim, Threaded] {
        let fixed = run_verified(&reference.1, arrivals, backend, &witness);
        let r = run_verified(&elastic.1, arrivals, backend, &witness);
        let what = format!("{} {}", r.backend, elastic.0);
        assert!(
            r.expansions >= min[0] && r.contractions >= min[1],
            "{what}: {} expansions, {} contractions, expected at least {min:?} — \
             retune the capacity target or the hold-off gate",
            r.expansions,
            r.contractions
        );
        for t in &r.expand_transfers {
            assert!(
                t.sent_tuples <= 2 * t.stored_tuples,
                "{what}: parent {} violated Theorem 4.3: sent {} > 2x stored {}",
                t.joiner,
                t.sent_tuples,
                t.stored_tuples
            );
        }
        for t in &r.contract_transfers {
            assert!(
                t.sent_tuples <= t.stored_tuples,
                "{what}: retiree {} violated the 1x contraction bound: sent {} > stored {}",
                t.joiner,
                t.sent_tuples,
                t.stored_tuples
            );
        }
        let final_j = r.final_mapping.j() as usize;
        let holding = r.machines.iter().filter(|m| m.stored_bytes > 0).count();
        assert!(
            holding <= final_j,
            "{what}: {holding} machines hold state but only {final_j} are active — \
             a retired machine kept stored bytes"
        );
        rows.extend([(reference.0, fixed), (elastic.0, r)]);
    }
    print_table(
        &rows,
        &[
            ("run", |(name, _)| name.to_string()),
            ("backend", |(_, r)| r.backend.to_string()),
            ("J0", |(_, r)| r.j.to_string()),
            ("J final", |(_, r)| r.final_mapping.j().to_string()),
            ("mapping", |(_, r)| {
                format!("({},{})", r.final_mapping.n, r.final_mapping.m)
            }),
            ("expansions", |(_, r)| r.expansions.to_string()),
            ("contractions", |(_, r)| r.contractions.to_string()),
            ("peak mach", |(_, r)| {
                r.peak_provisioned_machines.to_string()
            }),
            ("final mach", |(_, r)| r.provisioned_machines.to_string()),
            ("virtual (s)", |(_, r)| virtual_secs(r)),
            ("max ILF", |(_, r)| human_bytes(r.max_ilf_bytes)),
            ("relocated", |(_, r)| human_bytes(r.migration_bytes)),
            ("expand sent/stored", |(_, r)| {
                let transfers = r.expand_transfers.iter();
                sent_over_stored(transfers.map(|t| (t.sent_tuples, t.stored_tuples)))
            }),
            ("contract sent/stored", |(_, r)| {
                let transfers = r.contract_transfers.iter();
                sent_over_stored(transfers.map(|t| (t.sent_tuples, t.stored_tuples)))
            }),
            ("ILF/ILF* after resize", |(_, r)| ratio_after_resize(r)),
        ],
    );
    println!(
        "  ILF/ILF* after resize: printed, not asserted (a (2n, 2m) grid need not be \
         optimal at 4J)"
    );
    println!(
        "  verified: every run emitted the identical multiset of {} join pairs",
        witness.matches
    );
}

/// `elastic`: live §4.2.2 scale-out. Dynamic starts at `J/4` with
/// elasticity armed and must expand `(n, m) → (2n, 2m)` mid-stream —
/// splitting parent state across machines provisioned at trigger time,
/// while tuples flow — and still emit the multiset of the run that had
/// the full `J` from tuple one.
pub fn run_elastic() {
    let j_full = 16u32;
    let j0 = j_full / 4;
    banner(&format!(
        "elastic scale-out: at-capacity J={j_full} vs grow-from-small J={j0} -> {j_full}, \
         sim and threaded"
    ));
    let (w, arrivals) = equi_stream("zipf-equi", 96, 0xE1A5, [3_000, 12_000]);
    let (r_bytes, s_bytes) = stream_bytes(&arrivals);

    let at_capacity = config(j_full, OperatorKind::Dynamic, &w).with_collect_matches(true);
    // Capacity target such that the small grid fills past M/2 roughly a
    // third of the way through the stream: per-joiner stored bytes on a
    // square grid track ~(copies/j0) ≈ total·√j0/j0.
    let grow = config(j0, OperatorKind::Dynamic, &w)
        .with_collect_matches(true)
        .with_elastic(ElasticConfig::new((r_bytes + s_bytes) / 3, 1));
    run_elastic_pair(
        &arrivals,
        ("at-capacity", at_capacity),
        ("grow-from-small", grow),
        [1, 0],
    );
}

/// `contract`: the full elastic sawtooth. Dynamic starts at `J₀ = 1`
/// with both directions armed: the grow phase expands `1 → 4 → 16` on a
/// tight capacity target, then — once the drain gate opens late in the
/// stream — the low-water mark merges `16 → 4 → 1`, retiring machines
/// back into the dormant pool. It must emit the multiset of the run
/// pinned at `J = 1`.
pub fn run_contract() {
    banner("elastic contraction: sawtooth J=1 -> 16 -> 1 vs static J=1, sim and threaded");
    // Equal stream sizes keep Alg. 2 at square mappings, so every
    // sawtooth level is geometrically contractible ((4,4) → (2,2) → (1,1)).
    let (w, arrivals) = equi_stream("zipf-balanced", 96, 0xC0_17AC, [4_000, 4_000]);
    let (r_bytes, s_bytes) = stream_bytes(&arrivals);

    let fixed = config(1, OperatorKind::Dynamic, &w).with_collect_matches(true);
    // Grow phase: a capacity target the stream fills early and again
    // after the first split, so both expansions land in the front half.
    // Drain phase: the hold-off gate opens at 60% of the stream (the
    // controller samples 1/J of the ingest, so the gate must sit below
    // its last observed sequence), and the generous low-water mark then
    // merges everything back.
    let saw = fixed.clone().with_elastic(
        ElasticConfig::new((r_bytes + s_bytes) / 6, 2)
            .with_contraction(u64::MAX / 2, 2)
            .with_contract_holdoff(3 * arrivals.len() as u64 / 5),
    );
    run_elastic_pair(&arrivals, ("static", fixed), ("sawtooth", saw), [1, 1]);
}

/// `lifecycle`: windowed eviction and checkpoint/restore. Per backend,
/// over one stream several windows deep: an eviction-off **baseline**
/// (the storage reference, and the witness's multiset); a **windowed**
/// run whose count window must keep evicting and plateau storage below
/// half the baseline's; and a **round trip** — checkpoint at 60 % of the
/// stream, restore from the file, push the rest — whose pre-checkpoint
/// and post-restore matches must union to the uninterrupted multiset.
/// Then `run_window_decider`'s leg: Alg. 2 on the live window.
pub fn run_lifecycle() {
    let span = 3_000u64;
    banner(&format!(
        "state lifecycle: {span}-tuple count window + checkpoint/restore, J=4, sim, threaded, tcp"
    ));
    let (w, arrivals) = equi_stream("zipf-lifecycle", 64, 0x11FE, [8_000, 8_000]);
    let cfg = config(4, OperatorKind::Dynamic, &w)
        .with_seed(SEED)
        .with_collect_matches(true);
    let witness = sim_witness(&cfg, &arrivals);

    let mut rows: Vec<(&str, RunReport)> = Vec::new();
    for backend in [Sim, Threaded, Tcp] {
        let baseline = run_verified(&cfg, &arrivals, backend, &witness);
        let label = baseline.backend;
        let windowed = run(
            &arrivals,
            &cfg.clone().with_count_window(span).with_backend(backend),
        );
        assert!(
            windowed.total_evicted_bytes() > 0,
            "{label}: the {span}-tuple window never evicted on a {}-tuple stream",
            arrivals.len()
        );
        assert!(
            windowed.total_storage_bytes < baseline.total_storage_bytes / 2,
            "{label}: windowed storage {} did not plateau below half the unwindowed {}",
            windowed.total_storage_bytes,
            baseline.total_storage_bytes
        );
        assert!(
            windowed.matches > 0 && windowed.matches <= baseline.matches,
            "{label}: windowed run emitted {} matches vs baseline {}",
            windowed.matches,
            baseline.matches
        );
        rows.extend([("baseline", baseline), ("windowed", windowed)]);

        let cut = arrivals.len() * 3 / 5;
        let path = std::env::temp_dir().join(format!(
            "aoj-bench-lifecycle-{label}-{}.ckpt",
            std::process::id()
        ));
        let live = cfg.clone().with_backend(backend);
        let refused = "an open session refused input";
        let mut session = JoinSession::open(live.clone());
        let (head, tail) = arrivals.split_at(cut);
        session.push_batch(head.iter().copied()).expect(refused);
        let pre = session.checkpoint(&path).expect("checkpoint failed");
        let mut restored = JoinSession::restore(live, &path).expect("restore failed");
        restored.push_batch(tail.iter().copied()).expect(refused);
        let post = restored.close();
        std::fs::remove_file(&path).ok();

        let mut union = [pre.match_pairs, post.match_pairs].concat();
        union.sort_unstable();
        assert_eq!(
            union, witness.match_pairs,
            "{label}: checkpoint/restore lost or duplicated matches"
        );
        println!(
            "  {label}: checkpoint at tuple {cut} restored cleanly \
             ({} pre + {} post = {} matches, identical to the uninterrupted run)",
            pre.matches, post.matches, witness.matches
        );
    }
    print_table(
        &rows,
        &[
            ("run", |(name, _)| name.to_string()),
            ("backend", |(_, r)| r.backend.to_string()),
            ("virtual (s)", |(_, r)| virtual_secs(r)),
            ("matches", |(_, r)| r.matches.to_string()),
            ("stored", |(_, r)| human_bytes(r.total_storage_bytes)),
            ("evicted", |(_, r)| human_bytes(r.total_evicted_bytes())),
            ("window tuples", |(_, r)| {
                r.total_window_tuples().to_string()
            }),
        ],
    );
    println!(
        "  verified on all three backends: eviction bounds steady-state storage, \
         the round-trip multiset is exact"
    );
    run_window_decider();
}

/// The `lifecycle` scenario's second leg: Alg. 2 on the live window. The
/// §5.4 fluctuation schedule (factor 4) over 125,000 tuples ends with a
/// drain of 46,116 R after 58,404 S, so a 25,000-tuple window ends
/// holding R alone while the cumulative count is 1:1 (the benchmark's
/// `fluct_window_paced` at a tenth of its size, in its proportions). Per backend the
/// windowed session must end at the simulator's mapping, its largest
/// joiner must store within 1.25 of the window's `ILF*`, and it must
/// emit the simulator's multiset of the pairs a
/// window guarantees (stream distance below `span − span/sub_windows`:
/// the last sub-window before the edge is each joiner's to keep or drop).
/// The table prints the ratio beside the one the cumulative decider's
/// final mapping would cost on the same window.
fn run_window_decider() {
    let (n, span) = (125_000usize, 25_000u64);
    println!(
        "  decider on a {span}-tuple count window: fluctuating stream of {n} tuples \
         (factor 4), J=4, sim, threaded, tcp"
    );
    let w = Workload {
        name: "zipf-fluct-window",
        predicate: Predicate::Equi,
        r_items: zipf_items(n / 2, 20_000, 0.8, 64, SEED),
        s_items: zipf_items(n - n / 2, 20_000, 0.8, 64, SEED ^ 0xF1),
    };
    let arrivals = fluctuating(&w, 4, SEED);
    let j = 4;
    let cfg = config(j, OperatorKind::Dynamic, &w)
        .with_seed(SEED)
        .with_window_copies(64 * j as u64)
        .with_collect_matches(true);
    let windowed = cfg.clone().with_count_window(span);
    let spec = windowed.lifecycle.window.expect("a count window");
    let exact_gap = span - spec.sub_span();

    // The window's population, and what a mapping costs on it.
    let (mut r, mut s) = (0u64, 0u64);
    for (rel, item) in &arrivals[arrivals.len() - span as usize..] {
        match rel {
            Rel::R => r += item.bytes as u64,
            Rel::S => s += item.bytes as u64,
        }
    }
    let optimal = optimal_ilf(j, r, s);
    let cumulative = sim_witness(&cfg, &arrivals).final_mapping;
    let cumulative_ratio = ilf(r, s, cumulative) / optimal;
    let guaranteed = |rep: &RunReport| -> Vec<(u64, u64)> {
        let pairs = rep.match_pairs.iter().copied();
        pairs.filter(|&(a, b)| a.abs_diff(b) < exact_gap).collect()
    };

    let witness = sim_witness(&windowed, &arrivals);
    let mut rows = Vec::new();
    for backend in [Sim, Threaded, Tcp] {
        let rep = run(&arrivals, &windowed.clone().with_backend(backend));
        let label = rep.backend;
        assert!(
            !guaranteed(&witness).is_empty(),
            "vacuous: no in-window pair"
        );
        assert_eq!(
            guaranteed(&rep),
            guaranteed(&witness),
            "{label}: the in-window multiset diverged from the simulator's"
        );
        assert_eq!(
            rep.final_mapping, witness.final_mapping,
            "{label}: the window decider landed elsewhere than the simulator's"
        );
        let ratio = rep.max_ilf_bytes as f64 / optimal;
        assert!(
            ratio <= 1.25,
            "{label}: final ILF/ILF* of the window {ratio:.3} > 1.25 at {:?}",
            rep.final_mapping
        );
        rows.push((ratio, rep));
    }
    print_table(
        &rows,
        &[
            ("backend", |(_, r)| r.backend.to_string()),
            ("migrations", |(_, r)| r.migrations.to_string()),
            ("final mapping", |(_, r)| {
                format!("({}, {})", r.final_mapping.n, r.final_mapping.m)
            }),
            ("max ILF", |(_, r)| human_bytes(r.max_ilf_bytes)),
            ("ILF/ILF* of window", |(ratio, _)| format!("{ratio:.3}")),
        ],
    );
    println!(
        "  the cumulative decider ends at ({}, {}): ILF/ILF* {cumulative_ratio:.3} on the same \
         window before any eviction lag",
        cumulative.n, cumulative.m
    );
    println!(
        "  verified on all three backends: the decider follows the {span}-tuple window \
         (ILF/ILF* <= 1.25), the in-window multiset is the simulator's"
    );
}

/// `max / mean` of a per-machine load gauge over the `J` joiner
/// machines: 1.0 is a perfectly balanced grid, `J` means one joiner
/// carries everything.
fn imbalance(r: &RunReport, load: impl Fn(&MachineStats) -> u64) -> f64 {
    let j = r.final_mapping.j() as usize;
    let loads: Vec<u64> = r
        .machines
        .iter()
        .filter(|m| m.machine < j)
        .map(load)
        .collect();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    *loads.iter().max().expect("a grid has a joiner") as f64 / mean
}

/// `skew`: the paper's random routing needs no hot-key countermeasure.
/// Each tuple draws a uniform ticket independent of its key (§3.2), so a
/// Zipf head spreads over every row and column like any other key. Per
/// Zipf exponent the same band-join runs on every backend and must emit
/// the simulator run's multiset. The balance is hardware-independent in
/// two forms: **processing imbalance** `max(matches) / mean(matches)`
/// over the joiners, asserted ≤ 1.1 at z = 1.4 on every backend, and the
/// simulator's **modelled makespan**. The `hot keys` column is what the
/// reshufflers' sampled SpaceSaving sketches (one tuple in 64) flag.
pub fn run_skew() {
    let j = 4u32;
    banner(&format!(
        "skew: Zipf band-join J={j}, random routing, z in [1.0, 1.4], sim, threaded, tcp"
    ));
    let mut rows: Vec<(f64, RunReport)> = Vec::new();
    // The paper's moderate exponent, and a head-heavy one where a single
    // key carries ~20% of the stream: the one README "Skew handling"
    // quotes, so the one whose balance is asserted.
    for (z, head_heavy) in [(1.0, false), (1.4, true)] {
        let (w, arrivals) = band_stream("zipf-band-skew", z, 10_000, 10_000);
        // The whole stream is materialized up front, so the flow-control
        // window (a liveness knob for open-ended sessions) would only
        // add credit-return stalls.
        let cfg = config(j, OperatorKind::Dynamic, &w)
            .with_seed(SEED)
            .with_window_copies(0);
        let witness = sim_witness(&cfg, &arrivals);
        for backend in [Sim, Threaded, Tcp] {
            let r = run_verified(&cfg, &arrivals, backend, &witness);
            let imb = imbalance(&r, |m| m.matches);
            assert!(
                !head_heavy || imb <= 1.1,
                "{} z={z}: random routing must balance the match work, got imbalance {imb:.2}",
                r.backend
            );
            rows.push((z, r));
        }
    }
    print_table(
        &rows,
        &[
            ("z", |(z, _)| z.to_string()),
            ("backend", |(_, r)| r.backend.to_string()),
            ("imbalance", |(_, r)| {
                format!("{:.2}", imbalance(r, |m| m.matches))
            }),
            ("stored imbalance", |(_, r)| {
                format!("{:.2}", imbalance(r, |m| m.stored_bytes))
            }),
            ("virtual (s)", |(_, r)| virtual_secs(r)),
            ("hot keys", |(_, r)| r.skew.hot_keys.len().to_string()),
        ],
    );
    println!("  verified: one join multiset per z on every backend, imbalance <= 1.1 at z=1.4");
}

/// One supervised run of `cfg`'s fault plan; panics unless the kill
/// fired and the delivered multiset equals the witness exactly.
fn run_chaos(
    leg: &str,
    cfg: SessionBuilder,
    arrivals: &Arrivals,
    witness: &RunReport,
) -> SupervisedOutcome {
    let dir = std::env::temp_dir().join(format!(
        "aoj-bench-faults-{:?}-{leg}-{}",
        cfg.backend.choice,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = SupervisedSession::open(cfg, &dir);
    for &(rel, item) in arrivals.iter() {
        session.push(rel, item);
    }
    let outcome = session.close();
    let _ = std::fs::remove_dir_all(&dir);

    let label = outcome.report.backend;
    let mut got: Vec<(u64, u64)> = outcome.matches.iter().map(|m| (m.r_seq, m.s_seq)).collect();
    got.sort_unstable();
    assert!(
        outcome.stats.crashes >= 1,
        "{label} {leg}: the injected kill never fired"
    );
    assert_eq!(
        got, witness.match_pairs,
        "{label} {leg}: chaos run lost or duplicated matches"
    );
    outcome
}

/// `faults`: crash recovery under chaos. One fault-free simulator run
/// fixes the exact join multiset; then every backend runs the same
/// stream through a [`SupervisedSession`] with a worker killed
/// mid-stream by the backend's own primitive (simulator kill, thread
/// crash, process SIGKILL), two legs each:
///
/// * **ckpt-replay** — automatic checkpoints on a tuple cadence, the
///   kill right after the second checkpoint adoption: recovery rolls
///   back to that checkpoint and replays the suffix;
/// * **scratch-replay** — no cadence, the kill on an accepted-tuple
///   threshold: a fresh incarnation replays from sequence 0.
///
/// Every leg must deliver the witness multiset exactly — no loss, no
/// duplicates — and the checkpointed leg must replay fewer tuples than
/// the scratch one, which is what checkpointing is for. Detection and
/// recovery latencies are wall-clock and printed as information only.
pub fn run_faults() {
    banner("fault tolerance: injected worker kills + automatic recovery, J=4, sim, threaded, tcp");
    let (w, arrivals) = equi_stream("zipf-faults", 64, 0xFA17, [6_000, 6_000]);
    let total = arrivals.len() as u64;
    let every = total / 6;
    // The scratch leg's kill fires once the supervisor has accepted
    // tuple `kill_after`, just before mid-stream, on every backend.
    let kill_after = (total * 2) / 5;
    let cfg = config(4, OperatorKind::Dynamic, &w).with_seed(SEED);
    let witness = sim_witness(&cfg.clone().with_collect_matches(true), &arrivals);
    println!(
        "  witness: {} matches over {total} tuples; checkpoint every {every} tuples, \
         kill on the 2nd adoption (ckpt-replay) / after tuple {kill_after} (scratch-replay)",
        witness.matches,
    );

    let mut rows: Vec<(&str, &str, RecoveryStats)> = Vec::new();
    for backend in [Sim, Threaded, Tcp] {
        let live = cfg.clone().with_backend(backend);
        let ckpt = run_chaos(
            "ckpt-replay",
            live.clone()
                .with_checkpoint_every(every)
                .with_fault_plan(FaultPlan::new().kill_on_checkpoint(1, 2)),
            &arrivals,
            &witness,
        );
        let scratch = run_chaos(
            "scratch-replay",
            live.with_fault_plan(FaultPlan::new().kill_after_tuples(2, kill_after)),
            &arrivals,
            &witness,
        );
        let label = ckpt.report.backend;
        let (ckpt, scratch) = (ckpt.stats, scratch.stats);
        assert!(
            ckpt.checkpoints >= 2,
            "{label}: the kill's rollback base (2nd checkpoint) was never adopted"
        );
        assert_eq!(
            scratch.checkpoints, 0,
            "{label}: the no-cadence leg unexpectedly checkpointed"
        );
        assert!(
            ckpt.replayed_tuples < scratch.replayed_tuples,
            "{label}: rolling back to a checkpoint replayed {} tuples, \
             no fewer than the {} replayed from scratch",
            ckpt.replayed_tuples,
            scratch.replayed_tuples
        );
        rows.extend([
            ("ckpt-replay", label, ckpt),
            ("scratch-replay", label, scratch),
        ]);
    }
    print_table(
        &rows,
        &[
            ("leg", |(leg, _, _)| leg.to_string()),
            ("backend", |(_, backend, _)| backend.to_string()),
            ("crashes", |(_, _, s)| s.crashes.to_string()),
            ("detect (us)", |(_, _, s)| {
                s.detection_latency_us.to_string()
            }),
            ("recover (us)", |(_, _, s)| s.recovery_time_us.to_string()),
            ("replayed", |(_, _, s)| s.replayed_tuples.to_string()),
            ("deduped", |(_, _, s)| s.deduped_matches.to_string()),
            ("ckpts", |(_, _, s)| s.checkpoints.to_string()),
        ],
    );
    println!(
        "  verified on all three backends: every chaos leg delivered the \
         fault-free witness multiset exactly (no loss, no duplicates)"
    );
}
