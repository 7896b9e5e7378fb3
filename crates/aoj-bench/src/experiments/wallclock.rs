//! The wall-clock benchmark: the operator on real OS threads, swept
//! across data-plane batch sizes.
//!
//! Everything else in `aoj-bench` measures virtual time on the
//! deterministic simulator. This experiment runs a Zipf-skewed band-join
//! through `aoj-runtime`'s threaded backend — one worker thread per
//! machine (`J + 1` threads for `J` joiners) — and reports *real*
//! numbers: wall-clock throughput in tuples/s, p50/p99 match latency,
//! and bytes moved. For every batch size in the sweep it replays the
//! identical seeded workload on the simulator backend and verifies the
//! two backends emitted the **same join result multiset** — the
//! cross-backend exactness guarantee the epoch protocol provides.
//!
//! Results go to stdout and to `BENCH_wallclock.json` (tuples/s, p50,
//! p99 per batch size and backend) so the perf trajectory is tracked
//! across PRs; CI fails if the recorded throughput regresses more than
//! the threshold in `scripts/check_bench_regression.py`.

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_datagen::zipf::ZipfSampler;
use aoj_operators::{human_bytes, run, BackendChoice, OperatorKind, RunReport};

use super::common::{banner, config, SEED};

/// The default `--batch` sweep.
pub const DEFAULT_SWEEP: [usize; 4] = [1, 16, 64, 256];
/// The CI smoke sweep: per-tuple baseline + the default batch size.
pub const SMOKE_SWEEP: [usize; 2] = [1, 64];
/// The TCP backend sweep: one entry at the default batch size. Every
/// run pays `J + 1` process spawns and real socket traffic, so the
/// sweep stays a smoke-sized sanity point rather than a full curve.
pub const TCP_SWEEP: [usize; 1] = [64];

/// Zipf-skewed band-join workload: `|r.key − s.key| ≤ 2` over a hot key
/// head (z = 1, the paper's Z4 setting).
fn zipf_band_workload(nr: usize, ns: usize, key_space: u64, seed: u64) -> Workload {
    let mut zr = ZipfSampler::new(key_space, 1.0, seed);
    let mut zs = ZipfSampler::new(key_space, 1.0, seed ^ 0x5A5A);
    let item = |z: &mut ZipfSampler| StreamItem {
        key: z.next() as i64,
        aux: 0,
        bytes: 96,
    };
    Workload {
        name: "zipf-band",
        predicate: Predicate::Band { width: 2 },
        r_items: (0..nr).map(|_| item(&mut zr)).collect(),
        s_items: (0..ns).map(|_| item(&mut zs)).collect(),
    }
}

/// Median-of-`reps` wall-clock measurement on `backend` (throughput is
/// jittery — one run can swing ±15% on a loaded machine; the median of
/// three is the standard stabiliser), plus one deterministic sim run.
/// Every wall-clock repeat is verified against the sim via the
/// order-independent match digest (same count, same multiset hash).
pub fn measure_pair(
    backend: BackendChoice,
    j: u32,
    nr: usize,
    ns: usize,
    batch_tuples: usize,
    reps: usize,
) -> (RunReport, RunReport) {
    let w = zipf_band_workload(nr, ns, 1_000, SEED);
    let arrivals = interleave(&w, SEED ^ 0x57AE);
    // No pair collection: shipping every match identity to the
    // coordinator costs an order of magnitude more traffic than the join
    // itself (~59MB of pair ids vs ~4.7MB of data at this scale) and was
    // the dominant cost of the TCP sweep. The always-on `MatchDigest`
    // witnesses the same multiset equality without moving the pairs;
    // `backend_equivalence` keeps the bit-for-bit `collect_matches` path
    // honest.
    let mut cfg = config(j, OperatorKind::Dynamic, &w).with_batch_tuples(batch_tuples);
    cfg.backend.collect_matches = false;
    let sim = run(&arrivals, &cfg.clone().with_backend(BackendChoice::Sim));
    let mut runs: Vec<RunReport> = (0..reps.max(1))
        .map(|_| {
            let r = run(&arrivals, &cfg.clone().with_backend(backend));
            assert_eq!(
                r.matches, sim.matches,
                "{} and simulated match counts diverged at batch_tuples={batch_tuples}",
                r.backend
            );
            assert_eq!(
                r.match_digest, sim.match_digest,
                "{} and simulated join multisets diverged at batch_tuples={batch_tuples}",
                r.backend
            );
            r
        })
        .collect();
    runs.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
    let measured = runs.swap_remove(runs.len() / 2);
    (measured, sim)
}

fn json_entry(batch: usize, r: &RunReport) -> String {
    format!(
        concat!(
            "{{\"batch_tuples\":{},\"backend\":\"{}\",\"exec_s\":{:.6},",
            "\"throughput_tps\":{:.1},\"p50_latency_us\":{},\"p99_latency_us\":{},",
            "\"matches\":{},\"network_messages\":{},\"network_bytes\":{},",
            "\"flush_batches\":{:?}}}"
        ),
        batch,
        r.backend,
        r.exec_secs(),
        r.throughput,
        r.p50_latency_us,
        r.p99_latency_us,
        r.matches,
        r.network_messages,
        r.network_bytes,
        r.flushes.batches,
    )
}

/// The `reproduce wallclock [--backend tcp] [--smoke] [--batch N,...]`
/// entry point: sweep the data-plane batch size on the chosen
/// wall-clock backend (threaded by default, multi-process TCP with
/// `--backend tcp`) and record the perf trajectory. The simulator
/// replays every point as the exactness witness.
pub fn run_wallclock(backend: BackendChoice, batch_sweep: &[usize], smoke: bool) {
    assert!(
        matches!(backend, BackendChoice::Threaded | BackendChoice::Tcp),
        "run_wallclock measures a wall-clock backend; the simulator is its witness"
    );
    let tcp = backend == BackendChoice::Tcp;
    let j = 4u32;
    let (nr, ns) = (2_000, 20_000);
    let sweep: Vec<usize> = if !batch_sweep.is_empty() {
        batch_sweep.to_vec()
    } else if tcp {
        TCP_SWEEP.to_vec()
    } else if smoke {
        SMOKE_SWEEP.to_vec()
    } else {
        DEFAULT_SWEEP.to_vec()
    };
    banner(&format!(
        "wall-clock batch sweep: Dynamic, Zipf(z=1) band-join, J={j} ({}), batch sizes {sweep:?}",
        if tcp {
            format!("{} worker processes over loopback TCP", j + 1)
        } else {
            format!("{} worker threads", j + 1)
        }
    ));
    // Warm-up: the first wall-clock run pays cold caches and
    // thread/process-spawn jitter, so throw away one pass at the
    // default batch size before measuring (no simulator replay, no
    // verification — the measured pairs below do that).
    {
        let w = zipf_band_workload(nr, ns, 1_000, SEED);
        let arrivals = interleave(&w, SEED ^ 0x57AE);
        let cfg = config(j, OperatorKind::Dynamic, &w)
            .with_batch_tuples(64)
            .with_backend(backend);
        let _ = run(&arrivals, &cfg);
    }

    let mut entries: Vec<String> = Vec::new();
    let mut default_batch_tps: Option<f64> = None;
    for &batch in &sweep {
        let (measured, sim) = measure_pair(backend, j, nr, ns, batch, 3);
        println!("  batch={batch}");
        println!("    {}", measured.wallclock_summary());
        println!("    {}", sim.wallclock_summary());
        println!(
            "    {}: {:.0} tuples/s, p50={}us p99={}us, {} over {} messages",
            measured.backend,
            measured.throughput,
            measured.p50_latency_us,
            measured.p99_latency_us,
            human_bytes(measured.network_bytes),
            measured.network_messages,
        );
        // Why the data batches left their coalescing buffers
        // (batches/tuples): mostly `deadline` on a saturated run means
        // buffers age out before they fill.
        println!("    {} flushes: {}", measured.backend, measured.flushes);
        println!("    sim flushes: {}", sim.flushes);
        if batch == 64 {
            default_batch_tps = Some(measured.throughput);
        }
        entries.push(json_entry(batch, &measured));
        // The committed sim curve comes from the threaded sweep; a TCP
        // run uses the simulator purely as its exactness witness.
        if !tcp {
            entries.push(json_entry(batch, &sim));
        }
    }
    if let Some(tps) = default_batch_tps {
        if tcp {
            println!("  default batch (64): {tps:.0} tuples/s wall-clock over loopback TCP");
        } else {
            println!(
                "  default batch (64): {tps:.0} tuples/s wall-clock \
                 (PR 2 per-tuple baseline: ~216k tuples/s)"
            );
        }
    }
    println!(
        "  verified: {} and sim multisets identical at every batch size",
        if tcp { "tcp" } else { "threaded" }
    );

    // Smoke runs (CI, quick local checks) write to a side file so they
    // never clobber the committed full-sweep baseline the CI regression
    // gate compares against; the TCP smoke gets its own file so the two
    // wall-clock smoke steps can upload both. Full runs merge into the
    // baseline, preserving the entries of backends not re-measured.
    let (path, final_entries) = if smoke {
        let path = if tcp {
            "BENCH_wallclock_tcp_smoke.json"
        } else {
            "BENCH_wallclock_smoke.json"
        };
        (path, entries)
    } else {
        let replaced: &[&str] = if tcp { &["tcp"] } else { &["threaded", "sim"] };
        let mut kept = kept_baseline_entries("BENCH_wallclock.json", replaced);
        kept.extend(entries);
        ("BENCH_wallclock.json", kept)
    };
    let json = format!(
        "{{\"experiment\":\"wallclock\",\"smoke\":{},\"workload\":\"zipf-band\",\"j\":{},\
         \"input_tuples\":{},\"runs\":[{}]}}\n",
        smoke,
        j,
        nr + ns,
        final_entries.join(",")
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}

/// Baseline entries for backends this run did *not* re-measure: a
/// `--backend tcp` sweep must not clobber the committed threaded/sim
/// curve, and a threaded sweep must not drop the tcp point. The file is
/// this module's own single-line output — flat objects, no nesting — so
/// splitting on the object boundary is exact.
fn kept_baseline_entries(path: &str, replaced: &[&str]) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Some(start) = text.find("\"runs\":[") else {
        return Vec::new();
    };
    let body = &text[start + "\"runs\":[".len()..];
    let Some(end) = body.rfind(']') else {
        return Vec::new();
    };
    if body[..end].trim().is_empty() {
        return Vec::new();
    }
    body[..end]
        .split("},{")
        .map(|e| format!("{{{}}}", e.trim_matches(|c| c == '{' || c == '}')))
        .filter(|e| {
            !replaced
                .iter()
                .any(|b| e.contains(&format!("\"backend\":\"{b}\"")))
        })
        .collect()
}
