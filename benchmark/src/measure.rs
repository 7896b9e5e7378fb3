//! The untraced pass: the six end-to-end metrics of one workload.

use std::time::Instant;

use aoj_core::ilf::optimal_ilf;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::StreamItem;
use aoj_operators::report::MatchDigest;
use aoj_operators::RunReport;

use crate::drive::{paced_run, saturated_rep, PacedRun, SatRep};
use crate::metrics::Outcome;
use crate::oracle;
use crate::pace::Schedule;
use crate::procfs;
use crate::stats::{best_quartile, iqr_frac, low_quantile, median, percentile_sorted};
use crate::trace::Tracer;
use crate::workloads::{Load, Spec, DISCARD_SHARE, J, PROBE_PREFILL_SHARE, PROBE_SHARE};

/// Fewest timed reps a closed-loop run reports a median over.
const MIN_TIMED_REPS: usize = 3;
/// Besides the measured sessions, set-up is timed on sessions that do
/// nothing else (open → one chunk processed → close): as many as fit in
/// this much time, so `setup_s` is a median over dozens of samples on
/// the threaded backend and still several on TCP, where one costs five
/// process spawns.
const SETUP_ONLY_BUDGET_S: f64 = 1.0;
const SETUP_ONLY_MAX: usize = 40;

/// Pairs by which `report` missed `want`, and whether the streamed
/// count (when there was a subscriber) disagrees with the report.
pub fn report_distance(report: &RunReport, want: &MatchDigest) -> u64 {
    let count_off = report.matches.abs_diff(report.match_digest.count);
    oracle::distance(&report.match_digest, want).max(count_off)
}

/// Failed tuples of one paced run against its reference: refusals, late
/// admissions, and the distance between what the subscriber received
/// and the reference (windowed: restricted to [`Spec::exact_gap`]).
fn paced_failures(spec: &Spec, run: &PacedRun, want: &MatchDigest) -> u64 {
    let mut dist = oracle::distance(&run.received, want);
    // Everything the joiners emitted must have been streamed.
    dist = dist.max(run.received_total.abs_diff(run.report.matches));
    if spec.window.is_none() {
        dist = dist.max(report_distance(&run.report, want));
    }
    run.refused + run.late_admitted + dist
}

/// Count one closed-loop rep of `n` tuples against the reference.
pub fn check_rep(out: &mut Outcome, rep: &SatRep, want: &MatchDigest, n: u64) {
    out.attempted += n;
    out.failed += (rep.refused + report_distance(&rep.report, want)).min(n);
}

/// Count one open-loop session of `n` tuples against the reference.
pub fn check_paced(out: &mut Outcome, spec: &Spec, run: &PacedRun, want: &MatchDigest, n: u64) {
    out.attempted += n;
    let failed = paced_failures(spec, run, want).min(n);
    if failed > 0 {
        out.notes.push(format!(
            "open-loop session failed {failed}: {} refused, {} admitted too late, \
             received {} pairs (digest {}) of {} expected",
            run.refused,
            run.late_admitted,
            run.received.count,
            if run.received == *want {
                "equal"
            } else {
                "differs"
            },
            want.count
        ));
    }
    out.failed += failed;
}

/// A closed-loop workload's latency probe: the head of its stream, the
/// first `prefill` tuples offered at once and the rest at the probe rate.
pub struct Probe<'a> {
    pub arrivals: &'a [(Rel, StreamItem)],
    pub prefill: usize,
}

impl Probe<'_> {
    /// The probe over a rep's `arrivals` at `rate_tps` for its share of
    /// `seconds`. The prefill is a fixed share of the rep, so the paced
    /// stretch meets indexes of the same size whatever `seconds` is: a
    /// band probe costs what the index holds, and a match needs a stored
    /// partner.
    pub fn over(arrivals: &[(Rel, StreamItem)], rate_tps: u64, seconds: f64) -> Probe<'_> {
        let prefill = (arrivals.len() as f64 * PROBE_PREFILL_SHARE) as usize;
        let len = prefill + Schedule::new(rate_tps).tuples_in(seconds * PROBE_SHARE);
        Probe {
            arrivals: &arrivals[..len.min(arrivals.len())],
            prefill,
        }
    }
}

/// Set-up times of sessions opened only to be timed — the same kind of
/// session the workload measures, fed one chunk.
fn setup_only_samples(spec: &Spec, arrivals: &[(Rel, StreamItem)]) -> Vec<f64> {
    let off = &mut Tracer::disabled();
    let head = &arrivals[..64.min(arrivals.len())];
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_ONLY_MAX && t0.elapsed().as_secs_f64() < SETUP_ONLY_BUDGET_S {
        samples.push(match spec.load {
            Load::Saturated { .. } => saturated_rep(spec, head, false, off).setup_s,
            Load::Paced { rate_tps } => paced_run(spec, head, 0, rate_tps, 0.0, off).setup_s,
        });
    }
    samples
}

/// The optimal input-load factor `ILF*` for what a session over
/// `arrivals` has to store at its end — the whole stream, or its last
/// `window` arrivals. `ilf_ratio` is the largest per-joiner state the
/// operator reports (`RunReport::max_ilf_bytes`) over this; the paper's
/// guarantee is ≤ 1.25 (plus, with a window, the one sub-window by which
/// eviction lags).
///
/// `RunReport::max_competitive_ratio` would trace the ratio over the
/// whole run, but the TCP backend leaves `RunReport::competitive` empty;
/// this end-of-run form is the one definition every backend supports.
fn optimal_stored_ilf(spec: &Spec, arrivals: &[(Rel, StreamItem)]) -> f64 {
    let live = spec
        .window
        .map_or(arrivals.len(), |w| (w as usize).min(arrivals.len()));
    let (mut r_bytes, mut s_bytes) = (0u64, 0u64);
    for (rel, item) in &arrivals[arrivals.len() - live..] {
        match rel {
            Rel::R => r_bytes += item.bytes as u64,
            Rel::S => s_bytes += item.bytes as u64,
        }
    }
    optimal_ilf(J, r_bytes, s_bytes)
}

/// Fewest matches a segment needs for its median to count.
const MIN_SEGMENT_SAMPLES: usize = 50;
/// How far in from the low end of the segment medians `latency_p50_us`
/// is read.
const CALM_SHARE: f64 = 0.02;

/// `latency_p50_us`: the median latency of each 10 ms stretch of the
/// schedule, then the value a fiftieth of the way in from the low end of
/// those medians — the median latency of the run's calm stretches, which
/// is the operator's; the disturbed ones are the host's. Light-load
/// latency is a chain of timer and condition-variable wake-ups, the
/// first thing a busy neighbour delays: in a spell where the median over
/// the whole run moved from 0.8 to 3.5 ms between back-to-back sessions
/// of the same stream, this moved by 2%, the lower decile of the same
/// medians by 20% and the lower quartile of half-second medians by 70%.
/// The median over the whole run is echoed beside it.
fn latency_p50_us(out: &mut Outcome, run: &mut PacedRun) -> f64 {
    let mut medians = Vec::new();
    for segment in &mut run.latencies_ns {
        segment.sort_unstable();
        if segment.len() >= MIN_SEGMENT_SAMPLES {
            medians.push(percentile_sorted(segment, 50.0).expect("non-empty").value / 1e3);
        }
    }
    let mut all: Vec<u32> = run.latencies_ns.concat();
    all.sort_unstable();
    let overall = percentile_sorted(&all, 50.0).expect("the paced run received no match");
    out.notes.push(format!(
        "latency_p50_us: calm {CALM_SHARE} of {} 10 ms medians; median over all {} matches {:.1} us",
        medians.len(),
        overall.samples,
        overall.value / 1e3
    ));
    if medians.is_empty() {
        overall.value / 1e3
    } else {
        low_quantile(&medians, CALM_SHARE)
    }
}

/// Run `spec` untraced for about `seconds` and report the end-to-end
/// metrics.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let off = &mut Tracer::disabled();
    let (setup_s, throughput_tps, cpu_us, latency_us, peak_mb, ilf);
    match spec.load {
        Load::Saturated {
            tuples_per_rep,
            probe_rate_tps,
        } => {
            let arrivals = spec.arrivals(tuples_per_rep, seed);
            let probe = Probe::over(&arrivals, probe_rate_tps, seconds);
            let is_tcp = spec.backend == aoj_operators::BackendChoice::Tcp;

            // Cold rep 0: the process's peak memory is read right after
            // it, before the oracle or anything else of the harness can
            // raise the high-water mark.
            let rep0 = saturated_rep(spec, &arrivals, is_tcp, off);
            peak_mb = procfs::peak_rss_mb("self").expect("no VmHWM") + rep0.workers_peak_mb;
            let want = oracle::reference(&arrivals, &spec.predicate, None);
            let want_probe = oracle::reference(probe.arrivals, &spec.predicate, None);
            let n = arrivals.len() as u64;
            check_rep(&mut out, &rep0, &want, n);
            let optimal = optimal_stored_ilf(spec, &arrivals);

            let budget = seconds * (1.0 - PROBE_SHARE);
            let (mut setups, mut tps, mut cpus, mut ilfs, mut walls) =
                (vec![], vec![], vec![], vec![], vec![]);
            let t0 = Instant::now();
            while tps.len() < MIN_TIMED_REPS
                || t0.elapsed().as_secs_f64() + 0.5 * median(&walls) < budget
            {
                let cpu0 = procfs::cpu_seconds();
                let rep = saturated_rep(spec, &arrivals, false, off);
                cpus.push((procfs::cpu_seconds() - cpu0) * 1e6 / n as f64);
                check_rep(&mut out, &rep, &want, n);
                setups.push(rep.setup_s);
                tps.push(n as f64 / rep.wall_s);
                walls.push(rep.wall_s);
                ilfs.push(rep.report.max_ilf_bytes as f64 / optimal);
            }
            setups.extend(setup_only_samples(spec, &arrivals));
            setup_s = best_quartile(&setups, false);
            throughput_tps = best_quartile(&tps, true);
            cpu_us = best_quartile(&cpus, false);
            ilf = median(&ilfs);
            out.notes.push(format!(
                "{} timed reps of {} tuples after the cold one; rep spread (IQR/median of tps) {:.4}; \
                 medians: {:.0} tuples/s, {:.3} us CPU/tuple; setup_s over {} sessions, median {:.6} s",
                tps.len(),
                n,
                iqr_frac(&tps),
                median(&tps),
                median(&cpus),
                setups.len(),
                median(&setups)
            ));
            let ktps: Vec<String> = tps.iter().map(|t| format!("{:.0}", t / 1e3)).collect();
            out.notes
                .push(format!("per rep, k tuples/s: {}", ktps.join(" ")));

            let mut run = paced_run(
                spec,
                probe.arrivals,
                probe.prefill,
                probe_rate_tps,
                DISCARD_SHARE,
                off,
            );
            check_paced(
                &mut out,
                spec,
                &run,
                &want_probe,
                probe.arrivals.len() as u64,
            );
            out.notes.push(format!(
                "latency probe: {} tuples admitted in {:.2} s, then {} offered at {probe_rate_tps}/s",
                probe.prefill,
                run.prefill_s,
                probe.arrivals.len() - probe.prefill
            ));
            latency_us = latency_p50_us(&mut out, &mut run);
        }
        Load::Paced { rate_tps } => {
            let n = Schedule::new(rate_tps).tuples_in(seconds);
            let arrivals = spec.arrivals(n, seed);
            let mut setups = setup_only_samples(spec, &arrivals);
            let cpu0 = procfs::cpu_seconds();
            let mut run = paced_run(spec, &arrivals, 0, rate_tps, DISCARD_SHARE, off);
            let cpu_s = procfs::cpu_seconds() - cpu0;
            peak_mb = procfs::peak_rss_mb("self").expect("no VmHWM");
            let want = oracle::reference(&arrivals, &spec.predicate, spec.exact_gap());
            check_paced(&mut out, spec, &run, &want, n as u64);
            setups.push(run.setup_s);
            setup_s = best_quartile(&setups, false);
            throughput_tps = n as f64 / run.wall_s;
            cpu_us = cpu_s * 1e6 / n as f64;
            ilf = run.report.max_ilf_bytes as f64 / optimal_stored_ilf(spec, &arrivals);
            out.notes.push(format!(
                "one session of {n} tuples offered at {rate_tps}/s; {} migrations; \
                 generator max lag {:.0} us, late chunks {:.5}; setup_s over {} sessions",
                run.report.migrations,
                run.lateness.max_lag_ns as f64 / 1e3,
                run.lateness.late_frac(),
                setups.len()
            ));
            latency_us = latency_p50_us(&mut out, &mut run);
        }
    }
    out.push("setup_s", setup_s);
    out.push("throughput_tps", throughput_tps);
    out.push("cpu_us_per_tuple", cpu_us);
    out.push("latency_p50_us", latency_us);
    out.push("peak_rss_mb", peak_mb);
    out.push("ilf_ratio", ilf);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use aoj_operators::BackendChoice;

    /// The reference join and the operator agree on tuple identity
    /// (sequence number = arrival index) and on every workload's
    /// predicate: a small stream on the deterministic simulator must hit
    /// the oracle's digest exactly.
    #[test]
    fn oracle_agrees_with_a_simulated_session() {
        for spec in workloads::all() {
            let arrivals = spec.arrivals(3_000, 11);
            let want = oracle::reference(&arrivals, &spec.predicate, None);
            assert!(want.count > 0, "{}", spec.name);
            let rep = saturated_rep(
                &spec.on(BackendChoice::Sim),
                &arrivals,
                false,
                &mut Tracer::disabled(),
            );
            assert_eq!(report_distance(&rep.report, &want), 0, "{}", spec.name);
        }
    }
}
