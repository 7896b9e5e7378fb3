//! The traced pass behind `--trace 1`: per-layer metrics for one
//! workload.
//!
//! (a) the workload's own reps again, with spans around every `open` /
//! `push_batch` / `try_next` / `close`, alternated with untraced reps so
//! the difference is the tracing overhead; (b) the head of the
//! workload's stream replayed through each layer's public functions
//! ([`crate::layers`]); (c) the same head on the simulator, under the
//! recovery supervisor and on the other live backend, for the
//! cross-backend ratios. End-to-end metrics never come from here.

use std::path::Path;
use std::time::Instant;

use aoj_core::fault::FaultPlan;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::StreamItem;
use aoj_operators::report::MatchDigest;
use aoj_operators::{BackendChoice, JoinSession, RunReport, SupervisedSession};

use crate::drive::{paced_run, saturated_rep, PacedRun};
use crate::layers;
use crate::measure::{check_paced, check_rep, report_distance, Probe};
use crate::metrics::Outcome;
use crate::oracle;
use crate::pace::Schedule;
use crate::stats::{iqr_frac, median, percentile_sorted};
use crate::trace::Tracer;
use crate::workloads::{Load, Spec, DISCARD_SHARE};

/// Tuples of the stream head the layer replays and the cross-backend
/// runs use.
const HEAD_TUPLES: usize = 200_000;
/// Pairs of (untraced, traced) reps a closed-loop workload alternates.
const OVERHEAD_PAIRS: usize = 3;
/// The supervisor buffers every delivered match, so its stream head is
/// capped by output size rather than input size.
const SUPERVISED_MAX_MATCHES: u64 = 2_000_000;
const CHECKPOINT_EVERY: u64 = 50_000;

fn max_over_mean(values: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<f64> = values.map(|x| x as f64).filter(|x| *x > 0.0).collect();
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    v.iter().cloned().fold(0.0, f64::max) / mean
}

/// Counters read off the session's own report.
fn report_metrics(out: &mut Outcome, r: &RunReport) {
    let n = r.input_tuples.max(1) as f64;
    out.push(
        "operators.report.msgs_per_ktuple",
        r.network_messages as f64 * 1e3 / n,
    );
    out.push(
        "operators.report.net_bytes_per_tuple",
        r.network_bytes as f64 / n,
    );
    out.push("operators.report.migrations", r.migrations as f64);
    out.push(
        "operators.report.migration_bytes_per_tuple",
        r.migration_bytes as f64 / n,
    );
    out.push(
        "operators.report.stored_imbalance",
        max_over_mean(r.machines.iter().map(|m| m.stored_bytes)),
    );
    out.push(
        "operators.report.match_imbalance",
        max_over_mean(r.machines.iter().map(|m| m.matches)),
    );
    out.push("operators.report.internal_avg_latency_us", r.avg_latency_us);
}

/// Span-derived metrics of the traced live sessions. `tuples` and
/// `wall_s` cover exactly the sessions `tracer` saw.
fn session_metrics(out: &mut Outcome, tracer: &Tracer, tuples: u64, wall_s: f64) {
    let s = tracer.summary();
    let get = |name: &str| s.get(name).copied().unwrap_or_default();
    let (open, push, close) = (
        get("operators.session.open"),
        get("operators.session.push_batch"),
        get("operators.session.close"),
    );
    let mean_ms = |a: crate::trace::Agg| a.total_ns as f64 / 1e6 / a.count.max(1) as f64;
    out.push("operators.session.open_ms", mean_ms(open));
    out.push(
        "operators.session.push_ns_per_tuple",
        push.self_ns as f64 / tuples.max(1) as f64,
    );
    out.push(
        "operators.session.push_blocked_frac",
        push.self_ns as f64 / 1e9 / wall_s,
    );
    out.push("operators.session.close_drain_ms", mean_ms(close));
}

/// Tail latency and receive cost of one traced open-loop run. The tail
/// sits on the migration-stall knee and is deliberately not gated.
fn stream_metrics(out: &mut Outcome, tracer: &Tracer, run: &PacedRun) {
    let mut lat = run.latencies_ns.concat();
    lat.sort_unstable();
    let lat = &lat;
    let pct = |p: f64| percentile_sorted(lat, p).map_or(0.0, |x| x.value / 1e3);
    let recv = tracer
        .summary()
        .get("operators.hub.try_next")
        .map_or(0, |a| a.self_ns);
    out.push(
        "operators.hub.recv_ns_per_match",
        recv as f64 / run.received_total.max(1) as f64,
    );
    out.push("operators.session.latency_p90_us", pct(90.0));
    out.push("operators.session.latency_p99_us", pct(99.0));
    out.push(
        "operators.session.latency_max_us",
        lat.last().map_or(0.0, |&x| x as f64 / 1e3),
    );
    let late = lat.len() - lat.partition_point(|&x| x <= 10_000_000);
    out.push(
        "operators.session.late_over_10ms_frac",
        late as f64 / lat.len().max(1) as f64,
    );
    out.push(
        "bench.pace_max_lag_us",
        run.lateness.max_lag_ns as f64 / 1e3,
    );
    out.push("bench.pace_late_frac", run.lateness.late_frac());
}

fn digest_of(matches: &[aoj_operators::Match], gap: Option<u64>) -> MatchDigest {
    let mut d = MatchDigest::default();
    for m in matches {
        if oracle::within_gap(gap, m.r_seq, m.s_seq) {
            d.fold(m.r_seq, m.s_seq);
        }
    }
    d
}

/// The head under the recovery supervisor: throughput against a bare
/// session, then one injected kill and the time recovery took.
fn supervise_metrics(
    out: &mut Outcome,
    tracer: &mut Tracer,
    spec: &Spec,
    head: &[(Rel, StreamItem)],
    scratch: &Path,
) {
    // Shrink the head until the supervisor's match log stays small.
    let mut n = head.len();
    let mut want = oracle::reference(&head[..n], &spec.predicate, spec.exact_gap());
    while want.count > SUPERVISED_MAX_MATCHES {
        n /= 2;
        want = oracle::reference(&head[..n], &spec.predicate, spec.exact_gap());
    }
    let head = &head[..n];
    let builder = || {
        spec.builder()
            .with_backend(BackendChoice::Threaded)
            .with_checkpoint_every(CHECKPOINT_EVERY.min(n as u64 / 4).max(1))
    };
    let bare = saturated_rep(
        &spec.on(BackendChoice::Threaded),
        head,
        false,
        &mut Tracer::disabled(),
    );

    let check = |out: &mut Outcome, matches: &[aoj_operators::Match]| {
        out.attempted += n as u64;
        out.failed += oracle::distance(&digest_of(matches, spec.exact_gap()), &want).min(n as u64);
    };
    let supervised = |plan: FaultPlan, dir: &str, tracer: &mut Tracer| {
        let dir = scratch.join(dir);
        let t0 = Instant::now();
        let outcome = tracer.span("operators.supervise.session", |_| {
            let mut s = SupervisedSession::open(builder().with_fault_plan(plan), &dir);
            for &(rel, item) in head {
                s.push(rel, item);
            }
            s.close()
        });
        (outcome, t0.elapsed().as_secs_f64())
    };

    let (clean, clean_s) = supervised(FaultPlan::new(), "supervised", tracer);
    check(out, &clean.matches);
    out.push("operators.supervise.tps_ratio", bare.wall_s / clean_s);

    let plan = FaultPlan::new().kill_after_tuples(1, n as u64 / 2);
    let (crashed, _) = supervised(plan, "supervised-kill", tracer);
    check(out, &crashed.matches);
    if crashed.stats.crashes == 0 {
        // The kill never fired: nothing was recovered, nothing measured.
        out.failed += 1;
    }
    // The one number here that is the program's own clock, not the
    // benchmark's: detection, rollback and respawn as the supervisor
    // timed them (the replay that follows is ordinary ingest). The wall
    // time a crash adds is smaller than the run-to-run noise of the run.
    let stats = crashed.stats;
    out.push(
        "operators.supervise.recovery_ms",
        (stats.detection_latency_us + stats.recovery_time_us) as f64 / 1e3,
    );
}

/// The head on the simulator and on both live backends.
fn backend_metrics(
    out: &mut Outcome,
    tracer: &mut Tracer,
    spec: &Spec,
    head: &[(Rel, StreamItem)],
) {
    let n = head.len() as f64;
    let want = oracle::reference(head, &spec.predicate, None);
    let check = |out: &mut Outcome, report: &RunReport| {
        out.attempted += head.len() as u64;
        if spec.window.is_none() {
            out.failed += report_distance(report, &want).min(head.len() as u64);
        }
    };

    let t0 = Instant::now();
    let sim = tracer.span("simnet.sim.session", |_| {
        let mut s = JoinSession::open(spec.on(BackendChoice::Sim).builder());
        s.push_batch(head.iter().copied())
            .expect("simulator refused a push");
        s.close()
    });
    let sim_wall_s = t0.elapsed().as_secs_f64();
    check(out, &sim);
    out.push("simnet.sim.wall_us_per_tuple", sim_wall_s * 1e6 / n);
    out.push("simnet.sim.virtual_tps", sim.throughput);
    out.push("simnet.sim.virtual_p50_us", sim.p50_latency_us as f64);

    let off = &mut Tracer::disabled();
    let threaded = saturated_rep(&spec.on(BackendChoice::Threaded), head, false, off);
    check(out, &threaded.report);
    let tcp = saturated_rep(&spec.on(BackendChoice::Tcp), head, false, off);
    check(out, &tcp.report);
    out.push("runtime.parallel_speedup", sim_wall_s / threaded.wall_s);
    out.push("net.backend.spawn_ms", tcp.setup_s * 1e3);
    out.push("net.backend.tcp_vs_threaded", threaded.wall_s / tcp.wall_s);
}

/// Run the traced pass of `spec` and report every per-layer metric.
/// Spans go to `trace_path`; `scratch` holds checkpoint files meanwhile.
pub fn per_layer(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
    scratch: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(spec.name);
    let off = &mut Tracer::disabled();
    let (arrivals, gen_s, oracle_s, rep_spread, overhead);
    match spec.load {
        Load::Saturated {
            tuples_per_rep,
            probe_rate_tps,
        } => {
            let t0 = Instant::now();
            arrivals = spec.arrivals(tuples_per_rep, seed);
            gen_s = t0.elapsed().as_secs_f64();
            let n = arrivals.len() as u64;
            let probe = Probe::over(&arrivals, probe_rate_tps, seconds);
            let t0 = Instant::now();
            let want = oracle::reference(&arrivals, &spec.predicate, None);
            oracle_s = t0.elapsed().as_secs_f64();
            let want_probe = oracle::reference(probe.arrivals, &spec.predicate, None);

            let mut last = saturated_rep(spec, &arrivals, false, off);
            check_rep(&mut out, &last, &want, n);
            let (mut plain, mut traced, mut traced_wall) = (vec![], vec![], 0.0);
            for _ in 0..OVERHEAD_PAIRS {
                let rep = saturated_rep(spec, &arrivals, false, off);
                check_rep(&mut out, &rep, &want, n);
                plain.push(n as f64 / rep.wall_s);
                last = saturated_rep(spec, &arrivals, false, &mut tracer);
                check_rep(&mut out, &last, &want, n);
                traced.push(n as f64 / last.wall_s);
                traced_wall += last.wall_s;
            }
            rep_spread = iqr_frac(&plain);
            overhead = 1.0 - median(&traced) / median(&plain);
            session_metrics(&mut out, &tracer, n * OVERHEAD_PAIRS as u64, traced_wall);
            report_metrics(&mut out, &last.report);

            let run = paced_run(
                spec,
                probe.arrivals,
                probe.prefill,
                probe_rate_tps,
                DISCARD_SHARE,
                &mut tracer,
            );
            check_paced(
                &mut out,
                spec,
                &run,
                &want_probe,
                probe.arrivals.len() as u64,
            );
            stream_metrics(&mut out, &tracer, &run);
        }
        Load::Paced { rate_tps } => {
            // Half the time untraced, half traced, same stream.
            let n = Schedule::new(rate_tps).tuples_in(seconds / 2.0);
            let t0 = Instant::now();
            arrivals = spec.arrivals(n, seed);
            gen_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let want = oracle::reference(&arrivals, &spec.predicate, spec.exact_gap());
            oracle_s = t0.elapsed().as_secs_f64();
            let plain = paced_run(spec, &arrivals, 0, rate_tps, DISCARD_SHARE, off);
            let run = paced_run(spec, &arrivals, 0, rate_tps, DISCARD_SHARE, &mut tracer);
            check_paced(&mut out, spec, &plain, &want, n as u64);
            check_paced(&mut out, spec, &run, &want, n as u64);
            rep_spread = 0.0;
            overhead = 1.0 - plain.wall_s / run.wall_s;
            session_metrics(&mut out, &tracer, n as u64, run.wall_s);
            report_metrics(&mut out, &run.report);
            stream_metrics(&mut out, &tracer, &run);
        }
    }

    let head = &arrivals[..HEAD_TUPLES.min(arrivals.len())];
    let tuples = layers::routed(head);
    layers::core_layers(&mut out, &mut tracer, &tuples);
    layers::joinalg_layers(&mut out, &mut tracer, &tuples);
    layers::coalescer_layer(&mut out, &mut tracer, &tuples);
    layers::mailbox_layers(&mut out, &mut tracer, &tuples);
    layers::wire_layers(&mut out, &mut tracer, &tuples);
    layers::checkpoint_layers(&mut out, &mut tracer, spec, head, scratch);
    supervise_metrics(&mut out, &mut tracer, spec, head, scratch);
    backend_metrics(&mut out, &mut tracer, spec, head);

    out.push("bench.gen_s", gen_s);
    out.push("bench.oracle_s", oracle_s);
    out.push("bench.rep_spread_frac", rep_spread);
    out.push("bench.trace_overhead_frac", overhead);
    tracer
        .write_json(trace_path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_path.display()));
    out
}
