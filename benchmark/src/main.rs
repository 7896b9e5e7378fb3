//! The repo benchmark. See `benchmark/README.md`.
//!
//! `--workload NAME` measures one workload in this process and ends
//! with the driver's result line. Without it the binary orchestrates:
//! every workload in a child process of its own (peak memory only
//! repeats in a fresh process), results echoed as a table and written to
//! `benchmark/out/results.json`; `--aa` does that twice and compares.

mod drive;
mod layers;
mod measure;
mod metrics;
mod oracle;
mod pace;
mod procfs;
mod stats;
mod trace;
mod tracepass;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use metrics::{parse_result_line, Better, MetricDef, Outcome, END_TO_END, PER_LAYER};

/// Where results, traces and scratch files go: `benchmark/out/` of the
/// checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--aa]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        // The defaults are BENCHMARK.json's: one fixed seed, `run_seconds`.
        seed: 1,
        seconds: 25.0,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must lie in 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if workloads::find(w).is_none() {
            let names: Vec<_> = workloads::all().iter().map(|s| s.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(args)
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn print_table(spec: &workloads::Spec, out: &Outcome, defs: &'static [MetricDef]) {
    println!("{} — {}", spec.name, spec.why);
    println!("  attempted {} failed {}", out.attempted, out.failed);
    for note in &out.notes {
        println!("  ({note})");
    }
    for (d, v) in out.ordered(defs) {
        println!("  {:<44} {:>16.4} {}", d.name, v, d.unit);
    }
}

/// Measure one workload in this process.
fn run_one(args: &Args, name: &str) -> ExitCode {
    let spec = workloads::find(name).expect("validated by parse_args");
    let defs = defs(args.trace);
    let out = if args.trace {
        let scratch = out_dir().join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("cannot create the scratch directory");
        let trace_path = out_dir().join(format!("trace.{name}.json"));
        let out = tracepass::per_layer(&spec, args.seed, args.seconds, &trace_path, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        println!("wrote {}", trace_path.display());
        out
    } else {
        measure::end_to_end(&spec, args.seed, args.seconds)
    };
    print_table(&spec, &out, defs);
    println!("{}", out.to_json(defs));
    ExitCode::SUCCESS
}

/// Measure one workload in a child process and read its result line;
/// `echo` repeats the child's tables.
fn run_child(args: &Args, name: &str, trace: bool, echo: bool) -> Outcome {
    let exe = std::env::current_exe().expect("cannot find this executable");
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("cannot start the workload's process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{name} failed:\n{stdout}");
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or_default();
    for l in lines.iter().filter(|_| echo) {
        println!("{l}");
    }
    parse_result_line(result, defs(trace))
        .unwrap_or_else(|| panic!("{name} printed no result line: {result}"))
}

fn results_json(rows: &[(String, bool, Outcome)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(name, trace, out)| {
            format!(
                "{{\"workload\": \"{name}\", \"trace\": {trace}, \"result\": {}}}",
                out.to_json(defs(*trace))
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Every workload, each in its own process; with `trace` the traced
/// pass follows the untraced one.
fn run_all(args: &Args) -> ExitCode {
    let mut rows = Vec::new();
    let mut failed = 0;
    for spec in workloads::all() {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let out = run_child(args, spec.name, trace, true);
            failed += out.failed;
            rows.push((spec.name.to_string(), trace, out));
        }
    }
    if args.trace {
        // One file for the whole pass: {"<workload>": [spans...], ...};
        // a span's `parent` indexes its own workload's array.
        let parts: Vec<String> = workloads::all()
            .iter()
            .map(|s| {
                let path = out_dir().join(format!("trace.{}.json", s.name));
                let spans = std::fs::read_to_string(&path).expect("a child wrote no trace");
                format!("\"{}\": {}", s.name, spans.trim_end())
            })
            .collect();
        let path = out_dir().join("trace.json");
        std::fs::write(&path, format!("{{\n{}\n}}\n", parts.join(",\n")))
            .expect("cannot write trace.json");
        println!("wrote {}", path.display());
    }
    std::fs::create_dir_all(out_dir()).expect("cannot create benchmark/out");
    let path = out_dir().join("results.json");
    std::fs::write(&path, results_json(&rows)).expect("cannot write results.json");
    println!("wrote {}", path.display());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} tuples failed");
        ExitCode::FAILURE
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better).
fn worsening(d: &MetricDef, a: f64, b: f64) -> f64 {
    match d.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A threaded session is set up in half a millisecond, most of it two
/// 200 µs timers; one run's median moves by a quarter of that with the
/// host's wake-up latency. The A/A check compares single runs, so it
/// ignores set-up differences below this many seconds. (The driver
/// compares medians of ten runs and needs no floor.)
const SETUP_NOISE_FLOOR_S: f64 = 0.002;

fn noise_floor(d: &MetricDef) -> f64 {
    if d.name == "setup_s" {
        SETUP_NOISE_FLOOR_S
    } else {
        0.0
    }
}

/// The A/A noise check: the untraced benchmark twice over the same
/// code, A and B of each workload back to back. Either set being worse
/// than the other by more than the metric's bound fails — that gate
/// could not tell a regression from noise.
fn run_aa(args: &Args) -> ExitCode {
    let mut exceeded = 0;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "|diff|", "bound"
    );
    for spec in workloads::all() {
        let a = run_child(args, spec.name, false, false);
        let b = run_child(args, spec.name, false, false);
        for ((d, va), (_, vb)) in a.ordered(END_TO_END).into_iter().zip(b.ordered(END_TO_END)) {
            let diff = worsening(d, va, vb).max(worsening(d, vb, va));
            let bound = d.bound.expect("end-to-end metrics are gated");
            let over = diff > bound && (va - vb).abs() > noise_floor(d);
            let verdict = if over { "EXCEEDED" } else { "" };
            exceeded += over as u32;
            println!(
                "{:<20} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {verdict}",
                spec.name,
                d.name,
                va,
                vb,
                diff * 100.0,
                bound * 100.0
            );
        }
        exceeded += (a.failed + b.failed > 0) as u32;
    }
    if exceeded == 0 {
        println!("A/A: every pair within its bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A: {exceeded} pair(s) outside their bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // TCP-backend workers are this binary re-executed: divert before
    // anything else looks at the process.
    aoj_net::init_worker();
    aoj_net::install();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.aa) {
        (Some(name), false) => run_one(&args, name),
        (Some(_), true) => {
            eprintln!("--aa runs every workload; drop --workload\n{USAGE}");
            ExitCode::from(2)
        }
        (None, false) => run_all(&args),
        (None, true) => run_aa(&args),
    }
}
