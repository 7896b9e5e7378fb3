//! `reproduce` — regenerate the tables and figures of the paper's
//! evaluation section (§5) on the simulated cluster, and run the
//! verified scenarios on the simulator and the live backends.
//!
//! ```text
//! cargo run --release -p aoj-bench --bin reproduce -- --help
//! cargo run --release -p aoj-bench --bin reproduce -- table2
//! cargo run --release -p aoj-bench --bin reproduce -- scenarios
//! ```
//!
//! One optional argument: a name from
//! [`EXPERIMENTS`](aoj_bench::experiments::EXPERIMENTS), `scenarios`, or
//! `all` (the default). There are no options, and nothing is written:
//! an experiment prints its tables and panics on a violated invariant.
//! `--help` lists the names. Speed is measured by `bash
//! benchmark/run.sh`, never here.

use aoj_bench::experiments::{select, usage};

fn main() {
    // The TCP backend re-execs this binary as its worker processes:
    // divert to the worker loop before anything else. In the
    // coordinator role this returns immediately.
    aoj_net::init_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.as_slice() {
        [] => "all",
        [help] if help == "--help" || help == "-h" => {
            print!("{}", usage());
            return;
        }
        [name] => name.as_str(),
        _ => usage_error("expected at most one experiment name"),
    };
    let Some(entries) = select(name) else {
        usage_error(&format!("unknown experiment `{name}`"));
    };
    // Scenarios that cover the tcp backend resolve it through this
    // registration; it costs nothing when none runs.
    aoj_net::install();
    let start = std::time::Instant::now();
    for (_, run) in entries {
        run();
    }
    eprintln!(
        "\n[reproduce {name}: {:.1}s wall clock]",
        start.elapsed().as_secs_f64()
    );
}

fn usage_error(msg: &str) -> ! {
    eprint!("reproduce: {msg}\n\n{}", usage());
    std::process::exit(2);
}
