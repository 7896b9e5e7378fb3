//! Shared experiment plumbing: scale constants, workload construction,
//! run helpers and table formatting.

use aoj_core::decision::DecisionConfig;
use aoj_datagen::queries::Workload;
use aoj_datagen::stream::{interleave, Arrivals};
use aoj_datagen::tpch::{ScaledGb, TpchDb};
use aoj_datagen::zipf::Skew;
use aoj_operators::{run, OperatorKind, RunReport, SessionBuilder, SourcePacing};

/// Simulated-GB → RAM-budget calibration: one simulated GB of lineitem is
/// ~6000 rows × 144 B ≈ 0.86 "simulated MB". The paper gives each joiner a
/// 2 GB heap against 10–640 GB datasets; we keep the same *relative*
/// headroom.
pub const SIM_MB: u64 = 1 << 20;

/// RAM budget (bytes) that comfortably fits the 10 GB-scale workloads on
/// 64 machines (the paper: "we increase the number of machines to 64 such
/// that StaticMid is given enough resources") but still lets a
/// skew-hammered SHJ joiner overflow ("SHJ could not fully operate in
/// memory even with 64 machines").
pub const BUDGET_64_MACHINES: u64 = 13 * SIM_MB / 10;

/// RAM budget for the 16-machine Table 2 runs: the optimal mapping fits,
/// the square grid and a hot SHJ partition do not.
pub const BUDGET_16_MACHINES: u64 = 7 * SIM_MB / 10;

/// Disk-tier cost multiplier: BerkeleyDB random access vs in-memory probe
/// is ~two orders of magnitude (the paper's Fig. 6c shows SHJ two orders
/// slower once spilled).
pub const SPILL_PENALTY: u64 = 100;

/// Default seed for experiment determinism.
pub const SEED: u64 = 0xA01_2014;

/// Generate the TPC-H database for one experiment.
pub fn db(gb: u32, skew: Skew) -> TpchDb {
    TpchDb::generate(ScaledGb::new(gb), skew, SEED)
}

/// Default interleaved arrivals for a workload.
pub fn arrivals_of(w: &Workload) -> Arrivals {
    interleave(w, SEED ^ 0x57AE)
}

/// The session configuration for `kind` on `j` joiners over `w`.
pub fn config(j: u32, kind: OperatorKind, w: &Workload) -> SessionBuilder {
    SessionBuilder::new(j, kind)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
}

/// Run one operator over a workload with a RAM budget.
pub fn run_operator(
    kind: OperatorKind,
    w: &Workload,
    arrivals: &Arrivals,
    j: u32,
    ram_budget: u64,
) -> RunReport {
    run_operator_paced(kind, w, arrivals, j, ram_budget, SourcePacing::saturating())
}

/// Run with explicit pacing (latency experiments).
pub fn run_operator_paced(
    kind: OperatorKind,
    w: &Workload,
    arrivals: &Arrivals,
    j: u32,
    ram_budget: u64,
    pacing: SourcePacing,
) -> RunReport {
    let cfg = config(j, kind, w)
        .with_ram_budget(ram_budget)
        .with_spill_penalty(SPILL_PENALTY)
        .with_decision(warmup_decision(arrivals))
        .with_pacing(pacing);
    run(arrivals, &cfg)
}

/// The paper's adaptation warm-up (§5.4: "begin adapting after at least
/// 500K tuples, less than 1% of the total input"), scaled: 1% of the
/// stream volume in bytes.
pub fn warmup_decision(arrivals: &Arrivals) -> DecisionConfig {
    let total_bytes: u64 = arrivals.iter().map(|(_, i)| i.bytes as u64).sum();
    DecisionConfig {
        epsilon_num: 1,
        epsilon_den: 1,
        min_total: total_bytes / 100,
    }
}

/// Markdown-ish table printer for harness output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format seconds with the Table 2 overflow marker.
pub fn secs_star(report: &RunReport) -> String {
    format!(
        "{:.2}{}",
        report.exec_secs(),
        if report.overflowed() { "*" } else { "" }
    )
}

/// Section banner.
pub fn banner(title: &str) {
    println!();
    println!("== {title} ==");
}
