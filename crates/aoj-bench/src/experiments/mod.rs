//! Everything `reproduce` can run, as one table: [`EXPERIMENTS`].
//!
//! Two kinds of row. The **paper artifacts** (`table2`, `fig6`–`fig8`,
//! `ablations`; one module each) regenerate §5's tables and figures on
//! the simulated cluster, in virtual time. The **verified scenarios**
//! ([`scenarios`]) drive what the repo adds to the paper's operator on
//! the simulator and the live backends, and panic on a violated
//! invariant. Name lookup, the umbrella names `all` and `scenarios`, and
//! the usage text are all derived from the table.

pub mod ablation;
pub mod common;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod scenarios;
pub mod table2;

pub use common::*;

/// A name `reproduce` accepts and the entry point it runs, which prints
/// to stdout and panics on a violated invariant.
pub type Entry = (&'static str, fn());

/// One row of [`EXPERIMENTS`].
pub struct Experiment {
    /// What `reproduce <name>` runs.
    pub entry: Entry,
    /// One line for the usage text.
    pub about: &'static str,
    /// The panels the entry point goes through, each also runnable alone.
    pub panels: &'static [Entry],
    /// Whether the row is a verified scenario, which `scenarios` runs.
    pub scenario: bool,
}

/// Every experiment, in the order `all` runs them.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        entry: ("table2", table2::run_table2),
        about: "EQ5/EQ7 runtime across skews Z0-Z4, SHJ vs Dynamic vs StaticMid",
        panels: &[],
        scenario: false,
    },
    Experiment {
        entry: ("fig6", fig6::run_fig6),
        about: "input-load factor, cluster storage and execution time",
        panels: &[
            ("fig6a", fig6::run_fig6a),
            ("fig6b", fig6::run_fig6b),
            ("fig6c", fig6::run_fig6c),
            ("fig6d", fig6::run_fig6d),
        ],
        scenario: false,
    },
    Experiment {
        entry: ("fig7", fig7::run_fig7),
        about: "throughput, latency, and the approach to the optimal mapping",
        panels: &[
            ("fig7a", fig7::run_fig7a),
            ("fig7b", fig7::run_fig7b),
            ("fig7c", fig7::run_fig7c),
            ("fig7d", fig7::run_fig7d),
        ],
        scenario: false,
    },
    Experiment {
        entry: ("fig8", fig8::run_fig8),
        about: "weak scalability, and ILF/ILF* under fluctuating |R|/|S|",
        panels: &[
            ("fig8a", fig8::run_fig8a),
            ("fig8b", fig8::run_fig8b),
            ("fig8c", fig8::run_fig8c),
            ("fig8d", fig8::run_fig8d),
        ],
        scenario: false,
    },
    Experiment {
        entry: ("ablations", ablation::run_ablations),
        about: "migration plans, epsilon, blocking migrations, expansion, J=20 groups",
        panels: &[
            ("ablation-migration", ablation::run_ablation_migration),
            ("ablation-epsilon", ablation::run_ablation_epsilon),
            ("ablation-blocking", ablation::run_ablation_blocking),
            ("ablation-elastic", ablation::run_ablation_elastic),
            ("ablation-groups", ablation::run_ablation_groups),
        ],
        scenario: false,
    },
    Experiment {
        entry: ("batching", scenarios::run_batching),
        about:
            "batch 1/16/64/256: one multiset; messages, bytes, flush causes (sim, threaded, tcp)",
        panels: &[],
        scenario: true,
    },
    Experiment {
        entry: ("elastic", scenarios::run_elastic),
        about: "live x4 scale-out J=4 -> 16 within Theorem 4.3's 2x bound (sim, threaded)",
        panels: &[],
        scenario: true,
    },
    Experiment {
        entry: ("contract", scenarios::run_contract),
        about: "the sawtooth J=1 -> 16 -> 1: 1x bound, empty retirees (sim, threaded)",
        panels: &[],
        scenario: true,
    },
    Experiment {
        entry: ("lifecycle", scenarios::run_lifecycle),
        about: "a count window bounds storage, the decider follows it; checkpoint/restore round trip (sim, threaded, tcp)",
        panels: &[],
        scenario: true,
    },
    Experiment {
        entry: ("skew", scenarios::run_skew),
        about: "random routing at Zipf 1.0/1.4: imbalance, makespan, hot keys (sim, threaded, tcp)",
        panels: &[],
        scenario: true,
    },
    Experiment {
        entry: ("faults", scenarios::run_faults),
        about:
            "a worker killed mid-stream: exactly-once recovery, replay volume (sim, threaded, tcp)",
        panels: &[],
        scenario: true,
    },
];

/// The entries `name` runs, in table order: every row for `all`, the
/// scenario rows for `scenarios`, else the one row or panel of that
/// name. `None` for a name the table does not know.
pub fn select(name: &str) -> Option<Vec<Entry>> {
    let rows = EXPERIMENTS.iter();
    let entries: Vec<Entry> = match name {
        "all" => rows.map(|e| e.entry).collect(),
        "scenarios" => rows.filter(|e| e.scenario).map(|e| e.entry).collect(),
        _ => {
            let every = rows.flat_map(|e| std::iter::once(&e.entry).chain(e.panels));
            every.filter(|entry| entry.0 == name).copied().collect()
        }
    };
    (!entries.is_empty()).then_some(entries)
}

/// The `reproduce --help` text.
pub fn usage() -> String {
    let mut text = String::from(
        "usage: reproduce [EXPERIMENT]\n\n\
         Runs one experiment and prints its tables; exits non-zero on a violated\n\
         invariant. Takes no options and writes no file.\n\nexperiments:\n",
    );
    let mut line = |name: &str, about: &str| text.push_str(&format!("  {name:<11}{about}\n"));
    for e in EXPERIMENTS {
        line(e.entry.0, e.about);
        if !e.panels.is_empty() {
            let panels: Vec<&str> = e.panels.iter().map(|p| p.0).collect();
            line("", &format!("one panel of it: {}", panels.join(" ")));
        }
    }
    line(
        "scenarios",
        "the six scenarios, batching to faults (under a minute)",
    );
    line("all", "everything above, in order (the default; minutes)");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(of: &str) -> Vec<&'static str> {
        let entries = select(of).unwrap_or_default();
        entries.iter().map(|entry| entry.0).collect()
    }

    #[test]
    fn every_row_and_panel_is_selected_by_its_own_unique_name() {
        let mut count = 0;
        for e in EXPERIMENTS {
            for (name, _) in std::iter::once(&e.entry).chain(e.panels) {
                assert!(*name != "all" && *name != "scenarios", "reserved name");
                assert_eq!(names(name), [*name], "`{name}` is not unique");
                count += 1;
            }
        }
        assert_eq!(count, 11 + 17);
        assert!(select("wallclock").is_none());
    }

    #[test]
    fn all_and_scenarios_run_every_row_they_should_exactly_once() {
        let scenarios = "batching elastic contract lifecycle skew faults";
        assert_eq!(names("scenarios").join(" "), scenarios);
        let all = format!("table2 fig6 fig7 fig8 ablations {scenarios}");
        assert_eq!(names("all").join(" "), all);
    }

    #[test]
    fn usage_names_every_row_panel_and_umbrella() {
        let usage = usage();
        let words: Vec<&str> = usage.split_whitespace().collect();
        let named = |name: &str| words.contains(&name);
        for e in EXPERIMENTS {
            assert!(named(e.entry.0), "usage omits `{}`", e.entry.0);
            assert!(e.panels.iter().all(|panel| named(panel.0)));
        }
        assert!(named("all") && named("scenarios"));
    }
}
