//! The one place a metric is defined: name, unit, direction and — for
//! end-to-end metrics — the share by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json` repeats these tables for the
//! driver; a unit test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the reference median (end-to-end
    /// metrics only; per-layer metrics are never gated).
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the operator sees. Reported by `--trace 0`.
///
/// The bounds follow the noise measured on the 2-vCPU shared host (see
/// the README): anything timed drifts by 10–20% between runs of the same
/// code when the neighbours wake up, so the four timed metrics carry the
/// widest bound the driver admits; memory and the ILF ratio repeat to a
/// percent or less and are gated tightly.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("throughput_tps", "1/s", Better::Higher, 0.25),
    gated("cpu_us_per_tuple", "us", Better::Lower, 0.25),
    gated("latency_p50_us", "us", Better::Lower, 0.25),
    gated("peak_rss_mb", "MB", Better::Lower, 0.1),
    gated("ilf_ratio", "ratio", Better::Lower, 0.02),
];

/// Single layers, `<crate>.<module>.<metric>`. Reported by `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    lower("operators.session.open_ms", "ms"),
    lower("operators.session.push_ns_per_tuple", "ns"),
    lower("operators.session.push_blocked_frac", "ratio"),
    lower("operators.session.close_drain_ms", "ms"),
    lower("operators.report.msgs_per_ktuple", "count"),
    lower("operators.report.net_bytes_per_tuple", "B"),
    lower("operators.report.migrations", "count"),
    lower("operators.report.migration_bytes_per_tuple", "B"),
    lower("operators.report.stored_imbalance", "ratio"),
    lower("operators.report.match_imbalance", "ratio"),
    lower("operators.report.internal_avg_latency_us", "us"),
    lower("operators.hub.recv_ns_per_match", "ns"),
    lower("operators.session.latency_p90_us", "us"),
    lower("operators.session.latency_p99_us", "us"),
    lower("operators.session.latency_max_us", "us"),
    lower("operators.session.late_over_10ms_frac", "ratio"),
    lower("bench.pace_max_lag_us", "us"),
    lower("bench.pace_late_frac", "ratio"),
    lower("core.ticket.route_ns_per_tuple", "ns"),
    lower("core.sketch.observe_ns_per_tuple", "ns"),
    lower("core.decision.observe_ns_per_tuple", "ns"),
    lower("core.lifecycle.window_ns_per_tuple", "ns"),
    lower("joinalg.hash.insert_ns_per_tuple", "ns"),
    lower("joinalg.hash.probe_ns_per_tuple", "ns"),
    lower("joinalg.hash.heap_bytes_per_tuple", "B"),
    lower("joinalg.hash.evict_ns_per_tuple", "ns"),
    lower("joinalg.band.insert_ns_per_tuple", "ns"),
    lower("joinalg.band.probe_ns_per_tuple", "ns"),
    lower("joinalg.band.probe_ns_per_match", "ns"),
    lower("joinalg.band.candidates_per_match", "ratio"),
    lower("operators.batch.coalesce_ns_per_tuple", "ns"),
    lower("runtime.mailbox.push_pop_ns_per_msg", "ns"),
    lower("runtime.mailbox.handoff_us", "us"),
    lower("net.wire.encode_ns_per_tuple", "ns"),
    lower("net.wire.decode_ns_per_tuple", "ns"),
    lower("net.wire.bytes_per_tuple", "B"),
    lower("core.lifecycle.ckpt_encode_ms", "ms"),
    lower("core.lifecycle.ckpt_decode_ms", "ms"),
    lower("core.lifecycle.ckpt_bytes_per_tuple", "B"),
    higher("operators.supervise.tps_ratio", "ratio"),
    lower("operators.supervise.recovery_ms", "ms"),
    lower("simnet.sim.wall_us_per_tuple", "us"),
    higher("simnet.sim.virtual_tps", "1/s"),
    lower("simnet.sim.virtual_p50_us", "us"),
    higher("runtime.parallel_speedup", "ratio"),
    lower("net.backend.spawn_ms", "ms"),
    higher("net.backend.tcp_vs_threaded", "ratio"),
    lower("bench.gen_s", "s"),
    lower("bench.oracle_s", "s"),
    lower("bench.rep_spread_frac", "ratio"),
    lower("bench.trace_overhead_frac", "ratio"),
];

/// What one run of one workload reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Tuples offered to the operator.
    pub attempted: u64,
    /// Tuples refused, admitted over five seconds late, or (capped at the
    /// tuples of the rep) pairs by which a result missed the reference.
    pub failed: u64,
    /// `(name, value)` in the order measured.
    pub values: Vec<(&'static str, f64)>,
    /// Rep and sample counts, for the human-readable echo.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one measured value.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite");
        self.values.push((name, value));
    }

    /// The value measured for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The values in `defs` order. Panics unless exactly the metrics of
    /// `defs` were measured: the driver is promised every one of them.
    pub fn ordered(&self, defs: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        assert_eq!(self.values.len(), defs.len(), "measured {:?}", self.values);
        defs.iter()
            .map(|d| {
                let v = self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("{} was not measured", d.name));
                (d, v)
            })
            .collect()
    }

    /// The driver's result line: one JSON object, values with all their
    /// digits.
    pub fn to_json(&self, defs: &'static [MetricDef]) -> String {
        let metrics: Vec<String> = self
            .ordered(defs)
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Read a result line back (the orchestrator parses its children's).
/// Only the shape [`Outcome::to_json`] writes is understood.
pub fn parse_result_line(line: &str, defs: &'static [MetricDef]) -> Option<Outcome> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut out = Outcome {
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        ..Outcome::default()
    };
    for d in defs {
        let at = line.find(&format!("\"{}\": {{\"value\": ", d.name))?;
        let rest = &line[at + d.name.len() + 14..];
        out.push(d.name, rest[..rest.find(',')?].parse().ok()?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn result_line_round_trips() {
        let mut out = Outcome {
            attempted: 1000,
            failed: 0,
            ..Outcome::default()
        };
        for (i, d) in END_TO_END.iter().enumerate() {
            out.push(d.name, 1.5 + i as f64 / 7.0);
        }
        let line = out.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0,"));
        let back = parse_result_line(&line, END_TO_END).unwrap();
        assert_eq!((back.attempted, back.failed), (1000, 0));
        assert_eq!(back.values, out.values);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    /// `BENCHMARK.json` is written by hand in one canonical layout; every
    /// entry of the tables above must appear in it verbatim and nothing
    /// else may.
    #[test]
    fn manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let mut entries = 0;
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.label(),
                d.bound.unwrap()
            );
            assert!(text.contains(&entry), "missing {entry}");
            entries += 1;
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.label()
            );
            assert!(text.contains(&entry), "missing {entry}");
            entries += 1;
        }
        for w in workloads::all() {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "missing {entry}");
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            entries += 1;
        }
        assert_eq!(text.matches("\"name\":").count(), entries);
    }
}
