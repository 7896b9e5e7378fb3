//! The span recorder behind `--trace 1`.
//!
//! Spans are recorded by the benchmark, around its calls into each
//! layer's public functions — nothing inside the operator is timed.
//! They are kept in memory and written out once, when the run ends. A
//! layer's **self time** is its spans' duration minus what their child
//! spans cover.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Per-name totals over every recorded span.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
}

/// An in-memory span log for one workload. A disabled tracer records
/// nothing, so one call site serves the untraced and the traced pass.
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A fresh log; `workload` is stamped on every span written out.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            enabled: true,
            workload,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer whose [`span`](Tracer::span) only runs the closure.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new("")
        }
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Nanoseconds since the tracer started: the clock spans are on.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record an already-measured interval as a child of the open span
    /// — for a call made many times inside one batch, whose summed time
    /// is worth one span, not thousands.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied().unwrap_or(NO_PARENT),
            });
        }
    }

    /// Totals by span name.
    pub fn summary(&self) -> HashMap<&'static str, Agg> {
        let dur = |s: &Span| s.end_ns - s.start_ns;
        let mut self_ns: Vec<u64> = self.spans.iter().map(dur).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut self_ns[s.parent as usize];
                *p = p.saturating_sub(dur(s));
            }
        }
        let mut out: HashMap<&'static str, Agg> = HashMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += dur(s);
            a.self_ns += own;
        }
        out
    }

    /// Write every span as `{name, start_ns, end_ns, parent, workload}`
    /// (`parent` is the index of the causing span, or null).
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\"}}{}",
                s.name, s.start_ns, s.end_ns, parent, self.workload, comma
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("unit");
        t.span("outer", |t| {
            spin(200_000);
            t.span("inner", |_| spin(300_000));
            t.span("inner", |_| spin(300_000));
        });
        let s = t.summary();
        let (outer, inner) = (s["outer"], s["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 600_000 && inner.self_ns == inner.total_ns);
        assert!(outer.total_ns >= 800_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut t = Tracer::new("unit");
        t.span("a", |t| t.span("b", |_| ()));
        let path = crate::out_dir().join(format!("trace-test-{}.json", std::process::id()));
        t.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.contains("\"name\":\"a\"") && text.contains("\"parent\":null"));
        assert!(text.contains("\"name\":\"b\"") && text.contains("\"parent\":0"));
        assert!(text.contains("\"workload\":\"unit\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(t.summary().is_empty());
    }
}
