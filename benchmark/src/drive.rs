//! Driving a live session from the benchmark's single main thread:
//! one saturated (closed-loop) rep, or one paced (open-loop) run.
//!
//! Everything is measured from outside — wall clocks around calls into
//! `SessionBuilder` / `JoinSession` / `SessionHandle` /
//! `MatchSubscription`, optionally wrapped in trace spans.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use aoj_core::tuple::Rel;
use aoj_datagen::queries::StreamItem;
use aoj_operators::report::MatchDigest;
use aoj_operators::{JoinSession, MatchSubscription, PushError, RunReport, SessionHandle};

use crate::oracle::within_gap;
use crate::pace::{Lateness, Schedule};
use crate::procfs;
use crate::trace::Tracer;
use crate::workloads::Spec;

/// Tuples per `push_batch` call on the closed-loop path: one data-plane
/// batch.
const SAT_CHUNK: usize = 64;
/// How often a TCP rep looks at its workers' `VmHWM`.
const WORKER_SAMPLE_EVERY: Duration = Duration::from_millis(250);
/// Longest the paced generator sleeps between looks at the match
/// stream while it waits for the next slot.
const PACED_POLL: Duration = Duration::from_micros(50);
/// A paced tuple admitted this long after its slot counts as failed.
/// Migration stalls hold admission up for 0.1–0.4 s on this stream; the
/// limit sits an order of magnitude above that, and above the one-second
/// freezes this virtual machine itself suffers now and then (one run in
/// fifty saw a 1.07 s one).
const ADMISSION_LIMIT_NS: u64 = 5_000_000_000;
/// How long a paced run keeps receiving after its last push before it
/// closes the session; matches that only arrive during the close are
/// checked for correctness but carry no honest receive instant.
const PACED_TAIL: Duration = Duration::from_millis(20);
/// Latency samples are kept per 10 ms of schedule, so a caller can tell
/// the calm stretches of a run from the disturbed ones. The host's
/// interference comes in bursts of milliseconds to seconds; a stretch
/// much longer than a burst is never wholly calm.
pub const LATENCY_SEGMENT_NS: u64 = 10_000_000;
/// How often set-up looks for the first processed copy.
const READY_POLL: Duration = Duration::from_micros(20);

/// Block until the session reports its first processed tuple copy, so
/// set-up covers everything a backend starts lazily (worker threads,
/// TCP process spawns and handshakes), not just the `open` call.
fn await_first_processed(session: &SessionHandle) {
    while session.stats().processed_copies == 0 {
        std::thread::sleep(READY_POLL);
    }
}

/// What one closed-loop rep measured.
pub struct SatRep {
    /// Builder construction → `open` → first `push_batch` → first tuple
    /// copy processed.
    pub setup_s: f64,
    /// First push → `close()` returned (drain included).
    pub wall_s: f64,
    /// The session's own report (digest, counts, ILF trace).
    pub report: RunReport,
    /// Tuples a push refused.
    pub refused: u64,
    /// Sum over worker pids of the last `VmHWM` seen, MB (0 unless
    /// `sample_workers`).
    pub workers_peak_mb: f64,
}

/// Push `arrivals` as fast as backpressure admits, then close.
pub fn saturated_rep(
    spec: &Spec,
    arrivals: &[(Rel, StreamItem)],
    sample_workers: bool,
    tracer: &mut Tracer,
) -> SatRep {
    let t_setup = Instant::now();
    let mut session = tracer.span("operators.session.open", |_| {
        JoinSession::open(spec.builder())
    });
    let t_first = Instant::now();
    let mut setup_s = 0.0;
    let mut refused = 0u64;
    let mut worker_hwm: HashMap<String, f64> = HashMap::new();
    let mut last_sample = Instant::now();
    for (i, chunk) in arrivals.chunks(SAT_CHUNK).enumerate() {
        let pushed = tracer.span("operators.session.push_batch", |_| {
            session.push_batch(chunk.iter().copied())
        });
        if pushed.is_err() {
            refused += chunk.len() as u64;
        }
        if i == 0 {
            await_first_processed(&session);
            setup_s = t_setup.elapsed().as_secs_f64();
        }
        if sample_workers && last_sample.elapsed() >= WORKER_SAMPLE_EVERY {
            last_sample = Instant::now();
            for pid in procfs::child_pids() {
                if let Some(mb) = procfs::peak_rss_mb(&pid) {
                    worker_hwm.insert(pid, mb);
                }
            }
        }
    }
    let report = tracer.span("operators.session.close", |_| session.close());
    SatRep {
        setup_s,
        wall_s: t_first.elapsed().as_secs_f64(),
        report,
        refused,
        workers_peak_mb: worker_hwm.values().sum(),
    }
}

/// What one open-loop run measured.
pub struct PacedRun {
    /// Builder construction → `open` → `subscribe` → first `push_batch`
    /// → first tuple copy processed.
    pub setup_s: f64,
    /// How long the session took to admit the prefill.
    pub prefill_s: f64,
    /// First slot (after the prefill) → `close()` returned.
    pub wall_s: f64,
    /// The session's own report.
    pub report: RunReport,
    /// Per-match latency, receive instant − slot of the later tuple, in
    /// ns (saturating at ~4.29 s), for matches whose later tuple was
    /// paced, whose slot lies past the discarded head and that were
    /// received before the close; grouped by the [`LATENCY_SEGMENT_NS`]
    /// stretch of the schedule the slot falls in.
    pub latencies_ns: Vec<Vec<u32>>,
    /// How late the generator ran, past the discarded head.
    pub lateness: Lateness,
    /// Tuples a push refused.
    pub refused: u64,
    /// Tuples admitted more than [`ADMISSION_LIMIT_NS`] after their slot.
    pub late_admitted: u64,
    /// Digest of the received matches (those within `gap`, if given).
    pub received: MatchDigest,
    /// Every received match, whatever its gap.
    pub received_total: u64,
}

struct Receiver {
    sub: MatchSubscription,
    sched: Schedule,
    /// Tuples offered before the schedule starts; they have no slot.
    prefill: u64,
    /// The schedule's zero.
    start: Instant,
    discard_before_ns: u64,
    gap: Option<u64>,
    timed: bool,
    latencies_ns: Vec<Vec<u32>>,
    received: MatchDigest,
    received_total: u64,
}

impl Receiver {
    /// Take every match that is ready right now. An empty poll records
    /// no span: only bursts that received something are timed.
    fn drain(&mut self, tracer: &mut Tracer) {
        let Some(first) = self.sub.try_next() else {
            return;
        };
        tracer.span("operators.hub.try_next", |_| {
            let mut next = Some(first);
            while let Some(m) = next {
                self.received_total += 1;
                if within_gap(self.gap, m.r_seq, m.s_seq) {
                    self.received.fold(m.r_seq, m.s_seq);
                }
                let later = m.r_seq.max(m.s_seq);
                let slot = self.sched.slot_ns(later.saturating_sub(self.prefill));
                if self.timed && later >= self.prefill && slot >= self.discard_before_ns {
                    let now = self.start.elapsed().as_nanos() as u64;
                    let lat = now.saturating_sub(slot).min(u32::MAX as u64);
                    let segment = (slot / LATENCY_SEGMENT_NS) as usize;
                    if self.latencies_ns.len() <= segment {
                        self.latencies_ns.resize_with(segment + 1, Vec::new);
                    }
                    self.latencies_ns[segment].push(lat as u32);
                }
                next = self.sub.try_next();
            }
        });
    }
}

/// Push `chunk` without ever blocking, receiving matches while the
/// ingest queue is full; `false` if the session refused it.
fn admit(
    session: &mut SessionHandle,
    rx: &mut Receiver,
    tracer: &mut Tracer,
    chunk: &[(Rel, StreamItem)],
) -> bool {
    tracer.span("operators.session.push_batch", |tracer| {
        for &(rel, item) in chunk {
            loop {
                match session.try_push(rel, item) {
                    Ok(()) => break,
                    Err(PushError::Full) => {
                        rx.drain(tracer);
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed) => return false,
                }
            }
        }
        true
    })
}

/// Offer the first `prefill` of `arrivals` as fast as the session admits
/// them, then the rest at `rate_tps` on a schedule that never slows with
/// the session, receiving matches between pushes on the same thread.
/// Pushes never block: a single thread that parked inside a full ingest
/// queue could not drain the match stream whose backpressure closed it.
/// Samples from the first `discard_share` of the schedule are dropped.
pub fn paced_run(
    spec: &Spec,
    arrivals: &[(Rel, StreamItem)],
    prefill: usize,
    rate_tps: u64,
    discard_share: f64,
    tracer: &mut Tracer,
) -> PacedRun {
    let sched = Schedule::new(rate_tps);
    let (head, paced) = arrivals.split_at(prefill);
    let t_setup = Instant::now();
    let mut session = tracer.span("operators.session.open", |_| {
        JoinSession::open(spec.builder())
    });
    let sub = session.subscribe();
    let run_ns = sched.slot_ns(paced.len() as u64);
    let mut rx = Receiver {
        sub,
        sched,
        prefill: prefill as u64,
        start: Instant::now(),
        discard_before_ns: (run_ns as f64 * discard_share) as u64,
        gap: spec.exact_gap(),
        timed: true,
        latencies_ns: Vec::new(),
        received: MatchDigest::default(),
        received_total: 0,
    };
    let mut setup_s = None;
    let mut lateness = Lateness::default();
    let (mut refused, mut late_admitted) = (0u64, 0u64);
    for chunk in head.chunks(SAT_CHUNK) {
        if !admit(&mut session, &mut rx, tracer, chunk) {
            refused += chunk.len() as u64;
        }
        setup_s.get_or_insert_with(|| {
            await_first_processed(&session);
            t_setup.elapsed().as_secs_f64()
        });
        rx.drain(tracer);
    }
    let prefill_s = t_setup.elapsed().as_secs_f64();
    rx.start = Instant::now();
    let start = rx.start;
    let now_ns = || start.elapsed().as_nanos() as u64;
    for (i, chunk) in paced.chunks(sched.chunk()).enumerate() {
        let due = sched.slot_ns((i * sched.chunk()) as u64);
        let began = loop {
            rx.drain(tracer);
            let now = now_ns();
            if now >= due {
                break now;
            }
            std::thread::sleep(Duration::from_nanos(due - now).min(PACED_POLL));
        };
        if due >= rx.discard_before_ns {
            lateness.record(due, began);
        }
        if !admit(&mut session, &mut rx, tracer, chunk) {
            refused += chunk.len() as u64;
        } else if now_ns() - due > ADMISSION_LIMIT_NS {
            late_admitted += chunk.len() as u64;
        }
        setup_s.get_or_insert_with(|| {
            await_first_processed(&session);
            t_setup.elapsed().as_secs_f64()
        });
    }
    let tail_until = Instant::now() + PACED_TAIL;
    while Instant::now() < tail_until {
        rx.drain(tracer);
        std::thread::sleep(PACED_POLL);
    }
    let report = tracer.span("operators.session.close", |_| session.close());
    let wall_s = start.elapsed().as_secs_f64();
    rx.timed = false;
    rx.drain(tracer);
    PacedRun {
        setup_s: setup_s.unwrap_or_default(),
        prefill_s,
        wall_s,
        report,
        latencies_ns: rx.latencies_ns,
        lateness,
        refused,
        late_admitted,
        received: rx.received,
        received_total: rx.received_total,
    }
}
