//! Fault injection, failure detection, and recovery bookkeeping.
//!
//! Three pieces, deliberately backend-agnostic (this crate sits below
//! every execution backend):
//!
//! * [`FaultPlan`] — a *deterministic* fault-injection schedule: kill
//!   machine M once N tuples have been accepted, or on the Kth
//!   background checkpoint. One layer reads it: the recovery controller
//!   (`aoj_operators::SupervisedSession`) counts both and fires each
//!   due kill through the session's one injection surface, which every
//!   backend serves with its own kill primitive (a between-pumps kill
//!   in the simulator, a worker-thread crash on the threaded runtime, a
//!   SIGKILL of the worker process on the TCP backend). The kill point
//!   is the same on every backend, so every recovery path is
//!   reproducible and testable.
//! * [`FailureDetector`] — the coordinator-side timeout/suspicion state
//!   machine. Liveness evidence is any control-plane frame from a
//!   worker (gauge samples double as heartbeats — see the TCP
//!   backend's stats cadence); a registered machine that stays silent
//!   past `DetectorConfig::timeout_us` is declared dead. In-process
//!   backends observe death directly (a crashed worker thread is
//!   immediately visible) and record it without the timeout path.
//! * [`WorkerDeath`] / [`FaultLog`] — the typed surfacing of a
//!   confirmed death: which machine, which incarnation, when, why, and
//!   how long detection took. Backends append to a shared [`FaultLog`];
//!   the session layer polls it and hands deaths to the recovery
//!   controller instead of wedging or failing the run ambiguously.
//! * [`RecoveryStats`] — what a recovery cost: detection latency,
//!   rollback-to-resume time, replayed tuples, and matches suppressed
//!   by exactly-once dedup.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// When an injected fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Once the recovery controller has accepted at least this many
    /// tuples from its caller — the same point in the stream on every
    /// backend.
    AfterTuples {
        /// Accepted-tuple threshold.
        tuples: u64,
    },
    /// Immediately after the Kth automatic background checkpoint
    /// completes (1-based).
    OnCheckpoint {
        /// 1-based checkpoint ordinal.
        k: u32,
    },
}

/// One scheduled kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInjection {
    /// The machine slot to kill.
    pub machine: usize,
    /// When to kill it.
    pub trigger: FaultTrigger,
}

/// A deterministic fault-injection schedule, carried on the session
/// builder and fired by the recovery controller.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled kills, in declaration order.
    pub kills: Vec<FaultInjection>,
}

impl FaultPlan {
    /// An empty plan (no injected faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule a kill of `machine` once `tuples` tuples have been
    /// accepted.
    pub fn kill_after_tuples(mut self, machine: usize, tuples: u64) -> FaultPlan {
        self.kills.push(FaultInjection {
            machine,
            trigger: FaultTrigger::AfterTuples { tuples },
        });
        self
    }

    /// Schedule a kill of `machine` right after the `k`-th (1-based)
    /// automatic background checkpoint.
    pub fn kill_on_checkpoint(mut self, machine: usize, k: u32) -> FaultPlan {
        self.kills.push(FaultInjection {
            machine,
            trigger: FaultTrigger::OnCheckpoint { k },
        });
        self
    }
}

/// Why a worker was declared dead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeathCause {
    /// The worker's control connection dropped mid-session (the TCP
    /// backend's fastest signal — a SIGKILL'd process resets its
    /// sockets immediately).
    ConnectionLost,
    /// No control-plane frame (gauge heartbeat included) for longer
    /// than the detector timeout.
    HeartbeatTimeout {
        /// How long the machine had been silent when declared dead.
        silent_for_us: u64,
    },
    /// `waitpid` reaped a worker process that exited mid-run without
    /// being asked to retire. `exit_code` is `None` when the process
    /// was killed by a signal.
    UnexpectedExit {
        /// The exit code, if the process exited (vs. was signalled).
        exit_code: Option<i32>,
    },
    /// A kill the session injected: recorded directly on the in-process
    /// backends (simulator kill, threaded worker crash), and by the TCP
    /// coordinator when the process it SIGKILLed is detected dead.
    Injected,
}

impl fmt::Display for DeathCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeathCause::ConnectionLost => write!(f, "control connection lost"),
            DeathCause::HeartbeatTimeout { silent_for_us } => {
                write!(f, "heartbeat timeout (silent for {silent_for_us}us)")
            }
            DeathCause::UnexpectedExit { exit_code: Some(c) } => {
                write!(f, "unexpected exit with code {c}")
            }
            DeathCause::UnexpectedExit { exit_code: None } => {
                write!(f, "unexpected exit (killed by signal)")
            }
            DeathCause::Injected => write!(f, "injected kill"),
        }
    }
}

/// A confirmed worker death — the typed error a failed machine produces
/// instead of a wedged or ambiguously failed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerDeath {
    /// The dead machine slot.
    pub machine: usize,
    /// Its incarnation number at death.
    pub gen: u32,
    /// Session time the death was confirmed, in microseconds.
    pub at_us: u64,
    /// Why it was declared dead.
    pub cause: DeathCause,
    /// Injection-to-confirmation latency in microseconds, when the
    /// death was injected and the injection time is known (0 for
    /// organic deaths).
    pub detect_latency_us: u64,
}

impl fmt::Display for WorkerDeath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker machine {} (gen {}) died at {}us: {}",
            self.machine, self.gen, self.at_us, self.cause
        )
    }
}

/// Failure-detector tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Silence threshold: a registered machine with no liveness
    /// evidence for this long is declared dead. Must comfortably exceed
    /// the heartbeat cadence (the TCP backend ships gauges every 5ms
    /// and idle-heartbeats at 100ms).
    pub(crate) timeout_us: u64,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            // 10x the idle heartbeat period: tolerant of scheduler
            // stalls on a loaded host, still sub-second detection.
            timeout_us: 1_000_000,
        }
    }
}

/// The coordinator-side timeout/suspicion state machine.
///
/// Register a machine when it comes up, feed it liveness evidence
/// ([`note_alive`](FailureDetector::note_alive)) on every control-plane
/// frame, deregister on clean retirement/shutdown, and
/// [`poll`](FailureDetector::poll) periodically: machines silent past
/// the timeout come back as [`WorkerDeath`]s (and are deregistered, so
/// each death is reported once).
#[derive(Debug)]
pub struct FailureDetector {
    cfg: DetectorConfig,
    /// machine -> (gen, last liveness evidence, us).
    last_seen: HashMap<usize, (u32, u64)>,
}

impl FailureDetector {
    /// A detector with the given tuning.
    pub fn new(cfg: DetectorConfig) -> FailureDetector {
        FailureDetector {
            cfg,
            last_seen: HashMap::new(),
        }
    }

    /// Start watching `machine` (incarnation `gen`) as of `now_us`.
    pub fn register(&mut self, machine: usize, gen: u32, now_us: u64) {
        self.last_seen.insert(machine, (gen, now_us));
    }

    /// Stop watching `machine` (clean retirement or session shutdown).
    pub fn deregister(&mut self, machine: usize) {
        self.last_seen.remove(&machine);
    }

    /// Record liveness evidence for `machine` at `now_us`. Unknown
    /// machines are ignored (frames can race a deregistration).
    pub fn note_alive(&mut self, machine: usize, now_us: u64) {
        if let Some((_, seen)) = self.last_seen.get_mut(&machine) {
            *seen = (*seen).max(now_us);
        }
    }

    /// Declare machines silent past the timeout dead, deregistering
    /// each so it is reported exactly once.
    pub fn poll(&mut self, now_us: u64) -> Vec<WorkerDeath> {
        let timeout = self.cfg.timeout_us;
        let mut dead: Vec<WorkerDeath> = Vec::new();
        self.last_seen.retain(|&machine, &mut (gen, seen)| {
            let silent = now_us.saturating_sub(seen);
            if silent >= timeout {
                dead.push(WorkerDeath {
                    machine,
                    gen,
                    at_us: now_us,
                    cause: DeathCause::HeartbeatTimeout {
                        silent_for_us: silent,
                    },
                    detect_latency_us: 0,
                });
                false
            } else {
                true
            }
        });
        dead.sort_by_key(|d| d.machine);
        dead
    }
}

/// A shared, append-only log of confirmed deaths: backends (or their
/// reactor threads) record, the session layer drains. It also carries
/// whether the run it watches has returned, so a waiter can sleep until
/// either happens ([`await_end_or_death`](FaultLog::await_end_or_death)).
/// Cheap to clone (it is an `Arc` inside).
#[derive(Clone, Debug, Default)]
pub struct FaultLog {
    inner: Arc<LogInner>,
}

#[derive(Debug, Default)]
struct LogInner {
    state: Mutex<LogState>,
    /// Signalled on every death and at the run's end.
    changed: Condvar,
}

#[derive(Debug, Default)]
struct LogState {
    deaths: Vec<WorkerDeath>,
    run_ended: bool,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.inner.state.lock().unwrap()
    }

    /// Append one confirmed death.
    pub fn record(&self, death: WorkerDeath) {
        self.state().deaths.push(death);
        self.inner.changed.notify_all();
    }

    /// Take every recorded death, leaving the log empty.
    pub fn drain(&self) -> Vec<WorkerDeath> {
        std::mem::take(&mut self.state().deaths)
    }

    /// Snapshot the current deaths without consuming them.
    pub fn peek(&self) -> Vec<WorkerDeath> {
        self.state().deaths.clone()
    }

    /// Has anything died?
    pub fn is_empty(&self) -> bool {
        self.state().deaths.is_empty()
    }

    /// The run this log watches has returned (normally or not).
    pub fn end_run(&self) {
        self.state().run_ended = true;
        self.inner.changed.notify_all();
    }

    /// Block until the watched run has returned or a death is recorded,
    /// whichever comes first; true when the run has returned.
    pub fn await_end_or_death(&self) -> bool {
        let st = self
            .inner
            .changed
            .wait_while(self.state(), |st| !st.run_ended && st.deaths.is_empty())
            .unwrap();
        st.run_ended
    }
}

/// What one (or more) automatic recoveries cost, accumulated by the
/// recovery controller across a supervised session's life.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Confirmed worker deaths handled.
    pub crashes: u64,
    /// Sum of injection-to-confirmation latencies, microseconds.
    pub detection_latency_us: u64,
    /// Sum of reopen times, microseconds: each recovery's restore of the
    /// next incarnation from the adopted checkpoint (or its fresh open),
    /// up to a live handle. Tearing down the dead incarnation and
    /// replaying the log are excluded, so a crash costs the same here
    /// whether it was seen between pushes or surfaced in a drain.
    pub recovery_time_us: u64,
    /// Input tuples replayed from the source cursor across recoveries.
    pub replayed_tuples: u64,
    /// Re-emitted matches suppressed by the exactly-once dedup.
    pub deduped_matches: u64,
    /// Automatic background checkpoints taken.
    pub checkpoints: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    // The oracle of the plan-builder test.
    impl FaultPlan {
        /// Is the plan empty?
        fn is_empty(&self) -> bool {
            self.kills.is_empty()
        }
    }

    // The oracle of the deregistration test.
    impl FailureDetector {
        /// Is `machine` currently registered?
        fn watching(&self, machine: usize) -> bool {
            self.last_seen.contains_key(&machine)
        }
    }

    #[test]
    fn plan_builders_accumulate() {
        let plan = FaultPlan::new()
            .kill_after_tuples(2, 1000)
            .kill_on_checkpoint(3, 2);
        assert_eq!(plan.kills.len(), 2);
        assert_eq!(
            plan.kills[0].trigger,
            FaultTrigger::AfterTuples { tuples: 1000 }
        );
        assert_eq!(plan.kills[1].trigger, FaultTrigger::OnCheckpoint { k: 2 });
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn detector_reports_silent_machine_once() {
        let mut det = FailureDetector::new(DetectorConfig { timeout_us: 100 });
        det.register(1, 0, 0);
        det.register(2, 3, 0);
        assert!(det.poll(50).is_empty());
        // Machine 2 heartbeats; machine 1 stays silent.
        det.note_alive(2, 90);
        let dead = det.poll(120);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].machine, 1);
        assert_eq!(dead[0].gen, 0);
        assert_eq!(
            dead[0].cause,
            DeathCause::HeartbeatTimeout { silent_for_us: 120 }
        );
        // Reported exactly once.
        assert!(det.poll(500).iter().all(|d| d.machine != 1));
        assert!(!det.watching(1));
    }

    #[test]
    fn detector_ignores_deregistered_and_unknown() {
        let mut det = FailureDetector::new(DetectorConfig { timeout_us: 100 });
        det.register(4, 1, 0);
        det.note_alive(9, 10); // unknown: ignored
        det.deregister(4);
        assert!(det.poll(1_000).is_empty());
    }

    #[test]
    fn detector_liveness_evidence_defers_death() {
        let mut det = FailureDetector::new(DetectorConfig { timeout_us: 100 });
        det.register(1, 0, 0);
        det.note_alive(1, 80);
        assert!(det.poll(150).is_empty()); // silent for 70 < 100
        let dead = det.poll(180); // silent for 100 >= 100
        assert_eq!(dead.len(), 1);
    }

    #[test]
    fn fault_log_drains_once() {
        let log = FaultLog::new();
        assert!(log.is_empty());
        log.record(WorkerDeath {
            machine: 2,
            gen: 1,
            at_us: 42,
            cause: DeathCause::ConnectionLost,
            detect_latency_us: 7,
        });
        let peeked = log.peek();
        assert_eq!(peeked.len(), 1);
        let drained = log.drain();
        assert_eq!(drained, peeked);
        assert!(log.is_empty());
        assert!(log.drain().is_empty());
    }

    #[test]
    fn fault_log_wakes_its_waiter_on_a_death_or_the_run_end() {
        let death = WorkerDeath {
            machine: 1,
            gen: 0,
            at_us: 5,
            cause: DeathCause::Injected,
            detect_latency_us: 0,
        };
        for ends in [false, true] {
            let log = FaultLog::new();
            let (rec, d) = (log.clone(), death.clone());
            let other = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                if ends {
                    rec.end_run();
                } else {
                    rec.record(d);
                }
            });
            assert_eq!(log.await_end_or_death(), ends);
            other.join().unwrap();
        }
        // Already settled: no wait at all.
        let log = FaultLog::new();
        log.end_run();
        assert!(log.await_end_or_death());
    }

    #[test]
    fn death_display_names_machine_and_status() {
        let d = WorkerDeath {
            machine: 3,
            gen: 2,
            at_us: 10,
            cause: DeathCause::UnexpectedExit { exit_code: None },
            detect_latency_us: 0,
        };
        let s = d.to_string();
        assert!(s.contains("machine 3"), "{s}");
        assert!(s.contains("killed by signal"), "{s}");
        let d2 = WorkerDeath {
            cause: DeathCause::UnexpectedExit {
                exit_code: Some(101),
            },
            ..d
        };
        assert!(d2.to_string().contains("code 101"));
    }
}
