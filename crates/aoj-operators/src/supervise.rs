//! # supervise — the automatic crash-recovery controller
//!
//! [`SupervisedSession`] wraps a [`JoinSession`] with the paper's
//! missing operational layer: it keeps an upstream input log, takes
//! automatic background checkpoints on a tuple-count cadence, watches
//! the session's typed health surface, and on a confirmed worker death
//! rolls the session back to the latest checkpoint, respawns it through
//! the backend's provisioning surface, and replays the logged suffix —
//! delivering an **exactly-once** match stream across the crash.
//!
//! ## The exactly-once argument
//!
//! Three pieces compose:
//!
//! 1. **Rotation invariant.** A checkpoint at ingest cursor `c` is only
//!    adopted as the rollback base once every match of the prefix
//!    `0..c` has been delivered to the supervisor. This holds by
//!    construction on every backend: [`SessionHandle::checkpoint`]
//!    drains the incarnation to quiescence before it snapshots, so when
//!    it returns the subscription holds the last prefix match — nothing
//!    waits on a second run to agree with the first.
//! 2. **Prefix skip.** Recovery reopens from the base checkpoint with
//!    [`JoinSession::restore_with_replay`], whose ingest cursor drops
//!    the already-folded prefix, and replays only the logged suffix —
//!    so no pre-checkpoint match can be emitted twice.
//! 3. **Suffix dedup.** Matches the crashed incarnation *did* deliver
//!    from the suffix are re-emitted by the replay; the supervisor
//!    suppresses them by match identity `(r_seq, s_seq)` — globally
//!    unique because sequence numbers are assigned at ingest, before
//!    any routing. The identity set is cleared at every rotation (the
//!    rotation invariant makes earlier identities unrepeatable), so it
//!    is bounded by one checkpoint interval, not the stream.
//!
//! ## Fault-trigger lowering
//!
//! [`aoj_core::fault::FaultPlan`] triggers the backends can observe
//! natively are lowered at launch (see [`crate::session`]); the ones
//! only this layer can count reliably are fired here through
//! [`SessionHandle::inject_kill`]: tuple-count triggers on the
//! simulator (the driver owns the pump) and on the live backends (their
//! native processed counters restart with every checkpoint rotation,
//! which reopens the incarnation, so the supervisor guarantees the kill
//! once the pushed count crosses the threshold), and every
//! `OnCheckpoint` trigger (only the supervisor counts checkpoints).

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use aoj_core::fault::RecoveryStats;
use aoj_core::fault::{FaultInjection, FaultLog, FaultTrigger, WorkerDeath};
use aoj_core::tuple::Rel;
use aoj_datagen::queries::StreamItem;

use crate::messages::Match;
use crate::report::RunReport;
use crate::session::{JoinSession, MatchSubscription, PushError, SessionBuilder, SessionHandle};

/// How long the supervisor sleeps between retries while the session's
/// flow-control window is closed.
const POLL: Duration = Duration::from_micros(200);

/// What a supervised run produced: the final incarnation's report, the
/// deduplicated match stream, and the recovery bookkeeping.
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// The closing incarnation's [`RunReport`]. After a recovery it
    /// covers the post-restore segment only — the match stream, not the
    /// report, is the cross-crash artifact.
    pub report: RunReport,
    /// Every match, exactly once, in delivery order.
    pub matches: Vec<Match>,
    /// Crash/recovery counters accumulated across the whole run.
    pub stats: RecoveryStats,
}

/// A crash-tolerant join session: input logging, automatic background
/// checkpoints, failure detection, rollback-restart recovery, and
/// exactly-once match delivery. See the module docs for the argument.
///
/// ```no_run
/// use aoj_operators::{JoinSession, OperatorKind, SessionBuilder, SupervisedSession};
///
/// let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
///     .with_checkpoint_every(10_000);
/// let mut session = SupervisedSession::open(builder, "/tmp/ckpts");
/// // session.push(...); let outcome = session.close();
/// ```
pub struct SupervisedSession {
    /// Pristine configuration for reopening incarnations.
    builder: SessionBuilder,
    inner: Option<SessionHandle>,
    sub: Option<MatchSubscription>,
    ckpt_dir: PathBuf,
    /// Latest adopted checkpoint (`None` until the first rotation:
    /// recovery then reopens fresh and replays from sequence 0).
    ckpt_path: Option<PathBuf>,
    /// Ingest cursor of the adopted checkpoint.
    base_cursor: u64,
    /// Upstream input log: every tuple pushed since `base_cursor`.
    log: Vec<(Rel, StreamItem)>,
    /// How many `log` entries the current incarnation has consumed.
    fed: usize,
    /// Total tuples accepted from the caller (absolute cursor).
    pushed: u64,
    /// Identities of matches delivered since the last rotation.
    seen: HashSet<(u64, u64)>,
    delivered: Vec<Match>,
    /// Fault-plan triggers that have not fired yet; reopened
    /// incarnations carry exactly this remainder.
    pending: Vec<FaultInjection>,
    /// Clone of the live incarnation's shared death log: still readable
    /// after a crash unwinds `close()`/`checkpoint()` and consumes the
    /// handle, so the spent trigger can be attributed and stripped.
    live_log: Option<FaultLog>,
    /// Completed background checkpoints (the `OnCheckpoint` ordinal).
    ckpt_seq: u32,
    stats: RecoveryStats,
}

impl SupervisedSession {
    /// Open a supervised session. `ckpt_dir` receives the automatic
    /// background checkpoints (created if missing); with
    /// `checkpoint_every_tuples == 0` no checkpoints are taken and
    /// recovery replays the whole logged stream from scratch.
    pub fn open(builder: SessionBuilder, ckpt_dir: impl AsRef<Path>) -> SupervisedSession {
        let ckpt_dir = ckpt_dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&ckpt_dir).expect("failed to create the checkpoint directory");
        let pending = builder.fault.plan.kills.clone();
        let mut s = SupervisedSession {
            builder,
            inner: None,
            sub: None,
            ckpt_dir,
            ckpt_path: None,
            base_cursor: 0,
            log: Vec::new(),
            fed: 0,
            pushed: 0,
            seen: HashSet::new(),
            delivered: Vec::new(),
            pending,
            live_log: None,
            ckpt_seq: 0,
            stats: RecoveryStats::default(),
        };
        s.reopen();
        s
    }

    /// Accept one tuple. Never blocks indefinitely: while the session's
    /// flow-control window is closed the supervisor drains matches and
    /// polls health instead of parking — a crash mid-backpressure is
    /// detected and recovered from right here.
    pub fn push(&mut self, rel: Rel, item: StreamItem) {
        self.log.push((rel, item));
        self.pushed += 1;
        self.pump_to_cursor();
        // The simulator's pump is driver-owned, so its `AfterTuples`
        // kills fire here. A live backend's native threshold counts
        // *joiner-processed* tuples — a counter that restarts with every
        // checkpoint rotation, so under a cadence shorter than the
        // threshold the native arm alone might never trip; the
        // supervisor therefore also fires it once the *pushed* count
        // crosses the threshold (the native arm may legitimately beat it
        // to the kill — recovery then strips the trigger first).
        let pushed = self.pushed;
        self.fire_due(|t| matches!(t, FaultTrigger::AfterTuples { tuples } if pushed >= tuples));
        self.drain_matches();
        let every = self.builder.fault.checkpoint_every_tuples;
        if every > 0 && self.pushed - self.base_cursor >= every {
            self.rotate();
        }
    }

    /// Matches delivered so far — exactly once each, in delivery order.
    pub fn delivered(&self) -> &[Match] {
        &self.delivered
    }

    /// Crash/recovery counters accumulated so far.
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// Worker deaths currently visible on the live incarnation (empty on
    /// a healthy session; the next push or close recovers them).
    pub fn health(&self) -> usize {
        self.inner.as_ref().map_or(0, |h| h.health().len())
    }

    /// Drain the session and collect the outcome, recovering any crash
    /// that races the close.
    pub fn close(mut self) -> SupervisedOutcome {
        loop {
            self.pump_to_cursor();
            self.drain_matches();
            let handle = self.inner.take().expect("session closed");
            let res = catch_unwind(AssertUnwindSafe(|| handle.close()));
            // Either way the hub is finished: the subscription yields
            // the drain's tail (or what the dead incarnation did
            // deliver) and then runs dry.
            self.drain_matches();
            match res {
                Ok(report) => {
                    return SupervisedOutcome {
                        report,
                        matches: std::mem::take(&mut self.delivered),
                        stats: self.stats,
                    };
                }
                // close() hit a crashed-session guard: the handle
                // abandoned itself before panicking. Roll back.
                Err(_) => self.recover_from_unwind(),
            }
        }
    }

    /// Feed the current incarnation until it has consumed the whole
    /// log, recovering any crash observed on the way.
    fn pump_to_cursor(&mut self) {
        loop {
            if self.check_and_recover() {
                continue;
            }
            if self.fed == self.log.len() {
                return;
            }
            let (rel, item) = self.log[self.fed];
            match self.live().try_push(rel, item) {
                Ok(()) => self.fed += 1,
                Err(PushError::Full) => {
                    // Window closed: make room (a stalled subscriber
                    // holds emit buffers) and let the health poll at the
                    // loop top catch a wedge-by-crash.
                    self.drain_matches();
                    std::thread::sleep(POLL);
                }
                Err(PushError::Closed) => {
                    unreachable!("the supervisor owns the handle; nothing else closes it")
                }
            }
        }
    }

    /// If the live incarnation reports deaths, recover: abandon, reopen
    /// from the latest checkpoint, and let the pump replay the log.
    /// Returns whether a recovery happened.
    fn check_and_recover(&mut self) -> bool {
        let deaths = self.inner.as_ref().map_or_else(Vec::new, |h| h.health());
        if deaths.is_empty() {
            return false;
        }
        let t0 = Instant::now();
        self.inner.take().expect("session closed").abandon();
        // The abandon finished the hub: collect the partial deliveries
        // the dead incarnation managed (the dedup needs them).
        self.drain_matches();
        self.roll_back(&deaths, t0);
        true
    }

    /// The bookkeeping every recovery shares: count the deaths, strip
    /// the triggers they spent (a reopened incarnation must not re-arm
    /// them, or the deterministic replay would re-trip the same fault
    /// forever), rewind the log and open the next incarnation.
    fn roll_back(&mut self, deaths: &[WorkerDeath], since: Instant) {
        for d in deaths {
            self.stats.crashes += 1;
            self.stats.detection_latency_us += d.detect_latency_us;
            self.pending.retain(|t| t.machine != d.machine);
        }
        self.stats.replayed_tuples += self.log.len() as u64;
        self.reopen();
        self.stats.recovery_time_us += since.elapsed().as_micros() as u64;
    }

    /// Open the next incarnation: from the adopted checkpoint when one
    /// exists (replay cursor = its ingest cursor), fresh otherwise.
    fn reopen(&mut self) {
        let mut b = self.builder.clone();
        b.fault.plan.kills = self.pending.clone();
        let mut handle = match &self.ckpt_path {
            Some(p) => JoinSession::restore_with_replay(b, p, self.base_cursor)
                .expect("recovery restore from the background checkpoint failed"),
            None => JoinSession::open(b),
        };
        self.live_log = handle.fault_log();
        self.sub = Some(handle.subscribe());
        self.inner = Some(handle);
        self.fed = 0;
    }

    /// Recover from a crash that unwound out of `close()`/`checkpoint()`
    /// (the handle tore itself down before panicking; its typed deaths
    /// survive only in the shared log clone).
    fn recover_from_unwind(&mut self) {
        let t0 = Instant::now();
        let deaths = self.live_log.as_ref().map(|l| l.peek()).unwrap_or_default();
        if deaths.is_empty() {
            // The simulator keeps its deaths on the (now consumed)
            // handle. Only clock-scheduled kills can fire inside its
            // drain pump — the supervisor lowers the other kinds itself
            // and strips them at fire time.
            self.pending
                .retain(|t| !matches!(t.trigger, FaultTrigger::AtTime { .. }));
            self.stats.crashes += 1;
        }
        self.roll_back(&deaths, t0);
    }

    fn drain_matches(&mut self) {
        if let Some(sub) = self.sub.as_mut() {
            let mut got = Vec::new();
            while let Some(m) = sub.try_next() {
                got.push(m);
            }
            for m in got {
                self.record(m);
            }
        }
    }

    fn record(&mut self, m: Match) {
        if self.seen.insert((m.r_seq, m.s_seq)) {
            self.delivered.push(m);
        } else {
            self.stats.deduped_matches += 1;
        }
    }

    /// Lower the pending fault-plan triggers `due` selects: each fires
    /// once, through [`SessionHandle::inject_kill`], and is spent.
    fn fire_due(&mut self, due: impl Fn(FaultTrigger) -> bool) {
        let (fire, keep) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|t| due(t.trigger));
        self.pending = keep;
        for t in fire {
            self.live().inject_kill(t.machine);
        }
    }

    fn live(&mut self) -> &mut SessionHandle {
        self.inner.as_mut().expect("session closed")
    }

    /// Rotate the rollback base: [`SessionHandle::checkpoint`] drains the
    /// incarnation to quiescence (so every prefix match is delivered —
    /// the rotation invariant), snapshots, and the supervisor reopens
    /// from the snapshot — the same on every backend. A crash racing the
    /// drain trips the checkpoint's crashed-session guard; the rotation
    /// is skipped and ordinary recovery rolls back to the *previous*
    /// base.
    fn rotate(&mut self) {
        let path = self.ckpt_dir.join(format!("auto-{}.ckpt", self.ckpt_seq));
        let handle = self.inner.take().expect("session closed");
        let res = catch_unwind(AssertUnwindSafe(|| handle.checkpoint(&path)));
        // Either way the hub is finished; the subscription holds the
        // final drain (or the partial pre-crash deliveries).
        self.drain_matches();
        match res {
            Ok(Ok(_report)) => {
                self.adopt(path);
                self.reopen();
                // `OnCheckpoint` triggers whose ordinal has been reached.
                let seq = self.ckpt_seq;
                self.fire_due(|t| matches!(t, FaultTrigger::OnCheckpoint { k } if seq >= k));
            }
            Ok(Err(e)) => panic!("automatic background checkpoint failed: {e}"),
            // checkpoint() tore the crashed handle down before
            // panicking. Roll back to the previous base.
            Err(_) => self.recover_from_unwind(),
        }
    }

    /// Advance the rollback base to a checkpoint at the current cursor:
    /// every prefix match is delivered (rotation invariant), so the log
    /// and the dedup identities reset.
    fn adopt(&mut self, path: PathBuf) {
        self.base_cursor = self.pushed;
        self.log.clear();
        self.fed = 0;
        self.seen.clear();
        self.ckpt_path = Some(path);
        self.ckpt_seq += 1;
        self.stats.checkpoints += 1;
    }
}
