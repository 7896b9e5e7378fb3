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
//!    `0..c` has been delivered to the supervisor. On backends that
//!    snapshot in place ([`SessionHandle::snapshots_in_place`]) this
//!    holds by construction — [`SessionHandle::checkpoint`] drains to
//!    quiescence before snapshotting. Where the state lives in worker
//!    processes (the TCP backend) the snapshot comes from a
//!    deterministic *shadow rehearsal* on the simulator, and a delivery
//!    barrier holds the rotation until the live incarnation itself has
//!    delivered the rehearsed prefix match set (what a dead predecessor
//!    delivered does not count: the replay re-emits it).
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
//! simulator (the driver owns the pump) and on the threaded runtime
//! (its native processed counter restarts with every checkpoint
//! rotation, so the supervisor guarantees the kill once the pushed
//! count crosses the threshold), and every `OnCheckpoint` trigger
//! (only the supervisor counts checkpoints).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use aoj_core::fault::RecoveryStats;
use aoj_core::fault::{FaultInjection, FaultLog, FaultTrigger};
use aoj_core::tuple::Rel;
use aoj_datagen::queries::StreamItem;

use crate::driver::BackendChoice;
use crate::messages::Match;
use crate::report::RunReport;
use crate::session::{
    FaultSection, JoinSession, MatchSubscription, PushError, SessionBuilder, SessionHandle,
};

/// How long the supervisor sleeps between retries while the session's
/// flow-control window is closed or a delivery barrier is open.
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
    /// Identities of matches delivered since the last rotation, each
    /// with the incarnation that delivered it last (what the shadow
    /// rotation's delivery barrier counts).
    seen: HashMap<(u64, u64), u32>,
    /// Ordinal of the live incarnation; every reopen starts the next.
    incarnation: u32,
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
            seen: HashMap::new(),
            incarnation: 0,
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
        self.fire_due_tuple_triggers();
        self.drain_matches();
        self.maybe_rotate();
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
            let sub = self.sub.take();
            match catch_unwind(AssertUnwindSafe(|| handle.close())) {
                Ok(report) => {
                    // The hub is finished: the subscription yields the
                    // drain's tail and then runs dry.
                    if let Some(mut sub) = sub {
                        while let Some(m) = sub.try_next() {
                            self.record(m);
                        }
                    }
                    return SupervisedOutcome {
                        report,
                        matches: std::mem::take(&mut self.delivered),
                        stats: self.stats,
                    };
                }
                Err(_) => {
                    // close() hit a crashed-session guard: the handle
                    // abandoned itself before panicking. Collect what
                    // the dead incarnation did deliver, then roll back.
                    if let Some(mut sub) = sub {
                        while let Some(m) = sub.try_next() {
                            self.record(m);
                        }
                    }
                    let t0 = Instant::now();
                    self.absorb_unwind_crash();
                    self.reopen();
                    self.stats.recovery_time_us += t0.elapsed().as_micros() as u64;
                }
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
        let dead = self.inner.as_ref().is_some_and(|h| !h.health().is_empty());
        if !dead {
            return false;
        }
        let handle = self.inner.take().expect("session closed");
        let deaths = handle.health();
        let t0 = Instant::now();
        for d in &deaths {
            self.stats.crashes += 1;
            self.stats.detection_latency_us += d.detect_latency_us;
            // The native trigger that produced this death is spent; a
            // reopened incarnation must not re-arm it.
            self.pending.retain(|t| t.machine != d.machine);
        }
        handle.abandon();
        // The abandon finished the hub: collect the partial deliveries
        // the dead incarnation managed (the dedup needs them).
        self.drain_matches();
        self.sub = None;
        self.stats.replayed_tuples += self.log.len() as u64;
        self.fed = 0;
        self.reopen();
        self.stats.recovery_time_us += t0.elapsed().as_micros() as u64;
        true
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
        self.incarnation += 1;
    }

    /// Account for a crash that unwound out of `close()`/`checkpoint()`
    /// (the handle tore itself down before panicking; its typed deaths
    /// survive only in the shared log clone). The spent triggers must
    /// be stripped, or the deterministic replay would re-trip the same
    /// fault forever.
    fn absorb_unwind_crash(&mut self) {
        let deaths = self.live_log.as_ref().map(|l| l.peek()).unwrap_or_default();
        if deaths.is_empty() {
            // The simulator keeps its deaths on the (now consumed)
            // handle. Only clock-scheduled kills can fire inside its
            // drain pump — the supervisor lowers the other kinds itself
            // and strips them at fire time.
            self.pending
                .retain(|t| !matches!(t.trigger, FaultTrigger::AtTime { .. }));
            self.stats.crashes += 1;
        } else {
            for d in &deaths {
                self.stats.crashes += 1;
                self.stats.detection_latency_us += d.detect_latency_us;
                self.pending.retain(|t| t.machine != d.machine);
            }
        }
        self.stats.replayed_tuples += self.log.len() as u64;
        self.fed = 0;
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
        match self.seen.insert((m.r_seq, m.s_seq), self.incarnation) {
            None => self.delivered.push(m),
            Some(_) => self.stats.deduped_matches += 1,
        }
    }

    /// The shadow rotation's delivery barrier: has the live incarnation
    /// itself delivered every match of the rehearsed `prefix`? What a
    /// dead predecessor delivered does not count — the replay re-emits
    /// it, and adopting (which clears `seen`) before those re-emissions
    /// have arrived would let them through as new.
    fn live_stream_covers(&self, prefix: &[(u64, u64)]) -> bool {
        prefix
            .iter()
            .all(|id| self.seen.get(id) == Some(&self.incarnation))
    }

    /// Lower the tuple-count triggers this layer must observe itself.
    /// The simulator's pump is driver-owned, so its `AfterTuples` kills
    /// fire here. The threaded runtime's native threshold counts
    /// *joiner-processed* tuples — a counter that restarts with every
    /// checkpoint rotation, so under a cadence shorter than the
    /// threshold the native arm alone might never trip; the supervisor
    /// therefore also fires it once the *pushed* count crosses the
    /// threshold (the native arm may legitimately beat it to the kill —
    /// recovery then strips the trigger first). A session that cannot
    /// snapshot in place (the TCP cluster) is never restarted by a
    /// rotation (shadow rehearsal), so its native reactor keeps sole
    /// ownership.
    fn fire_due_tuple_triggers(&mut self) {
        if !self.live().snapshots_in_place() {
            return;
        }
        let pushed = self.pushed;
        let due: Vec<FaultInjection> = self
            .pending
            .iter()
            .filter(
                |t| matches!(t.trigger, FaultTrigger::AfterTuples { tuples } if pushed >= tuples),
            )
            .copied()
            .collect();
        if due.is_empty() {
            return;
        }
        self.pending.retain(
            |t| !matches!(t.trigger, FaultTrigger::AfterTuples { tuples } if pushed >= tuples),
        );
        for t in due {
            self.live().inject_kill(t.machine);
        }
    }

    /// Lower the `OnCheckpoint` triggers whose ordinal has been reached
    /// (called right after a rotation completes).
    fn fire_due_checkpoint_triggers(&mut self) {
        let seq = self.ckpt_seq;
        let due: Vec<FaultInjection> = self
            .pending
            .iter()
            .filter(|t| matches!(t.trigger, FaultTrigger::OnCheckpoint { k } if seq >= k))
            .copied()
            .collect();
        if due.is_empty() {
            return;
        }
        self.pending
            .retain(|t| !matches!(t.trigger, FaultTrigger::OnCheckpoint { k } if seq >= k));
        for t in due {
            self.live().inject_kill(t.machine);
        }
    }

    fn maybe_rotate(&mut self) {
        let every = self.builder.fault.checkpoint_every_tuples;
        if every == 0 || self.pushed - self.base_cursor < every {
            return;
        }
        if self.live().snapshots_in_place() {
            self.rotate_local()
        } else {
            self.rotate_shadow()
        }
    }

    fn live(&mut self) -> &mut SessionHandle {
        self.inner.as_mut().expect("session closed")
    }

    fn next_ckpt_path(&self) -> PathBuf {
        self.ckpt_dir.join(format!("auto-{}.ckpt", self.ckpt_seq))
    }

    /// In-process rotation: [`SessionHandle::checkpoint`] drains the
    /// incarnation to quiescence (so every prefix match is delivered —
    /// the rotation invariant), snapshots, and the supervisor reopens
    /// from the snapshot. A crash racing the drain trips the
    /// checkpoint's crashed-session guard; the rotation is skipped and
    /// ordinary recovery rolls back to the *previous* base.
    fn rotate_local(&mut self) {
        let path = self.next_ckpt_path();
        let handle = self.inner.take().expect("session closed");
        let sub = self.sub.take();
        let res = {
            let p = path.clone();
            catch_unwind(AssertUnwindSafe(move || handle.checkpoint(p)))
        };
        // Either way the hub is finished; the old subscription holds the
        // final drain (or the partial pre-crash deliveries).
        if let Some(mut sub) = sub {
            while let Some(m) = sub.try_next() {
                self.record(m);
            }
        }
        match res {
            Ok(Ok(_report)) => {
                self.adopt(path);
                self.reopen();
                self.fire_due_checkpoint_triggers();
            }
            Ok(Err(e)) => panic!("automatic background checkpoint failed: {e}"),
            Err(_) => {
                // checkpoint() tore the crashed handle down before
                // panicking. Roll back to the previous base.
                let t0 = Instant::now();
                self.absorb_unwind_crash();
                self.reopen();
                self.stats.recovery_time_us += t0.elapsed().as_micros() as u64;
            }
        }
    }

    /// Rotation for a session that cannot snapshot in place (TCP): the
    /// live cluster is never paused, so the snapshot comes from a
    /// deterministic *shadow rehearsal* — the simulator replays the
    /// consumed prefix (from the previous checkpoint) and checkpoints; backend
    /// equivalence makes the snapshot bit-compatible with the live
    /// run's state at the same cursor. The rehearsal's match set is the
    /// delivery barrier: the rotation is adopted only once the live
    /// stream has covered it, so the rotation invariant holds without
    /// ever pausing the live session.
    fn rotate_shadow(&mut self) {
        let path = self.next_ckpt_path();
        let mut sb = self.builder.clone();
        sb.backend.choice = BackendChoice::Sim;
        sb.fault = FaultSection::default();
        let mut shadow = match &self.ckpt_path {
            Some(p) => JoinSession::restore_with_replay(sb, p, self.base_cursor)
                .expect("shadow rehearsal restore failed"),
            None => JoinSession::open(sb),
        };
        let mut shadow_sub = shadow.subscribe();
        for &(rel, item) in &self.log {
            shadow
                .push(rel, item)
                .expect("the supervisor owns the shadow session");
        }
        shadow
            .checkpoint(&path)
            .expect("shadow rehearsal checkpoint failed");
        let mut prefix: Vec<(u64, u64)> = Vec::new();
        while let Some(m) = shadow_sub.try_next() {
            prefix.push((m.r_seq, m.s_seq));
        }
        drop(shadow_sub);
        // Delivery barrier: wait for the live stream to cover the
        // rehearsed prefix. A crash here recovers onto the *previous*
        // base (the new snapshot is only adopted past the barrier) and
        // the replay re-delivers the missing matches.
        loop {
            self.drain_matches();
            if self.live_stream_covers(&prefix) {
                break;
            }
            if self.check_and_recover() {
                self.pump_to_cursor();
                continue;
            }
            std::thread::sleep(POLL);
        }
        self.adopt(path);
        self.fire_due_checkpoint_triggers();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::OperatorKind;

    /// A crash before the first rotation: incarnation 1 delivers a match
    /// and dies, incarnation 2 replays from sequence 0. The delivery
    /// barrier must stay shut until incarnation 2 has re-delivered that
    /// match itself. Counting the dead incarnation's delivery (the bug)
    /// opens the barrier at once; `adopt` then clears the dedup
    /// identities and the replay's re-emission is delivered twice.
    #[test]
    fn delivery_barrier_counts_only_the_live_incarnation() {
        let dir = std::env::temp_dir().join(format!("aoj-barrier-{}", std::process::id()));
        let mut b = SessionBuilder::new(4, OperatorKind::Dynamic);
        b.backend.choice = BackendChoice::Sim;
        let mut s = SupervisedSession::open(b, &dir);
        let m = Match {
            r_seq: 3,
            s_seq: 7,
            r_key: 1,
            s_key: 1,
        };
        let prefix = [(m.r_seq, m.s_seq)];

        s.record(m);
        assert!(s.live_stream_covers(&prefix));
        s.reopen();
        assert!(
            !s.live_stream_covers(&prefix),
            "a dead incarnation's delivery must not open the barrier"
        );
        s.record(m);
        assert!(s.live_stream_covers(&prefix));
        assert_eq!(s.delivered().len(), 1, "the re-emission is deduplicated");
        assert_eq!(s.stats().deduped_matches, 1);
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
