//! The live session API: push-based ingest, streaming match
//! subscription, and a service-shaped driver.
//!
//! [`driver::run`](crate::driver::run) is an *experiment* harness: it
//! wants the whole arrival sequence up front and reports only after the
//! run drains. A production operator is **open for business while data
//! arrives** — callers push tuples as they happen, consume join matches
//! as they are emitted, and read live load gauges in between. This
//! module is that shape:
//!
//! ```text
//!             JoinSession::open(builder)
//!                        │
//!                        ▼
//!    push / try_push ─▶ ┌──────────────┐ ─▶ subscribe(): Match stream
//!    (backpressure:     │ SessionHandle │ ─▶ stats(): live gauges
//!     blocking / Full)  └──────────────┘
//!                        │
//!                        ▼
//!             close() → drain → RunReport
//! ```
//!
//! * **Ingest** goes through a bounded [`IngestQueue`]: the source task
//!   pulls from it instead of walking a pre-materialized slice.
//!   [`SessionHandle::push`] blocks while the queue is full (which
//!   happens exactly when the operator's credit-based flow-control
//!   window is closed and the source has stopped draining);
//!   [`SessionHandle::try_push`] returns [`PushError::Full`] instead.
//! * **Matches** stream through a [`MatchHub`] — a bounded channel fed
//!   by the joiners — and out of [`SessionHandle::subscribe`]'s
//!   iterator, replacing the count-only / `collect_matches` duality of
//!   [`RunReport`] for live consumers. A full hub exerts backpressure
//!   on the data plane (joiners wait for the subscriber); a session
//!   [`close`](SessionHandle::close) lifts the bound first, so a slow
//!   subscriber can never deadlock the drain.
//! * **Every backend** serves the same API, and the session layer
//!   knows only two kinds. A *live* backend (the threaded runtime, the
//!   TCP process backend) runs on a runner thread concurrently with the
//!   caller: the queue is a real MPSC handoff, and the source parks while
//!   it is empty — no timer, no poll — until a push or `close` wakes it
//!   through its machine's mailbox. The simulator is single-threaded,
//!   so the handle *pumps* it instead: each push (and `close`) runs the
//!   simulator to quiescence, interleaving virtual time with caller
//!   pushes deterministically — `run()` reproduces its pre-session
//!   timelines bit for bit.
//!
//! [`SessionBuilder`] is the one configuration type, grouped by concern
//! into [`SourceSection`], [`DataPlaneSection`], [`ElasticitySection`],
//! [`LifecycleSection`], [`BackendSection`] and [`FaultSection`].
//!
//! [`RunReport`]: crate::report::RunReport

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use aoj_core::decision::DecisionConfig;
use aoj_core::fault::{DeathCause, DetectorConfig, FaultLog, FaultPlan, WorkerDeath};
use aoj_core::lifecycle::{Checkpoint, WindowSpec};
use aoj_core::mapping::Mapping;
use aoj_core::predicate::Predicate;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::StreamItem;
use aoj_runtime::{pin_mmap_threshold, CountedCondvar, Runtime, RuntimeConfig};
use aoj_simnet::{
    CostModel, ExecBackend, MachineId, NetworkConfig, SharedGauges, Sim, SimConfig, SimDuration,
    SimTime, TaskId, Topology, Waker,
};

use crate::batch::BatchConfig;
use crate::driver::{
    build_checkpoint, collect, setup_grid, setup_shj, source_task, BackendChoice, OperatorKind,
    Wiring,
};
use crate::elastic_runtime::{provisioned_joiners, ElasticConfig};
use crate::messages::{Match, OpMsg};
use crate::report::{harvest, machine_stats, Finals, MachineStats, RunReport, SkewSummary};
use crate::skew::SkewBoard;
use crate::source::{default_window_copies, SourcePacing, SourceTask};

/// Why a push was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushError {
    /// The ingest queue is at capacity — the flow-control window is
    /// closed and the source has stopped draining. Retry after consuming
    /// matches (or with [`SessionHandle::push`], which waits).
    Full,
    /// The session was closed; no further input is accepted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "ingest queue full (flow-control window closed)"),
            PushError::Closed => write!(f, "session closed"),
        }
    }
}

impl std::error::Error for PushError {}

struct QueueState {
    items: VecDeque<(Rel, StreamItem)>,
    closed: bool,
    pushed: u64,
    /// Restored sessions replaying from an upstream log: this many
    /// leading pushes are already reflected in the checkpointed state and
    /// are silently dropped (accepted but not enqueued) — the exactly-once
    /// dedup of [`JoinSession::restore_with_replay`].
    skip: u64,
    /// The source found the queue empty and open, and parked.
    parked: bool,
    /// Wakes the parked source; installed by a live backend before the
    /// source first runs. Without one (the simulator) a push leaves the
    /// source parked for [`IngestQueue::unpark_ready`] to take.
    waker: Option<Waker>,
}

/// What the source finds when it looks at the queue at the end of a
/// pump ([`IngestQueue::poll_or_park`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Inlet {
    /// Tuples are queued.
    Ready,
    /// Empty and open: the source is now parked.
    Parked,
    /// Empty and closed: the stream has ended.
    Drained,
}

/// The bounded ingest queue between callers and the source task.
///
/// Producers ([`SessionHandle::push`] / [`IngestHandle`]) append under a
/// lock; the source task drains in arrival order. The capacity is the
/// session's admission bound: once the operator's flow-control window
/// closes, the source stops draining, the queue fills, and pushes block
/// (or report [`PushError::Full`]) — backpressure surfaces to the
/// caller instead of buffering without bound.
pub struct IngestQueue {
    state: Mutex<QueueState>,
    /// Producer-side wakeups: space freed or queue closed. A pop
    /// notifies only producers that sleep.
    space: CountedCondvar,
    capacity: usize,
    /// Timer events the source has handled: pacing ticks and wake-ups.
    source_wakeups: AtomicU64,
}

impl IngestQueue {
    /// An open queue admitting at most `capacity` queued tuples.
    pub(crate) fn bounded(capacity: usize) -> Arc<IngestQueue> {
        Arc::new(IngestQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                pushed: 0,
                skip: 0,
                parked: false,
                waker: None,
            }),
            space: CountedCondvar::new(),
            capacity: capacity.max(1),
            source_wakeups: AtomicU64::new(0),
        })
    }

    /// A queue for a restored session: `pushed` resumes at `base` (the
    /// checkpoint's ingest cursor, so stream positions stay global) and
    /// the first `skip` pushes are dropped — they replay tuples already
    /// folded into the checkpointed state.
    pub(crate) fn restored(capacity: usize, base: u64, skip: u64) -> Arc<IngestQueue> {
        let q = IngestQueue::bounded(capacity);
        {
            let mut st = q.state.lock().unwrap();
            st.pushed = base;
            st.skip = skip;
        }
        q
    }

    /// An empty, already-closed queue — the shape a remote worker's
    /// topology rebuild needs. The worker's copy of the source task
    /// never executes (the coordinator process hosts the real source),
    /// so its queue only has to exist and read as drained.
    pub fn detached() -> Arc<IngestQueue> {
        let q = IngestQueue::bounded(1);
        q.close();
        q
    }

    /// Blocking push: waits while the queue is at capacity, errors once
    /// the session is closed.
    pub(crate) fn push(&self, rel: Rel, item: StreamItem) -> Result<(), PushError> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(PushError::Closed);
            }
            if st.skip > 0 {
                st.skip -= 1;
                return Ok(()); // replay of an already-checkpointed tuple
            }
            if st.items.len() < self.capacity {
                st.pushed += 1;
                st.items.push_back((rel, item));
                st.unpark();
                return Ok(());
            }
            st = self.space.wait(st);
        }
    }

    /// Non-blocking push: [`PushError::Full`] while the queue is at
    /// capacity (the flow-control window is closed end to end).
    pub(crate) fn try_push(&self, rel: Rel, item: StreamItem) -> Result<(), PushError> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.skip > 0 {
            st.skip -= 1;
            return Ok(()); // replay of an already-checkpointed tuple
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        st.pushed += 1;
        st.items.push_back((rel, item));
        st.unpark();
        Ok(())
    }

    /// No further pushes; pending items still drain, and a parked source
    /// is woken to see the end. Idempotent.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        st.unpark();
        self.space.notify_all();
    }

    /// The source's end-of-pump look at the queue. An empty, open queue
    /// marks the source parked under the same lock as the check, so the
    /// push or `close` that follows is the one that wakes it.
    pub(crate) fn poll_or_park(&self) -> Inlet {
        let mut st = self.state.lock().unwrap();
        match (st.items.is_empty(), st.closed) {
            (false, _) => Inlet::Ready,
            (true, true) => Inlet::Drained,
            (true, false) => {
                st.parked = true;
                Inlet::Parked
            }
        }
    }

    /// Route wake-ups of the parked source through `waker` (a live
    /// backend's mailbox unpark).
    pub(crate) fn install_waker(&self, waker: Waker) {
        self.state.lock().unwrap().waker = Some(waker);
    }

    /// The simulator's wake-up, taken by the session pump: true — and no
    /// longer parked — when the source parked and tuples have arrived
    /// since. The pump then starts the source's timer at the current
    /// virtual instant.
    pub(crate) fn unpark_ready(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        let ready = st.parked && !st.items.is_empty();
        st.parked &= !ready;
        ready
    }

    /// Count one timer event handled by the source.
    pub(crate) fn note_source_wakeup(&self) {
        self.source_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Timer events the source has handled so far (see
    /// [`SessionStats::source_wakeups`]).
    pub(crate) fn source_wakeups(&self) -> u64 {
        self.source_wakeups.load(Ordering::Relaxed)
    }

    /// Pop up to `max` items in arrival order into `out`. Frees producer
    /// space.
    pub(crate) fn pop_upto(&self, max: usize, out: &mut Vec<(Rel, StreamItem)>) {
        if max == 0 {
            return;
        }
        let mut st = self.state.lock().unwrap();
        let n = max.min(st.items.len());
        out.extend(st.items.drain(..n));
        if n > 0 {
            self.space.notify_all_unlock(st);
        }
    }

    /// Tuples accepted so far (including ones already drained).
    pub(crate) fn pushed(&self) -> u64 {
        self.state.lock().unwrap().pushed
    }

    /// Tuples accepted but not yet drained by the source.
    pub(crate) fn queued(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }
}

impl QueueState {
    /// Wake a parked source through the installed waker. Runs under the
    /// queue lock: the waker takes only the source machine's mailbox
    /// lock, and nothing holding that lock takes this one. Without a
    /// waker (the simulator) the source stays parked for the session
    /// pump.
    fn unpark(&mut self) {
        if let (true, Some(waker)) = (self.parked, &self.waker) {
            self.parked = false;
            waker();
        }
    }
}

/// Which matches a subscriber wants (and, pushed down to the joiner emit
/// path and over the TCP match tap, which pairs are worth shipping at
/// all).
///
/// A pair passes a range filter when **either** side's join key falls in
/// the inclusive range — the natural contract for band joins, where the
/// two keys differ by at most the band width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyFilter {
    /// Every match (the plain [`SessionHandle::subscribe`]).
    All,
    /// Matches where `r_key` or `s_key` lies in `lo..=hi`.
    Range {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

impl KeyFilter {
    /// A single-key filter (`lo == hi == key`).
    pub fn key(key: i64) -> KeyFilter {
        KeyFilter::Range { lo: key, hi: key }
    }

    /// An inclusive key-range filter.
    pub fn range(lo: i64, hi: i64) -> KeyFilter {
        assert!(lo <= hi, "empty key range");
        KeyFilter::Range { lo, hi }
    }

    /// Does `m` pass this filter?
    #[inline]
    pub(crate) fn passes(&self, m: &Match) -> bool {
        match *self {
            KeyFilter::All => true,
            KeyFilter::Range { lo, hi } => {
                (m.r_key >= lo && m.r_key <= hi) || (m.s_key >= lo && m.s_key <= hi)
            }
        }
    }
}

/// One subscriber's cursor into the hub's shared buffer.
struct SubSlot {
    /// Absolute position (monotonic stream offset) of the next match this
    /// subscriber reads.
    cursor: u64,
    /// This subscriber's lag bound: emitters wait once
    /// `write head - cursor >= bound`. 0 = unbounded.
    bound: usize,
    /// False once the subscription dropped; the slot is recycled.
    active: bool,
    /// Only matches passing this filter are delivered to (or held for)
    /// this subscriber.
    filter: KeyFilter,
}

struct HubState {
    /// Shared match buffer; entry `i` has absolute position `base + i`.
    buf: VecDeque<Match>,
    /// Absolute position of `buf[0]` (positions below `base` were
    /// consumed by every subscriber and trimmed).
    base: u64,
    finished: bool,
    /// Set by `close()` before the drain: emitters stop honouring every
    /// bound so the drain can never wedge behind a slow subscriber.
    draining: bool,
    /// Collector mode (remote workers): buffer everything that passes
    /// the ship filters, never block, wait for `drain_buffered`.
    collecting: bool,
    /// Collector-side ship filters (the union of the session's
    /// subscriber filters, forwarded over the TCP match tap). Empty =
    /// pass everything.
    ship: Vec<KeyFilter>,
    /// Fan-out subscribers, each with an independent cursor and bound.
    subs: Vec<SubSlot>,
}

impl HubState {
    /// Absolute position one past the newest buffered match.
    fn head(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Would buffering one more match overrun some active subscriber's
    /// bound? (Slowest-subscriber backpressure.)
    fn bound_reached(&self) -> bool {
        let head = self.head();
        self.subs
            .iter()
            .any(|s| s.active && s.bound > 0 && (head - s.cursor) as usize >= s.bound)
    }

    /// Does any attached consumer want `m`?
    fn wanted(&self, m: &Match) -> bool {
        if self.collecting && (self.ship.is_empty() || self.ship.iter().any(|f| f.passes(m))) {
            return true;
        }
        self.subs.iter().any(|s| s.active && s.filter.passes(m))
    }

    /// Is any consumer attached at all?
    fn any_attached(&self) -> bool {
        self.collecting || self.subs.iter().any(|s| s.active)
    }
}

/// The fan-out match channel between the joiners and the subscribers.
///
/// Joiners `emit` every produced pair; any number of independent
/// [`MatchSubscription`]s consume them, each with its own cursor into
/// the shared buffer, its own lag bound, and its own [`KeyFilter`].
/// While no consumer is attached the hub does nothing (sessions —
/// including the offline `run()` wrapper — pay one relaxed load per
/// probe; matches are counted by the joiners' own tallies), and a match
/// no attached consumer's filter passes is never buffered at all — on
/// the joiner's thread, before any copy.
///
/// Backpressure follows the **slowest subscriber**: once any active
/// subscriber lags by its bound, emitters wait — match backpressure
/// propagates into the data plane, which in turn closes the ingest
/// window, so the whole pipeline throttles to the slowest consumer.
/// [`close`](SessionHandle::close) lifts every bound before draining, so
/// a stalled subscriber can never deadlock the shutdown path.
pub struct MatchHub {
    state: Mutex<HubState>,
    /// Subscriber-side wakeups (new matches, finish). An emit notifies
    /// only subscribers that sleep.
    ready: CountedCondvar,
    /// Emitter-side wakeups (space freed, bound lifted, detach). A
    /// receive notifies only emitters that sleep.
    space: CountedCondvar,
    /// Cache of `HubState::any_attached`, readable without the lock on
    /// the per-match fast path.
    attached: AtomicBool,
    /// Bumped whenever the subscriber set (or its filters) changes; the
    /// TCP backend polls it to re-broadcast the match tap.
    filter_epoch: AtomicU64,
    /// Set by [`SessionHandle::checkpoint`] before it closes ingest: the
    /// drain that follows ends in a snapshot. The TCP backend reads it
    /// when it tells its workers to shut down.
    snapshot: AtomicBool,
    /// Default lag bound for new subscribers. 0 = unbounded (the
    /// simulator's single-threaded sessions, where a blocking emit could
    /// only deadlock).
    capacity: usize,
}

impl MatchHub {
    pub(crate) fn new(capacity: usize) -> Arc<MatchHub> {
        Arc::new(MatchHub {
            state: Mutex::new(HubState {
                buf: VecDeque::new(),
                base: 0,
                finished: false,
                draining: false,
                collecting: false,
                ship: Vec::new(),
                subs: Vec::new(),
            }),
            ready: CountedCondvar::new(),
            space: CountedCondvar::new(),
            attached: AtomicBool::new(false),
            filter_epoch: AtomicU64::new(0),
            snapshot: AtomicBool::new(false),
            capacity,
        })
    }

    /// An unbounded hub in collector mode: emitted matches are buffered —
    /// never blocking the emitter — until
    /// [`drain_buffered`](MatchHub::drain_buffered) takes them. Remote
    /// worker processes feed their joiners' matches through one of these
    /// and periodically drain it onto the wire.
    pub fn collector() -> Arc<MatchHub> {
        let hub = MatchHub::new(0);
        hub.state.lock().unwrap().collecting = true;
        hub.attached.store(true, Ordering::Relaxed);
        hub
    }

    /// Is any consumer currently attached (emitted matches may be
    /// buffered)?
    pub fn attached(&self) -> bool {
        self.attached.load(Ordering::Relaxed)
    }

    /// Switch collector-mode buffering on or off — the remote worker's
    /// mirror of the session hub's attach state. While off, emitted
    /// matches are counted but dropped (exactly the detached-subscriber
    /// contract); switching off also discards anything buffered that no
    /// remaining consumer needs.
    pub fn set_streaming(&self, on: bool) {
        let mut st = self.state.lock().unwrap();
        st.collecting = on;
        if !on {
            self.trim_locked(&mut st);
        }
        self.attached.store(st.any_attached(), Ordering::Relaxed);
        drop(st);
        self.space.notify_all();
    }

    /// Install the collector-side ship filters (the union of the
    /// session's subscriber filters, as forwarded over the TCP match
    /// tap). Empty = ship everything.
    pub fn set_ship_filters(&self, filters: Vec<KeyFilter>) {
        self.state.lock().unwrap().ship = filters;
    }

    /// Take every currently buffered match (collector hubs).
    pub fn drain_buffered(&self) -> Vec<Match> {
        let mut st = self.state.lock().unwrap();
        let out: Vec<Match> = st.buf.drain(..).collect();
        st.base += out.len() as u64;
        // Any subscriber cursor (none exist on collector hubs in
        // practice) snaps forward past the drained region.
        let base = st.base;
        for s in &mut st.subs {
            s.cursor = s.cursor.max(base);
        }
        if !out.is_empty() {
            self.space.notify_all_unlock(st);
        }
        out
    }

    /// One produced pair: a run of one.
    pub fn emit(&self, m: Match) {
        self.emit_run(std::iter::once(m));
    }

    /// Buffer a run of produced pairs under one lock: what joiners call
    /// per bucket of partners, and what an out-of-process backend calls
    /// per frame to re-emit its workers' matches into the session's
    /// stream. Each match passes the filter and bound checks
    /// [`emit`](MatchHub::emit) makes on its own.
    pub fn emit_run(&self, run: impl IntoIterator<Item = Match>) {
        if !self.attached.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.state.lock().unwrap();
        let mut pushed = false;
        'run: for m in run {
            loop {
                // Re-evaluated after every wakeup: the subscriber set
                // (and with it both the filter verdict and the bound)
                // may have changed while we slept.
                if !st.wanted(&m) {
                    continue 'run;
                }
                if st.draining || !st.bound_reached() {
                    break;
                }
                // The run so far must reach a sleeping subscriber, or
                // the space we wait for never frees.
                if self.ready.has_sleepers(&st) {
                    self.ready.notify_all();
                }
                st = self.space.wait(st);
            }
            st.buf.push_back(m);
            pushed = true;
        }
        if pushed {
            self.ready.notify_all_unlock(st);
        }
    }

    /// Attach a new subscriber with its own cursor (starting at the
    /// current write head: only future matches are delivered), lag bound
    /// and filter. Returns the slot index.
    fn subscribe_slot(&self, filter: KeyFilter, bound: usize) -> usize {
        let mut st = self.state.lock().unwrap();
        let slot = SubSlot {
            cursor: st.head(),
            bound,
            active: true,
            filter,
        };
        // Recycle a detached slot so long sessions with subscriber churn
        // don't grow the table.
        let idx = match st.subs.iter().position(|s| !s.active) {
            Some(i) => {
                st.subs[i] = slot;
                i
            }
            None => {
                st.subs.push(slot);
                st.subs.len() - 1
            }
        };
        self.attached.store(true, Ordering::Relaxed);
        self.filter_epoch.fetch_add(1, Ordering::Relaxed);
        idx
    }

    fn detach_slot(&self, idx: usize) {
        let mut st = self.state.lock().unwrap();
        st.subs[idx].active = false;
        self.trim_locked(&mut st);
        self.attached.store(st.any_attached(), Ordering::Relaxed);
        self.filter_epoch.fetch_add(1, Ordering::Relaxed);
        drop(st);
        // The departed subscriber may have been the one emitters were
        // waiting for.
        self.space.notify_all();
    }

    /// Drop every buffered match all active subscribers have consumed
    /// (and everything, if none remain and the hub is not collecting).
    /// Returns whether space was freed; callers holding the lock notify
    /// `space` after releasing it.
    fn trim_locked(&self, st: &mut HubState) -> bool {
        if st.collecting {
            return false;
        }
        let min = st.subs.iter().filter(|s| s.active).map(|s| s.cursor).min();
        let upto = min.unwrap_or_else(|| st.head());
        let advance = (upto - st.base) as usize;
        if advance == 0 {
            return false;
        }
        st.buf.drain(..advance);
        st.base = upto;
        true
    }

    /// Every bound stops being honoured (shutdown path): a stalled
    /// subscriber can no longer block emitters, so the drain always
    /// completes.
    fn lift_bound(&self) {
        self.state.lock().unwrap().draining = true;
        self.space.notify_all();
    }

    /// No further matches will be emitted; subscribers drain and end.
    fn finish(&self) {
        self.state.lock().unwrap().finished = true;
        self.ready.notify_all();
    }

    /// Monotonic counter of subscriber-set changes (the TCP backend's
    /// cue to re-broadcast the match tap with fresh filters).
    pub fn filter_epoch(&self) -> u64 {
        self.filter_epoch.load(Ordering::Relaxed)
    }

    /// Does the session's drain end in a checkpoint? An out-of-process
    /// backend passes this to its workers with the shutdown, so their
    /// exit bundles carry the operator state home
    /// ([`harvest`]'s `snapshot`).
    pub fn snapshot_wanted(&self) -> bool {
        self.snapshot.load(Ordering::Acquire)
    }

    /// What remote workers should ship for the current subscriber set:
    /// `(any subscriber attached, union of their filters)`. An empty
    /// filter list with `true` means ship everything.
    pub fn ship_spec(&self) -> (bool, Vec<KeyFilter>) {
        let st = self.state.lock().unwrap();
        let active: Vec<KeyFilter> = st
            .subs
            .iter()
            .filter(|s| s.active)
            .map(|s| s.filter)
            .collect();
        if active.is_empty() {
            return (false, Vec::new());
        }
        if active.contains(&KeyFilter::All) {
            return (true, Vec::new());
        }
        let mut filters = Vec::new();
        for f in active {
            if !filters.contains(&f) {
                filters.push(f);
            }
        }
        (true, filters)
    }

    /// Blocking receive for `slot`: the next buffered match passing its
    /// filter, or `None` once the session finished and the slot consumed
    /// everything it wanted.
    fn recv(&self, idx: usize) -> Option<Match> {
        let mut st = self.state.lock().unwrap();
        loop {
            while st.subs[idx].cursor < st.head() {
                let at = (st.subs[idx].cursor - st.base) as usize;
                let m = st.buf[at];
                st.subs[idx].cursor += 1;
                let pass = st.subs[idx].filter.passes(&m);
                let freed = self.trim_locked(&mut st);
                if pass {
                    if freed {
                        self.space.notify_all_unlock(st);
                    }
                    return Some(m);
                }
                if freed && self.space.has_sleepers(&st) {
                    // Skipping non-matching entries can free space too.
                    self.space.notify_all();
                }
            }
            if st.finished {
                return None;
            }
            st = self.ready.wait(st);
        }
    }

    /// Non-blocking receive for `slot`.
    fn try_recv(&self, idx: usize) -> Option<Match> {
        let mut st = self.state.lock().unwrap();
        let mut out = None;
        let mut freed = false;
        while st.subs[idx].cursor < st.head() {
            let at = (st.subs[idx].cursor - st.base) as usize;
            let m = st.buf[at];
            st.subs[idx].cursor += 1;
            let pass = st.subs[idx].filter.passes(&m);
            freed |= self.trim_locked(&mut st);
            if pass {
                out = Some(m);
                break;
            }
        }
        if freed {
            self.space.notify_all_unlock(st);
        }
        out
    }
}

/// One subscriber's end of the match stream, returned by
/// [`SessionHandle::subscribe`] /
/// [`SessionHandle::subscribe_filtered`]. Any number may be live at
/// once; each consumes independently at its own pace.
///
/// As an [`Iterator`] it blocks until the next match or the end of the
/// session (`None` after [`close`](SessionHandle::close) drains) — the
/// natural shape for a dedicated consumer thread on the threaded
/// backend. Single-threaded callers (the simulator backend) should use
/// [`try_next`](MatchSubscription::try_next) between pushes instead: the
/// simulator only advances inside the pushing thread, so a blocking
/// `next()` with nothing queued would wait forever.
///
/// Dropping the subscription detaches its slot: matches it would have
/// received are counted, and still delivered to the remaining
/// subscribers.
pub struct MatchSubscription {
    hub: Arc<MatchHub>,
    slot: usize,
}

impl MatchSubscription {
    /// The next already-emitted match passing this subscription's
    /// filter, without blocking.
    pub fn try_next(&mut self) -> Option<Match> {
        self.hub.try_recv(self.slot)
    }
}

impl Iterator for MatchSubscription {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        self.hub.recv(self.slot)
    }
}

impl Drop for MatchSubscription {
    fn drop(&mut self) {
        self.hub.detach_slot(self.slot);
    }
}

/// A clonable, `Send` ingest endpoint for producer threads
/// ([`SessionHandle::ingest`]).
///
/// Meaningful on a live backend, where the operator runs concurrently
/// with producers. On the simulator backend pushes only
/// enqueue — the session owner must still call `push` or `close` on
/// its [`SessionHandle`] to advance virtual time,
/// and a blocking [`push`](IngestHandle::push) from another thread can
/// wait indefinitely if the owner never does.
#[derive(Clone)]
pub struct IngestHandle {
    queue: Arc<IngestQueue>,
}

impl IngestHandle {
    /// Blocking push (waits while the flow-control window is closed).
    pub fn push(&self, rel: Rel, item: StreamItem) -> Result<(), PushError> {
        self.queue.push(rel, item)
    }

    /// Blocking push of a whole batch; returns the number accepted.
    pub fn push_batch(
        &self,
        items: impl IntoIterator<Item = (Rel, StreamItem)>,
    ) -> Result<u64, PushError> {
        let mut n = 0;
        for (rel, item) in items {
            self.queue.push(rel, item)?;
            n += 1;
        }
        Ok(n)
    }
}

/// Source-facing knobs: pacing, flow control and the ingest handoff.
#[derive(Clone, Debug)]
pub struct SourceSection {
    /// Emission pacing (burst size and tick interval).
    pub pacing: SourcePacing,
    /// Flow-control window: max tuple copies in flight between the
    /// source and the joiners (`Some(0)` disables backpressure). `None`
    /// follows the batch size — `max(64·J, 8·J·batch_tuples)`, eight
    /// coalesced batches per joiner, so buffers fill before the window
    /// closes ([`SessionBuilder::window_copies`] resolves it). Latency
    /// at saturation and the tuples a migration or expansion trigger
    /// lags the source by both grow with it. The elastic controller
    /// rescales it with the active joiner count.
    pub window_copies: Option<u64>,
    /// Ingest-queue capacity in tuples; 0 derives a default from the
    /// window and batch size. This is the session's admission bound —
    /// [`SessionHandle::try_push`] reports [`PushError::Full`] once it
    /// fills.
    pub queue_tuples: usize,
}

/// Data-plane knobs: batching, storage tiers and the cost/network model.
#[derive(Clone, Debug)]
pub struct DataPlaneSection {
    /// Tuples per coalesced data-plane batch (1 = per-tuple plane).
    pub batch_tuples: usize,
    /// Age bound for partially filled coalescing buffers, microseconds.
    pub batch_max_delay_us: u64,
    /// Per-joiner RAM budget in bytes (`u64::MAX` = in-memory).
    pub ram_budget: u64,
    /// Disk-tier cost multiplier.
    pub spill_penalty: u64,
    /// CPU cost model.
    pub cost: CostModel,
    /// Network parameters (simulator backend).
    pub network: NetworkConfig,
}

/// Adaptivity knobs: migration decisions and elastic scaling.
#[derive(Clone, Debug)]
pub struct ElasticitySection {
    /// Alg. 2 parameters (ε, warm-up).
    pub decision: DecisionConfig,
    /// Live elasticity (§4.2.2); `None` pins the provisioned set.
    pub elastic: Option<ElasticConfig>,
    /// The blocking, Flux-style migration ablation (§4.3's strawman).
    pub blocking_migrations: bool,
}

/// State-lifecycle knobs: windowed eviction (see
/// [`aoj_core::lifecycle`]). Checkpoint/restore needs no configuration —
/// [`SessionHandle::checkpoint`] and [`JoinSession::restore`] work on
/// any grid session.
#[derive(Clone, Copy, Debug, Default)]
pub struct LifecycleSection {
    /// Per-joiner retention window; `None` stores every tuple forever
    /// (the pre-lifecycle behaviour, bit for bit). Grid operators only.
    ///
    /// Configuring a window also switches an elastic session's
    /// contraction arming to **drain-driven**: the 4→1 merge fires on
    /// genuine eviction drain instead of the
    /// [`contract_holdoff_tuples`](ElasticConfig::contract_holdoff_tuples)
    /// stream-position gate.
    pub window: Option<WindowSpec>,
}

/// Execution/observability knobs: backend choice, sampling, match
/// collection.
#[derive(Clone, Debug)]
pub struct BackendSection {
    /// Which substrate executes the session.
    pub choice: BackendChoice,
    /// Progress sample spacing in sequence numbers (0 = a live default;
    /// the offline `run()` derives it from the input size).
    pub sample_every: u64,
    /// Record every emitted pair in [`RunReport::match_pairs`]
    /// (equivalence testing; memory proportional to the output).
    ///
    /// [`RunReport::match_pairs`]: crate::report::RunReport::match_pairs
    pub collect_matches: bool,
    /// Subscription buffer bound in matches (threaded backend; the
    /// single-threaded simulator is always unbounded). 0 = unbounded.
    pub match_buffer: usize,
}

/// Fault-tolerance knobs: the deterministic fault-injection plan, the
/// failure-detector timing, and the automatic-checkpoint cadence the
/// recovery controller ([`crate::supervise::SupervisedSession`]) runs
/// on.
///
/// Deliberately **not** part of the wire-encoded plan a TCP worker
/// rebuilds from: faults are injected by the coordinator (it owns the
/// worker processes), detection runs coordinator-side, and checkpoint
/// cadence is a supervisor concern — a worker that knew its own
/// execution was scripted could not crash *unexpectedly*.
#[derive(Clone, Debug, Default)]
pub struct FaultSection {
    /// Scheduled kills, read by
    /// [`SupervisedSession`](crate::supervise::SupervisedSession) like
    /// `checkpoint_every_tuples`: it fires each one through
    /// [`SessionHandle::inject_kill`].
    pub(crate) plan: FaultPlan,
    /// Failure-detector timing (TCP backend heartbeats).
    pub detector: DetectorConfig,
    /// Automatic background-checkpoint cadence for supervised sessions,
    /// in pushed tuples (0 = no automatic checkpoints). Read by the
    /// recovery controller, not by the session itself.
    pub(crate) checkpoint_every_tuples: u64,
}

/// Default progress-sample spacing for live sessions, where the input
/// size is unknowable up front.
const LIVE_SAMPLE_EVERY: u64 = 1024;

/// Default threaded-backend subscription buffer, in matches.
const DEFAULT_MATCH_BUFFER: usize = 1024;

/// The session configuration, grouped by concern. Open one with
/// [`JoinSession::open`], or hand it to the offline
/// [`run`](crate::driver::run) wrapper.
///
/// ```no_run
/// use aoj_core::predicate::Predicate;
/// use aoj_operators::{BackendChoice, JoinSession, OperatorKind, SessionBuilder};
///
/// let builder = SessionBuilder::new(4, OperatorKind::Dynamic)
///     .with_predicate(Predicate::Band { width: 2 })
///     .with_backend(BackendChoice::Threaded)
///     .with_window_copies(512);
/// let mut session = JoinSession::open(builder);
/// ```
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    /// Number of joiners (machines). Power of two for grid operators.
    pub j: u32,
    /// Which operator to run.
    pub kind: OperatorKind,
    /// The join predicate.
    pub predicate: Predicate,
    /// Seed for ticket draws.
    pub seed: u64,
    /// Workload label carried into the report.
    pub workload: String,
    /// Fixed mapping for [`OperatorKind::StaticOpt`] sessions. An online
    /// session cannot know stream sizes ahead of time, so the oracle
    /// mapping must be supplied explicitly (the offline `run()` computes
    /// it from the pre-materialized arrivals).
    pub oracle_mapping: Option<Mapping>,
    /// Source, flow control and ingest handoff.
    pub source: SourceSection,
    /// Batching, storage and cost model.
    pub data_plane: DataPlaneSection,
    /// Migration decisions and elastic scaling.
    pub elasticity: ElasticitySection,
    /// Windowed eviction (state lifecycle).
    pub lifecycle: LifecycleSection,
    /// Backend choice and observability.
    pub backend: BackendSection,
    /// Fault injection, failure detection and recovery cadence.
    pub fault: FaultSection,
}

impl SessionBuilder {
    /// Sensible defaults for `j` joiners: simulator backend, saturating
    /// source, in-memory, ε = 1, no warm-up gate.
    pub fn new(j: u32, kind: OperatorKind) -> SessionBuilder {
        SessionBuilder {
            j,
            kind,
            predicate: Predicate::Equi,
            seed: 0x5EED_0001,
            workload: "live".to_string(),
            oracle_mapping: None,
            source: SourceSection {
                pacing: SourcePacing::saturating(),
                window_copies: None,
                queue_tuples: 0,
            },
            data_plane: DataPlaneSection {
                batch_tuples: BatchConfig::default().batch_tuples,
                batch_max_delay_us: BatchConfig::default().max_delay.as_micros(),
                ram_budget: u64::MAX,
                spill_penalty: 20,
                cost: CostModel::default(),
                network: NetworkConfig::default(),
            },
            elasticity: ElasticitySection {
                decision: DecisionConfig::default(),
                elastic: None,
                blocking_migrations: false,
            },
            lifecycle: LifecycleSection::default(),
            backend: BackendSection {
                choice: BackendChoice::Sim,
                sample_every: 0,
                collect_matches: false,
                match_buffer: DEFAULT_MATCH_BUFFER,
            },
            fault: FaultSection::default(),
        }
    }

    /// Builder: the join predicate.
    pub fn with_predicate(mut self, predicate: Predicate) -> SessionBuilder {
        self.predicate = predicate;
        self
    }

    /// Builder: the workload label carried into the report.
    pub fn with_workload(mut self, name: &str) -> SessionBuilder {
        self.workload = name.to_string();
        self
    }

    /// Builder: select the execution backend.
    pub fn with_backend(mut self, choice: BackendChoice) -> SessionBuilder {
        self.backend.choice = choice;
        self
    }

    /// Builder: the ticket seed.
    pub fn with_seed(mut self, seed: u64) -> SessionBuilder {
        self.seed = seed;
        self
    }

    /// Builder: source pacing.
    pub fn with_pacing(mut self, pacing: SourcePacing) -> SessionBuilder {
        self.source.pacing = pacing;
        self
    }

    /// Builder: the flow-control window, in tuple copies — honoured
    /// verbatim instead of following the batch size; 0 disables flow
    /// control.
    pub fn with_window_copies(mut self, copies: u64) -> SessionBuilder {
        self.source.window_copies = Some(copies);
        self
    }

    /// Builder: the ingest-queue capacity, in tuples.
    pub fn with_queue_tuples(mut self, tuples: usize) -> SessionBuilder {
        self.source.queue_tuples = tuples;
        self
    }

    /// Builder: the data-plane batch size (1 = per-tuple plane).
    pub fn with_batch_tuples(mut self, batch_tuples: usize) -> SessionBuilder {
        self.data_plane.batch_tuples = batch_tuples.max(1);
        self
    }

    /// Builder: the per-joiner RAM budget in bytes.
    pub fn with_ram_budget(mut self, bytes: u64) -> SessionBuilder {
        self.data_plane.ram_budget = bytes;
        self
    }

    /// Builder: the disk-tier cost multiplier.
    pub fn with_spill_penalty(mut self, penalty: u64) -> SessionBuilder {
        self.data_plane.spill_penalty = penalty;
        self
    }

    /// Builder: the Alg. 2 decision parameters.
    pub fn with_decision(mut self, decision: DecisionConfig) -> SessionBuilder {
        self.elasticity.decision = decision;
        self
    }

    /// Builder: the progress sample spacing (0 = a live default; the
    /// offline `run()` derives it from the input size).
    pub fn with_sample_every(mut self, every: u64) -> SessionBuilder {
        self.backend.sample_every = every;
        self
    }

    /// Builder: arm live elasticity (Dynamic only).
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> SessionBuilder {
        self.elasticity.elastic = Some(elastic);
        self
    }

    /// Builder: a per-joiner retention window (see
    /// [`LifecycleSection::window`]).
    pub fn with_window(mut self, spec: WindowSpec) -> SessionBuilder {
        self.lifecycle.window = Some(spec);
        self
    }

    /// Builder: a count window over the last `tuples` sequence numbers.
    pub fn with_count_window(self, tuples: u64) -> SessionBuilder {
        self.with_window(WindowSpec::count(tuples))
    }

    /// Builder: record every emitted pair in the report.
    pub fn with_collect_matches(mut self, collect: bool) -> SessionBuilder {
        self.backend.collect_matches = collect;
        self
    }

    /// Builder: the subscription buffer bound, in matches (0 =
    /// unbounded; ignored on the simulator backend, which is always
    /// unbounded).
    pub fn with_match_buffer(mut self, matches: usize) -> SessionBuilder {
        self.backend.match_buffer = matches;
        self
    }

    /// Does nothing: every grid session reports its `ILF/ILF*` trace
    /// ([`RunReport::competitive`](crate::report::RunReport::competitive)),
    /// in source state bounded by the count window, on every backend.
    /// Kept so existing callers compile.
    pub fn with_track_competitive(self, _track: bool) -> SessionBuilder {
        self
    }

    /// Builder: the deterministic fault-injection plan (see
    /// [`FaultPlan`]). Honoured by
    /// [`crate::supervise::SupervisedSession`], not by a bare session.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> SessionBuilder {
        self.fault.plan = plan;
        self
    }

    /// Builder: automatic background-checkpoint cadence in pushed
    /// tuples (0 = off). Honoured by
    /// [`crate::supervise::SupervisedSession`], not by a bare session.
    pub fn with_checkpoint_every(mut self, tuples: u64) -> SessionBuilder {
        self.fault.checkpoint_every_tuples = tuples;
        self
    }

    /// The batching knobs as a [`BatchConfig`].
    pub(crate) fn batch_config(&self) -> BatchConfig {
        BatchConfig {
            batch_tuples: self.data_plane.batch_tuples.max(1),
            max_delay: SimDuration::from_micros(self.data_plane.batch_max_delay_us.max(1)),
        }
    }

    /// The resolved progress-sample spacing.
    pub(crate) fn sample_spacing(&self) -> u64 {
        if self.backend.sample_every > 0 {
            self.backend.sample_every
        } else {
            LIVE_SAMPLE_EVERY
        }
    }

    /// Registered joiner machine slots: `j`, or the bounded
    /// `j · 4^max_expansions` space of an elastic session.
    pub(crate) fn machine_slots(&self) -> usize {
        self.elasticity
            .elastic
            .map_or(self.j, |e| provisioned_joiners(self.j, e.max_expansions)) as usize
    }

    /// The resolved flow-control window in tuple copies (0 = flow
    /// control off): the explicit [`SourceSection::window_copies`], else
    /// the batch-derived default. Everything sized against the window —
    /// the source, the ingest queue, the mailbox bounds on every backend
    /// — reads it here.
    pub fn window_copies(&self) -> u64 {
        self.source
            .window_copies
            .unwrap_or_else(|| default_window_copies(self.j, self.data_plane.batch_tuples))
    }

    /// The `aoj-runtime` knobs a live backend services this session's
    /// mailboxes with: the defaults, with the data-queue bound kept above
    /// the flow-control window so backpressure binds at the source, not
    /// inside the data plane.
    pub fn runtime_config(&self) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::default();
        cfg.data_queue_capacity = cfg
            .data_queue_capacity
            .max(4 * self.window_copies() as usize);
        cfg
    }

    /// The resolved ingest-queue capacity.
    fn queue_capacity(&self) -> usize {
        if self.source.queue_tuples > 0 {
            self.source.queue_tuples
        } else {
            (2 * self.window_copies() as usize)
                .max(4 * self.data_plane.batch_tuples)
                .max(1024)
        }
    }
}

/// A live snapshot of the operator mid-session: the per-machine gauges
/// and progress counters ([`SessionHandle::stats`]).
#[derive(Clone, Debug)]
pub struct SessionStats {
    /// Tuples accepted by the session so far.
    pub pushed_tuples: u64,
    /// Tuples accepted but not yet drained into the operator.
    pub queued_tuples: usize,
    /// Tuple copies fully processed by the joiners.
    pub processed_copies: u64,
    /// Join matches emitted so far: the sum of the per-machine
    /// [`MachineStats::matches`] rows below, on every backend, whether
    /// or not anyone subscribed.
    pub matches: u64,
    /// Per-joiner-machine gauges, one entry per machine slot (dormant
    /// and retired slots read zero; eviction totals survive restore).
    pub machines: Vec<MachineStats>,
    /// The live skew picture merged from every reshuffler's sketch: the
    /// heavy hitters and the weight they were picked from. Empty until
    /// the first sketch publish (~4k routed tuples).
    pub skew: SkewSummary,
    /// Timer events the source has handled: pacing ticks while input is
    /// queued, and one wake-up per push that found it parked. It stays
    /// flat while an open session idles.
    pub source_wakeups: u64,
}

impl SessionStats {
    /// Total stored bytes across the cluster.
    pub fn total_stored_bytes(&self) -> u64 {
        self.machines.iter().map(|m| m.stored_bytes).sum()
    }

    /// The fullest joiner's stored bytes (the live max ILF).
    pub fn max_stored_bytes(&self) -> u64 {
        self.machines
            .iter()
            .map(|m| m.stored_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total bytes dropped by windowed eviction across the cluster.
    pub fn total_evicted_bytes(&self) -> u64 {
        self.machines.iter().map(|m| m.evicted_bytes).sum()
    }

    /// Total window occupancy in tuples across the cluster.
    pub fn total_window_tuples(&self) -> u64 {
        self.machines.iter().map(|m| m.window_tuples).sum()
    }
}

/// A **live** execution backend: one that runs concurrently with the
/// caller on the session's runner thread, as opposed to the simulator,
/// which the handle pumps inline. The session layer drives every live
/// backend through this one surface, and nothing in it asks where the
/// operator's tasks run — results and checkpointed state alike come
/// back as [`Finals`]. The threaded runtime implements it
/// here; `aoj-net` registers its TCP process backend through
/// [`register_tcp_backend`] — the indirection keeps the dependency arrow
/// pointing outward (the backend crate depends on this one, not vice
/// versa).
pub trait NetBackend: ExecBackend<OpMsg> + Send {
    /// The live gauge overlay [`SessionHandle::stats`] reads while the
    /// backend runs on its own thread.
    fn session_gauges(&self) -> Arc<SharedGauges>;

    /// A backend whose reshufflers run out of process returns the
    /// coordinator-side [`SkewBoard`] it will feed from worker sketch
    /// summaries (slot = worker index); it replaces the topology's own
    /// board, which the never-executed local tasks cannot fill. `None`
    /// (the default) keeps the topology's board.
    fn remote_skew_board(&mut self, slots: usize) -> Option<Arc<SkewBoard>> {
        let _ = slots;
        None
    }

    /// A backend whose operator tasks ran out of process returns the
    /// [`Finals`] it merged from its workers' exit bundles — including,
    /// when [`MatchHub::snapshot_wanted`] was set at shutdown, the
    /// operator state a checkpoint is built from. `None` (the default)
    /// has the session harvest them from the backend's own quiesced
    /// tasks.
    fn take_finals(&mut self) -> Option<Finals> {
        None
    }

    /// The typed death log the backend records into, read by
    /// [`SessionHandle::health`].
    fn fault_log(&mut self) -> FaultLog;

    /// A handle that kills the given machine's worker (SIGKILL or
    /// equivalent) mid-run — the [`SessionHandle::inject_kill`] surface.
    fn kill_handle(&mut self) -> Box<dyn Fn(usize) + Send + Sync>;

    /// A handle that aborts the backend's run loop without waiting for
    /// quiescence — the [`SessionHandle::abandon`] surface.
    fn abort_handle(&mut self) -> Box<dyn Fn() + Send + Sync>;
}

/// Factory building a live backend that runs one session's topology.
/// The hub is the session's match stream: an out-of-process backend
/// re-emits matches received from its workers into it
/// ([`MatchHub::emit`]). The checkpoint is the one the session is
/// restored from, if any: the topology's in-process tasks are already
/// seeded from it, and a backend with out-of-process workers must ship
/// it to them (or they would silently restart from empty state).
pub(crate) type NetBackendFactory =
    fn(&SessionBuilder, Arc<MatchHub>, Topology<OpMsg>, Option<&Checkpoint>) -> Box<dyn NetBackend>;

static TCP_BACKEND: OnceLock<NetBackendFactory> = OnceLock::new();

/// Register the factory [`BackendChoice::Tcp`] sessions launch with.
/// Idempotent; the first registration wins.
pub fn register_tcp_backend(factory: NetBackendFactory) {
    let _ = TCP_BACKEND.set(factory);
}

impl NetBackend for Runtime<OpMsg> {
    fn session_gauges(&self) -> Arc<SharedGauges> {
        self.shared_gauges()
    }

    fn fault_log(&mut self) -> FaultLog {
        self.death_log()
    }

    fn kill_handle(&mut self) -> Box<dyn Fn(usize) + Send + Sync> {
        let ks = self.kill_switch();
        Box::new(move |machine| ks.kill(machine))
    }

    fn abort_handle(&mut self) -> Box<dyn Fn() + Send + Sync> {
        let ks = self.kill_switch();
        Box::new(move || ks.fire())
    }
}

/// The [`BackendChoice::Threaded`] factory: an `aoj-runtime` sized to the
/// session's flow-control window.
fn threaded_backend(
    builder: &SessionBuilder,
    _hub: Arc<MatchHub>,
    topo: Topology<OpMsg>,
    _restore: Option<&Checkpoint>,
) -> Box<dyn NetBackend> {
    Box::new(Runtime::new(builder.runtime_config(), topo))
}

enum Inner {
    /// The deterministic simulator, pumped inline by the owner.
    Sim {
        sim: Box<Sim<OpMsg>>,
        wiring: Wiring,
    },
    /// A live backend, running concurrently on the runner thread.
    Live {
        runner: JoinHandle<(Box<dyn NetBackend>, SimTime)>,
        wiring: Wiring,
        gauges: Arc<SharedGauges>,
        /// Kills one machine's worker, for `inject_kill` (on TCP once
        /// the worker is live: its detector is registered by then).
        kill: Box<dyn Fn(usize) + Send + Sync>,
        /// Ends the run without quiescence, for `abandon`.
        abort: Box<dyn Fn() + Send + Sync>,
    },
}

/// The long-lived join session (see the [module docs](self)).
pub struct JoinSession;

impl JoinSession {
    /// Open a session: build the operator topology on the configured
    /// backend and make it ready for pushes. On a live backend the
    /// workers start immediately (idle until data arrives); on the
    /// simulator nothing executes until the first push or the close.
    pub fn open(builder: SessionBuilder) -> SessionHandle {
        // Joiners park up to CREDIT_BATCH − 1 returned credits each, so a
        // window at or below that slack can close permanently with no
        // credits in flight — a silent wedge on a live session. Refuse
        // the configuration up front. (Elastic rescaling multiplies the
        // window by the active-set ratio, so a valid window stays valid.)
        let credit_slack = crate::joiner_task::JoinerTask::CREDIT_BATCH as u64 * builder.j as u64;
        let window = builder.window_copies();
        assert!(
            window == 0 || window >= credit_slack,
            "window_copies = {} cannot cover the joiners' credit-return batching \
             ({} joiners × {} credit batch): the flow-control window could wedge. \
             Use at least {credit_slack}, or 0 to disable flow control.",
            window,
            builder.j,
            crate::joiner_task::JoinerTask::CREDIT_BATCH,
        );
        assert!(
            builder.lifecycle.window.is_none() || builder.kind != OperatorKind::Shj,
            "windowed eviction requires a grid operator \
             (the SHJ baseline keeps no segmented index)"
        );
        let queue = IngestQueue::bounded(builder.queue_capacity());
        launch(builder, queue, None)
    }

    /// Reopen a session from a [`Checkpoint`] written by
    /// [`SessionHandle::checkpoint`]. The caller resumes pushing from the
    /// checkpoint's ingest cursor — tuples `0..cursor` are already folded
    /// into the restored state and every match among them was already
    /// delivered by the checkpointing session.
    ///
    /// `builder` must carry the same configuration the checkpointed
    /// session ran with (config is code, not data): the fingerprint
    /// fields `j`, `kind` and `seed`, the elasticity section and the
    /// machine-slot space are validated against the snapshot, and a
    /// mismatch is `InvalidData`. Works on any backend — a simulator
    /// checkpoint restores onto the threaded runtime and vice versa.
    pub fn restore(builder: SessionBuilder, path: impl AsRef<Path>) -> io::Result<SessionHandle> {
        JoinSession::restore_at(builder, path.as_ref(), None)
    }

    /// Like [`restore`](JoinSession::restore), but for callers replaying
    /// the stream from an upstream log: the caller re-pushes every tuple
    /// from global sequence `replay_from` (≤ the checkpoint cursor)
    /// onwards, and the session silently drops the already-processed
    /// prefix — **exactly-once** match delivery without the caller
    /// tracking the cursor itself.
    pub fn restore_with_replay(
        builder: SessionBuilder,
        path: impl AsRef<Path>,
        replay_from: u64,
    ) -> io::Result<SessionHandle> {
        JoinSession::restore_at(builder, path.as_ref(), Some(replay_from))
    }

    fn restore_at(
        builder: SessionBuilder,
        path: &Path,
        replay_from: Option<u64>,
    ) -> io::Result<SessionHandle> {
        let ckpt = Checkpoint::read_from(path)?;
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if builder.kind == OperatorKind::Shj {
            return Err(invalid("checkpoints cover grid operators only".into()));
        }
        if ckpt.j != builder.j || ckpt.kind != builder.kind.label() || ckpt.seed != builder.seed {
            return Err(invalid(format!(
                "checkpoint fingerprint mismatch: snapshot is (j={}, kind={}, seed={:#x}), \
                 builder is (j={}, kind={}, seed={:#x})",
                ckpt.j,
                ckpt.kind,
                ckpt.seed,
                builder.j,
                builder.kind.label(),
                builder.seed
            )));
        }
        let elastic = (ckpt.elastic.is_some(), builder.elasticity.elastic.is_some());
        if elastic.0 != elastic.1 {
            return Err(invalid(format!(
                "checkpoint elasticity mismatch: snapshot elastic = {}, builder elastic = {} \
                 (config is code: pass the same builder sections)",
                elastic.0, elastic.1
            )));
        }
        let slots = builder.machine_slots();
        let active: Vec<usize> = ckpt.assign.machines().collect();
        if let Some(m) = active.iter().find(|&&m| m >= slots) {
            return Err(invalid(format!(
                "checkpoint references machine slot {m}, outside the builder's \
                 {slots}-slot provisioned space"
            )));
        }
        if let Some(jc) = ckpt.joiners.iter().find(|jc| !active.contains(&jc.machine)) {
            return Err(invalid(format!(
                "checkpoint carries joiner state for inactive machine slot {}",
                jc.machine
            )));
        }
        let skip = match replay_from {
            None => 0,
            Some(from) if from <= ckpt.source_cursor => ckpt.source_cursor - from,
            Some(from) => {
                return Err(invalid(format!(
                    "replay_from {from} is past the checkpoint cursor {}",
                    ckpt.source_cursor
                )))
            }
        };
        let queue = IngestQueue::restored(builder.queue_capacity(), ckpt.source_cursor, skip);
        Ok(launch(builder, queue, Some(&ckpt)))
    }
}

/// Build the session's topology once and start it on the chosen
/// backend: the simulator is pumped inline by the handle, a live
/// backend runs on the runner thread.
fn launch(
    builder: SessionBuilder,
    queue: Arc<IngestQueue>,
    restore_from: Option<&Checkpoint>,
) -> SessionHandle {
    // Freed sub-windows and migration buffers go back to the OS.
    pin_mmap_threshold();
    let sim = builder.backend.choice == BackendChoice::Sim;
    // A blocking emit on the single-threaded simulator could only
    // deadlock the pump: the hub is always unbounded there.
    let hub = MatchHub::new(if sim { 0 } else { builder.backend.match_buffer });
    let mut topo = Topology::new();
    let mut wiring = build_topology(&mut topo, &builder, &queue, &hub, restore_from);
    let factory: NetBackendFactory = match builder.backend.choice {
        BackendChoice::Sim => {
            let cfg = SimConfig {
                network: builder.data_plane.network,
                deadline: None,
            };
            let sim = Box::new(Sim::new(cfg, topo));
            return SessionHandle {
                builder,
                queue,
                hub,
                inner: Some(Inner::Sim { sim, wiring }),
                deaths: FaultLog::new(),
            };
        }
        BackendChoice::Threaded => threaded_backend,
        BackendChoice::Tcp => *TCP_BACKEND.get().expect(
            "BackendChoice::Tcp needs a registered backend: \
             call aoj_net::install() before opening the session",
        ),
    };
    let mut backend = factory(&builder, Arc::clone(&hub), topo, restore_from);
    if let Some(grid) = &mut wiring.grid {
        if let Some(board) = backend.remote_skew_board(wiring.slots) {
            grid.skew_board = board;
        }
    }
    let gauges = backend.session_gauges();
    // Capture the fault surfaces before the runner thread takes the
    // backend: the death log plus the kill and abort levers.
    let deaths = backend.fault_log();
    let kill = backend.kill_handle();
    let abort = backend.abort_handle();
    let run_log = deaths.clone();
    let runner = std::thread::Builder::new()
        .name("aoj-session".to_string())
        .spawn(move || {
            // Marks the run ended on the way out, unwinding included, so
            // a drain waiting in `end` wakes at once.
            let _ended = RunEnded(run_log);
            let end = backend.run();
            (backend, end)
        })
        .expect("failed to spawn session runner thread");
    SessionHandle {
        builder,
        queue,
        hub,
        inner: Some(Inner::Live {
            runner,
            wiring,
            gauges,
            kill,
            abort,
        }),
        deaths,
    }
}

fn build_topology(
    topo: &mut Topology<OpMsg>,
    builder: &SessionBuilder,
    queue: &Arc<IngestQueue>,
    hub: &Arc<MatchHub>,
    restore_from: Option<&Checkpoint>,
) -> Wiring {
    let input = Arc::clone(queue);
    let sink = Arc::clone(hub);
    match builder.kind {
        OperatorKind::Shj => setup_shj(topo, builder, input, sink),
        _ => setup_grid(topo, builder, input, sink, restore_from),
    }
}

/// An assembled operator topology, opaque except for what an
/// out-of-process backend needs to drive it.
pub struct SessionTopology {
    wiring: Wiring,
}

impl SessionTopology {
    /// The skew board this topology's reshufflers publish into (grid
    /// operators only). A worker process ships the board's merged parts
    /// in its gauge frames so the coordinator sees the cluster-wide
    /// sketch.
    pub fn skew_board(&self) -> Option<Arc<SkewBoard>> {
        let grid = self.wiring.grid.as_ref()?;
        Some(Arc::clone(&grid.skew_board))
    }
}

/// Assemble `builder`'s operator topology into `topo` — the hook a
/// worker **process** uses to rebuild the coordinator's exact task
/// layout, fresh or (when its launch plan carries a snapshot) restored.
/// Registration order is a pure function of `(builder, restore)` — the
/// checkpoint's elastic layout decides which machines are provisioned
/// and which deferred — so identical `TaskId`s fall out on every process
/// that runs this over an equal pair.
pub fn assemble_topology(
    topo: &mut Topology<OpMsg>,
    builder: &SessionBuilder,
    input: Arc<IngestQueue>,
    sink: Arc<MatchHub>,
    restore: Option<&Checkpoint>,
) -> SessionTopology {
    SessionTopology {
        wiring: build_topology(topo, builder, &input, &sink, restore),
    }
}

/// The caller's end of an open [`JoinSession`].
///
/// Push tuples ([`push`](SessionHandle::push) /
/// [`try_push`](SessionHandle::try_push) /
/// [`push_batch`](SessionHandle::push_batch)), stream matches
/// ([`subscribe`](SessionHandle::subscribe)), snapshot live gauges
/// ([`stats`](SessionHandle::stats)), and finally
/// [`close`](SessionHandle::close) to drain and collect the
/// [`RunReport`]. Producer threads get a clonable
/// [`ingest`](SessionHandle::ingest) endpoint.
pub struct SessionHandle {
    builder: SessionBuilder,
    queue: Arc<IngestQueue>,
    hub: Arc<MatchHub>,
    inner: Option<Inner>,
    /// Typed deaths, on every backend: the simulator's injected kills,
    /// the threaded runtime's crashed workers, the TCP failure detector.
    deaths: FaultLog,
}

/// Why a session could not drain: a worker died, so quiescence is
/// unreachable. The crate-private value form of a crash —
/// [`SupervisedSession`](crate::supervise::SupervisedSession) recovers
/// from it, the public `close()`/`checkpoint()` refuse with a panic.
pub(crate) struct Crashed {
    /// The deaths the session had recorded when it gave up.
    pub(crate) deaths: Vec<WorkerDeath>,
}

impl Crashed {
    /// The public surfaces' refusal: a bare session cannot recover.
    fn refuse(self, what: &str) -> ! {
        let list: Vec<String> = self.deaths.iter().map(|d| d.to_string()).collect();
        panic!(
            "{what}() on a crashed session ({}); \
             recover with JoinSession::restore_with_replay",
            list.join("; ")
        );
    }
}

impl SessionHandle {
    /// Push one tuple. On a live backend this blocks while the ingest
    /// queue is full (the flow-control window is closed) and wakes when
    /// the operator returns credits. On the simulator backend it never
    /// blocks: the push pumps the simulator, which drains the queue in
    /// virtual time before returning.
    pub fn push(&mut self, rel: Rel, item: StreamItem) -> Result<(), PushError> {
        self.push_batch([(rel, item)]).map(|_| ())
    }

    /// Non-blocking push: [`PushError::Full`] when the ingest queue is
    /// at capacity (on the simulator this can only happen transiently —
    /// a pump drains the queue — so `Full` is retried once internally).
    pub fn try_push(&mut self, rel: Rel, item: StreamItem) -> Result<(), PushError> {
        match self.inner.as_mut().expect("session closed") {
            Inner::Live { .. } => self.queue.try_push(rel, item),
            Inner::Sim { .. } => self.push(rel, item),
        }
    }

    /// Push a whole batch (blocking). On the simulator the pump runs
    /// once at the end, so a pre-materialized stream is processed with
    /// everything available — exactly the offline `run()` shape.
    pub fn push_batch(
        &mut self,
        items: impl IntoIterator<Item = (Rel, StreamItem)>,
    ) -> Result<u64, PushError> {
        let mut n = 0u64;
        match self.inner.as_mut().expect("session closed") {
            Inner::Live { .. } => {
                for (rel, item) in items {
                    self.queue.push(rel, item)?;
                    n += 1;
                }
            }
            Inner::Sim { sim, wiring } => {
                for (rel, item) in items {
                    sim_push(&self.queue, sim, wiring, rel, item)?;
                    n += 1;
                }
                pump_sim(sim, wiring.source_id, &self.queue);
            }
        }
        Ok(n)
    }

    /// A clonable, `Send` push endpoint for producer threads.
    pub fn ingest(&self) -> IngestHandle {
        IngestHandle {
            queue: Arc::clone(&self.queue),
        }
    }

    /// Subscribe to the match stream. Any number of subscriptions may be
    /// live at once; each consumes independently from its attach point
    /// onward (matches emitted while nobody was attached are counted in
    /// [`stats`](SessionHandle::stats) but not buffered), and the
    /// pipeline throttles to the slowest one.
    pub fn subscribe(&mut self) -> MatchSubscription {
        self.subscribe_filtered(KeyFilter::All)
    }

    /// Subscribe to the subset of matches passing `filter`. The filter
    /// is pushed down to the emit path: a match no attached subscriber
    /// wants is never buffered, and on the TCP backend never shipped
    /// from the worker processes at all.
    pub fn subscribe_filtered(&mut self, filter: KeyFilter) -> MatchSubscription {
        // The TCP backend's runner polls `MatchHub::filter_epoch` and
        // re-broadcasts the match tap when the subscriber set changes.
        let slot = self.hub.subscribe_slot(filter, self.hub.capacity);
        MatchSubscription {
            hub: Arc::clone(&self.hub),
            slot,
        }
    }

    /// Worker deaths observed so far, in detection order. Empty on a
    /// healthy session. A non-empty answer means the run is wedged (or
    /// aborting): recover by [`abandon`](SessionHandle::abandon)ing the
    /// handle and reopening from the latest checkpoint with
    /// [`JoinSession::restore_with_replay`].
    pub fn health(&self) -> Vec<WorkerDeath> {
        self.deaths.peek()
    }

    /// Kill `machine`'s worker right now — the one lever every fault-plan
    /// trigger fires through. On the simulator the machine dies between
    /// pumps and its death is recorded at once; on the threaded backend
    /// the victim's thread vanishes on its next drain batch; on the TCP
    /// backend the worker process is SIGKILLed once it is live.
    pub fn inject_kill(&mut self, machine: usize) {
        match self.inner.as_mut().expect("session closed") {
            Inner::Sim { sim, .. } => {
                if sim.kill_now(MachineId(machine)) {
                    self.deaths.record(WorkerDeath {
                        machine,
                        gen: 0,
                        at_us: sim.now().as_micros(),
                        cause: DeathCause::Injected,
                        detect_latency_us: 0,
                    });
                }
            }
            Inner::Live { kill, .. } => kill(machine),
        }
    }

    /// Tear the session down without draining — the only safe exit from
    /// a crashed run, whose drain would never finish. Fires the
    /// backend's abort lever first, then joins the runner, swallowing
    /// its panic: the caller already knows the run died from
    /// [`health`](SessionHandle::health) and is about to recover from a
    /// checkpoint.
    pub fn abandon(mut self) {
        let _ = self.end(End::Abort);
    }

    /// A live snapshot of the gauges: per-machine stored bytes,
    /// processed-copy counts, and the match total.
    pub fn stats(&self) -> SessionStats {
        let (wiring, machines, processed) = match self.inner.as_ref().expect("session closed") {
            Inner::Sim { sim, wiring } => {
                let m = sim.metrics();
                let machines = machine_stats(wiring.slots, |i, g| m.gauge(i, g));
                (wiring, machines, m.data_processed)
            }
            Inner::Live { gauges, wiring, .. } => {
                let machines = machine_stats(wiring.slots, |i, g| gauges.get(i, g));
                (wiring, machines, gauges.data_processed())
            }
        };
        let board = wiring.grid.as_ref().and_then(|g| g.skew_board.merged());
        let skew = SkewSummary::from_sketch(board);
        SessionStats {
            pushed_tuples: self.queue.pushed(),
            queued_tuples: self.queue.queued(),
            processed_copies: processed,
            matches: machines.iter().map(|m| m.matches).sum(),
            machines,
            skew,
            source_wakeups: self.queue.source_wakeups(),
        }
    }

    /// Close the ingest side, drain the operator to quiescence, and
    /// collect the final [`RunReport`]. An attached subscription keeps
    /// yielding the drain's matches and then ends (`None`); the buffer
    /// bound is lifted first, so a slow subscriber cannot wedge the
    /// close. Panics on a crashed session (a worker death recorded
    /// before or during the drain): a bare session cannot recover, a
    /// [`SupervisedSession`](crate::supervise::SupervisedSession) does.
    pub fn close(self) -> RunReport {
        self.finish(false).unwrap_or_else(|c| c.refuse("close")).0
    }

    /// Close the session at a quiesced checkpoint and write a versioned
    /// snapshot to `path`: every live (unevicted) tuple per joiner, the
    /// grid mapping and elastic layout, the migration decider's counters,
    /// and the ingest cursor. [`JoinSession::restore`] reopens the
    /// snapshot on any backend and continues from the cursor.
    ///
    /// Draining first guarantees the snapshot sits at an Alg. 3 epoch
    /// boundary — no migration in flight, no marker FIFO partially
    /// consumed — so the restored session's first batch behaves exactly
    /// like the next stable batch of the original run. Every backend
    /// takes it the same way: the quiesced tasks' state comes back in
    /// the run's [`Finals`] (over the wire from TCP workers) and the
    /// file is built from that. Finals that lack the state of an active
    /// machine slot are `InvalidData`, naming the slot. Panics on a
    /// crashed session, like [`close`](SessionHandle::close).
    pub fn checkpoint(self, path: impl AsRef<Path>) -> io::Result<RunReport> {
        let (report, ckpt) = self.finish(true).unwrap_or_else(|c| c.refuse("checkpoint"));
        ckpt.expect("finish(true) snapshots")?
            .write_to(path.as_ref())?;
        Ok(report)
    }

    /// Close ingest, run the backend to quiescence and collect the
    /// report — plus, on request, the quiesced state's [`Checkpoint`] —
    /// or [`Crashed`] (see [`End::Drain`]).
    pub(crate) fn finish(
        mut self,
        snapshot: bool,
    ) -> Result<(RunReport, Option<io::Result<Checkpoint>>), Crashed> {
        // The snapshot intent goes first of all: no backend quiesces
        // before ingest closes (this `Release` pairs with
        // `snapshot_wanted`'s `Acquire`).
        self.hub.snapshot.store(snapshot, Ordering::Release);
        let Drained {
            backend,
            remote,
            wiring,
            end,
        } = self.end(End::Drain)?.expect("session already closed");
        let (b, backend) = (&self.builder, &*backend);
        let pushed = self.queue.pushed();
        let finals = remote
            .unwrap_or_else(|| harvest(wiring.result_tasks(), |id| backend.task_any(id), snapshot));
        let ckpt = snapshot.then(|| {
            let src = source_task(backend, wiring.source_id);
            build_checkpoint(b, &finals, src.cursor as u64, src.window_copies)
        });
        let report = collect(backend, b, &wiring, finals, pushed, end);
        Ok((report, ckpt))
    }

    /// The one path a session's run ends by. It lifts the match bound
    /// (emitters blocked on a full hub must never stall the end) and
    /// closes ingest; then it pumps the simulator, or waits for the live
    /// runner — firing the abort lever at once on [`End::Abort`] or as
    /// soon as a worker death is recorded, so the join cannot wedge on
    /// the dead worker's quiescence counter — and joins it. Every way
    /// ends by finishing the hub: subscriptions yield what was emitted
    /// and then end. A second call finds no run.
    fn end(&mut self, how: End) -> Result<Option<Drained>, Crashed> {
        // Captured before an abort, which may record more.
        let mut deaths = self.health();
        let drain = how == End::Drain && deaths.is_empty();
        self.hub.lift_bound();
        self.queue.close();
        let run = match self.inner.take() {
            // Nothing runs between pumps, and nothing kills a simulator
            // machine inside one.
            Some(Inner::Sim { mut sim, wiring }) if drain => {
                let end = pump_sim(&mut sim, wiring.source_id, &self.queue);
                Some(Drained {
                    backend: sim,
                    remote: None,
                    wiring,
                    end,
                })
            }
            Some(Inner::Live {
                runner,
                wiring,
                abort,
                ..
            }) => {
                if how == End::Abort || !self.deaths.await_end_or_death() {
                    abort();
                }
                let joined = runner.join();
                if drain {
                    // Read after the join, which sees every death the
                    // run recorded, however late.
                    deaths = self.health();
                }
                match joined {
                    // Only a healthy drain propagates a runner panic:
                    // resuming one inside a drop (possibly during
                    // another unwind) would abort.
                    _ if !drain || !deaths.is_empty() => None,
                    Ok((mut backend, end)) => Some(Drained {
                        remote: backend.take_finals(),
                        backend,
                        wiring,
                        end,
                    }),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            _ => None,
        };
        self.hub.finish();
        match how {
            End::Drain if !deaths.is_empty() => Err(Crashed { deaths }),
            _ => Ok(run),
        }
    }
}

/// How [`SessionHandle::end`] ends a run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    /// Run to quiescence and hand the backend to collection (`close`,
    /// `checkpoint`). A worker death recorded before the drain, during
    /// it, or in its final instants (the runner already returned, e.g.
    /// the TCP reactor's abort path) makes it [`Crashed`] instead: the
    /// report would silently cover a partial run.
    Drain,
    /// Fire the abort lever at once (`abandon`): the only safe exit
    /// from a crashed run, whose drain would never finish.
    Abort,
    /// Let a live runner drain the closed queue, so a subscriber's
    /// iterator does not end while matches are in flight, and swallow
    /// its panic (a handle dropped without `close`).
    Release,
}

/// A drained run, ready for collection.
struct Drained {
    /// The quiesced backend.
    backend: Box<dyn ExecBackend<OpMsg>>,
    /// [`NetBackend::take_finals`]' answer; without one the finals are
    /// harvested from the backend's own tasks.
    remote: Option<Finals>,
    wiring: Wiring,
    end: SimTime,
}

/// Marks the session's [`FaultLog`] when the runner thread leaves the
/// backend's run, however it leaves.
struct RunEnded(FaultLog);

impl Drop for RunEnded {
    fn drop(&mut self) {
        self.0.end_run();
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        let _ = self.end(End::Release);
    }
}

/// Enqueue one tuple on a simulator session, pumping on a full queue.
/// A pump runs the simulator to quiescence, which drains the queue in
/// every healthy state — so a queue that is *still* full afterwards
/// means the flow-control window wedged with no credits in flight, a
/// state no amount of retrying can leave. Fail loudly (the same
/// diagnostic the offline driver raises at drain time) instead of
/// spinning forever.
fn sim_push(
    queue: &IngestQueue,
    sim: &mut Sim<OpMsg>,
    wiring: &Wiring,
    rel: Rel,
    item: StreamItem,
) -> Result<(), PushError> {
    match queue.try_push(rel, item) {
        Err(PushError::Full) => {
            pump_sim(sim, wiring.source_id, queue);
            match queue.try_push(rel, item) {
                Err(PushError::Full) => panic!(
                    "flow-control wedge: the simulator quiesced with the ingest queue \
                     still full — the window closed with no credits in flight \
                     (window_copies too small for the joiners' credit batching?)"
                ),
                res => res,
            }
        }
        res => res,
    }
}

/// The simulator's external-event pump: wake the source if it parked
/// and new input arrived since — its timer starts at the current virtual
/// instant — then run queued events to quiescence.
fn pump_sim(sim: &mut Sim<OpMsg>, source_id: TaskId, queue: &IngestQueue) -> SimTime {
    if queue.unpark_ready() {
        let now = sim.now();
        sim.start_timer_at(now, source_id, SourceTask::TICK);
    }
    sim.pump()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(key: i64) -> StreamItem {
        StreamItem {
            key,
            aux: 0,
            bytes: 64,
        }
    }

    #[test]
    fn queue_bounds_and_close_semantics() {
        let q = IngestQueue::bounded(2);
        assert_eq!(q.try_push(Rel::R, item(1)), Ok(()));
        assert_eq!(q.try_push(Rel::S, item(2)), Ok(()));
        assert_eq!(q.try_push(Rel::R, item(3)), Err(PushError::Full));
        let mut out = Vec::new();
        q.pop_upto(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(q.try_push(Rel::R, item(3)), Ok(()));
        q.close();
        assert_eq!(q.try_push(Rel::R, item(4)), Err(PushError::Closed));
        assert_eq!(q.push(Rel::R, item(4)), Err(PushError::Closed));
        assert_eq!(q.pushed(), 3);
    }

    /// Run `blocked` on its own thread; once `asleep` sees it waiting on
    /// its condvar, run `release` here. A 2 s watchdog fails the test,
    /// instead of hanging it, if the thread never sleeps or never wakes.
    fn wakes_within(
        asleep: impl Fn() -> bool,
        blocked: impl FnOnce() + Send + 'static,
        release: impl FnOnce(),
    ) {
        use std::time::{Duration, Instant};
        let (tx, rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            blocked();
            let _ = tx.send(());
        });
        let watchdog = Instant::now() + Duration::from_secs(2);
        while !asleep() {
            assert!(Instant::now() < watchdog, "never went to sleep");
            std::thread::yield_now();
        }
        release();
        let woke = rx.recv_timeout(Duration::from_secs(2)).is_ok();
        assert!(woke, "the wake-up was lost");
        t.join().unwrap();
    }

    #[test]
    fn wake_ingest_push_on_a_full_queue_wakes_on_pop_upto() {
        let q = IngestQueue::bounded(1);
        q.try_push(Rel::R, item(1)).unwrap();
        let q2 = Arc::clone(&q);
        wakes_within(
            || q.space.has_sleepers(&q.state.lock().unwrap()),
            move || q2.push(Rel::S, item(2)).unwrap(),
            || q.pop_upto(1, &mut Vec::new()),
        );
        assert_eq!(q.queued(), 1);
    }

    #[test]
    fn wake_hub_blocking_next_wakes_on_a_later_emit() {
        let hub = MatchHub::new(0);
        let slot = hub.subscribe_slot(KeyFilter::All, 0);
        let mut sub = MatchSubscription {
            hub: Arc::clone(&hub),
            slot,
        };
        wakes_within(
            || hub.ready.has_sleepers(&hub.state.lock().unwrap()),
            move || assert_eq!(sub.next(), Some(pair(7, 7))),
            || hub.emit(pair(7, 7)),
        );
    }

    #[test]
    fn wake_hub_emitter_blocked_at_its_bound_wakes_on_try_next() {
        let hub = MatchHub::new(1);
        let slot = hub.subscribe_slot(KeyFilter::All, 1);
        let mut sub = MatchSubscription {
            hub: Arc::clone(&hub),
            slot,
        };
        hub.emit(pair(1, 1));
        let hub2 = Arc::clone(&hub);
        wakes_within(
            || hub.space.has_sleepers(&hub.state.lock().unwrap()),
            move || hub2.emit(pair(2, 2)),
            || assert_eq!(sub.try_next(), Some(pair(1, 1))),
        );
        assert_eq!(sub.try_next(), Some(pair(2, 2)));
    }

    /// A waker that counts its wakes.
    fn counting_waker() -> (Waker, Arc<AtomicU64>) {
        let wakes = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&wakes);
        let waker: Waker = Arc::new(move || {
            w.fetch_add(1, Ordering::SeqCst);
        });
        (waker, wakes)
    }

    #[test]
    fn a_push_or_close_wakes_a_parked_source_once() {
        let q = IngestQueue::bounded(8);
        let (waker, wakes) = counting_waker();
        q.install_waker(waker);
        assert_eq!(q.poll_or_park(), Inlet::Parked);
        q.push(Rel::R, item(1)).unwrap();
        q.push(Rel::S, item(2)).unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "one wake per park");
        assert_eq!(q.poll_or_park(), Inlet::Ready, "tuples queued: no park");
        let mut out = Vec::new();
        q.pop_upto(8, &mut out);
        assert_eq!(q.poll_or_park(), Inlet::Parked);
        q.close();
        assert_eq!(
            wakes.load(Ordering::SeqCst),
            2,
            "close wakes the parked source"
        );
        assert_eq!(q.poll_or_park(), Inlet::Drained);
        q.close();
        assert_eq!(
            wakes.load(Ordering::SeqCst),
            2,
            "nothing parked, nothing woken"
        );
    }

    #[test]
    fn without_a_waker_the_park_waits_for_the_sim_pump() {
        let q = IngestQueue::bounded(8);
        assert_eq!(q.poll_or_park(), Inlet::Parked);
        assert!(!q.unpark_ready(), "parked on an empty queue: nothing to do");
        q.try_push(Rel::R, item(1)).unwrap();
        assert!(q.unpark_ready(), "input arrived while parked");
        assert!(!q.unpark_ready(), "taken once");
        // A close alone does not restart the simulator's source: the
        // simulator quiesces around a parked source anyway.
        let mut out = Vec::new();
        q.pop_upto(8, &mut out);
        assert_eq!(q.poll_or_park(), Inlet::Parked);
        q.close();
        assert!(!q.unpark_ready());
    }

    fn pair(r_key: i64, s_key: i64) -> Match {
        Match {
            r_seq: 1,
            s_seq: 2,
            r_key,
            s_key,
        }
    }

    #[test]
    fn hub_drops_without_subscriber_and_buffers_with_one() {
        let hub = MatchHub::new(4);
        let m = pair(0, 0);
        hub.emit(m);
        assert!(!hub.attached(), "unattached hubs buffer nothing");
        assert!(hub.state.lock().unwrap().buf.is_empty());
        let slot = hub.subscribe_slot(KeyFilter::All, 4);
        hub.emit(m);
        assert_eq!(hub.try_recv(slot), Some(m));
        hub.finish();
        assert_eq!(hub.recv(slot), None);
    }

    #[test]
    fn hub_fans_out_to_independent_cursors() {
        let hub = MatchHub::new(0);
        let a = hub.subscribe_slot(KeyFilter::All, 0);
        let b = hub.subscribe_slot(KeyFilter::All, 0);
        hub.emit(pair(1, 1));
        hub.emit(pair(2, 2));
        // Both subscribers see both matches, at their own pace.
        assert_eq!(hub.try_recv(a).unwrap().r_key, 1);
        assert_eq!(hub.try_recv(b).unwrap().r_key, 1);
        assert_eq!(hub.try_recv(b).unwrap().r_key, 2);
        assert_eq!(hub.try_recv(a).unwrap().r_key, 2);
        assert!(hub.try_recv(a).is_none());
        // A third subscriber attaches at the head: only future matches.
        let c = hub.subscribe_slot(KeyFilter::All, 0);
        hub.emit(pair(3, 3));
        assert_eq!(hub.try_recv(c).unwrap().r_key, 3);
        assert_eq!(hub.try_recv(a).unwrap().r_key, 3);
        assert_eq!(hub.try_recv(b).unwrap().r_key, 3);
    }

    #[test]
    fn hub_filter_skips_unwanted_pairs_and_never_buffers_them() {
        let hub = MatchHub::new(0);
        let slot = hub.subscribe_slot(KeyFilter::range(10, 19), 0);
        hub.emit(pair(5, 5)); // no subscriber wants it: dropped at emit
        hub.emit(pair(12, 12));
        hub.emit(pair(42, 42));
        assert_eq!(hub.state.lock().unwrap().buf.len(), 1);
        assert_eq!(hub.try_recv(slot), Some(pair(12, 12)));
        assert!(hub.try_recv(slot).is_none());
    }

    #[test]
    fn hub_trims_to_the_slowest_active_cursor() {
        let hub = MatchHub::new(0);
        let fast = hub.subscribe_slot(KeyFilter::All, 0);
        let slow = hub.subscribe_slot(KeyFilter::All, 0);
        for k in 0..4 {
            hub.emit(pair(k, k));
        }
        for _ in 0..4 {
            hub.try_recv(fast);
        }
        assert_eq!(
            hub.state.lock().unwrap().buf.len(),
            4,
            "the slow subscriber still owns the backlog"
        );
        // Detaching the straggler frees everything the fast one consumed.
        hub.detach_slot(slow);
        assert_eq!(hub.state.lock().unwrap().buf.len(), 0);
        assert!(hub.attached());
        hub.detach_slot(fast);
        assert!(!hub.attached());
    }

    #[test]
    fn hub_ship_spec_unions_subscriber_filters() {
        let hub = MatchHub::new(0);
        assert_eq!(hub.ship_spec(), (false, Vec::new()));
        let e0 = hub.filter_epoch();
        let a = hub.subscribe_slot(KeyFilter::range(0, 9), 0);
        let b = hub.subscribe_slot(KeyFilter::key(42), 0);
        assert!(hub.filter_epoch() > e0, "subscribing bumps the epoch");
        let (on, filters) = hub.ship_spec();
        assert!(on);
        assert_eq!(filters, vec![KeyFilter::range(0, 9), KeyFilter::key(42)]);
        // One pass-all subscriber collapses the union to "everything".
        let c = hub.subscribe_slot(KeyFilter::All, 0);
        assert_eq!(hub.ship_spec(), (true, Vec::new()));
        hub.detach_slot(c);
        hub.detach_slot(b);
        assert_eq!(hub.ship_spec(), (true, vec![KeyFilter::range(0, 9)]));
        hub.detach_slot(a);
        assert_eq!(hub.ship_spec(), (false, Vec::new()));
    }
}
