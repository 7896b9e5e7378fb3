//! Per-machine mailboxes: bounded, class-aware MPSC queues with the same
//! weighted service policy as the simulator's machines.
//!
//! Each worker thread owns one mailbox and services it exactly like
//! `aoj_simnet::machine::Machine` services its queues:
//!
//! * **Control** messages (and fired timers) always jump the queue;
//! * **Migration** messages are serviced `migration_weight` times per
//!   **Data** message while both queues are backlogged (the paper's
//!   "migrated tuples are processed at twice the rate of new tuples");
//! * within one class, (sender, receiver) order is FIFO — producers are
//!   single threads pushing under one lock, so send order is enqueue
//!   order is service order.
//!
//! ## Tuple units
//!
//! The batch-first data plane coalesces many tuples into one message
//! ([`SimMessage::tuples`]), so both the
//! Data-queue bound and the weighted service policy account in **tuples**
//! rather than messages: a 64-tuple batch occupies 64 slots of the data
//! capacity, and while both queues are backlogged the policy serves
//! `migration_weight ×` the *tuple* volume of the next data batch in
//! migration traffic before that batch. With every message carrying one
//! tuple this degenerates to the original per-message scheme exactly.
//!
//! Only the Data queue is bounded, and the bound is **backpressure, not
//! a hard guarantee**: an *otherwise idle* producer facing a full data
//! queue waits up to `BACKPRESSURE_WAIT` for space and then enqueues
//! anyway. A producer whose own mailbox holds unserviced work skips the
//! wait entirely (the runtime checks `Mailbox::has_queued_work` on the
//! sender's mailbox before a bounded push) — a machine can host both
//! data producers and data consumers (in the operator topology every
//! machine runs a reshuffler *and* a joiner), and a worker stalled as a
//! producer cannot drain its own queues as a consumer. Without the
//! busy-sender exemption the backlogged regime degenerates into a convoy
//! of full-duration waits: every worker blocks pushing into some full
//! peer queue, so no worker pops, so every wait runs to its timeout and
//! aggregate throughput collapses to one timeout quantum of work per
//! machine per `BACKPRESSURE_WAIT`.
//!
//! The exemption also makes the design deadlock-free on its own: a
//! waiting producer has an empty mailbox, so any wait-for cycle would
//! have to include the machine whose data queue is full — and *that*
//! machine's worker has queued work, never waits, and eventually drains
//! the queue the cycle is stuck on. The bounded timeout stays as
//! belt-and-braces (the busy check is a snapshot, not a lock-step
//! invariant). Net effect: a pure producer (the stream source) is
//! throttled to its consumers' rate, while pipeline-interior workers
//! always prefer servicing their own backlog over sleeping on a full
//! downstream queue.
//!
//! The wait is paid **once per overflow episode**, not per message: after
//! a push times out, the mailbox stays in overflow mode — subsequent
//! full-queue pushes enqueue immediately — until the queue drains back
//! under its bound. Otherwise a saturated queue would throttle its
//! producers to one message per wait interval, a cliff rather than
//! degradation. Control and migration traffic is never bounded, and
//! loopback pushes (a worker sending to its own mailbox) never wait.
//!
//! ## Timers that need not run out
//!
//! Two kinds of timer spare an idle machine from sleeping on a clock:
//!
//! * an **or-idle** timer ([`Ctx::schedule_or_idle`]) fires at its
//!   deadline or as soon as [`pop_batch`](Mailbox::pop_batch) finds
//!   nothing runnable, whichever comes first. A coalescer's age bound is
//!   one: under load it fires at the deadline, on an idle machine the
//!   partial batch leaves at once.
//! * a **parked** timer ([`Ctx::park`]) has no deadline. It fires when
//!   `unpark` names its task, from any thread; an
//!   unpark that arrives before the park is kept and makes the park due
//!   the moment it is recorded. The consumer yields its CPU once before
//!   serving an unparked timer: the unpark comes from a producer's first
//!   push into an idle session, and a producer pushing tuple by tuple is
//!   still mid-burst. On a shared core the woken consumer would preempt
//!   it and drain the burst piecemeal, one message downstream per piece;
//!   after the yield it drains the burst whole.
//!
//! ## Wake-ups only for sleepers
//!
//! Both condvars are [`CountedCondvar`]s: a push, timer, park or unpark
//! wakes the consumer, and a pop wakes blocked producers, only when one
//! sleeps. A busy consumer is the common case under load, and a futex
//! wake that finds nobody costs several times the lock it follows.
//! Shutdown, `interrupt` and
//! [`complete_drain`](Mailbox::complete_drain) notify unconditionally.
//!
//! [`Ctx::schedule_or_idle`]: aoj_simnet::Ctx::schedule_or_idle
//! [`Ctx::park`]: aoj_simnet::Ctx::park

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest a producer waits for data-queue space before overflowing the
/// bound. Long enough that steady-state backpressure throttles a fast
/// source; short enough that transient producer/consumer cycles resolve
/// without visible stalls.
pub(crate) const BACKPRESSURE_WAIT: Duration = Duration::from_millis(20);

use crate::condvar::CountedCondvar;
use aoj_simnet::{
    Ctx, Effect, MachineId, Metrics, MsgClass, SimDuration, SimMessage, SimTime, TaskId, TaskMap,
    Waker,
};

/// A unit of work queued at a machine.
///
/// Public so other execution backends (the TCP backend in `aoj-net`)
/// can reuse the mailbox and its weighted-service policy for their own
/// machine loops.
pub enum Work<M> {
    /// A delivered message.
    Msg {
        /// Sending task.
        from: TaskId,
        /// Receiving task (hosted on this mailbox's machine).
        to: TaskId,
        /// The message.
        msg: M,
    },
    /// A fired timer (serviced with control priority, like the sim).
    Timer {
        /// The task whose timer fired.
        task: TaskId,
        /// Timer key.
        key: u64,
    },
    /// A retirement flush token (control priority), posted into every
    /// live peer's control queue when a machine retires, FIFO behind
    /// whatever the retiring node sent that peer before. A peer consuming
    /// it has passed the point after which it can no longer send to the
    /// retiree. In the threaded runtime the worker that consumes the
    /// **last** token calls [`complete_drain`](Mailbox::complete_drain)
    /// on the retiree's mailbox so its worker can tear down for real. An
    /// `aoj-net` node that consumes one answers the retiree last on its
    /// link to the retiring generation and closes it; the retiree counts
    /// those answers itself, so there too the last consumed token
    /// completes the drain.
    Flush {
        /// Index of the retiring machine the token vouches for.
        machine: usize,
        /// The incarnation it retires: an `aoj-net` node answers and
        /// closes only its link to that generation of the machine's
        /// process. The threaded runtime, whose re-provisioned machine
        /// reuses the same mailbox, posts 0.
        gen: u32,
    },
}

/// A pending timer: `(deadline_us, seq)` ordering keeps same-deadline
/// timers in schedule order.
type TimerEntry = Reverse<(u64, u64, usize, u64, bool)>; // (at, seq, task, key, or_idle)

struct State<M> {
    control: VecDeque<(Work<M>, u64)>,
    data: VecDeque<(Work<M>, u64)>,
    migration: VecDeque<(Work<M>, u64)>,
    timers: BinaryHeap<TimerEntry>,
    timer_seq: u64,
    /// How many of `timers` fire early when nothing else is runnable.
    or_idle_timers: usize,
    /// Parked timers `(task, key)`: no deadline, made due by `unpark`.
    parked: Vec<(usize, u64)>,
    /// Tasks unparked before their park was recorded.
    early_unparks: Vec<usize>,
    /// An unpark made a parked timer due: the consumer yields once before
    /// serving it (see the module docs).
    yield_first: bool,
    /// Tuple units currently queued in `data` (the bounded quantity).
    data_units: u64,
    /// Migration tuple units served since the last data service.
    migration_credit: u64,
    /// True between a timed-out data push and the queue next draining
    /// below capacity: pushes skip the backpressure wait meanwhile.
    overflowed: bool,
    /// Set by [`Mailbox::complete_drain`] once the retirement flush
    /// barrier for this machine has completed: `pop_batch` returns
    /// `false` (while the global run continues) as soon as every queue
    /// and pending timer has been serviced, letting the worker exit.
    drained: bool,
    /// Set by [`Mailbox::interrupt`]: the next `pop_batch` returns early.
    interrupted: bool,
}

/// One machine's inbound queue set.
///
/// Public (like [`Work`]) so `aoj-net` worker processes can service
/// their local machines with the exact semantics the threaded runtime
/// pins here.
pub struct Mailbox<M> {
    state: Mutex<State<M>>,
    /// Consumer-side wakeups (new work, shutdown). The per-message
    /// sites notify only a consumer that sleeps.
    work_ready: CountedCondvar,
    /// Producer-side wakeups (data space freed, shutdown). A pop
    /// notifies only producers that sleep.
    space_free: CountedCondvar,
    data_capacity: usize,
    migration_weight: u32,
}

impl<M> Mailbox<M> {
    /// A mailbox bounding `data_capacity` queued Data-class tuple units
    /// and serving migration traffic at `migration_weight : 1` over
    /// data while both queues are backlogged.
    pub fn new(data_capacity: usize, migration_weight: u32) -> Mailbox<M> {
        Mailbox {
            state: Mutex::new(State {
                control: VecDeque::new(),
                data: VecDeque::new(),
                migration: VecDeque::new(),
                timers: BinaryHeap::new(),
                timer_seq: 0,
                or_idle_timers: 0,
                parked: Vec::new(),
                early_unparks: Vec::new(),
                yield_first: false,
                data_units: 0,
                migration_credit: 0,
                overflowed: false,
                drained: false,
                interrupted: false,
            }),
            work_ready: CountedCondvar::new(),
            space_free: CountedCondvar::new(),
            data_capacity: data_capacity.max(1),
            migration_weight: migration_weight.max(1),
        }
    }

    /// Enqueue a message carrying `units` tuple units (1 for everything
    /// that is not a tuple batch). `bounded` data pushes wait up to
    /// `BACKPRESSURE_WAIT` while the data queue holds `data_capacity`
    /// or more tuple units, then enqueue regardless (see module docs for
    /// why the wait must be bounded); loopback callers pass
    /// `bounded = false`.
    pub fn push_msg(
        &self,
        class: MsgClass,
        work: Work<M>,
        units: u64,
        bounded: bool,
        done: &AtomicBool,
    ) {
        let units = units.max(1);
        let mut st = self.state.lock().unwrap();
        if bounded && class == MsgClass::Data {
            if st.data_units < self.data_capacity as u64 {
                // Pressure relieved: the next full queue starts a fresh
                // backpressure episode.
                st.overflowed = false;
            } else if !st.overflowed {
                let deadline = Instant::now() + BACKPRESSURE_WAIT;
                while st.data_units >= self.data_capacity as u64 && !done.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now >= deadline {
                        // Overflow the bound rather than risk a cyclic
                        // stall; skip the wait until the queue drains.
                        st.overflowed = true;
                        break;
                    }
                    st = self.space_free.wait_timeout(st, deadline - now);
                }
            }
        }
        match class {
            MsgClass::Control => st.control.push_back((work, units)),
            MsgClass::Data => {
                st.data_units += units;
                st.data.push_back((work, units));
            }
            MsgClass::Migration => st.migration.push_back((work, units)),
        }
        self.work_ready.notify_one_unlock(st);
    }

    /// Register a timer firing at `at_us` (wall micros since run start),
    /// or — `or_idle` — as soon as the consumer finds nothing runnable,
    /// if that comes first.
    pub fn push_timer(&self, at_us: u64, task: TaskId, key: u64, or_idle: bool) {
        let mut st = self.state.lock().unwrap();
        let seq = st.timer_seq;
        st.timer_seq += 1;
        st.timers
            .push(Reverse((at_us, seq, task.index(), key, or_idle)));
        st.or_idle_timers += or_idle as usize;
        // The new timer may be earlier than whatever the worker sleeps on
        // (or, being or-idle, due at once on an idle worker).
        self.work_ready.notify_one_unlock(st);
    }

    /// Park `task` under `key`: a timer with no deadline, due once
    /// `unpark` names the task — at once if an unpark
    /// already came in ahead of this park.
    pub fn park(&self, task: TaskId, key: u64) {
        let mut st = self.state.lock().unwrap();
        match st.early_unparks.iter().position(|&t| t == task.index()) {
            Some(i) => {
                st.early_unparks.swap_remove(i);
                st.control.push_back((Work::Timer { task, key }, 1));
                self.work_ready.notify_one_unlock(st);
            }
            None => st.parked.push((task.index(), key)),
        }
    }

    /// Make `task`'s parked timer due now. An unpark that finds no park
    /// is kept for the task's next [`park`](Mailbox::park): the waker
    /// may beat the backend recording the park it answers.
    pub(crate) fn unpark(&self, task: TaskId) {
        let mut st = self.state.lock().unwrap();
        match st.parked.iter().position(|&(t, _)| t == task.index()) {
            Some(i) => {
                let (_, key) = st.parked.swap_remove(i);
                st.control.push_back((Work::Timer { task, key }, 1));
                st.yield_first = true;
                self.work_ready.notify_one_unlock(st);
            }
            None => st.early_unparks.push(task.index()),
        }
    }

    /// Dequeue the next unit of work per the weighted policy, blocking
    /// until work arrives, a timer comes due, or `done` is set (which
    /// returns `None`).
    #[cfg(test)]
    pub(crate) fn pop(&self, now_us: impl Fn() -> u64, done: &AtomicBool) -> Option<Work<M>> {
        let mut batch = Vec::with_capacity(1);
        if self.pop_batch(1, &mut batch, now_us, done) {
            batch.pop()
        } else {
            None
        }
    }

    /// Drain up to `max` units of work into `out` under **one** lock
    /// acquisition, blocking (like a single pop) while the
    /// mailbox is empty. Returns `false` on shutdown — or, after
    /// [`complete_drain`](Mailbox::complete_drain), once every queue
    /// and pending timer has been serviced (the consumer distinguishes
    /// the two by checking its shutdown flag). Returns `true` with
    /// `out` non-empty otherwise — or with `out` empty right after an
    /// `interrupt`, even one that raced shutdown.
    ///
    /// The per-message selection inside the batch is byte-identical to
    /// repeated single pops at the same instant: due timers and control
    /// first, then migration/data under the `migration_weight : 1` credit
    /// scheme — batching amortises the lock without changing the service
    /// order the epoch protocol's Theorem 4.6 argument assumes. Only when
    /// that finds nothing to serve do the pending or-idle timers fire,
    /// ahead of their deadlines.
    pub fn pop_batch(
        &self,
        max: usize,
        out: &mut Vec<Work<M>>,
        now_us: impl Fn() -> u64,
        done: &AtomicBool,
    ) -> bool {
        debug_assert!(out.is_empty());
        let max = max.max(1);
        let mut st = self.state.lock().unwrap();
        loop {
            // An interrupt beats shutdown: the consumer re-checks its own
            // flags before it may exit.
            if std::mem::take(&mut st.interrupted) {
                return true;
            }
            if done.load(Ordering::Relaxed) {
                return false;
            }
            // Let the producer that unparked a task finish its burst.
            if std::mem::take(&mut st.yield_first) {
                drop(st);
                std::thread::yield_now();
                st = self.state.lock().unwrap();
            }
            let now = now_us();
            // Promote due timers into the control queue, in deadline order.
            while let Some(&Reverse((at, _, task, key, or_idle))) = st.timers.peek() {
                if at > now {
                    break;
                }
                st.timers.pop();
                st.or_idle_timers -= or_idle as usize;
                st.control.push_back((
                    Work::Timer {
                        task: TaskId(task),
                        key,
                    },
                    1,
                ));
            }
            let mut data_popped = false;
            while out.len() < max {
                if let Some((w, _)) = st.control.pop_front() {
                    out.push(w);
                    continue;
                }
                let has_data = !st.data.is_empty();
                let has_mig = !st.migration.is_empty();
                // Which queue the weighted policy serves next. Weighted
                // service is in tuple units: serve `migration_weight ×`
                // the next data batch's tuple volume in migration traffic
                // before the batch itself. With 1-tuple messages this is
                // the classic M,M,D per-message pattern.
                let serve_migration = match (has_mig, has_data) {
                    (false, false) => break,
                    (true, false) => true,
                    (false, true) => {
                        st.migration_credit = 0;
                        false
                    }
                    (true, true) => {
                        let front_data_units = st.data.front().map(|(_, u)| *u).unwrap_or(1);
                        if st.migration_credit < self.migration_weight as u64 * front_data_units {
                            true
                        } else {
                            st.migration_credit = 0;
                            false
                        }
                    }
                };
                if serve_migration {
                    let (w, units) = st.migration.pop_front().expect("migration queue non-empty");
                    if has_data {
                        st.migration_credit += units;
                    }
                    out.push(w);
                } else {
                    let (w, units) = st.data.pop_front().expect("data queue non-empty");
                    st.data_units -= units;
                    data_popped = true;
                    out.push(w);
                }
            }
            if !out.is_empty() {
                if data_popped {
                    // Data slots freed; wake blocked producers.
                    self.space_free.notify_all_unlock(st);
                }
                return true;
            }
            // Nothing runnable: the or-idle timers need not wait out
            // their deadlines. Promote them, in deadline order, and serve.
            if st.or_idle_timers > 0 {
                st.fire_or_idle_timers();
                continue;
            }
            // Retirement drain complete *and* nothing left to service —
            // not even an undue or parked timer (a pending age-flush must
            // still fire and be processed before teardown): the consumer
            // may exit while the global run continues.
            if st.drained && st.timers.is_empty() && st.parked.is_empty() {
                return false;
            }
            // Nothing runnable: sleep until the next timer deadline or a
            // producer/shutdown wakeup.
            st = match st.timers.peek() {
                Some(&Reverse((at, ..))) => {
                    let wait = Duration::from_micros(at.saturating_sub(now));
                    self.work_ready.wait_timeout(st, wait)
                }
                None => self.work_ready.wait(st),
            };
        }
    }

    /// True while any queue holds unserviced work (pending-but-undue
    /// and parked timers do not count: a worker waiting out a timer
    /// deadline is genuinely idle). Producers consult their **own** mailbox through
    /// this before paying the backpressure wait on a full destination —
    /// see the module docs for the progress argument.
    pub(crate) fn has_queued_work(&self) -> bool {
        let st = self.state.lock().unwrap();
        !st.control.is_empty() || !st.data.is_empty() || !st.migration.is_empty()
    }

    /// Wake every waiter (consumer and producers) — used at shutdown.
    pub fn wake_all(&self) {
        let _guard = self.state.lock().unwrap();
        self.work_ready.notify_all();
        self.space_free.notify_all();
    }

    /// Wake the consumer with nothing to service: its next (or current,
    /// idle) [`pop_batch`](Mailbox::pop_batch) returns `true` with an
    /// empty batch, so the consumer re-checks its own flags (the
    /// threaded runtime's kill request) without waiting for work.
    pub(crate) fn interrupt(&self) {
        self.state.lock().unwrap().interrupted = true;
        self.work_ready.notify_all();
    }

    /// Mark the retirement flush barrier complete: no producer will
    /// enqueue here again, so [`pop_batch`](Mailbox::pop_batch) returns
    /// `false` once the already-queued backlog (including pending
    /// timers) has been serviced, releasing the consumer thread.
    pub fn complete_drain(&self) {
        let mut st = self.state.lock().unwrap();
        st.drained = true;
        drop(st);
        self.work_ready.notify_all();
    }

    /// Re-arm a drained mailbox for a fresh consumer (re-provisioning a
    /// retired machine). The queues are empty by construction — the old
    /// consumer exited only after servicing everything.
    pub(crate) fn reset_for_reuse(&self) {
        let mut st = self.state.lock().unwrap();
        assert!(
            st.control.is_empty() && st.data.is_empty() && st.migration.is_empty(),
            "reset of a mailbox with queued work"
        );
        st.drained = false;
        st.overflowed = false;
    }

    /// Return the queues' heap allocations to the OS — the teardown
    /// half of a hard retirement. The mailbox object itself stays in
    /// the runtime's shared table (peers still index it, and the
    /// machine may be re-provisioned), but it holds no storage.
    pub fn release_storage(&self) {
        let mut st = self.state.lock().unwrap();
        st.control = VecDeque::new();
        st.data = VecDeque::new();
        st.migration = VecDeque::new();
        st.timers = BinaryHeap::new();
        st.or_idle_timers = 0;
        st.parked = Vec::new();
        st.early_unparks = Vec::new();
    }
}

impl<M> State<M> {
    /// Move every pending or-idle timer into the control queue in
    /// deadline order, leaving the deadline-only timers pending.
    fn fire_or_idle_timers(&mut self) {
        let mut pending: Vec<_> = std::mem::take(&mut self.timers)
            .into_iter()
            .map(|Reverse(t)| t)
            .collect();
        pending.sort_unstable();
        for (at, seq, task, key, or_idle) in pending {
            if or_idle {
                let task = TaskId(task);
                self.control.push_back((Work::Timer { task, key }, 1));
            } else {
                self.timers.push(Reverse((at, seq, task, key, or_idle)));
            }
        }
        self.or_idle_timers = 0;
    }
}

/// Hand every task in `tasks` the [`Waker`] that unparks it on
/// `mailbox`. Every live machine loop calls this before it services its
/// first work item.
pub fn install_wakers<M: SimMessage + Send + 'static>(
    mailbox: &Arc<Mailbox<M>>,
    tasks: &mut TaskMap<M>,
) {
    for (&idx, task) in tasks.iter_mut() {
        let mb = Arc::clone(mailbox);
        let waker: Waker = Arc::new(move || mb.unpark(TaskId(idx)));
        task.install_waker(waker);
    }
}

/// Service one popped unit of work: run the addressed task's handler at
/// `now`, charge machine `mid`'s row of `shard` (arrival, real CPU
/// occupancy — not the modeled cost the handler returns —, event count)
/// and hand back `(task, effects)`. Every live machine loop
/// (this crate's worker threads, `aoj-net`'s nodes) dispatches through
/// here; applying the effects — thread spawn or socket stage — is the
/// backend's own.
#[inline]
pub fn dispatch<M: SimMessage>(
    work: Work<M>,
    tasks: &mut TaskMap<M>,
    shard: &mut Metrics,
    mid: MachineId,
    now: SimTime,
) -> (TaskId, Vec<Effect<M>>) {
    let started = Instant::now();
    let (self_task, effects) = match work {
        Work::Msg { from, to, msg } => {
            shard.on_arrive(mid, msg.bytes());
            let task = tasks
                .get_mut(&to.index())
                .expect("message routed to a machine not hosting its task");
            let mut ctx = Ctx::new(now, shard);
            task.on_message(&mut ctx, from, msg);
            (to, ctx.take_effects())
        }
        Work::Timer { task: tid, key } => {
            let task = tasks
                .get_mut(&tid.index())
                .expect("timer fired on a machine not hosting its task");
            let mut ctx = Ctx::new(now, shard);
            task.on_timer(&mut ctx, key);
            (tid, ctx.take_effects())
        }
        // Flush tokens address the machine loop, not a task: both the
        // runtime's workers and `aoj-net`'s nodes consume them before
        // dispatch.
        Work::Flush { .. } => panic!("flush token reached task dispatch"),
    };
    shard.on_busy(mid, SimDuration(started.elapsed().as_micros() as u64));
    shard.events += 1;
    shard.last_event_at = now;
    (self_task, effects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn msg(n: u64) -> Work<u64> {
        Work::Msg {
            from: TaskId(0),
            to: TaskId(0),
            msg: n,
        }
    }

    fn val(w: Work<u64>) -> u64 {
        match w {
            Work::Msg { msg, .. } => msg,
            Work::Timer { key, .. } => 1_000_000 + key,
            Work::Flush { machine, .. } => 2_000_000 + machine as u64,
        }
    }

    #[test]
    fn weighted_service_mirrors_the_simulator() {
        let mb: Mailbox<u64> = Mailbox::new(1024, 2);
        let done = AtomicBool::new(false);
        for i in 0..6 {
            mb.push_msg(MsgClass::Migration, msg(100 + i), 1, true, &done);
        }
        for i in 0..3 {
            mb.push_msg(MsgClass::Data, msg(i), 1, true, &done);
        }
        let order: Vec<u64> = (0..9).map(|_| val(mb.pop(|| 0, &done).unwrap())).collect();
        // Same M,M,D pattern as aoj_simnet::machine's unit test.
        assert_eq!(order, vec![100, 101, 0, 102, 103, 1, 104, 105, 2]);
    }

    #[test]
    fn batched_drain_matches_single_pop_order() {
        // The same fill pattern as `weighted_service_mirrors_the_simulator`
        // must come out in the same order whether drained one-at-a-time or
        // in one batched lock acquisition.
        let fill = |mb: &Mailbox<u64>, done: &AtomicBool| {
            for i in 0..6 {
                mb.push_msg(MsgClass::Migration, msg(100 + i), 1, true, done);
            }
            for i in 0..3 {
                mb.push_msg(MsgClass::Data, msg(i), 1, true, done);
            }
            mb.push_msg(MsgClass::Control, msg(999), 1, true, done);
        };
        let done = AtomicBool::new(false);
        let single: Mailbox<u64> = Mailbox::new(1024, 2);
        fill(&single, &done);
        let one_at_a_time: Vec<u64> = (0..10)
            .map(|_| val(single.pop(|| 0, &done).unwrap()))
            .collect();

        let batched: Mailbox<u64> = Mailbox::new(1024, 2);
        fill(&batched, &done);
        let mut all = Vec::new();
        let mut buf = Vec::new();
        while all.len() < 10 {
            assert!(batched.pop_batch(4, &mut buf, || 0, &done));
            assert!(buf.len() <= 4, "batch overflowed the cap");
            all.extend(buf.drain(..).map(val));
        }
        assert_eq!(all, one_at_a_time);
        // Control preempts, then M,M,D weighted service.
        assert_eq!(all, vec![999, 100, 101, 0, 102, 103, 1, 104, 105, 2]);
    }

    #[test]
    fn weighted_service_accounts_tuple_units() {
        // The front data message is a 4-tuple batch: the policy owes it
        // 2 × 4 = 8 migration tuple units before serving it.
        let mb: Mailbox<u64> = Mailbox::new(1024, 2);
        let done = AtomicBool::new(false);
        for i in 0..10 {
            mb.push_msg(MsgClass::Migration, msg(100 + i), 1, true, &done);
        }
        mb.push_msg(MsgClass::Data, msg(0), 4, true, &done);
        let order: Vec<u64> = (0..11).map(|_| val(mb.pop(|| 0, &done).unwrap())).collect();
        assert_eq!(
            order,
            vec![100, 101, 102, 103, 104, 105, 106, 107, 0, 108, 109],
            "8 migration units precede the 4-tuple data batch"
        );
    }

    #[test]
    fn data_capacity_counts_tuples_not_messages() {
        // One 8-tuple batch saturates an 8-unit bound: the next bounded
        // data push must pay the backpressure wait even though only one
        // *message* is queued.
        let mb: Mailbox<u64> = Mailbox::new(8, 2);
        let done = AtomicBool::new(false);
        mb.push_msg(MsgClass::Data, msg(0), 8, true, &done);
        let start = Instant::now();
        mb.push_msg(MsgClass::Data, msg(1), 1, true, &done);
        assert!(
            start.elapsed() >= BACKPRESSURE_WAIT,
            "a full-by-units queue must exert backpressure"
        );
        // Popping the batch frees all 8 units at once.
        assert_eq!(val(mb.pop(|| 0, &done).unwrap()), 0);
        let start = Instant::now();
        mb.push_msg(MsgClass::Data, msg(2), 4, true, &done);
        assert!(
            start.elapsed() < BACKPRESSURE_WAIT,
            "freed units must admit new batches immediately"
        );
    }

    #[test]
    fn batched_drain_returns_false_on_shutdown() {
        let mb: Mailbox<u64> = Mailbox::new(1024, 2);
        let done = AtomicBool::new(true);
        let mut buf = Vec::new();
        assert!(!mb.pop_batch(8, &mut buf, || 0, &done));
        assert!(buf.is_empty());
    }

    #[test]
    fn control_and_due_timers_preempt() {
        let mb: Mailbox<u64> = Mailbox::new(1024, 2);
        let done = AtomicBool::new(false);
        mb.push_msg(MsgClass::Data, msg(1), 1, true, &done);
        mb.push_timer(5, TaskId(9), 7, false);
        mb.push_msg(MsgClass::Control, msg(3), 1, true, &done);
        // At t=10 the timer is due: control first, then the timer, then data.
        assert_eq!(val(mb.pop(|| 10, &done).unwrap()), 3);
        assert_eq!(val(mb.pop(|| 10, &done).unwrap()), 1_000_007);
        assert_eq!(val(mb.pop(|| 10, &done).unwrap()), 1);
    }

    #[test]
    fn undue_timers_do_not_fire() {
        let mb: Mailbox<u64> = Mailbox::new(1024, 2);
        let done = AtomicBool::new(false);
        mb.push_timer(1_000, TaskId(0), 1, false);
        mb.push_msg(MsgClass::Data, msg(42), 1, true, &done);
        assert_eq!(val(mb.pop(|| 0, &done).unwrap()), 42);
    }

    #[test]
    fn shutdown_unblocks_pop() {
        let mb: Mailbox<u64> = Mailbox::new(1024, 2);
        let done = AtomicBool::new(true);
        assert!(mb.pop(|| 0, &done).is_none());
    }

    #[test]
    fn bounded_data_push_waits_for_space_then_preserves_fifo() {
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(2, 2));
        let done = Arc::new(AtomicBool::new(false));
        mb.push_msg(MsgClass::Data, msg(0), 1, true, &done);
        mb.push_msg(MsgClass::Data, msg(1), 1, true, &done);
        let mb2 = Arc::clone(&mb);
        let done2 = Arc::clone(&done);
        let producer = std::thread::spawn(move || {
            // Full: waits (bounded) until the consumer pops.
            mb2.push_msg(MsgClass::Data, msg(2), 1, true, &done2);
        });
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(val(mb.pop(|| 0, &done).unwrap()), 0);
        producer.join().unwrap();
        assert_eq!(val(mb.pop(|| 0, &done).unwrap()), 1);
        assert_eq!(val(mb.pop(|| 0, &done).unwrap()), 2);
    }

    #[test]
    fn complete_drain_releases_the_consumer_only_after_the_backlog() {
        let mb: Mailbox<u64> = Mailbox::new(1024, 2);
        let done = AtomicBool::new(false);
        mb.push_msg(MsgClass::Data, msg(1), 1, true, &done);
        mb.push_timer(50, TaskId(3), 9, false);
        mb.complete_drain();
        // Queued work still comes out, drained or not...
        assert_eq!(val(mb.pop(|| 0, &done).unwrap()), 1);
        // ...and an undue timer holds the consumer alive until it fires
        // (poll at t=10: nothing runnable, but not released either —
        // use a short non-blocking probe via the due-timer path).
        assert_eq!(val(mb.pop(|| 60, &done).unwrap()), 1_000_009);
        // Backlog fully serviced: the consumer is released while the
        // global run continues (`done` is still false).
        let mut buf = Vec::new();
        assert!(!mb.pop_batch(8, &mut buf, || 60, &done));
        assert!(buf.is_empty());
        // Re-arming for a re-provisioned machine restores service.
        mb.reset_for_reuse();
        mb.push_msg(MsgClass::Control, msg(7), 1, true, &done);
        assert_eq!(val(mb.pop(|| 60, &done).unwrap()), 7);
    }

    #[test]
    fn has_queued_work_sees_messages_but_not_undue_timers() {
        let mb: Mailbox<u64> = Mailbox::new(1024, 2);
        let done = AtomicBool::new(false);
        assert!(!mb.has_queued_work(), "fresh mailbox is idle");
        // A pending-but-undue timer is not work: a worker sleeping one
        // out must still pay the backpressure wait as a producer.
        mb.push_timer(1_000_000, TaskId(0), 1, false);
        assert!(!mb.has_queued_work());
        mb.push_msg(MsgClass::Data, msg(7), 1, true, &done);
        assert!(mb.has_queued_work(), "queued data is work");
        assert_eq!(val(mb.pop(|| 0, &done).unwrap()), 7);
        assert!(!mb.has_queued_work(), "drained mailbox is idle again");
        mb.push_msg(MsgClass::Control, msg(8), 1, true, &done);
        assert!(mb.has_queued_work(), "control traffic counts too");
    }

    #[test]
    fn bounded_data_push_overflows_rather_than_stalling_forever() {
        // No consumer at all: a full queue must not wedge the producer —
        // this is the deadlock-avoidance property the operator topology
        // relies on (every machine both produces and consumes data).
        let mb: Mailbox<u64> = Mailbox::new(1, 2);
        let done = AtomicBool::new(false);
        mb.push_msg(MsgClass::Data, msg(0), 1, true, &done);
        let start = std::time::Instant::now();
        mb.push_msg(MsgClass::Data, msg(1), 1, true, &done);
        let waited = start.elapsed();
        assert!(
            waited >= BACKPRESSURE_WAIT,
            "overflow push returned before the backpressure window"
        );
        assert!(
            waited < BACKPRESSURE_WAIT * 20,
            "push stalled far past the window"
        );
        // The wait is per overflow episode, not per message: while the
        // queue stays saturated, further pushes enqueue immediately.
        let start = std::time::Instant::now();
        for i in 2..100 {
            mb.push_msg(MsgClass::Data, msg(i), 1, true, &done);
        }
        assert!(
            start.elapsed() < BACKPRESSURE_WAIT,
            "saturated pushes must not wait per message"
        );
        // Everything is there, in order.
        for i in 0..100 {
            assert_eq!(val(mb.pop(|| 0, &done).unwrap()), i);
        }
        // Draining below the bound ends the episode: the next push that
        // finds the queue full (capacity is 1) waits again.
        mb.push_msg(MsgClass::Data, msg(0), 1, true, &done);
        let start = std::time::Instant::now();
        mb.push_msg(MsgClass::Data, msg(1), 1, true, &done);
        assert!(
            start.elapsed() >= BACKPRESSURE_WAIT,
            "fresh episode should pay the backpressure wait"
        );
    }

    /// Pop with a watchdog: `done` is raised after `patience`, so a pop
    /// that would block forever returns `None` instead of hanging.
    fn pop_within(mb: &Arc<Mailbox<u64>>, now: u64, patience: Duration) -> Option<u64> {
        let done = Arc::new(AtomicBool::new(false));
        let (mb2, done2) = (Arc::clone(mb), Arc::clone(&done));
        let (popped, wait) = std::sync::mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            if wait.recv_timeout(patience).is_err() {
                done2.store(true, Ordering::SeqCst);
                mb2.wake_all();
            }
        });
        let got = mb.pop(|| now, &done).map(val);
        let _ = popped.send(());
        watchdog.join().unwrap();
        got
    }

    #[test]
    fn or_idle_timer_fires_before_its_deadline_when_nothing_is_runnable() {
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(1024, 2));
        mb.push_timer(1_000_000, TaskId(4), 3, true);
        // Far before the deadline, but the mailbox is otherwise empty.
        let patience = Duration::from_secs(5);
        assert_eq!(pop_within(&mb, 0, patience), Some(1_000_003));
        // A plain timer at the same deadline would have blocked instead.
        mb.push_timer(1_000_000, TaskId(4), 5, false);
        assert_eq!(pop_within(&mb, 0, Duration::from_millis(20)), None);
    }

    #[test]
    fn or_idle_timer_waits_while_any_class_of_work_is_queued() {
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(1024, 2));
        let done = AtomicBool::new(false);
        mb.push_timer(1_000_000, TaskId(0), 1, true);
        mb.push_msg(MsgClass::Data, msg(10), 1, true, &done);
        mb.push_msg(MsgClass::Migration, msg(11), 1, true, &done);
        mb.push_msg(MsgClass::Control, msg(12), 1, true, &done);
        // A batch that finds work returns the work only.
        let mut buf = Vec::new();
        assert!(mb.pop_batch(8, &mut buf, || 0, &done));
        assert_eq!(buf.drain(..).map(val).collect::<Vec<_>>(), [12, 11, 10]);
        // One message at a time: the timer waits behind each class.
        for (class, n) in [
            (MsgClass::Control, 20),
            (MsgClass::Migration, 21),
            (MsgClass::Data, 22),
        ] {
            mb.push_msg(class, msg(n), 1, true, &done);
            assert_eq!(val(mb.pop(|| 0, &done).unwrap()), n);
        }
        // Only the empty mailbox fires it.
        assert_eq!(pop_within(&mb, 0, Duration::from_secs(5)), Some(1_000_001));
    }

    #[test]
    fn or_idle_timer_fires_at_its_deadline_under_sustained_load() {
        let mb: Mailbox<u64> = Mailbox::new(1024, 2);
        let done = AtomicBool::new(false);
        mb.push_timer(50, TaskId(0), 7, true);
        let mut order = Vec::new();
        // The consumer never finds the mailbox empty: one data message
        // arrives per pop, and the clock passes the deadline at t = 50.
        for (i, now) in [0u64, 20, 40, 60, 80].into_iter().enumerate() {
            mb.push_msg(MsgClass::Data, msg(i as u64), 1, true, &done);
            order.push(val(mb.pop(|| now, &done).unwrap()));
        }
        assert_eq!(order, [0, 1, 2, 1_000_007, 3]);
        assert_eq!(val(mb.pop(|| 80, &done).unwrap()), 4);
    }

    #[test]
    fn or_idle_timer_keeps_a_drained_mailbox_alive_until_it_fires() {
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(1024, 2));
        let done = AtomicBool::new(false);
        mb.push_msg(MsgClass::Data, msg(1), 1, true, &done);
        mb.push_timer(1_000_000, TaskId(3), 9, true);
        mb.complete_drain();
        assert_eq!(val(mb.pop(|| 0, &done).unwrap()), 1);
        // Drained, yet the pending age flush still runs first.
        assert_eq!(pop_within(&mb, 0, Duration::from_secs(5)), Some(1_000_009));
        let mut buf = Vec::new();
        assert!(!mb.pop_batch(8, &mut buf, || 0, &done));
    }

    #[test]
    fn a_parked_timer_waits_for_its_unpark_and_never_fires_on_idle() {
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(1024, 2));
        mb.park(TaskId(2), 1);
        assert!(!mb.has_queued_work(), "a parked timer is not work");
        assert_eq!(pop_within(&mb, u64::MAX, Duration::from_millis(20)), None);
        // An unpark from another thread wakes a consumer blocked on it.
        let mb2 = Arc::clone(&mb);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            mb2.unpark(TaskId(2));
        });
        assert_eq!(pop_within(&mb, 0, Duration::from_secs(5)), Some(1_000_001));
        waker.join().unwrap();
    }

    #[test]
    fn an_unpark_that_races_a_park_is_never_lost() {
        // Ahead of the park: kept, and the park is due at once.
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(1024, 2));
        mb.unpark(TaskId(1));
        mb.park(TaskId(1), 6);
        assert_eq!(pop_within(&mb, 0, Duration::from_secs(5)), Some(1_000_006));
        // Either order, from two threads, many times: every park fires.
        for round in 0..200u64 {
            let mb2 = Arc::clone(&mb);
            let unparker = std::thread::spawn(move || mb2.unpark(TaskId(1)));
            mb.park(TaskId(1), round);
            unparker.join().unwrap();
            assert_eq!(
                pop_within(&mb, 0, Duration::from_secs(5)),
                Some(1_000_000 + round),
                "round {round}: the wake was lost"
            );
        }
        // A drained mailbox holding a parked timer stays alive for it.
        mb.park(TaskId(1), 1);
        mb.complete_drain();
        assert_eq!(pop_within(&mb, 0, Duration::from_millis(20)), None);
        mb.unpark(TaskId(1));
        assert_eq!(pop_within(&mb, 0, Duration::from_secs(5)), Some(1_000_001));
    }

    /// Run `blocked` on its own thread; once `asleep` sees it waiting on
    /// its condvar, run `release` here. A 2 s watchdog fails the test,
    /// instead of hanging it, if the thread never sleeps or never wakes.
    fn wakes_within(
        asleep: impl Fn() -> bool,
        blocked: impl FnOnce() + Send + 'static,
        release: impl FnOnce(),
    ) {
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

    /// A consumer thread blocked in `pop_batch` on `mb`, expecting `want`.
    fn consumer(mb: &Arc<Mailbox<u64>>, want: u64) -> impl FnOnce() + Send + 'static {
        let mb = Arc::clone(mb);
        move || {
            let done = AtomicBool::new(false);
            assert_eq!(mb.pop(|| 0, &done).map(val), Some(want));
        }
    }

    fn consumer_asleep(mb: &Mailbox<u64>) -> bool {
        mb.work_ready.has_sleepers(&mb.state.lock().unwrap())
    }

    #[test]
    fn wake_consumer_with_no_timer_wakes_on_one_push_msg() {
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(1024, 2));
        let done = AtomicBool::new(false);
        wakes_within(
            || consumer_asleep(&mb),
            consumer(&mb, 5),
            || mb.push_msg(MsgClass::Data, msg(5), 1, true, &done),
        );
    }

    #[test]
    fn wake_consumer_with_no_timer_wakes_on_one_unpark() {
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(1024, 2));
        mb.park(TaskId(2), 4);
        wakes_within(
            || consumer_asleep(&mb),
            consumer(&mb, 1_000_004),
            || mb.unpark(TaskId(2)),
        );
    }

    #[test]
    fn wake_bounded_producer_on_a_full_queue_wakes_on_a_pop() {
        let mb: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(1, 2));
        let done = AtomicBool::new(false);
        mb.push_msg(MsgClass::Data, msg(0), 1, true, &done);
        let mb2 = Arc::clone(&mb);
        wakes_within(
            || mb.space_free.has_sleepers(&mb.state.lock().unwrap()),
            move || {
                let start = Instant::now();
                mb2.push_msg(MsgClass::Data, msg(1), 1, true, &AtomicBool::new(false));
                let waited = start.elapsed();
                assert!(
                    waited < BACKPRESSURE_WAIT,
                    "woke at the backpressure deadline ({waited:?}), not on the pop"
                );
            },
            || assert_eq!(mb.pop(|| 0, &done).map(val), Some(0)),
        );
        assert_eq!(mb.pop(|| 0, &done).map(val), Some(1));
    }
}
