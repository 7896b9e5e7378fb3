//! Tasks: the unit of computation hosted on simulated machines, and the
//! context through which they interact with the world.

use std::sync::Arc;

use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};

/// Identifies a task registered with the simulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The raw index of this task.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Scheduling class of a message, used by the machine's weighted service
/// policy.
///
/// * `Control` messages (epoch-change signals, acks) always jump the queue —
///   the paper requires reshufflers/joiners to react to mapping-change
///   signals promptly.
/// * `Migration` messages are serviced at twice the rate of `Data` while
///   both queues are non-empty (the premise of Theorem 4.6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgClass {
    /// Signals and acknowledgements; always serviced first.
    Control,
    /// Regular stream tuples.
    Data,
    /// State relocated between joiners during a migration.
    Migration,
}

/// A message type usable by the simulator: it must price its wire size and
/// declare its scheduling class.
pub trait SimMessage: Sized {
    /// Wire size in bytes (used for NIC serialisation and traffic metrics).
    fn bytes(&self) -> u64;
    /// Scheduling class (see [`MsgClass`]).
    fn class(&self) -> MsgClass;
    /// Number of logical stream tuples this message carries. Batched data
    /// planes coalesce many tuples into one message; backends that bound
    /// queues or weight their service policy account in these units so a
    /// 64-tuple batch is not budgeted like a single tuple. Non-batch
    /// messages (signals, acks, credits) count as 1.
    fn tuples(&self) -> u64 {
        1
    }
}

/// Object-safe downcasting support, blanket-implemented for all `'static`
/// types so [`Process`] implementors get it for free.
pub trait AsAny {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<T: std::any::Any> AsAny for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A task: a deterministic state machine reacting to messages and timers.
///
/// Handlers return the virtual CPU time the work consumed; the hosting
/// machine stays busy for that long before servicing its next message.
pub trait Process<M: SimMessage>: AsAny {
    /// Handle a message delivered from `from`. Returns the CPU cost.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: TaskId, msg: M) -> SimDuration;

    /// Handle a timer previously scheduled through [`Ctx::schedule`],
    /// [`Ctx::schedule_or_idle`] or [`Ctx::park`]. Returns the CPU cost.
    /// Default: ignore, free of charge.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _key: u64) -> SimDuration {
        SimDuration::ZERO
    }

    /// Receive the [`Waker`] that makes this task's parked timer due
    /// from another thread. Live backends install one per task before
    /// the task's machine services its first work item; the simulator
    /// installs none (nothing runs between its pumps, and the session
    /// pump restarts a parked task itself). Default: drop it.
    fn install_waker(&mut self, _waker: Waker) {}
}

/// Makes one task's parked timer ([`Ctx::park`]) due now when called,
/// from any thread. A wake that reaches the backend before the park it
/// answers is kept and makes that park due at once, so a wake is never
/// lost to the race between a handler deciding to park and its backend
/// recording the park.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// An outgoing effect recorded by a handler, applied by the hosting
/// backend after the handler returns: the simulator stamps sends at
/// handler completion time; the threaded runtime pushes them into the
/// destination mailboxes.
pub enum Effect<M> {
    /// Send `msg` to `to` (FIFO per (sender, receiver, class)).
    Send {
        /// Destination task.
        to: TaskId,
        /// The message.
        msg: M,
    },
    /// Schedule [`Process::on_timer`] on the emitting task after `delay`.
    Timer {
        /// Delay from handler completion.
        delay: SimDuration,
        /// Key passed back to `on_timer`.
        key: u64,
        /// Fire early, as soon as the hosting machine finds nothing else
        /// to run (live backends). The simulator fires at the deadline.
        or_idle: bool,
    },
    /// Park the emitting task: a timer with no deadline, counted as
    /// outstanding work until it fires. It fires when the task's
    /// [`Waker`] is woken. The simulator records nothing: it runs to
    /// quiescence between pumps, and its session pump starts the task's
    /// timer itself.
    Park {
        /// Key passed back to `on_timer`.
        key: u64,
    },
    /// Acquire execution resources for a machine registered as deferred
    /// (trigger-time provisioning): the simulator marks the machine live,
    /// the threaded runtime spawns its worker thread. Effects apply in
    /// emission order, so a handler that provisions first may message the
    /// freshly provisioned machine in the same handler.
    Provision {
        /// The machine to bring up.
        machine: crate::machine::MachineId,
    },
    /// Release a machine's execution resources. Backends first drain the
    /// machine behind a quiesce barrier — queued and straggler work is
    /// still serviced — and then release for real: the threaded runtime
    /// lets the worker thread exit, the TCP backend ends the worker
    /// process. Emit only when the protocol guarantees no peer will send
    /// to the machine again (in the operator layer: after the
    /// contraction's final ack). The machine may be re-provisioned later.
    Retire {
        /// The machine to hand back.
        machine: crate::machine::MachineId,
    },
}

/// The execution context handed to a task while it runs.
///
/// Sends are buffered and stamped at handler completion time (start +
/// returned cost), which models "the CPU finishes the work, then the NIC
/// picks up the output".
pub struct Ctx<'a, M: SimMessage> {
    pub(crate) now: SimTime,
    pub(crate) effects: Vec<Effect<M>>,
    pub(crate) metrics: &'a mut Metrics,
}

impl<'a, M: SimMessage> Ctx<'a, M> {
    /// Build a context for one handler invocation. Execution backends
    /// (the simulator, `aoj-runtime`'s threaded workers) construct one
    /// per delivered message or fired timer and apply the buffered
    /// effects after the handler returns.
    pub fn new(now: SimTime, metrics: &'a mut Metrics) -> Ctx<'a, M> {
        Ctx {
            now,
            effects: Vec::new(),
            metrics,
        }
    }

    /// Drain the effects buffered by the handler, in emission order.
    pub fn take_effects(&mut self) -> Vec<Effect<M>> {
        std::mem::take(&mut self.effects)
    }

    /// Virtual time at which the handler started executing.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send `msg` to `to`. Delivery pays NIC serialisation plus propagation
    /// latency; per-(sender, receiver) order is FIFO.
    #[inline]
    pub fn send(&mut self, to: TaskId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Schedule [`Process::on_timer`] on this task after `delay`.
    #[inline]
    pub fn schedule(&mut self, delay: SimDuration, key: u64) {
        self.effects.push(Effect::Timer {
            delay,
            key,
            or_idle: false,
        });
    }

    /// Schedule [`Process::on_timer`] on this task after `delay`, or
    /// earlier on a live backend, as soon as this task's machine has
    /// nothing else runnable: an age bound that an idle machine need not
    /// wait out. The simulator fires it at the deadline.
    #[inline]
    pub fn schedule_or_idle(&mut self, delay: SimDuration, key: u64) {
        self.effects.push(Effect::Timer {
            delay,
            key,
            or_idle: true,
        });
    }

    /// Park this task until its [`Waker`] is woken (see
    /// [`Effect::Park`]); [`Process::on_timer`] then runs with `key`.
    #[inline]
    pub fn park(&mut self, key: u64) {
        self.effects.push(Effect::Park { key });
    }

    /// Acquire execution resources for `machine` (trigger-time
    /// provisioning). Call before sending to the machine's tasks —
    /// effects apply in emission order.
    #[inline]
    pub fn provision(&mut self, machine: crate::machine::MachineId) {
        self.effects.push(Effect::Provision { machine });
    }

    /// Release `machine`'s execution resources (see
    /// [`Effect::Retire`] for the drain semantics).
    #[inline]
    pub fn retire(&mut self, machine: crate::machine::MachineId) {
        self.effects.push(Effect::Retire { machine });
    }

    /// Access the global metrics sink (e.g. to record joiner storage).
    #[inline]
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }
}
