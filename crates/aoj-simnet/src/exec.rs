//! The pluggable execution backend abstraction.
//!
//! A [`Process`] task graph — machines hosting tasks that exchange
//! messages and timers — is a value, a [`Topology`], built once and
//! handed to the constructor of the backend that runs it:
//!
//! * [`Sim`](crate::Sim): the deterministic discrete-event simulator in
//!   this crate, for bit-reproducible experiments in virtual time;
//! * `aoj_runtime::Runtime`: real OS threads with bounded, class-aware
//!   mailboxes, for wall-clock measurements;
//! * `aoj_net`'s TCP backend: one OS process per machine over loopback,
//!   whose workers rebuild the same topology and keep their own
//!   machine's tasks.
//!
//! [`ExecBackend`] is the run-and-inspect contract every backend
//! implements, and what `aoj_operators::driver` collects a report
//! through. Every backend guarantees the two properties the operator
//! layer relies on:
//!
//! 1. **Per-channel FIFO within a message class**: messages from task A
//!    to task B of the same [`MsgClass`](crate::MsgClass) are delivered
//!    in send order (the epoch protocol's ordering assumption, §4.3.1 of
//!    the paper);
//! 2. **Weighted class service**: control messages preempt, and
//!    migration-class messages are serviced at
//!    [`MIGRATION_WEIGHT`](crate::MIGRATION_WEIGHT) times
//!    the data rate while both queues are backlogged (§4.3.2).
//!
//! Time is [`SimTime`] in both cases: virtual microseconds under the
//! simulator, wall-clock microseconds since `run()` under the threaded
//! runtime.

use std::any::Any;
use std::collections::HashMap;

use crate::machine::MachineId;
use crate::metrics::Metrics;
use crate::network::NetworkConfig;
use crate::task::{Process, SimMessage, TaskId};
use crate::time::SimTime;

/// The tasks one machine hosts, by task index — what a live backend's
/// machine loop runs.
pub type TaskMap<M> = HashMap<usize, Box<dyn Process<M> + Send>>;

/// One registered machine slot of a [`Topology`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineSlot {
    /// Registered **deferred** (trigger-time provisioning, §4.2.2):
    /// tasks may live on it, but the backend dedicates no worker shard —
    /// no thread, process or live simulated machine — until a task emits
    /// [`Effect::Provision`](crate::task::Effect::Provision) for it
    /// mid-run. Delivering work to it before then is a protocol error.
    pub deferred: bool,
    /// Explicit network parameters; `None` takes the backend's default.
    /// Backends without a network model (real threads share memory)
    /// ignore them.
    pub network: Option<NetworkConfig>,
}

/// A task graph ready to run: machine slots, the tasks they host, the
/// bootstrap timers and the metrics sink. Machine and task ids are
/// registration indices, so two topologies built by the same code have
/// the same ids — the TCP backend's worker processes rely on that.
pub struct Topology<M> {
    pub(crate) machines: Vec<MachineSlot>,
    pub(crate) task_machine: Vec<MachineId>,
    /// `None` while a backend runs the task.
    pub(crate) tasks: Vec<Option<Box<dyn Process<M> + Send>>>,
    pub(crate) timers: Vec<(SimTime, TaskId, u64)>,
    /// The metrics sink, one row per machine (configure
    /// `sample_spacing` here; backends fill it during and after the run).
    pub metrics: Metrics,
}

impl<M: SimMessage + 'static> Default for Topology<M> {
    fn default() -> Self {
        Topology {
            machines: Vec::new(),
            task_machine: Vec::new(),
            tasks: Vec::new(),
            timers: Vec::new(),
            metrics: Metrics::default(),
        }
    }
}

impl<M: SimMessage + 'static> Topology<M> {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a machine with the backend's default network parameters.
    pub fn add_machine(&mut self) -> MachineId {
        self.push_machine(MachineSlot::default())
    }

    /// Add a machine with its own network parameters (e.g. a source
    /// stage that models `J` parallel upstream feeds rather than one NIC).
    pub fn add_machine_with_network(&mut self, network: NetworkConfig) -> MachineId {
        self.push_machine(MachineSlot {
            deferred: false,
            network: Some(network),
        })
    }

    /// Register a deferred machine slot (see [`MachineSlot::deferred`]).
    pub fn add_deferred_machine(&mut self) -> MachineId {
        self.push_machine(MachineSlot {
            deferred: true,
            network: None,
        })
    }

    fn push_machine(&mut self, slot: MachineSlot) -> MachineId {
        self.machines.push(slot);
        self.metrics.add_machine();
        MachineId(self.machines.len() - 1)
    }

    /// Register a task hosted on `machine`. Tasks must be `Send` because
    /// live backends move them onto worker threads.
    pub fn add_task(&mut self, machine: MachineId, task: Box<dyn Process<M> + Send>) -> TaskId {
        assert!(machine.index() < self.machines.len(), "unknown machine");
        self.tasks.push(Some(task));
        self.task_machine.push(machine);
        TaskId(self.tasks.len() - 1)
    }

    /// Schedule a bootstrap timer for `task` at time `at`.
    pub fn start_timer_at(&mut self, at: SimTime, task: TaskId, key: u64) {
        assert!(task.index() < self.tasks.len(), "unknown task");
        self.timers.push((at, task, key));
    }

    /// The machine slots, by `MachineId` index.
    pub fn machines(&self) -> &[MachineSlot] {
        &self.machines
    }

    /// The machine hosting each task, by `TaskId` index.
    pub fn task_machine(&self) -> &[MachineId] {
        &self.task_machine
    }

    /// Bootstrap timers `(at, task, key)`, in registration order.
    pub fn timers(&self) -> &[(SimTime, TaskId, u64)] {
        &self.timers
    }

    /// Machines provisioned from the start (every non-deferred slot).
    pub fn eager_machines(&self) -> usize {
        self.machines.iter().filter(|m| !m.deferred).count()
    }

    /// Take the tasks `machine` hosts out of their slots, for a machine
    /// loop to run.
    pub fn take_machine_tasks(&mut self, machine: MachineId) -> TaskMap<M> {
        let slots = self.task_machine.iter().zip(&mut self.tasks).enumerate();
        slots
            .filter(|(_, (m, _))| **m == machine)
            .map(|(idx, (_, task))| (idx, task.take().expect("task already taken")))
            .collect()
    }

    /// Put tasks a machine loop handed back into their slots.
    pub fn restore_tasks(&mut self, tasks: TaskMap<M>) {
        for (idx, task) in tasks {
            self.tasks[idx] = Some(task);
        }
    }

    /// The task registered under `id`, as `Any`.
    pub fn task_any(&self, id: TaskId) -> &dyn Any {
        self.tasks[id.index()]
            .as_ref()
            .expect("task unavailable (run in progress or never returned)")
            .as_any()
    }
}

/// A backend running one [`Topology`], built by its constructor:
/// [`run`](ExecBackend::run) executes it, and task state and metrics
/// are inspected after it returns.
pub trait ExecBackend<M: SimMessage + 'static> {
    /// Short label for reports ("sim", "threaded", "tcp").
    fn backend_name(&self) -> &'static str;

    /// Machines currently holding execution resources: eager machines,
    /// plus deferred ones provisioned at trigger time, minus retired
    /// ones. Read after `run` to verify trigger-time provisioning.
    fn provisioned_machines(&self) -> usize;

    /// High-water mark of simultaneously provisioned machines over the
    /// run — the real resource footprint an elastic run paid for.
    fn peak_provisioned_machines(&self) -> usize;

    /// The metrics sink (read after `run`).
    fn metrics(&self) -> &Metrics;

    /// Whether tasks observe a globally consistent cluster view of the
    /// storage/progress gauges *during* the run — the readings behind
    /// the progress/ILF timelines (observability only: no control
    /// decision reads a gauge). True for the simulator (one `Metrics`,
    /// one event at a time) and for sharded backends that install a
    /// [`SharedGauges`](crate::metrics::SharedGauges) overlay into every
    /// shard (the threaded runtime does). A backend whose shards have no
    /// shared overlay must return false so drivers suppress mid-run
    /// cluster-wide readings rather than present per-shard approximations
    /// as global. Post-run totals from [`metrics`](ExecBackend::metrics)
    /// are exact either way.
    fn has_global_metrics_view(&self) -> bool {
        true
    }

    /// Execute to quiescence (or until a task stops the run) and return
    /// the end time: virtual for simulators, wall-clock microseconds
    /// since start for threaded backends.
    fn run(&mut self) -> SimTime;

    /// The task registered under `id`, as `Any` (for downcasting after
    /// the run).
    fn task_any(&self, id: TaskId) -> &dyn Any;

    /// Typed access to a task's final state. Panics on a wrong id or
    /// type — programming errors in the driver, not runtime conditions.
    fn task_ref<T: Any>(&self, id: TaskId) -> &T
    where
        Self: Sized,
    {
        self.task_any(id)
            .downcast_ref::<T>()
            .expect("task type mismatch")
    }
}
