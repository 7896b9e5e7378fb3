//! The simulation driver: owns machines, tasks, the event queue and the
//! metrics, and runs events to quiescence.

use std::any::Any;

use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::exec::ExecBackend;
use crate::machine::{Machine, MachineId, Queued};
use crate::metrics::Metrics;
use crate::network::NetworkConfig;
use crate::task::{Ctx, Effect, MsgClass, Process, SimMessage, TaskId};
use crate::time::SimTime;

/// Work items queued at a machine: either an arrived message or a fired
/// timer waiting for the CPU. Timers are serviced with control priority.
enum Work<M> {
    Msg(M),
    Timer(u64),
}

/// Provisioning state of a machine slot (trigger-time provisioning).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MachineState {
    /// Holding execution resources.
    Active,
    /// Registered but never provisioned: delivering work to it panics.
    Deferred,
    /// Previously active, resources handed back; straggler work still
    /// drains (see [`Effect::Retire`]) and a later provision revives it.
    Retired,
    /// Killed by a scheduled fault ([`Sim::schedule_kill`]): its queued
    /// work is gone and anything later delivered to it is dropped on
    /// the floor — the simulated analogue of a SIGKILL'd worker whose
    /// peers keep writing into a dead socket.
    Dead,
}

/// The simulator. See the crate docs for the model.
pub struct Sim<M: SimMessage> {
    cfg: SimConfig,
    /// Per-machine network parameters (defaults to `cfg.network`).
    machine_network: Vec<crate::network::NetworkConfig>,
    machines: Vec<Machine<Work<M>>>,
    machine_state: Vec<MachineState>,
    provisioned: usize,
    peak_provisioned: usize,
    tasks: Vec<Option<Box<dyn Process<M>>>>,
    task_machine: Vec<MachineId>,
    queue: EventQueue<M>,
    metrics: Metrics,
    now: SimTime,
    stopped: bool,
    deaths: Vec<(MachineId, SimTime)>,
}

impl<M: SimMessage + 'static> Sim<M> {
    /// Create an empty cluster.
    pub fn new(cfg: SimConfig) -> Self {
        Sim {
            cfg,
            machine_network: Vec::new(),
            machines: Vec::new(),
            machine_state: Vec::new(),
            provisioned: 0,
            peak_provisioned: 0,
            tasks: Vec::new(),
            task_machine: Vec::new(),
            queue: EventQueue::new(),
            metrics: Metrics::default(),
            now: SimTime::ZERO,
            stopped: false,
            deaths: Vec::new(),
        }
    }

    /// Add a machine to the cluster.
    pub fn add_machine(&mut self) -> MachineId {
        self.add_machine_with_network(self.cfg.network)
    }

    /// Add a machine with its own network parameters (e.g. a source stage
    /// that models `J` parallel upstream feeds rather than one NIC).
    pub fn add_machine_with_network(&mut self, network: NetworkConfig) -> MachineId {
        let id = self.push_machine(network);
        self.machine_state[id.index()] = MachineState::Active;
        self.provisioned += 1;
        self.peak_provisioned = self.peak_provisioned.max(self.provisioned);
        id
    }

    /// Register a machine slot whose execution resources arrive only with
    /// a mid-run [`Effect::Provision`]; until then, delivering any work to
    /// it is a protocol error (and panics).
    pub fn add_deferred_machine(&mut self) -> MachineId {
        self.push_machine(self.cfg.network)
    }

    fn push_machine(&mut self, network: NetworkConfig) -> MachineId {
        let id = MachineId(self.machines.len());
        self.machines.push(Machine::new(self.cfg.machine));
        self.machine_network.push(network);
        self.machine_state.push(MachineState::Deferred);
        self.metrics.add_machine();
        id
    }

    /// Machines currently holding execution resources.
    pub fn provisioned_machines(&self) -> usize {
        self.provisioned
    }

    /// High-water mark of simultaneously provisioned machines.
    pub fn peak_provisioned_machines(&self) -> usize {
        self.peak_provisioned
    }

    /// Register a task hosted on `machine`.
    pub fn add_task(&mut self, machine: MachineId, task: Box<dyn Process<M>>) -> TaskId {
        assert!(machine.index() < self.machines.len(), "unknown machine");
        let id = TaskId(self.tasks.len());
        self.tasks.push(Some(task));
        self.task_machine.push(machine);
        id
    }

    /// The machine hosting `task`.
    pub fn machine_of(&self, task: TaskId) -> MachineId {
        self.task_machine[task.index()]
    }

    /// Inject a message from outside the simulation (e.g. bootstrap), to be
    /// delivered at the current virtual time without paying network costs.
    pub fn inject(&mut self, from: TaskId, to: TaskId, msg: M) {
        let at = self.now;
        self.queue.push(at, EventKind::Arrive { from, to, msg });
    }

    /// Schedule a timer for `task` at an explicit virtual time (bootstrap
    /// helper for sources).
    pub fn start_timer_at(&mut self, at: SimTime, task: TaskId, key: u64) {
        self.queue.push(at, EventKind::Timer { task, key });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule a deterministic fault: `machine` dies abruptly at
    /// virtual time `at`. Like a real SIGKILL, the victim gets no
    /// goodbye — its queued work vanishes and later deliveries to it
    /// drop silently (no panic, no back-pressure). Idempotent per
    /// machine; kills are ordered against all other events by the
    /// `(time, sequence)` queue, so runs stay reproducible.
    pub fn schedule_kill(&mut self, machine: MachineId, at: SimTime) {
        self.queue.push(at, EventKind::Kill { machine });
    }

    /// Kill `machine` at the current virtual time (the between-pumps
    /// form used to lower tuple-count and checkpoint-count fault
    /// triggers, which only the session driver can observe).
    pub fn kill_now(&mut self, machine: MachineId) {
        self.apply_kill(machine);
    }

    /// Machines that died, in kill order, with their times of death.
    pub fn deaths(&self) -> &[(MachineId, SimTime)] {
        &self.deaths
    }

    fn apply_kill(&mut self, m: MachineId) {
        let state = &mut self.machine_state[m.index()];
        if *state == MachineState::Dead {
            return;
        }
        if *state == MachineState::Active {
            self.provisioned -= 1;
        }
        *state = MachineState::Dead;
        // Queued work dies with the machine; a stale ProcessNext event
        // is defused by the Dead check in `process_next`.
        self.machines[m.index()] = Machine::new(self.cfg.machine);
        self.deaths.push((m, self.now));
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics (drivers may reset gauges between
    /// measurement windows).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Mutable access to a task by concrete type. Panics if the id is wrong
    /// or the type does not match — these are programming errors in the
    /// experiment driver, not recoverable conditions.
    pub fn task_mut<T: Process<M> + Any>(&mut self, id: TaskId) -> &mut T {
        let boxed = self.tasks[id.index()]
            .as_mut()
            .expect("task is currently executing");
        boxed
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("task type mismatch")
    }

    /// Shared access to a task by concrete type.
    pub fn task_ref<T: Process<M> + Any>(&self, id: TaskId) -> &T {
        let boxed = self.tasks[id.index()]
            .as_ref()
            .expect("task is currently executing");
        boxed
            .as_any()
            .downcast_ref::<T>()
            .expect("task type mismatch")
    }

    /// The external-event pump: run every currently queued event to
    /// quiescence and return the virtual time reached.
    ///
    /// [`run`](Sim::run) is re-entrant, and this alias is the live-session
    /// shape of that fact: a caller may inject new messages or bootstrap
    /// timers *after* a previous pump returned (e.g. a `JoinSession`
    /// pushing freshly arrived tuples into a source task's ingest queue)
    /// and pump again — virtual time continues from where it stopped, and
    /// the interleaving stays deterministic because all external input is
    /// sequenced through the single pumping thread.
    pub fn pump(&mut self) -> SimTime {
        self.run()
    }

    /// Run until quiescence (empty event queue), a task calls
    /// [`Ctx::stop`], or the configured deadline passes. Returns the final
    /// virtual time. Re-entrant: more events may be injected after it
    /// returns and the simulation resumed (see [`pump`](Sim::pump)).
    pub fn run(&mut self) -> SimTime {
        while let Some(ev) = self.queue.pop() {
            if self.stopped {
                break;
            }
            if let Some(deadline) = self.cfg.deadline {
                if ev.at > deadline {
                    self.now = deadline;
                    break;
                }
            }
            self.now = ev.at;
            self.metrics.events += 1;
            self.metrics.last_event_at = ev.at;
            match ev.kind {
                EventKind::Arrive { from, to, msg } => {
                    let m = self.task_machine[to.index()];
                    self.metrics.on_arrive(m, msg.bytes());
                    let class = msg.class();
                    self.enqueue_work(
                        m,
                        class,
                        Queued {
                            from,
                            to,
                            msg: Work::Msg(msg),
                        },
                    );
                }
                EventKind::ProcessNext { machine } => {
                    self.process_next(machine);
                }
                EventKind::Timer { task, key } => {
                    let m = self.task_machine[task.index()];
                    self.enqueue_work(
                        m,
                        MsgClass::Control,
                        Queued {
                            from: task,
                            to: task,
                            msg: Work::Timer(key),
                        },
                    );
                }
                EventKind::Kill { machine } => {
                    self.apply_kill(machine);
                }
            }
        }
        self.now
    }

    fn enqueue_work(&mut self, m: MachineId, class: MsgClass, item: Queued<Work<M>>) {
        if self.machine_state[m.index()] == MachineState::Dead {
            // Deliveries to a dead machine vanish, like bytes written
            // into a SIGKILL'd worker's socket.
            return;
        }
        assert!(
            self.machine_state[m.index()] != MachineState::Deferred,
            "work delivered to machine {} before it was provisioned \
             (trigger-time provisioning protocol error)",
            m.index()
        );
        let machine = &mut self.machines[m.index()];
        machine.enqueue(class, item);
        if !machine.scheduled {
            machine.scheduled = true;
            let start = if machine.busy_until > self.now {
                machine.busy_until
            } else {
                self.now
            };
            self.queue
                .push(start, EventKind::ProcessNext { machine: m });
        }
    }

    fn process_next(&mut self, mid: MachineId) {
        if self.machine_state[mid.index()] == MachineState::Dead {
            return;
        }
        let machine = &mut self.machines[mid.index()];
        let item = match machine.pop_next() {
            Some(item) => item,
            None => {
                machine.scheduled = false;
                return;
            }
        };
        let to = item.to;
        // Take the task out so the handler can borrow both itself and a Ctx.
        let mut task = self.tasks[to.index()].take().expect("task re-entered");
        let mut stopped = self.stopped;
        let start = self.now;
        let mut ctx = Ctx {
            now: start,
            self_id: to,
            effects: Vec::new(),
            metrics: &mut self.metrics,
            stopped: &mut stopped,
        };
        let cost = match item.msg {
            Work::Msg(msg) => task.on_message(&mut ctx, item.from, msg),
            Work::Timer(key) => task.on_timer(&mut ctx, key),
        };
        let effects = std::mem::take(&mut ctx.effects);
        drop(ctx);
        self.stopped = stopped;
        self.tasks[to.index()] = Some(task);
        let done = start + cost;
        self.metrics.on_busy(mid, cost);
        self.machines[mid.index()].busy_until = done;

        for effect in effects {
            match effect {
                Effect::Send { to: dst, msg } => {
                    let dst_machine = self.task_machine[dst.index()];
                    if dst_machine == mid {
                        // Loopback: no NIC occupancy, no network metrics.
                        self.queue.push(
                            done,
                            EventKind::Arrive {
                                from: to,
                                to: dst,
                                msg,
                            },
                        );
                    } else {
                        let bytes = msg.bytes();
                        self.metrics.on_send(mid, bytes);
                        let net = self.machine_network[mid.index()];
                        let arrival = self.machines[mid.index()].nic.transmit(done, bytes, &net);
                        self.queue.push(
                            arrival,
                            EventKind::Arrive {
                                from: to,
                                to: dst,
                                msg,
                            },
                        );
                    }
                }
                Effect::Timer { delay, key } => {
                    self.queue
                        .push(done + delay, EventKind::Timer { task: to, key });
                }
                Effect::Provision { machine } => {
                    let state = &mut self.machine_state[machine.index()];
                    assert!(
                        *state != MachineState::Active,
                        "machine {} provisioned twice",
                        machine.index()
                    );
                    *state = MachineState::Active;
                    self.provisioned += 1;
                    self.peak_provisioned = self.peak_provisioned.max(self.provisioned);
                }
                Effect::Retire { machine } => {
                    let state = &mut self.machine_state[machine.index()];
                    assert_eq!(
                        *state,
                        MachineState::Active,
                        "machine {} retired while not active",
                        machine.index()
                    );
                    *state = MachineState::Retired;
                    self.provisioned -= 1;
                }
            }
        }

        // Keep servicing the queue.
        let machine = &mut self.machines[mid.index()];
        if machine.queue_len() > 0 {
            self.queue
                .push(done, EventKind::ProcessNext { machine: mid });
        } else {
            machine.scheduled = false;
        }
    }
}

impl<M: SimMessage + 'static> ExecBackend<M> for Sim<M> {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn add_machine(&mut self) -> MachineId {
        Sim::add_machine(self)
    }

    fn add_machine_with_network(&mut self, network: NetworkConfig) -> MachineId {
        Sim::add_machine_with_network(self, network)
    }

    fn add_deferred_machine(&mut self) -> MachineId {
        Sim::add_deferred_machine(self)
    }

    fn provisioned_machines(&self) -> usize {
        Sim::provisioned_machines(self)
    }

    fn peak_provisioned_machines(&self) -> usize {
        Sim::peak_provisioned_machines(self)
    }

    fn add_task(&mut self, machine: MachineId, task: Box<dyn Process<M> + Send>) -> TaskId {
        Sim::add_task(self, machine, task)
    }

    fn start_timer_at(&mut self, at: SimTime, task: TaskId, key: u64) {
        Sim::start_timer_at(self, at, task, key)
    }

    fn metrics(&self) -> &Metrics {
        Sim::metrics(self)
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        Sim::metrics_mut(self)
    }

    fn run(&mut self) -> SimTime {
        Sim::run(self)
    }

    fn task_any(&self, id: TaskId) -> &dyn Any {
        self.tasks[id.index()]
            .as_ref()
            .expect("task is currently executing")
            .as_any()
    }
}
