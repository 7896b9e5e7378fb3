//! The simulation driver: owns a [`Topology`]'s machines, tasks and
//! metrics plus the event queue, and runs events to quiescence.

use std::any::Any;

use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::exec::{ExecBackend, Topology};
use crate::machine::{Machine, MachineId, Queued};
use crate::metrics::Metrics;
use crate::network::NetworkConfig;
use crate::task::{Ctx, Effect, MsgClass, Process, SimMessage, TaskId};
use crate::time::SimTime;

#[cfg(test)]
mod behaviour;

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
    /// Killed by an injected fault ([`Sim::kill_now`]): its queued
    /// work is gone and anything later delivered to it is dropped on
    /// the floor — the simulated analogue of a SIGKILL'd worker whose
    /// peers keep writing into a dead socket.
    Dead,
}

/// The simulator. See the crate docs for the model.
pub struct Sim<M: SimMessage> {
    cfg: SimConfig,
    /// Per-machine network parameters (defaults to `cfg.network`).
    machine_network: Vec<NetworkConfig>,
    machines: Vec<Machine<Work<M>>>,
    machine_state: Vec<MachineState>,
    provisioned: usize,
    peak_provisioned: usize,
    tasks: Vec<Option<Box<dyn Process<M> + Send>>>,
    task_machine: Vec<MachineId>,
    queue: EventQueue<M>,
    metrics: Metrics,
    now: SimTime,
}

impl<M: SimMessage + 'static> Sim<M> {
    /// A cluster running `topology`: its machines come up (deferred
    /// slots unprovisioned), machines without their own network
    /// parameters take `cfg.network`, and its bootstrap timers are
    /// queued in registration order.
    pub fn new(cfg: SimConfig, topology: Topology<M>) -> Self {
        let provisioned = topology.eager_machines();
        let Topology {
            machines: slots,
            task_machine,
            tasks,
            timers,
            metrics,
        } = topology;
        let state = |d: bool| {
            if d {
                MachineState::Deferred
            } else {
                MachineState::Active
            }
        };
        let mut sim = Sim {
            cfg,
            machine_network: slots
                .iter()
                .map(|s| s.network.unwrap_or(cfg.network))
                .collect(),
            machines: slots.iter().map(|_| Machine::new()).collect(),
            machine_state: slots.iter().map(|s| state(s.deferred)).collect(),
            provisioned,
            peak_provisioned: provisioned,
            tasks,
            task_machine,
            queue: EventQueue::new(),
            metrics,
            now: SimTime::ZERO,
        };
        for (at, task, key) in timers {
            sim.start_timer_at(at, task, key);
        }
        sim
    }

    /// Machines currently holding execution resources.
    pub(crate) fn provisioned_machines(&self) -> usize {
        self.provisioned
    }

    /// High-water mark of simultaneously provisioned machines.
    pub(crate) fn peak_provisioned_machines(&self) -> usize {
        self.peak_provisioned
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

    /// Kill `machine` at the current virtual time, between pumps. Like a
    /// real SIGKILL, the victim gets no goodbye: its queued work vanishes
    /// and later deliveries to it drop silently (no panic, no
    /// back-pressure). Returns whether the machine was alive; killing it
    /// again is a no-op.
    pub fn kill_now(&mut self, machine: MachineId) -> bool {
        let state = &mut self.machine_state[machine.index()];
        if *state == MachineState::Dead {
            return false;
        }
        if *state == MachineState::Active {
            self.provisioned -= 1;
        }
        *state = MachineState::Dead;
        // Queued work dies with the machine; a stale ProcessNext event
        // is defused by the Dead check in `process_next`.
        self.machines[machine.index()] = Machine::new();
        true
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
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

    /// Run until quiescence (empty event queue) or until the configured
    /// deadline passes. Returns the final
    /// virtual time. Re-entrant: more events may be injected after it
    /// returns and the simulation resumed (see [`pump`](Sim::pump)).
    pub fn run(&mut self) -> SimTime {
        while let Some(ev) = self.queue.pop() {
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
        let start = self.now;
        let mut ctx = Ctx {
            now: start,
            effects: Vec::new(),
            metrics: &mut self.metrics,
        };
        let cost = match item.msg {
            Work::Msg(msg) => task.on_message(&mut ctx, item.from, msg),
            Work::Timer(key) => task.on_timer(&mut ctx, key),
        };
        let effects = std::mem::take(&mut ctx.effects);
        drop(ctx);
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
                // Virtual time has no idle shortcut: an or-idle timer
                // fires at its deadline, so every timeline is the same.
                Effect::Timer { delay, key, .. } => {
                    self.queue
                        .push(done + delay, EventKind::Timer { task: to, key });
                }
                // A timer with no deadline never fires in virtual time;
                // the session pump starts the parked task's timer when
                // new input arrives.
                Effect::Park { .. } => {}
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

    fn provisioned_machines(&self) -> usize {
        Sim::provisioned_machines(self)
    }

    fn peak_provisioned_machines(&self) -> usize {
        Sim::peak_provisioned_machines(self)
    }

    fn metrics(&self) -> &Metrics {
        Sim::metrics(self)
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
