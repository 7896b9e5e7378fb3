//! Behavioural tests of the simulator: FIFO channels, CPU serialisation,
//! weighted migration scheduling, timers, determinism.

use std::any::Any;

use super::EventKind;
use crate::{
    Ctx, MachineId, MsgClass, Process, Sim, SimConfig, SimDuration, SimMessage, SimTime, TaskId,
    Topology,
};

// Bootstrap and inspection levers only these tests pull: the operator
// starts its sources with `start_timer_at` and reads tasks by reference.
impl<M: SimMessage + 'static> Sim<M> {
    /// The machine hosting `task`.
    fn machine_of(&self, task: TaskId) -> MachineId {
        self.task_machine[task.index()]
    }

    /// Inject a message from outside the simulation (e.g. bootstrap), to be
    /// delivered at the current virtual time without paying network costs.
    fn inject(&mut self, from: TaskId, to: TaskId, msg: M) {
        let at = self.now;
        self.queue.push(at, EventKind::Arrive { from, to, msg });
    }

    /// Mutable access to a task by concrete type. Panics if the id is wrong
    /// or the type does not match — these are programming errors in the
    /// experiment driver, not recoverable conditions.
    fn task_mut<T: Process<M> + Any>(&mut self, id: TaskId) -> &mut T {
        let boxed = self.tasks[id.index()]
            .as_mut()
            .expect("task is currently executing");
        boxed
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("task type mismatch")
    }
}

#[derive(Clone, Debug)]
enum Msg {
    Data(u64),
    Migration(u64),
    Burst { n: u64, to: TaskId },
}

impl SimMessage for Msg {
    fn bytes(&self) -> u64 {
        match self {
            Msg::Data(_) | Msg::Migration(_) => 64,
            Msg::Burst { .. } => 16,
        }
    }
    fn class(&self) -> MsgClass {
        match self {
            Msg::Migration(_) => MsgClass::Migration,
            _ => MsgClass::Data,
        }
    }
}

/// Records arrival order and processing times.
#[derive(Default)]
struct Recorder {
    seen: Vec<(u64, u64)>, // (payload, time_us)
    cost_us: u64,
}

impl Process<Msg> for Recorder {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: TaskId, msg: Msg) -> SimDuration {
        match msg {
            Msg::Data(x) | Msg::Migration(x) => {
                self.seen.push((x, ctx.now().as_micros()));
                SimDuration::from_micros(self.cost_us)
            }
            Msg::Burst { n, to } => {
                for i in 0..n {
                    ctx.send(to, Msg::Data(i));
                }
                SimDuration::from_micros(1)
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, key: u64) -> SimDuration {
        self.seen.push((1_000_000 + key, ctx.now().as_micros()));
        SimDuration::from_micros(1)
    }
}

fn two_node_sim() -> (Sim<Msg>, TaskId, TaskId) {
    let mut topo = Topology::new();
    let m0 = topo.add_machine();
    let m1 = topo.add_machine();
    let sender = topo.add_task(m0, Box::new(Recorder::default()));
    let receiver = topo.add_task(m1, Box::new(Recorder::default()));
    (Sim::new(SimConfig::default(), topo), sender, receiver)
}

#[test]
fn channel_is_fifo_under_bursts() {
    let (mut sim, sender, receiver) = two_node_sim();
    sim.inject(
        receiver,
        sender,
        Msg::Burst {
            n: 100,
            to: receiver,
        },
    );
    sim.run();
    let seen = &sim.task_ref::<Recorder>(receiver).seen;
    assert_eq!(seen.len(), 100);
    let payloads: Vec<u64> = seen.iter().map(|(p, _)| *p).collect();
    assert_eq!(payloads, (0..100).collect::<Vec<_>>());
    // Arrival times strictly non-decreasing.
    assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1));
}

#[test]
fn cpu_serialises_processing() {
    let (mut sim, sender, receiver) = two_node_sim();
    sim.task_mut::<Recorder>(receiver).cost_us = 50;
    sim.inject(
        receiver,
        sender,
        Msg::Burst {
            n: 10,
            to: receiver,
        },
    );
    sim.run();
    let seen = sim.task_ref::<Recorder>(receiver).seen.clone();
    // Each message processed >= 50us after the previous started.
    for w in seen.windows(2) {
        assert!(w[1].1 >= w[0].1 + 50, "processing overlapped: {w:?}");
    }
    let busy = sim
        .metrics()
        .machine(sim.machine_of(receiver))
        .busy
        .as_micros();
    assert_eq!(busy, 10 * 50);
}

#[test]
fn migration_is_served_two_to_one() {
    let mut topo = Topology::new();
    let m = topo.add_machine();
    let t = topo.add_task(
        m,
        Box::new(Recorder {
            cost_us: 10,
            ..Default::default()
        }),
    );
    let mut sim = Sim::new(SimConfig::default(), topo);
    // Arrange for both queues to be backlogged at t=0.
    for i in 0..4 {
        sim.inject(t, t, Msg::Data(i));
    }
    for i in 0..8 {
        sim.inject(t, t, Msg::Migration(100 + i));
    }
    sim.run();
    let order: Vec<u64> = sim
        .task_ref::<Recorder>(t)
        .seen
        .iter()
        .map(|s| s.0)
        .collect();
    assert_eq!(
        order,
        vec![100, 101, 0, 102, 103, 1, 104, 105, 2, 106, 107, 3]
    );
}

#[test]
fn timers_fire_at_requested_time() {
    let mut topo = Topology::new();
    let m = topo.add_machine();
    let t = topo.add_task(m, Box::new(Recorder::default()));
    let mut sim = Sim::new(SimConfig::default(), topo);
    sim.start_timer_at(SimTime(500), t, 7);
    sim.start_timer_at(SimTime(100), t, 3);
    sim.run();
    let seen = sim.task_ref::<Recorder>(t).seen.clone();
    assert_eq!(seen, vec![(1_000_003, 100), (1_000_007, 500)]);
}

#[test]
fn network_metrics_count_remote_but_not_loopback() {
    let mut topo = Topology::new();
    let m0 = topo.add_machine();
    let a = topo.add_task(m0, Box::new(Recorder::default()));
    let b = topo.add_task(m0, Box::new(Recorder::default())); // same machine
    let m1 = topo.add_machine();
    let c = topo.add_task(m1, Box::new(Recorder::default()));

    // a -> b is loopback; a -> c is remote.
    struct Fanout {
        b: TaskId,
        c: TaskId,
    }
    impl Process<Msg> for Fanout {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _f: TaskId, _m: Msg) -> SimDuration {
            ctx.send(self.b, Msg::Data(1));
            ctx.send(self.c, Msg::Data(2));
            SimDuration::from_micros(1)
        }
    }
    let m2 = topo.add_machine();
    let f = topo.add_task(m2, Box::new(Fanout { b, c }));
    let mut sim = Sim::new(SimConfig::default(), topo);
    sim.inject(a, f, Msg::Data(0));
    sim.run();

    assert_eq!(sim.task_ref::<Recorder>(b).seen.len(), 1);
    assert_eq!(sim.task_ref::<Recorder>(c).seen.len(), 1);
    // Fanout machine sent exactly one remote message (to c). The loopback
    // to b is invisible to network metrics... but b is on machine m0 and f
    // on m2, so both are remote here. Re-check with explicit placement:
    let sent = sim.metrics().machine(sim.machine_of(f)).messages_out;
    assert_eq!(sent, 2); // both sends remote: f is alone on m2
}

#[test]
fn loopback_send_is_free_of_network_cost() {
    let mut topo = Topology::new();
    let m0 = topo.add_machine();
    let a = topo.add_task(m0, Box::new(Recorder::default()));

    struct SelfSender {
        target: TaskId,
        sent: bool,
    }
    impl Process<Msg> for SelfSender {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _f: TaskId, _m: Msg) -> SimDuration {
            if !self.sent {
                self.sent = true;
                ctx.send(self.target, Msg::Data(9));
            }
            SimDuration::from_micros(1)
        }
    }
    let s = topo.add_task(
        m0,
        Box::new(SelfSender {
            target: a,
            sent: false,
        }),
    );
    let mut sim = Sim::new(SimConfig::default(), topo);
    sim.inject(a, s, Msg::Data(0));
    sim.run();
    assert_eq!(sim.metrics().machine(m0).messages_out, 0);
    assert_eq!(sim.task_ref::<Recorder>(a).seen.len(), 1);
    // Loopback delivery happened at handler completion (t=1), processed
    // immediately after.
    assert_eq!(sim.task_ref::<Recorder>(a).seen[0].1, 1);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (mut sim, sender, receiver) = two_node_sim();
        sim.task_mut::<Recorder>(receiver).cost_us = 3;
        sim.inject(
            receiver,
            sender,
            Msg::Burst {
                n: 50,
                to: receiver,
            },
        );
        let end = sim.run();
        (end, sim.task_ref::<Recorder>(receiver).seen.clone())
    };
    let (end1, seen1) = run();
    let (end2, seen2) = run();
    assert_eq!(end1, end2);
    assert_eq!(seen1, seen2);
}

#[test]
fn dead_machine_drops_later_deliveries_and_timers() {
    let (mut sim, sender, receiver) = two_node_sim();
    let victim = sim.machine_of(receiver);
    assert!(sim.kill_now(victim));
    // Provisioned count reflects the death; the survivor is untouched.
    assert_eq!(sim.provisioned_machines(), 1);
    sim.inject(sender, receiver, Msg::Data(1));
    sim.start_timer_at(SimTime(10), receiver, 7);
    sim.inject(receiver, sender, Msg::Data(2));
    sim.run();
    assert_eq!(sim.task_ref::<Recorder>(receiver).seen.len(), 0);
    assert_eq!(sim.task_ref::<Recorder>(sender).seen.len(), 1);
    // Killing twice is idempotent.
    assert!(!sim.kill_now(victim));
    assert_eq!(sim.provisioned_machines(), 1);
}

#[test]
fn deadline_stops_the_run() {
    let cfg = SimConfig {
        deadline: Some(SimTime(150)),
        ..SimConfig::default()
    };
    let mut topo = Topology::new();
    let m = topo.add_machine();
    let t = topo.add_task(m, Box::new(Recorder::default()));
    let mut sim = Sim::new(cfg, topo);
    sim.start_timer_at(SimTime(100), t, 1);
    sim.start_timer_at(SimTime(200), t, 2);
    sim.run();
    let seen = sim.task_ref::<Recorder>(t).seen.clone();
    assert_eq!(seen.len(), 1);
    assert_eq!(seen[0].0, 1_000_001);
}
