//! Crash semantics of the threaded backend: a kill request makes the
//! victim worker vanish mid-run (recording a typed death), and the
//! kill switch lets a supervisor terminate the wedged run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aoj_core::{DeathCause, FaultLog};
use aoj_runtime::{KillSwitch, Runtime, RuntimeConfig};
use aoj_simnet::{Ctx, ExecBackend, MsgClass, Process, SimDuration, SimMessage, TaskId, Topology};

#[derive(Clone, Debug)]
struct Tick;

impl SimMessage for Tick {
    fn bytes(&self) -> u64 {
        16
    }
    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
}

/// Produces forever: the run can only end via the kill switch.
struct Pump {
    to: TaskId,
}

impl Process<Tick> for Pump {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Tick>, _from: TaskId, _msg: Tick) -> SimDuration {
        SimDuration::ZERO
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Tick>, _key: u64) -> SimDuration {
        ctx.send(self.to, Tick);
        ctx.schedule(SimDuration::from_micros(200), 0);
        SimDuration::ZERO
    }
}

struct Sink;

impl Process<Tick> for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Tick>, _from: TaskId, _msg: Tick) -> SimDuration {
        SimDuration::ZERO
    }
}

/// The supervisor's side: wait up to `limit` for a death in `log`, then
/// end the run whether or not one arrived. Returns how long the death
/// took to show up, `None` if it never did.
fn end_run_on_death(
    log: FaultLog,
    ks: Arc<KillSwitch<Tick>>,
    limit: Duration,
) -> std::thread::JoinHandle<Option<Duration>> {
    std::thread::spawn(move || {
        let t0 = Instant::now();
        while log.is_empty() && t0.elapsed() < limit {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen = (!log.is_empty()).then(|| t0.elapsed());
        ks.fire();
        seen
    })
}

/// Machine 0 pumps ticks into a sink on machine 1.
fn pump_and_sink() -> (Topology<Tick>, usize) {
    let mut topo = Topology::new();
    let m0 = topo.add_machine();
    let m1 = topo.add_machine();
    let sink = topo.add_task(m1, Box::new(Sink));
    let pump = topo.add_task(m0, Box::new(Pump { to: sink }));
    topo.start_timer_at(aoj_simnet::SimTime::ZERO, pump, 0);
    (topo, m1.index())
}

#[test]
fn kill_request_crashes_victim_and_kill_switch_unwedges_run() {
    let (topo, victim) = pump_and_sink();
    let mut rt = Runtime::new(RuntimeConfig::default(), topo);
    let log = rt.death_log();
    let ks = rt.kill_switch();
    let requester = Arc::clone(&ks);
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        requester.kill(victim);
    });
    let watcher = end_run_on_death(log.clone(), ks, Duration::from_secs(20));

    // Without the kill switch this would block forever: the pump never
    // stops and the crashed sink never retires its outstanding work.
    rt.run();
    assert!(watcher.join().unwrap().is_some(), "the kill never landed");

    let deaths = log.drain();
    assert_eq!(deaths.len(), 1);
    assert_eq!(deaths[0].machine, victim);
    assert_eq!(deaths[0].cause, DeathCause::Injected);
}

#[test]
fn requests_made_before_the_run_are_remembered() {
    // A kill requested before run(): the victim dies on its first
    // quantum.
    let (topo, victim) = pump_and_sink();
    let mut rt = Runtime::new(RuntimeConfig::default(), topo);
    let log = rt.death_log();
    let ks = rt.kill_switch();
    ks.kill(victim);
    let watcher = end_run_on_death(log.clone(), ks, Duration::from_secs(20));
    rt.run();
    assert!(watcher.join().unwrap().is_some(), "the early kill was lost");
    assert_eq!(log.drain().len(), 1);

    // A switch fired before run() begins ends the run at startup.
    let mut topo2 = Topology::new();
    let m = topo2.add_machine();
    let sink2 = topo2.add_task(m, Box::new(Sink));
    let pump2 = topo2.add_task(m, Box::new(Pump { to: sink2 }));
    topo2.start_timer_at(aoj_simnet::SimTime::ZERO, pump2, 0);
    let mut rt2 = Runtime::new(RuntimeConfig::default(), topo2);
    rt2.kill_switch().fire();
    rt2.run(); // returns promptly instead of pumping forever
}

#[test]
fn kill_request_wakes_an_idle_victim() {
    // Machine 2 hosts a sink nobody sends to: its worker sleeps on an
    // empty mailbox with no timer, so only the request can wake it.
    let (mut topo, _) = pump_and_sink();
    let idle = topo.add_machine();
    topo.add_task(idle, Box::new(Sink));
    let mut rt = Runtime::new(RuntimeConfig::default(), topo);
    let log = rt.death_log();
    let ks = rt.kill_switch();
    let requester = Arc::clone(&ks);
    let watched = log.clone();
    let watcher = std::thread::spawn(move || {
        // Let the run start and the idle worker park.
        std::thread::sleep(Duration::from_millis(50));
        requester.kill(idle.index());
        end_run_on_death(watched, requester, Duration::from_secs(5))
            .join()
            .unwrap()
    });
    rt.run();
    let took = watcher.join().unwrap().expect("the idle victim never died");
    assert!(
        took < Duration::from_secs(1),
        "death recorded after {took:?}"
    );
    let deaths = log.drain();
    assert_eq!(deaths.len(), 1);
    assert_eq!(deaths[0].machine, idle.index());
    assert_eq!(deaths[0].cause, DeathCause::Injected);
}
