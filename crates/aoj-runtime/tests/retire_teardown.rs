//! Hard release of retired workers: `Effect::Retire` must end with the
//! worker **thread** exiting (after the flush-barrier drain), not
//! parking forever — observed here directly via the process's OS thread
//! count — and a later `Effect::Provision` must bring the same machine
//! back with its task state intact.
//!
//! This lives in its own integration-test binary so the `/proc` thread
//! count is not perturbed by unrelated tests running concurrently.
#![cfg(target_os = "linux")]

use aoj_runtime::{Runtime, RuntimeConfig};
use aoj_simnet::{
    Ctx, ExecBackend, MachineId, MsgClass, Process, SimDuration, SimMessage, SimTime, TaskId,
    Topology,
};

/// Live thread count of this process, from `/proc/self/status`.
fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("no Threads: line in /proc/self/status")
        .trim()
        .parse()
        .unwrap()
}

enum TestMsg {
    Ping,
    Pong,
}

impl SimMessage for TestMsg {
    fn bytes(&self) -> u64 {
        8
    }
    fn class(&self) -> MsgClass {
        MsgClass::Control
    }
}

/// Replies `Pong` to every `Ping`, counting them — the state whose
/// survival across retire/re-provision the test asserts.
#[derive(Default)]
struct Echo {
    pongs_sent: u32,
}

impl Process<TestMsg> for Echo {
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, TestMsg>,
        from: TaskId,
        _msg: TestMsg,
    ) -> SimDuration {
        self.pongs_sent += 1;
        ctx.send(from, TestMsg::Pong);
        SimDuration::ZERO
    }
}

const BOOT: u64 = 0;
const POLL: u64 = 1;

/// Drives two provision→ping→retire rounds against the echo machine,
/// polling the OS thread count until the retired worker demonstrably
/// exits before starting the next round.
struct Driver {
    echo_task: TaskId,
    echo_machine: MachineId,
    baseline: usize,
    with_worker: usize,
    polls: u32,
    pongs: u32,
    success: bool,
}

impl Process<TestMsg> for Driver {
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, TestMsg>,
        _from: TaskId,
        _msg: TestMsg,
    ) -> SimDuration {
        // A Pong: the provisioned worker is live and serving.
        self.pongs += 1;
        self.with_worker = os_threads();
        assert!(
            self.with_worker > self.baseline,
            "provisioning never added a worker thread \
             ({} threads at baseline, {} with the worker)",
            self.baseline,
            self.with_worker
        );
        ctx.retire(self.echo_machine);
        self.polls = 0;
        ctx.schedule(SimDuration(1_000), POLL);
        SimDuration::ZERO
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, key: u64) -> SimDuration {
        match key {
            BOOT => {
                self.baseline = os_threads();
                ctx.provision(self.echo_machine);
                ctx.send(self.echo_task, TestMsg::Ping);
            }
            POLL => {
                if os_threads() < self.with_worker {
                    // The retired worker's thread is gone — the hard
                    // teardown this test exists to pin. Round 2
                    // re-provisions the same machine; after its pong the
                    // run quiesces.
                    if self.pongs == 1 {
                        ctx.provision(self.echo_machine);
                        ctx.send(self.echo_task, TestMsg::Ping);
                    } else {
                        self.success = true;
                    }
                } else {
                    self.polls += 1;
                    assert!(
                        self.polls < 5_000,
                        "retired worker thread never exited \
                         (thread count stuck at {})",
                        os_threads()
                    );
                    ctx.schedule(SimDuration(1_000), POLL);
                }
            }
            _ => unreachable!(),
        }
        SimDuration::ZERO
    }
}

#[test]
fn retired_workers_release_their_threads_and_reprovision_cleanly() {
    let mut topo = Topology::new();
    let m0 = topo.add_machine();
    let m1 = topo.add_deferred_machine();
    // Echo first so the driver can be built knowing its id.
    let echo_task = topo.add_task(m1, Box::new(Echo::default()));
    let driver_task = topo.add_task(
        m0,
        Box::new(Driver {
            echo_task,
            echo_machine: m1,
            baseline: 0,
            with_worker: 0,
            polls: 0,
            pongs: 0,
            success: false,
        }),
    );
    topo.start_timer_at(SimTime(0), driver_task, BOOT);
    let mut rt: Runtime<TestMsg> = Runtime::new(RuntimeConfig::default(), topo);
    rt.run();

    let driver: &Driver = rt.task_ref(driver_task);
    assert!(driver.success, "the driver never observed the thread drop");
    assert_eq!(driver.pongs, 2, "the re-provisioned machine never served");
    // Task state survived the hard teardown and came back on round 2.
    let echo: &Echo = rt.task_ref(echo_task);
    assert_eq!(echo.pongs_sent, 2);
    // Accounting: both retire rounds released the echo machine; only the
    // eager machine still holds resources, and the peak saw both.
    assert_eq!(rt.provisioned_machines(), 1);
    assert_eq!(rt.peak_provisioned_machines(), 2);
}
