//! The coordinator: an [`ExecBackend`] whose machines are OS processes.
//!
//! [`TcpBackend`] records the session topology like any backend, but
//! `run()` does not execute the joiner machines in-process. Instead it
//!
//! * self-executes one **worker process** per eager machine (deferred
//!   elastic slots stay unspawned until an `Effect::Provision` fires at
//!   expansion trigger time — trigger-time provisioning as real process
//!   spawns);
//! * runs the **source machine's** node itself, so ingest pushes flow
//!   from the session straight into the data plane;
//! * services the **control plane**: plan handshakes, quiescence
//!   probes, gauge samples (fed into the session's [`SharedGauges`] and
//!   relayed to the controller's machine), match streams (re-emitted
//!   into the session's [`MatchHub`]), and the retirement barrier's
//!   bookkeeping: which peers consumed their retirement token, and how
//!   many end-of-stream markers the retiree must wait for;
//! * detects cluster quiescence with a **double probe**: two
//!   consecutive probe rounds with identical per-node counters and
//!   cluster-wide created = finished mean nothing is running and
//!   nothing is in flight — the distributed analogue of the threaded
//!   runtime's idle tracking;
//! * merges each worker's **finals** (joiner counters, match logs,
//!   controller event log) into one `Finals` — what the session's
//!   collect phase harvests from the tasks themselves on an in-process
//!   backend — and absorbs its metrics shard;
//! * **reaps** every worker with `Child::wait` and records the exit in
//!   the run summary — a retired machine's process is waitpid-confirmed
//!   gone, not just disconnected.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aoj_core::fault::{DeathCause, DetectorConfig, FailureDetector, FaultLog, WorkerDeath};
use aoj_core::lifecycle::Checkpoint;
use aoj_operators::messages::{Match, OpMsg};
use aoj_operators::report::Finals;
use aoj_operators::{MatchHub, NetBackend, SessionBuilder, SkewBoard};
use aoj_runtime::mailbox::Mailbox;
use aoj_simnet::{
    ExecBackend, Gauge, MachineId, Metrics, NetworkConfig, Process, SharedGauges, SimTime, TaskId,
};

use crate::node::{
    run_machine_loop, spawn_acceptor, wake_acceptor, Clock, ControlOut, Counters, Directory,
    EosGate, Lifecycle, NodeShared, TopoRecorder, Writers,
};
use crate::wire::{
    self, read_frame, DrainDone, Exiting, FinalsBundle, GaugeSample, Hello, MachineUp, MatchTap,
    Plan, ProbeAck, Ready, RetireReq, Wire, K_DRAIN_DONE, K_EXITING, K_FINALS, K_GAUGES,
    K_GAUGE_RELAY, K_HELLO, K_MACHINE_UP, K_MATCH_BATCH, K_MATCH_TAP, K_PLAN, K_PROBE, K_PROBE_ACK,
    K_PROVISION_REQ, K_READY, K_RETIRE_NOW, K_RETIRE_REQ, K_SHUTDOWN, WIRE_VERSION,
};
use crate::worker::{ENV_COORD, ENV_GEN, ENV_MACHINE, ENV_WORKER};
use crate::{ReapRecord, RunSummary};

/// The per-machine control links, shared between the reactor and the
/// acceptor's handshake threads.
type ControlLinks = Mutex<HashMap<usize, Arc<ControlOut>>>;

/// Send one control frame to worker `m`.
fn send_to(links: &ControlLinks, m: usize, kind: u8, msg: &impl Wire) {
    let link = links.lock().unwrap().get(&m).cloned();
    link.unwrap_or_else(|| panic!("no control link to machine {m}"))
        .send(kind, msg);
}

/// Probe cadence while the cluster has work in flight. Relaxed: on a
/// small host every probe round is a cross-process wakeup times the
/// cluster size, and those wakeups preempt the data path it is probing.
const PROBE_PERIOD_BUSY: Duration = Duration::from_millis(20);

/// Probe cadence once a round comes back all-settled: tight, so the
/// confirming second round — and the shutdown it triggers — lands with
/// millisecond teardown latency. Sessions start here too, keeping
/// trivial sessions (most tests) quick.
const PROBE_PERIOD_SETTLED: Duration = Duration::from_millis(2);

/// The multi-process TCP execution backend (see the module docs).
pub struct TcpBackend {
    topo: TopoRecorder,
    /// The canonical plan bytes every worker receives.
    builder_bytes: Vec<u8>,
    /// The plan fingerprint workers must echo in `Ready`.
    fingerprint: u64,
    /// The coordinator's own decoded copy of the plan (mailbox sizing,
    /// drain batch) — decoded from `builder_bytes`, so the
    /// coordinator and its workers provably configure from the same
    /// bits.
    builder: SessionBuilder,
    hub: Arc<MatchHub>,
    gauges: Option<Arc<SharedGauges>>,
    /// Coordinator-side skew board (one slot per worker), fed from the
    /// `skew_parts` of incoming gauge frames. Installed by the session
    /// layer; `None` when the session never asks for skew summaries.
    skew_board: Option<Arc<SkewBoard>>,
    /// The workers' finals, merged as their exit bundles arrive.
    finals: Finals,
    /// Machine-count bookkeeping frozen at the end of `run()`.
    final_provisioned: Option<usize>,
    final_peak: Option<usize>,
    /// Failure-detector timing from the *original* builder (the fault
    /// section is deliberately not wire-serialized).
    detector: DetectorConfig,
    /// Checkpoint installed by the session layer for a restore launch;
    /// shipped to every worker in its Plan.
    restore: Option<Checkpoint>,
    /// Typed deaths surfaced to the session layer (`fault_log` hook).
    fault_log: FaultLog,
    /// Kill requests from the session layer (`kill_handle` hook),
    /// drained by the reactor.
    kill_requests: Arc<Mutex<Vec<usize>>>,
    /// Abort flag from the session layer (`abort_handle` hook): tear
    /// the cluster down without waiting for quiescence.
    abort: Arc<AtomicBool>,
}

impl TcpBackend {
    /// The factory registered with
    /// `aoj_operators::register_tcp_backend` (see [`crate::install`]).
    ///
    /// # Panics
    ///
    /// If the builder carries a [`aoj_core::predicate::Predicate::Theta`]
    /// closure — arbitrary native closures cannot cross a process
    /// boundary; use a named predicate on this backend.
    pub fn factory(builder: &SessionBuilder, hub: Arc<MatchHub>) -> Box<dyn NetBackend> {
        let builder_bytes = builder.to_bytes();
        let fingerprint = wire::fingerprint(&builder_bytes);
        // The fault section rides outside the wire bytes (the decode
        // round-trip drops it by design): take it from the original.
        let detector = builder.fault.detector;
        let builder = SessionBuilder::from_bytes(&builder_bytes).expect("session plan round-trip");
        Box::new(TcpBackend {
            topo: TopoRecorder::default(),
            builder_bytes,
            fingerprint,
            builder,
            hub,
            gauges: None,
            skew_board: None,
            finals: Finals::default(),
            final_provisioned: None,
            final_peak: None,
            detector,
            restore: None,
            fault_log: FaultLog::new(),
            kill_requests: Arc::new(Mutex::new(Vec::new())),
            abort: Arc::new(AtomicBool::new(false)),
        })
    }
}

/// One event on the coordinator's single-threaded reactor.
enum Ev {
    /// A control frame from worker `machine`.
    Frame {
        machine: usize,
        kind: u8,
        payload: Vec<u8>,
    },
    /// A lifecycle effect surfaced by the coordinator's own node.
    Local(Lifecycle),
    /// Worker `machine`'s control connection dropped.
    Gone { machine: usize },
}

/// A serialized lifecycle operation.
enum Op {
    /// Spawn `machine`'s worker process; completes on its `Ready`.
    Provision { machine: usize },
    /// Drain-barrier teardown of `req.machine`, whose peers were sent
    /// retirement tokens by the node that applied the retire; completes
    /// when its process has exited and been reaped.
    Retire {
        req: RetireReq,
        /// `K_RETIRE_NOW` sent: every tokened peer reported `DrainDone`.
        released: bool,
    },
}

/// The retirement barrier's coordinator-side tally.
#[derive(Default)]
struct Barrier {
    /// Per machine: end-of-stream markers its current generation will
    /// receive (from token-driven closes and from exited peers).
    eos_to: HashMap<usize, u64>,
    /// Per retiring `(machine, gen)`: the nodes that reported
    /// `DrainDone`. A report can overtake the `RetireReq` it answers
    /// (they travel on different control links), and a co-retiree's
    /// token can be consumed while an earlier retirement is still busy.
    drained: HashMap<(usize, u32), HashSet<usize>>,
}

impl Barrier {
    /// Node `from` consumed its token for `d.machine`.
    fn drain_done(&mut self, from: usize, d: DrainDone) {
        *self.eos_to.entry(d.machine as usize).or_insert(0) += d.closed as u64;
        self.drained
            .entry((d.machine as usize, d.gen))
            .or_default()
            .insert(from);
    }

    /// Send `K_RETIRE_NOW` to a busy retiree once every tokened peer has
    /// closed its connections to it.
    fn release(&mut self, busy: &mut Option<Op>, links: &ControlLinks) {
        let Some(Op::Retire { req, released }) = busy else {
            return;
        };
        let m = req.machine as usize;
        let reported = self.drained.get(&(m, req.gen));
        if *released
            || !req
                .peers
                .iter()
                .all(|&p| reported.is_some_and(|r| r.contains(&(p as usize))))
        {
            return;
        }
        self.drained.remove(&(m, req.gen));
        *released = true;
        let expect = self.eos_to.get(&m).copied().unwrap_or(0);
        send_to(links, m, K_RETIRE_NOW, &expect);
    }
}

/// An in-flight probe round.
struct Probe {
    nonce: u64,
    pending: HashSet<usize>,
    /// `(machine, created, finished)` acks collected so far.
    acc: Vec<(usize, u64, u64)>,
    /// The coordinator node's own snapshot, taken at round start.
    own: (u64, u64),
}

impl ExecBackend<OpMsg> for TcpBackend {
    fn backend_name(&self) -> &'static str {
        "tcp"
    }

    fn add_machine(&mut self) -> MachineId {
        self.topo.add_machine()
    }

    fn add_machine_with_network(&mut self, network: NetworkConfig) -> MachineId {
        self.topo.add_machine_with_network(network)
    }

    fn add_deferred_machine(&mut self) -> MachineId {
        self.topo.add_deferred_machine()
    }

    fn provisioned_machines(&self) -> usize {
        self.final_provisioned
            .unwrap_or_else(|| self.topo.provisioned_machines())
    }

    fn peak_provisioned_machines(&self) -> usize {
        self.final_peak
            .unwrap_or_else(|| self.topo.provisioned_machines())
    }

    fn add_task(&mut self, machine: MachineId, task: Box<dyn Process<OpMsg> + Send>) -> TaskId {
        self.topo.add_task(machine, task)
    }

    fn start_timer_at(&mut self, at: SimTime, task: TaskId, key: u64) {
        self.topo.start_timer_at(at, task, key)
    }

    fn metrics(&self) -> &Metrics {
        self.topo.metrics()
    }

    fn has_global_metrics_view(&self) -> bool {
        // Handler-side cluster-wide gauge reads see the relayed overlay:
        // a few milliseconds stale, not the simulator's exact global
        // view. Collection phases that need exactness skip them.
        false
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        self.topo.metrics_mut()
    }

    fn run(&mut self) -> SimTime {
        self.run_cluster()
    }

    fn task_any(&self, id: TaskId) -> &dyn std::any::Any {
        self.topo.task_any(id)
    }
}

impl NetBackend for TcpBackend {
    fn session_gauges(&mut self) -> Arc<SharedGauges> {
        if self.gauges.is_none() {
            let g = SharedGauges::new(self.topo.deferred.len());
            // Post-run metric reads (stored/evicted/window per machine)
            // go through the overlay, which the workers' final gauge
            // frames make authoritative.
            self.topo.metrics.install_shared(Arc::clone(&g));
            self.gauges = Some(g);
        }
        Arc::clone(self.gauges.as_ref().unwrap())
    }

    fn remote_skew_board(&mut self, slots: usize) -> Option<Arc<SkewBoard>> {
        let board = SkewBoard::new(slots);
        self.skew_board = Some(Arc::clone(&board));
        Some(board)
    }

    fn take_finals(&mut self) -> Option<Finals> {
        Some(std::mem::take(&mut self.finals))
    }

    fn fault_log(&mut self) -> FaultLog {
        self.fault_log.clone()
    }

    fn kill_handle(&mut self) -> Box<dyn Fn(usize) + Send + Sync> {
        let reqs = Arc::clone(&self.kill_requests);
        Box::new(move |machine| reqs.lock().unwrap().push(machine))
    }

    fn abort_handle(&mut self) -> Box<dyn Fn() + Send + Sync> {
        let abort = Arc::clone(&self.abort);
        Box::new(move || abort.store(true, Ordering::SeqCst))
    }

    fn install_restore(&mut self, ckpt: &Checkpoint) {
        self.restore = Some(ckpt.clone());
    }
}

impl TcpBackend {
    fn run_cluster(&mut self) -> SimTime {
        let machines = self.topo.deferred.len();
        assert!(machines >= 2, "a session has at least one joiner machine");
        let source_machine = self
            .topo
            .networked_machine()
            .expect("the driver registers the source machine with a network config");
        assert_eq!(
            source_machine,
            machines - 1,
            "the source machine is registered last"
        );
        let gauges = self.session_gauges();
        let clock = Clock::new(0);

        // ---- control plane listener -----------------------------------
        let control_listener =
            TcpListener::bind("127.0.0.1:0").expect("bind coordinator control port");
        let control_port = control_listener.local_addr().unwrap().port();
        let coord_addr = format!("127.0.0.1:{control_port}");
        let (tx, rx) = mpsc::channel::<Ev>();
        let links: Arc<ControlLinks> = Arc::new(Mutex::new(HashMap::new()));
        let accept_done = Arc::new(AtomicBool::new(false));
        let control_acceptor = spawn_control_acceptor(
            control_listener,
            tx.clone(),
            Arc::clone(&links),
            Arc::clone(&accept_done),
            Plan {
                version: WIRE_VERSION,
                fingerprint: self.fingerprint,
                machines: machines as u64,
                source_machine: source_machine as u64,
                clock_anchor_us: 0, // rewritten per handshake
                builder: self.builder_bytes.clone(),
                restore: self
                    .restore
                    .as_ref()
                    .map(|c| c.to_bytes())
                    .unwrap_or_default(),
            },
            clock,
        );

        // ---- the coordinator's own node (the source machine) ----------
        let rt_cfg = self.builder.runtime_config();
        let mailbox = Arc::new(Mailbox::<OpMsg>::new(
            rt_cfg.data_queue_capacity,
            rt_cfg.migration_weight,
        ));
        let done = Arc::new(AtomicBool::new(false));
        let directory = Directory::new();
        let writers = Writers::new(Arc::clone(&directory), source_machine, 0);
        let eos = EosGate::new();
        let counters = Arc::new(Counters::default());
        let data_listener = TcpListener::bind("127.0.0.1:0").expect("bind coordinator data port");
        let own_port = data_listener.local_addr().unwrap().port();
        let data_acceptor = spawn_acceptor(
            data_listener,
            Arc::clone(&mailbox),
            Arc::clone(&done),
            Arc::clone(&eos),
        );

        let own_tasks = self.topo.take_machine_tasks(source_machine);
        let task_machine = Arc::new(self.topo.task_machine());
        let mut own_shard = Metrics::default();
        for _ in 0..machines {
            own_shard.add_machine();
        }
        own_shard.sample_spacing = self.topo.metrics.sample_spacing;
        for &(at_us, task, key) in &self.topo.timers {
            if task_machine[task.index()] == source_machine {
                counters.created.fetch_add(1, Ordering::AcqRel);
                mailbox.push_timer(at_us, task, key, false);
            }
        }
        let loop_handle = {
            let shared = NodeShared {
                machine: source_machine,
                mailbox: Arc::clone(&mailbox),
                done: Arc::clone(&done),
                clock,
                counters: Arc::clone(&counters),
                writers: Arc::clone(&writers),
                task_machine,
                directory: Arc::clone(&directory),
            };
            let tx = tx.clone();
            let drain_batch = rt_cfg.drain_batch;
            std::thread::Builder::new()
                .name("aoj-net-coord-node".into())
                .spawn(move || {
                    let lifecycle = move |ev: Lifecycle| {
                        tx.send(Ev::Local(ev)).expect("coordinator reactor gone");
                    };
                    run_machine_loop(&shared, own_tasks, own_shard, drain_batch, &lifecycle, None)
                })
                .expect("spawn coordinator node")
        };

        // ---- spawn eager workers --------------------------------------
        let mut children: HashMap<usize, Child> = HashMap::new();
        let mut gens: HashMap<usize, u32> = HashMap::new();
        let mut awaiting_ready: HashSet<usize> = HashSet::new();
        let mut spawned = 0u64;
        let mut provisioned = self.topo.provisioned_machines();
        let mut peak = provisioned;
        for m in 0..machines - 1 {
            if !self.topo.deferred[m] {
                spawn_worker(&mut children, &coord_addr, m, 0);
                gens.insert(m, 0);
                awaiting_ready.insert(m);
                spawned += 1;
            }
        }

        // ---- the reactor ----------------------------------------------
        let mut live: BTreeMap<usize, u32> = BTreeMap::new();
        let mut ports: HashMap<usize, u16> = HashMap::new();
        let mut busy: Option<Op> = None;
        let mut queue: VecDeque<Op> = VecDeque::new();
        let mut barrier = Barrier::default();
        let mut retired_sums = (0u64, 0u64);
        let mut data_proc: HashMap<(usize, u32), u64> = HashMap::new();
        let mut reaped: Vec<ReapRecord> = Vec::new();
        let mut probe: Option<Probe> = None;
        let mut last_round: Option<Vec<(usize, u64, u64)>> = None;
        let mut nonce = 0u64;
        let mut last_probe = Instant::now();
        let mut probe_period = PROBE_PERIOD_SETTLED;
        let mut shutting_down = false;
        // Live match streaming follows the session hub's attach state:
        // a worker ships everything it emits until its first K_MATCH_TAP,
        // and gets another whenever a subscriber attaches or detaches.
        // Taps start going out once a subscriber exists or the first
        // match batch arrives, never before: workers come up within
        // milliseconds of `open`, and a tap(off) sent ahead of a
        // subscriber that attaches before its first push would make them
        // drop that subscriber's pairs until the next broadcast lands. A
        // match batch proves ingest began, so a subscriber attached before
        // the first push is already visible by then. (The epoch is read
        // first: a subscriber attaching in between only costs one
        // redundant broadcast.)
        let mut tap_epoch = self.hub.filter_epoch();
        let (on, filters) = self.hub.ship_spec();
        let mut tap = MatchTap { on, filters };
        let mut tapping = tap.on;
        let skew_board = self.skew_board.clone();

        // ---- failure detection & fault injection ----------------------
        // Every control frame is liveness evidence; workers heartbeat
        // their gauge sample when idle, so a registered machine silent
        // past the timeout is dead, not quiet.
        let mut detector = FailureDetector::new(self.detector);
        // Machines we SIGKILLed on purpose: their deaths are classified
        // `Injected`, not `ConnectionLost`.
        let mut injected: HashSet<usize> = HashSet::new();
        let mut injected_at: HashMap<usize, u64> = HashMap::new();
        // Once a death is recorded (or the session layer aborts), the
        // reactor stops the cluster instead of draining it: quiescence
        // is unreachable with a worker's state gone.
        let mut aborted = false;

        loop {
            // Session-layer abort: stop the cluster, no deaths to record.
            if self.abort.load(Ordering::SeqCst) {
                aborted = true;
                break;
            }

            // Fault injection: SIGKILL a victim the session layer asked
            // for once it is live — killing a worker that has not reached
            // Ready would test the spawn path, not the crash path, and no
            // detector is watching it yet.
            let mut to_kill: Vec<usize> = Vec::new();
            self.kill_requests.lock().unwrap().retain(|m| {
                let is_live = live.contains_key(m);
                if is_live {
                    to_kill.push(*m);
                }
                !is_live
            });
            for m in to_kill {
                if let Some(child) = children.get_mut(&m) {
                    injected.insert(m);
                    injected_at.entry(m).or_insert_with(|| clock.now_us());
                    // SIGKILL: no signal handler, no flush, no goodbye —
                    // the death is noticed, never announced. Reaped when
                    // the connection drop or heartbeat timeout lands.
                    let _ = child.kill();
                }
            }

            // Heartbeat timeouts (the detector deregisters what it
            // reports, so each death surfaces exactly once).
            for mut d in detector.poll(clock.now_us()) {
                if injected.contains(&d.machine) {
                    d.cause = DeathCause::Injected;
                    d.detect_latency_us = d
                        .at_us
                        .saturating_sub(injected_at.get(&d.machine).copied().unwrap_or(d.at_us));
                }
                live.remove(&d.machine);
                links.lock().unwrap().remove(&d.machine);
                if let Some(mut child) = children.remove(&d.machine) {
                    let _ = child.kill();
                    let status = child.wait();
                    reaped.push(ReapRecord {
                        machine: d.machine,
                        gen: d.gen,
                        exit_code: status.ok().and_then(|s| s.code()),
                        mid_run: true,
                    });
                }
                self.fault_log.record(d);
                aborted = true;
            }
            if aborted {
                break;
            }

            // Start a queued lifecycle op once the current one finished.
            if busy.is_none() {
                if let Some(op) = queue.pop_front() {
                    match op {
                        Op::Provision { machine } => {
                            let gen = gens.get(&machine).map(|g| g + 1).unwrap_or(0);
                            gens.insert(machine, gen);
                            // A fresh process, a fresh end-of-stream gate.
                            barrier.eos_to.insert(machine, 0);
                            spawn_worker(&mut children, &coord_addr, machine, gen);
                            awaiting_ready.insert(machine);
                            spawned += 1;
                            busy = Some(Op::Provision { machine });
                        }
                        Op::Retire { req, .. } => {
                            // Quiesce barrier: the applying node closed its
                            // channels toward the retiree and sent every
                            // other live peer (the coordinator's node
                            // included) a token on the data plane; each
                            // peer closes its own channels when it consumes
                            // it. Every close ends in an EOS marker the
                            // retiree will count.
                            let m = req.machine as usize;
                            debug_assert_eq!(gens.get(&m), Some(&req.gen));
                            *barrier.eos_to.entry(m).or_insert(0) += req.closed as u64;
                            busy = Some(Op::Retire {
                                req,
                                released: false,
                            });
                            barrier.release(&mut busy, &links);
                        }
                    }
                }
            }

            // Re-broadcast the tap whenever the subscriber set (or any
            // subscriber's filter) changes: workers then drop pairs no
            // subscriber wants before they ever touch the wire.
            if refresh_tap(&self.hub, &mut tap, &mut tap_epoch) && (tapping || tap.on) {
                tapping = true;
                for &w in live.keys() {
                    send_to(&links, w, K_MATCH_TAP, &tap);
                }
            }

            // Periodic quiescence probe, skipped while topology is in
            // motion (a probe during a spawn or drain would read a
            // cluster that is legitimately mid-flight).
            let idle_topology = busy.is_none()
                && queue.is_empty()
                && awaiting_ready.is_empty()
                && probe.is_none()
                && !shutting_down;
            if idle_topology && last_probe.elapsed() >= probe_period {
                last_probe = Instant::now();
                nonce += 1;
                let pending: HashSet<usize> = live.keys().copied().collect();
                for &w in &pending {
                    send_to(&links, w, K_PROBE, &nonce);
                }
                probe = Some(Probe {
                    nonce,
                    pending,
                    acc: Vec::new(),
                    own: counters.snapshot(),
                });
            }

            let ev = match rx.recv_timeout(probe_period) {
                Ok(ev) => ev,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("the coordinator holds a sender")
                }
            };
            match ev {
                Ev::Local(Lifecycle::Provision(m)) => queue.push_back(Op::Provision { machine: m }),
                Ev::Local(Lifecycle::Retire(req)) => queue.push_back(Op::Retire {
                    req,
                    released: false,
                }),
                Ev::Local(Lifecycle::Drained(d)) => {
                    barrier.drain_done(source_machine, d);
                    barrier.release(&mut busy, &links);
                }
                Ev::Local(Lifecycle::Stopped) => {}
                Ev::Gone { machine } => {
                    // A retired or shut-down worker's connection drop is
                    // expected (its K_EXITING already removed it from
                    // `live`). A *live* worker's drop is a crash: a
                    // SIGKILL'd process resets its sockets immediately,
                    // making this the fastest death signal.
                    if let Some(&gen) = live.get(&machine) {
                        live.remove(&machine);
                        detector.deregister(machine);
                        links.lock().unwrap().remove(&machine);
                        let now_us = clock.now_us();
                        let exit_code = children.remove(&machine).and_then(|mut child| {
                            let _ = child.kill();
                            let status = child.wait().ok();
                            let code = status.and_then(|s| s.code());
                            reaped.push(ReapRecord {
                                machine,
                                gen,
                                exit_code: code,
                                mid_run: true,
                            });
                            code
                        });
                        let (cause, detect_latency_us) = if injected.contains(&machine) {
                            (
                                DeathCause::Injected,
                                now_us.saturating_sub(
                                    injected_at.get(&machine).copied().unwrap_or(now_us),
                                ),
                            )
                        } else {
                            let _ = exit_code; // SIGKILL leaves no code; the cause says why
                            (DeathCause::ConnectionLost, 0)
                        };
                        self.fault_log.record(WorkerDeath {
                            machine,
                            gen,
                            at_us: now_us,
                            cause,
                            detect_latency_us,
                        });
                        aborted = true;
                    }
                }
                Ev::Frame {
                    machine,
                    kind,
                    payload,
                } => {
                    // Any frame is proof of life.
                    detector.note_alive(machine, clock.now_us());
                    match kind {
                        K_READY => {
                            let ready = Ready::from_bytes(&payload).expect("ready frame");
                            assert_eq!(
                                ready.fingerprint, self.fingerprint,
                                "worker {machine} rebuilt a different plan"
                            );
                            let gen = ready.gen;
                            detector.register(machine, gen, clock.now_us());
                            // Introduce the newcomer to the cluster: it gets
                            // the full current directory (coordinator
                            // included); everyone else learns its port.
                            directory.set_live(machine, gen, ready.data_port);
                            ports.insert(machine, ready.data_port);
                            let up = MachineUp {
                                machine: machine as u64,
                                gen,
                                port: ready.data_port,
                            };
                            for (&w, _) in live.iter() {
                                send_to(&links, w, K_MACHINE_UP, &up);
                            }
                            send_to(
                                &links,
                                machine,
                                K_MACHINE_UP,
                                &MachineUp {
                                    machine: source_machine as u64,
                                    gen: 0,
                                    port: own_port,
                                },
                            );
                            for (&w, &wgen) in live.iter() {
                                let port = ports[&w];
                                send_to(
                                    &links,
                                    machine,
                                    K_MACHINE_UP,
                                    &MachineUp {
                                        machine: w as u64,
                                        gen: wgen,
                                        port,
                                    },
                                );
                            }
                            live.insert(machine, gen);
                            // The newcomer's first tap reads the hub now, not
                            // at the loop top.
                            let changed = refresh_tap(&self.hub, &mut tap, &mut tap_epoch);
                            if tapping || tap.on {
                                tapping = true;
                                for &w in live.keys().filter(|&&w| changed || w == machine) {
                                    send_to(&links, w, K_MATCH_TAP, &tap);
                                }
                            }
                            awaiting_ready.remove(&machine);
                            if matches!(busy, Some(Op::Provision { machine: m }) if m == machine) {
                                busy = None;
                                provisioned += 1;
                                peak = peak.max(provisioned);
                            }
                        }
                        K_PROBE_ACK => {
                            let ack = ProbeAck::from_bytes(&payload).expect("probe ack");
                            if let Some(p) = probe.as_mut() {
                                if ack.nonce == p.nonce && p.pending.remove(&machine) {
                                    p.acc.push((machine, ack.created, ack.finished));
                                    if p.pending.is_empty() {
                                        let p = probe.take().unwrap();
                                        let mut round = p.acc;
                                        round.sort_unstable();
                                        round.push((usize::MAX, p.own.0, p.own.1));
                                        round.push((usize::MAX, retired_sums.0, retired_sums.1));
                                        let created: u64 = round.iter().map(|r| r.1).sum();
                                        let finished: u64 = round.iter().map(|r| r.2).sum();
                                        // Adapt the cadence to what the round
                                        // saw: settled clusters get probed
                                        // hard (to shut down fast), busy ones
                                        // get left alone to work.
                                        probe_period = if created == finished {
                                            PROBE_PERIOD_SETTLED
                                        } else {
                                            PROBE_PERIOD_BUSY
                                        };
                                        if created == finished
                                            && last_round.as_ref() == Some(&round)
                                        {
                                            // Second identical all-settled
                                            // round: the cluster is done.
                                            shutting_down = true;
                                            let flushed = writers.close_all();
                                            for (dest, n) in flushed {
                                                *barrier.eos_to.entry(dest).or_insert(0) +=
                                                    n as u64;
                                            }
                                            // A checkpointing drain asks the
                                            // workers' state home with it.
                                            let snapshot = self.hub.snapshot_wanted();
                                            for (&w, _) in live.iter() {
                                                send_to(&links, w, K_SHUTDOWN, &snapshot);
                                            }
                                        } else {
                                            last_round = Some(round);
                                        }
                                    }
                                }
                            }
                        }
                        K_GAUGES => {
                            let mut g = GaugeSample::from_bytes(&payload).expect("gauge sample");
                            let m = MachineId(g.machine as usize);
                            for (gauge, value) in Gauge::ALL.into_iter().zip(g.gauges) {
                                gauges.set(m, gauge, value);
                            }
                            let gen = live.get(&machine).copied().unwrap_or(0);
                            data_proc.insert((machine, gen), g.data_processed);
                            gauges.set_data_processed(data_proc.values().sum());
                            // The sketch stops here; what is relayed below is
                            // the gauges alone.
                            let skew_parts = std::mem::take(&mut g.skew_parts);
                            if let Some(board) = &skew_board {
                                if !skew_parts.is_empty() {
                                    board.publish(machine, skew_parts);
                                }
                            }
                            // The controller machine needs the cluster view.
                            // (Not during shutdown: worker 0 may already have
                            // closed its control socket by the time a peer's
                            // last sample drains from the reactor queue.)
                            if machine != 0 && live.contains_key(&0) && !shutting_down {
                                send_to(&links, 0, K_GAUGE_RELAY, &g);
                            }
                        }
                        K_MATCH_BATCH => {
                            for m in Vec::<Match>::from_bytes(&payload).expect("match batch") {
                                self.hub.emit(m);
                            }
                            if !tapping {
                                tapping = true;
                                refresh_tap(&self.hub, &mut tap, &mut tap_epoch);
                                for &w in live.keys() {
                                    send_to(&links, w, K_MATCH_TAP, &tap);
                                }
                            }
                        }
                        K_PROVISION_REQ => {
                            let m = u64::from_bytes(&payload).expect("provision req") as usize;
                            queue.push_back(Op::Provision { machine: m });
                        }
                        K_RETIRE_REQ => {
                            let req = RetireReq::from_bytes(&payload).expect("retire req");
                            queue.push_back(Op::Retire {
                                req,
                                released: false,
                            });
                        }
                        K_DRAIN_DONE => {
                            let d = DrainDone::from_bytes(&payload).expect("drain done");
                            barrier.drain_done(machine, d);
                            barrier.release(&mut busy, &links);
                        }
                        K_FINALS => {
                            let bundle = FinalsBundle::from_bytes(&payload).expect("finals bundle");
                            self.finals.merge(bundle.finals);
                            // Rebuild the worker's shard as a `Metrics`
                            // and fold it into the global sink.
                            let mut shard = Metrics::default();
                            for (i, row) in bundle.machines.into_iter().enumerate() {
                                shard.add_machine();
                                *shard.machine_mut(MachineId(i)) = row;
                            }
                            shard.events = bundle.events;
                            shard.last_event_at = bundle.last_event_at;
                            shard.data_processed = bundle.data_processed;
                            self.topo.metrics.absorb(&shard);
                        }
                        K_EXITING => {
                            let e = Exiting::from_bytes(&payload).expect("exiting frame");
                            retired_sums.0 += e.created;
                            retired_sums.1 += e.finished;
                            for &(dest, n) in &e.closed {
                                *barrier.eos_to.entry(dest as usize).or_insert(0) += n as u64;
                            }
                            let planned = shutting_down
                                || matches!(&busy, Some(Op::Retire { req, .. }) if req.machine as usize == machine);
                            live.remove(&machine);
                            detector.deregister(machine);
                            links.lock().unwrap().remove(&machine);
                            let mut child = children
                                .remove(&machine)
                                .unwrap_or_else(|| panic!("no child for machine {machine}"));
                            // waitpid confirms the process is gone — a
                            // retirement is not complete (and a death not
                            // diagnosed) while the pid still exists.
                            let status = child.wait().expect("waitpid on worker");
                            reaped.push(ReapRecord {
                                machine,
                                gen: e.gen,
                                exit_code: status.code(),
                                mid_run: !shutting_down,
                            });
                            if !planned || !status.success() {
                                // A worker exited when nothing retired it,
                                // or exited non-zero: a typed death naming
                                // the machine and its exit status, never a
                                // generic run failure — and never a hang,
                                // since the abort below skips the
                                // unreachable quiescence wait.
                                self.fault_log.record(WorkerDeath {
                                    machine,
                                    gen: e.gen,
                                    at_us: clock.now_us(),
                                    cause: DeathCause::UnexpectedExit {
                                        exit_code: status.code(),
                                    },
                                    detect_latency_us: 0,
                                });
                                aborted = true;
                            } else if !shutting_down {
                                // A mid-run retirement completes here: the
                                // process is confirmed gone.
                                provisioned -= 1;
                                busy = None;
                            }
                        }
                        other => {
                            panic!("unexpected control frame kind {other} from worker {machine}")
                        }
                    }
                }
            }

            if aborted {
                break;
            }
            if shutting_down && live.is_empty() && children.is_empty() {
                break;
            }
        }

        // ---- teardown -------------------------------------------------
        if aborted {
            // Crash or session-layer abort: no finals are coming. Take
            // the whole cluster down — every surviving worker holds
            // state the recovery path will rebuild from a checkpoint
            // anyway — and waitpid-confirm each one gone.
            for (m, mut child) in children.drain() {
                let _ = child.kill();
                let status = child.wait();
                reaped.push(ReapRecord {
                    machine: m,
                    gen: gens.get(&m).copied().unwrap_or(0),
                    exit_code: status.ok().and_then(|s| s.code()),
                    mid_run: true,
                });
            }
            live.clear();
            links.lock().unwrap().clear();
        }
        accept_done.store(true, Ordering::SeqCst);
        done.store(true, Ordering::SeqCst);
        mailbox.wake_all();
        // Both acceptors block in accept(): one connect each wakes them
        // to see their flag, and their listeners close as they return.
        wake_acceptor(control_port);
        wake_acceptor(own_port);
        control_acceptor.join().expect("control acceptor panicked");
        data_acceptor.join().expect("data acceptor panicked");
        match loop_handle.join() {
            Ok((shard, tasks)) => {
                self.topo.restore_tasks(tasks);
                self.topo.metrics.absorb(&shard);
            }
            // On an aborted run the coordinator's own node may have died
            // with a send into the torn-down cluster; its finals are
            // abandoned along with everyone else's.
            Err(payload) if aborted => drop(payload),
            Err(payload) => std::panic::resume_unwind(payload),
        }
        let end = SimTime(clock.now_us());
        self.final_provisioned = Some(provisioned);
        self.final_peak = Some(peak);
        crate::record_run(RunSummary {
            spawned,
            peak_provisioned: peak,
            reaped,
            listeners: [control_port, own_port],
        });
        end
    }
}

/// Re-read the session hub's subscriber set into `tap`; true when it
/// changed since `epoch`.
fn refresh_tap(hub: &MatchHub, tap: &mut MatchTap, epoch: &mut u64) -> bool {
    let now = hub.filter_epoch();
    let (on, filters) = hub.ship_spec();
    if on == tap.on && now == *epoch {
        return false;
    }
    *epoch = now;
    *tap = MatchTap { on, filters };
    true
}

/// Accept control connections, run the plan handshake on each, and pump
/// subsequent frames into the reactor. Blocks in `accept`; teardown sets
/// `done` and wakes it with [`wake_acceptor`].
fn spawn_control_acceptor(
    listener: TcpListener,
    tx: mpsc::Sender<Ev>,
    links: Arc<ControlLinks>,
    done: Arc<AtomicBool>,
    plan_template: Plan,
    clock: Clock,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("aoj-net-ctrl-accept".into())
        .spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if done.load(Ordering::SeqCst) {
                        return; // the teardown's wake-up call
                    }
                    stream.set_nodelay(true).ok();
                    let tx = tx.clone();
                    let links = Arc::clone(&links);
                    let mut plan = plan_template.clone();
                    std::thread::Builder::new()
                        .name("aoj-net-ctrl-rx".into())
                        .spawn(move || {
                            let mut read = stream.try_clone().expect("clone control stream");
                            let hello = match read_frame(&mut read) {
                                Ok((K_HELLO, p)) => Hello::from_bytes(&p).expect("hello frame"),
                                Ok((k, _)) => panic!("expected hello, got frame kind {k}"),
                                Err(e) => panic!("read hello: {e}"),
                            };
                            assert_eq!(hello.version, WIRE_VERSION, "wire version mismatch");
                            let machine = hello.machine as usize;
                            let out = Arc::new(ControlOut::new(stream));
                            // Anchor the worker's clock as late as
                            // possible: skew is one loopback hop.
                            plan.clock_anchor_us = clock.now_us();
                            out.send(K_PLAN, &plan);
                            links.lock().unwrap().insert(machine, out);
                            loop {
                                match read_frame(&mut read) {
                                    Ok((kind, payload)) => {
                                        if tx
                                            .send(Ev::Frame {
                                                machine,
                                                kind,
                                                payload,
                                            })
                                            .is_err()
                                        {
                                            return;
                                        }
                                    }
                                    Err(_) => {
                                        let _ = tx.send(Ev::Gone { machine });
                                        return;
                                    }
                                }
                            }
                        })
                        .expect("spawn control rx");
                }
                Err(e) => {
                    if !done.load(Ordering::Relaxed) {
                        panic!("control accept failed: {e}");
                    }
                    return;
                }
            }
        })
        .expect("spawn control acceptor")
}

/// Self-execute one worker process for `machine` at incarnation `gen`.
fn spawn_worker(children: &mut HashMap<usize, Child>, coord_addr: &str, machine: usize, gen: u32) {
    let exe = std::env::current_exe().expect("resolve current executable");
    let child = Command::new(exe)
        // Under the libtest harness these arguments select the
        // `worker_entry!` test; plain binaries ignore them because
        // `init_worker` diverts before argument parsing.
        .args(["aoj_net_worker_entry", "--exact", "--nocapture"])
        .env(ENV_WORKER, "1")
        .env(ENV_COORD, coord_addr)
        .env(ENV_MACHINE, machine.to_string())
        .env(ENV_GEN, gen.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn worker process");
    let prev = children.insert(machine, child);
    assert!(prev.is_none(), "machine {machine} spawned twice");
}
