//! The threaded execution backend: one OS thread per machine, servicing
//! a class-aware mailbox, with distributed termination detection and
//! per-worker metrics shards.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::thread::JoinHandle;
use std::time::Instant;

use aoj_core::{DeathCause, FaultLog, WorkerDeath};
use aoj_simnet::{
    Effect, ExecBackend, MachineId, Metrics, NetworkConfig, Process, SharedGauges, SimMessage,
    SimTime, TaskId,
};

use crate::mailbox::{dispatch, install_wakers, Mailbox, TaskMap, Work};

/// Threaded-backend knobs.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Per-mailbox bound on queued Data-class **tuple units** (a
    /// coalesced batch occupies its tuple count, so the bound means the
    /// same in-flight volume at any batch size). Cross-machine data
    /// sends wait a bounded interval for space while the destination
    /// queue is full, then enqueue regardless; control, migration and
    /// loopback traffic is never bounded (see the `mailbox` module docs
    /// for why the wait must be bounded).
    pub data_queue_capacity: usize,
    /// Migration-to-data service ratio while both queues are backlogged.
    /// The paper fixes this to 2 (§4.3.2); mirrors
    /// [`aoj_simnet::MachineConfig::migration_weight`].
    pub migration_weight: u32,
    /// How many messages a worker drains from its mailbox per lock
    /// acquisition. The weighted service policy is applied per message
    /// *inside* the batch, so the service order is identical to draining
    /// one at a time — batching only amortises the lock. 1 restores the
    /// unbatched behaviour.
    pub drain_batch: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            data_queue_capacity: 16 * 1024,
            migration_weight: 2,
            drain_batch: 32,
        }
    }
}

/// Crashes one machine's worker, or ends a whole run, from outside it.
///
/// [`kill`](KillSwitch::kill) crashes one machine's worker thread: the
/// victim checks for the request once per drain batch (the request also
/// wakes it when idle), records a [`WorkerDeath`] into the runtime's
/// [`death_log`](Runtime::death_log), and returns **without** retiring
/// its outstanding work or depositing its tasks — the run wedges
/// exactly like a thread lost to a real crash would.
///
/// [`fire`](KillSwitch::fire) ends such a run: a killed worker leaves
/// the outstanding-work counter permanently positive, so
/// [`ExecBackend::run`] would block in `join` forever. The caller that
/// supervises the run holds this switch (obtained *before* `run`, via
/// [`Runtime::kill_switch`]) and fires it once the death is confirmed:
/// every surviving worker wakes, drains out, and `run` returns.
///
/// Either request made before `run` starts is remembered and applied at
/// startup; repeating one is harmless.
pub struct KillSwitch<M: SimMessage + Send + 'static> {
    state: Mutex<SwitchState<M>>,
}

struct SwitchState<M: SimMessage + Send + 'static> {
    fired: bool,
    /// Machines whose crash was requested before the run began.
    kills: Vec<usize>,
    /// The run in progress, if any.
    run: Option<Arc<Shared<M>>>,
}

impl<M: SimMessage + Send + 'static> KillSwitch<M> {
    /// End the run now (or at startup, if it has not begun).
    pub fn fire(&self) {
        let mut st = self.state.lock().unwrap();
        st.fired = true;
        if let Some(run) = &st.run {
            run.shutdown();
        }
    }

    /// Crash `machine`'s worker on its next drain batch (or at startup,
    /// if the run has not begun).
    pub fn kill(&self, machine: usize) {
        let mut st = self.state.lock().unwrap();
        match &st.run {
            Some(run) => run.request_kill(machine),
            None => st.kills.push(machine),
        }
    }
}

/// State shared by all worker threads during a run.
struct Shared<M: SimMessage + Send + 'static> {
    mailboxes: Vec<Arc<Mailbox<M>>>,
    task_machine: Vec<MachineId>,
    /// Work items enqueued (messages + pending timers) minus work items
    /// fully processed. An item stays counted until *after* its effects
    /// are enqueued, so the count can only reach zero at true
    /// quiescence (Dijkstra-style termination detection).
    outstanding: AtomicI64,
    done: AtomicBool,
    end_us: AtomicU64,
    start: Instant,
    /// Task maps of deferred machines, parked until an
    /// [`Effect::Provision`] spawns their worker thread mid-run
    /// (trigger-time provisioning).
    parked: Mutex<HashMap<usize, TaskMap<M>>>,
    /// Join handles of workers spawned mid-run.
    dynamic: Mutex<Vec<WorkerHandle<M>>>,
    /// Shard construction inputs for mid-run spawns.
    gauges: Arc<SharedGauges>,
    sample_spacing: u64,
    machines: usize,
    drain_batch: usize,
    /// Machines currently holding a worker thread.
    provisioned: AtomicUsize,
    peak_provisioned: AtomicUsize,
    /// Retirement flush barrier: `flush_pending[m]` counts the live
    /// peers that have not yet consumed their `Work::Flush { m }` token.
    /// The worker consuming the last token completes machine `m`'s
    /// mailbox drain, releasing its thread — see `Effect::Retire`.
    flush_pending: Vec<AtomicUsize>,
    /// Per-machine provisioning state, mirroring the simulator's checks:
    /// 0 = deferred (never provisioned — delivering work to it panics,
    /// instead of silently wedging the termination counter), 1 = active,
    /// 2 = retired (the worker drains its backlog behind the flush
    /// barrier, then exits for real).
    machine_state: Vec<AtomicU8>,
    /// Per-machine crash requests (see [`KillSwitch::kill`]).
    kill_requested: Vec<AtomicBool>,
    /// Where a crashed worker records its death.
    deaths: FaultLog,
}

const MACHINE_DEFERRED: u8 = 0;
const MACHINE_ACTIVE: u8 = 1;
const MACHINE_RETIRED: u8 = 2;

impl<M: SimMessage + Send + 'static> Shared<M> {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn fresh_shard(&self) -> Metrics {
        let mut shard = Metrics::default();
        for _ in 0..self.machines {
            shard.add_machine();
        }
        shard.sample_spacing = self.sample_spacing;
        shard.install_shared(Arc::clone(&self.gauges));
        shard
    }

    /// Spawn the worker thread for `mid` over `tasks`.
    fn spawn_worker(self: &Arc<Self>, mid: MachineId, tasks: TaskMap<M>) -> WorkerHandle<M> {
        let shared = Arc::clone(self);
        let shard = self.fresh_shard();
        let drain_batch = self.drain_batch;
        thread::Builder::new()
            .name(format!("aoj-worker-{}", mid.index()))
            .spawn(move || worker(mid, shared, tasks, shard, drain_batch))
            .expect("failed to spawn worker thread")
    }

    fn note_provisioned(&self) {
        let now = self.provisioned.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_provisioned.fetch_max(now, Ordering::SeqCst);
    }

    /// Flip to done exactly once, stamping the end time, and wake
    /// every blocked thread.
    fn shutdown(&self) {
        if !self.done.swap(true, Ordering::SeqCst) {
            self.end_us.store(self.now_us(), Ordering::SeqCst);
        }
        for mb in &self.mailboxes {
            mb.wake_all();
        }
    }

    /// Ask `machine`'s worker to crash, waking it if it idles. The flag
    /// publishes no other data, so `Relaxed` suffices; an idle victim
    /// re-reads it after taking the mailbox lock the interrupt released.
    fn request_kill(&self, machine: usize) {
        self.kill_requested[machine].store(true, Ordering::Relaxed);
        self.mailboxes[machine].interrupt();
    }

    /// Retire one processed work item; the last one ends the run.
    fn finish_item(&self) {
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shutdown();
        }
    }
}

/// Ensures a worker that panics inside a task handler still releases
/// every other thread (otherwise `run()` would deadlock in `join`).
struct PanicGuard<'a, M: SimMessage + Send + 'static>(&'a Shared<M>);

impl<M: SimMessage + Send + 'static> Drop for PanicGuard<'_, M> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.shutdown();
        }
    }
}

/// The multi-threaded execution backend.
///
/// Hosts the same [`Process`] task graph the simulator runs, on one OS
/// thread per machine. Guarantees the [`ExecBackend`] contract: FIFO
/// delivery per (sender, receiver, class) — producers enqueue under the
/// destination's lock in program order — and weighted class service in
/// each worker's dequeue loop. Time is wall-clock microseconds since
/// [`run`](ExecBackend::run) started, so reported throughput and
/// latency are real measurements.
pub struct Runtime<M: SimMessage + Send + 'static> {
    cfg: RuntimeConfig,
    machines: usize,
    /// Machines registered deferred: no worker thread until a mid-run
    /// provision effect names them.
    deferred: Vec<bool>,
    tasks: Vec<Option<Box<dyn Process<M> + Send>>>,
    task_machine: Vec<MachineId>,
    pending_timers: Vec<(SimTime, TaskId, u64)>,
    metrics: Metrics,
    provisioned: usize,
    peak_provisioned: usize,
    /// Gauge overlay created ahead of `run` (live sessions read it from
    /// the caller thread while workers execute).
    pre_gauges: Option<Arc<SharedGauges>>,
    /// Deaths of workers crashed through the kill switch.
    deaths: FaultLog,
    /// External kill lever, installed into the next `run`.
    kill_sw: Option<Arc<KillSwitch<M>>>,
}

impl<M: SimMessage + Send + 'static> Runtime<M> {
    /// An empty runtime; add machines and tasks, then `run`.
    pub fn new(cfg: RuntimeConfig) -> Runtime<M> {
        Runtime {
            cfg,
            machines: 0,
            deferred: Vec::new(),
            tasks: Vec::new(),
            task_machine: Vec::new(),
            pending_timers: Vec::new(),
            metrics: Metrics::default(),
            provisioned: 0,
            peak_provisioned: 0,
            pre_gauges: None,
            deaths: FaultLog::new(),
            kill_sw: None,
        }
    }

    /// The log a worker crashed through [`KillSwitch::kill`] records
    /// its death into.
    pub fn death_log(&self) -> FaultLog {
        self.deaths.clone()
    }

    /// The switch that can crash a worker of, or terminate, a run from
    /// another thread; created on first call, installed by `run`.
    pub fn kill_switch(&mut self) -> Arc<KillSwitch<M>> {
        if let Some(ks) = &self.kill_sw {
            return Arc::clone(ks);
        }
        let ks = Arc::new(KillSwitch {
            state: Mutex::new(SwitchState {
                fired: false,
                kills: Vec::new(),
                run: None,
            }),
        });
        self.kill_sw = Some(Arc::clone(&ks));
        ks
    }

    /// Worker threads the run starts with (one per eagerly provisioned
    /// machine; deferred machines get theirs at trigger time).
    pub fn worker_threads(&self) -> usize {
        self.deferred.iter().filter(|&&d| !d).count()
    }

    /// The cluster-wide gauge overlay ([`SharedGauges`]), created on
    /// first call and reused by [`run`](ExecBackend::run).
    ///
    /// Live sessions call this **after the topology is built** and keep
    /// the `Arc` on the caller side: the per-machine stored-byte gauges
    /// and the cluster-wide processed counter are then readable from any
    /// thread while the run executes — the same view the elastic
    /// controller triggers on. The overlay is sized to the machine count
    /// at the time of the call; adding machines afterwards panics in
    /// `run`.
    pub fn shared_gauges(&mut self) -> Arc<SharedGauges> {
        if let Some(g) = &self.pre_gauges {
            return Arc::clone(g);
        }
        let g = SharedGauges::new(self.machines);
        self.metrics.install_shared(Arc::clone(&g));
        self.pre_gauges = Some(Arc::clone(&g));
        g
    }
}

/// A worker thread returns its tasks and its metrics shard.
type WorkerHandle<M> = JoinHandle<(TaskMap<M>, Metrics)>;

fn worker<M: SimMessage + Send + 'static>(
    mid: MachineId,
    shared: Arc<Shared<M>>,
    mut tasks: TaskMap<M>,
    mut shard: Metrics,
    drain_batch: usize,
) -> (TaskMap<M>, Metrics) {
    let guard = PanicGuard(&shared);
    let mailbox = Arc::clone(&shared.mailboxes[mid.index()]);
    install_wakers(&mailbox, &mut tasks);
    let mut batch = Vec::with_capacity(drain_batch);
    'run: loop {
        if shared.kill_requested[mid.index()].load(Ordering::Relaxed) {
            // Crash, not shutdown: no finish_item, no task deposit. The
            // run wedges exactly as if the thread were lost to a real
            // crash, until the recovery layer reads the log entry and
            // fires the kill switch.
            shared.deaths.record(WorkerDeath {
                machine: mid.index(),
                gen: 0,
                at_us: shared.now_us(),
                cause: DeathCause::Injected,
                detect_latency_us: 0,
            });
            drop(guard);
            return (TaskMap::new(), shard);
        }
        // One lock acquisition drains up to `drain_batch` messages, in
        // exactly the order repeated single pops would have produced.
        if !mailbox.pop_batch(drain_batch, &mut batch, || shared.now_us(), &shared.done) {
            if shared.done.load(Ordering::SeqCst) {
                break;
            }
            // This machine retired and its quiesce barrier completed:
            // every live peer consumed its flush token (so none can
            // send here again) and the backlog — stragglers included —
            // has been fully serviced. Hard teardown: free the mailbox
            // storage, park the tasks where a later re-provision finds
            // them, and let the thread exit mid-run.
            mailbox.release_storage();
            let tasks = std::mem::take(&mut tasks);
            shared.parked.lock().unwrap().insert(mid.index(), tasks);
            drop(guard);
            return (TaskMap::new(), shard);
        }
        for work in batch.drain(..) {
            // Flush tokens are runtime-internal: consuming one marks
            // this worker past the point where it could still send to
            // the retiring machine; the last consumer completes that
            // machine's drain.
            let work = match work {
                Work::Flush { machine, .. } => {
                    if shared.flush_pending[machine].fetch_sub(1, Ordering::SeqCst) == 1 {
                        shared.mailboxes[machine].complete_drain();
                    }
                    shared.finish_item();
                    continue;
                }
                other => other,
            };
            let now = SimTime(shared.now_us());
            let (self_task, effects, stopped) = dispatch(work, &mut tasks, &mut shard, mid, now);

            for effect in effects {
                match effect {
                    Effect::Send { to, msg } => {
                        let dst_machine = shared.task_machine[to.index()];
                        // Mirror the simulator's protocol check: a message
                        // to a never-provisioned machine would sit in a
                        // mailbox no worker drains and wedge termination —
                        // fail loudly instead.
                        assert_ne!(
                            shared.machine_state[dst_machine.index()].load(Ordering::Relaxed),
                            MACHINE_DEFERRED,
                            "work delivered to machine {} before it was provisioned \
                             (trigger-time provisioning protocol error)",
                            dst_machine.index()
                        );
                        let class = msg.class();
                        let units = msg.tuples();
                        shared.outstanding.fetch_add(1, Ordering::SeqCst);
                        let loopback = dst_machine == mid;
                        if !loopback {
                            // Mirror the simulator: loopback sends pay no
                            // network accounting.
                            shard.on_send(mid, msg.bytes());
                        }
                        // Pay the backpressure wait only when this worker
                        // has nothing of its own to service: a worker
                        // with a backlog must keep consuming (it may be
                        // the very machine its peers are blocked on).
                        // The local check comes before the destination
                        // lock — taking both would invert order against
                        // a peer pushing the opposite way.
                        let bounded = !loopback && !mailbox.has_queued_work();
                        shared.mailboxes[dst_machine.index()].push_msg(
                            class,
                            Work::Msg {
                                from: self_task,
                                to,
                                msg,
                            },
                            units,
                            bounded,
                            &shared.done,
                        );
                    }
                    Effect::Timer {
                        delay,
                        key,
                        or_idle,
                    } => {
                        shared.outstanding.fetch_add(1, Ordering::SeqCst);
                        let at = shared.now_us() + delay.as_micros();
                        mailbox.push_timer(at, self_task, key, or_idle);
                    }
                    // A parked timer is outstanding work like any other:
                    // an open session's parked source keeps the run alive.
                    Effect::Park { key } => {
                        shared.outstanding.fetch_add(1, Ordering::SeqCst);
                        mailbox.park(self_task, key);
                    }
                    Effect::Provision { machine } => {
                        // Trigger-time provisioning: activating a machine
                        // spawns (or, after a retirement, re-spawns) its
                        // worker thread over the parked task map.
                        let prev = shared.machine_state[machine.index()]
                            .swap(MACHINE_ACTIVE, Ordering::SeqCst);
                        assert_ne!(
                            prev,
                            MACHINE_ACTIVE,
                            "machine {} provisioned twice",
                            machine.index()
                        );
                        if prev == MACHINE_RETIRED {
                            // The retired worker deposits its tasks as its
                            // very last act before exiting; the controller
                            // can re-provision while that thread is still
                            // winding down. No peer can send to the machine
                            // until this effect completes (announcements
                            // follow provisioning through this same
                            // worker), so waiting here is safe — and
                            // bounded, because the old worker's barrier
                            // has long completed.
                            let deadline = Instant::now() + std::time::Duration::from_secs(30);
                            while !shared.parked.lock().unwrap().contains_key(&machine.index()) {
                                assert!(
                                    Instant::now() < deadline,
                                    "re-provisioned machine {} never deposited its tasks",
                                    machine.index()
                                );
                                thread::yield_now();
                            }
                            shared.mailboxes[machine.index()].reset_for_reuse();
                        }
                        let parked = shared.parked.lock().unwrap().remove(&machine.index());
                        shared.note_provisioned();
                        if let Some(tasks) = parked {
                            let handle = shared.spawn_worker(machine, tasks);
                            shared.dynamic.lock().unwrap().push(handle);
                        }
                    }
                    Effect::Retire { machine } => {
                        // Hard release behind a quiesce barrier: flip the
                        // state (no *new* sends may target the machine —
                        // the elastic protocol already guarantees every
                        // peer processed its mapping change before the
                        // controller emits this effect), then post one
                        // flush token into each live peer's control
                        // queue. A peer consuming its token has, by
                        // per-mailbox FIFO, already processed the change
                        // that stops it sending here — and anything it
                        // sent earlier was enqueued synchronously, so it
                        // is already in the retiring mailbox. The last
                        // token therefore completes the drain: the
                        // retiring worker services what is left, frees
                        // its mailbox storage and exits (see `worker`).
                        let prev = shared.machine_state[machine.index()]
                            .swap(MACHINE_RETIRED, Ordering::SeqCst);
                        assert_eq!(
                            prev,
                            MACHINE_ACTIVE,
                            "machine {} retired while not active",
                            machine.index()
                        );
                        shared.provisioned.fetch_sub(1, Ordering::SeqCst);
                        // This worker vouches for itself without a token:
                        // emitting Retire means its own machine's mapping
                        // change was already processed (the controller
                        // retires only at contraction quiescence), and
                        // self-tokening could deadlock a later
                        // re-provision wait on this same thread.
                        let live: Vec<usize> = (0..shared.machines)
                            .filter(|&i| {
                                i != mid.index()
                                    && shared.machine_state[i].load(Ordering::SeqCst)
                                        == MACHINE_ACTIVE
                            })
                            .collect();
                        if live.is_empty() {
                            shared.mailboxes[machine.index()].complete_drain();
                        } else {
                            shared.flush_pending[machine.index()]
                                .store(live.len(), Ordering::SeqCst);
                            for peer in live {
                                shared.outstanding.fetch_add(1, Ordering::SeqCst);
                                shared.mailboxes[peer].push_msg(
                                    aoj_simnet::MsgClass::Control,
                                    Work::Flush {
                                        machine: machine.index(),
                                        gen: 0,
                                    },
                                    1,
                                    false,
                                    &shared.done,
                                );
                            }
                        }
                    }
                }
            }
            shared.finish_item();
            if stopped {
                // Mirror the simulator's stop semantics: abandon whatever
                // is still queued (including the rest of this batch).
                shared.shutdown();
                break 'run;
            }
        }
    }
    drop(guard);
    (tasks, shard)
}

impl<M: SimMessage + Send + 'static> ExecBackend<M> for Runtime<M> {
    fn backend_name(&self) -> &'static str {
        "threaded"
    }

    fn add_machine(&mut self) -> MachineId {
        let id = MachineId(self.machines);
        self.machines += 1;
        self.deferred.push(false);
        self.metrics.add_machine();
        id
    }

    fn add_machine_with_network(&mut self, _network: NetworkConfig) -> MachineId {
        // Real threads share memory; there is no per-machine NIC to model.
        ExecBackend::<M>::add_machine(self)
    }

    fn add_deferred_machine(&mut self) -> MachineId {
        let id = MachineId(self.machines);
        self.machines += 1;
        self.deferred.push(true);
        self.metrics.add_machine();
        id
    }

    fn provisioned_machines(&self) -> usize {
        self.provisioned
    }

    fn peak_provisioned_machines(&self) -> usize {
        self.peak_provisioned
    }

    fn add_task(&mut self, machine: MachineId, task: Box<dyn Process<M> + Send>) -> TaskId {
        assert!(machine.index() < self.machines, "unknown machine");
        let id = TaskId(self.tasks.len());
        self.tasks.push(Some(task));
        self.task_machine.push(machine);
        id
    }

    fn start_timer_at(&mut self, at: SimTime, task: TaskId, key: u64) {
        assert!(task.index() < self.tasks.len(), "unknown task");
        self.pending_timers.push((at, task, key));
    }

    fn has_global_metrics_view(&self) -> bool {
        // Workers write private shards, but every shard carries the
        // shared atomic gauge overlay (`SharedGauges`), so mid-run
        // storage/progress readings are cluster-wide consistent — the
        // progress/ILF timelines and the elastic controller's trigger
        // work on real threads exactly as they do on the simulator.
        true
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn run(&mut self) -> SimTime {
        let gauges = match self.pre_gauges.take() {
            Some(g) => {
                assert_eq!(
                    g.machine_count(),
                    self.machines,
                    "shared_gauges() was called before the topology was complete"
                );
                g
            }
            None => {
                let g = SharedGauges::new(self.machines);
                self.metrics.install_shared(Arc::clone(&g));
                g
            }
        };
        let mailboxes: Vec<Arc<Mailbox<M>>> = (0..self.machines)
            .map(|_| {
                Arc::new(Mailbox::new(
                    self.cfg.data_queue_capacity,
                    self.cfg.migration_weight,
                ))
            })
            .collect();
        let eager = self.worker_threads();
        let shared = Arc::new(Shared {
            mailboxes,
            task_machine: self.task_machine.clone(),
            outstanding: AtomicI64::new(0),
            done: AtomicBool::new(false),
            end_us: AtomicU64::new(0),
            start: Instant::now(),
            parked: Mutex::new(HashMap::new()),
            dynamic: Mutex::new(Vec::new()),
            gauges: Arc::clone(&gauges),
            sample_spacing: self.metrics.sample_spacing,
            machines: self.machines,
            drain_batch: self.cfg.drain_batch.max(1),
            provisioned: AtomicUsize::new(eager),
            peak_provisioned: AtomicUsize::new(eager),
            flush_pending: (0..self.machines).map(|_| AtomicUsize::new(0)).collect(),
            machine_state: self
                .deferred
                .iter()
                .map(|&d| AtomicU8::new(if d { MACHINE_DEFERRED } else { MACHINE_ACTIVE }))
                .collect(),
            kill_requested: (0..self.machines).map(|_| AtomicBool::new(false)).collect(),
            deaths: self.deaths.clone(),
        });

        if let Some(ks) = &self.kill_sw {
            let mut st = ks.state.lock().unwrap();
            st.run = Some(Arc::clone(&shared));
            // Requested before the run began: honour them at startup.
            if st.fired {
                shared.shutdown();
            }
            for m in st.kills.drain(..) {
                shared.request_kill(m);
            }
        }

        // Partition tasks onto their machines.
        let mut per_machine: Vec<TaskMap<M>> = (0..self.machines).map(|_| HashMap::new()).collect();
        for (idx, slot) in self.tasks.iter_mut().enumerate() {
            if let Some(task) = slot.take() {
                per_machine[self.task_machine[idx].index()].insert(idx, task);
            }
        }

        // Bootstrap timers are the run's initial work.
        for (at, task, key) in self.pending_timers.drain(..) {
            shared.outstanding.fetch_add(1, Ordering::SeqCst);
            let m = shared.task_machine[task.index()];
            assert!(
                !self.deferred[m.index()],
                "bootstrap timer on a deferred machine"
            );
            shared.mailboxes[m.index()].push_timer(at.as_micros(), task, key, false);
        }
        if shared.outstanding.load(Ordering::SeqCst) == 0 {
            // Nothing to do: quiesce immediately.
            shared.shutdown();
        }

        // Trigger-time provisioning: deferred machines park their task
        // maps; a mid-run provision effect spawns their worker threads.
        // Park them all *before* the first eager worker starts: a
        // bootstrap handler may provision a deferred machine in its very
        // first effects, and the provision must find the tasks parked.
        let mut eager_machines = Vec::with_capacity(self.machines);
        for (i, tasks) in per_machine.into_iter().enumerate() {
            if self.deferred[i] {
                shared.parked.lock().unwrap().insert(i, tasks);
            } else {
                eager_machines.push((i, tasks));
            }
        }
        let handles: Vec<_> = eager_machines
            .into_iter()
            .map(|(i, tasks)| shared.spawn_worker(MachineId(i), tasks))
            .collect();

        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        let mut collect = |result: thread::Result<(TaskMap<M>, Metrics)>,
                           tasks_out: &mut Vec<Option<Box<dyn Process<M> + Send>>>,
                           metrics: &mut Metrics| match result {
            Ok((tasks, shard)) => {
                for (idx, task) in tasks {
                    tasks_out[idx] = Some(task);
                }
                metrics.absorb(&shard);
            }
            Err(p) => panic_payload = Some(p),
        };
        for handle in handles {
            collect(handle.join(), &mut self.tasks, &mut self.metrics);
        }
        // Workers spawned at trigger time finish like the initial ones
        // (shutdown wakes every mailbox); no new spawns can occur once
        // the run is done, so this drain terminates.
        loop {
            let handle = shared.dynamic.lock().unwrap().pop();
            match handle {
                Some(h) => collect(h.join(), &mut self.tasks, &mut self.metrics),
                None => break,
            }
        }
        if let Some(ks) = &self.kill_sw {
            // Disarm: the switch holds the run's Shared alive.
            ks.state.lock().unwrap().run = None;
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
        // Machines whose trigger never fired: hand their tasks back so
        // post-run inspection sees them (dormant, zero state).
        for (idx, tasks) in shared.parked.lock().unwrap().drain() {
            let _ = idx;
            for (tid, task) in tasks {
                self.tasks[tid] = Some(task);
            }
        }
        self.provisioned = shared.provisioned.load(Ordering::SeqCst);
        self.peak_provisioned = shared.peak_provisioned.load(Ordering::SeqCst);
        SimTime(shared.end_us.load(Ordering::SeqCst))
    }

    fn task_any(&self, id: TaskId) -> &dyn Any {
        self.tasks[id.index()]
            .as_ref()
            .expect("task unavailable (run in progress or never returned)")
            .as_any()
    }
}
