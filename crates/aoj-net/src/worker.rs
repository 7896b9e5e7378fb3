//! The worker process: one machine of a TCP session.
//!
//! A worker is the same binary as the coordinator, re-executed with the
//! `AOJ_NET_*` environment set (see [`crate::init_worker`]). Its life:
//!
//! 1. dial the coordinator's control port, send `Hello`, receive the
//!    [`wire::Plan`];
//! 2. rebuild the session topology from the plan's serialized builder
//!    through `aoj_operators::assemble_topology` — identical task ids
//!    fall out in every process — and keep only its own machine's tasks
//!    (a reincarnated worker re-parks them dormant: its predecessor's
//!    state left with the contraction that retired it);
//! 3. bind a data listener, report `Ready`, and run the machine loop,
//!    which ships the matches each batch produced to the coordinator as
//!    the batch ends and consumes retirement tokens (see [`crate::node`]);
//! 4. service the control connection: answer quiescence probes, stream
//!    gauge samples to the coordinator, apply gauge relays (machine 0
//!    hosts the controller, which reads cluster-wide storage), and, when
//!    told to retire, wait for the end-of-stream markers its peers'
//!    token-driven closes sent, then drain;
//! 5. ship finals (the tasks' harvested `Finals` — with the joiner's
//!    stored state when the shutdown frame says the session is
//!    checkpointing — and the metrics shard) and exit — `0` for a clean
//!    retirement or shutdown, so the coordinator's `waitpid`
//!    distinguishes clean teardown from a crash.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aoj_core::lifecycle::Checkpoint;
use aoj_operators::joiner_task::JoinerTask;
use aoj_operators::report::harvest;
use aoj_operators::reshuffler::ReshufflerTask;
use aoj_operators::{assemble_topology, IngestQueue, MatchHub, SessionBuilder};
use aoj_runtime::mailbox::Mailbox;
use aoj_simnet::{Gauge, MachineId, SharedGauges, TaskId};

use crate::node::{
    dial_with_retry, run_machine_loop, spawn_acceptor, Clock, ControlOut, Counters, Directory,
    EosGate, Lifecycle, NodeShared, TopoRecorder, Writers,
};
use crate::wire::{
    self, read_frame, Exiting, FinalsBundle, GaugeSample, Hello, MachineUp, MatchTap, Plan,
    ProbeAck, Ready, Wire, K_DRAIN_DONE, K_EXITING, K_FINALS, K_GAUGES, K_GAUGE_RELAY, K_HELLO,
    K_MACHINE_UP, K_MATCH_BATCH, K_MATCH_TAP, K_PLAN, K_PROBE, K_PROBE_ACK, K_PROVISION_REQ,
    K_READY, K_RETIRE_NOW, K_RETIRE_REQ, K_SHUTDOWN, WIRE_VERSION,
};

/// Environment: flag marking a process as a worker.
pub const ENV_WORKER: &str = "AOJ_NET_WORKER";
/// Environment: the coordinator's control address (`127.0.0.1:port`).
pub const ENV_COORD: &str = "AOJ_NET_COORD";
/// Environment: the machine index this worker hosts.
pub const ENV_MACHINE: &str = "AOJ_NET_MACHINE";
/// Environment: the machine's incarnation number.
pub const ENV_GEN: &str = "AOJ_NET_GEN";

/// How often the control loop ships gauge samples. Kept tight so short
/// runs still deliver enough ILF samples for the controller to trigger
/// mid-stream migrations/expansions; the ship-on-change dedup keeps the
/// idle cost of the fast cadence at zero. (Matches do not wait for it:
/// they leave at the end of the batch that produced them.)
const STATS_PERIOD: Duration = Duration::from_millis(5);

/// Longest an idle worker stays silent before resending its (unchanged)
/// gauge sample as a liveness heartbeat. The coordinator's failure
/// detector declares a worker dead after `DetectorConfig::timeout_us`
/// without a frame; this cadence keeps a healthy-but-idle worker an
/// order of magnitude inside that deadline.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(100);

fn env_num<T: std::str::FromStr>(key: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    std::env::var(key)
        .unwrap_or_else(|_| panic!("worker environment is missing {key}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad {key}: {e:?}"))
}

/// Why the control loop stopped servicing frames.
enum Exit {
    /// Retirement drain complete — this process's machine left the
    /// session mid-run.
    Retired,
    /// Session shutdown — the coordinator saw cluster quiescence. With
    /// `snapshot` the session is checkpointing: the finals carry this
    /// machine's operator state home.
    Shutdown { snapshot: bool },
}

/// Run one worker to completion. Never returns: exits the process.
pub fn worker_main() -> ! {
    let coord: String =
        std::env::var(ENV_COORD).expect("worker environment is missing AOJ_NET_COORD");
    let machine: usize = env_num(ENV_MACHINE);
    let gen: u32 = env_num(ENV_GEN);

    // The coordinator's listener is certainly up (it spawned us), but a
    // loaded host can still refuse transiently; same bounded-retry dial
    // as the data plane, failing with a typed timeout.
    let coord_port: u16 = coord
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("worker {machine}: malformed AOJ_NET_COORD {coord}"));
    let control = dial_with_retry(coord_port, (machine as u64) << 16 | gen as u64)
        .unwrap_or_else(|e| panic!("worker {machine}: dial coordinator: {e}"));
    control.set_nodelay(true).ok();
    let mut control_read = control.try_clone().expect("clone control stream");
    let ctrl = Arc::new(ControlOut::new(control));

    ctrl.send(
        K_HELLO,
        &Hello {
            version: WIRE_VERSION,
            machine: machine as u64,
            gen,
        },
    );
    let plan = match read_frame(&mut control_read) {
        Ok((K_PLAN, p)) => Plan::from_bytes(&p).expect("decode plan"),
        Ok((k, _)) => panic!("worker {machine}: expected plan, got frame kind {k}"),
        Err(e) => panic!("worker {machine}: read plan: {e}"),
    };
    assert_eq!(
        plan.version, WIRE_VERSION,
        "worker {machine}: wire version mismatch"
    );
    let clock = Clock::new(plan.clock_anchor_us);
    let builder = SessionBuilder::from_bytes(&plan.builder).expect("decode session plan");
    // Round-trip the decoded builder and fingerprint the re-encoding:
    // proves the plan decoded losslessly, not just parseably.
    let fp = wire::fingerprint(&builder.to_bytes());
    assert_eq!(
        fp, plan.fingerprint,
        "worker {machine}: plan fingerprint mismatch after round-trip"
    );

    // Rebuild the topology. The ingest queue and match hub are local
    // stand-ins: the real source runs in the coordinator, and matches
    // are collected here and shipped over the control connection.
    // Ship every emitted match (at the end of the batch that made it)
    // until the coordinator's first K_MATCH_TAP says whether anyone
    // subscribed: a restored joiner matches from its first batch, and a
    // pair emitted before the tap lands must not be lost to a subscriber
    // that was attached all along. With the tap off, matches are only
    // counted and the finals carry their digest.
    let hub = MatchHub::collector();
    let mut rec = TopoRecorder::default();
    // A plan that carries a checkpoint rebuilds restored state instead
    // of a fresh topology. Every process decodes the same snapshot, so
    // the restored elastic layout — which decides task registration
    // order — agrees cluster-wide.
    let restore = (!plan.restore.is_empty()).then(|| {
        Checkpoint::from_bytes(&plan.restore)
            .unwrap_or_else(|e| panic!("worker {machine}: decode restore checkpoint: {e}"))
    });
    let topo = assemble_topology(
        &mut rec,
        &builder,
        IngestQueue::detached(),
        Arc::clone(&hub),
        restore.as_ref(),
    );
    // The board this worker's reshufflers publish their sketches into;
    // its merged parts ride every gauge frame to the coordinator.
    let skew_board = topo.skew_board();
    let machine_count = rec.deferred.len();
    assert_eq!(
        machine_count as u64, plan.machines,
        "worker {machine}: rebuilt machine count disagrees with the plan"
    );
    let slots = machine_count - 1; // joiner slots; the last machine is the source
    let task_machine = Arc::new(rec.task_machine());
    let mut tasks = rec.take_machine_tasks(machine);
    if gen > 0 {
        // A reincarnated machine starts dormant: its predecessor's state
        // migrated away with the contraction that retired it, and the
        // expansion protocol re-activates the fresh tasks explicitly.
        for task in tasks.values_mut() {
            if let Some(j) = task.as_any_mut().downcast_mut::<JoinerTask>() {
                j.make_dormant(builder.predicate.clone(), slots);
            } else if let Some(r) = task.as_any_mut().downcast_mut::<ReshufflerTask>() {
                r.deactivated = true;
            }
        }
    }

    // Metrics shard with the session's gauge overlay: handler-side gauge
    // writes land here and are shipped to the coordinator periodically;
    // on machine 0 the overlay also receives the coordinator's relays,
    // giving the elastic controller its cluster-wide storage view.
    let gauges = SharedGauges::new(machine_count);
    let mut shard = std::mem::take(&mut rec.metrics);
    shard.install_shared(Arc::clone(&gauges));

    let rt_cfg = builder.runtime_config();
    let mailbox = Arc::new(Mailbox::new(
        rt_cfg.data_queue_capacity,
        rt_cfg.migration_weight,
    ));
    let done = Arc::new(AtomicBool::new(false));
    let directory = Directory::new();
    let writers = Writers::new(Arc::clone(&directory), machine, gen);
    let eos = EosGate::new();
    let counters = Arc::new(Counters::default());

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind data listener");
    let data_port = listener.local_addr().unwrap().port();
    spawn_acceptor(
        listener,
        Arc::clone(&mailbox),
        Arc::clone(&done),
        Arc::clone(&eos),
    );

    // Bootstrap timers for tasks we host (normally none: the only
    // bootstrap timer is the source tick, which lives with the
    // coordinator).
    for &(at_us, task, key) in &rec.timers {
        if task_machine[task.index()] == machine {
            counters.created.fetch_add(1, Ordering::AcqRel);
            mailbox.push_timer(at_us, task, key, false);
        }
    }

    let shared = NodeShared {
        machine,
        mailbox: Arc::clone(&mailbox),
        done: Arc::clone(&done),
        clock,
        counters: Arc::clone(&counters),
        writers: Arc::clone(&writers),
        task_machine,
        directory: Arc::clone(&directory),
    };
    let loop_handle = {
        let ctrl = Arc::clone(&ctrl);
        let hub = Arc::clone(&hub);
        let drain_batch = rt_cfg.drain_batch;
        std::thread::Builder::new()
            .name(format!("aoj-net-m{machine}"))
            .spawn(move || {
                let lifecycle = |ev: Lifecycle| match ev {
                    Lifecycle::Provision(m) => ctrl.send(K_PROVISION_REQ, &(m as u64)),
                    Lifecycle::Retire(req) => ctrl.send(K_RETIRE_REQ, &req),
                    Lifecycle::Drained(done) => ctrl.send(K_DRAIN_DONE, &done),
                    // No operator task stops the run from a handler; the
                    // coordinator owns session shutdown.
                    Lifecycle::Stopped => {}
                };
                // Matches leave with the batch that made them; with no
                // subscriber this costs one relaxed load per batch.
                let batch_end = || {
                    if hub.attached() {
                        let matches = hub.drain_buffered();
                        if !matches.is_empty() {
                            ctrl.send(K_MATCH_BATCH, &matches);
                        }
                    }
                };
                run_machine_loop(
                    &shared,
                    tasks,
                    shard,
                    drain_batch,
                    &lifecycle,
                    Some(&batch_end),
                )
            })
            .expect("spawn machine loop")
    };

    ctrl.send(
        K_READY,
        &Ready {
            machine: machine as u64,
            gen,
            fingerprint: fp,
            data_port,
        },
    );

    // Control frames arrive through a dedicated blocking reader: the
    // control loop multiplexes them with its periodic stats work via
    // `recv_timeout`, keeping the framed stream free of read timeouts
    // (a timed-out `read_exact` could consume a partial frame).
    let (tx, rx) = mpsc::channel::<(u8, Vec<u8>)>();
    std::thread::Builder::new()
        .name("aoj-net-control-rx".into())
        .spawn(move || loop {
            match read_frame(&mut control_read) {
                Ok(frame) => {
                    if tx.send(frame).is_err() {
                        return;
                    }
                }
                Err(_) => return, // coordinator gone; channel closes
            }
        })
        .expect("spawn control reader");

    // The stats loop skips gauge frames whose values haven't moved since
    // the last ship: an idle worker costs the control plane nothing but
    // the timer tick.
    let mut last_gauges: Option<GaugeSample> = None;
    let mut last_beat = Instant::now();
    let mut ship_stats = |fin: bool| {
        let m = MachineId(machine);
        let sample = GaugeSample {
            machine: machine as u64,
            gauges: Gauge::ALL.map(|g| gauges.get(m, g)),
            data_processed: gauges.data_processed(),
            skew_parts: skew_board
                .as_ref()
                .map(|b| b.merged_parts())
                .unwrap_or_default(),
        };
        // An unchanged sample is normally skipped, but never for longer
        // than the heartbeat period: the coordinator's failure detector
        // reads any frame as proof of life, and an idle worker that goes
        // fully silent is indistinguishable from a dead one.
        if fin || last_gauges.as_ref() != Some(&sample) || last_beat.elapsed() >= HEARTBEAT_PERIOD {
            ctrl.send(K_GAUGES, &sample);
            last_gauges = Some(sample);
            last_beat = Instant::now();
        }
        if fin {
            ctrl.send(K_MATCH_BATCH, &hub.drain_buffered());
        }
    };

    // Stats shipping is clocked by wall time, not by channel lulls: the
    // coordinator's probe cadence keeps frames arriving faster than
    // `STATS_PERIOD`, so a timeout-driven sender would starve.
    let mut last_stats = Instant::now();
    let exit = loop {
        if last_stats.elapsed() >= STATS_PERIOD {
            last_stats = Instant::now();
            ship_stats(false);
        }
        match rx.recv_timeout(STATS_PERIOD) {
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // The coordinator died under us. Nothing to report to.
                std::process::exit(1);
            }
            Ok((K_PROBE, p)) => {
                let nonce = u64::from_bytes(&p).expect("probe nonce");
                let (created, finished) = counters.snapshot();
                ctrl.send(
                    K_PROBE_ACK,
                    &ProbeAck {
                        nonce,
                        created,
                        finished,
                    },
                );
            }
            Ok((K_MACHINE_UP, p)) => {
                let up = MachineUp::from_bytes(&p).expect("machine-up frame");
                directory.set_live(up.machine as usize, up.gen, up.port);
            }
            Ok((K_MATCH_TAP, p)) => {
                let tap = MatchTap::from_bytes(&p).expect("match tap frame");
                // Filters first, then the stream toggle: a pair emitted
                // between the two sees either the old complete spec or
                // the new one, never "on with stale filters".
                hub.set_ship_filters(tap.filters);
                hub.set_streaming(tap.on);
            }
            Ok((K_GAUGE_RELAY, p)) => {
                let g = GaugeSample::from_bytes(&p).expect("gauge relay");
                let m = MachineId(g.machine as usize);
                for (gauge, value) in Gauge::ALL.into_iter().zip(g.gauges) {
                    gauges.set(m, gauge, value);
                }
            }
            Ok((K_RETIRE_NOW, p)) => {
                // Every peer has closed its channels toward us; once
                // their end-of-stream markers are all in, nothing is in
                // flight and the backlog is complete. Drain it and go.
                let expect = u64::from_bytes(&p).expect("retire-now count");
                eos.wait_for(expect);
                mailbox.complete_drain();
                break Exit::Retired;
            }
            Ok((K_SHUTDOWN, p)) => {
                let snapshot = bool::from_bytes(&p).expect("shutdown frame");
                done.store(true, Ordering::SeqCst);
                mailbox.wake_all();
                break Exit::Shutdown { snapshot };
            }
            Ok((k, _)) => panic!("worker {machine}: unexpected control frame kind {k}"),
        }
    };

    // The machine loop exits on its own: after `complete_drain` it runs
    // the backlog dry (retirement), or it observes `done` (shutdown).
    let (shard, tasks) = loop_handle.join().expect("machine loop panicked");
    // A machine retired mid-run holds no state: the contraction moved it.
    let snapshot = matches!(exit, Exit::Shutdown { snapshot: true });

    // Final sequence: flush outbound channels, then ship authoritative
    // finals. Ordering matters — gauges and matches before the finals
    // bundle, the exit notice last.
    let closed = writers.close_all();
    ship_stats(true);
    ctrl.send(
        K_FINALS,
        &FinalsBundle {
            machine: machine as u64,
            gen,
            finals: harvest(
                tasks.keys().map(|&id| TaskId(id)),
                |id| tasks[&id.index()].as_any(),
                snapshot,
            ),
            events: shard.events,
            last_event_at: shard.last_event_at,
            data_processed: gauges.data_processed(),
            machines: shard.machines().to_vec(),
        },
    );
    let (created, finished) = counters.snapshot();
    ctrl.send(
        K_EXITING,
        &Exiting {
            machine: machine as u64,
            gen,
            created,
            finished,
            closed: closed.iter().map(|&(d, n)| (d as u64, n)).collect(),
        },
    );
    std::process::exit(0);
}
