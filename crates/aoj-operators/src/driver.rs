//! The run driver, split into the three phases a live session needs:
//! **setup** (assemble the operator [`Topology`] every backend is built
//! from),
//! **ingest** (the source drains the session's ingest queue while the
//! backend executes), and **drain/collect** (run to quiescence and
//! extract a [`RunReport`]).
//!
//! Topology (per §3.2 and Fig. 1c): `J` machines, each hosting one
//! reshuffler task and one joiner task; reshuffler 0 doubles as the
//! controller; one extra machine hosts the stream source.
//!
//! [`run`] is the offline entry point: it executes a pre-materialized
//! arrival sequence as a thin wrapper over [`JoinSession`] — open, push
//! everything, close — and is the only place offline-only knowledge
//! (input length, full stream statistics) is applied. It reproduces the
//! pre-session simulator timelines bit for bit (the golden pins in
//! `tests/batching.rs` hold).

use aoj_core::elastic::ElasticLayout;
use aoj_core::epoch::{EpochJoiner, Reconfig};
use aoj_core::ilf::optimal_mapping;
use aoj_core::lifecycle::{Checkpoint, WindowMode, WindowTracker};
use aoj_core::mapping::{GridAssignment, Mapping};
use aoj_core::ticket::TicketGen;
use aoj_core::tuple::Rel;
use aoj_datagen::stream::Arrivals;
use aoj_joinalg::{index_for, SpillGauge};
use aoj_simnet::{ExecBackend, Gauge, MachineId, SimTime, TaskId, Topology};

use std::collections::BTreeSet;
use std::io;
use std::sync::Arc;

use crate::batch::DataCoalescer;
use crate::joiner_task::{JoinerTask, LatencyStats};
use crate::messages::OpMsg;
use crate::report::{machine_stats, Finals, MatchDigest, RunReport, SkewSummary, StateTransfer};
use crate::reshuffler::{ControlEvent, ControllerState, ReshufflerTask};
use crate::session::{IngestQueue, JoinSession, MatchHub, SessionBuilder};
use crate::shj::{ShjJoiner, ShjReshuffler};
use crate::skew::{SkewBoard, SkewPolicy, SkewState};
use crate::source::{SourceTask, TraceSampler};

/// The four operators of §5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OperatorKind {
    /// The paper's adaptive operator, starting at `(√J, √J)`.
    Dynamic,
    /// Fixed `(√J, √J)` mapping.
    StaticMid,
    /// Fixed oracle-optimal mapping (requires knowing stream sizes ahead
    /// of time — "practically unattainable in an online setting").
    StaticOpt,
    /// Content-sensitive parallel symmetric hash join (equi-joins only).
    Shj,
}

impl OperatorKind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            OperatorKind::Dynamic => "Dynamic",
            OperatorKind::StaticMid => "StaticMid",
            OperatorKind::StaticOpt => "StaticOpt",
            OperatorKind::Shj => "SHJ",
        }
    }
}

/// Which execution substrate a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendChoice {
    /// The deterministic discrete-event simulator (virtual time,
    /// bit-reproducible).
    Sim,
    /// `aoj-runtime`: one OS thread per machine, wall-clock time.
    Threaded,
    /// `aoj-net`: one OS **process** per machine, reached over loopback
    /// TCP. Requires the backend crate to have registered itself —
    /// call `aoj_net::install()` before opening the session.
    Tcp,
}

/// Run `builder`'s operator over the arrival sequence and return the
/// report: open a session, push everything, close. The wrapper adds only
/// what an offline harness knows and a live session cannot: the ingest
/// queue holds the whole input (the source sees everything available
/// from the first event — that is what keeps the simulator timelines
/// bit-identical to the pre-session code), an unset `sample_every` is
/// derived from the input length, and a [`OperatorKind::StaticOpt`] run
/// without an explicit mapping gets the oracle's.
pub fn run(arrivals: &Arrivals, builder: &SessionBuilder) -> RunReport {
    let mut b = builder.clone();
    if b.backend.sample_every == 0 {
        b.backend.sample_every = (arrivals.len() as u64 / 200).max(1);
    }
    b.source.queue_tuples = arrivals.len().max(1);
    if b.kind == OperatorKind::StaticOpt && b.oracle_mapping.is_none() {
        let (r, s) = stream_bytes(arrivals);
        b.oracle_mapping = Some(optimal_mapping(b.j, r.max(1), s.max(1)));
    }
    let mut session = JoinSession::open(b);
    session
        .push_batch(arrivals.iter().copied())
        .expect("fresh session rejected input");
    session.close()
}

/// Total bytes per relation in an arrival sequence.
pub fn stream_bytes(arrivals: &Arrivals) -> (u64, u64) {
    let mut r = 0u64;
    let mut s = 0u64;
    for (rel, item) in arrivals {
        match rel {
            Rel::R => r += item.bytes as u64,
            Rel::S => s += item.bytes as u64,
        }
    }
    (r, s)
}

/// Build `total + 1` machine slots: one per (possibly dormant) joiner
/// pair, plus the source machine whose egress models `J` parallel
/// upstream feeds. Only the joiner machines `eager` selects are
/// provisioned up front; the rest are deferred slots whose execution
/// resources — worker threads on the threaded backend — are acquired at
/// expansion trigger time (trigger-time provisioning).
fn add_machines(
    topo: &mut Topology<OpMsg>,
    b: &SessionBuilder,
    total: usize,
    eager: impl Fn(usize) -> bool,
) -> Vec<MachineId> {
    let mut machines: Vec<_> = (0..total)
        .map(|i| {
            if eager(i) {
                topo.add_machine()
            } else {
                topo.add_deferred_machine()
            }
        })
        .collect();
    // The source stands in for J parallel upstream feeds (previous query
    // stages), not a single NIC: scale its egress accordingly so the
    // operator, not the feed, is the bottleneck. (The threaded backend
    // has no NIC model and ignores this.)
    let mut src_net = b.data_plane.network;
    src_net.bytes_per_us = src_net.bytes_per_us.saturating_mul(b.j as u64);
    machines.push(topo.add_machine_with_network(src_net));
    machines
}

/// Task/machine layout of an assembled operator, handed from the setup
/// phase to the drain/collect phase.
pub(crate) struct Wiring {
    /// Registered joiner machine slots (including dormant elastic ones).
    pub(crate) slots: usize,
    /// Joiner task ids by machine index.
    pub(crate) joiner_ids: Vec<TaskId>,
    /// The source task.
    pub(crate) source_id: TaskId,
    /// What only grid operators have; `None` for the SHJ baseline.
    pub(crate) grid: Option<GridWiring>,
}

/// The controller side of an assembled grid operator.
pub(crate) struct GridWiring {
    /// Reshuffler 0, which doubles as the controller.
    pub(crate) controller_id: TaskId,
    /// The shared skew board the reshufflers publish their sketches to
    /// (one slot per reshuffler on in-process backends; on the TCP
    /// backend the session layer swaps in a coordinator board fed by
    /// worker gauge frames).
    pub(crate) skew_board: Arc<SkewBoard>,
}

impl Wiring {
    /// The tasks [`harvest`](crate::report::harvest) reads results from.
    pub(crate) fn result_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        let controller = self.grid.as_ref().map(|g| g.controller_id);
        self.joiner_ids.iter().copied().chain(controller)
    }
}

/// Setup phase: assemble a grid operator (Dynamic/StaticMid/StaticOpt)
/// into `topo`, wired to drain `input` and emit matches into `sink`.
/// Schedules the source's bootstrap tick.
///
/// `restore` selects the state the topology starts from. A fresh start
/// is the restore of the initial state — epoch 0, the initial grid
/// assignment and elastic layout, machines `0..j` active, empty joiners,
/// ingest cursor 0 — so both go through this one builder: with
/// `Some(ckpt)` the same topology comes up in the checkpoint's grid
/// assignment and layout, every active joiner re-seeded with its live
/// tuples. The caller has validated `ckpt` against `b`
/// ([`JoinSession::restore`]). Task-id order is a pure function of
/// `(b, restore)`; the TCP workers rebuild from the same pair.
pub(crate) fn setup_grid(
    topo: &mut Topology<OpMsg>,
    b: &SessionBuilder,
    input: Arc<IngestQueue>,
    sink: Arc<MatchHub>,
    restore: Option<&Checkpoint>,
) -> Wiring {
    assert!(
        b.j.is_power_of_two(),
        "grid operators need a power-of-two J"
    );
    assert!(
        b.elasticity.elastic.is_none() || b.kind == OperatorKind::Dynamic,
        "elasticity requires the Dynamic operator (the controller owns the trigger)"
    );
    assert!(
        b.elasticity.elastic.is_none() || !b.elasticity.blocking_migrations,
        "elasticity requires non-blocking migrations: the blocking ablation's \
         MigrationComplete broadcast cannot reach machines that a contraction \
         deactivates mid-flight"
    );
    let j = b.j as usize;
    let (assign, epoch, layout) = match restore {
        Some(ckpt) => (ckpt.assign.clone(), ckpt.epoch, ckpt.layout.clone()),
        None => {
            let mapping = match b.kind {
                OperatorKind::Dynamic | OperatorKind::StaticMid => Mapping::square(b.j),
                OperatorKind::StaticOpt => b.oracle_mapping.expect(
                    "StaticOpt needs an oracle mapping (with_oracle_mapping): an online \
                     session cannot know stream sizes ahead of time",
                ),
                OperatorKind::Shj => unreachable!(),
            };
            // Expansions allocate dormant-pool slots first, fresh slots
            // after.
            (GridAssignment::initial(mapping), 0, ElasticLayout::new(j))
        }
    };
    // The grid the run starts in (after a restore, an elastic run may sit
    // above or below `b.j` here).
    let initial = assign.mapping();
    // Machines `0..j` on a fresh start. After a restore the active set
    // need not be a slot prefix: a contraction may have retired low
    // slots while a later expansion's children stayed live.
    let active: BTreeSet<usize> = assign.machines().collect();
    let adaptive = b.kind == OperatorKind::Dynamic;
    let sample_spacing = b.sample_spacing();
    topo.metrics.sample_spacing = sample_spacing;
    // Elastic runs register the bounded machine-slot space
    // (`J₀ · 4^max_expansions` ids — cheap task objects and mailbox
    // stubs) but **provision** only the active machines: worker shards
    // for the rest are acquired at expansion trigger time and handed
    // back at contraction (trigger-time provisioning).
    let total = b.machine_slots();
    let machines = add_machines(topo, b, total, |i| active.contains(&i));
    let reshuffler_ids: Vec<TaskId> = (0..total).map(TaskId).collect();
    let joiner_ids: Vec<TaskId> = (total..2 * total).map(TaskId).collect();
    let source_id = TaskId(2 * total);
    let skew_board = SkewBoard::new(total);

    for i in 0..total {
        let controller = (i == 0).then(|| {
            let mut cs = ControllerState::new(
                initial.j(),
                initial,
                b.elasticity.decision,
                b.lifecycle.window,
                adaptive,
                b.data_plane.batch_tuples,
            )
            .with_elastic(b.elasticity.elastic);
            if let Some(ckpt) = restore {
                // The window model's restored bucket is stamped where the
                // joiners' restored sub-windows are: the cursor under a
                // count window, the checkpoint clock under a time window.
                let stamp = match b.lifecycle.window.map(|w| w.mode) {
                    Some(WindowMode::Time) => ckpt
                        .joiners
                        .iter()
                        .map(|jc| jc.latest_tick)
                        .max()
                        .unwrap_or(0),
                    _ => ckpt.source_cursor,
                };
                cs.decider.restore(ckpt.decider, stamp);
                cs.decider.set_grid(initial);
                cs.last_seq = ckpt.source_cursor;
                if let (Some(ec), Some((e, c))) = (cs.elastic.as_mut(), ckpt.elastic) {
                    ec.expansions_done = e;
                    ec.contractions_done = c;
                }
            }
            cs
        });
        let task = ReshufflerTask {
            index: i,
            epoch,
            assign: assign.clone(),
            joiner_tasks: joiner_ids.clone(),
            reshuffler_tasks: reshuffler_ids.clone(),
            tickets: TicketGen::new(b.seed ^ (i as u64).wrapping_mul(0x9E37_79B9)),
            cost: b.data_plane.cost,
            controller,
            source: source_id,
            blocking: b.elasticity.blocking_migrations,
            stalled: false,
            stall_buffer: Vec::new(),
            routed: 0,
            // Slots cover the full machine-slot space so elastic
            // expansions route into existing buffers.
            batch: DataCoalescer::new(b.batch_config(), total),
            // An inactive slot hears no epoch changes until `Activate`,
            // so ingest that reaches it first must bounce back to the
            // source. In process nothing can; over TCP the source's
            // first `IngestBatch` (data socket) can outrun the
            // controller's `Activate` (control socket).
            deactivated: !active.contains(&i),
            layout: layout.clone(),
            skew: SkewState::new(SkewPolicy::default(), 0).with_board(Arc::clone(&skew_board), i),
        };
        let id = topo.add_task(machines[i], Box::new(task));
        debug_assert_eq!(id, reshuffler_ids[i]);
    }
    for i in 0..total {
        let mut task = JoinerTask::new(
            i,
            b.predicate.clone(),
            total,
            joiner_ids.clone(),
            reshuffler_ids[0],
            source_id,
            machines[i],
            SpillGauge::new(b.data_plane.ram_budget, b.data_plane.spill_penalty),
            b.data_plane.cost,
        );
        let seeded = restore.and_then(|c| c.joiners.iter().find(|jc| jc.machine == i));
        if let Some(jc) = seeded {
            let p = b.predicate.clone();
            // Under a count window the restored state is sealed by
            // sub-window and expires as it would have. Time mode has no
            // tick per restored tuple: the state becomes one sealed
            // sub-window at the checkpoint clock (ticks restart with the
            // new backend's timeline, and "arrived at the checkpoint
            // clock" is the conservative reading).
            let window = b.lifecycle.window;
            let sub_span = window.filter(|w| w.mode == WindowMode::Count);
            let sub_span = sub_span.map(|w| w.sub_span());
            task.epoch =
                EpochJoiner::restored(&move || index_for(&p), total, epoch, &jc.tuples, sub_span);
            task.counters.evicted_tuples = jc.evicted_tuples;
            task.counters.evicted_bytes = jc.evicted_bytes;
            let seqs = jc.tuples.iter().map(|t| t.seq);
            task.window = window.map(|spec| match spec.mode {
                WindowMode::Count => {
                    WindowTracker::restored_by_sub_window(spec, jc.latest_seq, seqs)
                }
                WindowMode::Time => {
                    let hi_seq = seqs.max();
                    WindowTracker::restored(spec, jc.latest_seq, jc.latest_tick, hi_seq)
                }
            });
            // Pre-seed the gauges so stats() is truthful before the
            // first post-restore batch refreshes them.
            let bytes = task.epoch.stored_bytes();
            task.gauge.set_stored(bytes);
            let metrics = &mut topo.metrics;
            metrics.set_gauge(machines[i], Gauge::Stored, bytes);
            metrics.set_gauge(machines[i], Gauge::Evicted, jc.evicted_bytes);
            if task.window.is_some() {
                let tuples = task.epoch.stored_tuples() as u64;
                metrics.set_gauge(machines[i], Gauge::Occupancy, tuples);
            }
        } else {
            if !active.contains(&i) {
                task = task.dormant(b.predicate.clone(), total);
            }
            // Every slot gets its own tracker (dormant children
            // included): a tracker only ticks on stable batches, so an
            // unborn joiner's window is inert until its expansion
            // activates it.
            task.window = b.lifecycle.window.map(WindowTracker::new);
        }
        task.tally.collect = b.backend.collect_matches;
        task.tally.sink = Some(Arc::clone(&sink));
        let id = topo.add_task(machines[i], Box::new(task));
        debug_assert_eq!(id, joiner_ids[i]);
    }
    let mut src = SourceTask::new(
        input,
        reshuffler_ids.clone(),
        b.source.pacing,
        // The checkpointed window carries any elastic grow/shrink
        // rescaling.
        restore.map_or(b.window_copies(), |c| c.window_copies),
        b.data_plane.batch_tuples,
    );
    src.active = active.iter().map(|&i| reshuffler_ids[i]).collect();
    if let Some(ckpt) = restore {
        // Resume the ingest cursor where the checkpoint left it.
        // Everything up to the cursor was fully routed *and* processed
        // in the previous incarnation, so the emitted-vs-routed gate
        // starts balanced and the flow-control window starts fully open.
        src.cursor = ckpt.source_cursor as usize;
        src.routed_tuples = ckpt.source_cursor;
    } else {
        // A restored session reports no trace: the counts would need the
        // pre-checkpoint prefix.
        src.trace = TraceSampler::new(sample_spacing, b.lifecycle.window);
    }
    let id = topo.add_task(machines[total], Box::new(src));
    debug_assert_eq!(id, source_id);
    topo.start_timer_at(SimTime::ZERO, source_id, SourceTask::TICK);

    Wiring {
        slots: total,
        joiner_ids,
        source_id,
        grid: Some(GridWiring {
            controller_id: reshuffler_ids[0],
            skew_board,
        }),
    }
}

/// The source task's final state (the source runs in process on every
/// backend).
pub(crate) fn source_task<B: ExecBackend<OpMsg> + ?Sized>(backend: &B, id: TaskId) -> &SourceTask {
    let task = backend.task_any(id).downcast_ref();
    task.expect("task type mismatch")
}

/// The collect phase's drain check: a quiesced run must have
/// drained the whole stream — anything less means the flow-control
/// window wedged (silent output loss).
fn assert_drained<B: ExecBackend<OpMsg> + ?Sized>(backend: &B, source_id: TaskId, pushed: u64) {
    let src_task = source_task(backend, source_id);
    assert_eq!(
        src_task.cursor as u64,
        pushed,
        "source stalled with {} of {} tuples unsent (flow-control wedge)",
        pushed - src_task.cursor as u64,
        pushed
    );
}

/// Drain/collect phase: verify the stream drained and assemble the
/// [`RunReport`] from the run's [`Finals`] and the quiesced backend's
/// metrics. The SHJ baseline is the run without a controller: no
/// decisions, no per-machine rows, no skew summary, the `(1, 1)` mapping.
pub(crate) fn collect<B: ExecBackend<OpMsg> + ?Sized>(
    backend: &B,
    b: &SessionBuilder,
    wiring: &Wiring,
    finals: Finals,
    pushed: u64,
    end: SimTime,
) -> RunReport {
    assert_drained(backend, wiring.source_id, pushed);
    let metrics = backend.metrics();
    let ctrl = finals.controller.as_ref();
    assert_eq!(
        ctrl.is_some(),
        wiring.grid.is_some(),
        "a grid run, and only a grid run, reports a controller"
    );
    // The processing-side timeline behind the ILF/progress figures reads
    // cluster-wide gauges mid-run, which only a backend with a global
    // metrics view has; on sharded backends they would be per-worker
    // approximations, so report none rather than wrong ones.
    let global = backend.has_global_metrics_view();

    // Per-joiner-machine gauges at quiescence (index = machine): retired
    // machines must store zero here. Dormant children that never
    // activated contribute zeroes.
    let mut machines = match ctrl {
        Some(_) => machine_stats(wiring.slots, |m, g| metrics.gauge(m, g)),
        None => Vec::new(),
    };
    let mut matches = 0u64;
    let mut latency = LatencyStats::default();
    let mut migration_bytes = 0u64;
    let mut match_pairs: Vec<(u64, u64)> = Vec::new();
    let mut match_digest = MatchDigest::default();
    let mut expand_transfers: Vec<StateTransfer> = Vec::new();
    let mut contract_transfers: Vec<StateTransfer> = Vec::new();
    let transfer = |joiner, stored_tuples, sent_tuples| StateTransfer {
        joiner,
        stored_tuples,
        sent_tuples,
    };
    for f in finals.joiners {
        matches += f.matches;
        // The finals sum over a slot's incarnations; the gauge is the
        // last incarnation's.
        if let Some(row) = machines.get_mut(f.slot) {
            row.matches = f.matches;
        }
        latency.merge(&f.latency);
        migration_bytes += f.counters.migration_bytes_in;
        match_pairs.extend(f.match_log);
        match_digest.merge(&f.match_digest);
        let c = &f.counters;
        if c.expand_stored_tuples > 0 {
            let parent = transfer(f.slot, c.expand_stored_tuples, c.expand_sent_tuples);
            expand_transfers.push(parent);
        }
        if c.retirements > 0 {
            let retiree = transfer(f.slot, c.contract_stored_tuples, c.contract_sent_tuples);
            contract_transfers.push(retiree);
        }
    }
    match_pairs.sort_unstable();

    let events = ctrl.map_or_else(Vec::new, |c| c.events.clone());
    let completed = |of: fn(Reconfig) -> bool| {
        let done =
            |e: &&ControlEvent| matches!(e, ControlEvent::Complete { kind, .. } if of(*kind));
        events.iter().filter(done).count() as u64
    };
    let competitive = ctrl.map_or_else(Vec::new, |c| c.trace.clone());
    let total_storage = metrics.total_stored_bytes();
    let max_spilled = metrics.machines().iter().map(|m| m.spilled_bytes).max();

    RunReport {
        operator: b.kind.label(),
        backend: backend.backend_name(),
        workload: b.workload.clone(),
        j: b.j,
        input_tuples: pushed,
        exec_time: end.since(SimTime::ZERO),
        matches,
        throughput: pushed as f64 / end.as_secs_f64().max(1e-9),
        max_ilf_bytes: metrics.max_stored_bytes(),
        avg_ilf_bytes: total_storage as f64 / ctrl.map_or(b.j, |c| c.assign.j()) as f64,
        total_storage_bytes: total_storage,
        network_bytes: metrics.total_bytes_sent(),
        network_messages: metrics.total_messages(),
        flushes: metrics.total_flushes(),
        migration_bytes,
        migrations: completed(|k| matches!(k, Reconfig::Step(_))),
        expansions: completed(|k| k == Reconfig::Expand),
        contractions: completed(|k| k == Reconfig::Contract),
        expand_transfers,
        contract_transfers,
        provisioned_machines: backend.provisioned_machines() as u64,
        peak_provisioned_machines: backend.peak_provisioned_machines() as u64,
        machines,
        skew: SkewSummary::from_sketch(wiring.grid.as_ref().and_then(|g| g.skew_board.merged())),
        max_spilled_bytes: max_spilled.unwrap_or(0),
        avg_latency_us: latency.avg_us(),
        p50_latency_us: latency.percentile_us(0.50),
        p99_latency_us: latency.percentile_us(0.99),
        max_latency_us: latency.max_us,
        final_mapping: ctrl.map_or(Mapping::new(1, 1), |c| c.assign.mapping()),
        samples: if global {
            metrics.progress.clone()
        } else {
            Vec::new()
        },
        events,
        competitive,
        match_pairs,
        match_digest,
    }
}

/// Assemble the [`Checkpoint`] of a quiesced grid session from what its
/// tasks shipped home: `finals` harvested with `snapshot` set (so the
/// quiescence asserts already fired where the tasks are — no change in
/// flight, every born joiner stable, each joiner's state exactly its τ
/// set), plus the source's ingest cursor and current flow-control window.
/// The same on every backend; on TCP the finals crossed the wire.
pub(crate) fn build_checkpoint(
    b: &SessionBuilder,
    finals: &Finals,
    source_cursor: u64,
    window_copies: u64,
) -> io::Result<Checkpoint> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let ctrl = finals.controller.as_ref().ok_or_else(|| {
        let msg = "checkpoints cover grid operators only";
        io::Error::new(io::ErrorKind::Unsupported, msg)
    })?;
    let resume = ctrl
        .resume
        .as_ref()
        .ok_or_else(|| invalid("the controller's finals carry no resume state".into()))?;
    let active: BTreeSet<usize> = ctrl.assign.machines().collect();
    let state_of = |machine: usize| {
        let slot = finals.joiners.iter().find(|f| f.slot == machine);
        slot.and_then(|f| f.state.clone()).ok_or_else(|| {
            invalid(format!(
                "the finals carry no joiner state for active machine slot {machine}"
            ))
        })
    };
    Ok(Checkpoint {
        j: b.j,
        kind: b.kind.label().to_string(),
        seed: b.seed,
        epoch: resume.epoch,
        assign: ctrl.assign.clone(),
        layout: resume.layout.clone(),
        elastic: resume.elastic,
        decider: resume.decider,
        source_cursor,
        window_copies,
        joiners: active
            .into_iter()
            .map(state_of)
            .collect::<io::Result<_>>()?,
    })
}

/// Setup phase for the SHJ baseline.
pub(crate) fn setup_shj(
    topo: &mut Topology<OpMsg>,
    b: &SessionBuilder,
    input: Arc<IngestQueue>,
    sink: Arc<MatchHub>,
) -> Wiring {
    assert!(
        b.lifecycle.window.is_none(),
        "windowed eviction requires a grid operator \
         (the SHJ baseline keeps no segmented index)"
    );
    topo.metrics.sample_spacing = b.sample_spacing();
    let j = b.j as usize;
    let machines = add_machines(topo, b, j, |_| true);
    let reshuffler_ids: Vec<TaskId> = (0..j).map(TaskId).collect();
    let joiner_ids: Vec<TaskId> = (j..2 * j).map(TaskId).collect();

    let source_id = TaskId(2 * j);
    for &machine in machines.iter().take(j) {
        let task = ShjReshuffler {
            machine,
            joiner_tasks: joiner_ids.clone(),
            cost: b.data_plane.cost,
            source: source_id,
            routed: 0,
            batch: DataCoalescer::new(b.batch_config(), j),
        };
        topo.add_task(machine, Box::new(task));
    }
    for &machine in machines.iter().take(j) {
        let mut task = ShjJoiner::new(
            machine,
            b.data_plane.cost,
            SpillGauge::new(b.data_plane.ram_budget, b.data_plane.spill_penalty),
            source_id,
        );
        task.tally.collect = b.backend.collect_matches;
        task.tally.sink = Some(Arc::clone(&sink));
        topo.add_task(machine, Box::new(task));
    }
    let src = SourceTask::new(
        input,
        reshuffler_ids,
        b.source.pacing,
        b.window_copies(),
        b.data_plane.batch_tuples,
    );
    let id = topo.add_task(machines[j], Box::new(src));
    debug_assert_eq!(id, source_id);
    topo.start_timer_at(SimTime::ZERO, source_id, SourceTask::TICK);

    Wiring {
        slots: j,
        joiner_ids,
        source_id,
        grid: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::harvest;
    use aoj_simnet::{Sim, SimConfig};

    /// A bare close pays nothing for checkpointing: only a harvest asked
    /// for a snapshot carries state, and a checkpoint cannot be built
    /// from finals that lack an active slot's — a typed error naming the
    /// slot, as when a TCP worker's bundle went missing.
    #[test]
    fn only_a_snapshot_harvest_carries_state_and_a_checkpoint_needs_all_of_it() {
        let b = SessionBuilder::new(2, OperatorKind::Dynamic);
        let mut topo = Topology::new();
        let w = setup_grid(
            &mut topo,
            &b,
            IngestQueue::detached(),
            MatchHub::collector(),
            None,
        );
        let cfg = SimConfig {
            network: b.data_plane.network,
            deadline: None,
        };
        let sim: Sim<OpMsg> = Sim::new(cfg, topo);
        let bare = harvest(w.result_tasks(), |id| sim.task_any(id), false);
        assert_eq!(bare.joiners.len(), 2);
        assert!(bare.joiners.iter().all(|f| f.state.is_none()));
        assert!(bare.controller.as_ref().unwrap().resume.is_none());
        let err = build_checkpoint(&b, &bare, 0, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut finals = harvest(w.result_tasks(), |id| sim.task_any(id), true);
        assert!(finals.joiners.iter().all(|f| f.state.is_some()));
        let ckpt = build_checkpoint(&b, &finals, 7, 9).expect("complete finals");
        assert_eq!((ckpt.source_cursor, ckpt.window_copies), (7, 9));
        assert_eq!(ckpt.joiners.len(), 2);

        finals.joiners[1].state = None;
        let err = build_checkpoint(&b, &finals, 7, 9).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("machine slot 1"), "{err}");
    }
}
