//! The §4.2.2 generalisation: arbitrary (non-power-of-two) cluster sizes
//! via the power-of-two **group decomposition** (Fig. 4).
//!
//! `J = J₁ + J₂ + …` (binary digits of `J`); each group runs its own grid
//! independently. A tuple is **stored** in exactly one group — chosen with
//! probability `J_g / J` by an independent hash — and **probes** every
//! group, so each pair of tuples is joined exactly once and every joiner
//! performs `1/J` of the work.
//!
//! ## Cross-group exactness without ordering chains
//!
//! The paper serialises deliveries through per-block forwarding leaders so
//! that any two tuples are seen in the same order by every machine that
//! could join them. We implement the equivalent guarantee differently
//! (this section is the whole argument): a pair is emitted only at the machine
//! where the pair's **earlier** tuple (by global sequence number) is
//! *stored*. In the common in-order case the later tuple simply probes
//! the store and finds it. For the out-of-order case — the later tuple
//! processed before the earlier one arrived — joiners keep recently seen
//! *probe-only* tuples in a bounded **retention buffer** the earlier
//! tuple probes on arrival. Out-of-order skew between two deliveries is
//! bounded by the flow-control window **plus** the data-plane coalescing
//! buffers (a (machine, store) batch slot can park a storage copy while
//! the machine's probe-only stream advances; the age flush bounds the
//! parking time), so the retention horizon is sized past both and no
//! delivery interleaving loses or duplicates a match.
//!
//! This operator is **static** per group (each group runs the oracle
//! mapping for the workload). Per-group adaptivity composes with the same
//! epoch machinery as the single-group operator — the grouped *math*
//! (nested mappings, storage shares, work balance) is tested in
//! `aoj_core::groups`; wiring per-group epochs (the protocol in
//! `aoj_core::epoch`'s module docs) is future work tracked in ROADMAP.md.

use aoj_core::groups::GroupSet;
use aoj_core::index::JoinIndex;
use aoj_core::mapping::Mapping;
use aoj_core::predicate::Predicate;
use aoj_core::ticket::{mix64, partition, TicketGen};
use aoj_core::tuple::{Rel, Tuple};
use aoj_datagen::stream::Arrivals;
use aoj_joinalg::index_for;
use aoj_simnet::{Ctx, FlushCause, Gauge, Process, Sim, SimConfig, SimDuration, SimTime, TaskId};

use crate::batch::DataCoalescer;
use crate::driver::stream_bytes;
use crate::joiner_task::{JoinerTask, LatencyStats};
use crate::messages::OpMsg;
use crate::source::{default_window_copies, SourcePacing, SourceTask};

/// Reshuffler for the grouped operator: routes every tuple to all groups,
/// marking exactly one group's copies as storage copies.
///
/// Batching note: the store flag is hoisted to batch level like the epoch
/// tag, so the coalescer keys its slots by `(machine, store)` — a
/// destination receiving both storage and probe-only copies gets two
/// independent batch streams, each FIFO in route order.
pub struct GroupedReshuffler {
    /// The group decomposition.
    pub groups: GroupSet,
    /// Per-group (static) mappings, nested across groups.
    pub mappings: Vec<Mapping>,
    /// Joiner task ids by global machine index.
    pub joiner_tasks: Vec<TaskId>,
    /// Ticket generator.
    pub tickets: TicketGen,
    /// Salt for the independent storage-group hash.
    pub storage_salt: u64,
    /// Cost model.
    pub cost: aoj_simnet::CostModel,
    /// The source task (flow-control credits).
    pub source: TaskId,
    /// Per-(machine, store) coalescing buffers. Their flush-cause counts
    /// are never published: [`GroupedReport`] carries no flush counters.
    pub batch: DataCoalescer,
}

impl GroupedReshuffler {
    /// Timer key used for coalescing-buffer age flushes.
    pub const FLUSH: u64 = 2;

    #[inline]
    fn slot(mach: usize, store: bool) -> usize {
        mach * 2 + store as usize
    }

    fn buffer_to(
        &mut self,
        ctx: &mut Ctx<'_, OpMsg>,
        mach: usize,
        store: bool,
        t: Tuple,
        arrived: aoj_simnet::SimTime,
    ) {
        let slot = Self::slot(mach, store);
        if self.batch.push(slot, t, arrived) {
            self.flush_slot(ctx, slot);
        }
    }

    fn flush_slot(&mut self, ctx: &mut Ctx<'_, OpMsg>, slot: usize) {
        if let Some((tuples, arrived)) = self.batch.take(slot) {
            ctx.send(
                self.joiner_tasks[slot / 2],
                OpMsg::DataBatch {
                    tag: 0,
                    store: slot % 2 == 1,
                    tuples,
                    arrived,
                },
            );
        }
    }

    /// The age flush — the only drain this epoch-less operator has.
    fn flush_all(&mut self, ctx: &mut Ctx<'_, OpMsg>) {
        for (slot, tuples, arrived) in self.batch.drain_all(FlushCause::Deadline) {
            ctx.send(
                self.joiner_tasks[slot / 2],
                OpMsg::DataBatch {
                    tag: 0,
                    store: slot % 2 == 1,
                    tuples,
                    arrived,
                },
            );
        }
    }
}

impl Process<OpMsg> for GroupedReshuffler {
    fn on_message(&mut self, ctx: &mut Ctx<'_, OpMsg>, _from: TaskId, msg: OpMsg) -> SimDuration {
        match msg {
            OpMsg::IngestBatch { items } => {
                let arrived = ctx.now();
                let n_tuples = items.len() as u32;
                let mut copies = 0u32;
                for it in items {
                    let ticket = self.tickets.next();
                    let t = Tuple {
                        seq: it.seq,
                        rel: it.rel,
                        key: it.key,
                        aux: it.aux,
                        bytes: it.bytes,
                        ticket,
                    };
                    // Storage group: independent uniform hash, ranges
                    // proportional to group sizes (P_g = J_g / J).
                    let storage_group =
                        self.groups.storage_group(mix64(it.seq ^ self.storage_salt));
                    for g in 0..self.groups.count() {
                        let mp = self.mappings[g];
                        let base = self.groups.machine_range(g).start;
                        let store = g == storage_group;
                        match it.rel {
                            Rel::R => {
                                let row = partition(ticket, mp.n);
                                for c in 0..mp.m {
                                    let mach = base + (row * mp.m + c) as usize;
                                    self.buffer_to(ctx, mach, store, t, arrived);
                                    copies += 1;
                                }
                            }
                            Rel::S => {
                                let col = partition(ticket, mp.m);
                                for r in 0..mp.n {
                                    let mach = base + (r * mp.m + col) as usize;
                                    self.buffer_to(ctx, mach, store, t, arrived);
                                    copies += 1;
                                }
                            }
                        }
                    }
                }
                ctx.send(
                    self.source,
                    OpMsg::RoutedCopies {
                        n: copies,
                        tuples: n_tuples,
                    },
                );
                self.batch.arm_flush_timer(ctx, Self::FLUSH);
                SimDuration::from_micros(
                    self.cost.recv_overhead_us + copies as u64 * self.cost.store_us / 2,
                )
            }
            other => panic!("grouped reshuffler received unexpected message {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, OpMsg>, key: u64) -> SimDuration {
        debug_assert_eq!(key, Self::FLUSH);
        self.batch.on_flush_timer();
        self.flush_all(ctx);
        SimDuration::from_micros(self.cost.control_us)
    }
}

/// A retained probe-only tuple.
#[derive(Clone, Copy)]
struct Retained {
    t: Tuple,
}

/// Joiner for the grouped operator: a local join store plus the bounded
/// retention buffer for probe-only tuples.
pub struct GroupedJoiner {
    /// Stored state (storage-group copies only).
    pub store: Box<dyn JoinIndex>,
    /// Recently seen probe-only tuples, pending eviction.
    retention: Vec<Retained>,
    /// Evict retained tuples with `seq < max_seq_seen − horizon`.
    pub retention_horizon: u64,
    max_seq_seen: u64,
    /// The predicate (retention probes are linear scans).
    pub predicate: Predicate,
    /// This joiner's machine (metrics).
    pub machine: aoj_simnet::MachineId,
    /// Cost model.
    pub cost: aoj_simnet::CostModel,
    /// The source task (credits).
    pub source: TaskId,
    /// Matches emitted.
    pub matches: u64,
    /// Latency samples.
    pub latency: LatencyStats,
    unacked_credits: u32,
}

impl GroupedJoiner {
    /// Build a joiner for `predicate`.
    pub fn new(
        predicate: Predicate,
        machine: aoj_simnet::MachineId,
        cost: aoj_simnet::CostModel,
        source: TaskId,
        retention_horizon: u64,
    ) -> GroupedJoiner {
        GroupedJoiner {
            store: index_for(&predicate),
            retention: Vec::new(),
            retention_horizon,
            max_seq_seen: 0,
            predicate,
            machine,
            cost,
            source,
            matches: 0,
            latency: LatencyStats::default(),
            unacked_credits: 0,
        }
    }

    /// Emit rule: a pair is emitted only at the machine where its
    /// *earlier* tuple is a storage copy. `incoming_store`/`resident_store`
    /// say whether each copy is a storage copy at this machine.
    fn should_emit(
        incoming: &Tuple,
        incoming_store: bool,
        resident: &Tuple,
        resident_store: bool,
    ) -> bool {
        if incoming.seq < resident.seq {
            incoming_store
        } else {
            resident_store
        }
    }

    fn evict(&mut self) {
        let cutoff = self.max_seq_seen.saturating_sub(self.retention_horizon);
        self.retention.retain(|r| r.t.seq >= cutoff);
    }
}

impl Process<OpMsg> for GroupedJoiner {
    fn on_message(&mut self, ctx: &mut Ctx<'_, OpMsg>, _from: TaskId, msg: OpMsg) -> SimDuration {
        match msg {
            OpMsg::DataBatch {
                tuples,
                arrived,
                store,
                ..
            } => {
                // Per-tuple processing in batch order: the emit rule
                // consults each tuple's store flag and the retention
                // buffer's state at its position, so the loop preserves
                // the unbatched semantics exactly.
                let n = tuples.len() as u64;
                let mut candidates_total = 0u64;
                let mut matches_total = 0u64;
                for (i, t) in tuples.into_iter().enumerate() {
                    self.max_seq_seen = self.max_seq_seen.max(t.seq);
                    let mut matches = 0u64;
                    // Probe the stored state (resident copies are storage
                    // copies by definition).
                    let stats = {
                        let mut cb = |resident: &Tuple| {
                            if Self::should_emit(&t, store, resident, true) {
                                matches += 1;
                            }
                        };
                        self.store.probe(&t, &mut cb)
                    };
                    // Probe the retention buffer (residents are
                    // probe-only).
                    let mut retention_candidates = 0u64;
                    for r in &self.retention {
                        retention_candidates += 1;
                        if self.predicate.matches_pair(&t, &r.t)
                            && Self::should_emit(&t, store, &r.t, false)
                        {
                            matches += 1;
                        }
                    }
                    if store {
                        self.store.insert(t);
                    } else {
                        self.retention.push(Retained { t });
                        self.evict();
                    }
                    self.matches += matches;
                    if matches > 0 {
                        self.latency.record(ctx.now().since(arrived[i]).as_micros());
                    }
                    candidates_total += stats.candidates + retention_candidates;
                    matches_total += matches;
                }
                let bytes = self.store.bytes();
                ctx.metrics().set_gauge(self.machine, Gauge::Stored, bytes);
                let now = ctx.now();
                ctx.metrics().note_data_processed(n, now);
                self.unacked_credits += n as u32;
                if self.unacked_credits >= JoinerTask::CREDIT_BATCH {
                    ctx.send(
                        self.source,
                        OpMsg::ProcessedCopies {
                            n: self.unacked_credits,
                        },
                    );
                    self.unacked_credits = 0;
                }
                let base = self.cost.batch_cost(n, candidates_total, matches_total);
                SimDuration::from_micros(self.cost.recv_overhead_us + base.as_micros())
            }
            other => panic!("grouped joiner received unexpected message {other:?}"),
        }
    }
}

/// Results of a grouped run.
#[derive(Clone, Debug)]
pub struct GroupedReport {
    /// Total joiners (arbitrary, non-power-of-two allowed).
    pub j: u32,
    /// Group sizes.
    pub group_sizes: Vec<u32>,
    /// Join matches emitted.
    pub matches: u64,
    /// Virtual execution time.
    pub exec_time: aoj_simnet::SimDuration,
    /// Final stored bytes per group.
    pub stored_per_group: Vec<u64>,
    /// Max stored bytes on any machine.
    pub max_stored: u64,
}

/// Run the static grouped operator over `arrivals` on `j` machines
/// (`j ≥ 1`, any value).
pub fn run_grouped(arrivals: &Arrivals, predicate: &Predicate, j: u32, seed: u64) -> GroupedReport {
    let groups = GroupSet::decompose(j);
    let (r_bytes, s_bytes) = stream_bytes(arrivals);
    let mappings = groups.optimal_mappings(r_bytes.max(1), s_bytes.max(1));

    let mut sim: Sim<OpMsg> = Sim::new(SimConfig::default());
    let jm = j as usize;
    let mut machines: Vec<_> = (0..jm).map(|_| sim.add_machine()).collect();
    let mut src_net = aoj_simnet::NetworkConfig::default();
    src_net.bytes_per_us = src_net.bytes_per_us.saturating_mul(j as u64);
    machines.push(sim.add_machine_with_network(src_net));

    let batch_cfg = crate::batch::BatchConfig::default();
    let reshuffler_ids: Vec<TaskId> = (0..jm).map(TaskId).collect();
    let joiner_ids: Vec<TaskId> = (jm..2 * jm).map(TaskId).collect();
    let source_id = TaskId(2 * jm);
    let window = default_window_copies(j, batch_cfg.batch_tuples);

    for (i, &machine) in machines.iter().enumerate().take(jm) {
        let task = GroupedReshuffler {
            groups: groups.clone(),
            mappings: mappings.clone(),
            joiner_tasks: joiner_ids.clone(),
            tickets: TicketGen::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9)),
            storage_salt: seed ^ 0x6660,
            cost: Default::default(),
            source: source_id,
            // Two batch streams per destination: (machine, store-flag).
            batch: DataCoalescer::new(batch_cfg, 2 * jm),
        };
        sim.add_task(machine, Box::new(task));
    }
    for &machine in machines.iter().take(jm) {
        let task = GroupedJoiner::new(
            predicate.clone(),
            machine,
            Default::default(),
            source_id,
            // Retention must cover every source of delivery skew between
            // two channels to the same machine: the flow-control window
            // (tuples can sit in joiner queues) plus the coalescing
            // buffers (a store-class batch can park while probe-class
            // batches keep advancing max_seq_seen — the (machine, store)
            // slot split makes the two streams age independently, though
            // the age flush caps the parking time). 4x the window plus
            // 8x the per-slot batch budget per reshuffler is a
            // comfortable margin over both.
            window * 4 + 8 * batch_cfg.batch_tuples as u64 * j as u64,
        );
        sim.add_task(machine, Box::new(task));
    }
    let src = SourceTask::preloaded(
        arrivals,
        reshuffler_ids,
        SourcePacing::saturating(),
        window,
        batch_cfg.batch_tuples,
    );
    sim.add_task(machines[jm], Box::new(src));
    sim.start_timer_at(SimTime::ZERO, source_id, SourceTask::TICK);

    let end = sim.run();

    let mut matches = 0u64;
    for &jid in &joiner_ids {
        matches += sim.task_ref::<GroupedJoiner>(jid).matches;
    }
    let stored_per_group = (0..groups.count())
        .map(|g| {
            groups
                .machine_range(g)
                .map(|m| sim.metrics().gauge(aoj_simnet::MachineId(m), Gauge::Stored))
                .sum()
        })
        .collect();
    GroupedReport {
        j,
        group_sizes: (0..groups.count()).map(|g| groups.size(g)).collect(),
        matches,
        exec_time: end.since(SimTime::ZERO),
        stored_per_group,
        max_stored: sim.metrics().max_stored_bytes(),
    }
}
