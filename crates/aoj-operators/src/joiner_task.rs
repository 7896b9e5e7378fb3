//! The joiner task: one per machine, hosting the epoch-protocol state
//! machine over a pluggable local join index, with spill-aware cost
//! accounting and latency sampling.

use aoj_core::epoch::{Epoch, EpochJoiner, Machines, Role};
use aoj_core::index::ProbeStats;
use aoj_core::lifecycle::{JoinerCheckpoint, WindowMode, WindowTracker};
use aoj_core::predicate::Predicate;
use aoj_core::tuple::{Rel, Tuple};
use aoj_joinalg::{index_for, SpillGauge};
use aoj_simnet::{Ctx, Gauge, MachineId, Process, SimDuration, SimTime, TaskId};

use std::sync::Arc;

use crate::batch::BatchPool;
use crate::messages::{Match, OpMsg};
use crate::report::MatchDigest;
use crate::session::MatchHub;

/// How many tuples ride in one migration batch message.
pub(crate) const MIG_BATCH_TUPLES: usize = 64;

/// Canonical identity of one emitted join pair: `(R seq, S seq)`.
/// Backend-independent, so match multisets can be compared across the
/// simulator and the threaded runtime.
pub(crate) fn pair_key(a: &Tuple, b: &Tuple) -> (u64, u64) {
    if a.rel == Rel::R {
        (a.seq, b.seq)
    } else {
        (b.seq, a.seq)
    }
}

const LATENCY_BUCKETS: usize = 32;

/// Latency statistics kept by each joiner: sum/count/max plus a log₂
/// histogram for percentile estimates (the paper reports averages in
/// Fig. 7b; the wall-clock benchmark also wants p50/p99).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyStats {
    /// Sum of sampled latencies in microseconds.
    pub sum_us: u64,
    /// Number of samples.
    pub count: u64,
    /// Maximum sampled latency.
    pub max_us: u64,
    /// `buckets[k]` counts samples with `floor(log2(us)) == k`.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            sum_us: 0,
            count: 0,
            max_us: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyStats {
    /// Record one latency sample.
    pub fn record(&mut self, us: u64) {
        self.sum_us += us;
        self.count += 1;
        if us > self.max_us {
            self.max_us = us;
        }
        let idx = (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx] += 1;
    }

    /// Average latency in microseconds (0 when no samples).
    pub(crate) fn avg_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Fold another joiner's samples into this one.
    pub(crate) fn merge(&mut self, other: &LatencyStats) {
        self.sum_us += other.sum_us;
        self.count += other.count;
        self.max_us = self.max_us.max(other.max_us);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Approximate `q`-quantile (`0 < q <= 1`) in microseconds: the upper
    /// bound of the histogram bucket holding the rank, clamped to the
    /// observed maximum. Log₂ buckets bound the relative error at 2x.
    pub(crate) fn percentile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = (2u64 << idx) - 1;
                return upper.min(self.max_us);
            }
        }
        self.max_us
    }
}

/// The state-transfer and eviction counters of one grid joiner. They
/// only ever add, so a machine slot's incarnations combine by summing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinerCounters {
    /// Tuples received as migration state.
    pub migration_tuples_in: u64,
    /// Payload bytes received as migration state.
    pub migration_bytes_in: u64,
    /// Expansion-parent accounting: tuples of local state classified for
    /// a split (τ snapshots plus Δ arrivals during expansions).
    pub expand_stored_tuples: u64,
    /// Expansion-parent accounting: state copies shipped to children.
    /// Theorem 4.3 bounds this by `2 × expand_stored_tuples`.
    pub expand_sent_tuples: u64,
    /// Contraction-retiree accounting: tuples of local state classified
    /// for a merge (τ at retirement plus Δ arrivals during it).
    pub contract_stored_tuples: u64,
    /// Contraction-retiree accounting: state copies shipped to the
    /// survivor — at most `1 × contract_stored_tuples` (each retiring
    /// tuple is sent at most once, and the diagonal retiree sends none).
    pub contract_sent_tuples: u64,
    /// How many times this joiner retired into dormancy (contractions it
    /// was merged away by).
    pub retirements: u64,
    /// Tuples dropped by windowed eviction.
    pub evicted_tuples: u64,
    /// Payload bytes dropped by windowed eviction.
    pub evicted_bytes: u64,
}

impl JoinerCounters {
    /// Count `stored` local tuples classified for relocation and `sent`
    /// copies shipped against the transfer bound of `role`'s kind:
    /// Theorem 4.3's 2× for an expansion parent, 1× for a contraction
    /// retiree. The other roles have no bound to check.
    fn note_transfer(&mut self, role: &Role, stored: u64, sent: u64) {
        let (stored_total, sent_total) = match role {
            Role::Expand(_) => (&mut self.expand_stored_tuples, &mut self.expand_sent_tuples),
            _ if role.retires() => (
                &mut self.contract_stored_tuples,
                &mut self.contract_sent_tuples,
            ),
            _ => return,
        };
        *stored_total += stored;
        *sent_total += sent;
    }

    /// Add another incarnation's counters to these.
    pub(crate) fn merge(&mut self, other: &JoinerCounters) {
        self.migration_tuples_in += other.migration_tuples_in;
        self.migration_bytes_in += other.migration_bytes_in;
        self.expand_stored_tuples += other.expand_stored_tuples;
        self.expand_sent_tuples += other.expand_sent_tuples;
        self.contract_stored_tuples += other.contract_stored_tuples;
        self.contract_sent_tuples += other.contract_sent_tuples;
        self.retirements += other.retirements;
        self.evicted_tuples += other.evicted_tuples;
        self.evicted_bytes += other.evicted_bytes;
    }
}

/// The emit side of a joiner — grid or SHJ: what it has produced so far
/// and where produced pairs go.
#[derive(Default)]
pub(crate) struct MatchTally {
    /// Matches emitted.
    pub matches: u64,
    /// When set, every emitted pair's identity is appended to
    /// [`log`](MatchTally::log) (backend-equivalence tests).
    pub(crate) collect: bool,
    /// Emitted pair identities, `(R seq, S seq)`, when collection is on.
    pub(crate) log: Vec<(u64, u64)>,
    /// Order-independent digest of every emitted pair — always
    /// maintained (two u64 folds per pair), the cheap exactness witness
    /// wall-clock benchmarks compare across backends.
    pub(crate) digest: MatchDigest,
    /// Live match-emission path: while a subscriber is attached every
    /// produced pair is handed to the session's [`MatchHub`], which
    /// buffers it for them.
    pub(crate) sink: Option<Arc<MatchHub>>,
    /// Latency samples.
    pub latency: LatencyStats,
    /// [`emit_batch`](MatchTally::emit_batch)'s scratch: which tuples of
    /// the batch matched. Reused, so a batch allocates nothing.
    matched: Vec<bool>,
}

/// The per-match callback [`MatchTally::emit`] lends to a probe.
pub(crate) struct Emitter<'a> {
    n: u64,
    collect: bool,
    log: &'a mut Vec<(u64, u64)>,
    digest: &'a mut MatchDigest,
    live: Option<&'a MatchHub>,
}

impl Emitter<'_> {
    /// One produced pair.
    #[inline]
    pub(crate) fn pair(&mut self, a: &Tuple, b: &Tuple) {
        self.n += 1;
        let key = pair_key(a, b);
        self.digest.fold(key.0, key.1);
        if self.collect {
            self.log.push(key);
        }
        if let Some(hub) = self.live {
            hub.emit(Match::of(a, b));
        }
    }
}

impl MatchTally {
    /// Run `probe`, folding every pair it reports into the tally, and
    /// return its result with the number of pairs. Pairs go to the hub
    /// only while a consumer is attached; otherwise they are counted
    /// here and nowhere else (a shared counter is a serial bottleneck at
    /// millions of matches per second).
    #[inline]
    pub(crate) fn emit<R>(&mut self, probe: impl FnOnce(&mut Emitter<'_>) -> R) -> (R, u64) {
        let mut em = Emitter {
            n: 0,
            collect: self.collect,
            log: &mut self.log,
            digest: &mut self.digest,
            live: self.sink.as_deref().filter(|h| h.attached()),
        };
        let out = probe(&mut em);
        let n = em.n;
        self.matches += n;
        (out, n)
    }

    /// Run a whole-batch probe — `stream` reports each pair as
    /// `(i, stored)` for `batch[i]`, the shape of
    /// [`JoinIndex::stream_batch`](aoj_core::index::JoinIndex::stream_batch)
    /// — fold its pairs into the tally, and sample the latency of every
    /// tuple of the batch that matched. Samples come from each tuple's
    /// own arrival time (`arrived[i]`), so time spent coalescing is
    /// measured, not hidden.
    pub(crate) fn emit_batch(
        &mut self,
        now: SimTime,
        batch: &[Tuple],
        arrived: &[SimTime],
        stream: impl FnOnce(&mut dyn FnMut(usize, &Tuple)) -> ProbeStats,
    ) -> ProbeStats {
        let mut matched = std::mem::take(&mut self.matched);
        matched.clear();
        matched.resize(batch.len(), false);
        let (stats, _) = self.emit(|em| {
            stream(&mut |i, stored| {
                matched[i] = true;
                em.pair(&batch[i], stored);
            })
        });
        for (&m, &at) in matched.iter().zip(arrived) {
            if m {
                self.latency.record(now.since(at).as_micros());
            }
        }
        self.matched = matched;
        stats
    }

    /// What this joiner contributes to the run's [`Finals`](crate::report::Finals).
    pub(crate) fn to_final(&self, slot: usize, counters: JoinerCounters) -> JoinerFinal {
        JoinerFinal {
            slot,
            matches: self.matches,
            latency: self.latency,
            counters,
            match_log: self.log.clone(),
            match_digest: self.digest,
            state: None,
        }
    }
}

/// What one joiner (grid or SHJ) emitted and moved, harvested when its
/// backend quiesces — or, on the TCP backend, when its process exits.
/// The counters only ever add, so a machine slot's incarnations combine
/// by summing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinerFinal {
    /// The joiner's machine slot.
    pub slot: usize,
    /// Total matches emitted.
    pub matches: u64,
    /// Latency statistics.
    pub latency: LatencyStats,
    /// State-transfer and eviction counters (all zero for an SHJ joiner,
    /// which never migrates).
    pub counters: JoinerCounters,
    /// Emitted pair identities `(R seq, S seq)` (only when
    /// `collect_matches`).
    pub match_log: Vec<(u64, u64)>,
    /// Order-independent digest of every pair this joiner emitted.
    pub match_digest: MatchDigest,
    /// The quiesced joiner's stored state — only when the harvest was
    /// asked for a snapshot, and only of a born joiner (a dormant or
    /// retired slot holds none).
    pub state: Option<JoinerCheckpoint>,
}

impl JoinerFinal {
    /// Add another incarnation of the same slot to this one. At most one
    /// incarnation is alive at quiescence; its `state` is the slot's.
    pub(crate) fn merge(&mut self, other: JoinerFinal) {
        self.matches += other.matches;
        self.latency.merge(&other.latency);
        self.counters.merge(&other.counters);
        self.match_log.extend(other.match_log);
        self.match_digest.merge(&other.match_digest);
        if other.state.is_some() {
            self.state = other.state;
        }
    }
}

/// The joiner task.
pub struct JoinerTask {
    /// This joiner's machine index within the operator (grid identity).
    pub(crate) index: usize,
    /// Epoch-protocol state machine over the local join index.
    pub epoch: EpochJoiner,
    /// RAM budget gauge (the BerkeleyDB tier of §5).
    pub(crate) gauge: SpillGauge,
    /// Task ids of all joiners (for migration sends), by machine index.
    pub(crate) joiner_tasks: Vec<TaskId>,
    /// The controller's task id (for acks).
    pub controller: TaskId,
    /// The source task (flow-control credit returns).
    pub source: TaskId,
    /// This task's machine (for storage metrics).
    pub machine: MachineId,
    /// CPU cost model.
    pub cost: aoj_simnet::CostModel,
    /// Matches emitted, their digest, log, sink and latency samples.
    pub(crate) tally: MatchTally,
    /// Migration, elasticity and eviction transfer counters.
    pub counters: JoinerCounters,
    /// Sliding-window tracker when the session has a state lifecycle
    /// configured; `None` leaves retention unbounded (and the index
    /// segmentation machinery entirely untouched).
    pub window: Option<WindowTracker>,
    /// Outbound state of the in-flight epoch change.
    outbox: Option<Outbox>,
    /// Recycled batch storage: vectors received in `DataBatch`/`MigBatch`
    /// messages are cleared and reused for this joiner's own migration
    /// sends, so steady-state batch traffic allocates nothing.
    pool: BatchPool,
    /// Flow-control credits accumulated but not yet returned.
    unacked_credits: u32,
}

/// Where the in-flight change's relocated state is headed: one
/// Migration-class batch stream per machine the joiner's [`Role`] streams
/// to — one exchange partner (Lemma 4.4), three children (Fig. 5) or one
/// survivor — and the end-of-state marker each of them is owed.
struct Outbox {
    /// `(machine, its joiner task, the batch being filled)` per stream.
    streams: Vec<(usize, TaskId, Vec<Tuple>)>,
    marker: OpMsg,
}

impl Outbox {
    /// Empty streams towards every machine `role` streams to.
    fn new(role: &Role, new_epoch: Epoch, joiner_tasks: &[TaskId]) -> Outbox {
        let stream = |&m: &usize| (m, joiner_tasks[m], Vec::new());
        Outbox {
            streams: role.streams_to().iter().map(stream).collect(),
            marker: match role {
                // A child learns its birth epoch from its parent's marker.
                Role::Expand(_) => OpMsg::ExpandDone { epoch: new_epoch },
                _ => OpMsg::MigDone,
            },
        }
    }

    /// Queue a copy of `t` for every machine in `to`; returns how many
    /// (≤ 2 by Fig. 5's split geometry — the substance of Theorem 4.3's
    /// `transmitted ≤ 2 × stored` bound — and ≤ 1 for the other kinds).
    fn route(&mut self, t: Tuple, to: Machines) -> u64 {
        for (machine, _, batch) in &mut self.streams {
            if to.contains(machine) {
                batch.push(t);
            }
        }
        to.len() as u64
    }

    /// Ship every batch that is full (or, with `force`, non-empty),
    /// drawing the shipped vectors' replacements from `pool`.
    fn flush(&mut self, ctx: &mut Ctx<'_, OpMsg>, pool: &mut BatchPool, force: bool) {
        for (_, task, batch) in &mut self.streams {
            if !batch.is_empty() && (force || batch.len() >= MIG_BATCH_TUPLES) {
                let tuples = std::mem::replace(batch, pool.get_tuples(MIG_BATCH_TUPLES));
                ctx.send(*task, OpMsg::MigBatch { tuples });
            }
        }
    }

    /// Force-flush and send each stream its end-of-state marker (FIFO
    /// behind the state on the Migration channel).
    fn finish(&mut self, ctx: &mut Ctx<'_, OpMsg>, pool: &mut BatchPool) {
        self.flush(ctx, pool, true);
        for (_, task, _) in &self.streams {
            ctx.send(*task, self.marker.clone());
        }
    }
}

impl JoinerTask {
    /// Build a joiner for `predicate` with the given wiring.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        index: usize,
        predicate: Predicate,
        n_reshufflers: usize,
        joiner_tasks: Vec<TaskId>,
        controller: TaskId,
        source: TaskId,
        machine: MachineId,
        gauge: SpillGauge,
        cost: aoj_simnet::CostModel,
    ) -> JoinerTask {
        let p = predicate.clone();
        JoinerTask {
            index,
            epoch: EpochJoiner::new(&move || index_for(&p), n_reshufflers),
            gauge,
            joiner_tasks,
            controller,
            source,
            machine,
            cost,
            tally: MatchTally::default(),
            counters: JoinerCounters::default(),
            window: None,
            outbox: None,
            pool: BatchPool::new(4),
            unacked_credits: 0,
        }
    }

    /// Turn this joiner into a dormant elastic child: provisioned but
    /// unborn, waking up when its parent's expansion reaches it.
    pub(crate) fn dormant(mut self, predicate: Predicate, n_reshufflers: usize) -> JoinerTask {
        self.make_dormant(predicate, n_reshufflers);
        self
    }

    /// In-place `dormant`, for callers holding the
    /// task behind a trait object: a reincarnated worker **process**
    /// rebuilds the topology (where `setup_grid` makes slot `i < j`
    /// active) and must then demote its own freshly built joiner back to
    /// dormant, because the live cluster's controller will re-activate it
    /// through the usual `Activate`/expansion protocol.
    pub fn make_dormant(&mut self, predicate: Predicate, n_reshufflers: usize) {
        let p = predicate;
        self.epoch = EpochJoiner::new_dormant(&move || index_for(&p), n_reshufflers);
    }

    /// This joiner's share of a checkpoint: its τ set, stream clock and
    /// eviction counters. `None` for an unborn (dormant or retired)
    /// joiner. A born one must be stable — the caller quiesced the
    /// backend, so Alg. 3's marker FIFO has nothing mid-air to lose.
    pub(crate) fn checkpoint_state(&self) -> Option<JoinerCheckpoint> {
        if !self.epoch.is_born() {
            return None;
        }
        assert!(
            !self.epoch.is_migrating(),
            "checkpoint requires every active joiner to be stable"
        );
        let tuples = self.epoch.live_snapshot();
        let (latest_seq, latest_tick) = match self.window.as_ref() {
            Some(win) => win.latest(),
            // No window: the stream clock is only needed if the restore
            // side configures one, so derive a safe seed from the state.
            None => (tuples.iter().map(|t| t.seq).max().unwrap_or(0), 0),
        };
        Some(JoinerCheckpoint {
            machine: self.index,
            evicted_tuples: self.counters.evicted_tuples,
            evicted_bytes: self.counters.evicted_bytes,
            latest_seq,
            latest_tick,
            tuples,
        })
    }

    /// Batch size for credit returns: small enough to keep the source's
    /// window fresh, large enough not to double the message count. Up to
    /// `CREDIT_BATCH − 1` credits may sit parked per joiner, so the
    /// flow-control window must exceed that slack or the plane wedges
    /// (checked at session open). Credits for a whole data batch land at
    /// once, so in steady state one `ProcessedCopies` hop covers one
    /// `DataBatch`; raising this only parks credits and bubbles the
    /// window (measured: 32 lost ~10% throughput).
    pub(crate) const CREDIT_BATCH: u32 = 8;

    fn return_credits(&mut self, ctx: &mut Ctx<'_, OpMsg>, n: u32) {
        self.unacked_credits += n;
        if self.unacked_credits >= Self::CREDIT_BATCH {
            ctx.send(
                self.source,
                OpMsg::ProcessedCopies {
                    n: self.unacked_credits,
                },
            );
            self.unacked_credits = 0;
        }
    }

    /// Price a data batch's probe + store work through the spill gauge
    /// (see [`CostModel::batch_cost`](aoj_simnet::CostModel::batch_cost)
    /// for the per-tuple / per-statistic split).
    fn data_work_cost(&self, stats: ProbeStats, n: u64) -> SimDuration {
        let base = self.cost.batch_cost(n, stats.candidates, stats.matches);
        SimDuration::from_micros(self.gauge.effective_cost(base.as_micros()))
    }

    /// Advance the window clock over a just-processed batch and drop every
    /// sealed index segment that has fully expired. Runs only while the
    /// joiner is stable (`born && !migrating`), so Alg. 3's marker-FIFO
    /// argument is untouched: migrating state is never evicted mid-flight,
    /// and tuples arriving during a migration simply age once the next
    /// stable batch (or the migration checkpoint itself) ticks the clock.
    fn observe_window(&mut self, ctx: &mut Ctx<'_, OpMsg>, batch: &[Tuple], arrived: &[SimTime]) {
        let Some(w) = self.window.as_mut() else {
            return;
        };
        // Time windows tick on the spec's extractor: the backend arrival
        // clock, or real event time from the tuple `aux` column.
        let spec = w.spec();
        let ticks = batch.iter().zip(arrived);
        if w.observe_batch(ticks.map(|(t, at)| (t.seq, spec.tick_of(at.as_micros(), t.aux)))) {
            self.epoch.seal_live_segment();
        }
        self.run_eviction(ctx);
    }

    /// Evict expired sealed segments and account the drop. Caller must
    /// ensure the joiner is stable.
    fn run_eviction(&mut self, ctx: &mut Ctx<'_, OpMsg>) {
        let Some(w) = self.window.as_mut() else {
            return;
        };
        let bound = w.evict_bound();
        if bound == 0 {
            return;
        }
        let stats = self.epoch.evict_before(bound);
        if stats.tuples > 0 {
            self.counters.evicted_tuples += stats.tuples;
            self.counters.evicted_bytes += stats.bytes;
            ctx.metrics()
                .set_gauge(self.machine, Gauge::Evicted, self.counters.evicted_bytes);
        }
    }

    fn refresh_storage_metrics(&mut self, ctx: &mut Ctx<'_, OpMsg>) {
        let bytes = self.epoch.stored_bytes();
        self.gauge.set_stored(bytes);
        let metrics = ctx.metrics();
        metrics.set_gauge(self.machine, Gauge::Stored, bytes);
        metrics.set_gauge(self.machine, Gauge::Matches, self.tally.matches);
        if self.window.is_some() {
            let tuples = self.epoch.stored_tuples() as u64;
            metrics.set_gauge(self.machine, Gauge::Occupancy, tuples);
        }
        if self.gauge.is_spilling() {
            // Gauge high-water is authoritative; mirror into sim metrics.
            let spilled = self.gauge.spilled_bytes();
            let mm = ctx.metrics().machine_mut(self.machine);
            if spilled > mm.spilled_bytes {
                mm.spilled_bytes = spilled;
            }
        }
    }

    fn maybe_finalize(&mut self, ctx: &mut Ctx<'_, OpMsg>) -> SimDuration {
        if !self.epoch.ready_to_finalize() {
            return SimDuration::ZERO;
        }
        let retiring = self.epoch.role().is_some_and(Role::retires);
        // Under a count window relocated state is sealed by sub-window,
        // so it expires with the window rather than with the migration.
        let summary = match self.window.as_ref().map(WindowTracker::spec) {
            Some(spec) if spec.mode == WindowMode::Count => {
                self.epoch.finalize_in_sub_windows(spec.sub_span())
            }
            _ => self.epoch.finalize(),
        };
        self.outbox = None;
        let epoch = self.epoch.epoch();
        ctx.send(
            self.controller,
            OpMsg::Ack {
                joiner: self.index,
                epoch,
            },
        );
        if retiring {
            // Going dormant: return every accumulated flow-control credit
            // now — a retired joiner gets no more data, so credits parked
            // under the return batching would narrow the source's window
            // forever.
            self.counters.retirements += 1;
            if self.unacked_credits > 0 {
                ctx.send(
                    self.source,
                    OpMsg::ProcessedCopies {
                        n: self.unacked_credits,
                    },
                );
                self.unacked_credits = 0;
            }
        }
        // Migration checkpoint: the merged Δ/µ sets were re-indexed into
        // τ's active run. Seal that run so it ages as its own sub-window,
        // then drain any eviction deferred while the migration was live.
        if self.window.is_some() && self.epoch.is_born() && !self.epoch.is_migrating() {
            self.epoch.seal_live_segment();
            self.run_eviction(ctx);
        }
        self.refresh_storage_metrics(ctx);
        // Merging moved sets into τ re-indexes those tuples.
        SimDuration::from_micros((summary.merged + summary.discarded) * self.cost.store_us / 4)
    }
}

impl Process<OpMsg> for JoinerTask {
    fn on_message(&mut self, ctx: &mut Ctx<'_, OpMsg>, _from: TaskId, msg: OpMsg) -> SimDuration {
        match msg {
            OpMsg::DataBatch {
                tag,
                mut tuples,
                arrived,
                ..
            } => {
                let n = tuples.len() as u64;
                let mut stats = ProbeStats::default();
                let stable = self.epoch.stable_for(tag);
                if let Some(w) = self.window.as_mut().filter(|_| !stable) {
                    let spec = w.spec();
                    let ticks = tuples.iter().zip(&arrived);
                    w.note_lateness(ticks.map(|(t, at)| spec.tick(t.seq, at.as_micros(), t.aux)));
                }
                if stable {
                    stats = self.tally.emit_batch(ctx.now(), &tuples, &arrived, |out| {
                        self.epoch.on_data_batch(tag, &tuples, out)
                    });
                } else {
                    // Unborn or mid-migration: per-tuple Alg. 3 handling,
                    // with Δ forwarding to the outbox streams.
                    for (i, t) in tuples.drain(..).enumerate() {
                        let (outcome, matches) = self
                            .tally
                            .emit(|em| self.epoch.on_data(tag, t, &mut |a, b| em.pair(a, b)));
                        stats += outcome.stats;
                        if matches > 0 {
                            let waited = ctx.now().since(arrived[i]);
                            self.tally.latency.record(waited.as_micros());
                        }
                        if tag == self.epoch.epoch() {
                            if let Some(role) = self.epoch.role() {
                                // An old-epoch arrival mid-change (a Δ
                                // tuple) joins the state being relocated:
                                // count it against its kind's transfer
                                // bound.
                                let sent = outcome.forward.len() as u64;
                                self.counters.note_transfer(role, 1, sent);
                            }
                        }
                        if !outcome.forward.is_empty() {
                            if let Some(ob) = &mut self.outbox {
                                ob.route(t, outcome.forward);
                                ob.flush(ctx, &mut self.pool, false);
                            }
                        }
                    }
                }
                // Window bookkeeping only ticks on stable-phase batches,
                // whose tuples the bulk path leaves in place.
                if stable {
                    self.observe_window(ctx, &tuples, &arrived);
                }
                // The batch's heap storage feeds the next migration
                // flush instead of the allocator.
                self.pool.put_pair(tuples, arrived);
                self.refresh_storage_metrics(ctx);
                let now = ctx.now();
                ctx.metrics().note_data_processed(n, now);
                self.return_credits(ctx, n as u32);
                SimDuration::from_micros(self.cost.recv_overhead_us) + self.data_work_cost(stats, n)
            }
            OpMsg::Signal {
                from_reshuffler,
                new_epoch,
                expected_signals,
                role,
            } => {
                let so = self.epoch.on_signal(
                    from_reshuffler,
                    new_epoch,
                    role,
                    expected_signals as usize,
                );
                let mut cost = SimDuration::from_micros(self.cost.control_us);
                if so.start_migration {
                    // Ship the part of τ the role forwards — the exchange
                    // relation to the partner, all of τ split along both
                    // ticket axes to the children (Fig. 5), a retiree's
                    // forward relation to the survivor, nothing from a
                    // survivor — in Migration-class batches, each
                    // stream's end marker FIFO behind its state.
                    let [tau, ..] = self.epoch.set_sizes();
                    let snapshot = self.epoch.snapshot();
                    // Serialising the snapshot costs CPU proportional to
                    // its size; transmission time is paid by the NIC.
                    cost +=
                        SimDuration::from_micros(snapshot.len() as u64 * self.cost.store_us / 4);
                    let mut ob = Outbox::new(&role, new_epoch, &self.joiner_tasks);
                    let mut sent = 0;
                    for t in snapshot {
                        sent += ob.route(t, role.forwards(&t));
                    }
                    self.counters.note_transfer(&role, tau as u64, sent);
                    ob.flush(ctx, &mut self.pool, false);
                    self.outbox = Some(ob);
                }
                if so.all_signals {
                    // This joiner's Δ is closed: flush the last state and
                    // send the end-of-state markers. (A survivor streams
                    // to nobody and simply waits for its three.)
                    if let Some(ob) = &mut self.outbox {
                        ob.finish(ctx, &mut self.pool);
                    }
                }
                cost + self.maybe_finalize(ctx)
            }
            OpMsg::ExpandDone { epoch } => {
                // This joiner is a child: its parent's state is fully in.
                self.epoch.on_parent_done(epoch);
                SimDuration::from_micros(self.cost.control_us) + self.maybe_finalize(ctx)
            }
            OpMsg::MigBatch { mut tuples } => {
                let n = tuples.len() as u64;
                let (epoch, counters) = (&mut self.epoch, &mut self.counters);
                let (stats, _) = self.tally.emit(|em| {
                    let mut stats = ProbeStats::default();
                    for t in tuples.drain(..) {
                        counters.migration_tuples_in += 1;
                        counters.migration_bytes_in += t.bytes as u64;
                        stats += epoch.on_migration_tuple(t, &mut |a, b| em.pair(a, b));
                    }
                    stats
                });
                self.pool.put_tuples(tuples);
                self.refresh_storage_metrics(ctx);
                // Probe work plus one store per batched tuple, all through
                // the spill gauge.
                let base = self.cost.probe_cost(stats.candidates, stats.matches)
                    + SimDuration::from_micros(n * self.cost.store_us);
                SimDuration::from_micros(self.gauge.effective_cost(base.as_micros()))
            }
            OpMsg::MigDone => {
                self.epoch.on_partner_done();
                SimDuration::from_micros(self.cost.control_us) + self.maybe_finalize(ctx)
            }
            other => panic!("joiner received unexpected message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoj_simnet::{Effect, Metrics};

    #[test]
    fn outbox_batches_per_child_and_finishes_with_markers() {
        let joiner_tasks: Vec<TaskId> = (6..10).map(TaskId).collect();
        let children = &joiner_tasks[1..];
        let spec = aoj_core::elastic::plan_expansion(&aoj_core::mapping::GridAssignment::initial(
            aoj_core::mapping::Mapping::new(1, 1),
        ))
        .specs[0];
        let role = Role::Expand(spec);
        let mut ob = Outbox::new(&role, 3, &joiner_tasks);
        let mut pool = BatchPool::new(3);
        let mut metrics = Metrics::default();
        let mut ctx: Ctx<'_, OpMsg> = Ctx::new(SimTime::ZERO, &mut metrics);
        // An R tuple with row-bit 0 goes to child (0,1) only; an S tuple
        // with col-bit 1 goes to (0,1) and (1,1).
        let r = Tuple::new(Rel::R, 1, 0, 0);
        let s = Tuple::new(Rel::S, 2, 0, u64::MAX);
        assert_eq!(ob.route(r, role.forwards(&r)), 1);
        assert_eq!(ob.route(s, role.forwards(&s)), 2);
        ob.finish(&mut ctx, &mut pool);
        let effects = ctx.take_effects();
        // Two non-empty batches + three done markers, state before marker
        // per child.
        let mut batches = 0;
        let mut dones = 0;
        for e in &effects {
            match e {
                Effect::Send {
                    msg: OpMsg::MigBatch { tuples },
                    ..
                } => {
                    batches += 1;
                    assert!(!tuples.is_empty());
                }
                Effect::Send {
                    msg: OpMsg::ExpandDone { epoch },
                    to,
                } => {
                    dones += 1;
                    assert_eq!(*epoch, 3);
                    assert!(children.contains(to));
                }
                _ => panic!("unexpected effect"),
            }
        }
        assert_eq!(batches, 2);
        assert_eq!(dones, 3);
    }

    #[test]
    fn latency_stats_track_avg_and_max() {
        let mut l = LatencyStats::default();
        l.record(10);
        l.record(30);
        assert_eq!(l.avg_us(), 20.0);
        assert_eq!(l.max_us, 30);
        assert_eq!(LatencyStats::default().avg_us(), 0.0);
    }
}
