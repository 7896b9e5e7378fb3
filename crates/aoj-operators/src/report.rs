//! Post-run reporting: everything the paper's tables and figures plot,
//! extracted from one simulated run.

use std::any::Any;

use aoj_core::competitive::RatioSample;
use aoj_core::decision::DeciderSnapshot;
use aoj_core::elastic::ElasticLayout;
use aoj_core::mapping::{GridAssignment, Mapping};
use aoj_core::sketch::{HeavyHitter, SkewSketch};
use aoj_core::ticket::mix64;
use aoj_simnet::{FlushCounts, Gauge, MachineId, SimDuration, TaskId};

use crate::joiner_task::{JoinerFinal, JoinerTask};
use crate::reshuffler::{ControlEvent, ProgressSample, ReshufflerTask};
use crate::shj::ShjJoiner;

/// Per-machine-slot gauges, live or at quiescence (index = machine slot;
/// retired machines store zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// The joiner machine slot this row describes.
    pub machine: usize,
    /// Stored bytes.
    pub stored_bytes: u64,
    /// Cumulative bytes dropped by windowed eviction (0 with no window;
    /// a restored session carries the checkpoint's totals forward).
    pub evicted_bytes: u64,
    /// Window occupancy in stored tuples (0 with no window).
    pub window_tuples: u64,
    /// Matches this machine's joiner emitted — the per-machine
    /// *processing* load, which storage bytes understate under skew
    /// (a hot key's quadratic match work concentrates wherever its
    /// tuples meet). Live in [`SessionStats`](crate::SessionStats)
    /// snapshots on every backend, as of the joiner's last batch.
    pub matches: u64,
}

/// One [`MachineStats`] row per machine slot, from any per-machine
/// [`Gauge`] view: the simulator's `Metrics`, a live backend's
/// `SharedGauges` overlay, or a quiesced backend's merged sink.
pub(crate) fn machine_stats(
    slots: usize,
    gauge: impl Fn(MachineId, Gauge) -> u64,
) -> Vec<MachineStats> {
    (0..slots)
        .map(|i| MachineStats {
            machine: i,
            stored_bytes: gauge(MachineId(i), Gauge::Stored),
            evicted_bytes: gauge(MachineId(i), Gauge::Evicted),
            window_tuples: gauge(MachineId(i), Gauge::Occupancy),
            matches: gauge(MachineId(i), Gauge::Matches),
        })
        .collect()
}

/// Final control-plane state of the controller (reshuffler 0).
#[derive(Clone, Debug)]
pub struct ControllerFinal {
    /// Final grid assignment (mapping + per-slot positions + cells).
    pub assign: GridAssignment,
    /// The decision/migration event log.
    pub events: Vec<ControlEvent>,
    /// Routing-side progress samples (cluster-wide gauge timeline).
    pub samples: Vec<ProgressSample>,
    /// Where a restored controller picks up — filled only when the
    /// harvest was asked for a snapshot.
    pub resume: Option<Resume>,
}

/// The controller's share of a [`Checkpoint`](aoj_core::lifecycle::Checkpoint):
/// what `setup_grid` seeds a restored control plane with.
#[derive(Clone, Debug, PartialEq)]
pub struct Resume {
    /// The cluster-wide epoch at quiescence.
    pub epoch: u32,
    /// Elastic machine-slot bookkeeping (dormant pool, fresh frontier).
    pub layout: ElasticLayout,
    /// `(expansions_done, contractions_done)` of an elastic session.
    pub elastic: Option<(u32, u32)>,
    /// Alg. 2's committed statistics.
    pub decider: DeciderSnapshot,
}

/// Everything the collect phase reads out of the operator's tasks once
/// they have stopped — on any backend. In-process backends
/// [`harvest`] it from their quiesced tasks; a TCP worker harvests its
/// own tasks the same way at exit and the coordinator
/// [`merge`](Finals::merge)s the bundles as they arrive.
#[derive(Clone, Debug, Default)]
pub struct Finals {
    /// One entry per joiner that reported, ordered by machine slot.
    pub joiners: Vec<JoinerFinal>,
    /// The controller's final state; `None` for the SHJ baseline, which
    /// has no controller.
    pub controller: Option<ControllerFinal>,
}

impl Finals {
    /// Fold `other` in. A machine slot's incarnations **sum** (a slot
    /// retired by a contraction and re-provisioned later runs as two
    /// processes on the TCP backend); the controller's state is
    /// latest-wins.
    pub fn merge(&mut self, other: Finals) {
        other.joiners.into_iter().for_each(|f| self.add(f));
        if other.controller.is_some() {
            self.controller = other.controller;
        }
    }

    fn add(&mut self, f: JoinerFinal) {
        match self.joiners.binary_search_by_key(&f.slot, |j| j.slot) {
            Ok(at) => self.joiners[at].merge(f),
            Err(at) => self.joiners.insert(at, f),
        }
    }
}

/// Harvest the [`Finals`] of the stopped tasks `ids` — joiners of either
/// flavour and the controller; any other task contributes nothing. The
/// one place results are pulled out of task objects. With `snapshot` the
/// tasks must have stopped at quiescence — an Alg. 3 epoch boundary, no
/// reconfiguration in flight — and the finals also carry the operator's
/// state ([`JoinerFinal::state`], [`ControllerFinal::resume`]): every
/// backend takes a checkpoint this way.
pub fn harvest<'a>(
    ids: impl IntoIterator<Item = TaskId>,
    task_any: impl Fn(TaskId) -> &'a dyn Any,
    snapshot: bool,
) -> Finals {
    let mut finals = Finals::default();
    for id in ids {
        let task = task_any(id);
        if let Some(j) = task.downcast_ref::<JoinerTask>() {
            let mut f = j.tally.to_final(j.index, j.counters);
            if snapshot {
                f.state = j.checkpoint_state();
            }
            finals.add(f);
        } else if let Some(s) = task.downcast_ref::<ShjJoiner>() {
            finals.add(s.tally.to_final(s.machine.index(), Default::default()));
        } else if let Some(r) = task.downcast_ref::<ReshufflerTask>() {
            if let Some(ctrl) = &r.controller {
                assert!(
                    !snapshot || (ctrl.in_flight.is_none() && ctrl.acks_pending == 0),
                    "checkpoint requires a quiesced controller (reconfiguration in flight)"
                );
                let elastic = ctrl.elastic.as_ref();
                finals.controller = Some(ControllerFinal {
                    assign: r.assign.clone(),
                    events: ctrl.events.clone(),
                    samples: ctrl.recorder.samples.clone(),
                    resume: snapshot.then(|| Resume {
                        epoch: r.epoch,
                        layout: r.layout.clone(),
                        elastic: elastic.map(|e| (e.expansions_done, e.contractions_done)),
                        decider: ctrl.decider.snapshot(),
                    }),
                });
            }
        }
    }
    finals
}

/// Session-wide skew summary, merged from the per-reshuffler sketches in
/// deterministic slot order (see [`crate::skew::SkewBoard`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SkewSummary {
    /// Keys above the heavy-hitter threshold, heaviest first.
    pub hot_keys: Vec<HeavyHitter>,
    /// Total weight the merged sketches observed (0 = no shard has
    /// published yet, e.g. a run too short to reach a publish point).
    /// Exact under the keyed routing modes; under
    /// [`RoutingMode::Random`](aoj_core::ticket::RoutingMode::Random) an
    /// unbiased estimate, since the sketches see a 1-in-64 sample of the
    /// routed tuples weighted ×64.
    pub observed_bytes: u64,
}

impl SkewSummary {
    /// Summarise a merged sketch (or an empty summary for `None`).
    pub fn from_sketch(sketch: Option<SkewSketch>) -> SkewSummary {
        let Some(sk) = sketch else {
            return SkewSummary::default();
        };
        SkewSummary {
            hot_keys: sk.hot_keys(),
            observed_bytes: sk.total(),
        }
    }
}

/// One joiner's state-transfer accounting for one kind of elastic change:
/// an expansion parent's (Theorem 4.3) or a contraction retiree's.
#[derive(Clone, Copy, Debug)]
pub struct StateTransfer {
    /// The parent's or retiree's machine index.
    pub joiner: usize,
    /// Local state tuples the joiner classified for relocation (τ at its
    /// first signal plus Δ arrivals during the change).
    pub stored_tuples: u64,
    /// Copies shipped: to a parent's three children at most
    /// `2 × stored_tuples` by Fig. 5's split geometry; to a retiree's
    /// survivor at most `1 ×` (each tuple is sent at most once, and the
    /// diagonal retiree sends none).
    pub sent_tuples: u64,
}

/// An order-independent digest of the emitted match multiset.
///
/// Each `(R seq, S seq)` pair identity is hashed through a SplitMix64
/// finalizer and folded into a commutative accumulator (count, wrapping
/// sum, xor), so two runs emitted the same multiset of pairs — in any
/// order, across any partitioning — iff their digests are equal (up to
/// hash collisions, which would have to be engineered). This is the
/// cross-backend exactness witness that wall-clock benchmarks compare
/// against the simulator without shipping every pair identity over the
/// control plane; the full `match_pairs` log (`collect_matches`) remains
/// available for bit-for-bit equivalence tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchDigest {
    /// Pairs folded in.
    pub count: u64,
    /// Wrapping sum of the per-pair hashes.
    pub sum: u64,
    /// Xor of the per-pair hashes.
    pub xor: u64,
}

impl MatchDigest {
    /// Fold one `(R seq, S seq)` pair identity into the digest.
    #[inline]
    pub fn fold(&mut self, r_seq: u64, s_seq: u64) {
        // Mix the S side before combining so (r, s) and (s, r) — and any
        // linear combination of seqs — hash apart.
        let h = mix64(r_seq ^ mix64(s_seq));
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    /// Merge another digest (a disjoint partition of the multiset) in.
    pub fn merge(&mut self, other: &MatchDigest) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
    }
}

/// The measurements of one operator run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Operator label ("Dynamic", "StaticMid", …).
    pub operator: &'static str,
    /// Execution backend the run used ("sim", "threaded").
    pub backend: &'static str,
    /// Workload label ("EQ5", …).
    pub workload: String,
    /// Joiners used.
    pub j: u32,
    /// Total input tuples.
    pub input_tuples: u64,
    /// Virtual execution time (source start to quiescence).
    pub exec_time: SimDuration,
    /// Join matches emitted.
    pub matches: u64,
    /// Average throughput, tuples per virtual second.
    pub throughput: f64,
    /// Final maximum per-joiner stored bytes (the paper's max ILF).
    pub max_ilf_bytes: u64,
    /// Final average per-joiner stored bytes.
    pub avg_ilf_bytes: f64,
    /// Final cluster-wide stored bytes (Fig. 6b's right axis).
    pub total_storage_bytes: u64,
    /// Total network traffic (payload bytes sent).
    pub network_bytes: u64,
    /// Total network messages.
    pub network_messages: u64,
    /// Data batches the coalescing buffers shipped, by cause — size,
    /// age deadline, epoch boundary — summed over machines (see
    /// [`FlushCounts`] for how to read them).
    pub flushes: FlushCounts,
    /// Bytes of state moved by migrations (including expansion fan-out —
    /// expansion state travels in the same Migration class).
    pub migration_bytes: u64,
    /// Number of completed migrations (epochs entered).
    pub migrations: u64,
    /// Number of completed elastic ×4 expansions (§4.2.2).
    pub expansions: u64,
    /// Number of completed elastic 4→1 contractions.
    pub contractions: u64,
    /// Per-parent expansion transfer accounting, for the Theorem 4.3
    /// `transmitted ≤ 2 × stored` bound. Empty when nothing expanded.
    pub expand_transfers: Vec<StateTransfer>,
    /// Per-retiree contraction transfer accounting (`sent ≤ 1 × stored`).
    /// Empty when nothing contracted.
    pub contract_transfers: Vec<StateTransfer>,
    /// Machines still holding execution resources at quiescence
    /// (trigger-time provisioning: grows at expansions, shrinks at
    /// contractions; includes the source machine).
    pub provisioned_machines: u64,
    /// High-water mark of simultaneously provisioned machines — what the
    /// elastic run actually paid for, against the
    /// `J₀ · 4^max_expansions` slot bound it never touches unless the
    /// load does.
    pub peak_provisioned_machines: u64,
    /// Per-machine-slot gauges at quiescence (index = machine slot;
    /// retired machines read zero). Empty for SHJ runs.
    pub machines: Vec<MachineStats>,
    /// Heavy-hitter and load-quantile summary merged from the
    /// reshufflers' published sketches. Default (empty) for SHJ runs and
    /// runs too short to publish.
    pub skew: SkewSummary,
    /// Peak spilled bytes on the worst machine (0 = fully in memory).
    pub max_spilled_bytes: u64,
    /// Average match latency in microseconds (paper Fig. 7b).
    pub avg_latency_us: f64,
    /// Median match latency in microseconds (log₂-bucket estimate).
    pub p50_latency_us: u64,
    /// 99th-percentile match latency in microseconds (log₂-bucket
    /// estimate). Wall-clock-meaningful under the threaded backend.
    pub p99_latency_us: u64,
    /// Maximum sampled latency.
    pub max_latency_us: u64,
    /// Final mapping the operator ran with.
    pub final_mapping: Mapping,
    /// Progress timeline (ILF growth, execution-time progress).
    pub samples: Vec<ProgressSample>,
    /// Controller decision/completion log.
    pub events: Vec<ControlEvent>,
    /// `ILF/ILF*` trace (adaptive runs; empty otherwise).
    pub competitive: Vec<RatioSample>,
    /// Emitted pair identities `(R seq, S seq)`, sorted — only filled
    /// when `SessionBuilder::with_collect_matches` is set (equivalence testing).
    pub match_pairs: Vec<(u64, u64)>,
    /// Order-independent digest of the emitted match multiset — always
    /// filled, on every backend, whether or not `collect_matches` is
    /// set. Two runs joined identically iff their digests agree.
    pub match_digest: MatchDigest,
}

impl RunReport {
    /// Execution time in seconds.
    pub fn exec_secs(&self) -> f64 {
        self.exec_time.as_secs_f64()
    }

    /// Did any machine overflow its RAM budget? (Table 2's `*` marker.)
    pub fn overflowed(&self) -> bool {
        self.max_spilled_bytes > 0
    }

    /// Total bytes dropped by windowed eviction across the cluster
    /// (0 when no window is configured).
    pub fn total_evicted_bytes(&self) -> u64 {
        self.machines.iter().map(|m| m.evicted_bytes).sum()
    }

    /// Total window occupancy in tuples at quiescence (0 when no window
    /// is configured).
    pub fn total_window_tuples(&self) -> u64 {
        self.machines.iter().map(|m| m.window_tuples).sum()
    }

    /// The progress sample closest below `frac` (0..=1) of total
    /// processing, for timeline figures (6a, 6c, 8d).
    pub fn sample_at_fraction(&self, frac: f64) -> Option<&ProgressSample> {
        let total = self.samples.last()?.seq as f64;
        let target = (frac * total) as u64;
        self.samples.iter().take_while(|s| s.seq <= target).last()
    }

    /// Worst `ILF/ILF*` ratio after `warmup` tuples.
    pub fn max_competitive_ratio(&self, warmup: u64) -> f64 {
        self.competitive
            .iter()
            .filter(|s| s.tuples >= warmup)
            .map(|s| s.ratio())
            .fold(1.0, f64::max)
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} {:<6} J={:<3} time={:>9.3}s thpt={:>12.0} t/s maxILF={:>9} \
             storage={:>10} migs={} lat={:>7.2}ms{}",
            self.operator,
            self.workload,
            self.j,
            self.exec_secs(),
            self.throughput,
            human_bytes(self.max_ilf_bytes),
            human_bytes(self.total_storage_bytes),
            self.migrations,
            self.avg_latency_us / 1000.0,
            if self.overflowed() { " *SPILL*" } else { "" }
        )
    }

    /// Summary including the backend and wall-clock percentiles, for the
    /// wall-clock benchmark output.
    pub fn wallclock_summary(&self) -> String {
        format!(
            "{:<10} [{:>8}] {:<6} J={:<3} time={:>8.3}s thpt={:>12.0} t/s \
             p50={:>6}us p99={:>6}us moved={:>10} migs={}",
            self.operator,
            self.backend,
            self.workload,
            self.j,
            self.exec_secs(),
            self.throughput,
            self.p50_latency_us,
            self.p99_latency_us,
            human_bytes(self.network_bytes),
            self.migrations,
        )
    }
}

/// Human-readable byte counts for harness output.
pub fn human_bytes(b: u64) -> String {
    const KB: u64 = 1 << 10;
    const MB: u64 = 1 << 20;
    const GB: u64 = 1 << 30;
    if b >= GB {
        format!("{:.2}GB", b as f64 / GB as f64)
    } else if b >= MB {
        format!("{:.2}MB", b as f64 / MB as f64)
    } else if b >= KB {
        format!("{:.1}KB", b as f64 / KB as f64)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.0KB");
        assert_eq!(human_bytes(3 << 20), "3.00MB");
        assert_eq!(human_bytes(5 << 30), "5.00GB");
    }
}
