//! Metrics collected by the simulator and by the tasks running on it.
//!
//! The paper's evaluation plots are all derived from these counters:
//! execution time (the virtual clock at drain), per-machine busy time and
//! storage (ILF, Figs 6a/6b/7c), message and byte counts (network traffic,
//! §3.3), and spill volume (the starred "overflow to disk" entries of
//! Table 2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::machine::MachineId;
use crate::time::{SimDuration, SimTime};

/// The per-machine gauges tasks report and every backend carries to
/// [`Metrics::gauge`] readers — one row per gauge. A new gauge is a row
/// here plus the owning task's [`Metrics::set_gauge`]; the overlay, the
/// TCP gauge frame and `stats()` follow from [`Gauge::ALL`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gauge {
    /// Bytes of operator state currently held. Its high-water mark is
    /// kept in [`MachineMetrics::peak_stored_bytes`].
    Stored,
    /// Cumulative bytes dropped by windowed state expiry (0 unless a
    /// retention window is configured). The joiner owns the running total
    /// and reports it whole, so a restored session carries a checkpoint's
    /// base count forward; a report never lowers it.
    Evicted,
    /// Stored tuple count — window occupancy.
    Occupancy,
    /// Join matches the machine's joiner has emitted so far.
    Matches,
}

impl Gauge {
    /// Every gauge, in table (and wire) order.
    pub const ALL: [Gauge; 4] = [
        Gauge::Stored,
        Gauge::Evicted,
        Gauge::Occupancy,
        Gauge::Matches,
    ];
    /// Number of gauges — the width of a table row.
    pub const COUNT: usize = Gauge::ALL.len();
}

/// Cluster-wide gauge overlay for sharded backends.
///
/// The threaded runtime gives every worker a private [`Metrics`] shard so
/// handlers never contend on a lock — but that makes *mid-run* cluster-wide
/// readings (progress/ILF timelines, the elastic controller's
/// stored-state trigger) impossible: each shard sees only its own
/// machine's gauges. `SharedGauges` fixes exactly that: a lock-free
/// per-machine [`Gauge`] table plus the cluster-wide data-processed
/// counter, shared by every shard via `Arc`. Writes stay single-writer
/// per row (each worker only ever sets its own machines' gauges), reads
/// are racy-by-design point-in-time samples — the same semantics the
/// paper's controller gets from its monitoring plane.
///
/// Backends with one global `Metrics` (the simulator) never install one;
/// all reads fall through to the plain per-machine rows.
#[derive(Debug, Default)]
pub struct SharedGauges {
    table: Box<[[AtomicU64; Gauge::COUNT]]>,
    data_processed: AtomicU64,
    next_sample_at: AtomicU64,
}

impl SharedGauges {
    /// A gauge table for `machines` machines, all zero.
    pub fn new(machines: usize) -> Arc<SharedGauges> {
        Arc::new(SharedGauges {
            table: (0..machines).map(|_| Default::default()).collect(),
            data_processed: AtomicU64::new(0),
            next_sample_at: AtomicU64::new(0),
        })
    }

    /// Machine `m`'s current reading of `g`.
    #[inline]
    pub fn get(&self, m: MachineId, g: Gauge) -> u64 {
        self.table[m.index()][g as usize].load(Ordering::Relaxed)
    }

    /// Overwrite machine `m`'s reading of `g`.
    ///
    /// Tasks never call this — they go through [`Metrics::set_gauge`],
    /// which keeps the local shard and the overlay in step. It exists for
    /// backends whose gauge writers are in **another process**: the TCP
    /// backend's coordinator applies the periodic gauge frames its
    /// workers stream to the session overlay, and relays remote machines'
    /// values into the controller worker's overlay so the elastic trigger
    /// sees the whole cluster.
    #[inline]
    pub fn set(&self, m: MachineId, g: Gauge, value: u64) {
        self.table[m.index()][g as usize].store(value, Ordering::Relaxed);
    }

    /// How many machines the gauge table covers.
    pub fn machine_count(&self) -> usize {
        self.table.len()
    }

    /// Data items processed cluster-wide so far.
    #[inline]
    pub fn data_processed(&self) -> u64 {
        self.data_processed.load(Ordering::Relaxed)
    }

    /// Overwrite the cluster-wide data-processed counter (see
    /// [`set`](SharedGauges::set); the coordinator sets it to the sum of
    /// its workers' reported counts).
    #[inline]
    pub fn set_data_processed(&self, n: u64) {
        self.data_processed.store(n, Ordering::Relaxed);
    }
}

/// A point on a progress timeline: the cluster's storage when `seq` was
/// reached. Worker tasks record one per sampling boundary of processed
/// data items ([`Metrics::note_data_processed`], Figs. 6a/6c); the
/// controller records one per boundary of routed sequence numbers (the
/// competitive trace).
#[derive(Clone, Copy, Debug)]
pub struct ProgressSample {
    /// Data items processed cluster-wide, or the global sequence number
    /// routed, when the sample was taken.
    pub seq: u64,
    /// Virtual time.
    pub at: SimTime,
    /// Max per-machine stored bytes (the ILF of the fullest joiner).
    pub max_stored_bytes: u64,
    /// Total stored bytes across the cluster.
    pub total_stored_bytes: u64,
}

/// Why a data-plane coalescing buffer shipped a batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushCause {
    /// The buffer reached its `batch_tuples` threshold.
    Size,
    /// The buffer reached its age bound (`batch_max_delay_us`).
    Deadline,
    /// An epoch or expansion boundary force-flushed the buffers.
    Boundary,
}

/// Data batches and tuples shipped, by [`FlushCause`] (reported by the
/// tasks that own coalescing buffers). `Deadline` batches aged out
/// before they filled. Under saturation that only trims batch size while
/// the machines stay busy; when nearly every batch is a `Deadline` one
/// *and* the machines sit idle, the flow-control window is closing
/// before a buffer can fill and the age timer is pacing the pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FlushCounts {
    /// Batches shipped, indexed by `FlushCause as usize`.
    pub batches: [u64; 3],
    /// Tuples those batches carried, same indexing.
    pub tuples: [u64; 3],
}

impl FlushCounts {
    /// Count one shipped batch of `tuples` tuples under `cause`.
    #[inline]
    pub fn note(&mut self, cause: FlushCause, tuples: usize) {
        self.batches[cause as usize] += 1;
        self.tuples[cause as usize] += tuples as u64;
    }

    /// Batches shipped for `cause`.
    pub fn batches(&self, cause: FlushCause) -> u64 {
        self.batches[cause as usize]
    }

    /// Batches shipped for any cause.
    pub fn total_batches(&self) -> u64 {
        self.batches.iter().sum()
    }

    /// Add `other`'s counts into `self`.
    pub fn merge(&mut self, other: &FlushCounts) {
        for i in 0..3 {
            self.batches[i] += other.batches[i];
            self.tuples[i] += other.tuples[i];
        }
    }
}

/// `size 701/44864 deadline 1078/34496 boundary 0/0`
/// (batches/tuples per cause).
impl std::fmt::Display for FlushCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (b, t) = (&self.batches, &self.tuples);
        write!(
            f,
            "size {}/{} deadline {}/{} boundary {}/{}",
            b[0], t[0], b[1], t[1], b[2], t[2]
        )
    }
}

/// Counters for one machine.
#[derive(Clone, Debug, Default)]
pub struct MachineMetrics {
    /// Messages that arrived at this machine.
    pub messages_in: u64,
    /// Messages sent from this machine.
    pub messages_out: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Total virtual CPU time consumed by handlers on this machine.
    pub busy: SimDuration,
    /// The machine's [`Gauge`] row, indexed by `Gauge as usize`
    /// (reported by tasks).
    pub gauges: [u64; Gauge::COUNT],
    /// High-water mark of [`Gauge::Stored`].
    pub peak_stored_bytes: u64,
    /// Bytes of state that live beyond the RAM budget (simulated spill).
    pub spilled_bytes: u64,
    /// Data batches this machine's coalescing buffers shipped, by cause
    /// (reported by tasks).
    pub flushes: FlushCounts,
}

/// Global metric sink. Tasks may update the per-machine storage gauges via
/// [`Ctx::metrics`](crate::Ctx::metrics); the simulator maintains the rest.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    per_machine: Vec<MachineMetrics>,
    /// Total events processed (diagnostics).
    pub events: u64,
    /// Virtual time of the last processed event.
    pub last_event_at: SimTime,
    /// Data items processed cluster-wide (maintained by worker tasks).
    pub data_processed: u64,
    /// Progress timeline, sampled every `sample_spacing` processed items.
    pub progress: Vec<ProgressSample>,
    /// Sampling spacing for the progress timeline (0 disables sampling).
    pub sample_spacing: u64,
    next_sample_at: u64,
    /// Cluster-wide gauge overlay, installed by sharded backends so that
    /// mid-run storage/progress reads are globally consistent.
    shared: Option<Arc<SharedGauges>>,
}

impl Metrics {
    /// Register one more machine (backends call this once per machine;
    /// tasks never do).
    pub fn add_machine(&mut self) {
        self.per_machine.push(MachineMetrics::default());
    }

    /// Number of registered machines.
    pub fn machine_count(&self) -> usize {
        self.per_machine.len()
    }

    /// Metrics for machine `m`.
    pub fn machine(&self, m: MachineId) -> &MachineMetrics {
        &self.per_machine[m.index()]
    }

    /// All machines, indexable by `MachineId::index`.
    pub fn machines(&self) -> &[MachineMetrics] {
        &self.per_machine
    }

    /// Mutable access for tasks that maintain storage gauges.
    pub fn machine_mut(&mut self, m: MachineId) -> &mut MachineMetrics {
        &mut self.per_machine[m.index()]
    }

    /// Install a cluster-wide gauge overlay (sharded backends only). The
    /// overlay must be sized to the final machine count. Readings this
    /// sink recorded before the overlay existed are published into it —
    /// a restored topology pre-seeds its joiners' gauges at setup, ahead
    /// of the live backends' overlays (zero is the overlay's initial
    /// state, so a fresh shard publishes nothing).
    pub fn install_shared(&mut self, shared: Arc<SharedGauges>) {
        for (i, mm) in self.per_machine.iter().enumerate() {
            for g in Gauge::ALL {
                let value = mm.gauges[g as usize];
                if value != 0 {
                    shared.set(MachineId(i), g, value);
                }
            }
        }
        self.shared = Some(shared);
    }

    /// The installed gauge overlay, if any.
    pub fn shared(&self) -> Option<&Arc<SharedGauges>> {
        self.shared.as_ref()
    }

    /// Record machine `m`'s reading of `g` (tasks report their own
    /// machine's row).
    #[inline]
    pub fn set_gauge(&mut self, m: MachineId, g: Gauge, value: u64) {
        let mm = &mut self.per_machine[m.index()];
        let value = match g {
            Gauge::Evicted => value.max(mm.gauges[g as usize]),
            _ => value,
        };
        mm.gauges[g as usize] = value;
        if g == Gauge::Stored && value > mm.peak_stored_bytes {
            mm.peak_stored_bytes = value;
        }
        if let Some(sh) = &self.shared {
            sh.set(m, g, value);
        }
    }

    /// Machine `m`'s reading of `g` — cluster-wide consistent even on
    /// sharded backends (reads the shared overlay when one is installed).
    #[inline]
    pub fn gauge(&self, m: MachineId, g: Gauge) -> u64 {
        match &self.shared {
            Some(sh) => sh.get(m, g),
            None => self.per_machine[m.index()].gauges[g as usize],
        }
    }

    fn gauge_column(&self, g: Gauge) -> impl Iterator<Item = u64> + '_ {
        (0..self.per_machine.len()).map(move |i| self.gauge(MachineId(i), g))
    }

    /// Total bytes dropped by windowed eviction across the cluster — the
    /// genuine-drain signal behind the elastic contraction trigger.
    pub fn total_evicted_bytes(&self) -> u64 {
        self.gauge_column(Gauge::Evicted).sum()
    }

    /// Total bytes sent across the cluster.
    pub fn total_bytes_sent(&self) -> u64 {
        self.per_machine.iter().map(|m| m.bytes_out).sum()
    }

    /// Total messages sent across the cluster.
    pub fn total_messages(&self) -> u64 {
        self.per_machine.iter().map(|m| m.messages_out).sum()
    }

    /// Data batches shipped across the cluster, by cause.
    pub fn total_flushes(&self) -> FlushCounts {
        let mut total = FlushCounts::default();
        for m in &self.per_machine {
            total.merge(&m.flushes);
        }
        total
    }

    /// Total operator state currently stored across the cluster.
    pub fn total_stored_bytes(&self) -> u64 {
        self.gauge_column(Gauge::Stored).sum()
    }

    /// Maximum per-machine stored bytes (the paper's "maximum ILF per
    /// machine", Fig 6a).
    pub fn max_stored_bytes(&self) -> u64 {
        self.gauge_column(Gauge::Stored).max().unwrap_or(0)
    }

    /// The cluster's storage at `seq`, as a timeline point.
    pub fn progress_sample(&self, seq: u64, at: SimTime) -> ProgressSample {
        ProgressSample {
            seq,
            at,
            max_stored_bytes: self.max_stored_bytes(),
            total_stored_bytes: self.total_stored_bytes(),
        }
    }

    /// Maximum per-machine busy time; the makespan lower bound.
    pub fn max_busy(&self) -> SimDuration {
        self.per_machine
            .iter()
            .map(|m| m.busy)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Record `n` data items processed at virtual time `at`, sampling the
    /// progress timeline when the spacing boundary is crossed. Called by
    /// worker tasks from their handlers; this is the simulator's
    /// omniscient measurement plane, not part of the distributed
    /// algorithm.
    pub fn note_data_processed(&mut self, n: u64, at: SimTime) {
        self.data_processed += n;
        if self.sample_spacing == 0 {
            return;
        }
        match &self.shared {
            None => {
                if self.data_processed >= self.next_sample_at {
                    self.next_sample_at = self.data_processed + self.sample_spacing;
                    let point = self.progress_sample(self.data_processed, at);
                    self.progress.push(point);
                }
            }
            Some(sh) => {
                // Sharded backends: count and sample against the shared
                // cluster-wide state. The CAS claims each sampling
                // boundary for exactly one worker; the claimed point goes
                // into that worker's shard and the shards' timelines are
                // merged (and time-sorted) by `absorb` after the run.
                let total = sh.data_processed.fetch_add(n, Ordering::Relaxed) + n;
                let due = sh.next_sample_at.load(Ordering::Relaxed);
                if total >= due
                    && sh
                        .next_sample_at
                        .compare_exchange(
                            due,
                            total + self.sample_spacing,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    let point = self.progress_sample(total, at);
                    self.progress.push(point);
                }
            }
        }
    }

    /// Record a message of `bytes` arriving at machine `m` (maintained by
    /// execution backends).
    pub fn on_arrive(&mut self, m: MachineId, bytes: u64) {
        let mm = &mut self.per_machine[m.index()];
        mm.messages_in += 1;
        mm.bytes_in += bytes;
    }

    /// Record a message of `bytes` sent from machine `m` (maintained by
    /// execution backends).
    pub fn on_send(&mut self, m: MachineId, bytes: u64) {
        let mm = &mut self.per_machine[m.index()];
        mm.messages_out += 1;
        mm.bytes_out += bytes;
    }

    /// Record `d` of CPU time consumed on machine `m` (maintained by
    /// execution backends).
    pub fn on_busy(&mut self, m: MachineId, d: SimDuration) {
        self.per_machine[m.index()].busy += d;
    }

    /// Merge a worker shard into this sink.
    ///
    /// The threaded runtime gives each worker thread a private `Metrics`
    /// shard (full machine vector, but the worker only ever writes its own
    /// machine's row) so handlers never contend on a global lock; the
    /// shards are folded together here once the run completes. Counters
    /// add; gauges take the max (only one shard ever wrote a non-zero
    /// value per machine); the progress timeline is re-sorted by time.
    pub fn absorb(&mut self, other: &Metrics) {
        while self.per_machine.len() < other.per_machine.len() {
            self.add_machine();
        }
        for (mine, theirs) in self.per_machine.iter_mut().zip(&other.per_machine) {
            mine.messages_in += theirs.messages_in;
            mine.messages_out += theirs.messages_out;
            mine.bytes_in += theirs.bytes_in;
            mine.bytes_out += theirs.bytes_out;
            mine.busy += theirs.busy;
            // Single-writer per machine: the owning shard's value wins.
            for (g, theirs) in mine.gauges.iter_mut().zip(theirs.gauges) {
                *g = (*g).max(theirs);
            }
            mine.peak_stored_bytes = mine.peak_stored_bytes.max(theirs.peak_stored_bytes);
            mine.spilled_bytes = mine.spilled_bytes.max(theirs.spilled_bytes);
            mine.flushes.merge(&theirs.flushes);
        }
        self.events += other.events;
        self.last_event_at = self.last_event_at.max(other.last_event_at);
        self.data_processed += other.data_processed;
        self.progress.extend(other.progress.iter().copied());
        self.progress.sort_by_key(|p| (p.at, p.seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(machines: usize) -> Metrics {
        let mut m = Metrics::default();
        (0..machines).for_each(|_| m.add_machine());
        m
    }

    #[test]
    fn stored_tracks_its_peak() {
        let mut m = cluster(2);
        m.set_gauge(MachineId(0), Gauge::Stored, 100);
        m.set_gauge(MachineId(0), Gauge::Stored, 40);
        m.set_gauge(MachineId(1), Gauge::Stored, 70);
        assert_eq!(m.gauge(MachineId(0), Gauge::Stored), 40);
        assert_eq!(m.machine(MachineId(0)).peak_stored_bytes, 100);
        assert_eq!(m.total_stored_bytes(), 110);
        assert_eq!(m.max_stored_bytes(), 70);
        // Only `Stored` has a peak.
        m.set_gauge(MachineId(1), Gauge::Occupancy, 500);
        assert_eq!(m.machine(MachineId(1)).peak_stored_bytes, 70);
    }

    #[test]
    fn every_gauge_round_trips_with_and_without_an_overlay() {
        let shared = SharedGauges::new(2);
        let mut sharded = cluster(2);
        sharded.install_shared(Arc::clone(&shared));
        for (mut m, overlay) in [(cluster(2), false), (sharded, true)] {
            for (k, g) in Gauge::ALL.into_iter().enumerate() {
                assert_eq!(g as usize, k, "ALL is in table order");
                let value = 10 + k as u64;
                m.set_gauge(MachineId(1), g, value);
                assert_eq!(m.gauge(MachineId(1), g), value);
                assert_eq!(m.gauge(MachineId(0), g), 0, "rows are per machine");
                assert_eq!(m.machine(MachineId(1)).gauges[k], value);
                if overlay {
                    assert_eq!(shared.get(MachineId(1), g), value);
                    // A remote writer's value is what readers see.
                    shared.set(MachineId(0), g, 7);
                    assert_eq!(m.gauge(MachineId(0), g), 7);
                }
            }
        }
    }

    /// A restored topology seeds its gauges before a live backend makes
    /// its overlay: installing it must not hide them, and a fresh shard
    /// installing the same overlay later must not zero them.
    #[test]
    fn installing_an_overlay_publishes_earlier_readings() {
        let shared = SharedGauges::new(2);
        let mut seeded = cluster(2);
        seeded.set_gauge(MachineId(1), Gauge::Evicted, 300);
        seeded.install_shared(Arc::clone(&shared));
        assert_eq!(seeded.gauge(MachineId(1), Gauge::Evicted), 300);
        cluster(2).install_shared(Arc::clone(&shared));
        assert_eq!(shared.get(MachineId(1), Gauge::Evicted), 300);
    }

    #[test]
    fn evicted_never_decreases() {
        let shared = SharedGauges::new(1);
        let mut m = cluster(1);
        m.install_shared(Arc::clone(&shared));
        m.set_gauge(MachineId(0), Gauge::Evicted, 300);
        m.set_gauge(MachineId(0), Gauge::Evicted, 120);
        assert_eq!(m.gauge(MachineId(0), Gauge::Evicted), 300);
        assert_eq!(shared.get(MachineId(0), Gauge::Evicted), 300);
        assert_eq!(m.total_evicted_bytes(), 300);
        // The other gauges are plain readings.
        m.set_gauge(MachineId(0), Gauge::Occupancy, 9);
        m.set_gauge(MachineId(0), Gauge::Occupancy, 4);
        assert_eq!(m.gauge(MachineId(0), Gauge::Occupancy), 4);
    }

    #[test]
    fn absorb_adds_counters_and_keeps_gauges_single_writer() {
        // Two shards, each writing only its own machine's row.
        let (mut a, mut b) = (cluster(2), cluster(2));
        for (k, g) in Gauge::ALL.into_iter().enumerate() {
            a.set_gauge(MachineId(0), g, 100 + k as u64);
            b.set_gauge(MachineId(1), g, 200 + k as u64);
        }
        a.set_gauge(MachineId(0), Gauge::Stored, 1);
        a.on_send(MachineId(0), 10);
        b.on_send(MachineId(0), 5);
        a.data_processed = 3;
        b.data_processed = 4;
        let mut merged = Metrics::default();
        merged.absorb(&a);
        merged.absorb(&b);
        assert_eq!(merged.machine(MachineId(0)).bytes_out, 15);
        assert_eq!(merged.machine(MachineId(0)).messages_out, 2);
        assert_eq!(merged.data_processed, 7);
        assert_eq!(merged.gauge(MachineId(0), Gauge::Stored), 1);
        assert_eq!(merged.machine(MachineId(0)).peak_stored_bytes, 100);
        for (k, g) in Gauge::ALL.into_iter().enumerate().skip(1) {
            assert_eq!(merged.gauge(MachineId(0), g), 100 + k as u64);
        }
        for (k, g) in Gauge::ALL.into_iter().enumerate() {
            assert_eq!(merged.gauge(MachineId(1), g), 200 + k as u64);
        }
    }

    #[test]
    fn traffic_counters_accumulate() {
        let mut m = Metrics::default();
        m.add_machine();
        m.on_send(MachineId(0), 10);
        m.on_send(MachineId(0), 5);
        m.on_arrive(MachineId(0), 7);
        assert_eq!(m.machine(MachineId(0)).messages_out, 2);
        assert_eq!(m.machine(MachineId(0)).bytes_out, 15);
        assert_eq!(m.machine(MachineId(0)).bytes_in, 7);
        assert_eq!(m.total_bytes_sent(), 15);
        assert_eq!(m.total_messages(), 2);
    }

    #[test]
    fn shared_gauges_give_shards_a_cluster_view() {
        let shared = SharedGauges::new(2);
        // Two shards, as the threaded runtime would build them.
        let shard = |_: usize| {
            let mut m = Metrics::default();
            m.add_machine();
            m.add_machine();
            m.sample_spacing = 2;
            m.install_shared(Arc::clone(&shared));
            m
        };
        let (mut a, mut b) = (shard(0), shard(1));
        a.set_gauge(MachineId(0), Gauge::Stored, 100);
        b.set_gauge(MachineId(1), Gauge::Stored, 70);
        // Each shard now sees the *other* machine's gauge too.
        assert_eq!(a.gauge(MachineId(1), Gauge::Stored), 70);
        assert_eq!(b.gauge(MachineId(0), Gauge::Stored), 100);
        assert_eq!(a.total_stored_bytes(), 170);
        assert_eq!(b.max_stored_bytes(), 100);
        // Progress counting is cluster-wide, and each boundary is claimed
        // by exactly one shard.
        a.note_data_processed(1, SimTime(1));
        b.note_data_processed(1, SimTime(2));
        b.note_data_processed(1, SimTime(3));
        a.note_data_processed(1, SimTime(4));
        assert_eq!(shared.data_processed(), 4);
        let mut merged = Metrics::default();
        merged.absorb(&a);
        merged.absorb(&b);
        let processed: Vec<u64> = merged.progress.iter().map(|p| p.seq).collect();
        assert_eq!(processed, vec![1, 3], "one claim per boundary");
    }

    #[test]
    fn busy_max_is_per_machine() {
        let mut m = Metrics::default();
        m.add_machine();
        m.add_machine();
        m.on_busy(MachineId(0), SimDuration::from_micros(5));
        m.on_busy(MachineId(0), SimDuration::from_micros(5));
        m.on_busy(MachineId(1), SimDuration::from_micros(7));
        assert_eq!(m.max_busy().as_micros(), 10);
    }
}
