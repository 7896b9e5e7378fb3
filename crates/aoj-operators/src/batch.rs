//! Data-plane batching: the coalescing buffers that turn per-tuple
//! routing into [`OpMsg::DataBatch`](crate::messages::OpMsg::DataBatch)
//! streams.
//!
//! PR 2's batched mailbox drains showed that per-message overhead — not
//! join work — dominates the hot path (143k → 216k tuples/s from
//! amortising only the *receive* side's lock). This module amortises the
//! whole hop: a reshuffler routes each tuple into a per-destination
//! buffer and ships the buffer as one message when it fills
//! (`batch_tuples`) or ages out (`max_delay`, so a slow destination never
//! strands tuples and the flow-control window cannot wedge on buffered
//! copies). Every shipped batch is counted by [`FlushCause`].
//!
//! ## FIFO contract
//!
//! Coalescing groups tuples; it never reorders them. Within one
//! (reshuffler → joiner) channel, tuples leave in route order, and the
//! epoch protocol's markers stay correct because every epoch
//! boundary **force-flushes** the buffers before the boundary message is
//! sent — a `Signal`, whatever kind of change it announces, therefore
//! still travels FIFO behind every tuple its epoch covers (Alg. 3's
//! ordering assumption, §4.3.1).
//!
//! A batch of one tuple is the degenerate case: `batch_tuples = 1`
//! flushes inside the routing handler, schedules no timers, and
//! reproduces the per-tuple data plane's event timeline exactly.

use aoj_core::tuple::Tuple;
use aoj_simnet::{FlushCause, FlushCounts, MachineId, Metrics, SimDuration, SimTime};

/// Data-plane batching knobs (resolved from `SessionBuilder::data_plane`).
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Coalescing-buffer flush threshold in tuples. 1 restores the
    /// per-tuple data plane bit-for-bit.
    pub batch_tuples: usize,
    /// Age flush: an armed coalescer schedules a timer this far ahead
    /// and force-flushes everything still buffered when it fires, so a
    /// trickle of tuples (or a closed flow-control window) cannot strand
    /// a partial batch.
    pub max_delay: SimDuration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            batch_tuples: 64,
            max_delay: SimDuration::from_micros(200),
        }
    }
}

impl BatchConfig {
    /// A config flushing every `batch_tuples` tuples with the default age
    /// bound.
    pub fn new(batch_tuples: usize) -> BatchConfig {
        BatchConfig {
            batch_tuples: batch_tuples.max(1),
            ..BatchConfig::default()
        }
    }
}

/// One destination's pending batch: parallel tuple/arrival runs.
#[derive(Default)]
struct Pending {
    tuples: Vec<Tuple>,
    arrived: Vec<SimTime>,
}

/// A capped free-list of batch storage whose heap capacity survives the
/// flush → ship → consume cycle.
///
/// Batch vectors travel *inside* messages, so their storage leaves the
/// sender for good — but every batch a task receives off its mailbox
/// delivers equivalent storage in return. Consumers hand consumed
/// vectors back with [`put_pair`](BatchPool::put_pair) /
/// [`put_tuples`](BatchPool::put_tuples) and producers draw replacements
/// with the `get_*` methods, so in steady state batch traffic recycles
/// a fixed working set instead of allocating per flush. A `get` against
/// an empty pool falls back to one exact-capacity allocation — still
/// cheaper than the doubling growth of pushing into `Vec::new()`.
#[derive(Debug, Default)]
pub struct BatchPool {
    tuples: Vec<Vec<Tuple>>,
    times: Vec<Vec<SimTime>>,
    cap: usize,
}

impl BatchPool {
    /// A pool retaining at most `cap` spare vectors of each kind.
    pub fn new(cap: usize) -> BatchPool {
        BatchPool {
            tuples: Vec::new(),
            times: Vec::new(),
            cap,
        }
    }

    /// An empty tuple vector with at least `reserve` slots.
    pub fn get_tuples(&mut self, reserve: usize) -> Vec<Tuple> {
        let mut v = self.tuples.pop().unwrap_or_default();
        v.clear();
        v.reserve(reserve);
        v
    }

    /// An empty (tuples, arrivals) pair, each with at least `reserve`
    /// slots.
    pub fn get_pair(&mut self, reserve: usize) -> (Vec<Tuple>, Vec<SimTime>) {
        let mut a = self.times.pop().unwrap_or_default();
        a.clear();
        a.reserve(reserve);
        (self.get_tuples(reserve), a)
    }

    /// Return a consumed tuple vector (typically one that arrived in a
    /// message) for reuse. Dropped when the pool is full or the vector
    /// never allocated.
    pub fn put_tuples(&mut self, mut v: Vec<Tuple>) {
        if self.tuples.len() < self.cap && v.capacity() > 0 {
            v.clear();
            self.tuples.push(v);
        }
    }

    /// Return a consumed (tuples, arrivals) pair for reuse.
    pub fn put_pair(&mut self, tuples: Vec<Tuple>, mut arrived: Vec<SimTime>) {
        self.put_tuples(tuples);
        if self.times.len() < self.cap && arrived.capacity() > 0 {
            arrived.clear();
            self.times.push(arrived);
        }
    }

    /// Spare vectors currently pooled, `(tuples, arrivals)`.
    pub fn spares(&self) -> (usize, usize) {
        (self.tuples.len(), self.times.len())
    }
}

/// Per-destination coalescing buffers for routed data tuples.
///
/// Slots are caller-defined destinations (one per joiner machine). The
/// coalescer only groups; the caller ships the flushed runs, attaching
/// its epoch tag — which is what hoists that field to batch level.
pub struct DataCoalescer {
    cfg: BatchConfig,
    slots: Vec<Pending>,
    buffered: usize,
    /// Recycled batch storage: [`take`](DataCoalescer::take) swaps
    /// pooled vectors in for the shipped ones, and owners that receive
    /// batches back off the mailbox refill it via
    /// [`recycle`](DataCoalescer::recycle).
    pool: BatchPool,
    /// True while an age-flush timer is scheduled on the owning task.
    timer_pending: bool,
    /// Batches shipped since the last
    /// [`publish_flushes`](DataCoalescer::publish_flushes), by cause.
    flushes: FlushCounts,
}

impl DataCoalescer {
    /// Spare vectors the pool retains per coalescer: enough to cover a
    /// few in-flight flushes without holding a slot's worth of dead
    /// capacity on wide fan-outs.
    const POOL_SPARES: usize = 8;

    /// An empty coalescer with `slots` destinations.
    pub fn new(cfg: BatchConfig, slots: usize) -> DataCoalescer {
        DataCoalescer {
            cfg: BatchConfig {
                batch_tuples: cfg.batch_tuples.max(1),
                ..cfg
            },
            slots: (0..slots).map(|_| Pending::default()).collect(),
            buffered: 0,
            pool: BatchPool::new(Self::POOL_SPARES),
            timer_pending: false,
            flushes: FlushCounts::default(),
        }
    }

    /// Arm the owning task's age-flush timer (under `key`) if anything
    /// is buffered and no timer is already pending. With
    /// `batch_tuples = 1` buffers never survive a handler, so no timer
    /// is ever scheduled and the per-tuple event timeline is untouched.
    pub fn arm_flush_timer<M: aoj_simnet::SimMessage>(
        &mut self,
        ctx: &mut aoj_simnet::Ctx<'_, M>,
        key: u64,
    ) {
        if !self.is_empty() && !self.timer_pending {
            self.timer_pending = true;
            ctx.schedule(self.cfg.max_delay, key);
        }
    }

    /// The age-flush timer fired: clear the pending flag (the caller
    /// then drains the buffers under [`FlushCause::Deadline`]; the next
    /// push re-arms).
    pub fn on_flush_timer(&mut self) {
        self.timer_pending = false;
    }

    /// Move the flush counts accumulated since the last call into
    /// `machine`'s metrics row.
    pub fn publish_flushes(&mut self, metrics: &mut Metrics, machine: MachineId) {
        let counts = std::mem::take(&mut self.flushes);
        metrics.machine_mut(machine).flushes.merge(&counts);
    }

    /// The configured flush threshold.
    #[inline]
    pub fn batch_tuples(&self) -> usize {
        self.cfg.batch_tuples
    }

    /// The configured age bound.
    #[inline]
    pub fn max_delay(&self) -> SimDuration {
        self.cfg.max_delay
    }

    /// True when nothing is buffered anywhere.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    /// Total buffered tuples across all slots.
    #[inline]
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Queue `t` (with its operator arrival time) on `slot`. Returns true
    /// when the slot reached the flush threshold — the caller should
    /// [`take`](DataCoalescer::take) and ship it.
    pub fn push(&mut self, slot: usize, t: Tuple, arrived: SimTime) -> bool {
        let p = &mut self.slots[slot];
        p.tuples.push(t);
        p.arrived.push(arrived);
        self.buffered += 1;
        p.tuples.len() >= self.cfg.batch_tuples
    }

    /// Take the batch that filled `slot` ([`push`](DataCoalescer::push)
    /// returned true), leaving the slot empty; counted as a
    /// [`FlushCause::Size`] flush. `None` if the slot holds nothing. The
    /// slot's replacement storage comes from the recycling pool (or one
    /// exact-capacity allocation), so refilling it never pays
    /// `Vec::new()`'s doubling growth.
    pub fn take(&mut self, slot: usize) -> Option<(Vec<Tuple>, Vec<SimTime>)> {
        self.take_as(slot, FlushCause::Size)
    }

    fn take_as(&mut self, slot: usize, cause: FlushCause) -> Option<(Vec<Tuple>, Vec<SimTime>)> {
        if self.slots[slot].tuples.is_empty() {
            return None;
        }
        let (et, ea) = self.pool.get_pair(self.cfg.batch_tuples);
        let p = &mut self.slots[slot];
        self.buffered -= p.tuples.len();
        self.flushes.note(cause, p.tuples.len());
        Some((
            std::mem::replace(&mut p.tuples, et),
            std::mem::replace(&mut p.arrived, ea),
        ))
    }

    /// Hand consumed batch storage (a batch received off the mailbox)
    /// back for the next flush.
    pub fn recycle(&mut self, tuples: Vec<Tuple>, arrived: Vec<SimTime>) {
        self.pool.put_pair(tuples, arrived);
    }

    /// Drain every non-empty slot in slot order, counted under `cause`:
    /// `(slot, tuples, arrived)`.
    pub fn drain_all(&mut self, cause: FlushCause) -> Vec<(usize, Vec<Tuple>, Vec<SimTime>)> {
        let mut out = Vec::new();
        for slot in 0..self.slots.len() {
            if let Some((tuples, arrived)) = self.take_as(slot, cause) {
                out.push((slot, tuples, arrived));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoj_core::tuple::Rel;

    fn t(seq: u64) -> Tuple {
        Tuple::new(Rel::R, seq, 0, seq)
    }

    #[test]
    fn push_signals_full_at_threshold() {
        let mut c = DataCoalescer::new(BatchConfig::new(3), 2);
        assert!(!c.push(0, t(0), SimTime(1)));
        assert!(!c.push(0, t(1), SimTime(2)));
        assert!(!c.push(1, t(2), SimTime(2)), "other slot fills separately");
        assert!(c.push(0, t(3), SimTime(3)));
        let (tuples, arrived) = c.take(0).unwrap();
        assert_eq!(tuples.iter().map(|x| x.seq).collect::<Vec<_>>(), [0, 1, 3]);
        assert_eq!(
            arrived.iter().map(|a| a.as_micros()).collect::<Vec<_>>(),
            [1, 2, 3],
            "per-tuple arrival times ride along in order"
        );
        assert_eq!(c.buffered(), 1);
        assert!(c.take(0).is_none());
    }

    #[test]
    fn pool_recycles_capacity_and_respects_cap() {
        let mut pool = BatchPool::new(1);
        let (mut t, mut a) = pool.get_pair(64);
        assert!(t.capacity() >= 64 && a.capacity() >= 64);
        t.push(super::Tuple::new(aoj_core::tuple::Rel::R, 0, 0, 0));
        a.push(SimTime(1));
        let (cap_t, cap_a) = (t.capacity(), a.capacity());
        pool.put_pair(t, a);
        assert_eq!(pool.spares(), (1, 1));
        let (t2, a2) = pool.get_pair(8);
        assert!(
            t2.is_empty() && a2.is_empty(),
            "recycled storage is cleared"
        );
        assert_eq!(t2.capacity(), cap_t, "capacity survives the cycle");
        assert_eq!(a2.capacity(), cap_a);
        // Over-cap returns are dropped, zero-capacity returns ignored.
        pool.put_pair(t2, a2);
        pool.put_pair(Vec::with_capacity(4), Vec::with_capacity(4));
        assert_eq!(pool.spares(), (1, 1));
        pool.put_pair(Vec::new(), Vec::new());
        assert_eq!(pool.spares(), (1, 1));
    }

    #[test]
    fn take_leaves_presized_storage_and_recycle_feeds_it() {
        let mut c = DataCoalescer::new(BatchConfig::new(4), 1);
        for i in 0..4u64 {
            c.push(0, t(i), SimTime(i));
        }
        let (tuples, arrived) = c.take(0).unwrap();
        // The shipped vectors' replacements are pre-sized: refilling the
        // slot to the threshold must not grow.
        c.push(0, t(9), SimTime(9));
        c.recycle(tuples, arrived);
        let (tuples2, _) = c.take(0).unwrap();
        assert_eq!(tuples2.len(), 1);
        assert!(tuples2.capacity() >= 4, "slot refill storage is pre-sized");
    }

    #[test]
    fn batch_of_one_flushes_immediately() {
        let mut c = DataCoalescer::new(BatchConfig::new(1), 1);
        assert!(c.push(0, t(7), SimTime::ZERO), "threshold 1: full at once");
        assert_eq!(c.take(0).unwrap().0.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn drain_all_preserves_per_slot_order() {
        let mut c = DataCoalescer::new(BatchConfig::new(100), 3);
        for i in 0..9u64 {
            c.push((i % 3) as usize, t(i), SimTime(i));
        }
        let drained = c.drain_all(FlushCause::Boundary);
        assert_eq!(drained.len(), 3);
        for (slot, tuples, arrived) in drained {
            let seqs: Vec<u64> = tuples.iter().map(|x| x.seq).collect();
            assert_eq!(seqs, [slot as u64, slot as u64 + 3, slot as u64 + 6]);
            assert_eq!(arrived.len(), tuples.len());
        }
        assert!(c.is_empty());
    }

    #[test]
    fn flushes_are_counted_by_cause_and_published_once() {
        let mut metrics = Metrics::default();
        metrics.add_machine();
        let mut c = DataCoalescer::new(BatchConfig::new(4), 2);
        for i in 0..5u64 {
            if c.push(0, t(i), SimTime(i)) {
                c.take(0).unwrap();
            }
        }
        c.push(1, t(5), SimTime(5));
        assert_eq!(c.drain_all(FlushCause::Deadline).len(), 2);
        c.push(1, t(6), SimTime(6));
        c.drain_all(FlushCause::Boundary);
        assert!(c.drain_all(FlushCause::Boundary).is_empty(), "nothing left");

        c.publish_flushes(&mut metrics, MachineId(0));
        c.publish_flushes(&mut metrics, MachineId(0));
        let f = metrics.total_flushes();
        assert_eq!(f.batches, [1, 2, 1], "size, deadline, boundary");
        assert_eq!(f.tuples, [4, 2, 1]);
    }

    #[test]
    fn zero_threshold_clamps_to_one() {
        let c = DataCoalescer::new(BatchConfig::new(0), 1);
        assert_eq!(c.batch_tuples(), 1);
    }
}
