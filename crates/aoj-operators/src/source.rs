//! The stream source: drains the session's ingest queue into the
//! reshufflers at a configurable rate, round-robin (§3.2: "An incoming
//! tuple to the operator is randomly routed to a reshuffler task").
//!
//! Since the live-session redesign the source pulls from an external
//! bounded [`IngestQueue`] instead of walking a pre-materialized slice:
//! callers push tuples while the operator runs, and closing the queue is
//! the end-of-stream signal. A source that finds the queue empty and
//! open parks until the next push or `close` wakes it; it does not poll.

use std::sync::Arc;

use aoj_core::lifecycle::{WindowMode, WindowSpec};
use aoj_core::tuple::Rel;
use aoj_datagen::queries::StreamItem;
use aoj_simnet::{Ctx, Process, SimDuration, TaskId, Waker};

use crate::messages::{IngestItem, OpMsg};
use crate::session::{IngestQueue, Inlet};

/// Emission pacing.
#[derive(Clone, Copy, Debug)]
pub struct SourcePacing {
    /// Tuples emitted per timer tick.
    pub burst: u32,
    /// Virtual time between ticks.
    pub interval: SimDuration,
}

impl SourcePacing {
    /// Emit as fast as the simulation allows (saturating the joiners, as
    /// the paper configures for throughput/runtime experiments).
    pub fn saturating() -> SourcePacing {
        SourcePacing {
            burst: 64,
            interval: SimDuration::from_micros(1),
        }
    }

    /// Approximately `rate` tuples per virtual second.
    pub fn per_second(rate: u64) -> SourcePacing {
        let burst = 16u32;
        let interval = SimDuration::from_micros((1_000_000 * burst as u64 / rate.max(1)).max(1));
        SourcePacing { burst, interval }
    }
}

/// The flow-control window a session runs with when the caller sets
/// none, in tuple copies: eight coalesced batches per joiner, and never
/// below the per-tuple plane's `64·J`. A window under `J·batch_tuples`
/// closes before any coalescing buffer can fill, so every batch would
/// wait out its age bound and throughput would be window ÷ timer. Four
/// batches per joiner clear that cliff too but measured 15 % below
/// eight on the TCP backend, whose credit round trip crosses sockets.
/// The price of a wider window is queueing: saturated latency is
/// window ÷ throughput, and triggers lag the source by up to a window.
pub(crate) fn default_window_copies(j: u32, batch_tuples: usize) -> u64 {
    j as u64 * (8 * batch_tuples as u64).max(64)
}

/// Where the `ILF/ILF*` trace samples the stream, and the exact `(R, S)`
/// it reads there. The source sees every arrival in sequence order, so
/// it keeps the counts; it also applies the sampling rule, since a
/// sample may fall mid-batch and its counts are exact only there.
///
/// The rule: the first sequence number at or past `next_at` among the
/// tuples dealt to the controller, then `next_at = seq + every`; at most
/// one per ingest batch (the batch carries one stamp). Under a count
/// window the counts cover the last `span` arrivals, whose relations a
/// ring of `span` bits remembers; without one they are two counters.
#[derive(Debug)]
pub(crate) struct TraceSampler {
    every: u64,
    next_at: u64,
    r: u64,
    s: u64,
    /// Under a count window: `span`, and the relation of arrival `seq`
    /// at bit `seq % span` (set = R), grown to `span` bits and then
    /// overwritten in place.
    ring: Option<(u64, Vec<u64>)>,
}

impl TraceSampler {
    /// A sampler every `every` sequence numbers over a fresh stream;
    /// `None` under a time window, whose population depends on arrival
    /// instants the source does not see.
    pub(crate) fn new(every: u64, window: Option<WindowSpec>) -> Option<TraceSampler> {
        let span = match window {
            None => None,
            Some(w) if w.mode == WindowMode::Count => Some(w.span.max(1)),
            Some(_) => return None,
        };
        Some(TraceSampler {
            every: every.max(1),
            next_at: 0,
            r: 0,
            s: 0,
            ring: span.map(|span| (span, Vec::new())),
        })
    }

    /// Count arrival `seq` (sequence numbers arrive in order from 0)
    /// and, when `to_controller` and the rule picks it, return its stamp
    /// `(seq, |R|, |S|)`.
    fn observe(&mut self, seq: u64, rel: Rel, to_controller: bool) -> Option<(u64, u64, u64)> {
        let is_r = rel == Rel::R;
        if let Some((span, bits)) = &mut self.ring {
            let at = seq % *span;
            let (word, bit) = ((at / 64) as usize, at % 64);
            if seq >= *span {
                // Arrival `seq - span` leaves the window.
                if bits[word] >> bit & 1 == 1 {
                    self.r -= 1;
                } else {
                    self.s -= 1;
                }
                bits[word] &= !(1 << bit);
            } else if bit == 0 {
                bits.push(0);
            }
            bits[word] |= u64::from(is_r) << bit;
        }
        if is_r {
            self.r += 1;
        } else {
            self.s += 1;
        }
        if !to_controller || seq < self.next_at {
            return None;
        }
        self.next_at = seq + self.every;
        Some((seq, self.r, self.s))
    }
}

/// The source task: timer-paced emission under credit-based flow control,
/// parked while the ingest queue is empty.
///
/// The paper's substrate (Storm) bounds the number of un-processed tuples
/// a spout may have outstanding; without that backpressure, a saturating
/// source would queue the whole stream ahead of the operator and epoch
/// signals — which travel FIFO behind data — would take the entire backlog
/// to propagate. Reshufflers report fanned-out copies, joiners return
/// credits as they process; emission pauses while
/// `routed − processed ≥ window_copies`. The same window is what the
/// session API surfaces to callers: while it is closed the source stops
/// draining the ingest queue, the queue fills, and pushes block (or
/// report `Full`).
///
/// An empty, open queue parks the source ([`Ctx::park`]): a timer with
/// no deadline that every backend counts as outstanding work, so an idle
/// open session stays alive without waking. The park is recorded under
/// the queue's lock together with the emptiness check, and the push or
/// `close` that next finds the source parked wakes it — through the
/// [`Waker`] a live backend installs, or, on the simulator, through the
/// session pump, which starts the source's timer at the current instant.
pub(crate) struct SourceTask {
    /// The external ingest queue this source drains.
    pub(crate) input: Arc<IngestQueue>,
    /// Arrivals consumed so far — the next tuple's global sequence
    /// number.
    pub(crate) cursor: usize,
    /// Reshuffler task ids by machine index (the full provisioned slot
    /// space under an elastic run).
    pub(crate) reshufflers: Vec<TaskId>,
    /// The active round-robin targets, in machine-index order. Replaced
    /// wholesale by [`OpMsg::SourceResize`] (elastic expansion and
    /// contraction) — an explicit list, because after contractions the
    /// active machines are not an index prefix.
    pub(crate) active: Vec<TaskId>,
    /// Pacing.
    pub pacing: SourcePacing,
    /// Tuples per [`OpMsg::IngestBatch`]: arrivals are emitted in
    /// consecutive blocks of this size, round-robined **per block** over
    /// the active reshufflers (block `k` → reshuffler `k mod active`).
    /// 1 reproduces per-tuple round-robin exactly.
    pub batch_tuples: usize,
    /// Maximum tuple copies in flight (0 disables flow control).
    pub window_copies: u64,
    /// Copies fanned out so far (reported by reshufflers).
    pub(crate) routed_copies: u64,
    /// Tuples routed so far (one [`OpMsg::RoutedCopies`] per ingest
    /// batch, carrying its tuple count).
    pub(crate) routed_tuples: u64,
    /// Copies fully processed so far (reported by joiners).
    pub processed_copies: u64,
    /// The `ILF/ILF*` trace's counts and sampling rule; `None` for the
    /// SHJ baseline (no controller), under a time window, and in a
    /// restored session (the pre-checkpoint prefix is gone).
    pub(crate) trace: Option<TraceSampler>,
    /// True while an emission tick is scheduled or the source is parked.
    tick_pending: bool,
    /// Scratch buffer for queue drains.
    scratch: Vec<(Rel, StreamItem)>,
}

impl SourceTask {
    /// Timer key used for emission ticks.
    pub(crate) const TICK: u64 = 1;

    /// Build a source draining `input`, emitting `batch_tuples`-sized
    /// ingest batches under a `window_copies` flow-control window.
    pub(crate) fn new(
        input: Arc<IngestQueue>,
        reshufflers: Vec<TaskId>,
        pacing: SourcePacing,
        window_copies: u64,
        batch_tuples: usize,
    ) -> SourceTask {
        let active = reshufflers.clone();
        SourceTask {
            input,
            cursor: 0,
            reshufflers,
            active,
            pacing,
            batch_tuples: batch_tuples.max(1),
            window_copies,
            routed_copies: 0,
            routed_tuples: 0,
            processed_copies: 0,
            trace: None,
            tick_pending: true, // the driver schedules the first tick
            scratch: Vec::new(),
        }
    }

    fn window_open(&self) -> bool {
        if self.window_copies == 0 {
            return true;
        }
        // Gate 1: copies sitting in joiner queues (routed − processed).
        let copies_ok =
            self.routed_copies.saturating_sub(self.processed_copies) < self.window_copies;
        // Gate 2: emitted-but-unrouted ingests — a busy reshuffler must not
        // accumulate an unbounded backlog, or delivery-order skew between
        // tuples would grow past any fixed horizon (this is what Storm's
        // spout-pending bounds: emission-to-ack, not routing-to-ack).
        // Sized at a full window so it only binds on pathological routing
        // backlogs, not on the steady-state credit round trip.
        let tuple_window = self.window_copies.max(32);
        let unrouted_ok = (self.cursor as u64).saturating_sub(self.routed_tuples) < tuple_window;
        copies_ok && unrouted_ok
    }

    /// How many more tuples gate 2 admits right now (gate 1 does not
    /// move during a pump — credits arrive as messages, not mid-handler).
    fn unrouted_allowance(&self) -> usize {
        if self.window_copies == 0 {
            return usize::MAX;
        }
        let tuple_window = self.window_copies.max(32);
        tuple_window.saturating_sub((self.cursor as u64).saturating_sub(self.routed_tuples))
            as usize
    }

    fn pump(&mut self, ctx: &mut Ctx<'_, OpMsg>) {
        let mut budget = self.pacing.burst as usize;
        while budget > 0 && self.window_open() {
            // Arrivals are blocked into fixed `batch_tuples` runs; block k
            // always goes to reshuffler k mod active, so a batch cut
            // short (burst budget, window, or a momentarily empty queue)
            // resumes to the same destination and the routing is
            // independent of pacing and push timing.
            let block = self.cursor / self.batch_tuples;
            let dst = self.active[block % self.active.len()];
            let block_end = (block + 1) * self.batch_tuples;
            let want = budget
                .min(block_end - self.cursor)
                .min(self.unrouted_allowance());
            if want == 0 {
                break;
            }
            self.scratch.clear();
            self.input.pop_upto(want, &mut self.scratch);
            if self.scratch.is_empty() {
                break;
            }
            // The controller is reshuffler 0.
            let to_controller = dst == self.reshufflers[0];
            let mut stamp = None;
            let mut items = Vec::with_capacity(self.scratch.len());
            for (rel, item) in self.scratch.drain(..) {
                let seq = self.cursor as u64;
                if let Some(trace) = &mut self.trace {
                    let picked = trace.observe(seq, rel, to_controller && stamp.is_none());
                    stamp = stamp.or(picked);
                }
                items.push(IngestItem {
                    rel,
                    key: item.key,
                    aux: item.aux,
                    bytes: item.bytes,
                    seq,
                });
                self.cursor += 1;
                budget -= 1;
            }
            ctx.send(dst, OpMsg::IngestBatch { items, stamp });
        }
        // Reschedule: pace on while input is ready and the window open;
        // park while the queue is open but empty (the next push or close
        // wakes the source); otherwise go quiet — credits re-pump a
        // closed window, and a drained, closed queue is the end.
        match self.input.poll_or_park() {
            Inlet::Ready if self.window_open() => {
                self.tick_pending = true;
                ctx.schedule(self.pacing.interval, Self::TICK);
            }
            Inlet::Parked => {
                self.tick_pending = true;
                ctx.park(Self::TICK);
            }
            Inlet::Ready | Inlet::Drained => self.tick_pending = false,
        }
    }
}

impl Process<OpMsg> for SourceTask {
    fn on_message(&mut self, ctx: &mut Ctx<'_, OpMsg>, _from: TaskId, msg: OpMsg) -> SimDuration {
        match msg {
            OpMsg::RoutedCopies { n, tuples } => {
                self.routed_copies += n as u64;
                self.routed_tuples += tuples as u64;
                // Routing progress may have re-opened the tuple gate.
                if !self.tick_pending {
                    self.pump(ctx);
                }
            }
            OpMsg::ProcessedCopies { n } => {
                self.processed_copies += n as u64;
                // Credits may have re-opened the window.
                if !self.tick_pending {
                    self.pump(ctx);
                }
            }
            OpMsg::IngestBounced { items } => {
                // A retiring reshuffler handed back ingest it can no
                // longer route (its machine left the active set while
                // this batch was in flight). Re-emit to an active
                // reshuffler — keyed by the batch's block so the
                // re-route is deterministic. If another contraction
                // raced us the target may bounce again; each hop makes
                // progress because this list converges via SourceResize.
                // A re-deal carries no trace stamp: the rule ran on the
                // block's first deal.
                if let Some(first) = items.first() {
                    let block = first.seq as usize / self.batch_tuples;
                    let dst = self.active[block % self.active.len()];
                    ctx.send(dst, OpMsg::IngestBatch { items, stamp: None });
                }
            }
            OpMsg::SourceResize { reshufflers } => {
                // An expansion's freshly activated reshufflers join the
                // round-robin set; a contraction's retiring ones leave it.
                assert!(
                    !reshufflers.is_empty() && reshufflers.len() <= self.reshufflers.len(),
                    "the active set is never empty, never past the provisioned set"
                );
                assert!(
                    reshufflers.len() != self.active.len(),
                    "SourceResize must change the active set's size"
                );
                let grew = reshufflers.len() > self.active.len();
                // The window bounds in-flight copies *per joiner*, so
                // it must scale with the cluster — otherwise the
                // joiners' batched credit returns (up to
                // CREDIT_BATCH − 1 stuck per joiner) could exceed a
                // fixed window outright and wedge the source.
                if self.window_copies > 0 {
                    // Multiply before dividing: rounding a small window
                    // down to 0 would read as "flow control disabled".
                    self.window_copies = (self.window_copies * reshufflers.len() as u64
                        / self.active.len() as u64)
                        .max(1);
                }
                self.active = reshufflers;
                // A wider window may re-open emission. A narrowed one
                // cannot: the in-flight copies above it drain as the
                // survivors (and the retirees' last Δ batches) return
                // credits, and emission stays paused meanwhile.
                if grew && !self.tick_pending {
                    self.pump(ctx);
                }
            }
            other => panic!("source received unexpected message {other:?}"),
        }
        SimDuration::ZERO
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, OpMsg>, _key: u64) -> SimDuration {
        self.input.note_source_wakeup();
        self.tick_pending = false;
        self.pump(ctx);
        SimDuration::ZERO
    }

    fn install_waker(&mut self, waker: Waker) {
        self.input.install_waker(waker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one source timer event and return its effects.
    fn tick(src: &mut SourceTask) -> Vec<aoj_simnet::Effect<OpMsg>> {
        let mut metrics = aoj_simnet::Metrics::default();
        let mut ctx = Ctx::new(aoj_simnet::SimTime::ZERO, &mut metrics);
        src.on_timer(&mut ctx, SourceTask::TICK);
        ctx.take_effects()
    }

    #[test]
    fn an_empty_open_queue_parks_the_source_and_a_push_wakes_it() {
        use aoj_simnet::Effect;
        let input = IngestQueue::bounded(64);
        let wakes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut src = SourceTask::new(
            Arc::clone(&input),
            vec![TaskId(0)],
            SourcePacing::saturating(),
            0,
            4,
        );
        let w = Arc::clone(&wakes);
        src.install_waker(Arc::new(move || {
            w.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        let effects = tick(&mut src);
        assert!(matches!(
            effects[..],
            [Effect::Park {
                key: SourceTask::TICK
            }]
        ));
        assert_eq!(input.source_wakeups(), 1);
        // While parked, credits do not re-pump: the park is the pending tick.
        assert!(src.tick_pending);
        let item = StreamItem {
            key: 1,
            aux: 0,
            bytes: 64,
        };
        input.push(Rel::R, item).unwrap();
        assert_eq!(wakes.load(std::sync::atomic::Ordering::SeqCst), 1);
        // The woken source emits the tuple and parks again.
        let effects = tick(&mut src);
        assert!(matches!(
            effects[..],
            [Effect::Send { .. }, Effect::Park { .. }]
        ));
        // Closed and drained: the source goes quiet for good.
        input.close();
        assert_eq!(wakes.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert!(tick(&mut src).is_empty());
        assert!(!src.tick_pending);
    }

    /// An ingest batch as (destination, sequence numbers, stamp).
    type Dealt = (TaskId, Vec<u64>, Option<(u64, u64, u64)>);

    /// Drain `rels` (true = R) through a source dealing `batch`-tuple
    /// blocks over `j` reshufflers, sampling every `every` tuples.
    fn deal(
        rels: &[bool],
        j: usize,
        batch: usize,
        every: u64,
        window: Option<WindowSpec>,
    ) -> Vec<Dealt> {
        let input = IngestQueue::bounded(rels.len().max(1));
        for &is_r in rels {
            let rel = if is_r { Rel::R } else { Rel::S };
            let item = StreamItem {
                key: 0,
                aux: 0,
                bytes: 64,
            };
            input.push(rel, item).unwrap();
        }
        input.close();
        let reshufflers = (0..j).map(TaskId).collect();
        let mut src = SourceTask::new(input, reshufflers, SourcePacing::saturating(), 0, batch);
        src.trace = TraceSampler::new(every, window);
        let mut batches = Vec::new();
        while src.cursor < rels.len() {
            for effect in tick(&mut src) {
                if let aoj_simnet::Effect::Send {
                    to,
                    msg: OpMsg::IngestBatch { items, stamp },
                } = effect
                {
                    batches.push((to, items.iter().map(|it| it.seq).collect(), stamp));
                }
            }
        }
        batches
    }

    /// The controller-side rule the source took over: the first tuple
    /// at or past `next_at` among those dealt to the controller
    /// (reshuffler 0), then `next_at = seq + every`; with `capped`, at
    /// most one per batch, as a batch carries one stamp.
    fn controller_rule(batches: &[Dealt], every: u64, capped: bool) -> Vec<u64> {
        let mut next_at = 0;
        let mut picks = Vec::new();
        for (_, seqs, _) in batches.iter().filter(|b| b.0 == TaskId(0)) {
            for &seq in seqs {
                if seq >= next_at {
                    picks.push(seq);
                    next_at = seq + every;
                    if capped {
                        break;
                    }
                }
            }
        }
        picks
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every stamp is the exact `(|R|, |S|)` of the pushed stream up
        /// to its tuple — over the last `span` arrivals under a count
        /// window — and the stamps fall where the controller used to
        /// sample.
        #[test]
        fn stamps_hold_exact_counts_where_the_controller_sampled(
            rels in proptest::collection::vec(proptest::prelude::any::<bool>(), 0..1_500),
            j_log in 0u32..4,
            batch in 1usize..80,
            every in 1u64..300,
            span in 0u64..400,
        ) {
            let j = 1usize << j_log;
            let window = (span > 0).then(|| WindowSpec::count(span));
            let batches = deal(&rels, j, batch, every, window);
            // The prefix-sum oracle: `(R, S)` among the first `k`.
            let mut prefix = vec![(0u64, 0u64)];
            for &is_r in &rels {
                let (r, s) = *prefix.last().unwrap();
                prefix.push(if is_r { (r + 1, s) } else { (r, s + 1) });
            }
            let counts = |seq: u64| {
                let k = seq as usize + 1;
                let (r, s) = prefix[k];
                let from = if span > 0 { k.saturating_sub(span as usize) } else { 0 };
                let (r0, s0) = prefix[from];
                (r - r0, s - s0)
            };
            let mut stamped = Vec::new();
            for (to, seqs, stamp) in &batches {
                if let Some((seq, r, s)) = *stamp {
                    proptest::prop_assert_eq!(*to, TaskId(0), "only the controller's batches");
                    proptest::prop_assert!(seqs.contains(&seq));
                    proptest::prop_assert_eq!((r, s), counts(seq), "seq {}", seq);
                    stamped.push(seq);
                }
            }
            proptest::prop_assert_eq!(&stamped, &controller_rule(&batches, every, true));
            // A spacing of at least one block never puts two of the old
            // rule's samples in one batch: there the points are the old
            // rule's own.
            let old = controller_rule(&batches, every, false);
            if every >= batch as u64 {
                proptest::prop_assert_eq!(&stamped, &old);
            }
        }
    }

    #[test]
    fn the_count_window_ring_stays_at_span_bits() {
        let span = 1_000u64;
        let mut trace = TraceSampler::new(1, Some(WindowSpec::count(span))).unwrap();
        for seq in 0..10 * span {
            let rel = if seq % 3 == 0 { Rel::R } else { Rel::S };
            trace.observe(seq, rel, false);
        }
        let (_, bits) = trace.ring.as_ref().unwrap();
        assert_eq!(
            bits.len() as u64,
            span.div_ceil(64),
            "span bits, not 10 x span"
        );
        assert_eq!(trace.r + trace.s, span);
        // A time window's population depends on arrival instants.
        assert!(TraceSampler::new(1, Some(WindowSpec::time_micros(5))).is_none());
    }

    #[test]
    fn pacing_constructors() {
        let s = SourcePacing::saturating();
        assert!(s.burst >= 1);
        let p = SourcePacing::per_second(1_000_000);
        // 16 tuples per 16us = 1M/s.
        assert_eq!(p.interval.as_micros(), 16);
        let slow = SourcePacing::per_second(1);
        assert!(slow.interval.as_micros() >= 1_000_000);
    }
}
