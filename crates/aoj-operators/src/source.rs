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
            let mut items = Vec::with_capacity(self.scratch.len());
            for (rel, item) in self.scratch.drain(..) {
                items.push(IngestItem {
                    rel,
                    key: item.key,
                    aux: item.aux,
                    bytes: item.bytes,
                    seq: self.cursor as u64,
                });
                self.cursor += 1;
                budget -= 1;
            }
            ctx.send(dst, OpMsg::IngestBatch { items });
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
                if let Some(first) = items.first() {
                    let block = first.seq as usize / self.batch_tuples;
                    let dst = self.active[block % self.active.len()];
                    ctx.send(dst, OpMsg::IngestBatch { items });
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
        let input = IngestQueue::bounded(64, false);
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
