//! The stream source: drains the session's ingest queue into the
//! reshufflers at a configurable rate, round-robin (§3.2: "An incoming
//! tuple to the operator is randomly routed to a reshuffler task").
//!
//! Since the live-session redesign the source pulls from an external
//! bounded [`IngestQueue`] instead of walking a pre-materialized slice:
//! callers push tuples while the operator runs, and closing the queue is
//! the end-of-stream signal.

use std::sync::Arc;

use aoj_core::tuple::Rel;
use aoj_datagen::queries::StreamItem;
use aoj_simnet::{Ctx, Process, SimDuration, TaskId};

use crate::messages::{IngestItem, OpMsg};
use crate::session::IngestQueue;

/// How often a live session's source re-checks an empty-but-open ingest
/// queue, in microseconds — the push-visibility latency floor while the
/// operator is idle.
pub const IDLE_POLL_US: u64 = 200;

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
pub fn default_window_copies(j: u32, batch_tuples: usize) -> u64 {
    j as u64 * (8 * batch_tuples as u64).max(64)
}

/// The source task: timer-paced emission under credit-based flow control.
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
pub struct SourceTask {
    /// The external ingest queue this source drains.
    pub input: Arc<IngestQueue>,
    /// Arrivals consumed so far — the next tuple's global sequence
    /// number.
    pub cursor: usize,
    /// Reshuffler task ids by machine index (the full provisioned slot
    /// space under an elastic run).
    pub reshufflers: Vec<TaskId>,
    /// The active round-robin targets, in machine-index order. Replaced
    /// wholesale by [`OpMsg::SourceResize`] (elastic expansion and
    /// contraction) — an explicit list, because after contractions the
    /// active machines are not an index prefix.
    pub active: Vec<TaskId>,
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
    pub routed_copies: u64,
    /// Tuples routed so far (one [`OpMsg::RoutedCopies`] per ingest
    /// batch, carrying its tuple count).
    pub routed_tuples: u64,
    /// Copies fully processed so far (reported by joiners).
    pub processed_copies: u64,
    /// Re-check an empty-but-open queue every [`IDLE_POLL_US`]. Set on
    /// live sessions, where the pending poll timer is also what keeps
    /// the run from terminating while the session is open; clear on the
    /// simulator, which quiesces instead and is re-armed by the
    /// session's pump on the next push.
    pub idle_poll: bool,
    /// True while an emission tick is scheduled.
    tick_pending: bool,
    /// Scratch buffer for queue drains.
    scratch: Vec<(Rel, StreamItem)>,
}

impl SourceTask {
    /// Timer key used for emission ticks.
    pub const TICK: u64 = 1;

    /// Build a source draining `input`, emitting `batch_tuples`-sized
    /// ingest batches under a `window_copies` flow-control window.
    pub fn new(
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
            idle_poll: false,
            tick_pending: true, // the driver schedules the first tick
            scratch: Vec::new(),
        }
    }

    /// Re-arm the source from outside the backend (the simulator
    /// session's pump, after new input arrived while the source was
    /// quiescent). Returns true when the caller must schedule a
    /// [`SourceTask::TICK`] timer; false when one is already pending.
    pub(crate) fn arm_external_tick(&mut self) -> bool {
        if self.tick_pending {
            return false;
        }
        self.tick_pending = true;
        true
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
        // idle-poll (live threaded sessions) while the queue is open but
        // empty; otherwise go quiet — credits re-pump a closed window,
        // and the session pump re-arms a quiescent simulator source.
        let (empty, closed) = self.input.status();
        if !empty && self.window_open() {
            self.tick_pending = true;
            ctx.schedule(self.pacing.interval, Self::TICK);
        } else if empty && !closed {
            self.tick_pending = self.idle_poll;
            if self.idle_poll {
                ctx.schedule(SimDuration::from_micros(IDLE_POLL_US), Self::TICK);
            }
        } else {
            self.tick_pending = false;
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
        self.tick_pending = false;
        self.pump(ctx);
        SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn external_arm_is_edge_triggered() {
        let input = IngestQueue::detached();
        let mut src = SourceTask::new(input, vec![TaskId(0)], SourcePacing::saturating(), 0, 1);
        // Fresh sources have the bootstrap tick pending.
        assert!(!src.arm_external_tick());
        src.tick_pending = false;
        assert!(src.arm_external_tick());
        assert!(!src.arm_external_tick(), "second arm must be a no-op");
    }
}
