//! Skew-aware routing state and the cross-shard sketch board.
//!
//! Each reshuffler owns a [`SkewState`]: the run's routing policy, a
//! per-relation [`SkewSketch`] it feeds as it routes, and a slot on the
//! shared [`SkewBoard`] where it periodically publishes its sketch in
//! wire form. The board is how the rest of the system sees skew:
//!
//! * `stats()` / `RunReport` merge the published shards (deterministic
//!   slot order) into the session-wide heavy-hitter summary;
//! * on the TCP backend the worker attaches each machine's published
//!   parts to its gauge-sample frames, and the coordinator republishes
//!   them into its own board — the same path `SharedGauges` travel.
//!
//! The board is read for reporting only: hot-key flagging uses each
//! reshuffler's own sketch, and no migration or elasticity trigger reads
//! either. Under [`RoutingMode::Random`] nothing routes by the sketch at
//! all, so there it is fed a sample of one tuple in 64, chosen by the
//! ticket the tuple draws anyway (see [`SkewState::ticket`]).
//!
//! Routing policy never affects exactness. In the matrix assignment any
//! row and any column intersect in exactly one cell, so the ticket choice
//! — uniform, key-derived, or hot-split — only moves *where* state lands,
//! never *whether* a pair meets. That is why [`SkewState::ticket`] can
//! flip a key from keyed to hot-split placement mid-stream with no
//! transition protocol, and why the cross-backend multiset tests pin
//! bit-identical join outputs across routing modes' backends.

use std::sync::{Arc, Mutex};

use aoj_core::sketch::{SkewConfig, SkewRel, SkewSketch};
use aoj_core::ticket::{column_ticket, keyed_ticket, RoutingMode, TicketGen};
use aoj_core::tuple::Rel;

/// Under [`RoutingMode::Random`] a reshuffler's sketch observes one routed
/// tuple in `SAMPLE` (a power of two), weighted `SAMPLE ×` its bytes.
const SAMPLE: u64 = 64;

/// A reshuffler publishes its sketch to the board every this many routed
/// tuples (flush points always publish).
const PUBLISH_EVERY: u64 = 4096;

/// Run-level skew-handling knobs (the `skew` section of
/// [`SessionBuilder`](crate::session::SessionBuilder)).
#[derive(Clone, Copy, Debug, Default)]
pub struct SkewPolicy {
    /// How reshufflers pick tickets (default [`RoutingMode::Random`], the
    /// paper's content-insensitive operator — bit-identical to runs
    /// predating this module).
    pub routing: RoutingMode,
    /// Sketch sizing and the heavy-hitter threshold.
    pub sketch: SkewConfig,
}

impl SkewPolicy {
    /// Builder: set the routing mode.
    pub fn with_routing(mut self, routing: RoutingMode) -> SkewPolicy {
        self.routing = routing;
        self
    }

    /// Builder: set the sketch configuration.
    pub fn with_sketch(mut self, sketch: SkewConfig) -> SkewPolicy {
        self.sketch = sketch;
        self
    }
}

/// Shared board of per-machine published sketches (wire `parts` form).
///
/// One slot per machine slot; a reshuffler publishes into its own slot
/// only, so contention is negligible and [`SkewBoard::merged`] folds the
/// slots in index order — deterministic across runs and backends.
#[derive(Debug)]
pub struct SkewBoard {
    slots: Mutex<Vec<Option<Vec<u64>>>>,
}

impl SkewBoard {
    /// A board with `slots` empty machine slots.
    pub fn new(slots: usize) -> Arc<SkewBoard> {
        Arc::new(SkewBoard {
            slots: Mutex::new(vec![None; slots]),
        })
    }

    /// Number of machine slots.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Whether the board has any slots at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace `slot`'s published sketch. Out-of-range slots are ignored
    /// (a late frame from a retired machine must not panic the session).
    pub fn publish(&self, slot: usize, parts: Vec<u64>) {
        let mut slots = self.slots.lock().unwrap();
        if let Some(s) = slots.get_mut(slot) {
            *s = Some(parts);
        }
    }

    /// The latest published parts for `slot`, if any.
    pub fn parts(&self, slot: usize) -> Option<Vec<u64>> {
        self.slots.lock().unwrap().get(slot).cloned().flatten()
    }

    /// Merge every published shard in slot order. `None` until at least
    /// one shard has published.
    pub fn merged(&self) -> Option<SkewSketch> {
        let slots = self.slots.lock().unwrap();
        let mut acc: Option<SkewSketch> = None;
        for parts in slots.iter().flatten() {
            let Some(shard) = SkewSketch::from_parts(parts) else {
                continue;
            };
            match &mut acc {
                Some(a) => a.merge(&shard),
                None => acc = Some(shard),
            }
        }
        acc
    }

    /// The merged sketch as transportable parts (empty until at least
    /// one shard has published) — what a worker process ships in its
    /// gauge frames so the coordinator sees a cluster-wide merge.
    pub fn merged_parts(&self) -> Vec<u64> {
        self.merged().map(|s| s.to_parts()).unwrap_or_default()
    }
}

/// Per-reshuffler skew state: the routing policy plus the sketch it
/// maintains while routing.
#[derive(Debug)]
pub struct SkewState {
    mode: RoutingMode,
    salt: u64,
    /// The local per-relation sketch (public for checkpoint inspection
    /// and tests; routing consults it through [`SkewState::ticket`]).
    pub sketch: SkewSketch,
    rr: u64,
    since_publish: u64,
    board: Option<(Arc<SkewBoard>, usize)>,
}

impl SkewState {
    /// Fresh state under `policy`. `salt` keys the deterministic
    /// key→ticket placement and must be identical across the run's
    /// reshufflers (derive it from the run seed).
    pub fn new(policy: SkewPolicy, salt: u64) -> SkewState {
        SkewState {
            mode: policy.routing,
            salt,
            sketch: SkewSketch::new(policy.sketch),
            rr: 0,
            since_publish: 0,
            board: None,
        }
    }

    /// Builder: publish into `slot` of `board`.
    pub fn with_board(mut self, board: Arc<SkewBoard>, slot: usize) -> SkewState {
        self.board = Some((board, slot));
        self
    }

    /// The active routing mode.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// Observe one routed tuple and choose its ticket under the active
    /// policy. `m` is the current mapping's column count (the round-robin
    /// span for hot probe-side tuples).
    ///
    /// [`RoutingMode::Random`] draws exactly one ticket from `tickets`
    /// per call, preserving bit-identical placement with runs that
    /// predate skew handling. Nothing routes by the sketch in that mode,
    /// so it observes only tuples whose ticket has its low `log2 SAMPLE`
    /// bits clear, weighted `SAMPLE ×` their bytes: the ticket is uniform
    /// and independent of the key, so this is an unbiased Bernoulli
    /// sample that needs no counter and is deterministic per seed (a
    /// fixed stride would alias with any stream whose relation or key
    /// pattern repeats). The keyed modes route by the sketch and observe
    /// every tuple.
    pub fn ticket(
        &mut self,
        tickets: &mut TicketGen,
        rel: Rel,
        key: i64,
        bytes: u32,
        m: u32,
    ) -> u64 {
        let srel = match rel {
            Rel::R => SkewRel::R,
            Rel::S => SkewRel::S,
        };
        let ticket = match self.mode {
            RoutingMode::Random => {
                let ticket = tickets.next();
                if ticket & (SAMPLE - 1) == 0 {
                    self.sketch.observe(srel, key, u64::from(bytes) * SAMPLE);
                }
                ticket
            }
            mode => {
                self.sketch.observe(srel, key, u64::from(bytes));
                if mode == RoutingMode::KeyedHotSplit && self.sketch.is_hot(key) {
                    match rel {
                        // Hot build side: spread replicas over every row
                        // (a fresh uniform ticket), so no single row
                        // stores the whole hot key.
                        Rel::R => tickets.next(),
                        // Hot probe side: round-robin the columns; the
                        // sub-column bits stay uniform so refinement
                        // (elastic expansion) still splits evenly.
                        Rel::S => {
                            let col = (self.rr % m.max(1) as u64) as u32;
                            self.rr += 1;
                            column_ticket(col, m, tickets.next())
                        }
                    }
                } else {
                    keyed_ticket(key, self.salt)
                }
            }
        };
        self.since_publish += 1;
        if self.since_publish >= PUBLISH_EVERY {
            self.publish();
        }
        ticket
    }

    /// Publish the local sketch to the board now (also called on flush
    /// points so close-time summaries include the stream's tail).
    pub fn publish(&mut self) {
        self.since_publish = 0;
        if let Some((board, slot)) = &self.board {
            board.publish(*slot, self.sketch.to_parts());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoj_core::sketch::HeavyHitter;
    use aoj_core::ticket::partition;

    fn hot_policy() -> SkewPolicy {
        SkewPolicy::default()
            .with_routing(RoutingMode::KeyedHotSplit)
            .with_sketch(SkewConfig {
                min_total: 1000,
                ..SkewConfig::default()
            })
    }

    #[test]
    fn random_mode_matches_bare_ticketgen() {
        let mut st = SkewState::new(SkewPolicy::default(), 7);
        let mut gen_a = TicketGen::new(42);
        let mut gen_b = TicketGen::new(42);
        for i in 0..100 {
            let t = st.ticket(&mut gen_a, Rel::R, i, 64, 2);
            assert_eq!(t, gen_b.next(), "Random mode must stay bit-identical");
        }
    }

    #[test]
    fn keyed_mode_concentrates_and_hot_split_spreads() {
        let policy = hot_policy();
        let mut st = SkewState::new(policy, 99);
        let mut gen = TicketGen::new(1);
        let (n, m) = (2u32, 2u32);
        // Warm up far past min_total with a hot key taking half the
        // stream: is_hot(0) flips on.
        for i in 0..2000i64 {
            st.ticket(&mut gen, Rel::S, i % 2 * i, 64, m);
        }
        assert!(st.sketch.is_hot(0));
        // Cold keys stay keyed: same key, same ticket, one column.
        let a = st.ticket(&mut gen, Rel::S, 12345, 64, m);
        let b = st.ticket(&mut gen, Rel::S, 12345, 64, m);
        assert_eq!(a, b);
        // Hot probe tuples round-robin every column.
        let mut cols = std::collections::HashSet::new();
        for _ in 0..8 {
            cols.insert(partition(st.ticket(&mut gen, Rel::S, 0, 64, m), m));
        }
        assert_eq!(cols.len(), m as usize, "hot S must cover all columns");
        // Hot build tuples draw fresh tickets: rows vary.
        let mut rows = std::collections::HashSet::new();
        for _ in 0..64 {
            rows.insert(partition(st.ticket(&mut gen, Rel::R, 0, 64, m), n));
        }
        assert!(rows.len() > 1, "hot R must spread across rows");
    }

    #[test]
    fn board_merges_shards_in_slot_order() {
        let board = SkewBoard::new(3);
        assert!(board.merged().is_none());
        let mk = |key: i64| {
            let mut sk = SkewSketch::new(SkewConfig {
                min_total: 0,
                ..SkewConfig::default()
            });
            for _ in 0..100 {
                sk.observe(SkewRel::R, key, 64);
            }
            sk
        };
        board.publish(2, mk(7).to_parts());
        board.publish(0, mk(7).to_parts());
        // Publishing to a slot the board does not have must be a no-op.
        board.publish(99, mk(1).to_parts());
        let merged = board.merged().expect("two shards published");
        assert_eq!(merged.total(), 2 * 100 * 64);
        assert_eq!(
            merged.hot_keys(),
            vec![HeavyHitter {
                key: 7,
                estimate: 2 * 100 * 64,
                err: 0
            }]
        );
        assert!(board.parts(1).is_none());
        assert!(board.parts(0).is_some());
    }

    /// Under `Random` the sketch sees a ticket-chosen sample scaled back
    /// up: its total is a whole number of `SAMPLE × bytes` weights, the
    /// same seed samples the same tuples, and a strict R,S alternation
    /// (which a 1-in-64 counter would sample on one side only) shows both
    /// relations. The keyed modes count every tuple exactly.
    #[test]
    fn random_mode_samples_by_ticket_and_keyed_modes_count_exactly() {
        let n = 20_000u64;
        let run = |policy: SkewPolicy| {
            let mut st = SkewState::new(policy, 3);
            let mut gen = TicketGen::new(17);
            for i in 0..n {
                // Key = relation, so each relation's key carries half.
                let (rel, key) = if i % 2 == 0 { (Rel::R, 0) } else { (Rel::S, 1) };
                st.ticket(&mut gen, rel, key, 64, 2);
            }
            st.sketch
        };
        let sampled = run(SkewPolicy::default());
        let truth = n * 64;
        assert_eq!(sampled.total() % (SAMPLE * 64), 0);
        assert_eq!(sampled.total(), run(SkewPolicy::default()).total());
        // ~312 samples: the estimate sits within a few standard errors.
        assert!(
            sampled.total().abs_diff(truth) < truth / 4,
            "sampled total {} far from {truth}",
            sampled.total()
        );
        let mut hot: Vec<i64> = sampled.hot_keys().iter().map(|h| h.key).collect();
        hot.sort_unstable();
        assert_eq!(hot, [0, 1], "both relations must be sampled");
        for mode in [RoutingMode::Keyed, RoutingMode::KeyedHotSplit] {
            let exact = run(SkewPolicy::default().with_routing(mode));
            assert_eq!(exact.total(), truth, "{mode:?} observes every tuple");
        }
    }

    #[test]
    fn state_publishes_on_interval_and_on_demand() {
        let board = SkewBoard::new(1);
        // A keyed policy observes every tuple, so the totals are exact.
        let mut st = SkewState::new(SkewPolicy::default().with_routing(RoutingMode::Keyed), 0)
            .with_board(board.clone(), 0);
        let mut gen = TicketGen::new(0);
        for i in 0..PUBLISH_EVERY as i64 - 1 {
            st.ticket(&mut gen, Rel::R, i, 64, 2);
        }
        assert!(board.parts(0).is_none(), "below the publish interval");
        st.ticket(&mut gen, Rel::R, -1, 64, 2);
        let auto = board.parts(0).expect("interval publish");
        assert_eq!(
            SkewSketch::from_parts(&auto).unwrap().total(),
            PUBLISH_EVERY * 64
        );
        st.ticket(&mut gen, Rel::R, -2, 64, 2);
        st.publish();
        let forced = board.parts(0).expect("forced publish");
        assert_eq!(
            SkewSketch::from_parts(&forced).unwrap().total(),
            (PUBLISH_EVERY + 1) * 64
        );
    }
}
