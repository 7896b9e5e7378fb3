//! The reshufflers' sampled skew sketch and the cross-shard sketch board.
//!
//! Each reshuffler owns a [`SkewState`]: the ticket generator's one draw
//! per routed tuple, a per-relation [`SkewSketch`] fed a sample of those
//! tuples, and a slot on the shared [`SkewBoard`] where it periodically
//! publishes its sketch in wire form. The board is how the rest of the
//! system sees skew:
//!
//! * `stats()` / `RunReport` merge the published shards (deterministic
//!   slot order) into the session-wide heavy-hitter summary;
//! * on the TCP backend the worker attaches each machine's published
//!   parts to its gauge-sample frames, and the coordinator republishes
//!   them into its own board — the same path `SharedGauges` travel.
//!
//! The sketch and the board are read for reporting only: placement is the
//! paper's uniform random ticket, and no routing, migration or elasticity
//! decision reads either. So the sketch is fed a sample of one tuple in
//! 64, chosen by the ticket the tuple draws anyway (see
//! [`SkewState::ticket`]). Random tickets balance storage and join work
//! under any key distribution, so a hot key needs no countermeasure.

use std::sync::{Arc, Mutex};

use aoj_core::sketch::{SkewConfig, SkewRel, SkewSketch};
use aoj_core::ticket::TicketGen;
use aoj_core::tuple::Rel;

/// A reshuffler's sketch observes one routed tuple in `SAMPLE` (a power of
/// two), weighted `SAMPLE ×` its bytes.
const SAMPLE: u64 = 64;

/// A reshuffler publishes its sketch to the board every this many routed
/// tuples (flush points always publish).
const PUBLISH_EVERY: u64 = 4096;

/// [`SkewState::new`]'s sketch configuration (always the default), kept
/// until the next `benchmark` change drops it.
#[derive(Clone, Copy, Debug, Default)]
pub struct SkewPolicy {
    /// Sketch sizing and the heavy-hitter threshold.
    pub(crate) sketch: SkewConfig,
}

/// Shared board of per-machine published sketches (wire `parts` form).
///
/// One slot per machine slot; a reshuffler publishes into its own slot
/// only, so contention is negligible and the board's merge folds the
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

    /// Replace `slot`'s published sketch. Out-of-range slots are ignored
    /// (a late frame from a retired machine must not panic the session).
    pub fn publish(&self, slot: usize, parts: Vec<u64>) {
        let mut slots = self.slots.lock().unwrap();
        if let Some(s) = slots.get_mut(slot) {
            *s = Some(parts);
        }
    }

    /// Merge every published shard in slot order. `None` until at least
    /// one shard has published.
    pub(crate) fn merged(&self) -> Option<SkewSketch> {
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

/// Per-reshuffler skew state: the sampled sketch it maintains while
/// routing, and where it publishes it.
#[derive(Debug)]
pub struct SkewState {
    /// The local per-relation sketch (public for checkpoint inspection
    /// and tests).
    pub(crate) sketch: SkewSketch,
    since_publish: u64,
    board: Option<(Arc<SkewBoard>, usize)>,
}

impl SkewState {
    /// Fresh state with `policy`'s sketch configuration.
    /// `_salt` is ignored until the next `benchmark` change drops it.
    pub fn new(policy: SkewPolicy, _salt: u64) -> SkewState {
        SkewState {
            sketch: SkewSketch::new(policy.sketch),
            since_publish: 0,
            board: None,
        }
    }

    /// Builder: publish into `slot` of `board`.
    pub(crate) fn with_board(mut self, board: Arc<SkewBoard>, slot: usize) -> SkewState {
        self.board = Some((board, slot));
        self
    }

    /// Draw one routed tuple's ticket from `tickets` and observe the tuple
    /// in the sketch if it is sampled.
    /// `_m` is ignored until the next `benchmark` change drops it.
    ///
    /// Exactly one ticket is drawn per call, so placement is the bare
    /// [`TicketGen`] sequence. The sketch observes only tuples whose
    /// ticket has its low `log2 SAMPLE` bits clear, weighted `SAMPLE ×`
    /// their bytes: the ticket is uniform and independent of the key, so
    /// this is an unbiased Bernoulli sample that needs no counter and is
    /// deterministic per seed (a fixed stride would alias with any stream
    /// whose relation or key pattern repeats).
    pub fn ticket(
        &mut self,
        tickets: &mut TicketGen,
        rel: Rel,
        key: i64,
        bytes: u32,
        _m: u32,
    ) -> u64 {
        let ticket = tickets.next();
        if ticket & (SAMPLE - 1) == 0 {
            let srel = match rel {
                Rel::R => SkewRel::R,
                Rel::S => SkewRel::S,
            };
            self.sketch.observe(srel, key, u64::from(bytes) * SAMPLE);
        }
        self.since_publish += 1;
        if self.since_publish >= PUBLISH_EVERY {
            self.publish();
        }
        ticket
    }

    /// Publish the local sketch to the board now (also called on flush
    /// points so close-time summaries include the stream's tail).
    pub(crate) fn publish(&mut self) {
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

    // The oracle of the publication tests.
    impl SkewBoard {
        /// The latest published parts for `slot`, if any.
        fn parts(&self, slot: usize) -> Option<Vec<u64>> {
            self.slots.lock().unwrap().get(slot).cloned().flatten()
        }
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

    /// The sketch sees a ticket-chosen sample scaled back up: its total is
    /// a whole number of `SAMPLE × bytes` weights, the same seed samples
    /// the same tuples, and a strict R,S alternation (which a 1-in-64
    /// counter would sample on one side only) shows both relations.
    #[test]
    fn random_mode_samples_by_ticket() {
        let n = 20_000u64;
        let run = || {
            let mut st = SkewState::new(SkewPolicy::default(), 3);
            let mut gen = TicketGen::new(17);
            for i in 0..n {
                // Key = relation, so each relation's key carries half.
                let (rel, key) = if i % 2 == 0 { (Rel::R, 0) } else { (Rel::S, 1) };
                st.ticket(&mut gen, rel, key, 64, 2);
            }
            st.sketch
        };
        let sampled = run();
        let truth = n * 64;
        assert_eq!(sampled.total() % (SAMPLE * 64), 0);
        assert_eq!(sampled.total(), run().total());
        // ~312 samples: the estimate sits within a few standard errors.
        assert!(
            sampled.total().abs_diff(truth) < truth / 4,
            "sampled total {} far from {truth}",
            sampled.total()
        );
        let mut hot: Vec<i64> = sampled.hot_keys().iter().map(|h| h.key).collect();
        hot.sort_unstable();
        assert_eq!(hot, [0, 1], "both relations must be sampled");
    }

    #[test]
    fn state_publishes_on_interval_and_on_demand() {
        let board = SkewBoard::new(1);
        let mut st = SkewState::new(SkewPolicy::default(), 0).with_board(board.clone(), 0);
        let mut gen = TicketGen::new(0);
        for i in 0..PUBLISH_EVERY as i64 - 1 {
            st.ticket(&mut gen, Rel::R, i, 64, 2);
        }
        assert!(board.parts(0).is_none(), "below the publish interval");
        st.ticket(&mut gen, Rel::R, -1, 64, 2);
        let auto = board.parts(0).expect("interval publish");
        assert_eq!(auto, st.sketch.to_parts());
        // Route until a later tuple is sampled, so the forced publish
        // must differ from the interval one.
        while st.sketch.to_parts() == auto {
            st.ticket(&mut gen, Rel::S, -2, 64, 2);
        }
        st.publish();
        let forced = board.parts(0).expect("forced publish");
        assert_eq!(forced, st.sketch.to_parts());
        assert!(
            SkewSketch::from_parts(&forced).unwrap().total()
                > SkewSketch::from_parts(&auto).unwrap().total()
        );
    }
}
