//! Property tests (proptest) for the batch-first data plane.
//!
//! Two layers:
//!
//! * **Routing equivalence** — a reshuffler fed the same ingest stream
//!   chopped into *random* ingest-batch boundaries, with *random*
//!   coalescing flush thresholds and an epoch change of a random kind
//!   (either migration step, a ×4 expansion, a 4→1 contraction) injected
//!   at a random position, must deliver the **identical per-channel tuple
//!   sequence** (same tuples, same tickets, same epoch tags, same order
//!   per (reshuffler → joiner) channel) as the per-tuple plane
//!   (`batch_tuples = 1`), with every epoch-change signal FIFO between
//!   the old-epoch and new-epoch tuples it separates. Coalescing groups;
//!   it must never reorder.
//!
//! * **End-to-end exactness** — full simulator runs under random batch
//!   sizes (including across a live ×4 expansion) must emit the
//!   identical join multiset as the per-tuple plane.

use aoj_core::epoch::Reconfig;
use aoj_core::mapping::{GridAssignment, Mapping, Step};
use aoj_core::predicate::Predicate;
use aoj_core::ticket::TicketGen;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::interleave;
use aoj_operators::batch::{BatchConfig, DataCoalescer};
use aoj_operators::messages::IngestItem;
use aoj_operators::reshuffler::ReshufflerTask;
use aoj_operators::skew::{SkewPolicy, SkewState};
use aoj_operators::{run, ElasticConfig, OpMsg, OperatorKind, SessionBuilder};
use aoj_simnet::{Ctx, Effect, Metrics, Process, SimTime, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The session configuration for `kind` on `j` joiners over `w`.
fn config(j: u32, kind: OperatorKind, w: &Workload) -> SessionBuilder {
    SessionBuilder::new(j, kind)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
}

/// One observable event on a (reshuffler → joiner) channel.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Ev {
    /// A routed tuple: (epoch tag, seq, ticket).
    Tuple(u32, u64, u64),
    /// An epoch-change signal entering the given epoch.
    Signal(u32),
}

/// Build a reshuffler routing a (2,2) grid over 16 provisioned joiners
/// (so one ×4 expansion has machines to grow into). It sits on machine 0,
/// the one a contraction of this grid keeps, so it routes on either side
/// of every kind of change.
fn reshuffler(seed: u64, batch_tuples: usize) -> ReshufflerTask {
    ReshufflerTask {
        index: 0,
        epoch: 0,
        assign: GridAssignment::initial(Mapping::new(2, 2)),
        joiner_tasks: (0..16).map(TaskId).collect(),
        reshuffler_tasks: Vec::new(),
        tickets: TicketGen::new(seed),
        cost: aoj_simnet::CostModel::default(),
        controller: None,
        source: TaskId(99),
        blocking: false,
        stalled: false,
        stall_buffer: Vec::new(),
        routed: 0,
        batch: DataCoalescer::new(BatchConfig::new(batch_tuples), 16),
        deactivated: false,
        layout: aoj_core::elastic::ElasticLayout::new(4),
        // Default policy: random tickets, so routing stays bit-identical
        // to the pre-sketch plane this property pins.
        skew: SkewState::new(SkewPolicy::default(), 0),
    }
}

fn items(range: std::ops::Range<u64>) -> Vec<IngestItem> {
    range
        .map(|seq| IngestItem {
            rel: if seq % 3 == 0 { Rel::R } else { Rel::S },
            key: (seq as i64 * 13) % 50,
            aux: 0,
            bytes: 64,
            seq,
        })
        .collect()
}

/// Drive `task` through the whole stream with the given ingest-batch
/// boundaries and a `Change` of the given kind after `change_at` tuples;
/// return the per-channel event sequences.
fn drive(
    task: &mut ReshufflerTask,
    kind: Reconfig,
    n_tuples: u64,
    change_at: u64,
    boundaries: &mut dyn FnMut(u64) -> u64,
) -> Vec<Vec<Ev>> {
    let mut channels: Vec<Vec<Ev>> = vec![Vec::new(); 16];
    // The reshuffler reports flush counts into its machine's row (0).
    let mut metrics = Metrics::default();
    metrics.add_machine();
    metrics.add_machine();
    let record = |channels: &mut Vec<Vec<Ev>>, effects: Vec<Effect<OpMsg>>| {
        for e in effects {
            if let Effect::Send { to, msg } = e {
                match msg {
                    OpMsg::DataBatch { tag, tuples, .. } => {
                        for t in tuples {
                            channels[to.index()].push(Ev::Tuple(tag, t.seq, t.ticket));
                        }
                    }
                    OpMsg::Signal { new_epoch, .. } => {
                        channels[to.index()].push(Ev::Signal(new_epoch));
                    }
                    OpMsg::RoutedCopies { .. } => {}
                    other => panic!("unexpected reshuffler effect {other:?}"),
                }
            }
        }
    };
    let mut deliver = |task: &mut ReshufflerTask, channels: &mut Vec<Vec<Ev>>, msg: OpMsg| {
        let mut stopped = false;
        let mut ctx: Ctx<'_, OpMsg> =
            Ctx::new(SimTime::ZERO, TaskId(1), &mut metrics, &mut stopped);
        task.on_message(&mut ctx, TaskId(99), msg);
        record(channels, ctx.take_effects());
    };
    let mut cursor = 0u64;
    let mut changed = false;
    let change = || OpMsg::Change { new_epoch: 1, kind };
    while cursor < n_tuples {
        if !changed && cursor >= change_at {
            deliver(task, &mut channels, change());
            changed = true;
            continue;
        }
        let mut end = cursor + boundaries(n_tuples - cursor).max(1);
        if !changed {
            end = end.min(change_at);
        }
        let end = end.min(n_tuples);
        deliver(
            task,
            &mut channels,
            OpMsg::IngestBatch {
                items: items(cursor..end),
            },
        );
        cursor = end;
    }
    if !changed {
        deliver(task, &mut channels, change());
    }
    // Age-flush whatever is still coalescing (the timer path).
    let mut stopped = false;
    let mut ctx: Ctx<'_, OpMsg> = Ctx::new(SimTime::ZERO, TaskId(1), &mut metrics, &mut stopped);
    task.on_timer(&mut ctx, ReshufflerTask::FLUSH);
    record(&mut channels, ctx.take_effects());
    channels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random flush thresholds and random ingest chopping leave every
    /// channel's tuple sequence identical to the per-tuple plane, and
    /// the epoch-change signal — of whichever kind — sits exactly
    /// between the epochs.
    #[test]
    fn batched_routing_preserves_per_channel_order(
        seed in any::<u64>(),
        kind in prop_oneof![
            Just(Reconfig::Step(Step::HalveRows)),
            Just(Reconfig::Step(Step::HalveCols)),
            Just(Reconfig::Expand),
            Just(Reconfig::Contract),
        ],
        batch_tuples in 1usize..200,
        n_tuples in 50u64..300,
        change_frac in 0u64..100,
    ) {
        let change_at = n_tuples * change_frac / 100;
        // Reference: per-tuple plane, one-item ingest batches.
        let mut reference = reshuffler(seed, 1);
        let ref_channels = drive(&mut reference, kind, n_tuples, change_at, &mut |_| 1);
        // Batched: random coalescing threshold, random ingest chopping.
        let mut chopper = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut batched = reshuffler(seed, batch_tuples);
        let got_channels = drive(&mut batched, kind, n_tuples, change_at, &mut |remaining| {
            chopper.gen_range(1..=remaining.min(40))
        });
        prop_assert_eq!(&got_channels, &ref_channels,
            "per-channel delivery order must be batching-invariant");
        // Marker FIFO: on every channel, no old-epoch tuple after the
        // signal and no new-epoch tuple before it. Every joiner the
        // change gives a role is signalled (a contraction's retirees
        // too); only an expansion's children are not, and they see
        // nothing but new-epoch tuples.
        let signalled = got_channels.iter().filter(|evs| evs.contains(&Ev::Signal(1))).count();
        prop_assert_eq!(signalled, 4, "every active joiner gets the signal");
        for (ch, evs) in got_channels.iter().enumerate() {
            let sig = evs.iter().position(|e| matches!(e, Ev::Signal(_)));
            for (i, e) in evs.iter().enumerate() {
                if let Ev::Tuple(tag, seq, _) = e {
                    match (sig, *tag) {
                        (Some(s), 0) => prop_assert!(i < s,
                            "channel {ch}: old-epoch tuple {seq} after the signal"),
                        (Some(s), _) => prop_assert!(i > s,
                            "channel {ch}: new-epoch tuple {seq} before the signal"),
                        (None, tag) => prop_assert_eq!(tag, 1,
                            "channel {ch}: old-epoch tuple on a signal-less (child) channel"),
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full simulator runs: any batch size emits the identical join
    /// multiset as the per-tuple plane — including across a live ×4
    /// expansion whose trigger instant shifts with the batching.
    #[test]
    fn batched_runs_join_multiset_is_batching_invariant(
        seed in any::<u64>(),
        batch_tuples in 2usize..200,
        max_delay_us in 20u64..2_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut item = |key_space: i64| StreamItem {
            key: rng.gen_range(0..key_space),
            aux: 0,
            bytes: 64,
        };
        let w = Workload {
            name: "prop",
            predicate: Predicate::Equi,
            r_items: (0..200).map(|_| item(120)).collect(),
            s_items: (0..2_000).map(|_| item(120)).collect(),
        };
        let arrivals = interleave(&w, seed ^ 0xA0A0);
        // The 2,200-tuple stream is sized against the per-tuple plane's
        // 64·J window: the batch-derived default (up to 8·J·199 copies)
        // would put all of it in flight before the capacity gauges move.
        let mut cfg = config(2, OperatorKind::Dynamic, &w)
            .with_batch_tuples(1)
            .with_window_copies(128);
        cfg.backend.collect_matches = true;
        cfg.seed = seed;
        // Small capacity: one ×4 expansion fires mid-stream.
        cfg.elasticity.elastic = Some(ElasticConfig::new(24 << 10, 1));
        let reference = run(&arrivals, &cfg);
        prop_assert!(reference.matches > 0, "vacuous workload");
        prop_assert!(reference.expansions >= 1, "expansion never fired");

        let mut batched_cfg = cfg.clone().with_batch_tuples(batch_tuples);
        batched_cfg.data_plane.batch_max_delay_us = max_delay_us;
        let batched = run(&arrivals, &batched_cfg);
        prop_assert!(batched.expansions >= 1, "batched run lost the expansion");
        prop_assert_eq!(batched.match_pairs, reference.match_pairs,
            "batch={} delay={}us: join multiset diverged", batch_tuples, max_delay_us);
    }
}
