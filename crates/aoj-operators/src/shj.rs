//! The parallel symmetric hash join baseline (§5 "Operators", item iv):
//! the classic content-sensitive scheme of Schneider & DeWitt/Graefe.
//! Reshufflers partition *on the join key* — each tuple goes to exactly
//! one joiner, `hash(key) mod J` — so there is no replication, but skewed
//! keys pile onto few machines, which is precisely what Table 2
//! demonstrates. Only valid for equi-joins.

use aoj_core::index::{JoinIndex, ProbeStats};
use aoj_core::ticket::mix64;
use aoj_core::tuple::Tuple;
use aoj_joinalg::{SpillGauge, SymmetricHashIndex};
use aoj_simnet::{Ctx, FlushCause, Gauge, MachineId, Process, SimDuration, TaskId};

use crate::batch::DataCoalescer;
use crate::joiner_task::MatchTally;
use crate::messages::OpMsg;
use crate::reshuffler::ProgressRecorder;

/// SHJ's reshuffler: key-hash routing, no statistics, no epochs. Routed
/// tuples coalesce into per-joiner batches like the grid operator's.
pub struct ShjReshuffler {
    /// This reshuffler's machine (metrics).
    pub machine: MachineId,
    /// Joiner task ids by machine index.
    pub joiner_tasks: Vec<TaskId>,
    /// Cost model.
    pub cost: aoj_simnet::CostModel,
    /// The source task (flow-control credit reports).
    pub source: TaskId,
    /// Tuples routed.
    pub routed: u64,
    /// Progress sampling (reshuffler 0 only).
    pub recorder: Option<ProgressRecorder>,
    /// Per-destination coalescing buffers.
    pub batch: DataCoalescer,
}

impl ShjReshuffler {
    /// Timer key used for coalescing-buffer age flushes.
    pub const FLUSH: u64 = 2;

    fn flush_slot(&mut self, ctx: &mut Ctx<'_, OpMsg>, dst: usize) {
        if let Some((tuples, arrived)) = self.batch.take(dst) {
            ctx.send(
                self.joiner_tasks[dst],
                OpMsg::DataBatch {
                    tag: 0,
                    store: true,
                    tuples,
                    arrived,
                },
            );
        }
    }

    fn flush_all(&mut self, ctx: &mut Ctx<'_, OpMsg>, cause: FlushCause) {
        for (dst, tuples, arrived) in self.batch.drain_all(cause) {
            ctx.send(
                self.joiner_tasks[dst],
                OpMsg::DataBatch {
                    tag: 0,
                    store: true,
                    tuples,
                    arrived,
                },
            );
        }
        self.batch.publish_flushes(ctx.metrics(), self.machine);
    }
}

impl Process<OpMsg> for ShjReshuffler {
    fn on_message(&mut self, ctx: &mut Ctx<'_, OpMsg>, _from: TaskId, msg: OpMsg) -> SimDuration {
        match msg {
            OpMsg::IngestBatch { items } => {
                let j = self.joiner_tasks.len() as u64;
                let arrived = ctx.now();
                let n_tuples = items.len() as u32;
                for it in items {
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.maybe_sample(it.seq, ctx);
                    }
                    let dst = (mix64(it.key as u64) % j) as usize;
                    let t = Tuple {
                        seq: it.seq,
                        rel: it.rel,
                        key: it.key,
                        aux: it.aux,
                        bytes: it.bytes,
                        ticket: mix64(it.seq),
                    };
                    if self.batch.push(dst, t, arrived) {
                        self.flush_slot(ctx, dst);
                    }
                    self.routed += 1;
                }
                ctx.send(
                    self.source,
                    OpMsg::RoutedCopies {
                        n: n_tuples,
                        tuples: n_tuples,
                    },
                );
                self.batch.publish_flushes(ctx.metrics(), self.machine);
                self.batch.arm_flush_timer(ctx, Self::FLUSH);
                SimDuration::from_micros(
                    self.cost.recv_overhead_us + n_tuples as u64 * self.cost.store_us / 2,
                )
            }
            other => panic!("SHJ reshuffler received unexpected message {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, OpMsg>, key: u64) -> SimDuration {
        debug_assert_eq!(key, Self::FLUSH);
        self.batch.on_flush_timer();
        self.flush_all(ctx, FlushCause::Deadline);
        SimDuration::from_micros(self.cost.control_us)
    }
}

/// SHJ's joiner: a plain local symmetric hash join with spill accounting.
pub struct ShjJoiner {
    /// Local hash state.
    pub index: SymmetricHashIndex,
    /// RAM gauge.
    pub gauge: SpillGauge,
    /// Machine for metrics.
    pub machine: MachineId,
    /// Cost model.
    pub cost: aoj_simnet::CostModel,
    /// The source task (credit returns).
    pub source: TaskId,
    /// Matches emitted, their digest, log, sink and latency samples.
    pub tally: MatchTally,
    /// Credits accumulated but not yet returned.
    unacked_credits: u32,
}

impl ShjJoiner {
    /// Build an SHJ joiner.
    pub fn new(
        machine: MachineId,
        cost: aoj_simnet::CostModel,
        gauge: SpillGauge,
        source: TaskId,
    ) -> ShjJoiner {
        ShjJoiner {
            index: SymmetricHashIndex::new(),
            gauge,
            machine,
            cost,
            source,
            tally: MatchTally::default(),
            unacked_credits: 0,
        }
    }
}

impl Process<OpMsg> for ShjJoiner {
    fn on_message(&mut self, ctx: &mut Ctx<'_, OpMsg>, _from: TaskId, msg: OpMsg) -> SimDuration {
        match msg {
            OpMsg::DataBatch {
                tuples, arrived, ..
            } => {
                let n = tuples.len() as u64;
                // One bulk pass against the hash state, intra-batch pairs
                // included (stream semantics).
                let mut per_tuple = vec![0u32; tuples.len()];
                let (stats, _): (ProbeStats, _) = self.tally.emit(|em| {
                    self.index.stream_batch(&tuples, &mut |i, stored| {
                        per_tuple[i] += 1;
                        em.pair(&tuples[i], stored);
                    })
                });
                let now = ctx.now();
                self.tally.sample_matched(now, &per_tuple, &arrived);
                let bytes = self.index.bytes();
                self.gauge.set_stored(bytes);
                ctx.metrics().set_gauge(self.machine, Gauge::Stored, bytes);
                ctx.metrics()
                    .set_gauge(self.machine, Gauge::Matches, self.tally.matches);
                ctx.metrics().note_data_processed(n, now);
                self.unacked_credits += n as u32;
                if self.unacked_credits >= crate::joiner_task::JoinerTask::CREDIT_BATCH {
                    ctx.send(
                        self.source,
                        OpMsg::ProcessedCopies {
                            n: self.unacked_credits,
                        },
                    );
                    self.unacked_credits = 0;
                }
                if self.gauge.is_spilling() {
                    let spilled = self.gauge.spilled_bytes();
                    let mm = ctx.metrics().machine_mut(self.machine);
                    if spilled > mm.spilled_bytes {
                        mm.spilled_bytes = spilled;
                    }
                }
                let base = self.cost.batch_cost(n, stats.candidates, stats.matches);
                SimDuration::from_micros(
                    self.cost.recv_overhead_us + self.gauge.effective_cost(base.as_micros()),
                )
            }
            other => panic!("SHJ joiner received unexpected message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hash_routing_is_deterministic_per_key() {
        // Same key → same joiner, both relations: required for SHJ
        // correctness.
        let j = 16u64;
        for key in 0..1000i64 {
            let a = mix64(key as u64) % j;
            let b = mix64(key as u64) % j;
            assert_eq!(a, b);
        }
    }
}
