//! Property test of the delivery guarantee the epoch protocol builds on:
//! within one message class, any (sender, receiver) channel is FIFO, for
//! arbitrary topologies, message sizes, and handler costs.

use aoj_simnet::{
    Ctx, MsgClass, Process, Sim, SimConfig, SimDuration, SimMessage, TaskId, Topology,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Payload {
    from_idx: usize,
    seq: u64,
    bytes: u64,
    class_migration: bool,
}

impl SimMessage for Payload {
    fn bytes(&self) -> u64 {
        self.bytes
    }
    fn class(&self) -> MsgClass {
        if self.class_migration {
            MsgClass::Migration
        } else {
            MsgClass::Data
        }
    }
}

/// A sender that emits a scripted sequence of messages to one receiver.
struct Sender {
    script: Vec<Payload>,
    cursor: usize,
    to: TaskId,
}

impl Process<Payload> for Sender {
    fn on_message(&mut self, _c: &mut Ctx<'_, Payload>, _f: TaskId, _m: Payload) -> SimDuration {
        SimDuration::ZERO
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Payload>, _key: u64) -> SimDuration {
        // Emit a burst of up to 3 messages per tick.
        for _ in 0..3 {
            if self.cursor >= self.script.len() {
                return SimDuration::from_micros(1);
            }
            ctx.send(self.to, self.script[self.cursor].clone());
            self.cursor += 1;
        }
        ctx.schedule(SimDuration::from_micros(2), 0);
        SimDuration::from_micros(1)
    }
}

/// A receiver recording the arrival order per (sender, class).
#[derive(Default)]
struct Receiver {
    seen: Vec<(usize, bool, u64)>, // (sender, is_migration, seq)
    cost_us: u64,
}

impl Process<Payload> for Receiver {
    fn on_message(&mut self, _c: &mut Ctx<'_, Payload>, _f: TaskId, m: Payload) -> SimDuration {
        self.seen.push((m.from_idx, m.class_migration, m.seq));
        SimDuration::from_micros(self.cost_us)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn per_channel_fifo_within_class(
        n_senders in 1usize..6,
        msgs_per_sender in 1usize..40,
        sizes in prop::collection::vec(1u64..5_000, 1..40),
        recv_cost in 0u64..20,
        migration_mask in any::<u64>(),
    ) {
        let mut topo: Topology<Payload> = Topology::new();
        let mut machines = Vec::new();
        for _ in 0..n_senders + 1 {
            machines.push(topo.add_machine());
        }
        let recv_id = TaskId(0);
        let recv = Receiver { seen: Vec::new(), cost_us: recv_cost };
        let id = topo.add_task(machines[0], Box::new(recv));
        prop_assert_eq!(id, recv_id);
        for s in 0..n_senders {
            let script: Vec<Payload> = (0..msgs_per_sender)
                .map(|i| Payload {
                    from_idx: s,
                    seq: i as u64,
                    bytes: sizes[i % sizes.len()],
                    class_migration: (migration_mask >> (i % 64)) & 1 == 1,
                })
                .collect();
            let t = topo.add_task(
                machines[s + 1],
                Box::new(Sender { script, cursor: 0, to: recv_id }),
            );
            topo.start_timer_at(aoj_simnet::SimTime(s as u64), t, 0);
        }
        let mut sim = Sim::new(SimConfig::default(), topo);
        sim.run();
        let seen = &sim.task_ref::<Receiver>(recv_id).seen;
        prop_assert_eq!(seen.len(), n_senders * msgs_per_sender);
        // Within each (sender, class) channel, seq must be increasing.
        for sender in 0..n_senders {
            for class in [false, true] {
                let seqs: Vec<u64> = seen
                    .iter()
                    .filter(|(s, c, _)| *s == sender && *c == class)
                    .map(|(_, _, q)| *q)
                    .collect();
                prop_assert!(
                    seqs.windows(2).all(|w| w[0] < w[1]),
                    "channel (sender {}, migration {}) reordered: {:?}",
                    sender,
                    class,
                    seqs
                );
            }
        }
    }
}
