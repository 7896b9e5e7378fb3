//! Integration tests of the threaded backend's delivery contract: FIFO
//! per (sender, class) channel under real thread interleavings, complete
//! delivery, and clean termination.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aoj_simnet::{
    Ctx, ExecBackend, MsgClass, Process, SimDuration, SimMessage, SimTime, TaskId, Topology,
};

use super::{Runtime, RuntimeConfig};

#[derive(Clone, Debug)]
struct Payload {
    from_idx: usize,
    seq: u64,
    class_migration: bool,
}

impl SimMessage for Payload {
    fn bytes(&self) -> u64 {
        24
    }
    fn class(&self) -> MsgClass {
        if self.class_migration {
            MsgClass::Migration
        } else {
            MsgClass::Data
        }
    }
}

/// Emits a scripted burst sequence to one receiver, timer-paced so the
/// worker threads genuinely interleave.
struct Sender {
    idx: usize,
    to: TaskId,
    total: u64,
    sent: u64,
}

impl Process<Payload> for Sender {
    fn on_message(
        &mut self,
        _ctx: &mut Ctx<'_, Payload>,
        _from: TaskId,
        _msg: Payload,
    ) -> SimDuration {
        SimDuration::ZERO
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Payload>, _key: u64) -> SimDuration {
        for _ in 0..7 {
            if self.sent >= self.total {
                return SimDuration::ZERO;
            }
            ctx.send(
                self.to,
                Payload {
                    from_idx: self.idx,
                    seq: self.sent,
                    class_migration: self.sent.is_multiple_of(3),
                },
            );
            self.sent += 1;
        }
        ctx.schedule(SimDuration::from_micros(50), 0);
        SimDuration::ZERO
    }
}

#[derive(Default)]
struct Receiver {
    seen: Vec<(usize, bool, u64)>,
}

impl Process<Payload> for Receiver {
    fn on_message(
        &mut self,
        _ctx: &mut Ctx<'_, Payload>,
        _from: TaskId,
        m: Payload,
    ) -> SimDuration {
        self.seen.push((m.from_idx, m.class_migration, m.seq));
        SimDuration::ZERO
    }
}

#[test]
fn per_channel_fifo_within_class_on_real_threads() {
    let n_senders = 4usize;
    let per_sender = 500u64;
    let mut topo = Topology::new();
    let recv_machine = topo.add_machine();
    let recv_id = topo.add_task(recv_machine, Box::new(Receiver::default()));
    for s in 0..n_senders {
        let m = topo.add_machine();
        let t = topo.add_task(
            m,
            Box::new(Sender {
                idx: s,
                to: recv_id,
                total: per_sender,
                sent: 0,
            }),
        );
        topo.start_timer_at(SimTime::ZERO, t, 0);
    }
    let mut rt: Runtime<Payload> = Runtime::new(RuntimeConfig::default(), topo);
    assert_eq!(rt.worker_threads(), n_senders + 1);
    rt.run();

    let seen = &rt.task_ref::<Receiver>(recv_id).seen;
    assert_eq!(
        seen.len(),
        n_senders * per_sender as usize,
        "lost or duplicated messages"
    );
    for sender in 0..n_senders {
        for class in [false, true] {
            let seqs: Vec<u64> = seen
                .iter()
                .filter(|(s, c, _)| *s == sender && *c == class)
                .map(|(_, _, q)| *q)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "channel (sender {sender}, migration {class}) reordered"
            );
        }
    }
}

#[test]
fn empty_run_terminates_immediately() {
    let mut topo = Topology::new();
    let m = topo.add_machine();
    topo.add_task(m, Box::new(Receiver::default()));
    let mut rt: Runtime<Payload> = Runtime::new(RuntimeConfig::default(), topo);
    let end = rt.run();
    // No bootstrap work: quiesces without hanging.
    assert!(
        end.as_micros() < 5_000_000,
        "empty run took implausibly long"
    );
}

/// A task that forwards a token around a ring, proving cross-machine
/// chains drain before termination is declared.
struct Ring {
    next: TaskId,
    hops_left: Arc<AtomicU64>,
}

impl Process<Payload> for Ring {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Payload>, _f: TaskId, m: Payload) -> SimDuration {
        if self.hops_left.fetch_sub(1, Ordering::SeqCst) > 1 {
            ctx.send(self.next, m);
        }
        SimDuration::ZERO
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Payload>, _key: u64) -> SimDuration {
        ctx.send(
            self.next,
            Payload {
                from_idx: 0,
                seq: 0,
                class_migration: false,
            },
        );
        SimDuration::ZERO
    }
}

/// Two tasks on different machines flooding each other with data-class
/// messages. Each machine both produces and consumes data, so with hard
/// blocking on a tiny queue this cycle would deadlock (both workers
/// stuck in a full push, neither draining); the bounded backpressure
/// wait must let it complete.
struct MutualFlooder {
    peer: TaskId,
    to_send: u64,
    received: u64,
}

impl Process<Payload> for MutualFlooder {
    fn on_message(&mut self, _c: &mut Ctx<'_, Payload>, _f: TaskId, _m: Payload) -> SimDuration {
        self.received += 1;
        SimDuration::ZERO
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Payload>, _key: u64) -> SimDuration {
        // One burst well above the data queue capacity, sent from the
        // handler so the worker cannot drain its own mailbox meanwhile.
        for seq in 0..self.to_send {
            ctx.send(
                self.peer,
                Payload {
                    from_idx: 0,
                    seq,
                    class_migration: false,
                },
            );
        }
        SimDuration::ZERO
    }
}

#[test]
fn mutual_data_floods_do_not_deadlock() {
    let burst = 2_000u64;
    let mut topo = Topology::new();
    let m0 = topo.add_machine();
    let m1 = topo.add_machine();
    let a = topo.add_task(
        m0,
        Box::new(MutualFlooder {
            peer: TaskId(1),
            to_send: burst,
            received: 0,
        }),
    );
    let b = topo.add_task(
        m1,
        Box::new(MutualFlooder {
            peer: TaskId(0),
            to_send: burst,
            received: 0,
        }),
    );
    topo.start_timer_at(SimTime::ZERO, a, 0);
    topo.start_timer_at(SimTime::ZERO, b, 0);
    let cfg = RuntimeConfig {
        data_queue_capacity: 8, // far below the in-flight volume
    };
    let mut rt: Runtime<Payload> = Runtime::new(cfg, topo);
    rt.run();
    assert_eq!(rt.task_ref::<MutualFlooder>(a).received, burst);
    assert_eq!(rt.task_ref::<MutualFlooder>(b).received, burst);
}

#[test]
fn termination_waits_for_message_chains() {
    let hops = Arc::new(AtomicU64::new(10_000));
    let mut topo = Topology::new();
    let n = 5usize;
    let machines: Vec<_> = (0..n).map(|_| topo.add_machine()).collect();
    for (i, &machine) in machines.iter().enumerate() {
        let id = topo.add_task(
            machine,
            Box::new(Ring {
                next: TaskId((i + 1) % n),
                hops_left: Arc::clone(&hops),
            }),
        );
        assert_eq!(id, TaskId(i));
    }
    topo.start_timer_at(SimTime::ZERO, TaskId(0), 0);
    let mut rt: Runtime<Payload> = Runtime::new(RuntimeConfig::default(), topo);
    rt.run();
    // The full chain was consumed before the run was declared quiescent.
    assert_eq!(hops.load(Ordering::SeqCst), 0);
}
