//! # aoj-runtime — the multi-threaded execution backend
//!
//! The paper's operator was evaluated on a real 220-node cluster; the
//! reproduction's figures come from the deterministic simulator
//! (`aoj-simnet`). This crate is the third leg: the **same task graph** —
//! sources, reshufflers, joiners, the controller — running on real OS
//! threads for wall-clock measurements (throughput in tuples/s, real
//! match latency, real queueing and backpressure).
//!
//! [`Runtime::new`] takes the same [`aoj_simnet::Topology`] value the
//! simulator is built from, and [`Runtime`] implements
//! [`aoj_simnet::ExecBackend`], so anything written against the backend
//! abstraction (notably `aoj_operators::driver`) runs unchanged on
//! either substrate:
//!
//! * one **worker thread per machine**, servicing a class-aware
//!   mailbox with the simulator's weighted policy
//!   (control preempts; migration serviced at 2× the data rate);
//! * **bounded Data queues** provide backpressure: a producer facing a
//!   full queue waits a bounded interval for space, then overflows
//!   rather than stalling forever — bounded waits (not topology
//!   assumptions) are what make the system deadlock-free, since every
//!   machine both produces and consumes data; control, migration and
//!   loopback traffic is never bounded;
//! * **per-channel FIFO within a class**, the epoch protocol's ordering
//!   assumption, holds because each producer is a single thread pushing
//!   under the destination's lock;
//! * **termination detection** via a global outstanding-work counter:
//!   an item is retired only after its effects are enqueued, so the
//!   counter reaches zero exactly at quiescence;
//! * **metrics without a global lock**: each worker owns a private
//!   [`aoj_simnet::Metrics`] shard, folded together after the run.
//!
//! Task ids are assigned sequentially by `Topology::add_task`, so
//! mutually-referencing tasks can be wired up front:
//!
//! ```
//! use aoj_runtime::{Runtime, RuntimeConfig};
//! use aoj_simnet::{
//!     Ctx, ExecBackend, MsgClass, Process, SimDuration, SimMessage, SimTime, TaskId, Topology,
//! };
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl SimMessage for Ping {
//!     fn bytes(&self) -> u64 { 16 }
//!     fn class(&self) -> MsgClass { MsgClass::Data }
//! }
//!
//! struct Echo { peer: TaskId, got: u32 }
//! impl Process<Ping> for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _from: TaskId, msg: Ping) -> SimDuration {
//!         self.got = msg.0;
//!         if msg.0 < 3 { ctx.send(self.peer, Ping(msg.0 + 1)); }
//!         SimDuration::ZERO
//!     }
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, _key: u64) -> SimDuration {
//!         ctx.send(self.peer, Ping(0));
//!         SimDuration::ZERO
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! let m0 = topo.add_machine();
//! let m1 = topo.add_machine();
//! let a = topo.add_task(m0, Box::new(Echo { peer: TaskId(1), got: 99 }));
//! let b = topo.add_task(m1, Box::new(Echo { peer: TaskId(0), got: 99 }));
//! topo.start_timer_at(SimTime::ZERO, a, 0);
//! let mut rt = Runtime::new(RuntimeConfig::default(), topo);
//! rt.run();
//! // Same rally as the aoj-simnet front-page example: b received 0 and
//! // 2, a received 1 and the final 3.
//! assert_eq!(rt.task_ref::<Echo>(b).got, 2);
//! assert_eq!(rt.task_ref::<Echo>(a).got, 3);
//! ```

mod alloc;
mod condvar;
pub mod mailbox;
pub mod runtime;

pub use alloc::pin_mmap_threshold;
pub use condvar::CountedCondvar;
pub use runtime::{KillSwitch, Runtime, RuntimeConfig, DRAIN_BATCH};
