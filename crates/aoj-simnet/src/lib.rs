//! # aoj-simnet — deterministic shared-nothing cluster simulator
//!
//! The evaluation in *Scalable and Adaptive Online Joins* (VLDB 2014) ran on
//! 220 Solaris zones connected by 1 Gbit Ethernet. This crate substitutes
//! that testbed with a **deterministic discrete-event simulation** exposing
//! exactly the quantities the paper measures: virtual execution time,
//! per-machine busy time, message and byte counts, and storage footprints.
//!
//! The model, bottom-up:
//!
//! * [`SimTime`]/[`SimDuration`] — virtual time in microseconds.
//! * A **machine** ([`machine`]) owns a CPU that processes one message at a
//!   time. Messages wait in per-class queues (control / data / migration)
//!   served by a weighted policy, which is how the paper's "migrated tuples
//!   are processed at twice the rate of new tuples" rule is realised.
//! * A **NIC** per machine serialises outgoing bytes at a configurable
//!   bandwidth, and every message pays a propagation latency
//!   ([`network`]). Because sends are serialised at the sender and latency
//!   is constant, every (sender, receiver) channel is FIFO — a property the
//!   paper's epoch protocol relies on.
//! * A **task** ([`Process`]) is a state machine hosted on a machine. Tasks
//!   receive messages and timers, perform work priced by the
//!   [`CostModel`], and send messages through their [`Ctx`].
//! * The [`Sim`] driver pops events in `(time, sequence)` order, so runs
//!   are bit-for-bit reproducible for a given configuration and seed.
//!
//! Nothing in this crate knows about joins; the operator crates layer the
//! paper's reshuffler/joiner/controller topology on top.
//!
//! ```
//! use aoj_simnet::{Sim, SimConfig, Process, Ctx, SimMessage, MsgClass, SimDuration, TaskId};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl SimMessage for Ping {
//!     fn bytes(&self) -> u64 { 16 }
//!     fn class(&self) -> MsgClass { MsgClass::Data }
//! }
//!
//! struct Echo { peer: Option<TaskId>, got: u32 }
//! impl Process<Ping> for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _from: TaskId, msg: Ping) -> SimDuration {
//!         self.got = msg.0;
//!         if let Some(peer) = self.peer {
//!             if msg.0 < 3 { ctx.send(peer, Ping(msg.0 + 1)); }
//!         }
//!         SimDuration::from_micros(5)
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let m0 = sim.add_machine();
//! let m1 = sim.add_machine();
//! let a = sim.add_task(m0, Box::new(Echo { peer: None, got: 0 }));
//! let b = sim.add_task(m1, Box::new(Echo { peer: Some(a), got: 0 }));
//! sim.task_mut::<Echo>(a).peer = Some(b);
//! sim.inject(a, b, Ping(0));
//! sim.run();
//! // b saw 0 and 2; a saw 1 and the final 3.
//! assert_eq!(sim.task_mut::<Echo>(b).got, 2);
//! assert_eq!(sim.task_mut::<Echo>(a).got, 3);
//! ```

pub mod config;
pub mod event;
pub mod exec;
pub mod machine;
pub mod metrics;
pub mod network;
pub mod sim;
pub mod task;
pub mod time;

pub use config::{CostModel, SimConfig};
pub use exec::ExecBackend;
pub use machine::{MachineConfig, MachineId};
pub use metrics::{
    FlushCause, FlushCounts, Gauge, MachineMetrics, Metrics, ProgressSample, SharedGauges,
};
pub use network::NetworkConfig;
pub use sim::Sim;
pub use task::{Ctx, Effect, MsgClass, Process, SimMessage, TaskId, Waker};
pub use time::{SimDuration, SimTime};
