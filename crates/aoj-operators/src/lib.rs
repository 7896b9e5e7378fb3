//! # aoj-operators — the paper's dataflow operators on the simulated cluster
//!
//! Wires the algorithmic core (`aoj-core`) and the local join algorithms
//! (`aoj-joinalg`) onto the deterministic cluster simulator
//! (`aoj-simnet`), reproducing the four operators of the paper's
//! evaluation (§5):
//!
//! * **Dynamic** — the adaptive operator: `J` reshufflers + `J` joiners,
//!   controller = reshuffler 0, Alg. 1 statistics, Alg. 2 decisions, the
//!   non-blocking epoch protocol of Alg. 3, locality-aware exchanges;
//! * **StaticMid** — fixed `(√J, √J)` grid;
//! * **StaticOpt** — fixed oracle-optimal grid (knows stream sizes ahead
//!   of time);
//! * **SHJ** — content-sensitive parallel symmetric hash join.
//!
//! There is one way to configure a join — [`session::SessionBuilder`] —
//! and one path that runs it on any backend:
//! [`session::JoinSession`], the **live serving API**: open a long-lived
//! session, push tuples with caller-visible backpressure, stream matches
//! through a subscription, read live gauges, close to drain and collect
//! a [`report::RunReport`] carrying every quantity the paper's tables
//! and figures plot. The offline experiment harness, [`driver::run`], is
//! a thin wrapper over it (open, push a pre-materialized arrival
//! sequence, close).

pub mod batch;
pub mod driver;
mod elastic_runtime;
pub mod joiner_task;
pub mod messages;
pub mod report;
pub mod reshuffler;
pub mod session;
pub mod shj;
pub mod skew;
pub mod source;
pub mod supervise;

pub use driver::{run, BackendChoice, OperatorKind};
pub use elastic_runtime::ElasticConfig;
pub use messages::{Match, OpMsg};
pub use report::{human_bytes, MachineStats, RunReport};
pub use session::{
    assemble_topology, register_tcp_backend, IngestQueue, JoinSession, KeyFilter, MatchHub,
    MatchSubscription, NetBackend, PushError, SessionBuilder, SessionHandle, SessionStats,
};
pub use skew::{SkewBoard, SkewPolicy, SkewState};
pub use source::SourcePacing;
pub use supervise::{RecoveryStats, SupervisedOutcome, SupervisedSession};
