//! # aoj-core — the adaptive online join operator, distilled
//!
//! This crate implements the algorithmic contribution of *Scalable and
//! Adaptive Online Joins* (ElSeidy, Elguindy, Vitorovic, Koch — PVLDB 7(6),
//! 2014) as pure, dependency-free logic. The dataflow wiring lives in
//! `aoj-operators`; everything provable lives here, next to tests that
//! check the paper's lemmas and theorems:
//!
//! | paper | module |
//! |---|---|
//! | §3.1–3.4 join matrix, grid `(n,m)`-mapping, Theorem 3.2 | [`mapping`], [`mod@ilf`] |
//! | §3.2 content-insensitive routing | [`ticket`] (nested random partitions) |
//! | Alg. 1 decentralised statistics | [`stats`] |
//! | Alg. 2, Lemmas 4.1–4.3, Theorem 4.2 (ε trade-off) | [`decision`] |
//! | Lemma 4.4 locality-aware migration, Fig. 3 | [`migration`], [`mapping`] |
//! | Alg. 3 epochs, Lemma 4.6, Theorem 4.5 | [`epoch`] |
//! | §4.2.2 arbitrary `J` via group decomposition | [`groups`] |
//! | §4.2.2 elasticity, Fig. 5, Theorem 4.3 | [`elastic`] |
//! | §5.4 `ILF/ILF*` instrumentation (Fig. 8c) | [`competitive`] |
//!
//! Beyond the paper, [`sketch`] adds mergeable SpaceSaving heavy-hitter
//! summaries that report which keys are hot (routing never reads them),
//! and [`fault`] adds the deterministic
//! fault-injection plan, failure detector, and recovery bookkeeping
//! behind the self-healing session layer.
//!
//! The local join algorithm is pluggable through [`index::JoinIndex`]
//! (§3.2: "any flavor of non-blocking join algorithm can be independently
//! adopted at each joiner task"); `aoj-joinalg` ships hash, B-tree and
//! nested-loop implementations.

pub mod competitive;
pub mod decision;
pub mod elastic;
pub mod epoch;
pub mod fault;
pub mod groups;
pub mod ilf;
pub mod index;
pub mod lifecycle;
pub mod mapping;
pub mod migration;
pub mod predicate;
pub mod sketch;
pub mod stats;
pub mod ticket;
pub mod tuple;

pub use competitive::CompetitiveTracker;
pub use decision::{DeciderSnapshot, Decision, DecisionConfig, MigrationDecider};
pub use epoch::{
    DataOutcome, Epoch, EpochJoiner, FinalizeSummary, Machines, Reconfig, Role, SignalOutcome,
};
pub use fault::{
    DeathCause, DetectorConfig, FailureDetector, FaultInjection, FaultLog, FaultPlan, FaultTrigger,
    RecoveryStats, WorkerDeath,
};
pub use ilf::{ilf, optimal_ilf, optimal_mapping};
pub use index::{JoinIndex, ProbeStats, VecIndex};
pub use lifecycle::{
    Checkpoint, EvictStats, JoinerCheckpoint, TickSource, WindowMode, WindowOccupancy, WindowSpec,
    WindowTracker,
};
pub use mapping::{GridAssignment, GridPos, Mapping, Step};
pub use migration::{plan_step, MachineStepSpec, MigrationPlan, StateClass};
pub use predicate::Predicate;
pub use sketch::{HeavyHitter, SkewConfig, SkewRel, SkewSketch, SpaceSaving};
pub use tuple::{Rel, Tuple};
