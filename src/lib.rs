//! # adaptive-online-joins
//!
//! A reproduction of *Scalable and Adaptive Online Joins* (ElSeidy,
//! Elguindy, Vitorovic, Koch — PVLDB 7(6), 2014): a scalable, intra-adaptive
//! dataflow operator for online theta-joins that is resilient to data skew,
//! requires no a-priori statistics, migrates state without blocking, and is
//! provably 1.25-competitive in its input-load factor.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`core`] (aoj-core) — the paper's contribution: the join-matrix
//!   (n,m)-mapping scheme, ILF optimisation, the migration-decision
//!   algorithm, locality-aware migration plans, the eventually-consistent
//!   epoch protocol, group decomposition for arbitrary cluster sizes, and
//!   elastic expansion.
//! * [`joinalg`] (aoj-joinalg) — pluggable local non-blocking join
//!   algorithms (symmetric hash, band/B-tree, nested loop).
//! * [`datagen`] (aoj-datagen) — TPC-H-shaped workloads with Zipf skew and
//!   the paper's five evaluation queries.
//! * [`simnet`] (aoj-simnet) — the deterministic cluster simulator standing
//!   in for the paper's 220-VM testbed, and the `ExecBackend` abstraction
//!   every execution substrate implements.
//! * [`runtime`] (aoj-runtime) — the multi-threaded execution backend: the
//!   same task graph on real OS threads, for wall-clock measurements.
//! * [`operators`] (aoj-operators) — the four dataflow operators evaluated
//!   in the paper (Dynamic, StaticMid, StaticOpt, SHJ), generic over the
//!   execution backend: simulation for reproducible figures, threads for
//!   real performance.
//!
//! See `examples/quickstart.rs` for an end-to-end tour, and the `aoj-bench`
//! crate for the harness that regenerates every table and figure of the
//! paper's evaluation section (plus `reproduce scenarios`, which verifies
//! the live subsystems on every backend; `benchmark/` measures speed).

pub use aoj_core as core;
pub use aoj_datagen as datagen;
pub use aoj_joinalg as joinalg;
pub use aoj_operators as operators;
pub use aoj_runtime as runtime;
pub use aoj_simnet as simnet;
