//! # aoj-joinalg — local non-blocking join algorithms
//!
//! §3.2 of the paper: *"Any flavor of non-blocking join algorithm, e.g.,
//! [SHJ, XJoin, RPJ, PMJ, ripple joins], can be independently adopted at
//! each joiner task."* Joiners receive tuples one at a time, store them,
//! and join each arrival against the stored tuples of the opposite
//! relation. This crate provides the two index structures the paper's
//! evaluation uses (§5: "As indexes, joiners use balanced binary trees for
//! band joins and hashmaps for equi-joins"), both implementing
//! [`aoj_core::JoinIndex`]:
//!
//! * [`SymmetricHashIndex`] — for equi-joins (the local half of the
//!   classic symmetric hash join): per segment, one tuple arena and one
//!   map from key to both relations' heads, short key-sides chained
//!   through the arena, hot ones in contiguous runs;
//! * [`BandIndex`] — B-tree per side with range probes, for band joins
//!   `|r.key − s.key| ≤ w`.
//!
//! Arbitrary theta predicates scan linearly through
//! [`aoj_core::index::VecIndex`]. [`index_for`] picks the right structure
//! for a predicate, and [`storage::SpillGauge`] models the paper's
//! BerkeleyDB overflow tier (performance falls off a cliff once a joiner
//! exceeds its RAM budget — the starred entries of Table 2).

pub mod band;
pub mod factory;
pub mod storage;
pub mod symmetric_hash;

pub use band::BandIndex;
pub use factory::index_for;
pub use storage::SpillGauge;
pub use symmetric_hash::SymmetricHashIndex;
