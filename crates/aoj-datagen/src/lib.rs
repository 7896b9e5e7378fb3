//! # aoj-datagen — the paper's workloads, at simulation scale
//!
//! Generates the evaluation inputs of *Scalable and Adaptive Online Joins*:
//! TPC-H-shaped relations ([`tpch`]) with Zipf-skewed foreign keys
//! ([`zipf`], the Chaudhuri–Narasayya skew settings Z0–Z4), the five
//! queries of Table 1 / §5.4 as two-stream join workloads ([`queries`]),
//! and the arrival-order dynamics ([`stream`]) including the §5.4
//! fluctuation schedule.
//!
//! Everything is deterministic under a seed. Scale is controlled by
//! [`tpch::ScaledGb`]: row-count ratios and selectivities match TPC-H, the
//! absolute counts are divided by a documented reduction factor so
//! experiments run in seconds rather than cluster-days.

pub mod queries;
pub mod stream;
pub mod tpch;
pub mod zipf;
