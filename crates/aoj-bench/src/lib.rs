//! # aoj-bench — regenerating the paper's evaluation, verifying the rest
//!
//! One module per table/figure of §5 (the README's "Running" section and
//! `reproduce --help` are the index),
//! the verified scenarios for what the repo adds to the paper's operator
//! ([`experiments::scenarios`]), and a
//! [`bin/reproduce`](../src/bin/reproduce.rs) CLI that runs any of them
//! by name from one table ([`experiments::EXPERIMENTS`]).
//!
//! Scale: experiments run the paper's dataset sizes through
//! [`aoj_datagen::tpch::ScaledGb`] (row counts reduced ~1000x, ratios intact)
//! on the simulated cluster. Absolute numbers are simulation units; the
//! *shapes* — who wins, by what factor, where the crossovers are — are
//! the reproduction targets, recorded in EXPERIMENTS.md. Nothing here
//! measures the wall clock: that is `benchmark/`'s job.

pub mod experiments;

pub use experiments::*;
