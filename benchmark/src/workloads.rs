//! The four workloads: what each offers the operator and why.
//!
//! Sizes are fixed — they do not scale with the machine or with how fast
//! the current commit is — so a rep means the same work on every commit.
//! Only the *number* of reps (closed loop) or the stream length at the
//! fixed rate (open loop) follows `--seconds`.

use aoj_core::predicate::Predicate;
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::{fluctuating, interleave, Arrivals};
use aoj_datagen::zipf::ZipfSampler;
use aoj_operators::{BackendChoice, OperatorKind, SessionBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Joiners on every workload: the smallest grid with all three shapes
/// (1,4) / (2,2) / (4,1).
pub const J: u32 = 4;
/// Payload bytes per tuple.
const TUPLE_BYTES: u32 = 64;
/// Share of `--seconds` a closed-loop workload's probe is paced for.
pub const PROBE_SHARE: f64 = 0.3;
/// Share of a rep's tuples the probe offers at once before it paces.
pub const PROBE_PREFILL_SHARE: f64 = 0.2;
/// Leading share of an open-loop run whose samples are discarded
/// (cold caches, first migrations).
pub const DISCARD_SHARE: f64 = 0.2;

/// How a workload loads the session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Closed loop: push as fast as backpressure admits, then `close()`;
    /// repeated, each rep a fresh session over `tuples_per_rep` tuples.
    Saturated {
        /// Tuples per rep (fixed).
        tuples_per_rep: usize,
        /// Offered rate of the light-load latency probe that follows
        /// the saturated reps: an open-loop run over the head of the
        /// same stream, far enough below saturation that the single
        /// receiving thread keeps up with the match stream.
        probe_rate_tps: u64,
    },
    /// Open loop: one session offered a fixed rate for `--seconds`.
    Paced {
        /// Offered tuples per second.
        rate_tps: u64,
    },
}

/// Which stream a workload generates.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stream {
    /// Uniform equi-join keys, |R| = |S|, random interleave.
    EquiUniform { key_space: u64 },
    /// Zipf(z) band join, |R|:|S| = 1:10, random interleave.
    BandZipf { key_space: u64, z: f64 },
    /// Uniform equi-join keys on the §5.4 fluctuating schedule.
    EquiFluctuating { key_space: u64, k: u64 },
}

/// One workload of the benchmark.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: what the workload is for.
    pub why: &'static str,
    /// Execution backend.
    pub backend: BackendChoice,
    /// Join predicate.
    pub predicate: Predicate,
    /// Count window, if the session evicts.
    pub window: Option<u64>,
    /// Load shape.
    pub load: Load,
    stream: Stream,
}

/// The stream `equi_sat` and `equi_tcp_sat` share: the difference
/// between those two rows is the TCP backend and nothing else.
const EQUI_SAT_STREAM: Stream = Stream::EquiUniform { key_space: 125_000 };
const EQUI_SAT_TUPLES: usize = 500_000;

/// Every workload, in report order.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "equi_sat",
            why: "threaded closed loop, uniform equi-join at ~1 match/tuple: the data plane \
                  (source window, route+sketch, coalescer, mailbox, hash index) with almost no join output",
            backend: BackendChoice::Threaded,
            predicate: Predicate::Equi,
            window: None,
            load: Load::Saturated {
                tuples_per_rep: EQUI_SAT_TUPLES,
                probe_rate_tps: 20_000,
            },
            stream: EQUI_SAT_STREAM,
        },
        Spec {
            name: "band_zipf_sat",
            why: "threaded closed loop, Zipf(0.75) band join over 20k keys, |R|:|S|=1:10: join-work-bound \
                  (band-index merge probe, match emit) with one forced (2,2)->(1,4) migration per rep",
            backend: BackendChoice::Threaded,
            predicate: Predicate::Band { width: 2 },
            window: None,
            load: Load::Saturated {
                tuples_per_rep: 220_000,
                probe_rate_tps: 2_000,
            },
            stream: Stream::BandZipf {
                key_space: 20_000,
                z: 0.75,
            },
        },
        Spec {
            name: "equi_tcp_sat",
            why: "the equi_sat stream on the 5-process loopback TCP backend: the gap to equi_sat is \
                  encode, socket, decode and process spawn, so a wire or socket change moves only this row",
            backend: BackendChoice::Tcp,
            predicate: Predicate::Equi,
            window: None,
            load: Load::Saturated {
                tuples_per_rep: EQUI_SAT_TUPLES,
                probe_rate_tps: 20_000,
            },
            stream: EQUI_SAT_STREAM,
        },
        Spec {
            name: "fluct_window_paced",
            why: "threaded open loop at a fixed 50k tuples/s (~13% of saturation), fluctuating schedule, \
                  200k-tuple count window: latency, live migrations under load, eviction and idle cost",
            backend: BackendChoice::Threaded,
            predicate: Predicate::Equi,
            window: Some(200_000),
            load: Load::Paced { rate_tps: 50_000 },
            stream: Stream::EquiFluctuating {
                key_space: 50_000,
                k: 4,
            },
        },
    ]
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The sequence-number gap below which a windowed session must
    /// produce every matching pair exactly once (`None`: no window, every
    /// pair). One sub-window short of the window itself: a joiner evicts
    /// against *its own* stream clock, which runs ahead of a tuple still
    /// in flight from another reshuffler by up to the flow-control window,
    /// so the last few thousand sequence numbers before the window edge
    /// are the joiner's to keep or drop.
    pub fn exact_gap(&self) -> Option<u64> {
        self.window
            .map(|w| w - w / aoj_core::lifecycle::DEFAULT_SUB_WINDOWS as u64)
    }

    /// This workload on another backend (the cross-backend ratios).
    pub fn on(&self, backend: BackendChoice) -> Spec {
        Spec {
            backend,
            ..self.clone()
        }
    }

    /// Generate `n` arrivals from `seed` — the only thing the operator
    /// ever sees of a workload. The same seed gives the same stream.
    pub fn arrivals(&self, n: usize, seed: u64) -> Arrivals {
        let uniform = |n: usize, key_space: u64, seed: u64| -> Vec<StreamItem> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| item(rng.gen_range(0..key_space) as i64))
                .collect()
        };
        let zipf = |n: usize, key_space: u64, z: f64, seed: u64| -> Vec<StreamItem> {
            let mut sampler = ZipfSampler::new(key_space, z, seed);
            (0..n).map(|_| item(sampler.next() as i64)).collect()
        };
        let (r_seed, s_seed, mix_seed) = (seed ^ 0x5EED_000A, seed ^ 0x5EED_000B, seed ^ 0x57AE);
        let workload = |r_items, s_items| Workload {
            name: self.name,
            predicate: self.predicate.clone(),
            r_items,
            s_items,
        };
        match self.stream {
            Stream::EquiUniform { key_space } => {
                let w = workload(
                    uniform(n / 2, key_space, r_seed),
                    uniform(n - n / 2, key_space, s_seed),
                );
                interleave(&w, mix_seed)
            }
            Stream::BandZipf { key_space, z } => {
                let w = workload(
                    zipf(n / 11, key_space, z, r_seed),
                    zipf(n - n / 11, key_space, z, s_seed),
                );
                interleave(&w, mix_seed)
            }
            Stream::EquiFluctuating { key_space, k } => {
                let w = workload(
                    uniform(n / 2, key_space, r_seed),
                    uniform(n - n / 2, key_space, s_seed),
                );
                fluctuating(&w, k, mix_seed)
            }
        }
    }

    /// The session configuration every rep opens with: defaults
    /// (`batch_tuples` = 64) plus the workload's predicate, backend and
    /// window, no pair collection, competitive trace on.
    pub fn builder(&self) -> SessionBuilder {
        let b = SessionBuilder::new(J, OperatorKind::Dynamic)
            .with_predicate(self.predicate.clone())
            .with_workload(self.name)
            .with_backend(self.backend)
            .with_collect_matches(false)
            .with_track_competitive(true);
        match self.window {
            Some(tuples) => b.with_count_window(tuples),
            None => b,
        }
    }
}

fn item(key: i64) -> StreamItem {
    StreamItem {
        key,
        aux: 0,
        bytes: TUPLE_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoj_core::tuple::Rel;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in all() {
            let a = spec.arrivals(4_000, 7);
            assert_eq!(a.len(), 4_000, "{}", spec.name);
            assert_eq!(a, spec.arrivals(4_000, 7), "{}", spec.name);
            assert_ne!(a, spec.arrivals(4_000, 8), "{}", spec.name);
        }
    }

    #[test]
    fn tcp_row_replays_the_threaded_equi_stream() {
        let (a, b) = (find("equi_sat").unwrap(), find("equi_tcp_sat").unwrap());
        assert_eq!(a.arrivals(2_000, 3), b.arrivals(2_000, 3));
        assert_eq!(a.load, b.load);
    }

    #[test]
    fn band_stream_is_one_to_ten() {
        let a = find("band_zipf_sat").unwrap().arrivals(11_000, 1);
        assert_eq!(a.iter().filter(|(rel, _)| *rel == Rel::R).count(), 1_000);
    }
}
