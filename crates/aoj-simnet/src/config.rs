//! Simulation-wide configuration: the network parameters and the CPU cost
//! model used by operator tasks to price their work.

use crate::network::NetworkConfig;
use crate::time::SimDuration;

/// CPU cost model for join-operator work, in microseconds.
///
/// The absolute values are calibrated loosely against the paper's testbed
/// (3 GHz Xeons, JVM operators): what matters for reproducing the paper's
/// *shapes* is the relative cost of receiving a tuple, indexing it, probing,
/// emitting matches, and the large multiplier once state spills to disk
/// (§3.3 observes overflow "hinders performance severely" — two orders of
/// magnitude in Fig 6c).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Demarshalling + bookkeeping per received data message.
    pub recv_overhead_us: u64,
    /// Appending a tuple to local storage and updating the index.
    pub store_us: u64,
    /// Probing the opposite relation's index (hash or tree lookup).
    pub probe_us: u64,
    /// Per candidate tuple scanned during a probe (e.g. within a band or a
    /// hash bucket).
    pub per_candidate_us_hundredths: u64,
    /// Emitting one output match.
    pub per_match_us_hundredths: u64,
    /// Multiplier applied to `store`/`probe` work for state beyond the RAM
    /// budget (simulated BerkeleyDB-style disk tier).
    pub spill_penalty: u64,
    /// Handling a control signal.
    pub control_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            recv_overhead_us: 2,
            store_us: 1,
            probe_us: 1,
            per_candidate_us_hundredths: 10,
            per_match_us_hundredths: 20,
            spill_penalty: 20,
            control_us: 1,
        }
    }
}

impl CostModel {
    /// Cost of scanning `candidates` index entries and emitting `matches`.
    #[inline]
    pub fn probe_cost(&self, candidates: u64, matches: u64) -> SimDuration {
        SimDuration(
            self.probe_us
                + (candidates * self.per_candidate_us_hundredths) / 100
                + (matches * self.per_match_us_hundredths) / 100,
        )
    }

    /// Cost of probing **and storing** a coalesced batch of `n` data
    /// tuples that together scanned `candidates` index entries and
    /// emitted `matches`: the fixed probe/store overheads are per tuple,
    /// the scan/emit terms follow the accumulated statistics. A batch of
    /// one prices exactly like `probe_cost(c, m) + store_cost(false)`,
    /// so `batch_tuples = 1` reproduces the per-tuple plane's timeline.
    #[inline]
    pub fn batch_cost(&self, n: u64, candidates: u64, matches: u64) -> SimDuration {
        SimDuration(
            n * (self.probe_us + self.store_us)
                + (candidates * self.per_candidate_us_hundredths) / 100
                + (matches * self.per_match_us_hundredths) / 100,
        )
    }
}

/// Top-level simulator configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimConfig {
    /// Network parameters (latency, bandwidth, framing overhead).
    pub network: NetworkConfig,
    /// Optional hard stop: the simulation aborts past this virtual time.
    /// `None` runs to quiescence.
    pub deadline: Option<crate::time::SimTime>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_cost_scales_with_candidates_and_matches() {
        let cm = CostModel::default();
        let base = cm.probe_cost(0, 0);
        assert_eq!(base.as_micros(), cm.probe_us);
        let heavy = cm.probe_cost(1000, 500);
        assert_eq!(heavy.as_micros(), cm.probe_us + 100 + 100);
    }
}
