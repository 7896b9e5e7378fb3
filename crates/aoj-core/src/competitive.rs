//! Online ILF competitiveness samples — the instrumentation behind
//! Fig. 8c, which plots `ILF/ILF*` against tuples processed and verifies it
//! never exceeds the proven bound. The worst ratio of a run is
//! `RunReport::max_competitive_ratio` (in `aoj-operators`).

use crate::ilf::{ilf, optimal_ilf};
use crate::mapping::Mapping;

/// One point of the `ILF/ILF*` trace, against an oracle that knows the
/// true cardinalities (the comparison of §5.4).
#[derive(Clone, Copy, Debug)]
pub struct RatioSample {
    /// Tuples processed when the sample was taken.
    pub tuples: u64,
    /// True `|R|` at that instant.
    pub r: u64,
    /// True `|S|` at that instant.
    pub s: u64,
    /// The mapping the operator was running; its `J` is the one the
    /// oracle is held to.
    pub mapping: Mapping,
}

impl RatioSample {
    /// The state of an operator running `current` after processing
    /// `tuples` tuples in total, with true cardinalities `(r, s)`; `None`
    /// before the first tuple (`r = s = 0`), where no ILF exists.
    pub fn new(tuples: u64, r: u64, s: u64, current: Mapping) -> Option<RatioSample> {
        if r == 0 && s == 0 {
            return None;
        }
        Some(RatioSample {
            tuples,
            r,
            s,
            mapping: current,
        })
    }

    /// `ILF / ILF*` (1.0 when optimal): the running mapping's ILF over
    /// the oracle-optimal mapping's at the same `J`.
    pub fn ratio(&self) -> f64 {
        let optimal = optimal_ilf(self.mapping.j(), self.r, self.s);
        if optimal == 0.0 {
            1.0
        } else {
            ilf(self.r, self.s, self.mapping) / optimal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_is_skipped() {
        assert!(RatioSample::new(0, 0, 0, Mapping::new(2, 2)).is_none());
    }
}
