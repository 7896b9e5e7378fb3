//! The simulated secondary-storage tier.
//!
//! §5 of the paper integrates joiners with BerkeleyDB: "Joiners perform the
//! local join in memory, but if it runs out of memory it begins spilling to
//! disk … machines suffer from long delayed join evaluation and performance
//! hits." [`SpillGauge`] models exactly that cliff: a joiner tracks its
//! stored bytes against a RAM budget, and once over budget, the fraction of
//! state on "disk" multiplies the cost of stores and probes. Out-of-core
//! weak-scalability runs (Fig. 8a/8b) use a budget below the working set;
//! in-memory runs set it comfortably above.

/// Tracks a joiner's storage against its RAM budget and prices the
/// slowdown of the spilled fraction.
#[derive(Clone, Copy, Debug)]
pub struct SpillGauge {
    /// RAM budget in bytes (the paper's 2 GB heap per joiner, scaled).
    pub(crate) ram_budget: u64,
    /// Cost multiplier applied to work on spilled state (the disk tier).
    pub(crate) penalty: u64,
    stored: u64,
}

impl SpillGauge {
    /// A gauge with the given budget and disk penalty multiplier.
    pub fn new(ram_budget: u64, penalty: u64) -> SpillGauge {
        assert!(penalty >= 1);
        SpillGauge {
            ram_budget,
            penalty,
            stored: 0,
        }
    }

    /// Update the gauge with the joiner's current stored bytes.
    pub fn set_stored(&mut self, bytes: u64) {
        self.stored = bytes;
    }

    /// Is any state on the disk tier right now?
    pub fn is_spilling(&self) -> bool {
        self.stored > self.ram_budget
    }

    /// Bytes currently beyond the RAM budget.
    pub fn spilled_bytes(&self) -> u64 {
        self.stored.saturating_sub(self.ram_budget)
    }

    /// Fraction of state on the disk tier, in `[0, 1]`.
    pub(crate) fn spilled_fraction(&self) -> f64 {
        if self.stored == 0 {
            0.0
        } else {
            self.spilled_bytes() as f64 / self.stored as f64
        }
    }

    /// Effective cost of `base_cost` units of storage/probe work given the
    /// current tiering: in-memory work costs 1×, work on the spilled
    /// fraction costs `penalty`×. The expected multiplier is applied
    /// deterministically (fractional accounting, rounded up).
    pub fn effective_cost(&self, base_cost: u64) -> u64 {
        if !self.is_spilling() {
            return base_cost;
        }
        let f = self.spilled_fraction();
        let mult = 1.0 + f * (self.penalty - 1) as f64;
        (base_cost as f64 * mult).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_budget_costs_nothing_extra() {
        let mut g = SpillGauge::new(1000, 20);
        g.set_stored(999);
        assert!(!g.is_spilling());
        assert_eq!(g.effective_cost(10), 10);
        assert_eq!(g.spilled_fraction(), 0.0);
    }

    #[test]
    fn over_budget_scales_with_spilled_fraction() {
        let mut g = SpillGauge::new(1000, 21);
        g.set_stored(2000); // half the state is on disk
        assert!(g.is_spilling());
        assert_eq!(g.spilled_bytes(), 1000);
        assert!((g.spilled_fraction() - 0.5).abs() < 1e-9);
        // multiplier = 1 + 0.5 * 20 = 11
        assert_eq!(g.effective_cost(10), 110);
    }

    #[test]
    fn empty_state_has_zero_fraction() {
        let g = SpillGauge::new(0, 5);
        assert_eq!(g.spilled_fraction(), 0.0);
    }
}
