//! The migration-decision algorithm (Alg. 2, §4.2.1) with the ε trade-off
//! of Theorem 4.2.
//!
//! Right after a migration the controller remembers committed cardinalities
//! `(|R|, |S|)` and accumulates deltas `(|ΔR|, |ΔS|)`. When either delta
//! reaches `ε ×` its committed total, the controller recomputes the optimal
//! mapping for the new totals, migrates if it differs from the current one,
//! and folds the deltas in. The paper proves (for `J` a power of two,
//! ratio within `J`, equal tuple sizes):
//!
//! * **Lemma 4.2** — the new optimum is at most one halving/doubling step
//!   away from the current mapping;
//! * **Lemma 4.3 / Theorem 4.2** — the ILF stays within
//!   `(3 + 2ε)/(3 + ε)` of optimal (1.25 at ε = 1);
//! * **Lemma 4.5 / Theorem 4.2** — amortised migration cost is `O(1/ε)`
//!   per input tuple.
//!
//! The decider is pure bookkeeping over cardinality estimates. The
//! controller feeds it Alg. 1's scaled increments: reshuffler 0 sees one
//! in `J` of the tuples and calls [`MigrationDecider::observe_only`] with
//! `J ×` each one's size (`aoj_operators::reshuffler`), which reproduces
//! the paper's decentralised control loop.

use crate::ilf::{effective_cardinalities, ilf_numerator, optimal_mapping};
use crate::mapping::Mapping;

/// Configuration for [`MigrationDecider`].
#[derive(Clone, Copy, Debug)]
pub struct DecisionConfig {
    /// ε as a rational `num/den`, `0 < ε ≤ 1`. Theorem 4.2: the competitive
    /// ratio is `(3 + 2ε)/(3 + ε)` and amortised cost `8/ε`.
    pub epsilon_num: u32,
    /// Denominator of ε.
    pub epsilon_den: u32,
    /// No decision is evaluated before the *estimated* total reaches this
    /// many tuples — the paper's warm-up ("the operator begins adapting
    /// after it has received at least 500K tuples", §5.4). This avoids
    /// thrashing on the first handful of arrivals where `|ΔR| ≥ |R|`
    /// trivially holds.
    pub min_total: u64,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            epsilon_num: 1,
            epsilon_den: 1,
            min_total: 0,
        }
    }
}

impl DecisionConfig {
    /// ε as a float (reporting only; decisions use exact integer math).
    pub(crate) fn epsilon(&self) -> f64 {
        self.epsilon_num as f64 / self.epsilon_den as f64
    }

    /// The proven competitive ratio `(3 + 2ε)/(3 + ε)` for this ε
    /// (Theorem 4.2; 1.25 at ε = 1).
    pub fn competitive_ratio(&self) -> f64 {
        let e = self.epsilon();
        (3.0 + 2.0 * e) / (3.0 + e)
    }
}

/// The decider's committed statistics, detached from its configuration —
/// what a checkpoint stores so a restored session resumes Alg. 2 exactly
/// where it left off (config is code, not data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeciderSnapshot {
    /// Committed `|R|`.
    pub r: u64,
    /// Committed `|S|`.
    pub s: u64,
    /// Uncommitted `|ΔR|`.
    pub dr: u64,
    /// Uncommitted `|ΔS|`.
    pub ds: u64,
    /// Decision points evaluated.
    pub decisions: u64,
    /// Migrations triggered.
    pub migrations: u64,
}

/// What the controller should do after a decision point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Keep the current mapping (either no threshold crossed, or the
    /// current mapping is still optimal).
    Stay,
    /// Migrate to the returned mapping (strictly lower ILF).
    Migrate(Mapping),
}

/// Alg. 2 state. Cardinalities are abstract units (tuple counts, or bytes
/// under the unequal-tuple-size generalisation).
#[derive(Clone, Debug)]
pub struct MigrationDecider {
    cfg: DecisionConfig,
    j: u32,
    current: Mapping,
    r: u64,
    s: u64,
    dr: u64,
    ds: u64,
    decisions: u64,
    migrations: u64,
}

impl MigrationDecider {
    /// Start with `j` joiners under `initial` mapping.
    pub fn new(j: u32, initial: Mapping, cfg: DecisionConfig) -> MigrationDecider {
        assert_eq!(initial.j(), j, "initial mapping must use all J joiners");
        assert!(cfg.epsilon_num > 0 && cfg.epsilon_num <= cfg.epsilon_den);
        MigrationDecider {
            cfg,
            j,
            current: initial,
            r: 0,
            s: 0,
            dr: 0,
            ds: 0,
            decisions: 0,
            migrations: 0,
        }
    }

    /// Record `units` newly arrived units on R (resp. S) and check the
    /// migration condition (Alg. 1 line 6 + Alg. 2). Returns
    /// `Decision::Migrate` when the operator should change its mapping.
    pub fn observe(&mut self, is_r: bool, units: u64) -> Decision {
        self.observe_only(is_r, units);
        self.check()
    }

    /// Record arrivals without evaluating the migration condition. Used by
    /// operators that gate decision checks (e.g. while a migration is in
    /// flight, the controller keeps counting but defers Alg. 2 until all
    /// joiners have acked).
    #[inline]
    pub fn observe_only(&mut self, is_r: bool, units: u64) {
        if is_r {
            self.dr += units;
        } else {
            self.ds += units;
        }
    }

    /// Evaluate the Alg. 2 condition without new arrivals.
    pub fn check(&mut self) -> Decision {
        // Warm-up gate: do nothing until enough volume has been seen.
        if self.r + self.s + self.dr + self.ds < self.cfg.min_total {
            return Decision::Stay;
        }
        // |ΔR| ≥ ε|R| or |ΔS| ≥ ε|S|, in exact arithmetic:
        // ΔR·den ≥ R·num. With R = 0 this fires on the first delta, which
        // is Alg. 2's initialisation behaviour.
        let num = self.cfg.epsilon_num as u128;
        let den = self.cfg.epsilon_den as u128;
        let trig_r = self.dr as u128 * den >= self.r as u128 * num;
        let trig_s = self.ds as u128 * den >= self.s as u128 * num;
        if !(trig_r && self.dr > 0 || trig_s && self.ds > 0) {
            return Decision::Stay;
        }
        self.decisions += 1;
        // Choose the mapping minimising the ILF for the new totals
        // (Alg. 2 line 3), with the §4.2.2 padding applied so the ratio
        // assumption of Lemma 4.1 holds.
        let (re, se) = effective_cardinalities(self.j, self.r + self.dr, self.s + self.ds);
        let best = optimal_mapping(self.j, re, se);
        // Commit the deltas (Alg. 2 lines 5–6) whether or not we migrate.
        self.r += self.dr;
        self.s += self.ds;
        self.dr = 0;
        self.ds = 0;
        if best != self.current && ilf_numerator(re, se, best) < ilf_numerator(re, se, self.current)
        {
            self.migrations += 1;
            self.current = best;
            Decision::Migrate(best)
        } else {
            Decision::Stay
        }
    }

    /// Export the committed statistics for a checkpoint.
    pub fn snapshot(&self) -> DeciderSnapshot {
        DeciderSnapshot {
            r: self.r,
            s: self.s,
            dr: self.dr,
            ds: self.ds,
            decisions: self.decisions,
            migrations: self.migrations,
        }
    }

    /// Overwrite the committed statistics from a checkpoint. The mapping
    /// is restored separately via [`set_grid`](Self::set_grid) (it must
    /// match the restored grid's actual layout, whose `J` may differ from
    /// the initial one after elastic reconfiguration).
    pub fn restore(&mut self, snap: DeciderSnapshot) {
        self.r = snap.r;
        self.s = snap.s;
        self.dr = snap.dr;
        self.ds = snap.ds;
        self.decisions = snap.decisions;
        self.migrations = snap.migrations;
    }

    /// Re-seat the decider on a restored grid: adopts `mapping` *and* its
    /// joiner count, unlike [`set_current`](Self::set_current) which
    /// asserts `J` unchanged. Checkpoints may be taken after elastic
    /// expansion/contraction, where the live `J` differs from the one the
    /// decider was constructed with.
    pub fn set_grid(&mut self, mapping: Mapping) {
        self.j = mapping.j();
        self.current = mapping;
    }

    /// Inform the decider that the operator completed a migration to
    /// `mapping` (used when the operator executes multi-step chains and
    /// lands somewhere the decider should treat as current).
    pub fn set_current(&mut self, mapping: Mapping) {
        assert_eq!(mapping.j(), self.j);
        self.current = mapping;
    }

    /// Elastic ×4 expansion (§4.2.2, Theorem 4.3): the cluster grows
    /// `J → 4J` and the mapping `(n, m) → (2n, 2m)`. Committed
    /// cardinalities and deltas carry over unchanged — the `n : m` ratio
    /// is preserved, so the ILF-competitiveness argument of Theorem 4.2
    /// is unaffected and Alg. 2 keeps running against the larger grid.
    pub fn expand(&mut self) {
        self.j *= 4;
        self.current = Mapping::new(self.current.n * 2, self.current.m * 2);
    }

    /// Elastic 4→1 contraction: the cluster shrinks `J → J/4` and the
    /// mapping `(n, m) → (n/2, m/2)`. The exact inverse of
    /// [`expand`](MigrationDecider::expand) — cardinalities and deltas
    /// carry over, the `n : m` ratio is preserved, and Alg. 2 keeps
    /// running against the smaller grid.
    pub fn contract(&mut self) {
        assert!(
            self.current.n >= 2 && self.current.m >= 2,
            "cannot contract a ({}, {}) mapping",
            self.current.n,
            self.current.m
        );
        self.j /= 4;
        self.current = Mapping::new(self.current.n / 2, self.current.m / 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Oracles of the decision tests; the controller reads the decider through `snapshot`.
    impl MigrationDecider {
        /// The mapping the decider believes the operator is running.
        #[inline]
        fn current(&self) -> Mapping {
            self.current
        }

        /// Decision points evaluated and migrations triggered so far.
        fn counters(&self) -> (u64, u64) {
            (self.decisions, self.migrations)
        }
    }

    fn decider(j: u32) -> MigrationDecider {
        MigrationDecider::new(j, Mapping::square(j), DecisionConfig::default())
    }

    #[test]
    fn competitive_ratio_formula() {
        let cfg = DecisionConfig::default();
        assert!((cfg.competitive_ratio() - 1.25).abs() < 1e-12);
        let half = DecisionConfig {
            epsilon_num: 1,
            epsilon_den: 2,
            ..cfg
        };
        assert!((half.competitive_ratio() - 4.0 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn first_tuple_triggers_a_decision_point() {
        let mut d = decider(16);
        // R=0 so |ΔR| >= |R| holds immediately. The §4.2.2 padding turns
        // (1, 0) into effective (1, 1), whose optimum is the square the
        // operator already runs — so the decision point fires but no
        // migration is needed.
        assert_eq!(d.observe(true, 1), Decision::Stay);
        let snap = d.snapshot();
        assert_eq!((snap.r, snap.s), (1, 0), "deltas must be committed");
        assert_eq!(d.counters().0, 1, "a decision point must have fired");
    }

    #[test]
    fn warm_up_gate_defers_decisions() {
        let cfg = DecisionConfig {
            min_total: 100,
            ..Default::default()
        };
        let mut d = MigrationDecider::new(16, Mapping::square(16), cfg);
        for _ in 0..99 {
            assert_eq!(d.observe(true, 1), Decision::Stay);
        }
        // 100th unit crosses the gate and triggers: all-R input wants (16,1).
        assert_eq!(d.observe(true, 1), Decision::Migrate(Mapping::new(16, 1)));
    }

    #[test]
    fn balanced_input_stays_square() {
        let cfg = DecisionConfig {
            min_total: 64,
            ..Default::default()
        };
        let mut d = MigrationDecider::new(16, Mapping::square(16), cfg);
        let mut migrations = 0;
        for i in 0..100_000u64 {
            let dec = d.observe(i % 2 == 0, 1);
            if matches!(dec, Decision::Migrate(_)) {
                migrations += 1;
            }
        }
        assert_eq!(
            migrations, 0,
            "balanced streams must not trigger migrations"
        );
        assert_eq!(d.current(), Mapping::new(4, 4));
    }

    #[test]
    fn skewed_growth_walks_one_step_at_a_time() {
        // Start balanced at (4,4); then only S grows. Each decision point
        // moves at most one step (Lemma 4.2).
        let cfg = DecisionConfig {
            min_total: 8,
            ..Default::default()
        };
        let mut d = MigrationDecider::new(16, Mapping::square(16), cfg);
        for i in 0..128u64 {
            d.observe(i % 2 == 0, 1);
        }
        assert_eq!(d.current(), Mapping::new(4, 4));
        let mut seen = vec![d.current()];
        for _ in 0..1_000_000u64 {
            if let Decision::Migrate(mp) = d.observe(false, 1) {
                let prev = *seen.last().unwrap();
                let one_step = prev.halve_rows() == Some(mp) || prev.halve_cols() == Some(mp);
                assert!(one_step, "jumped from {prev:?} to {mp:?}");
                seen.push(mp);
            }
        }
        assert_eq!(*seen.last().unwrap(), Mapping::new(1, 16));
    }

    #[test]
    fn ilf_stays_competitive_under_adversarial_arrivals() {
        // Empirical Lemma 4.3: at every instant the running mapping's ILF
        // (computed on true cardinalities) is within 1.25 of the optimum,
        // once past the warm-up and with the ratio within J.
        use crate::ilf::{ilf, optimal_ilf};
        let j = 64u32;
        let cfg = DecisionConfig {
            min_total: 1000,
            ..Default::default()
        };
        let mut d = MigrationDecider::new(j, Mapping::square(j), cfg);
        let (mut r, mut s) = (0u64, 0u64);
        // Alternating bursts: R-heavy, then S-heavy, then mixed.
        let phases: &[(u64, u64, u64)] = &[
            (1, 0, 20_000),
            (0, 1, 60_000),
            (3, 1, 40_000),
            (1, 7, 80_000),
        ];
        let mut worst: f64 = 1.0;
        for &(wr, ws, steps) in phases {
            for i in 0..steps {
                let is_r = (i * (wr + ws) / steps.max(1)) % (wr + ws) < wr;
                if is_r {
                    r += 1;
                } else {
                    s += 1;
                }
                d.observe(is_r, 1);
                if r + s > 2000 && r.max(s) <= r.min(s) * j as u64 {
                    let ratio = ilf(r, s, d.current()) / optimal_ilf(j, r, s);
                    worst = worst.max(ratio);
                }
            }
        }
        assert!(worst <= 1.25 + 1e-9, "worst ILF ratio {worst}");
    }

    #[test]
    fn smaller_epsilon_tracks_tighter() {
        use crate::ilf::{ilf, optimal_ilf};
        let j = 64u32;
        let run = |num: u32, den: u32| -> (f64, u64) {
            let cfg = DecisionConfig {
                epsilon_num: num,
                epsilon_den: den,
                min_total: 1000,
            };
            let mut d = MigrationDecider::new(j, Mapping::square(j), cfg);
            let (mut r, mut s) = (0u64, 0u64);
            let mut worst: f64 = 1.0;
            for i in 0..200_000u64 {
                let is_r = i % 9 == 0; // S-heavy drift
                if is_r {
                    r += 1
                } else {
                    s += 1
                }
                d.observe(is_r, 1);
                if r + s > 4000 {
                    worst = worst.max(ilf(r, s, d.current()) / optimal_ilf(j, r, s));
                }
            }
            (worst, d.counters().1)
        };
        let (worst_1, migs_1) = run(1, 1);
        let (worst_q, migs_q) = run(1, 4);
        // ε=1/4: better (or equal) tracking, more decision activity.
        assert!(worst_q <= worst_1 + 1e-9);
        assert!(migs_q >= migs_1);
        // Both satisfy their theoretical bounds.
        assert!(worst_1 <= 1.25 + 1e-9);
        assert!(worst_q <= (3.0 + 2.0 * 0.25) / (3.0 + 0.25) + 1e-9);
    }

    #[test]
    fn expansion_rescales_decider_to_4j() {
        let mut d = decider(4);
        for i in 0..64u64 {
            d.observe(i % 2 == 0, 1);
        }
        assert_eq!(d.current(), Mapping::new(2, 2));
        d.expand();
        assert_eq!(d.current(), Mapping::new(4, 4));
        // Alg. 2 keeps running against the larger grid: a long S-only tail
        // may now walk all the way to (1, 16).
        for _ in 0..1_000_000u64 {
            d.observe(false, 1);
        }
        assert_eq!(d.current(), Mapping::new(1, 16));
    }

    #[test]
    fn commit_happens_even_without_migration() {
        let cfg = DecisionConfig {
            min_total: 4,
            ..Default::default()
        };
        let mut d = MigrationDecider::new(4, Mapping::square(4), cfg);
        for i in 0..16u64 {
            d.observe(i % 2 == 0, 1);
        }
        // Thresholds fired repeatedly; deltas must have been folded in.
        let snap = d.snapshot();
        assert_eq!(snap.r + snap.s + snap.dr + snap.ds, 16);
        assert!(snap.r > 0);
    }

    #[test]
    fn extreme_ratio_uses_padding_and_stays_at_edge() {
        let cfg = DecisionConfig {
            min_total: 10,
            ..Default::default()
        };
        let mut d = MigrationDecider::new(8, Mapping::square(8), cfg);
        for _ in 0..100_000u64 {
            d.observe(true, 1); // only R, ratio far beyond J
        }
        assert_eq!(d.current(), Mapping::new(8, 1));
    }
}
