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
//!
//! ## Under a retention window
//!
//! The joiners of a windowed session store only the live window
//! (`crate::lifecycle`), so Alg. 2 runs on that population rather than on
//! the stream's cumulative counts. [`MigrationDecider::with_window`] gives
//! the decider a model of it: per-sub-window `(R, S)` units, sealed and
//! retired by the joiners' own rule (`lifecycle::SubWindows`, which
//! `WindowTracker` runs too). Sub-windows are the aligned runs
//! `[k·sub_span, (k+1)·sub_span)` of the window's tick, the sequence
//! number under a count window. One retires once its newest tick is more
//! than `span` behind the newest one seen, so like the joiners' storage
//! the model lags the window by up to one sub-window. A retired
//! sub-window's units leave the committed totals (and then the deltas,
//! when it postdates the last commit), so the `|ΔR| ≥ ε|R|` test and the
//! optimum see the population the joiners store. At most
//! `sub_windows + 2` sub-windows are live.
//!
//! Theorem 4.2's growth-only argument does not survive a sliding
//! population. Between decision points the delta test bounds growth,
//! `|R| < (1 + ε)|R_c|`, but not shrinkage, and shrinking is what a window
//! does: once a count window is full its total is constant, so one
//! relation's shrink is the other's growth. With `|R_c| = |S_c|` and a
//! window turning over from R to S, the delta test first fires when S has
//! doubled, by which time R has fallen to zero; at `J = 4` the square
//! mapping then stores `|S|/2` per joiner where `(1, 4)` stores `|S|/4`
//! (2×; 8× at `J = 64`).
//!
//! Lemma 4.3's proof needs less than growth: only that the ratio
//! `x = |R|/|S|` stays within a factor `1 + ε` of the ratio `x_c` at the
//! last decision point. Write `y = x·J/n²` for the running `(n, m)`
//! mapping. `(n, m)` is optimal for `y ∈ [½, 2]` (Lemma 4.1), the
//! neighbour `(2n, m/2)` for `y ∈ [2, 8]`, where
//! `ILF/ILF* = (y + 1)/(y/2 + 2)`, and symmetrically below ½. A decision
//! point leaves `y_c ∈ [½, 2]`; with `x/x_c ∈ (1/(1+ε), 1+ε)`,
//! `y < 2(1 + ε)`, so `ILF/ILF* < (2(1+ε) + 1)/((1+ε) + 2) = (3+2ε)/(3+ε)`.
//! A windowed decider therefore has one more trigger: a decision point
//! also fires when the live ratio has drifted by `1 + ε` from `x_c`, in
//! either direction. While nothing has retired the delta test fires
//! first (`|R| < (1+ε)|R_c|` and `|S| ≥ |S_c|` keep `x < (1+ε)x_c`), so
//! until the first sub-window retires a windowed decider decides exactly as
//! an unwindowed one.
//!
//! The bound the code guarantees is therefore Theorem 4.2's own,
//! `β = (3 + 2ε)/(3 + ε)` (1.25 at ε = 1), on the modelled population at
//! every instant between decision points, with the ratio within `J`; and
//! since `y` stays inside `(1/(2(1+ε)), 2(1+ε)) ⊆ [¼, 4]`, Lemma 4.2's
//! one-step walk holds too. `decision::tests` property-tests the bound
//! over random phase schedules and checks the walk on a window that
//! turns over from S to R.
//!
//! The modelled population `P` is the window `W` (the last `span` tuples)
//! plus the sub-window `Λ` by which eviction lags, `|Λ| ≤ span/sub_windows`;
//! the joiners store the same. Priced against `W` alone, as the
//! competitive trace and the benchmark's `ilf_ratio` price it:
//! `ILF_M(W) ≤ ILF_M(P) ≤ β·ILF*(P) ≤ β·(ILF*(W) + ILF_{M*}(Λ))` for `W`'s
//! optimum `M*`, and `ILF_{M*}(Λ) ≤ |Λ| ≤ J·ILF*(W)/sub_windows` since
//! every ILF of `W` is at least `|W|/J`. So against the exact window the
//! ratio is at most `β·(1 + J/sub_windows)`: 1.875 at `J = 4` and the
//! default 8 sub-windows, where an unwindowed decider on a window that
//! has turned over from S to R reads 2. When the lagging sub-window has
//! the window's mix the factor is only `1 + 1/sub_windows` (1.125), the
//! floor a steady window sits at. Outside both bounds, as for Theorem 4.2
//! itself: Alg. 1's scaled estimates, and the deferral of decisions while
//! a migration is in flight. Lemma 4.5's amortised cost is not
//! re-derived; every decision point needs an ε share of the live
//! population to arrive, or the live ratio to move by `1 + ε`.
//!
//! What the joiners store can exceed `P` in three ways, each outside the
//! bound:
//! * a joiner's evictor also waits out its lateness allowance
//!   (`crate::lifecycle`, "Window semantics"), the furthest any tuple has
//!   reached it behind its clock, capped at one sub-window: ~2,500
//!   sequence numbers at `J = 4` with 64-tuple batches;
//! * a joiner seals at batch ends, so a sub-window it closes keeps the
//!   rest of the batch that closed it;
//! * under a time window, the model sees only the controller's `1/J`
//!   share of the arrivals and the instants it ingested them, and a
//!   migration merges relocated state into the receiving joiner's live
//!   run, where it ages with that run's newest tuple (a relocated tuple
//!   carries no arrival tick to seal it by), so it can stay stored up to
//!   a window past its expiry. The bound above covers count windows only.
//!
//! Under a count window the model is a function of stream position alone:
//! sub-windows are sealed and retired by sequence number, never by a clock or
//! a gauge, so at a given position it holds the same population on every
//! backend.

use crate::ilf::{effective_cardinalities, ilf_numerator, optimal_mapping};
use crate::lifecycle::{SubWindows, WindowSpec};
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

/// The live window's population, as the joiners' evictors will hold it
/// (module docs, "Under a retention window").
#[derive(Clone, Debug)]
struct WindowModel {
    /// The joiners' sealing and expiry rule, over `(R, S)` units.
    windows: SubWindows<(u64, u64)>,
    /// The live `(R, S)` at the last decision point: the ratio the
    /// current mapping was chosen for.
    decided: (u64, u64),
    /// Units retired since the session began.
    retired: u64,
}

impl WindowModel {
    fn new(spec: WindowSpec) -> WindowModel {
        WindowModel {
            windows: SubWindows::new(spec),
            decided: (0, 0),
            retired: 0,
        }
    }

    /// Add `units` at `tick` to the sub-window the joiners would store it
    /// in, then retire every sub-window their evictors would drop.
    /// Returns the retired `(R, S)` units.
    #[inline(never)]
    fn add(&mut self, is_r: bool, units: u64, tick: u64) -> (u64, u64) {
        self.windows.observe(tick, |(r, s)| match is_r {
            true => *r += units,
            false => *s += units,
        });
        let mut out = (0, 0);
        while let Some((r, s)) = self.windows.pop_expired() {
            out.0 += r;
            out.1 += s;
        }
        self.retired += out.0 + out.1;
        out
    }

    /// Has the live ratio `r : s` moved by a factor `1 + ε` (or more) away
    /// from the ratio of the last decision point, in either direction?
    fn drifted(&self, r: u64, s: u64, num: u128, den: u128) -> bool {
        let (rc, sc) = (self.decided.0 as u128, self.decided.1 as u128);
        let (r, s) = (r as u128, s as u128);
        let grew = |a: u128, b_c: u128, a_c: u128, b: u128| {
            a * b_c > 0 && a * b_c * den >= (den + num) * a_c * b
        };
        grew(r, sc, rc, s) || grew(s, rc, sc, r)
    }
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
    /// The live window, when the session evicts; `None` keeps Alg. 2's
    /// cumulative counts. Boxed, and updated out of line, so the
    /// unwindowed controller's per-tuple path keeps its size.
    window: Option<Box<WindowModel>>,
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
            window: None,
        }
    }

    /// Builder: run Alg. 2 on the live population of `window` (module
    /// docs, "Under a retention window") instead of cumulative counts.
    pub fn with_window(mut self, window: WindowSpec) -> MigrationDecider {
        self.window = Some(Box::new(WindowModel::new(window)));
        self
    }

    /// The window the decider models, if any.
    #[inline]
    pub fn window(&self) -> Option<WindowSpec> {
        self.window.as_ref().map(|w| w.windows.spec())
    }

    /// Units the window model has retired so far: 0 until the live window
    /// first drops state, and always 0 without a window.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.window.as_ref().map_or(0, |w| w.retired)
    }

    /// The current mapping's expected per-joiner load, in the decider's
    /// units (bytes on the controller): `|R|/n + |S|/m`, which is what a
    /// joiner of an `(n, m)` grid stores under random tickets (§4.2.2).
    /// Under a window it counts the live window's population.
    #[inline]
    pub fn load(&self) -> u64 {
        (self.r + self.dr) / self.current.n as u64 + (self.s + self.ds) / self.current.m as u64
    }

    /// Record `units` newly arrived units on R (resp. S) and check the
    /// migration condition (Alg. 1 line 6 + Alg. 2). Returns
    /// `Decision::Migrate` when the operator should change its mapping.
    /// For an unwindowed decider; a windowed one needs each arrival's
    /// tick ([`observe_only`](Self::observe_only)).
    pub fn observe(&mut self, is_r: bool, units: u64) -> Decision {
        debug_assert!(self.window.is_none(), "a windowed decider needs ticks");
        self.observe_only(is_r, units, 0);
        self.check()
    }

    /// Record arrivals without evaluating the migration condition. Used by
    /// operators that gate decision checks (e.g. while a migration is in
    /// flight, the controller keeps counting but defers Alg. 2 until all
    /// joiners have acked). `tick` places the arrival in the window
    /// model ([`WindowSpec::tick`]); an unwindowed decider ignores it.
    #[inline]
    pub fn observe_only(&mut self, is_r: bool, units: u64, tick: u64) {
        if is_r {
            self.dr += units;
        } else {
            self.ds += units;
        }
        if let Some(w) = self.window.as_mut() {
            let (out_r, out_s) = w.add(is_r, units, tick);
            if out_r + out_s > 0 {
                self.retire(out_r, out_s);
            }
        }
    }

    /// Take retired units out of the committed totals first, and out of
    /// the deltas for what arrived after the last commit. Keeps
    /// `r + dr` (and `s + ds`) equal to the model's live total.
    fn retire(&mut self, out_r: u64, out_s: u64) {
        let from_r = out_r.min(self.r);
        self.r -= from_r;
        self.dr -= out_r - from_r;
        let from_s = out_s.min(self.s);
        self.s -= from_s;
        self.ds -= out_s - from_s;
    }

    /// Evaluate the Alg. 2 condition without new arrivals.
    pub fn check(&mut self) -> Decision {
        // Warm-up gate: do nothing until enough volume has been seen
        // (retired units count: they were seen).
        if self.r + self.s + self.dr + self.ds + self.retired() < self.cfg.min_total {
            return Decision::Stay;
        }
        // |ΔR| ≥ ε|R| or |ΔS| ≥ ε|S|, in exact arithmetic:
        // ΔR·den ≥ R·num. With R = 0 this fires on the first delta, which
        // is Alg. 2's initialisation behaviour.
        let num = self.cfg.epsilon_num as u128;
        let den = self.cfg.epsilon_den as u128;
        let trig_r = self.dr as u128 * den >= self.r as u128 * num;
        let trig_s = self.ds as u128 * den >= self.s as u128 * num;
        // Under a window, also a `1 + ε` drift of the live ratio.
        let (r, s) = (self.r + self.dr, self.s + self.ds);
        let drift = self
            .window
            .as_ref()
            .is_some_and(|w| w.drifted(r, s, num, den));
        if !(trig_r && self.dr > 0 || trig_s && self.ds > 0 || drift) {
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
        if let Some(w) = self.window.as_mut() {
            w.decided = (self.r, self.s);
        }
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
    ///
    /// A windowed decider seeds its model the way `WindowTracker::restored`
    /// seeds a joiner's evictor: the snapshot's live totals become one
    /// sealed sub-window stamped at `stamp`, the checkpoint's window tick (its
    /// source cursor under a count window), and the committed totals stand
    /// in for the last decision point's ratio. Unwindowed, `stamp` is
    /// ignored. Under a count window the joiners restore their state by
    /// sub-window (`WindowTracker::restored_by_sub_window`), which the
    /// snapshot's totals cannot: for up to a window after a restore the
    /// model still counts restored units the joiners have dropped.
    pub fn restore(&mut self, snap: DeciderSnapshot, stamp: u64) {
        self.r = snap.r;
        self.s = snap.s;
        self.dr = snap.dr;
        self.ds = snap.ds;
        self.decisions = snap.decisions;
        self.migrations = snap.migrations;
        if let Some(w) = self.window.as_mut() {
            let live = (snap.r + snap.dr, snap.s + snap.ds);
            **w = WindowModel {
                windows: SubWindows::restored(w.windows.spec(), stamp, [(stamp, live)]),
                decided: (snap.r, snap.s),
                retired: 0,
            };
        }
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
    use crate::ticket::mix64;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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
    fn load_is_the_current_mapping_s_per_joiner_share() {
        // `|R|/n + |S|/m`, committed and uncommitted units alike.
        let mut d = decider(4);
        assert_eq!(d.load(), 0);
        d.observe_only(true, 600, 0);
        d.observe_only(false, 1_000, 0);
        assert_eq!(d.load(), 300 + 500);
        // A ×4 expansion halves it, the 4→1 contraction restores it.
        d.expand();
        assert_eq!(d.load(), 150 + 250);
        d.contract();
        assert_eq!(d.load(), 800);
        // The mapping's shape, not only its size: (1, 4) replicates R.
        d.set_current(Mapping::new(1, 4));
        assert_eq!(d.load(), 600 + 250);
    }

    #[test]
    fn windowed_load_drops_what_the_window_retires() {
        let mut d = windowed(4, 1_000, 4, DecisionConfig::default());
        for seq in 0..1_000u64 {
            d.observe_only(seq % 2 == 0, 10, seq);
        }
        assert_eq!(d.load(), 10_000 / 2);
        // Past the bound the oldest sub-window (250 tuples) retires, so
        // the load stops growing with the stream.
        for seq in 1_000..=1_250u64 {
            d.observe_only(seq % 2 == 0, 10, seq);
        }
        assert_eq!(d.retired(), 2_500);
        assert_eq!(d.load(), (12_510 - 2_500) / 2);
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

    /// A windowed decider over a count window of `span` tuples in
    /// `subs` sub-windows.
    fn windowed(j: u32, span: u64, subs: u32, cfg: DecisionConfig) -> MigrationDecider {
        let spec = WindowSpec::count(span).with_sub_windows(subs);
        MigrationDecider::new(j, Mapping::square(j), cfg).with_window(spec)
    }

    /// The model's live `(R, S)`.
    fn live(d: &MigrationDecider) -> (u64, u64) {
        let snap = d.snapshot();
        (snap.r + snap.dr, snap.s + snap.ds)
    }

    #[test]
    fn sliding_flip_from_s_to_r_walks_to_j1_one_step_at_a_time() {
        // Three windows of S only, then three of R only: the window ends
        // holding R alone while the cumulative count is 1:1.
        let (j, span) = (16u32, 8_000u64);
        let mut d = windowed(j, span, 8, DecisionConfig::default());
        let mut cumulative = decider(j);
        let mut seen = vec![d.current()];
        for seq in 0..6 * span {
            let is_r = seq >= 3 * span;
            d.observe_only(is_r, 1, seq);
            cumulative.observe(is_r, 1);
            if let Decision::Migrate(mp) = d.check() {
                let prev = *seen.last().unwrap();
                let one_step = [prev.halve_rows(), prev.halve_cols()].contains(&Some(mp));
                assert!(one_step, "jumped from {prev:?} to {mp:?} at seq {seq}");
                seen.push(mp);
            }
            if seq + 1 == 3 * span {
                assert_eq!(d.current(), Mapping::new(1, j), "S-only window");
            }
        }
        assert_eq!(
            live(&d),
            (span + span / 8, 0),
            "S retired, R fills the window"
        );
        assert_eq!(d.current(), Mapping::new(j, 1));
        assert!(
            seen.contains(&Mapping::new(4, 4)),
            "walked through the square"
        );
        // The cumulative count sees 1:1 and keeps the square.
        assert_eq!(cumulative.current(), Mapping::new(4, 4));
    }

    #[test]
    fn unretired_window_decides_like_alg2() {
        // Until a sub-window retires the drift clause never fires first, so a
        // window wider than the stream changes no decision.
        let cfg = DecisionConfig {
            min_total: 8,
            ..Default::default()
        };
        let mut plain = MigrationDecider::new(16, Mapping::square(16), cfg);
        let mut wide = windowed(16, u64::MAX / 2, 8, cfg);
        for seq in 0..200_000u64 {
            let is_r = mix64(seq) % 7 < if seq < 50_000 { 1 } else { 5 };
            let units = 1 + mix64(seq ^ 0xA5) % 100;
            wide.observe_only(is_r, units, seq);
            assert_eq!(plain.observe(is_r, units), wide.check(), "seq {seq}");
        }
        assert_eq!(plain.snapshot(), wide.snapshot());
        assert_eq!(wide.retired(), 0);
    }

    #[test]
    fn restored_bucket_retires_at_the_stamp_plus_span() {
        let mut d = windowed(4, 1_000, 4, DecisionConfig::default());
        let snap = DeciderSnapshot {
            r: 600,
            dr: 40,
            s: 10,
            ..Default::default()
        };
        d.restore(snap, 5_000);
        assert_eq!(live(&d), (640, 10));
        // S arrivals from the cursor on; the restored units leave once the
        // clock is more than `span` past the stamp.
        for seq in 5_000..=6_000u64 {
            d.observe_only(false, 1, seq);
        }
        assert_eq!(live(&d), (640, 1_011), "not yet past the bound");
        d.observe_only(false, 1, 6_001);
        assert_eq!(live(&d), (0, 1_002), "the restored bucket retired alone");
        assert_eq!(d.retired(), 650);
    }

    #[test]
    fn model_holds_what_a_tracker_fed_the_same_ticks_stores() {
        // The controller's share at J = 4: one 64-tuple block in four,
        // mixed R and S. A joiner's tracker fed the same ticks stores
        // exactly the tuples at or above its eviction bound.
        use crate::lifecycle::WindowTracker;
        let (span, subs) = (3_000u64, 8u32);
        let mut d = windowed(4, span, subs, DecisionConfig::default());
        let mut tracker = WindowTracker::new(WindowSpec::count(span).with_sub_windows(subs));
        let mut stored = VecDeque::new();
        for seq in (0..40_000u64).filter(|s| s / 64 % 4 == 1) {
            let is_r = mix64(seq).is_multiple_of(3);
            let units = 1 + mix64(seq ^ 0x5A) % 50;
            d.observe_only(is_r, units, seq);
            tracker.observe(seq, 0);
            stored.push_back((seq, is_r, units));
            let bound = tracker.evict_bound();
            while stored.front().is_some_and(|&(s, ..)| s < bound) {
                stored.pop_front();
            }
            let of = |rel| {
                stored
                    .iter()
                    .filter(|t| t.1 == rel)
                    .map(|t| t.2)
                    .sum::<u64>()
            };
            assert_eq!(live(&d), (of(true), of(false)), "seq {seq}");
        }
        assert!(d.retired() > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The derived bound: over a sliding count window and random
        /// phase schedules, the model holds exactly the evictor's
        /// population, and between decision points the running mapping's
        /// ILF on it stays within `(3 + 2ε)/(3 + ε)` of the optimum
        /// whenever the ratio is within `J`.
        #[test]
        fn sliding_window_ilf_stays_within_the_derived_bound(
            j_exp in 1u32..=6,
            eps_exp in 0u32..=2,
            span in 200u64..6_000,
            subs in 1u32..=8,
            phases in prop::collection::vec((0u64..=8, 1u64..6_000), 1..8),
            salt in any::<u64>(),
        ) {
            use crate::ilf::{ilf, optimal_ilf};
            let j = 1u32 << j_exp;
            let cfg = DecisionConfig {
                epsilon_num: 1,
                epsilon_den: 1 << eps_exp,
                min_total: 0,
            };
            let bound = cfg.competitive_ratio();
            let mut d = windowed(j, span, subs, cfg);
            let sub = WindowSpec::count(span).with_sub_windows(subs).sub_span();
            // Prefix counts of R and S: the oracle's window.
            let mut prefix = vec![(0u64, 0u64)];
            let mut seq = 0u64;
            for &(r_eighths, len) in &phases {
                for _ in 0..len {
                    let is_r = mix64(seq ^ salt) % 8 < r_eighths;
                    d.observe_only(is_r, 1, seq);
                    d.check();
                    let &(pr, ps) = prefix.last().unwrap();
                    prefix.push(if is_r { (pr + 1, ps) } else { (pr, ps + 1) });
                    // Buckets keep every sequence number from the start of
                    // the sub-window the watermark `seq − span` falls in.
                    let lo = (seq.saturating_sub(span) / sub * sub) as usize;
                    let (hr, hs) = prefix[seq as usize + 1];
                    let (r, s) = (hr - prefix[lo].0, hs - prefix[lo].1);
                    prop_assert_eq!(live(&d), (r, s));
                    if r.min(s) > 0 && r.max(s) <= r.min(s) * j as u64 {
                        let ratio = ilf(r, s, d.current()) / optimal_ilf(j, r, s);
                        prop_assert!(
                            ratio <= bound + 1e-9,
                            "ILF/ILF* {} > {} at seq {} with (R, S) = ({}, {})",
                            ratio, bound, seq, r, s
                        );
                    }
                    seq += 1;
                }
            }
        }
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
