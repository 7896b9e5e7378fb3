//! Locality-aware migration planning (Lemma 4.4, Fig. 3).
//!
//! A step `(n, m) → (n/2, 2m)` merges R partition pairs and splits S
//! partitions. The plan assigns every machine:
//!
//! * a **partner** — the sibling joiner holding the other half of the
//!   merged R partition. Partners *exchange* their full R state (each keeps
//!   its own and receives the other's), costing `2·|R|/n` time units in
//!   parallel across all pairs;
//! * a **keep bit** — S tuples whose next ticket bit differs are
//!   *discarded*, deterministically and with zero communication;
//! * nothing else. No third machine is involved; the naive alternative
//!   (re-shuffle all state through the new grid) moves `(1 − 1/J)` of all
//!   stored bytes instead of `1/semi-perimeter`-ish — the ablation in
//!   `aoj-bench` quantifies the gap.

use crate::mapping::{GridAssignment, GridPos, Mapping, Step};
use crate::ticket::refine_bit;
use crate::tuple::{Rel, Tuple};

/// How a stored old-state tuple is treated by a migration (the paper's
/// `Keep` / `Migrated` / `Discard` partition of `τ ∪ Δ`, §4.3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StateClass {
    /// Stays on this machine (refining relation, matching bit).
    Keep,
    /// Stays on this machine *and* a copy is sent to the partner
    /// (coarsening relation; the exchange of Lemma 4.4).
    KeepAndMigrate,
    /// No longer belongs here; dropped at migration finalisation
    /// (refining relation, mismatching bit).
    Discard,
}

impl StateClass {
    /// Does the tuple remain part of this machine's post-migration state?
    pub fn kept(self) -> bool {
        !matches!(self, StateClass::Discard)
    }

    /// Must a copy be sent to the partner?
    pub fn migrated(self) -> bool {
        matches!(self, StateClass::KeepAndMigrate)
    }
}

/// One machine's role in a migration step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineStepSpec {
    /// The machine this spec applies to.
    pub machine: usize,
    /// Grid position before the step.
    pub old_pos: GridPos,
    /// Grid position after the step.
    pub new_pos: GridPos,
    /// Exchange partner (Lemma 4.4).
    pub partner: usize,
    /// Relation whose partitions merge: exchanged with the partner.
    pub exchange_rel: Rel,
    /// Relation whose partitions split: filtered by `keep_bit`.
    pub refine_rel: Rel,
    /// Keep `refine_rel` tuples whose [`refine_bit`] equals this.
    pub keep_bit: u32,
    /// Partition count of `refine_rel` *before* the step (the granularity
    /// at which [`refine_bit`] is evaluated).
    pub refine_parts_before: u32,
}

impl MachineStepSpec {
    /// Classify a stored tuple.
    #[inline]
    pub fn classify(&self, t: &Tuple) -> StateClass {
        if t.rel == self.exchange_rel {
            StateClass::KeepAndMigrate
        } else if refine_bit(t.ticket, self.refine_parts_before) == self.keep_bit {
            StateClass::Keep
        } else {
            StateClass::Discard
        }
    }

    /// Convenience: does this machine keep `t` after the migration?
    #[inline]
    pub fn is_kept(&self, t: &Tuple) -> bool {
        self.classify(t).kept()
    }

    /// Convenience: must `t` be copied to the partner?
    #[inline]
    pub fn is_migrated(&self, t: &Tuple) -> bool {
        self.classify(t).migrated()
    }
}

/// A complete single-step migration plan.
#[derive(Clone, Debug)]
pub struct MigrationPlan {
    /// The step being performed.
    pub step: Step,
    /// Mapping before.
    pub from: Mapping,
    /// Mapping after.
    pub to: Mapping,
    /// Per-machine roles, indexed by machine id.
    pub specs: Vec<MachineStepSpec>,
}

/// Build the locality-aware plan for applying `step` to the current
/// assignment. The assignment itself is not modified; apply
/// [`GridAssignment::apply_step`] once the operator commits.
pub fn plan_step(assign: &GridAssignment, step: Step) -> MigrationPlan {
    let from = assign.mapping();
    let to = step
        .apply(from)
        .expect("mapping cannot shrink below one partition");
    let exchange_rel = step.coarsens();
    let refine_rel = step.refines();
    let refine_parts_before = from.parts(refine_rel);
    let j = from.j() as usize;
    let mut specs = Vec::with_capacity(j);
    for machine in 0..j {
        let old_pos = assign.pos_of(machine);
        let new_pos = GridAssignment::relabel(old_pos, step);
        let pp = GridAssignment::partner_pos(old_pos, step);
        let partner = assign.machine_at(pp.row, pp.col);
        // The keep bit equals the bit this machine contributes to its new
        // coordinate along the refining axis: for HalveRows the new column
        // is (j<<1)|(i&1), so the machine keeps S tuples whose refine bit
        // equals i&1 — and symmetrically for HalveCols.
        let keep_bit = match step {
            Step::HalveRows => old_pos.row & 1,
            Step::HalveCols => old_pos.col & 1,
        };
        specs.push(MachineStepSpec {
            machine,
            old_pos,
            new_pos,
            partner,
            exchange_rel,
            refine_rel,
            keep_bit,
            refine_parts_before,
        });
    }
    MigrationPlan {
        step,
        from,
        to,
        specs,
    }
}

/// Tuples moved by the naive full-repartition baseline (the blocking
/// approach of Flux-style operators, §4.3): all previous state is
/// re-shuffled through the new grid with fresh partition assignments, so a
/// stored copy lands on its old machine only by luck — `1/J` of the time
/// under content-insensitive placement. We charge transmission of all
/// post-step state copies except that lucky fraction.
///
/// `per_machine_state[k] = (r_copies, s_copies)` stored before the step.
pub fn naive_moved_tuples(
    assign: &GridAssignment,
    step: Step,
    per_machine_state: &[(u64, u64)],
) -> u64 {
    let total_r_copies: u64 = per_machine_state.iter().map(|x| x.0).sum();
    let total_s_copies: u64 = per_machine_state.iter().map(|x| x.1).sum();
    // After the step the coarsening relation's replication factor doubles
    // (each partition is held by twice as many joiners) and the refining
    // relation's halves.
    let (r_after, s_after) = match step {
        Step::HalveRows => (total_r_copies * 2, total_s_copies / 2),
        Step::HalveCols => (total_r_copies / 2, total_s_copies * 2),
    };
    let j = assign.mapping().j() as u64;
    let copies_after = r_after + s_after;
    copies_after - copies_after / j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::{partition, TicketGen};

    /// Simulate per-machine state under an assignment: distribute `count`
    /// tuples per relation by ticket, returning state[machine] = tuples.
    fn build_state(assign: &GridAssignment, count: u64, gen: &mut TicketGen) -> Vec<Vec<Tuple>> {
        let mp = assign.mapping();
        let mut state = vec![Vec::new(); mp.j() as usize];
        for seq in 0..count {
            let tr = Tuple::new(Rel::R, seq * 2, seq as i64, gen.next());
            let row = partition(tr.ticket, mp.n);
            for mach in assign.machines_for_row(row) {
                state[mach].push(tr);
            }
            let ts = Tuple::new(Rel::S, seq * 2 + 1, seq as i64, gen.next());
            let col = partition(ts.ticket, mp.m);
            for mach in assign.machines_for_col(col) {
                state[mach].push(ts);
            }
        }
        state
    }

    /// Apply a plan to simulated state: keep/discard locally, deliver
    /// migrated copies to partners. Returns the new state.
    fn apply_plan(plan: &MigrationPlan, state: &[Vec<Tuple>]) -> Vec<Vec<Tuple>> {
        let j = state.len();
        let mut next: Vec<Vec<Tuple>> = vec![Vec::new(); j];
        for k in 0..j {
            let spec = &plan.specs[k];
            for t in &state[k] {
                match spec.classify(t) {
                    StateClass::Keep => next[k].push(*t),
                    StateClass::KeepAndMigrate => {
                        next[k].push(*t);
                        next[spec.partner].push(*t);
                    }
                    StateClass::Discard => {}
                }
            }
        }
        next
    }

    /// Check that `state` matches the grid invariant for `assign`: machine
    /// at (i, j) holds exactly R tuples with row i and S tuples with col j.
    fn assert_grid_invariant(assign: &GridAssignment, state: &[Vec<Tuple>], universe: &[Tuple]) {
        let mp = assign.mapping();
        for (k, tuples) in state.iter().enumerate() {
            let pos = assign.pos_of(k);
            let mut expected: Vec<Tuple> = universe
                .iter()
                .filter(|t| match t.rel {
                    Rel::R => partition(t.ticket, mp.n) == pos.row,
                    Rel::S => partition(t.ticket, mp.m) == pos.col,
                })
                .copied()
                .collect();
            let mut actual = tuples.clone();
            let key = |t: &Tuple| (t.seq, t.rel.index());
            expected.sort_by_key(key);
            actual.sort_by_key(key);
            assert_eq!(actual, expected, "machine {k} at {pos:?} state mismatch");
        }
    }

    fn universe(state: &[Vec<Tuple>]) -> Vec<Tuple> {
        let mut all: Vec<Tuple> = state.iter().flatten().copied().collect();
        all.sort_by_key(|t| (t.seq, t.rel.index()));
        all.dedup();
        all
    }

    #[test]
    fn fig3_migration_preserves_grid_invariant() {
        // (8,2) -> (4,4), J = 16, exactly Fig. 3.
        let mut assign = GridAssignment::initial(Mapping::new(8, 2));
        let mut gen = TicketGen::new(1234);
        let state = build_state(&assign, 500, &mut gen);
        let uni = universe(&state);
        let plan = plan_step(&assign, Step::HalveRows);
        assert_eq!(plan.to, Mapping::new(4, 4));
        let next = apply_plan(&plan, &state);
        assign.apply_step(Step::HalveRows);
        assert_grid_invariant(&assign, &next, &uni);
    }

    #[test]
    fn migration_chains_preserve_grid_invariant() {
        let mut assign = GridAssignment::initial(Mapping::new(4, 4));
        let mut gen = TicketGen::new(77);
        let mut state = build_state(&assign, 300, &mut gen);
        let uni = universe(&state);
        for step in [
            Step::HalveRows,
            Step::HalveRows,
            Step::HalveCols,
            Step::HalveCols,
            Step::HalveCols,
            Step::HalveCols,
            Step::HalveRows,
        ] {
            let plan = plan_step(&assign, step);
            state = apply_plan(&plan, &state);
            assign.apply_step(step);
            assert_grid_invariant(&assign, &state, &uni);
        }
    }

    #[test]
    fn exchange_volume_matches_lemma_4_4() {
        // Moving (n,m) -> (n/2,2m) exchanges exactly the R state: each
        // machine sends |R|/n tuples, total J * |R|/n = m * |R| copies.
        let assign = GridAssignment::initial(Mapping::new(8, 4));
        let mut gen = TicketGen::new(5);
        let count = 2_000u64;
        let state = build_state(&assign, count, &mut gen);
        let plan = plan_step(&assign, Step::HalveRows);
        let mut moved = 0u64;
        for (k, machine_state) in state.iter().enumerate() {
            moved += machine_state
                .iter()
                .filter(|t| plan.specs[k].is_migrated(t))
                .count() as u64;
        }
        // Every R tuple is stored on m machines and each copy is exchanged
        // once: moved == m * |R| exactly.
        assert_eq!(moved, assign.mapping().m as u64 * count);
    }

    #[test]
    fn discards_are_exactly_half_of_refining_state() {
        let assign = GridAssignment::initial(Mapping::new(8, 4));
        let mut gen = TicketGen::new(9);
        let state = build_state(&assign, 4_000, &mut gen);
        let plan = plan_step(&assign, Step::HalveRows);
        let (mut kept_s, mut dropped_s) = (0u64, 0u64);
        for (k, machine_state) in state.iter().enumerate() {
            for t in machine_state {
                if t.rel == Rel::S {
                    match plan.specs[k].classify(t) {
                        StateClass::Keep => kept_s += 1,
                        StateClass::Discard => dropped_s += 1,
                        StateClass::KeepAndMigrate => panic!("S must not be exchanged here"),
                    }
                }
            }
        }
        let total = (kept_s + dropped_s) as f64;
        let frac = dropped_s as f64 / total;
        assert!((frac - 0.5).abs() < 0.05, "discarded fraction {frac}");
    }

    #[test]
    fn partner_is_symmetric() {
        let assign = GridAssignment::initial(Mapping::new(8, 2));
        let plan = plan_step(&assign, Step::HalveRows);
        for spec in &plan.specs {
            let partner_spec = &plan.specs[spec.partner];
            assert_eq!(partner_spec.partner, spec.machine);
            assert_ne!(spec.machine, spec.partner);
            // Partners end in the same row, complementary columns.
            assert_eq!(spec.new_pos.row, partner_spec.new_pos.row);
            assert_ne!(spec.new_pos.col, partner_spec.new_pos.col);
        }
    }

    #[test]
    fn keep_bits_are_complementary_across_partners() {
        let assign = GridAssignment::initial(Mapping::new(4, 4));
        let plan = plan_step(&assign, Step::HalveCols);
        for spec in &plan.specs {
            let partner_spec = &plan.specs[spec.partner];
            assert_ne!(spec.keep_bit, partner_spec.keep_bit);
        }
    }

    #[test]
    fn naive_plan_moves_far_more() {
        let assign = GridAssignment::initial(Mapping::new(8, 8));
        let mut gen = TicketGen::new(3);
        let count = 1_000u64;
        let state = build_state(&assign, count, &mut gen);
        let plan = plan_step(&assign, Step::HalveRows);
        let per_machine: Vec<(u64, u64)> = state
            .iter()
            .map(|ts| {
                let r = ts.iter().filter(|t| t.rel == Rel::R).count() as u64;
                let s = ts.iter().filter(|t| t.rel == Rel::S).count() as u64;
                (r, s)
            })
            .collect();
        let locality: u64 = state
            .iter()
            .enumerate()
            .map(|(k, ts)| ts.iter().filter(|t| plan.specs[k].is_migrated(t)).count() as u64)
            .sum();
        let naive = naive_moved_tuples(&assign, Step::HalveRows, &per_machine);
        assert!(
            naive > locality * 2,
            "naive ({naive}) should dwarf locality-aware ({locality})"
        );
    }
}
