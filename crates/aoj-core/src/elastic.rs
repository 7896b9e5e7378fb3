//! Elastic expansion and contraction (§4.2.2 "Elasticity", Fig. 5,
//! Theorem 4.3).
//!
//! Rather than over-provisioning joiners up front, the operator starts
//! small and **expands**: at a migration checkpoint, if every joiner stores
//! more than `M/2` tuples (for a per-joiner capacity target `M`), each
//! joiner splits into four — the mapping goes `(n, m) → (2n, 2m)` — and
//! redistributes its state along both ticket axes. Each parent transmits at
//! most twice its stored state (Theorem 4.3: amortised cost `8/ε`), the
//! `n : m` ratio is unchanged, so the ILF competitive ratio is unaffected.
//!
//! The reverse move is the 4→1 **contraction**: when load drains, each
//! aligned 2×2 cell group merges back into one survivor and the mapping
//! goes `(n, m) → (n/2, m/2)`. The transfer pattern is Fig. 5 run
//! backwards, and strictly cheaper: relative to the survivor, the
//! same-row retiree ships only its S partition, the same-column retiree
//! only its R partition, and the diagonal retiree ships **nothing** (both
//! of its partitions are covered by the other two) — so a contraction
//! transmits at most 1× the retiring state, against the expansion's 2×
//! bound. [`plan_contraction`] computes the per-machine roles;
//! [`ElasticLayout`] tracks the dormant-machine pool so a later burst
//! re-expands into retired machines instead of growing the index space.

use crate::mapping::{GridAssignment, GridPos, Mapping};
use crate::ticket::refine_bit;
use crate::tuple::{Rel, Tuple};

/// Where a parent's stored tuple lives after a ×4 expansion.
///
/// Children are indexed by `(a, b)`: `a` is the tuple-row refinement bit,
/// `b` the column bit. Child `(0,0)` is the parent itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpandDestinations {
    /// Keep on the parent (child (0,0))?
    pub keep: bool,
    /// Send to child (0,1)?
    pub to_01: bool,
    /// Send to child (1,0)?
    pub to_10: bool,
    /// Send to child (1,1)?
    pub to_11: bool,
}

impl ExpandDestinations {
    /// Number of copies transmitted over the network.
    pub fn sends(&self) -> u32 {
        self.to_01 as u32 + self.to_10 as u32 + self.to_11 as u32
    }
}

/// One parent machine's role in an expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpandSpec {
    /// The parent machine.
    pub machine: usize,
    /// Parent's grid position before expansion.
    pub old_pos: GridPos,
    /// Machine ids of children `(0,1)`, `(1,0)`, `(1,1)` (the parent stays
    /// as child `(0,0)` at grid `(2·row, 2·col)`).
    pub children: [usize; 3],
    /// Row partition count before expansion (granularity of the R bit).
    pub n_before: u32,
    /// Column partition count before expansion (granularity of the S bit).
    pub m_before: u32,
}

impl ExpandSpec {
    /// Classify a stored tuple: which machines need it after expansion.
    ///
    /// An R tuple with row-bit `a` belongs to the new row `2i + a`, which
    /// spans children `(a, 0)` and `(a, 1)`; an S tuple with column-bit `b`
    /// belongs to new column `2j + b`, spanning `(0, b)` and `(1, b)` —
    /// exactly the transfer pattern of Fig. 5.
    pub fn destinations(&self, t: &Tuple) -> ExpandDestinations {
        match t.rel {
            Rel::R => {
                let a = refine_bit(t.ticket, self.n_before);
                if a == 0 {
                    // Rows (0, *): parent keeps, child (0,1) needs a copy.
                    ExpandDestinations {
                        keep: true,
                        to_01: true,
                        to_10: false,
                        to_11: false,
                    }
                } else {
                    // Rows (1, *): children (1,0) and (1,1).
                    ExpandDestinations {
                        keep: false,
                        to_01: false,
                        to_10: true,
                        to_11: true,
                    }
                }
            }
            Rel::S => {
                let b = refine_bit(t.ticket, self.m_before);
                if b == 0 {
                    ExpandDestinations {
                        keep: true,
                        to_01: false,
                        to_10: true,
                        to_11: false,
                    }
                } else {
                    ExpandDestinations {
                        keep: false,
                        to_01: true,
                        to_10: false,
                        to_11: true,
                    }
                }
            }
        }
    }
}

/// A complete expansion plan: every parent splits in four.
#[derive(Clone, Debug)]
pub struct ExpansionPlan {
    /// Mapping after: `(2n, 2m)`.
    pub to: Mapping,
    /// Per-parent roles, indexed by machine id.
    pub specs: Vec<ExpandSpec>,
}

/// Expansion trigger (§ Elasticity): after a migration checkpoint, expand
/// if the per-joiner load exceeds half the capacity target `M`.
pub fn should_expand(per_joiner: u64, capacity_m: u64) -> bool {
    per_joiner > capacity_m / 2
}

/// Build the expansion plan for the current assignment. Child machine ids
/// follow [`GridAssignment::apply_expansion`]'s deterministic allocation.
pub fn plan_expansion(assign: &GridAssignment) -> ExpansionPlan {
    let old_j = assign.j() as usize;
    let children: Vec<usize> = (old_j..4 * old_j).collect();
    plan_expansion_with(assign, &children)
}

/// Build the expansion plan with an explicit child allocation (see
/// [`GridAssignment::apply_expansion_with`]): the parent occupying the
/// `g`-th grid cell (row-major) gets `children[3g..3g+3]`. Used by the
/// elastic runtime to re-expand into machines a contraction retired.
pub(crate) fn plan_expansion_with(assign: &GridAssignment, children: &[usize]) -> ExpansionPlan {
    let from = assign.mapping();
    let to = Mapping::new(from.n * 2, from.m * 2);
    assert_eq!(
        children.len(),
        3 * from.j() as usize,
        "need 3 children per parent"
    );
    let mut specs = Vec::with_capacity(from.j() as usize);
    for r in 0..from.n {
        for c in 0..from.m {
            let g = (r * from.m + c) as usize;
            let machine = assign.machine_at(r, c);
            specs.push(ExpandSpec {
                machine,
                old_pos: assign.pos_of(machine),
                children: [children[3 * g], children[3 * g + 1], children[3 * g + 2]],
                n_before: from.n,
                m_before: from.m,
            });
        }
    }
    ExpansionPlan { to, specs }
}

/// Contraction trigger (the low-water mirror of [`should_expand`]): the
/// grid is drained when the per-joiner load is strictly less than the
/// mark; a mark of 0 disables contraction outright.
pub fn should_contract(per_joiner: u64, low_water: u64) -> bool {
    low_water > 0 && per_joiner < low_water
}

/// One machine's role in a 4→1 contraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContractRole {
    /// This machine survives, merging its group's state: it keeps all of
    /// its own state and absorbs the retirees' streams (three
    /// end-of-state markers, at most two of which carry tuples).
    Survive,
    /// This machine retires: it forwards `forward_rel` of its stored
    /// state (plus matching old-epoch arrivals) to the survivor, sends
    /// its end-of-state marker, then goes dormant.
    Retire {
        /// The surviving machine of this group.
        survivor: usize,
        /// Which relation this retiree ships: `Some(S)` for the
        /// survivor's row sibling, `Some(R)` for its column sibling,
        /// `None` for the diagonal (fully covered by the other two).
        forward_rel: Option<Rel>,
    },
}

/// One machine's contraction assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ContractSpec {
    /// The machine this spec addresses.
    pub machine: usize,
    /// Its role in the merge.
    pub(crate) role: ContractRole,
}

/// A complete 4→1 contraction plan: every aligned 2×2 cell group merges
/// into its lowest-indexed member.
#[derive(Clone, Debug)]
pub struct ContractionPlan {
    /// Mapping after: `(n/2, m/2)`.
    pub to: Mapping,
    /// Per-machine roles, survivors first within each group, groups in
    /// row-major order of the contracted grid.
    pub(crate) specs: Vec<ContractSpec>,
    /// Machines that retire, sorted ascending (matches
    /// `GridAssignment::apply_contraction`'s return).
    pub retired: Vec<usize>,
}

/// Build the contraction plan for the current assignment. The survivor of
/// each group is its **lowest** machine index (so machine 0, hosting the
/// controller, can never retire); which relation each retiree forwards
/// follows from its position relative to the survivor: the row sibling
/// ships S, the column sibling ships R, the diagonal ships nothing.
pub fn plan_contraction(assign: &GridAssignment) -> ContractionPlan {
    let from = assign.mapping();
    assert!(
        from.n >= 2 && from.m >= 2,
        "contraction needs both grid axes >= 2 (got ({}, {}))",
        from.n,
        from.m
    );
    let to = Mapping::new(from.n / 2, from.m / 2);
    let mut specs = Vec::with_capacity(from.j() as usize);
    let mut retired = Vec::new();
    for i in 0..to.n {
        for j in 0..to.m {
            let group = [
                assign.machine_at(2 * i, 2 * j),
                assign.machine_at(2 * i, 2 * j + 1),
                assign.machine_at(2 * i + 1, 2 * j),
                assign.machine_at(2 * i + 1, 2 * j + 1),
            ];
            let survivor = *group.iter().min().expect("group of four");
            specs.push(ContractSpec {
                machine: survivor,
                role: ContractRole::Survive,
            });
            let spos = assign.pos_of(survivor);
            for k in group {
                if k == survivor {
                    continue;
                }
                retired.push(k);
                let p = assign.pos_of(k);
                let forward_rel = if p.row == spos.row {
                    // Same row: the survivor already holds this R
                    // partition; only the S partition is new to it.
                    Some(Rel::S)
                } else if p.col == spos.col {
                    Some(Rel::R)
                } else {
                    None
                };
                specs.push(ContractSpec {
                    machine: k,
                    role: ContractRole::Retire {
                        survivor,
                        forward_rel,
                    },
                });
            }
        }
    }
    retired.sort_unstable();
    ContractionPlan { to, specs, retired }
}

/// Deterministic machine-slot bookkeeping for elastic runs: which indices
/// are dormant (retired by a contraction, reusable) and where fresh
/// indices start. Every active reshuffler evolves an identical copy by
/// applying the same expand/contract sequence, so they all compute the
/// same child allocation without coordination; machines activated
/// mid-run receive a snapshot instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElasticLayout {
    /// First machine index never yet activated.
    next_fresh: usize,
    /// Retired machine indices available for reuse, sorted ascending.
    dormant: Vec<usize>,
}

impl ElasticLayout {
    /// A layout where machines `0..active` are live and none are dormant.
    pub fn new(active: usize) -> ElasticLayout {
        ElasticLayout {
            next_fresh: active,
            dormant: Vec::new(),
        }
    }

    /// Rebuild a layout from checkpointed parts.
    pub fn from_parts(next_fresh: usize, mut dormant: Vec<usize>) -> ElasticLayout {
        dormant.sort_unstable();
        dormant.dedup();
        ElasticLayout {
            next_fresh,
            dormant,
        }
    }

    /// The machine indices the next expansion's children would get —
    /// dormant pool first (ascending), then fresh indices — without
    /// committing the allocation.
    pub fn peek_children(&self, need: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self.dormant.iter().copied().take(need).collect();
        let fresh = need - out.len();
        out.extend(self.next_fresh..self.next_fresh + fresh);
        out
    }

    /// Commit an allocation of `need` children (see
    /// [`peek_children`](ElasticLayout::peek_children)).
    pub(crate) fn allocate_children(&mut self, need: usize) -> Vec<usize> {
        let out = self.peek_children(need);
        let reused = need.min(self.dormant.len());
        self.dormant.drain(..reused);
        self.next_fresh += need - reused;
        out
    }

    /// Return retired machines to the dormant pool.
    pub(crate) fn release(&mut self, retired: &[usize]) {
        self.dormant.extend_from_slice(retired);
        self.dormant.sort_unstable();
        self.dormant.dedup();
    }

    /// Machine slots ever activated (`max index + 1`): the bound the
    /// driver must have provisioned task/mailbox space for.
    pub fn high_water(&self) -> usize {
        self.next_fresh
    }

    /// Currently dormant machine indices.
    pub fn dormant(&self) -> &[usize] {
        &self.dormant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::{partition, TicketGen};

    /// The machines that survive `plan`, ascending.
    fn survivors(plan: &ContractionPlan) -> Vec<usize> {
        let mut out: Vec<usize> = plan
            .specs
            .iter()
            .filter(|s| s.role == ContractRole::Survive)
            .map(|s| s.machine)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn trigger_threshold() {
        assert!(!should_expand(50, 100));
        assert!(should_expand(51, 100));
        assert!(!should_expand(0, 0));
        assert!(should_contract(399, 400));
        assert!(!should_contract(400, 400), "strictly below the mark");
        assert!(!should_contract(0, 0), "a mark of 0 disables contraction");
    }

    #[test]
    fn destinations_match_fig5() {
        let spec = ExpandSpec {
            machine: 0,
            old_pos: GridPos { row: 0, col: 0 },
            children: [4, 5, 6],
            n_before: 2,
            m_before: 2,
        };
        // R with bit 0 (ticket leading bits 0...): keep + (0,1).
        let r0 = Tuple::new(Rel::R, 0, 0, 0);
        let d = spec.destinations(&r0);
        assert!(d.keep && d.to_01 && !d.to_10 && !d.to_11);
        assert_eq!(d.sends(), 1);
        // R with bit 1 at granularity 2: bit index 1 of the ticket.
        let r1 = Tuple::new(Rel::R, 1, 0, 1 << 62);
        let d = spec.destinations(&r1);
        assert!(!d.keep && !d.to_01 && d.to_10 && d.to_11);
        assert_eq!(d.sends(), 2);
        // S with bit 0: keep + (1,0); S with bit 1: (0,1) + (1,1).
        let s0 = Tuple::new(Rel::S, 2, 0, 0);
        let d = spec.destinations(&s0);
        assert!(d.keep && !d.to_01 && d.to_10 && !d.to_11);
        let s1 = Tuple::new(Rel::S, 3, 0, 1 << 62);
        let d = spec.destinations(&s1);
        assert!(!d.keep && d.to_01 && !d.to_10 && d.to_11);
    }

    #[test]
    fn expansion_cost_is_at_most_twice_stored_state() {
        // Theorem 4.3's premise: each parent transmits <= 2x its state.
        let assign = GridAssignment::initial(Mapping::new(2, 2));
        let plan = plan_expansion(&assign);
        let mut gen = TicketGen::new(11);
        let spec = plan.specs[0];
        let mut stored = 0u64;
        let mut sent = 0u64;
        for i in 0..10_000u64 {
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            let t = Tuple::new(rel, i, 0, gen.next());
            stored += 1;
            sent += spec.destinations(&t).sends() as u64;
        }
        assert!(sent <= 2 * stored, "sent {sent} > 2x stored {stored}");
        // And it's not far below either (~1.5x in expectation).
        assert!(sent as f64 >= 1.4 * stored as f64);
    }

    #[test]
    fn contraction_plan_roles_follow_survivor_parity() {
        let assign = GridAssignment::initial(Mapping::new(2, 2));
        let plan = plan_contraction(&assign);
        assert_eq!(plan.to, Mapping::new(1, 1));
        assert_eq!(survivors(&plan), vec![0]);
        assert_eq!(plan.retired, vec![1, 2, 3]);
        // Machine 0 sits at (0,0): machine 1 at (0,1) shares its row and
        // ships S; machine 2 at (1,0) ships R; machine 3 at (1,1) is the
        // diagonal and ships nothing.
        let role_of = |m: usize| plan.specs.iter().find(|s| s.machine == m).unwrap().role;
        assert_eq!(role_of(0), ContractRole::Survive);
        assert_eq!(
            role_of(1),
            ContractRole::Retire {
                survivor: 0,
                forward_rel: Some(Rel::S)
            }
        );
        assert_eq!(
            role_of(2),
            ContractRole::Retire {
                survivor: 0,
                forward_rel: Some(Rel::R)
            }
        );
        assert_eq!(
            role_of(3),
            ContractRole::Retire {
                survivor: 0,
                forward_rel: None
            }
        );
    }

    #[test]
    fn contracted_state_satisfies_grid_invariant() {
        // Simulate state on a (4,4) grid, contract to (2,2) by applying
        // each retiree's forward relation, and verify every survivor
        // holds exactly its merged partition of R and S — with no tuple
        // arriving twice (the 1x transfer bound depends on it).
        let mut assign = GridAssignment::initial(Mapping::new(4, 4));
        let mut gen = TicketGen::new(31);
        let from = assign.mapping();
        let mut state: Vec<Vec<Tuple>> = vec![Vec::new(); 16];
        let mut universe = Vec::new();
        for i in 0..2_000u64 {
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            let t = Tuple::new(rel, i, 0, gen.next());
            universe.push(t);
            match rel {
                Rel::R => {
                    let row = partition(t.ticket, from.n);
                    for mach in assign.machines_for_row(row) {
                        state[mach].push(t);
                    }
                }
                Rel::S => {
                    let col = partition(t.ticket, from.m);
                    for mach in assign.machines_for_col(col) {
                        state[mach].push(t);
                    }
                }
            }
        }
        let plan = plan_contraction(&assign);
        let mut merged: Vec<Vec<Tuple>> = vec![Vec::new(); 16];
        let mut sent = 0u64;
        let mut retiring_stored = 0u64;
        for spec in &plan.specs {
            match spec.role {
                ContractRole::Survive => {
                    merged[spec.machine].extend(state[spec.machine].iter().copied());
                }
                ContractRole::Retire {
                    survivor,
                    forward_rel,
                } => {
                    retiring_stored += state[spec.machine].len() as u64;
                    for t in &state[spec.machine] {
                        if Some(t.rel) == forward_rel {
                            merged[survivor].push(*t);
                            sent += 1;
                        }
                    }
                }
            }
        }
        assert!(
            sent <= retiring_stored,
            "contraction must transmit at most 1x the retiring state"
        );
        let retired = assign.apply_contraction();
        assert_eq!(retired, plan.retired);
        let to = assign.mapping();
        assert_eq!(to, plan.to);
        for k in survivors(&plan) {
            let pos = assign.pos_of(k);
            let mut expected: Vec<u64> = universe
                .iter()
                .filter(|t| match t.rel {
                    Rel::R => partition(t.ticket, to.n) == pos.row,
                    Rel::S => partition(t.ticket, to.m) == pos.col,
                })
                .map(|t| t.seq)
                .collect();
            let mut actual: Vec<u64> = merged[k].iter().map(|t| t.seq).collect();
            expected.sort_unstable();
            actual.sort_unstable();
            assert_eq!(actual, expected, "survivor {k} at {pos:?}");
        }
    }

    #[test]
    fn layout_allocates_pool_first_then_fresh() {
        let mut l = ElasticLayout::new(4);
        assert_eq!(l.allocate_children(12), (4..16).collect::<Vec<_>>());
        assert_eq!(l.high_water(), 16);
        l.release(&[5, 7, 6, 9, 8, 10, 11, 12, 13, 14, 15, 4]);
        assert_eq!(l.dormant().len(), 12);
        // Re-expansion reuses the pool before any fresh index.
        assert_eq!(l.peek_children(3), vec![4, 5, 6]);
        assert_eq!(l.allocate_children(3), vec![4, 5, 6]);
        assert_eq!(l.high_water(), 16, "no fresh indices consumed");
        // Exhausting the pool falls through to fresh allocation.
        let got = l.allocate_children(12);
        assert_eq!(&got[..9], &(7..16).collect::<Vec<_>>()[..]);
        assert_eq!(&got[9..], &[16, 17, 18]);
        assert_eq!(l.high_water(), 19);
    }

    #[test]
    fn expanded_state_satisfies_grid_invariant() {
        // Simulate state on a (2,2) grid, expand to (4,4), verify every
        // child holds exactly its partition of R and S.
        let mut assign = GridAssignment::initial(Mapping::new(2, 2));
        let mut gen = TicketGen::new(21);
        let from = assign.mapping();
        let mut state: Vec<Vec<Tuple>> = vec![Vec::new(); 4];
        let mut universe = Vec::new();
        for i in 0..2_000u64 {
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            let t = Tuple::new(rel, i, 0, gen.next());
            universe.push(t);
            match rel {
                Rel::R => {
                    let row = partition(t.ticket, from.n);
                    for mach in assign.machines_for_row(row) {
                        state[mach].push(t);
                    }
                }
                Rel::S => {
                    let col = partition(t.ticket, from.m);
                    for mach in assign.machines_for_col(col) {
                        state[mach].push(t);
                    }
                }
            }
        }
        let plan = plan_expansion(&assign);
        let mut next: Vec<Vec<Tuple>> = vec![Vec::new(); 16];
        for (k, tuples) in state.iter().enumerate() {
            let spec = plan.specs[k];
            for t in tuples {
                let d = spec.destinations(t);
                if d.keep {
                    next[k].push(*t);
                }
                if d.to_01 {
                    next[spec.children[0]].push(*t);
                }
                if d.to_10 {
                    next[spec.children[1]].push(*t);
                }
                if d.to_11 {
                    next[spec.children[2]].push(*t);
                }
            }
        }
        assign.apply_expansion();
        let to = assign.mapping();
        assert_eq!(to, Mapping::new(4, 4));
        for (k, machine_state) in next.iter().enumerate() {
            let pos = assign.pos_of(k);
            let mut expected: Vec<u64> = universe
                .iter()
                .filter(|t| match t.rel {
                    Rel::R => partition(t.ticket, to.n) == pos.row,
                    Rel::S => partition(t.ticket, to.m) == pos.col,
                })
                .map(|t| t.seq)
                .collect();
            let mut actual: Vec<u64> = machine_state.iter().map(|t| t.seq).collect();
            expected.sort_unstable();
            actual.sort_unstable();
            assert_eq!(actual, expected, "machine {k} at {pos:?}");
        }
    }
}
