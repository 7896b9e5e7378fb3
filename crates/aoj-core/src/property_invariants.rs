//! Property-based tests (proptest) over the core data structures: the
//! invariants the paper's proofs rest on must hold for *arbitrary* inputs,
//! not just the hand-picked cases of the unit tests.

use crate::elastic::{plan_expansion, ContractRole, ElasticLayout};
use crate::epoch::{Reconfig, Role};
use crate::ilf::{
    continuous_lower_bound, effective_cardinalities, ilf, optimal_ilf, optimal_mapping,
};
use crate::mapping::{GridAssignment, Mapping, Step};
use crate::migration::{plan_step, StateClass};
use crate::ticket::{partition, refine_bit};
use crate::tuple::{Rel, Tuple};
use proptest::prelude::*;

/// Strategy: a power-of-two J between 2 and 256 split into (n, m).
fn mapping_strategy() -> impl Strategy<Value = Mapping> {
    (1u32..=8, 0u32..=8).prop_filter_map("n*m must be 2..=256", |(e, k)| {
        if k <= e && (1..=8).contains(&e) {
            Some(Mapping::new(1 << k, 1 << (e - k)))
        } else {
            None
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ticket partitions nest: partition at 2p refines partition at p.
    #[test]
    fn ticket_partitions_nest(ticket in any::<u64>(), bits in 0u32..8) {
        let p = 1u32 << bits;
        prop_assert_eq!(
            partition(ticket, 2 * p),
            partition(ticket, p) * 2 + refine_bit(ticket, p)
        );
    }

    /// The optimal mapping really is optimal: no other factorisation has
    /// a smaller ILF.
    #[test]
    fn optimal_mapping_minimises_ilf(
        j_exp in 1u32..=8,
        r in 1u64..1_000_000,
        s in 1u64..1_000_000,
    ) {
        let j = 1u32 << j_exp;
        let best = optimal_mapping(j, r, s);
        for k in 0..=j_exp {
            let other = Mapping::new(1 << k, 1 << (j_exp - k));
            prop_assert!(ilf(r, s, best) <= ilf(r, s, other) + 1e-9);
        }
    }

    /// Theorem 3.2: within the ratio assumption, the grid optimum is
    /// within 1.07x of the continuous lower bound.
    #[test]
    fn grid_semi_perimeter_bound(
        j_exp in 1u32..=8,
        r in 1u64..1_000_000,
        s in 1u64..1_000_000,
    ) {
        let j = 1u32 << j_exp;
        let ratio = r.max(s) as f64 / r.min(s) as f64;
        prop_assume!(ratio < j as f64);
        let opt = optimal_ilf(j, r, s);
        let bound = continuous_lower_bound(j, r, s);
        prop_assert!(opt <= 1.07 * bound + 1e-6, "opt {} vs 1.07x bound {}", opt, bound);
    }

    /// Lemma 4.1 at the optimum: the two per-joiner shares are within 2x
    /// of each other (ratio assumption permitting).
    #[test]
    fn optimal_mapping_is_balanced(
        j_exp in 1u32..=8,
        r in 1u64..1_000_000,
        s in 1u64..1_000_000,
    ) {
        let j = 1u32 << j_exp;
        prop_assume!(r.max(s) <= r.min(s) * j as u64);
        let mp = optimal_mapping(j, r, s);
        let rn = r as f64 / mp.n as f64;
        let sm = s as f64 / mp.m as f64;
        prop_assert!(rn <= 2.0 * sm + 1e-9);
        prop_assert!(sm <= 2.0 * rn + 1e-9);
    }

    /// Padding keeps the effective ratio within J and inflates the volume
    /// by at most (1 + 1/J).
    #[test]
    fn padding_invariants(j_exp in 1u32..=8, r in 0u64..1_000_000, s in 0u64..1_000_000) {
        let j = 1u32 << j_exp;
        let (re, se) = effective_cardinalities(j, r, s);
        prop_assert!(re >= 1 && se >= 1);
        prop_assert!(re.max(se) <= re.min(se) * j as u64 + j as u64);
        let total = (r + s) as f64;
        prop_assert!((re + se) as f64 <= total * (1.0 + 1.0 / j as f64) + 2.0);
    }

    /// Grid relabelling is a bijection after any step, and partners merge
    /// into sibling cells.
    #[test]
    fn relabelling_is_bijective(mapping in mapping_strategy(), halve_rows in any::<bool>()) {
        let step = if halve_rows { Step::HalveRows } else { Step::HalveCols };
        prop_assume!(step.apply(mapping).is_some());
        let mut assign = GridAssignment::initial(mapping);
        assign.apply_step(step);
        let mp = assign.mapping();
        let mut seen = vec![false; mp.j() as usize];
        for row in 0..mp.n {
            for col in 0..mp.m {
                let k = assign.machine_at(row, col);
                prop_assert!(!seen[k]);
                seen[k] = true;
            }
        }
    }

    /// Migration classification is a partition: every tuple is exactly one
    /// of Keep / KeepAndMigrate / Discard, coarsening tuples always
    /// migrate, and partner keep-bits complement.
    #[test]
    fn migration_classification_partitions_state(
        mapping in mapping_strategy(),
        halve_rows in any::<bool>(),
        ticket in any::<u64>(),
        is_r in any::<bool>(),
    ) {
        let step = if halve_rows { Step::HalveRows } else { Step::HalveCols };
        prop_assume!(step.apply(mapping).is_some());
        let assign = GridAssignment::initial(mapping);
        let plan = plan_step(&assign, step);
        let rel = if is_r { Rel::R } else { Rel::S };
        let t = Tuple::new(rel, 0, 0, ticket);
        for spec in &plan.specs {
            let class = spec.classify(&t);
            // The step's `Role` is this classification: what it keeps,
            // and the one partner it forwards the exchanged copy to.
            let role = Role::Step(*spec);
            prop_assert_eq!(role.keeps(&t), class.kept());
            let partner = [spec.partner];
            let forwarded: &[usize] = if class.migrated() { &partner } else { &[] };
            prop_assert_eq!(&role.forwards(&t)[..], forwarded);
            if rel == step.coarsens() {
                prop_assert_eq!(class, StateClass::KeepAndMigrate);
            } else {
                prop_assert!(matches!(class, StateClass::Keep | StateClass::Discard));
                // The partner keeps exactly the complement.
                let partner = &plan.specs[spec.partner];
                let partner_class = partner.classify(&t);
                prop_assert_ne!(
                    class == StateClass::Keep,
                    partner_class == StateClass::Keep,
                    "partners must keep complementary halves"
                );
            }
        }
    }

    /// §4.2.2 elasticity (Fig. 5): for ANY starting grid and ANY stored
    /// tuple, [`ExpandSpec::destinations`] routes each of the tuple's
    /// stored copies to exactly the machines whose post-expansion grid
    /// cells cover it — no loss, no double-store. This is the invariant
    /// the live expansion protocol's exactness rests on.
    #[test]
    fn expansion_destinations_cover_grid_exactly(
        mapping in mapping_strategy(),
        tickets in prop::collection::vec((any::<u64>(), any::<bool>()), 1..60),
    ) {
        let assign = GridAssignment::initial(mapping);
        let plan = plan_expansion(&assign);
        let mut next = assign.clone();
        next.apply_expansion();
        let np = next.mapping();
        prop_assert_eq!(np, Mapping::new(mapping.n * 2, mapping.m * 2));
        for (i, (ticket, is_r)) in tickets.iter().enumerate() {
            let rel = if *is_r { Rel::R } else { Rel::S };
            let t = Tuple::new(rel, i as u64, 0, *ticket);
            // The machines storing t before the expansion (its row or
            // column), and the machines that must store it after.
            let holders: Vec<usize> = match rel {
                Rel::R => assign
                    .machines_for_row(partition(*ticket, mapping.n))
                    .collect(),
                Rel::S => assign
                    .machines_for_col(partition(*ticket, mapping.m))
                    .collect(),
            };
            let mut expected: Vec<usize> = match rel {
                Rel::R => next.machines_for_row(partition(*ticket, np.n)).collect(),
                Rel::S => next.machines_for_col(partition(*ticket, np.m)).collect(),
            };
            // Fan every stored copy out per its holder's spec.
            let mut actual: Vec<usize> = Vec::new();
            for &h in &holders {
                let spec = plan.specs[h];
                let d = spec.destinations(&t);
                prop_assert!(d.sends() <= 2, "per-copy fan-out beyond Theorem 4.3");
                if d.keep {
                    actual.push(h);
                }
                let mut sent = Vec::new();
                for (child, go) in spec.children.iter().zip([d.to_01, d.to_10, d.to_11]) {
                    if go {
                        sent.push(*child);
                    }
                }
                // The parent's `Role` is these destinations.
                let role = Role::Expand(spec);
                prop_assert_eq!(role.keeps(&t), d.keep);
                prop_assert_eq!(&role.forwards(&t)[..], &sent[..]);
                actual.extend(sent);
            }
            expected.sort_unstable();
            actual.sort_unstable();
            prop_assert_eq!(
                actual, expected,
                "copies of {:?} tuple with ticket {:#x} not partitioned to its covering cells",
                rel, ticket
            );
        }
    }

    /// The one placement argument behind every kind of epoch change: on
    /// ANY grid (the initial one relabelled by a random chain of steps),
    /// for the roles [`Reconfig::adopt`] plans, keep ∪ forward over a
    /// tuple's old holders lands one copy on exactly the machines whose
    /// new cells cover it — with at most one destination per copy for a
    /// step or a retiree, two for an expansion parent, none for a
    /// survivor (Lemma 4.4's exchange, Theorem 4.3's 2×, the
    /// contraction's 1×).
    #[test]
    fn roles_place_each_tuple_on_exactly_its_new_cells(
        mapping in mapping_strategy(),
        prelude in prop::collection::vec(any::<bool>(), 0..4),
        kind in prop_oneof![
            Just(Reconfig::Step(Step::HalveRows)),
            Just(Reconfig::Step(Step::HalveCols)),
            Just(Reconfig::Expand),
            Just(Reconfig::Contract),
        ],
        tickets in prop::collection::vec((any::<u64>(), any::<bool>()), 1..40),
    ) {
        let mut assign = GridAssignment::initial(mapping);
        for halve_rows in prelude {
            let step = if halve_rows { Step::HalveRows } else { Step::HalveCols };
            if step.apply(assign.mapping()).is_some() {
                assign.apply_step(step);
            }
        }
        let from = assign.mapping();
        prop_assume!(kind.apply(from).is_some());
        let mut next = assign.clone();
        let mut layout = ElasticLayout::new(from.j() as usize);
        let roles = kind.adopt(&mut next, &mut layout);
        let to = next.mapping();
        prop_assert_eq!(Some(to), kind.apply(from));
        prop_assert_eq!(roles.len(), from.j() as usize, "every old machine has a role");
        for (i, (ticket, is_r)) in tickets.iter().enumerate() {
            let rel = if *is_r { Rel::R } else { Rel::S };
            let t = Tuple::new(rel, i as u64, 0, *ticket);
            let holders: Vec<usize> = match rel {
                Rel::R => assign.machines_for_row(partition(*ticket, from.n)).collect(),
                Rel::S => assign.machines_for_col(partition(*ticket, from.m)).collect(),
            };
            let mut expected: Vec<usize> = match rel {
                Rel::R => next.machines_for_row(partition(*ticket, to.n)).collect(),
                Rel::S => next.machines_for_col(partition(*ticket, to.m)).collect(),
            };
            let mut actual: Vec<usize> = Vec::new();
            for &h in &holders {
                let role = roles.iter().find(|(m, _)| *m == h).expect("holder has a role").1;
                let forward = role.forwards(&t);
                let bound = match role {
                    Role::Expand(_) => 2,
                    Role::Contract(ContractRole::Survive) => 0,
                    Role::Step(_) | Role::Contract(ContractRole::Retire { .. }) => 1,
                };
                prop_assert!(forward.len() <= bound, "{:?} forwards to {:?}", role, forward);
                prop_assert!(
                    forward.iter().all(|m| role.streams_to().contains(m)),
                    "a role forwards only along its own streams"
                );
                if role.keeps(&t) {
                    actual.push(h);
                }
                actual.extend(forward.iter());
            }
            expected.sort_unstable();
            actual.sort_unstable();
            prop_assert_eq!(
                actual, expected,
                "{:?}: copies of {:?} tuple with ticket {:#x} not placed on its covering cells",
                kind, rel, ticket
            );
        }
    }

    /// After a migration step, the union of kept state across a partner
    /// pair covers the merged partition exactly once per new owner.
    #[test]
    fn exchange_covers_merged_partition(
        mapping in mapping_strategy(),
        tickets in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        prop_assume!(mapping.n >= 2);
        let assign = GridAssignment::initial(mapping);
        let plan = plan_step(&assign, Step::HalveRows);
        // For every R tuple and every new grid cell, exactly one of the
        // machines mapped there must own it post-migration.
        let mut next = assign.clone();
        next.apply_step(Step::HalveRows);
        let np = next.mapping();
        for (i, ticket) in tickets.iter().enumerate() {
            let _t = Tuple::new(Rel::R, i as u64, 0, *ticket);
            let new_row = partition(*ticket, np.n);
            for col in 0..np.m {
                let machine = next.machine_at(new_row, col);
                let spec = &plan.specs[machine];
                // The machine ends up with the tuple either because it kept
                // it (it held the tuple's old row) or because its partner
                // exchanged it over.
                let old_row = partition(*ticket, mapping.n);
                let had_it = spec.old_pos.row == old_row;
                let partner_had_it = plan.specs[spec.partner].old_pos.row == old_row;
                prop_assert!(
                    had_it || partner_had_it,
                    "machine {} at new ({},{}) can't obtain tuple with old row {}",
                    machine, new_row, col, old_row
                );
            }
        }
    }
}
