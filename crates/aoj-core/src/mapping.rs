//! The grid-layout `(n,m)`-mapping scheme (§3.1, §3.4) and its evolution
//! under migrations.
//!
//! A join between streams R and S is a join-matrix; `J = n · m` joiners
//! each own one congruent rectangle: the joiner at grid position `(i, j)`
//! stores partition `Ri` and partition `Sj` and evaluates `Ri ⋈θ Sj`.
//! Every matrix cell is covered by exactly one joiner, so results are
//! complete and duplicate-free by construction.
//!
//! [`GridAssignment`] tracks which *physical machine* sits at which grid
//! position. Migrations relabel positions **locality-aware** (Fig. 3): when
//! `(n, m) → (n/2, 2m)`, machine `(i, j)` moves to `(i/2, 2j + (i mod 2))`,
//! so it keeps all its R state, exchanges R with a single partner, and
//! deterministically discards half its S state — the minimal-relocation
//! scheme of Lemma 4.4.

use crate::tuple::Rel;

/// An `(n, m)`-mapping: R is split into `n` row partitions and S into `m`
/// column partitions; `n · m = J`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Mapping {
    /// Number of R partitions (rows).
    pub n: u32,
    /// Number of S partitions (columns).
    pub m: u32,
}

impl Mapping {
    /// Create a mapping. Both dimensions must be non-zero powers of two.
    pub fn new(n: u32, m: u32) -> Mapping {
        assert!(
            n.is_power_of_two() && m.is_power_of_two(),
            "(n,m) must be powers of two"
        );
        Mapping { n, m }
    }

    /// Total joiners `J = n · m`.
    #[inline]
    pub fn j(&self) -> u32 {
        self.n * self.m
    }

    /// The most square mapping for `j` joiners: `(2^⌊e/2⌋, 2^⌈e/2⌉)` where
    /// `j = 2^e`. This is the paper's **StaticMid** scheme `(√J, √J)`.
    pub fn square(j: u32) -> Mapping {
        assert!(j.is_power_of_two(), "J must be a power of two");
        let e = j.trailing_zeros();
        Mapping::new(1 << (e / 2), 1 << (e - e / 2))
    }

    /// `(n/2, 2m)` if `n ≥ 2`.
    pub(crate) fn halve_rows(&self) -> Option<Mapping> {
        (self.n >= 2).then(|| Mapping::new(self.n / 2, self.m * 2))
    }

    /// `(2n, m/2)` if `m ≥ 2`.
    pub(crate) fn halve_cols(&self) -> Option<Mapping> {
        (self.m >= 2).then(|| Mapping::new(self.n * 2, self.m / 2))
    }

    /// Partition count along `rel`'s axis: `n` for R, `m` for S.
    #[inline]
    pub(crate) fn parts(&self, rel: Rel) -> u32 {
        match rel {
            Rel::R => self.n,
            Rel::S => self.m,
        }
    }
}

/// A single adaptivity step. Lemma 4.2 proves the optimum never moves more
/// than one step per decision under Alg. 2 with ε = 1; larger jumps are
/// executed as chains of steps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// `(n, m) → (n/2, 2m)`: R partitions coarsen (pairwise exchange),
    /// S partitions refine (deterministic discard).
    HalveRows,
    /// `(n, m) → (2n, m/2)`: S coarsens, R refines.
    HalveCols,
}

impl Step {
    /// The relation whose partitions merge; its state is *exchanged*
    /// between partner joiners.
    pub(crate) fn coarsens(self) -> Rel {
        match self {
            Step::HalveRows => Rel::R,
            Step::HalveCols => Rel::S,
        }
    }

    /// The relation whose partitions split; each joiner *discards* the half
    /// that no longer belongs to it.
    pub(crate) fn refines(self) -> Rel {
        self.coarsens().other()
    }

    /// Apply to a mapping.
    pub fn apply(self, mapping: Mapping) -> Option<Mapping> {
        match self {
            Step::HalveRows => mapping.halve_rows(),
            Step::HalveCols => mapping.halve_cols(),
        }
    }
}

/// The chain of steps leading from `from` to `to` (same `J`). Empty if the
/// mappings are equal.
pub fn steps_between(from: Mapping, to: Mapping) -> Vec<Step> {
    assert_eq!(from.j(), to.j(), "steps_between requires equal J");
    let mut steps = Vec::new();
    let mut cur = from;
    while cur.n > to.n {
        steps.push(Step::HalveRows);
        cur = cur.halve_rows().expect("n > to.n >= 1");
    }
    while cur.m > to.m {
        steps.push(Step::HalveCols);
        cur = cur.halve_cols().expect("m > to.m >= 1");
    }
    debug_assert_eq!(cur, to);
    steps
}

/// A position in the grid.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GridPos {
    /// Row = R partition index owned.
    pub row: u32,
    /// Column = S partition index owned.
    pub col: u32,
}

/// Which physical machine sits at which grid position. Evolves under
/// migrations with the locality-aware relabelling of Fig. 3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridAssignment {
    mapping: Mapping,
    /// machine index → grid position
    pos: Vec<GridPos>,
    /// row-major grid cell → machine index
    machine: Vec<u32>,
}

impl GridAssignment {
    /// The canonical initial assignment: machine `k` sits at
    /// `(k / m, k mod m)`.
    pub fn initial(mapping: Mapping) -> GridAssignment {
        let j = mapping.j() as usize;
        let mut pos = Vec::with_capacity(j);
        let mut machine = vec![0u32; j];
        for k in 0..j as u32 {
            let p = GridPos {
                row: k / mapping.m,
                col: k % mapping.m,
            };
            pos.push(p);
            machine[(p.row * mapping.m + p.col) as usize] = k;
        }
        GridAssignment {
            mapping,
            pos,
            machine,
        }
    }

    /// Rebuild an assignment from checkpointed parts: the mapping, the
    /// per-machine-slot positions (stale entries for retired machines are
    /// fine, exactly as the live struct keeps them), and the row-major
    /// cell → machine table. Validates the bijection between grid cells
    /// and the active machines before accepting.
    pub fn from_parts(
        mapping: Mapping,
        pos: Vec<GridPos>,
        machine: Vec<u32>,
    ) -> Result<GridAssignment, String> {
        if machine.len() != mapping.j() as usize {
            return Err(format!(
                "cell table has {} entries for a {}x{} mapping",
                machine.len(),
                mapping.n,
                mapping.m
            ));
        }
        for r in 0..mapping.n {
            for c in 0..mapping.m {
                let k = machine[(r * mapping.m + c) as usize] as usize;
                let p = pos
                    .get(k)
                    .ok_or_else(|| format!("cell ({r}, {c}) names unknown machine {k}"))?;
                if p.row != r || p.col != c {
                    return Err(format!(
                        "machine {k} position ({}, {}) disagrees with cell ({r}, {c})",
                        p.row, p.col
                    ));
                }
            }
        }
        Ok(GridAssignment {
            mapping,
            pos,
            machine,
        })
    }

    /// Current mapping.
    #[inline]
    pub fn mapping(&self) -> Mapping {
        self.mapping
    }

    /// The raw per-machine-slot position table (includes stale entries
    /// for retired machines), for checkpointing.
    #[inline]
    pub fn pos_slice(&self) -> &[GridPos] {
        &self.pos
    }

    /// Number of machines.
    #[inline]
    pub fn j(&self) -> u32 {
        self.mapping.j()
    }

    /// Grid position of a machine.
    #[inline]
    pub(crate) fn pos_of(&self, machine: usize) -> GridPos {
        self.pos[machine]
    }

    /// Machine at a grid position.
    #[inline]
    pub fn machine_at(&self, row: u32, col: u32) -> usize {
        debug_assert!(row < self.mapping.n && col < self.mapping.m);
        self.machine[(row * self.mapping.m + col) as usize] as usize
    }

    /// The machines currently holding a grid cell — the **active** set.
    /// After elastic contractions this is no longer a contiguous prefix
    /// of the provisioned machine indices, so callers that used to
    /// iterate `0..j` must iterate this instead. Row-major cell order.
    pub fn machines(&self) -> impl Iterator<Item = usize> + '_ {
        self.machine.iter().map(|&k| k as usize)
    }

    /// Machines holding R partition `row` (the whole grid row).
    pub fn machines_for_row(&self, row: u32) -> impl Iterator<Item = usize> + '_ {
        (0..self.mapping.m).map(move |c| self.machine_at(row, c))
    }

    /// Machines holding S partition `col` (the whole grid column).
    pub fn machines_for_col(&self, col: u32) -> impl Iterator<Item = usize> + '_ {
        (0..self.mapping.n).map(move |r| self.machine_at(r, col))
    }

    /// New grid position of the machine currently at `p` after `step`.
    pub(crate) fn relabel(p: GridPos, step: Step) -> GridPos {
        match step {
            Step::HalveRows => GridPos {
                row: p.row >> 1,
                col: (p.col << 1) | (p.row & 1),
            },
            Step::HalveCols => GridPos {
                row: (p.row << 1) | (p.col & 1),
                col: p.col >> 1,
            },
        }
    }

    /// The exchange partner (Lemma 4.4) of the machine at `p`: the sibling
    /// that owns the other half of the merged partition.
    pub(crate) fn partner_pos(p: GridPos, step: Step) -> GridPos {
        match step {
            Step::HalveRows => GridPos {
                row: p.row ^ 1,
                col: p.col,
            },
            Step::HalveCols => GridPos {
                row: p.row,
                col: p.col ^ 1,
            },
        }
    }

    /// Apply a migration step, relabelling every **active** machine in
    /// place. Machines outside the grid — retired by an elastic
    /// contraction — keep their stale `pos` entries untouched (they are
    /// resynchronised wholesale when an expansion reactivates them);
    /// relabelling them here would write their stale positions into (or
    /// past) the new grid.
    pub(crate) fn apply_step(&mut self, step: Step) {
        let old = self.mapping;
        let new_mapping = step.apply(old).expect("mapping cannot shrink below 1");
        let mut machine = vec![0u32; new_mapping.j() as usize];
        for r in 0..old.n {
            for c in 0..old.m {
                let k = self.machine_at(r, c);
                let np = Self::relabel(GridPos { row: r, col: c }, step);
                self.pos[k] = np;
                machine[(np.row * new_mapping.m + np.col) as usize] = k as u32;
            }
        }
        self.mapping = new_mapping;
        self.machine = machine;
    }

    /// Apply an elastic ×4 expansion (§"Elasticity", Fig. 5): the mapping
    /// becomes `(2n, 2m)`; the machine previously at `(i, j)` stays at
    /// `(2i, 2j)` and three fresh machines fill the other three children.
    /// Fresh machine indices are allocated from `old_j ..` in a fixed
    /// deterministic order: for old machine `k`, children `(a, b) ≠ (0, 0)`
    /// get indices `old_j + 3k`, `old_j + 3k + 1`, `old_j + 3k + 2` for
    /// `(0,1)`, `(1,0)`, `(1,1)` respectively.
    pub fn apply_expansion(&mut self) {
        let old_j = self.j() as usize;
        let children: Vec<usize> = (old_j..4 * old_j).collect();
        self.apply_expansion_with(&children);
    }

    /// Apply a ×4 expansion with an explicit child machine allocation:
    /// `children` holds `3 · J` machine indices, and the parent occupying
    /// the `g`-th grid cell (row-major) hands cells `(0,1)`, `(1,0)`,
    /// `(1,1)` of its quadrant to `children[3g]`, `children[3g+1]`,
    /// `children[3g+2]`. This is how elastic re-expansion reuses machines
    /// retired by an earlier contraction (the dormant pool) instead of
    /// always growing the index space.
    pub(crate) fn apply_expansion_with(&mut self, children: &[usize]) {
        // Single source of truth: the same plan the reshufflers route
        // and signal by also drives the grid relabelling, so the two
        // cannot drift apart.
        let plan = crate::elastic::plan_expansion_with(self, children);
        let to = plan.to;
        let top = children
            .iter()
            .copied()
            .chain(self.machines())
            .max()
            .expect("non-empty grid");
        if self.pos.len() <= top {
            self.pos.resize(top + 1, GridPos { row: 0, col: 0 });
        }
        let mut machine = vec![0u32; to.j() as usize];
        for spec in &plan.specs {
            let p = spec.old_pos;
            // Child cell order is ExpandSpec's contract: the parent
            // stays at (0,0) of its quadrant, children fill (0,1),
            // (1,0), (1,1).
            let cells = [
                (
                    spec.machine,
                    GridPos {
                        row: 2 * p.row,
                        col: 2 * p.col,
                    },
                ),
                (
                    spec.children[0],
                    GridPos {
                        row: 2 * p.row,
                        col: 2 * p.col + 1,
                    },
                ),
                (
                    spec.children[1],
                    GridPos {
                        row: 2 * p.row + 1,
                        col: 2 * p.col,
                    },
                ),
                (
                    spec.children[2],
                    GridPos {
                        row: 2 * p.row + 1,
                        col: 2 * p.col + 1,
                    },
                ),
            ];
            for (idx, cp) in cells {
                self.pos[idx] = cp;
                machine[(cp.row * to.m + cp.col) as usize] = idx as u32;
            }
        }
        self.mapping = to;
        self.machine = machine;
    }

    /// Apply an elastic 4→1 **contraction** (the reverse of
    /// [`apply_expansion`](GridAssignment::apply_expansion)): the mapping
    /// becomes `(n/2, m/2)` and each aligned 2×2 cell group merges into
    /// one survivor — the **lowest-indexed** machine of the group, so
    /// machine 0 (the controller's machine) can never retire. Returns the
    /// retired machine indices, sorted ascending; their `pos` entries go
    /// stale until a later expansion reactivates them.
    pub(crate) fn apply_contraction(&mut self) -> Vec<usize> {
        // Single source of truth: the plan the reshufflers signal by
        // (survivor choice, retiree roles) also drives the relabelling.
        let plan = crate::elastic::plan_contraction(self);
        let to = plan.to;
        let mut machine = vec![0u32; to.j() as usize];
        // `specs` lists groups in row-major order of the contracted
        // grid, survivor first within each group (the documented
        // `ContractionPlan` layout).
        for (g, group) in plan.specs.chunks(4).enumerate() {
            let survivor = group[0].machine;
            debug_assert_eq!(group[0].role, crate::elastic::ContractRole::Survive);
            let p = GridPos {
                row: g as u32 / to.m,
                col: g as u32 % to.m,
            };
            self.pos[survivor] = p;
            machine[g] = survivor as u32;
        }
        self.mapping = to;
        self.machine = machine;
        plan.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_mapping() {
        assert_eq!(Mapping::square(16), Mapping::new(4, 4));
        assert_eq!(Mapping::square(64), Mapping::new(8, 8));
        assert_eq!(Mapping::square(32), Mapping::new(4, 8));
        assert_eq!(Mapping::square(1), Mapping::new(1, 1));
    }

    #[test]
    fn halving_bounds() {
        let m = Mapping::new(1, 8);
        assert!(m.halve_rows().is_none());
        assert_eq!(m.halve_cols(), Some(Mapping::new(2, 4)));
    }

    #[test]
    fn parts_and_replication() {
        let m = Mapping::new(2, 8);
        assert_eq!(m.parts(Rel::R), 2);
        assert_eq!(m.parts(Rel::S), 8);
        assert_eq!(m.j(), 16);
    }

    #[test]
    fn steps_between_chains() {
        let from = Mapping::new(8, 2);
        let to = Mapping::new(1, 16);
        let steps = steps_between(from, to);
        assert_eq!(steps, vec![Step::HalveRows; 3]);
        let mut cur = from;
        for s in steps {
            cur = s.apply(cur).unwrap();
        }
        assert_eq!(cur, to);

        assert!(steps_between(from, from).is_empty());
        assert_eq!(
            steps_between(Mapping::new(2, 8), Mapping::new(8, 2)),
            vec![Step::HalveCols; 2]
        );
    }

    #[test]
    fn initial_assignment_is_row_major_bijection() {
        let a = GridAssignment::initial(Mapping::new(4, 4));
        for k in 0..16 {
            let p = a.pos_of(k);
            assert_eq!(a.machine_at(p.row, p.col), k);
        }
        assert_eq!(a.pos_of(5), GridPos { row: 1, col: 1 });
    }

    #[test]
    fn relabel_matches_fig3() {
        // Fig. 3 migrates (8,2) -> (4,4). Machine at (i, j) moves to
        // (i/2, 2j + i%2); partners are (i^1, j).
        let p = GridPos { row: 5, col: 1 };
        let np = GridAssignment::relabel(p, Step::HalveRows);
        assert_eq!(np, GridPos { row: 2, col: 3 });
        let partner = GridAssignment::partner_pos(p, Step::HalveRows);
        assert_eq!(partner, GridPos { row: 4, col: 1 });
        // Partner lands on the sibling column of the same new row.
        let npp = GridAssignment::relabel(partner, Step::HalveRows);
        assert_eq!(npp, GridPos { row: 2, col: 2 });
    }

    #[test]
    fn apply_step_remains_bijective() {
        let mut a = GridAssignment::initial(Mapping::new(8, 2));
        a.apply_step(Step::HalveRows);
        assert_eq!(a.mapping(), Mapping::new(4, 4));
        let mut seen = [false; 16];
        for r in 0..4 {
            for c in 0..4 {
                let k = a.machine_at(r, c);
                assert!(!seen[k], "machine {k} appears twice");
                seen[k] = true;
                assert_eq!(a.pos_of(k), GridPos { row: r, col: c });
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn partners_merge_to_same_row() {
        let a = GridAssignment::initial(Mapping::new(8, 2));
        for k in 0..16 {
            let p = a.pos_of(k);
            let partner = GridAssignment::partner_pos(p, Step::HalveRows);
            let np = GridAssignment::relabel(p, Step::HalveRows);
            let npp = GridAssignment::relabel(partner, Step::HalveRows);
            assert_eq!(np.row, npp.row, "partners must share the merged row");
            assert_ne!(np.col, npp.col, "partners must own complementary cols");
        }
    }

    #[test]
    fn long_step_chains_stay_bijective() {
        let mut a = GridAssignment::initial(Mapping::new(8, 8));
        for step in [
            Step::HalveRows,
            Step::HalveRows,
            Step::HalveCols,
            Step::HalveCols,
            Step::HalveCols,
            Step::HalveRows,
        ] {
            a.apply_step(step);
            let mp = a.mapping();
            let mut seen = vec![false; mp.j() as usize];
            for r in 0..mp.n {
                for c in 0..mp.m {
                    let k = a.machine_at(r, c);
                    assert!(!seen[k]);
                    seen[k] = true;
                }
            }
        }
        // (8,8) →HR (4,16) →HR (2,32) →HC (4,16) →HC (8,8) →HC (16,4)
        // →HR (8,8).
        assert_eq!(a.mapping(), Mapping::new(8, 8));
    }

    #[test]
    fn expansion_quadruples_grid() {
        let mut a = GridAssignment::initial(Mapping::new(2, 2));
        a.apply_expansion();
        assert_eq!(a.mapping(), Mapping::new(4, 4));
        // Old machine 0 was at (0,0); it stays at (0,0) and its children
        // occupy (0,1), (1,0), (1,1) with indices 4,5,6.
        assert_eq!(a.machine_at(0, 0), 0);
        assert_eq!(a.machine_at(0, 1), 4);
        assert_eq!(a.machine_at(1, 0), 5);
        assert_eq!(a.machine_at(1, 1), 6);
        // Bijectivity.
        let mut seen = [false; 16];
        for r in 0..4 {
            for c in 0..4 {
                let k = a.machine_at(r, c);
                assert!(!seen[k]);
                seen[k] = true;
            }
        }
    }

    #[test]
    fn contraction_reverses_expansion() {
        let mut a = GridAssignment::initial(Mapping::new(2, 2));
        let before = a.clone();
        a.apply_expansion();
        let retired = a.apply_contraction();
        assert_eq!(a.mapping(), Mapping::new(2, 2));
        // Parents sit at (even, even) and are the minimum of their group,
        // so the original four machines survive at their original cells.
        for k in 0..4 {
            assert_eq!(a.pos_of(k), before.pos_of(k));
        }
        assert_eq!(retired, (4..16).collect::<Vec<_>>());
    }

    #[test]
    fn contraction_survivor_is_group_minimum_after_migrations() {
        // Expand (2,2) -> (4,4), then migrate (4,4) -> (2,8): the group
        // members are scrambled, but the survivor of every group must be
        // its lowest machine index — and machine 0 must always survive.
        let mut a = GridAssignment::initial(Mapping::new(2, 2));
        a.apply_expansion();
        a.apply_step(Step::HalveRows);
        let pre = a.clone();
        let retired = a.apply_contraction();
        assert_eq!(a.mapping(), Mapping::new(1, 4));
        assert_eq!(retired.len(), 12);
        assert!(!retired.contains(&0), "machine 0 can never retire");
        let mut seen = Vec::new();
        for c in 0..4 {
            let s = a.machine_at(0, c);
            // The survivor owned one of the group's four old cells.
            let p = pre.pos_of(s);
            assert_eq!(p.col / 2, c);
            assert!(!retired.contains(&s));
            seen.push(s);
        }
        let mut all: Vec<usize> = seen.iter().copied().chain(retired).collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>(), "partition of machines");
    }

    #[test]
    fn expansion_with_pool_children_reuses_retired_indices() {
        let mut a = GridAssignment::initial(Mapping::new(1, 1));
        a.apply_expansion(); // children 1, 2, 3
        let retired = a.apply_contraction();
        assert_eq!(retired, vec![1, 2, 3]);
        // Re-expand into the retired pool: no fresh indices needed.
        a.apply_expansion_with(&retired);
        assert_eq!(a.mapping(), Mapping::new(2, 2));
        let mut active: Vec<usize> = a.machines().collect();
        active.sort_unstable();
        assert_eq!(active, vec![0, 1, 2, 3]);
        for k in 0..4 {
            let p = a.pos_of(k);
            assert_eq!(a.machine_at(p.row, p.col), k);
        }
    }

    #[test]
    #[should_panic(expected = "contraction needs both grid axes")]
    fn contraction_requires_even_axes() {
        let mut a = GridAssignment::initial(Mapping::new(4, 1));
        a.apply_contraction();
    }

    #[test]
    fn migration_steps_after_contraction_ignore_stale_retired_positions() {
        // Regression: expand (2,2)→(4,4), contract back, then migrate.
        // apply_step must relabel only the active machines — the twelve
        // retired machines' stale (4,4)-grid positions must neither
        // index past the new 4-cell grid nor overwrite live cells.
        let mut a = GridAssignment::initial(Mapping::new(2, 2));
        a.apply_expansion();
        let retired = a.apply_contraction();
        a.apply_step(Step::HalveRows);
        assert_eq!(a.mapping(), Mapping::new(1, 4));
        let mut seen = Vec::new();
        for c in 0..4 {
            let k = a.machine_at(0, c);
            assert!(!retired.contains(&k), "retired machine re-entered grid");
            assert_eq!(a.pos_of(k), GridPos { row: 0, col: c });
            seen.push(k);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "active machines must stay a bijection");
        // And the grid keeps working through the reverse step too.
        a.apply_step(Step::HalveCols);
        assert_eq!(a.mapping(), Mapping::new(2, 2));
    }

    #[test]
    fn row_and_col_iterators() {
        let a = GridAssignment::initial(Mapping::new(2, 4));
        let row0: Vec<usize> = a.machines_for_row(0).collect();
        assert_eq!(row0, vec![0, 1, 2, 3]);
        let col2: Vec<usize> = a.machines_for_col(2).collect();
        assert_eq!(col2, vec![2, 6]);
    }
}
