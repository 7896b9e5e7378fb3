//! Arbitrary cluster sizes via power-of-two group decomposition (§4.2.2).
//!
//! `J` decomposes uniquely into a sum of powers of two (its binary
//! representation). Machines split into one independent group per summand,
//! each running the grid scheme of §3.4 on its own. An incoming tuple is
//! **probed** against every group (it must meet all stored tuples) but
//! **stored** in exactly one, chosen with probability `J_g / J` via a
//! pseudo-random hash — so expected storage is proportional to group size
//! and every joiner still performs `1/J` of the join work.
//!
//! The paper shows the storage competitive ratio at most doubles (3.75)
//! because the largest group holds at least half the machines, and routing
//! cost gains a `log J` factor (at most `⌈log J⌉` groups).

use crate::ilf::{effective_cardinalities, optimal_mapping};
use crate::mapping::Mapping;

/// The power-of-two decomposition of a cluster of `J` machines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSet {
    /// Group sizes, descending powers of two (binary digits of `J`).
    sizes: Vec<u32>,
    /// First machine index of each group (prefix sums of `sizes`).
    offsets: Vec<u32>,
    total: u32,
}

impl GroupSet {
    /// Decompose `j ≥ 1` machines into groups.
    pub fn decompose(j: u32) -> GroupSet {
        assert!(j >= 1);
        let mut sizes = Vec::new();
        let mut bit = 31 - j.leading_zeros();
        loop {
            if j & (1 << bit) != 0 {
                sizes.push(1 << bit);
            }
            if bit == 0 {
                break;
            }
            bit -= 1;
        }
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0;
        for &s in &sizes {
            offsets.push(acc);
            acc += s;
        }
        GroupSet {
            sizes,
            offsets,
            total: j,
        }
    }

    /// Number of groups (`≤ ⌈log₂ J⌉ + 1`, i.e. the popcount of `J`).
    #[inline]
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of group `g`.
    #[inline]
    pub fn size(&self, g: usize) -> u32 {
        self.sizes[g]
    }

    /// The group that stores a tuple with (independent) hash `h`: group `g`
    /// with probability `J_g / J` — ranges proportional to sizes.
    pub fn storage_group(&self, h: u64) -> usize {
        let slot = (h % self.total as u64) as u32;
        // Linear scan: at most popcount(J) ≤ 32 groups, usually ≤ 3.
        let mut acc = 0;
        for (g, &s) in self.sizes.iter().enumerate() {
            acc += s;
            if slot < acc {
                return g;
            }
        }
        unreachable!("slot < total by construction")
    }

    /// Optimal per-group mappings for estimated cardinalities: each group
    /// independently minimises its ILF (the optimal `n/m` ratio is the same
    /// for all groups, so the grids nest — larger groups refine smaller
    /// ones, the property the forwarding chains of §4.2.2 rely on).
    pub fn optimal_mappings(&self, r: u64, s: u64) -> Vec<Mapping> {
        self.sizes
            .iter()
            .map(|&jg| {
                let (re, se) = effective_cardinalities(jg, r, s);
                optimal_mapping(jg, re, se)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::mix64;

    // The oracle of the decomposition test.
    impl GroupSet {
        /// Total machines.
        #[inline]
        fn total(&self) -> u32 {
            self.total
        }
    }

    // The oracle of the machine-layout tests.
    impl GroupSet {
        /// Machine index range `[offset, offset + size)` of group `g`.
        fn machine_range(&self, g: usize) -> std::ops::Range<usize> {
            let o = self.offsets[g] as usize;
            o..o + self.sizes[g] as usize
        }
    }

    #[test]
    fn decompose_matches_binary_digits() {
        let g = GroupSet::decompose(22);
        assert_eq!(g.count(), 3);
        assert_eq!((g.size(0), g.size(1), g.size(2)), (16, 4, 2));
        assert_eq!(g.machine_range(0), 0..16);
        assert_eq!(g.machine_range(1), 16..20);
        assert_eq!(g.machine_range(2), 20..22);
        assert_eq!(g.total(), 22);
    }

    #[test]
    fn power_of_two_is_single_group() {
        let g = GroupSet::decompose(64);
        assert_eq!(g.count(), 1);
        assert_eq!(g.size(0), 64);
    }

    #[test]
    fn one_machine() {
        let g = GroupSet::decompose(1);
        assert_eq!(g.count(), 1);
        assert_eq!(g.machine_range(0), 0..1);
        assert_eq!(g.storage_group(u64::MAX), 0);
    }

    #[test]
    fn storage_probability_is_proportional_to_size() {
        let g = GroupSet::decompose(20); // 16 + 4
        let n = 400_000u64;
        let mut counts = vec![0u64; g.count()];
        for i in 0..n {
            counts[g.storage_group(mix64(i))] += 1;
        }
        let p0 = counts[0] as f64 / n as f64;
        let p1 = counts[1] as f64 / n as f64;
        assert!((p0 - 0.8).abs() < 0.01, "group 0 share {p0}");
        assert!((p1 - 0.2).abs() < 0.01, "group 1 share {p1}");
    }

    #[test]
    fn per_group_mappings_nest() {
        // For any cardinalities, the larger group's (n, m) must be a
        // refinement of the smaller's: n_small | n_big and m_small | m_big.
        let g = GroupSet::decompose(20); // 16 + 4
        for (r, s) in [(1000u64, 1000u64), (100, 6400), (6400, 100), (1, 1)] {
            let maps = g.optimal_mappings(r, s);
            let (big, small) = (maps[0], maps[1]);
            assert_eq!(big.n % small.n, 0, "rows must nest for ({r},{s}): {maps:?}");
            assert_eq!(big.m % small.m, 0, "cols must nest for ({r},{s}): {maps:?}");
        }
    }

    #[test]
    fn join_work_is_uniform_across_all_machines() {
        // The §4.2.2 argument: P[joiner computes a given pair] = 1/J.
        // Simulate: for each (r, s) pair, r is stored in group g_r at row
        // row(r); s probes all groups. The pair is evaluated at the single
        // machine (row_g(r), col_g(s)) of g_r. Count evaluations per
        // machine over many pairs.
        use crate::ticket::partition;
        let j = 20u32;
        let g = GroupSet::decompose(j);
        let maps = g.optimal_mappings(1, 1); // (4,4) and (2,2)
        let n_pairs = 600_000u64;
        let mut work = vec![0u64; j as usize];
        for i in 0..n_pairs {
            let r_hash = mix64(i * 2 + 1);
            let r_ticket = mix64(i * 7 + 3);
            let s_ticket = mix64(i * 13 + 5);
            let gr = g.storage_group(r_hash);
            let mp = maps[gr];
            let row = partition(r_ticket, mp.n);
            let col = partition(s_ticket, mp.m);
            let machine = g.machine_range(gr).start + (row * mp.m + col) as usize;
            work[machine] += 1;
        }
        let expected = n_pairs as f64 / j as f64;
        for (k, w) in work.iter().enumerate() {
            let dev = (*w as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "machine {k} work deviates {dev:.3}");
        }
    }
}
