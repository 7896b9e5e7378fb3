//! The input-load factor (§3.3) and optimal mapping search.
//!
//! Under an `(n, m)`-mapping every joiner receives (and stores)
//! `|R|/n + |S|/m` tuples — the **ILF**, the only cost that depends on the
//! mapping (join work and output size are mapping-independent, both being
//! proportional to the region area `|R||S|/J`). Minimising the ILF
//! simultaneously minimises per-machine input overhead, per-machine
//! storage, and global replicated traffic `J · ILF`.
//!
//! All comparisons here use exact integer arithmetic: for fixed `J`,
//! `|R|/n + |S|/m = (|R|·m + |S|·n) / J`, so mappings compare by the
//! numerator `|R|·m + |S|·n` in `u128`.

use crate::mapping::Mapping;

/// ILF numerator `r·m + s·n` — proportional to the ILF for fixed `J`.
/// Cardinalities are in abstract units (tuples, or bytes when sides have
/// different tuple sizes; §4.2.2 "relative tuple sizes").
#[inline]
pub(crate) fn ilf_numerator(r: u64, s: u64, mapping: Mapping) -> u128 {
    r as u128 * mapping.m as u128 + s as u128 * mapping.n as u128
}

/// The ILF itself, `r/n + s/m`, as a float for reporting.
#[inline]
pub fn ilf(r: u64, s: u64, mapping: Mapping) -> f64 {
    r as f64 / mapping.n as f64 + s as f64 / mapping.m as f64
}

/// All mappings for `j` joiners (`j` a power of two): `(2^k, j/2^k)`.
pub(crate) fn all_mappings(j: u32) -> impl Iterator<Item = Mapping> {
    assert!(j.is_power_of_two(), "J must be a power of two");
    let e = j.trailing_zeros();
    (0..=e).map(move |k| Mapping::new(1 << k, 1 << (e - k)))
}

/// The mapping minimising the ILF for cardinalities `(r, s)` over `j`
/// joiners. Deterministic tie-break: the smallest `n` wins (ties only occur
/// at exact power-of-two cardinality ratios).
pub fn optimal_mapping(j: u32, r: u64, s: u64) -> Mapping {
    all_mappings(j)
        .min_by_key(|&mp| (ilf_numerator(r, s, mp), mp.n))
        .expect("at least one mapping exists")
}

/// The optimal ILF value (float, for reporting and ratio tracking).
pub fn optimal_ilf(j: u32, r: u64, s: u64) -> f64 {
    ilf(r, s, optimal_mapping(j, r, s))
}

/// The continuous lower bound on the region semi-perimeter,
/// `2·sqrt(r·s/J)` (Theorem 3.1/3.2). Real mappings are integral, so the
/// achievable optimum can exceed this by up to the 1.07 factor of
/// Theorem 3.2. The oracle of Theorem 3.2's tests (here and in
/// `property_invariants`).
#[cfg(test)]
pub(crate) fn continuous_lower_bound(j: u32, r: u64, s: u64) -> f64 {
    2.0 * ((r as f64 * s as f64) / j as f64).sqrt()
}

/// Padded cardinalities (§4.2.2 "Relation cardinality ratio"): if the
/// larger relation exceeds `J ×` the smaller, the smaller is padded with
/// dummy tuples up to `larger / J`, keeping the ratio within `J` so that
/// Lemma 4.1 (and everything built on it) applies. Padding multiplies the
/// handled volume by at most `1 + 1/J`.
pub(crate) fn effective_cardinalities(j: u32, r: u64, s: u64) -> (u64, u64) {
    let j = j as u64;
    let r_eff = r.max(s.div_ceil(j));
    let s_eff = s.max(r.div_ceil(j));
    (r_eff.max(1), s_eff.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_example() {
        // Fig. 2: R = 1 GB, S = 64 GB, J = 64 machines.
        // (8,8) gives 8.125 GB; (1,64) gives 2 GB and is optimal.
        let (r, s) = (1u64 << 30, 64u64 << 30);
        let mid = Mapping::new(8, 8);
        let opt = optimal_mapping(64, r, s);
        assert_eq!(opt, Mapping::new(1, 64));
        let gb = (1u64 << 30) as f64;
        assert!((ilf(r, s, mid) / gb - 8.125).abs() < 1e-9);
        assert!((ilf(r, s, opt) / gb - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equal_streams_prefer_square() {
        let opt = optimal_mapping(64, 1000, 1000);
        assert_eq!(opt, Mapping::new(8, 8));
    }

    #[test]
    fn all_mappings_enumerates_spectrum() {
        let maps: Vec<Mapping> = all_mappings(16).collect();
        assert_eq!(maps.len(), 5);
        assert_eq!(maps[0], Mapping::new(1, 16));
        assert_eq!(maps[4], Mapping::new(16, 1));
    }

    #[test]
    fn numerator_orders_like_float_ilf() {
        let (r, s) = (123_456u64, 7_890u64);
        let mut maps: Vec<Mapping> = all_mappings(32).collect();
        maps.sort_by_key(|&mp| ilf_numerator(r, s, mp));
        for w in maps.windows(2) {
            assert!(ilf(r, s, w[0]) <= ilf(r, s, w[1]) + 1e-9);
        }
    }

    #[test]
    fn lemma_4_1_holds_at_the_optimum() {
        // Under the optimal mapping with ratio within J:
        // (1/2)(s/m) <= r/n <= 2(s/m).
        let j = 64u32;
        for (r, s) in [
            (1000u64, 1000u64),
            (100, 6000),
            (6000, 100),
            (40, 2500),
            (999, 1001),
        ] {
            if r.max(s) > r.min(s) * j as u64 {
                continue;
            }
            let mp = optimal_mapping(j, r, s);
            let rn = r as f64 / mp.n as f64;
            let sm = s as f64 / mp.m as f64;
            assert!(rn <= 2.0 * sm + 1e-9, "r/n={rn} s/m={sm} for ({r},{s})");
            assert!(sm <= 2.0 * rn + 1e-9, "r/n={rn} s/m={sm} for ({r},{s})");
        }
    }

    #[test]
    fn theorem_3_2_semi_perimeter_within_1_07_of_continuous_optimum() {
        // Grid layout: semi-perimeter <= 1.07 * 2 sqrt(RS/J) when the
        // cardinality ratio is within J; exactly optimal otherwise.
        let j = 64u32;
        let mut worst: f64 = 0.0;
        for r in [1u64, 3, 10, 64, 100, 1_000, 12_345, 1 << 20] {
            for s in [1u64, 7, 50, 640, 10_000, 54_321, 1 << 22] {
                let ratio = r.max(s) as f64 / r.min(s) as f64;
                if ratio >= j as f64 {
                    continue;
                }
                let opt = optimal_ilf(j, r, s);
                let bound = continuous_lower_bound(j, r, s);
                worst = worst.max(opt / bound);
            }
        }
        assert!(worst <= 1.07, "worst semi-perimeter ratio {worst}");
        // The bound is tight-ish: some instance should exceed 1.05.
        let tight = optimal_ilf(j, 1000, 2000) / continuous_lower_bound(j, 1000, 2000);
        assert!(
            tight > 1.02,
            "expected near-worst-case instance, got {tight}"
        );
    }

    #[test]
    fn extreme_ratio_clamps_to_edge_mapping() {
        let opt = optimal_mapping(16, 1_000_000, 1);
        assert_eq!(opt, Mapping::new(16, 1));
        let opt = optimal_mapping(16, 1, 1_000_000);
        assert_eq!(opt, Mapping::new(1, 16));
    }

    #[test]
    fn effective_cardinalities_pad_to_ratio_j() {
        let (r, s) = effective_cardinalities(16, 3_200, 1);
        assert_eq!(r, 3_200);
        assert_eq!(s, 200); // padded up to r/J
        let (r, s) = effective_cardinalities(16, 100, 200);
        assert_eq!((r, s), (100, 200)); // within ratio: unchanged
        let (r, s) = effective_cardinalities(8, 0, 0);
        assert_eq!((r, s), (1, 1)); // never zero
    }

    #[test]
    fn padding_overhead_is_bounded() {
        // Total padded volume <= (1 + 1/J) * total.
        for (r, s) in [(1u64 << 30, 5u64), (77, 1 << 22)] {
            let j = 32u32;
            let (re, se) = effective_cardinalities(j, r, s);
            let total = (r + s) as f64;
            let padded = (re + se) as f64;
            assert!(padded <= total * (1.0 + 1.0 / j as f64) + 2.0);
        }
    }
}
