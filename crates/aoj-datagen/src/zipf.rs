//! A seeded Zipf sampler.
//!
//! The paper generates skewed TPC-H databases with the Chaudhuri–Narasayya
//! generator, parameterised by the Zipf exponent `z ∈ {0, 0.25, 0.5, 0.75,
//! 1.0}` (skew settings Z0–Z4). This sampler draws values `v ∈ [1, n]`
//! with `P(v) ∝ 1 / v^z` by inverse-CDF lookup over a precomputed table —
//! deterministic, O(log n) per draw.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's five skew settings.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Skew {
    /// z = 0 (uniform)
    Z0,
    /// z = 0.25
    Z1,
    /// z = 0.5
    Z2,
    /// z = 0.75
    Z3,
    /// z = 1.0
    Z4,
}

impl Skew {
    /// The Zipf exponent.
    pub(crate) fn z(self) -> f64 {
        match self {
            Skew::Z0 => 0.0,
            Skew::Z1 => 0.25,
            Skew::Z2 => 0.5,
            Skew::Z3 => 0.75,
            Skew::Z4 => 1.0,
        }
    }

    /// All settings, in Table 2 order.
    pub fn all() -> [Skew; 5] {
        [Skew::Z0, Skew::Z1, Skew::Z2, Skew::Z3, Skew::Z4]
    }

    /// Display name matching the paper ("Z = 0" … "Z = 4").
    pub fn label(self) -> &'static str {
        match self {
            Skew::Z0 => "Z0",
            Skew::Z1 => "Z1",
            Skew::Z2 => "Z2",
            Skew::Z3 => "Z3",
            Skew::Z4 => "Z4",
        }
    }
}

/// Inverse-CDF Zipf sampler over `[1, n]` with exponent `z`.
pub struct ZipfSampler {
    cdf: Vec<f64>,
    rng: StdRng,
}

impl ZipfSampler {
    /// Build a sampler for `n ≥ 1` values with exponent `z ≥ 0`.
    pub fn new(n: u64, z: f64, seed: u64) -> ZipfSampler {
        assert!(n >= 1, "domain must be non-empty");
        assert!(z >= 0.0, "negative exponents are not Zipfian");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for v in 1..=n {
            acc += 1.0 / (v as f64).powf(z);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler {
            cdf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Convenience constructor from a [`Skew`] setting.
    pub(crate) fn with_skew(n: u64, skew: Skew, seed: u64) -> ZipfSampler {
        ZipfSampler::new(n, skew.z(), seed)
    }

    /// Draw the next value in `[1, n]`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        // partition_point returns the count of entries < u, which is the
        // 0-based index of the chosen value; +1 maps to [1, n].
        let idx = self.cdf.partition_point(|&c| c < u);
        (idx.min(self.cdf.len() - 1) + 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The oracle of the degenerate-domain test.
    impl ZipfSampler {
        /// Domain size.
        fn n(&self) -> u64 {
            self.cdf.len() as u64
        }
    }

    fn histogram(n: u64, z: f64, draws: u64) -> Vec<u64> {
        let mut s = ZipfSampler::new(n, z, 42);
        let mut h = vec![0u64; n as usize];
        for _ in 0..draws {
            h[(s.next() - 1) as usize] += 1;
        }
        h
    }

    #[test]
    fn z0_is_uniform() {
        let h = histogram(16, 0.0, 160_000);
        let expected = 10_000.0;
        for (i, c) in h.iter().enumerate() {
            let dev = (*c as f64 - expected).abs() / expected;
            assert!(dev < 0.06, "value {i} deviates {dev:.3}");
        }
    }

    #[test]
    fn z1_matches_zipf_head_probability() {
        // For z = 1, P(1) = 1 / H_n. With n = 100, H_100 ≈ 5.187.
        let n = 100u64;
        let h = histogram(n, 1.0, 500_000);
        let p1 = h[0] as f64 / 500_000.0;
        let hn: f64 = (1..=n).map(|v| 1.0 / v as f64).sum();
        let expected = 1.0 / hn;
        assert!(
            (p1 - expected).abs() < 0.01,
            "P(1) = {p1}, expected {expected}"
        );
    }

    #[test]
    fn skew_orders_head_mass() {
        // Higher z concentrates more mass on the most frequent value.
        let mut heads = Vec::new();
        for skew in Skew::all() {
            let mut s = ZipfSampler::with_skew(50, skew, 7);
            let mut head = 0u64;
            for _ in 0..100_000 {
                if s.next() == 1 {
                    head += 1;
                }
            }
            heads.push(head);
        }
        for w in heads.windows(2) {
            assert!(w[0] < w[1], "head mass must grow with skew: {heads:?}");
        }
    }

    #[test]
    fn values_stay_in_domain() {
        let mut s = ZipfSampler::new(7, 0.9, 1);
        for _ in 0..10_000 {
            let v = s.next();
            assert!((1..=7).contains(&v));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a: Vec<u64> = {
            let mut s = ZipfSampler::new(100, 0.5, 9);
            (0..20).map(|_| s.next()).collect()
        };
        let b: Vec<u64> = {
            let mut s = ZipfSampler::new(100, 0.5, 9);
            (0..20).map(|_| s.next()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_domain() {
        let mut s = ZipfSampler::new(1, 1.0, 3);
        assert_eq!(s.next(), 1);
        assert_eq!(s.n(), 1);
    }

    #[test]
    fn skew_exponents() {
        assert_eq!(Skew::Z0.z(), 0.0);
        assert_eq!(Skew::Z4.z(), 1.0);
        assert_eq!(Skew::Z2.label(), "Z2");
    }
}
