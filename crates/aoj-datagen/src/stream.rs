//! Stream arrival dynamics: how the two relations' tuples interleave on
//! their way into the operator.
//!
//! * [`interleave`] — a random proportional merge (stationary mix, used by
//!   most experiments);
//! * [`fluctuating`] — the §5.4 adversarial schedule: stream R until
//!   `|R| = k·|S|`, then quiesce R and stream S until `|S| = k·|R|`, and
//!   so on — the sawtooth of Fig. 8c that forces migration after
//!   migration.

use aoj_core::tuple::Rel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::queries::{StreamItem, Workload};

#[cfg(test)]
mod properties;

/// A fully ordered operator input: the sequence of arrivals.
pub type Arrivals = Vec<(Rel, StreamItem)>;

/// Randomly merge the two streams proportionally to their remaining
/// sizes, preserving each stream's internal order.
pub fn interleave(w: &Workload, seed: u64) -> Arrivals {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(w.total());
    let (mut i, mut j) = (0usize, 0usize);
    while i < w.r_items.len() || j < w.s_items.len() {
        let r_left = (w.r_items.len() - i) as u64;
        let s_left = (w.s_items.len() - j) as u64;
        let pick_r = rng.gen_range(0..r_left + s_left) < r_left;
        if pick_r {
            out.push((Rel::R, w.r_items[i]));
            i += 1;
        } else {
            out.push((Rel::S, w.s_items[j]));
            j += 1;
        }
    }
    out
}

/// The §5.4 fluctuation schedule with factor `k`: cardinality aspect
/// ratios alternate between `k` and `1/k`. Starts by streaming R; swaps
/// whenever the active relation reaches `k ×` the other's cardinality;
/// drains whatever remains when one side runs out.
pub fn fluctuating(w: &Workload, k: u64, _seed: u64) -> Arrivals {
    assert!(k >= 2, "fluctuation factor must be at least 2");
    let mut out = Vec::with_capacity(w.total());
    let (mut i, mut j) = (0usize, 0usize);
    let (mut cr, mut cs) = (0u64, 0u64);
    let mut active = Rel::R;
    while i < w.r_items.len() || j < w.s_items.len() {
        match active {
            Rel::R if i < w.r_items.len() => {
                out.push((Rel::R, w.r_items[i]));
                i += 1;
                cr += 1;
                if cr >= k * cs.max(1) {
                    active = Rel::S;
                }
            }
            Rel::S if j < w.s_items.len() => {
                out.push((Rel::S, w.s_items[j]));
                j += 1;
                cs += 1;
                if cs >= k * cr.max(1) {
                    active = Rel::R;
                }
            }
            // Active stream exhausted: drain the other.
            Rel::R => active = Rel::S,
            Rel::S => active = Rel::R,
        }
    }
    out
}

/// The running `|R|/|S|` ratio trace of an arrival sequence: the oracle
/// of the fluctuation tests here and in `properties`.
#[cfg(test)]
fn ratio_trace(arrivals: &Arrivals) -> Vec<f64> {
    let (mut cr, mut cs) = (0u64, 0u64);
    arrivals
        .iter()
        .map(|(rel, _)| {
            match rel {
                Rel::R => cr += 1,
                Rel::S => cs += 1,
            }
            cr as f64 / cs.max(1) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::StreamItem;
    use aoj_core::predicate::Predicate;

    fn workload(nr: usize, ns: usize) -> Workload {
        let item = |key: i64| StreamItem {
            key,
            aux: 0,
            bytes: 64,
        };
        Workload {
            name: "test",
            predicate: Predicate::Equi,
            r_items: (0..nr as i64).map(item).collect(),
            s_items: (0..ns as i64).map(item).collect(),
        }
    }

    #[test]
    fn interleave_emits_everything_in_stream_order() {
        let w = workload(500, 1500);
        let a = interleave(&w, 3);
        assert_eq!(a.len(), 2000);
        let r_keys: Vec<i64> = a
            .iter()
            .filter(|(rel, _)| *rel == Rel::R)
            .map(|(_, i)| i.key)
            .collect();
        let s_keys: Vec<i64> = a
            .iter()
            .filter(|(rel, _)| *rel == Rel::S)
            .map(|(_, i)| i.key)
            .collect();
        assert_eq!(r_keys.len(), 500);
        assert_eq!(s_keys.len(), 1500);
        assert!(r_keys.windows(2).all(|w| w[0] < w[1]), "R order preserved");
        assert!(s_keys.windows(2).all(|w| w[0] < w[1]), "S order preserved");
    }

    #[test]
    fn interleave_is_roughly_proportional() {
        let w = workload(1000, 3000);
        let a = interleave(&w, 9);
        // In the first quarter, expect ~25% R.
        let head = &a[..1000];
        let r_frac = head.iter().filter(|(rel, _)| *rel == Rel::R).count() as f64 / 1000.0;
        assert!((r_frac - 0.25).abs() < 0.07, "head R fraction {r_frac}");
    }

    #[test]
    fn fluctuating_produces_sawtooth_ratio() {
        let w = workload(4000, 4000);
        let k = 4u64;
        let a = fluctuating(&w, k, 0);
        assert_eq!(a.len(), 8000);
        let trace = ratio_trace(&a);
        // The ratio must repeatedly touch k and 1/k (within integer slack).
        let hits_high = trace.iter().filter(|&&r| r >= (k - 1) as f64).count();
        let hits_low = trace
            .iter()
            .filter(|&&r| r > 0.0 && r <= 1.0 / (k - 1) as f64)
            .count();
        assert!(hits_high > 10, "ratio never reaches k");
        assert!(hits_low > 10, "ratio never reaches 1/k");
    }

    #[test]
    fn fluctuating_phase_lengths_grow_geometrically() {
        let w = workload(100_000, 100_000);
        let a = fluctuating(&w, 2, 0);
        // Count swap points; phases should grow so swaps are logarithmic.
        let mut swaps = 0;
        for win in a.windows(2) {
            if win[0].0 != win[1].0 {
                swaps += 1;
            }
        }
        assert!(
            swaps < 64,
            "expected logarithmically many phases, got {swaps}"
        );
        assert!(swaps >= 8, "expected several phases, got {swaps}");
    }

    #[test]
    fn fluctuating_drains_unbalanced_streams() {
        let w = workload(10, 5000);
        let a = fluctuating(&w, 4, 0);
        assert_eq!(a.len(), 5010);
        assert_eq!(a.iter().filter(|(r, _)| *r == Rel::R).count(), 10);
    }
}
