//! Property tests for the stream-dynamics module: arrival schedules must
//! be permutations of the workload (nothing lost, duplicated or reordered
//! within a relation) and the fluctuation schedule must respect its ratio
//! envelope.

use super::{fluctuating, interleave, ratio_trace, Arrivals};
use crate::queries::{StreamItem, Workload};
use aoj_core::predicate::Predicate;
use aoj_core::tuple::Rel;
use proptest::prelude::*;

fn workload(nr: usize, ns: usize) -> Workload {
    let item = |i: usize| StreamItem {
        key: i as i64,
        aux: i as i32,
        bytes: 64,
    };
    Workload {
        name: "prop",
        predicate: Predicate::Equi,
        r_items: (0..nr).map(item).collect(),
        s_items: (1_000_000..1_000_000 + ns).map(item).collect(),
    }
}

fn assert_is_stream_permutation(w: &Workload, arrivals: &Arrivals) {
    let r_keys: Vec<i64> = arrivals
        .iter()
        .filter(|(rel, _)| *rel == Rel::R)
        .map(|(_, i)| i.key)
        .collect();
    let s_keys: Vec<i64> = arrivals
        .iter()
        .filter(|(rel, _)| *rel == Rel::S)
        .map(|(_, i)| i.key)
        .collect();
    let want_r: Vec<i64> = w.r_items.iter().map(|i| i.key).collect();
    let want_s: Vec<i64> = w.s_items.iter().map(|i| i.key).collect();
    // Per-relation order is preserved exactly (streams are FIFO sources).
    assert_eq!(r_keys, want_r);
    assert_eq!(s_keys, want_s);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn interleave_is_an_order_preserving_merge(
        nr in 0usize..400,
        ns in 0usize..400,
        seed in any::<u64>(),
    ) {
        let w = workload(nr, ns);
        let arrivals = interleave(&w, seed);
        prop_assert_eq!(arrivals.len(), nr + ns);
        assert_is_stream_permutation(&w, &arrivals);
    }

    #[test]
    fn fluctuating_is_an_order_preserving_merge(
        nr in 0usize..400,
        ns in 0usize..400,
        k in 2u64..9,
    ) {
        let w = workload(nr, ns);
        let arrivals = fluctuating(&w, k, 0);
        prop_assert_eq!(arrivals.len(), nr + ns);
        assert_is_stream_permutation(&w, &arrivals);
    }

    #[test]
    fn fluctuating_ratio_stays_in_envelope(
        n in 200usize..2_000,
        k in 2u64..9,
    ) {
        // With equal stream sizes, once both relations have a few tuples
        // the running |R|/|S| ratio must stay within [1/(k+slack), k+slack]
        // until one stream drains.
        let w = workload(n, n);
        let arrivals = fluctuating(&w, k, 0);
        let trace = ratio_trace(&arrivals);
        let hi = k as f64 + 1.0;
        for (i, ratio) in trace.iter().enumerate().skip(2 * k as usize) {
            if i >= 2 * n - (n / 4) {
                break; // tail drain once a stream is exhausted
            }
            prop_assert!(
                *ratio <= hi && *ratio >= 1.0 / hi,
                "ratio {} out of envelope at position {}",
                ratio,
                i
            );
        }
    }
}
