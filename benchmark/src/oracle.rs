//! The correctness reference: a plain hash join (equi) and a sort-merge
//! join (band) over the arrival sequence, sharing no code with the
//! operator or its simulator. A tuple's identity is its arrival index —
//! the sequence number the session's source assigns.

use std::collections::HashMap;

use aoj_core::predicate::Predicate;
use aoj_core::tuple::Rel;
use aoj_datagen::queries::StreamItem;
use aoj_operators::report::MatchDigest;

/// Are arrivals `r_seq` and `s_seq` less than `max_gap` apart (always,
/// without a window)?
pub fn within_gap(max_gap: Option<u64>, r_seq: u64, s_seq: u64) -> bool {
    max_gap.is_none_or(|g| r_seq.abs_diff(s_seq) < g)
}

/// The digest of every pair `(r, s)` of `arrivals` that satisfies
/// `predicate` and, when `max_gap` is given, whose arrival indices are
/// less than `max_gap` apart (the pairs a count window of that size must
/// produce, whatever it does with older ones).
pub fn reference(
    arrivals: &[(Rel, StreamItem)],
    predicate: &Predicate,
    max_gap: Option<u64>,
) -> MatchDigest {
    let in_gap = |r: u64, s: u64| within_gap(max_gap, r, s);
    let mut digest = MatchDigest::default();
    match predicate {
        Predicate::Equi => {
            let mut r_by_key: HashMap<i64, Vec<u64>> = HashMap::new();
            for (seq, (rel, item)) in arrivals.iter().enumerate() {
                if *rel == Rel::R {
                    r_by_key.entry(item.key).or_default().push(seq as u64);
                }
            }
            for (seq, (rel, item)) in arrivals.iter().enumerate() {
                if *rel == Rel::S {
                    for &r in r_by_key.get(&item.key).map_or(&[][..], Vec::as_slice) {
                        if in_gap(r, seq as u64) {
                            digest.fold(r, seq as u64);
                        }
                    }
                }
            }
        }
        Predicate::Band { width } => {
            let side = |want: Rel| {
                let mut v: Vec<(i64, u64)> = arrivals
                    .iter()
                    .enumerate()
                    .filter(|(_, (rel, _))| *rel == want)
                    .map(|(seq, (_, item))| (item.key, seq as u64))
                    .collect();
                v.sort_unstable();
                v
            };
            let (r, s) = (side(Rel::R), side(Rel::S));
            // Merge: `lo` trails the first R key inside the band of the
            // current (ascending) S key.
            let mut lo = 0;
            for &(s_key, s_seq) in &s {
                while lo < r.len() && r[lo].0 < s_key - width {
                    lo += 1;
                }
                for &(r_key, r_seq) in &r[lo..] {
                    if r_key > s_key + width {
                        break;
                    }
                    if in_gap(r_seq, s_seq) {
                        digest.fold(r_seq, s_seq);
                    }
                }
            }
        }
        other => panic!("the benchmark has no reference join for {other:?}"),
    }
    digest
}

/// How far a delivered result is from the reference, in pairs: the
/// count difference, or 1 when the counts agree but the multisets do
/// not (the digest cannot say how many pairs differ — at least one).
pub fn distance(got: &MatchDigest, want: &MatchDigest) -> u64 {
    if got == want {
        0
    } else {
        got.count.abs_diff(want.count).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(key: i64) -> StreamItem {
        StreamItem {
            key,
            aux: 0,
            bytes: 64,
        }
    }

    /// Brute force over every pair: the yardstick for both joins.
    fn brute(
        arrivals: &[(Rel, StreamItem)],
        pred: impl Fn(i64, i64) -> bool,
        max_gap: Option<u64>,
    ) -> MatchDigest {
        let mut d = MatchDigest::default();
        for (i, (ri, a)) in arrivals.iter().enumerate() {
            for (j, (rj, b)) in arrivals.iter().enumerate() {
                let gap_ok = within_gap(max_gap, i as u64, j as u64);
                if *ri == Rel::R && *rj == Rel::S && pred(a.key, b.key) && gap_ok {
                    d.fold(i as u64, j as u64);
                }
            }
        }
        d
    }

    fn mixed(n: usize) -> Vec<(Rel, StreamItem)> {
        (0..n)
            .map(|i| {
                let rel = if i % 3 == 0 { Rel::R } else { Rel::S };
                (rel, item((i as i64 * 7919) % 23))
            })
            .collect()
    }

    #[test]
    fn hash_join_matches_brute_force() {
        let a = mixed(400);
        let want = brute(&a, |r, s| r == s, None);
        assert!(want.count > 0);
        assert_eq!(reference(&a, &Predicate::Equi, None), want);
    }

    #[test]
    fn sort_merge_matches_brute_force() {
        let a = mixed(400);
        let want = brute(&a, |r, s| (r - s).abs() <= 2, None);
        assert!(want.count > brute(&a, |r, s| r == s, None).count);
        assert_eq!(reference(&a, &Predicate::Band { width: 2 }, None), want);
    }

    #[test]
    fn gap_restricts_to_window_pairs() {
        let a = mixed(400);
        let want = brute(&a, |r, s| r == s, Some(50));
        let all = reference(&a, &Predicate::Equi, None);
        let near = reference(&a, &Predicate::Equi, Some(50));
        assert_eq!(near, want);
        assert!(near.count < all.count);
    }

    #[test]
    fn distance_is_zero_only_on_equal_digests() {
        let a = mixed(100);
        let d = reference(&a, &Predicate::Equi, None);
        assert_eq!(distance(&d, &d), 0);
        let mut fewer = d;
        fewer.count -= 3;
        assert_eq!(distance(&fewer, &d), 3);
        // Same count, different pairs: at least one is wrong.
        let mut swapped = MatchDigest::default();
        for i in 0..d.count {
            swapped.fold(i, i + 1_000_000);
        }
        assert_eq!(distance(&swapped, &d), 1);
    }
}
