//! Predicate-driven index selection: the choice the paper's joiners make
//! (§5: hashmaps for equi-joins, balanced trees for band joins, scans for
//! everything else).

use aoj_core::index::{JoinIndex, VecIndex};
use aoj_core::predicate::Predicate;

use crate::band::BandIndex;
use crate::symmetric_hash::SymmetricHashIndex;

/// The best [`JoinIndex`] implementation for `predicate`:
///
/// * [`Predicate::Equi`] → [`SymmetricHashIndex`] (O(1) probes),
/// * [`Predicate::Band`] → [`BandIndex`] (O(log n + band) probes),
/// * everything else → [`VecIndex`] (O(n) probes: no index can serve a
///   black-box `θ(r, s)`, the price of the predicate generality the
///   join-matrix model is built to support).
pub fn index_for(predicate: &Predicate) -> Box<dyn JoinIndex> {
    match predicate {
        Predicate::Equi => Box::new(SymmetricHashIndex::new()),
        Predicate::Band { width } => Box::new(BandIndex::new(*width)),
        other => Box::new(VecIndex::new(other.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoj_core::tuple::{Rel, Tuple};
    use std::sync::Arc;

    #[test]
    fn factory_picks_working_indexes() {
        for (pred, key_r, key_s, expect) in [
            (Predicate::Equi, 5i64, 5i64, 1u64),
            (Predicate::Equi, 5, 6, 0),
            (Predicate::Band { width: 2 }, 5, 7, 1),
            (Predicate::Band { width: 2 }, 5, 8, 0),
            (Predicate::NotEqual, 5, 6, 1),
            (Predicate::NotEqual, 5, 5, 0),
            (Predicate::LessThan, 5, 6, 1),
            (Predicate::CrossProduct, 1, 999, 1),
        ] {
            let mut idx = index_for(&pred);
            idx.insert(Tuple::new(Rel::R, 1, key_r, 0));
            let got = idx
                .probe(&Tuple::new(Rel::S, 2, key_s, 0), &mut |_| {})
                .matches;
            assert_eq!(got, expect, "predicate {pred:?} keys ({key_r},{key_s})");
        }
    }

    #[test]
    fn arbitrary_theta_predicate() {
        // Join on "same parity and r.aux < s.aux" — no index could serve it.
        let p = Predicate::Theta(Arc::new(|r: &Tuple, s: &Tuple| {
            (r.key % 2 == s.key % 2) && r.aux < s.aux
        }));
        let mut idx = index_for(&p);
        idx.insert(Tuple::new(Rel::R, 1, 2, 0).with_aux(5));
        idx.insert(Tuple::new(Rel::R, 2, 4, 0).with_aux(50));
        let probe = Tuple::new(Rel::S, 3, 8, 0).with_aux(10);
        let stats = idx.probe(&probe, &mut |_| {});
        assert_eq!(stats.matches, 1, "only the aux<10 tuple matches");
        assert_eq!(stats.candidates, 2, "the linear scan visits everything");
    }
}
