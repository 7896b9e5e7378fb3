//! Join predicates.
//!
//! The join-matrix model evaluates *arbitrary* predicates (§3.1): the
//! operator's routing never inspects them, so any `θ(r, s)` works. The
//! enum below covers the paper's workloads — equi-joins (EQ5, EQ7,
//! Fluct-Join), band joins (BCI, BNCI) — plus the inequality join of
//! Fig. 1a and a general closure escape hatch.

use std::fmt;
use std::sync::Arc;

use crate::tuple::{Rel, Tuple};

/// A join predicate `θ(r, s)` evaluated over the join keys (and, for
/// [`Predicate::Theta`], whole tuples) of an `R` tuple and an `S` tuple.
#[derive(Clone)]
pub enum Predicate {
    /// `r.key = s.key` — equi-join.
    Equi,
    /// `|r.key − s.key| ≤ width` — band join (BCI uses width 1 on
    /// `shipdate`, BNCI width 1 on `orderkey`).
    Band {
        /// Half-width of the band, inclusive.
        width: i64,
    },
    /// `r.key ≠ s.key` — the inequality predicate of Fig. 1a.
    NotEqual,
    /// `r.key < s.key`.
    LessThan,
    /// Always true — the full cross product (the worst case every mapping
    /// must still cover).
    CrossProduct,
    /// An arbitrary theta predicate over both tuples.
    #[allow(clippy::type_complexity)]
    Theta(Arc<dyn Fn(&Tuple, &Tuple) -> bool + Send + Sync>),
}

impl Predicate {
    /// Evaluate the predicate. `r` must come from stream R and `s` from S;
    /// callers mixing sides get a debug assertion.
    #[inline]
    pub fn matches(&self, r: &Tuple, s: &Tuple) -> bool {
        debug_assert_eq!(r.rel, Rel::R);
        debug_assert_eq!(s.rel, Rel::S);
        match self {
            Predicate::Equi => r.key == s.key,
            Predicate::Band { width } => {
                u64::try_from(*width).is_ok_and(|w| r.key.abs_diff(s.key) <= w)
            }
            Predicate::NotEqual => r.key != s.key,
            Predicate::LessThan => r.key < s.key,
            Predicate::CrossProduct => true,
            Predicate::Theta(f) => f(r, s),
        }
    }

    /// Evaluate against a stored tuple regardless of which side is which.
    #[inline]
    pub(crate) fn matches_pair(&self, a: &Tuple, b: &Tuple) -> bool {
        match (a.rel, b.rel) {
            (Rel::R, Rel::S) => self.matches(a, b),
            (Rel::S, Rel::R) => self.matches(b, a),
            _ => false, // same-relation pairs never join
        }
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Equi => write!(f, "Equi"),
            Predicate::Band { width } => write!(f, "Band(±{width})"),
            Predicate::NotEqual => write!(f, "NotEqual"),
            Predicate::LessThan => write!(f, "LessThan"),
            Predicate::CrossProduct => write!(f, "CrossProduct"),
            Predicate::Theta(_) => write!(f, "Theta(<closure>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(key: i64) -> Tuple {
        Tuple::new(Rel::R, 0, key, 0)
    }
    fn s(key: i64) -> Tuple {
        Tuple::new(Rel::S, 1, key, 0)
    }

    #[test]
    fn equi() {
        assert!(Predicate::Equi.matches(&r(5), &s(5)));
        assert!(!Predicate::Equi.matches(&r(5), &s(6)));
    }

    #[test]
    fn band_is_inclusive_and_symmetric() {
        let p = Predicate::Band { width: 1 };
        assert!(p.matches(&r(10), &s(11)));
        assert!(p.matches(&r(11), &s(10)));
        assert!(p.matches(&r(10), &s(10)));
        assert!(!p.matches(&r(10), &s(12)));
        // The key distance cannot overflow at the extremes.
        assert!(!p.matches(&r(i64::MIN), &s(i64::MAX)));
        assert!(p.matches(&r(i64::MAX), &s(i64::MAX - 1)));
    }

    #[test]
    fn not_equal_and_less_than() {
        assert!(Predicate::NotEqual.matches(&r(1), &s(2)));
        assert!(!Predicate::NotEqual.matches(&r(2), &s(2)));
        assert!(Predicate::LessThan.matches(&r(1), &s(2)));
        assert!(!Predicate::LessThan.matches(&r(2), &s(2)));
    }

    #[test]
    fn cross_product_accepts_everything() {
        assert!(Predicate::CrossProduct.matches(&r(i64::MIN), &s(i64::MAX)));
    }

    #[test]
    fn theta_closure_sees_aux() {
        let p = Predicate::Theta(Arc::new(|r: &Tuple, s: &Tuple| {
            r.key == s.key && r.aux > s.aux
        }));
        assert!(p.matches(&r(3).with_aux(9), &s(3).with_aux(1)));
        assert!(!p.matches(&r(3).with_aux(0), &s(3).with_aux(1)));
    }

    #[test]
    fn matches_pair_reorders_sides() {
        let p = Predicate::LessThan;
        assert!(p.matches_pair(&r(1), &s(2)));
        assert!(p.matches_pair(&s(2), &r(1)));
        assert!(!p.matches_pair(&r(1), &r(1).with_aux(1)));
    }
}
