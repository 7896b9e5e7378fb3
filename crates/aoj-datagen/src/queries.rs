//! The five evaluation queries (Table 1 + §5.4), materialised as operator
//! input streams.
//!
//! Following the paper's methodology, "all intermediate results are
//! materialized before online processing": EQ5/EQ7 pre-join the small
//! dimension chain (region ⋈ nation ⋈ supplier) and stream the result
//! against lineitem, which is where the expensive, skew-sensitive join
//! happens. Filters (`shipmode`, `quantity`, …) are selections applied
//! while materialising the streams; the *join predicate* is what the
//! operator evaluates.

use aoj_core::predicate::Predicate;
use aoj_core::tuple::Rel;

use crate::tpch::{TpchDb, INSTRUCT_NONE, MODE_TRUCK};

/// One stream element, before the operator assigns sequence numbers and
/// routing tickets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamItem {
    /// Join key.
    pub key: i64,
    /// Secondary attribute available to theta predicates.
    pub aux: i32,
    /// Simulated payload bytes.
    pub bytes: u32,
}

/// A two-stream join workload: the operator's entire input.
pub struct Workload {
    /// Query name as used in the paper's tables/figures.
    pub name: &'static str,
    /// The join predicate the operator evaluates.
    pub predicate: Predicate,
    /// R-stream items (the paper's smaller/left input).
    pub r_items: Vec<StreamItem>,
    /// S-stream items.
    pub s_items: Vec<StreamItem>,
}

impl Workload {
    /// Total input tuples.
    pub fn total(&self) -> usize {
        self.r_items.len() + self.s_items.len()
    }
}

/// Bytes per materialised dimension-side tuple (keys + a few attributes).
const DIM_TUPLE_BYTES: u32 = 96;
/// Bytes per lineitem tuple (the paper's fact rows are wider).
const LINEITEM_TUPLE_BYTES: u32 = 144;
/// Bytes per orders tuple.
const ORDER_TUPLE_BYTES: u32 = 112;

/// EQ5 — the most expensive join of TPC-H Q5: `(R ⋈ N ⋈ S) ⋈ L` on
/// `suppkey`. The dimension side keeps suppliers in one region (1/5 of
/// nations).
pub fn eq5(db: &TpchDb) -> Workload {
    let region = 0i64;
    let nations_in_region: Vec<i64> = db
        .nation
        .iter()
        .filter(|n| n.regionkey == region)
        .map(|n| n.nationkey)
        .collect();
    let r_items = db
        .supplier
        .iter()
        .filter(|s| nations_in_region.contains(&s.nationkey))
        .map(|s| StreamItem {
            key: s.suppkey,
            aux: s.nationkey as i32,
            bytes: DIM_TUPLE_BYTES,
        })
        .collect();
    let s_items = db
        .lineitem
        .iter()
        .map(|l| StreamItem {
            key: l.suppkey,
            aux: l.quantity,
            bytes: LINEITEM_TUPLE_BYTES,
        })
        .collect();
    Workload {
        name: "EQ5",
        predicate: Predicate::Equi,
        r_items,
        s_items,
    }
}

/// EQ7 — the most expensive join of TPC-H Q7: `(S ⋈ N) ⋈ L` on `suppkey`,
/// with the Q7 nation-pair filter on the supplier side (2 of 25 nations).
pub fn eq7(db: &TpchDb) -> Workload {
    let r_items = db
        .supplier
        .iter()
        .filter(|s| s.nationkey == 0 || s.nationkey == 1)
        .map(|s| StreamItem {
            key: s.suppkey,
            aux: s.nationkey as i32,
            bytes: DIM_TUPLE_BYTES,
        })
        .collect();
    let s_items = db
        .lineitem
        .iter()
        .map(|l| StreamItem {
            key: l.suppkey,
            aux: l.quantity,
            bytes: LINEITEM_TUPLE_BYTES,
        })
        .collect();
    Workload {
        name: "EQ7",
        predicate: Predicate::Equi,
        r_items,
        s_items,
    }
}

/// BCI — the computation-intensive band join of Table 1:
/// `|L1.shipdate − L2.shipdate| ≤ 1`, `L1.shipmode = 'TRUCK'`,
/// `L2.shipmode ≠ 'TRUCK'`, `L1.quantity > 45`. Output is orders of
/// magnitude larger than the input (keys concentrate on ~2500 dates).
pub fn bci(db: &TpchDb) -> Workload {
    let r_items = db
        .lineitem
        .iter()
        .filter(|l| l.shipmode == MODE_TRUCK && l.quantity > 45)
        .map(|l| StreamItem {
            key: l.shipdate,
            aux: l.quantity,
            bytes: LINEITEM_TUPLE_BYTES,
        })
        .collect();
    let s_items = db
        .lineitem
        .iter()
        .filter(|l| l.shipmode != MODE_TRUCK)
        .map(|l| StreamItem {
            key: l.shipdate,
            aux: l.quantity,
            bytes: LINEITEM_TUPLE_BYTES,
        })
        .collect();
    Workload {
        name: "BCI",
        predicate: Predicate::Band { width: 1 },
        r_items,
        s_items,
    }
}

/// BNCI — the non-computation-intensive band join of Table 1:
/// `|L1.orderkey − L2.orderkey| ≤ 1`, `L1.shipmode = 'TRUCK'`,
/// `L2.shipinstruct = 'NONE'`, `L1.quantity > 48`. Keys spread over the
/// whole orderkey domain, so output is small.
pub fn bnci(db: &TpchDb) -> Workload {
    let r_items = db
        .lineitem
        .iter()
        .filter(|l| l.shipmode == MODE_TRUCK && l.quantity > 48)
        .map(|l| StreamItem {
            key: l.orderkey,
            aux: l.quantity,
            bytes: LINEITEM_TUPLE_BYTES,
        })
        .collect();
    let s_items = db
        .lineitem
        .iter()
        .filter(|l| l.shipinstruct == INSTRUCT_NONE)
        .map(|l| StreamItem {
            key: l.orderkey,
            aux: l.quantity,
            bytes: LINEITEM_TUPLE_BYTES,
        })
        .collect();
    Workload {
        name: "BNCI",
        predicate: Predicate::Band { width: 1 },
        r_items,
        s_items,
    }
}

/// Fluct-Join (§5.4): `O ⋈ L` on `orderkey` with the `shippriority`
/// exclusions (3 of 5 priorities pass). Streamed with fluctuating arrival
/// ratios by [`crate::stream::fluctuating`].
pub fn fluct_join(db: &TpchDb) -> Workload {
    let r_items = db
        .orders
        .iter()
        .filter(|o| o.shippriority != 1 && o.shippriority != 4)
        .map(|o| StreamItem {
            key: o.orderkey,
            aux: o.shippriority as i32,
            bytes: ORDER_TUPLE_BYTES,
        })
        .collect();
    let s_items = db
        .lineitem
        .iter()
        .map(|l| StreamItem {
            key: l.orderkey,
            aux: l.quantity,
            bytes: LINEITEM_TUPLE_BYTES,
        })
        .collect();
    Workload {
        name: "Fluct-Join",
        predicate: Predicate::Equi,
        r_items,
        s_items,
    }
}

/// Reference output cardinality of a workload (nested loop over the
/// streams) — used by correctness tests at small scale.
pub fn reference_match_count(w: &Workload) -> u64 {
    use aoj_core::tuple::Tuple;
    let mut count = 0u64;
    for (i, r) in w.r_items.iter().enumerate() {
        let rt = Tuple::new(Rel::R, i as u64, r.key, 0).with_aux(r.aux);
        for (j, s) in w.s_items.iter().enumerate() {
            let st = Tuple::new(Rel::S, j as u64, s.key, 0).with_aux(s.aux);
            if w.predicate.matches(&rt, &st) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::ScaledGb;
    use crate::zipf::Skew;

    // The oracle of the lopsidedness test.
    impl Workload {
        /// Cardinality ratio `|S| / |R|` (∞-safe).
        fn ratio(&self) -> f64 {
            if self.r_items.is_empty() {
                f64::INFINITY
            } else {
                self.s_items.len() as f64 / self.r_items.len() as f64
            }
        }
    }

    fn db() -> TpchDb {
        // 5 simulated GB keeps the O(|R|x|S|) reference joins quick.
        TpchDb::generate(ScaledGb::new(5), Skew::Z0, 7)
    }

    #[test]
    fn eq5_dimension_side_is_small() {
        let db = db();
        let w = eq5(&db);
        // One region of five: ~20% of suppliers.
        let frac = w.r_items.len() as f64 / db.supplier.len() as f64;
        assert!((frac - 0.2).abs() < 0.1, "region filter keeps {frac}");
        assert_eq!(w.s_items.len(), db.lineitem.len());
        assert!(w.ratio() > 100.0, "EQ5 must be extremely lopsided");
    }

    #[test]
    fn eq7_keeps_two_nations() {
        let db = db();
        let w = eq7(&db);
        let frac = w.r_items.len() as f64 / db.supplier.len() as f64;
        assert!((frac - 2.0 / 25.0).abs() < 0.08, "nation pair keeps {frac}");
    }

    #[test]
    fn bci_is_computation_intensive() {
        let db = db();
        let w = bci(&db);
        // R: TRUCK (1/7) x qty>45 (~1/10); S: not TRUCK (6/7).
        assert!(w.r_items.len() < db.lineitem.len() / 40);
        assert!(w.s_items.len() > db.lineitem.len() / 2);
        // Selectivity: output per R tuple ≈ |S| * 3/2526 — dozens of
        // matches per probe makes it computation-heavy.
        let matches = reference_match_count(&w);
        assert!(
            matches as f64 / w.r_items.len() as f64 > 10.0,
            "BCI should emit many matches per R tuple"
        );
    }

    #[test]
    fn bnci_is_low_selectivity() {
        let db = db();
        let w = bnci(&db);
        let matches = reference_match_count(&w);
        // Output comparable to or smaller than input (the paper: an order
        // of magnitude smaller than input).
        assert!(
            (matches as f64) < w.total() as f64,
            "BNCI output ({matches}) must stay below input ({})",
            w.total()
        );
    }

    #[test]
    fn bci_output_dwarfs_bnci_output() {
        let db = db();
        let ci = reference_match_count(&bci(&db));
        let nci = reference_match_count(&bnci(&db));
        // At full TPC-H scale the paper reports a ~4-orders-of-magnitude
        // gap; output cardinality scales with |R|x|S|, so at simulation
        // scale the gap narrows — but BCI must remain far heavier.
        assert!(ci > nci * 20, "BCI ({ci}) must dwarf BNCI ({nci})");
    }

    #[test]
    fn fluct_join_priority_filter() {
        let db = db();
        let w = fluct_join(&db);
        let frac = w.r_items.len() as f64 / db.orders.len() as f64;
        assert!((frac - 0.6).abs() < 0.05, "3 of 5 priorities pass: {frac}");
        assert_eq!(w.s_items.len(), db.lineitem.len());
    }

    #[test]
    fn equi_join_fk_integrity() {
        // Every lineitem references an existing order, so Fluct-Join's
        // output equals the lineitems whose order passed the filter.
        let db = db();
        let w = fluct_join(&db);
        let keep: std::collections::HashSet<i64> = w.r_items.iter().map(|o| o.key).collect();
        let expected: u64 = w.s_items.iter().filter(|l| keep.contains(&l.key)).count() as u64;
        assert_eq!(reference_match_count(&w), expected);
    }
}
