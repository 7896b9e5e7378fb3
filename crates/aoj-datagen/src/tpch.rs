//! TPC-H-shaped relations, at simulation scale.
//!
//! The paper evaluates on TPC-H databases of 8–640 GB generated with the
//! skewed generator of Chaudhuri & Narasayya. The operator never reads
//! attribute payloads (it is content-insensitive), so what this generator
//! must faithfully reproduce is the *shape* of the data:
//!
//! * relation cardinality ratios (lineitem ≈ 6M rows/GB, orders ≈ 1.5M,
//!   supplier ≈ 10K, nation 25, region 5),
//! * foreign-key frequency distributions — skew setting Z0–Z4 makes FK
//!   references Zipf-distributed, which is what breaks hash partitioning,
//! * selectivities of the filter predicates used by the five queries
//!   (`shipmode`, `shipinstruct`, `quantity`, `shippriority`, region).
//!
//! Row counts are parameterised by [`ScaledGb`], a "simulated gigabyte"
//! that maps the paper's dataset sizes onto tractable tuple counts while
//! preserving every ratio (the reduction factor is recorded in
//! EXPERIMENTS.md).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::{Skew, ZipfSampler};

/// TPC-H ship modes (7 values, uniformly distributed in dbgen).
pub(crate) const SHIP_MODES: usize = 7;
/// The `'TRUCK'` ship mode index used by BCI/BNCI.
pub(crate) const MODE_TRUCK: u8 = 0;
/// TPC-H ship instructions (4 values).
pub(crate) const SHIP_INSTRUCTS: usize = 4;
/// The `'NONE'` ship instruction index used by BNCI.
pub(crate) const INSTRUCT_NONE: u8 = 0;
/// Distinct ship dates (TPC-H spans ~2526 days).
pub(crate) const SHIP_DATE_DAYS: i64 = 2526;
/// TPC-H order priorities (5 values; Fluct-Join excludes 2 of them).
pub(crate) const PRIORITIES: usize = 5;

/// How many rows one *simulated* GB contains, per relation. The real
/// TPC-H ratios are preserved: lineitem : orders : supplier =
/// 6,000,000 : 1,500,000 : 10,000 per GB, divided by the global
/// `reduction` factor.
#[derive(Clone, Copy, Debug)]
pub struct ScaledGb {
    /// Simulated dataset size in GB (the paper's 8, 10, 20, … 640).
    pub gb: u32,
    /// Row-count reduction factor versus real TPC-H (e.g. 1000 ⇒ one
    /// simulated GB of lineitem is 6,000 rows).
    pub reduction: u32,
}

impl ScaledGb {
    /// A dataset of `gb` simulated gigabytes at the default 1000×
    /// reduction.
    pub fn new(gb: u32) -> ScaledGb {
        ScaledGb {
            gb,
            reduction: 1000,
        }
    }

    /// Lineitem row count.
    pub(crate) fn lineitem_rows(&self) -> u64 {
        6_000_000u64 * self.gb as u64 / self.reduction as u64
    }

    /// Orders row count.
    pub(crate) fn orders_rows(&self) -> u64 {
        1_500_000u64 * self.gb as u64 / self.reduction as u64
    }

    /// Supplier row count. Suppliers are reduced 10× less than the fact
    /// tables: with too few distinct join keys, *key granularity* (one hot
    /// key = 1/|S| of the stream) would dominate over the Zipf skew the
    /// experiments control, and even Z0 would look skewed to a hash
    /// partitioner.
    pub(crate) fn supplier_rows(&self) -> u64 {
        (10_000u64 * self.gb as u64 * 10 / self.reduction as u64).max(25)
    }
}

/// A lineitem row (only the attributes the five queries touch).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lineitem {
    /// FK to orders; Zipf-skewed under Z1–Z4.
    pub(crate) orderkey: i64,
    /// FK to supplier; Zipf-skewed under Z1–Z4.
    pub(crate) suppkey: i64,
    /// 1–50, uniform (TPC-H quantity).
    pub(crate) quantity: i32,
    /// Days since the TPC-H epoch, 0..[`SHIP_DATE_DAYS`].
    pub(crate) shipdate: i64,
    /// Ship mode index, uniform over [`SHIP_MODES`].
    pub(crate) shipmode: u8,
    /// Ship instruction index, uniform over [`SHIP_INSTRUCTS`].
    pub(crate) shipinstruct: u8,
}

/// An orders row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Order {
    /// Primary key.
    pub(crate) orderkey: i64,
    /// Priority index, uniform over [`PRIORITIES`].
    pub(crate) shippriority: u8,
}

/// A supplier row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Supplier {
    /// Primary key.
    pub(crate) suppkey: i64,
    /// FK to nation (25 nations).
    pub(crate) nationkey: i64,
}

/// A nation row (25 rows, 5 per region).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Nation {
    /// Primary key, 0..25.
    pub(crate) nationkey: i64,
    /// FK to region, 0..5.
    pub(crate) regionkey: i64,
}

/// The generated database.
pub struct TpchDb {
    /// Lineitem rows.
    pub(crate) lineitem: Vec<Lineitem>,
    /// Orders rows.
    pub(crate) orders: Vec<Order>,
    /// Supplier rows.
    pub(crate) supplier: Vec<Supplier>,
    /// Nation rows (always 25).
    pub(crate) nation: Vec<Nation>,
}

impl TpchDb {
    /// Generate a database of `size` at `skew`, deterministically from
    /// `seed`.
    pub fn generate(size: ScaledGb, skew: Skew, seed: u64) -> TpchDb {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_orders = size.orders_rows();
        let n_supp = size.supplier_rows();
        let n_line = size.lineitem_rows();

        let nation: Vec<Nation> = (0..25)
            .map(|k| Nation {
                nationkey: k,
                regionkey: k % 5,
            })
            .collect();

        let supplier: Vec<Supplier> = (1..=n_supp as i64)
            .map(|suppkey| Supplier {
                suppkey,
                nationkey: rng.gen_range(0..25),
            })
            .collect();

        let orders: Vec<Order> = (1..=n_orders as i64)
            .map(|orderkey| Order {
                orderkey,
                shippriority: rng.gen_range(0..PRIORITIES as u8),
            })
            .collect();

        // Skewed FK draws: the Chaudhuri–Narasayya generator makes the
        // *references* Zipfian — popular orders/suppliers receive
        // disproportionately many lineitems.
        let mut ok_sampler = ZipfSampler::with_skew(n_orders.max(1), skew, seed ^ 0x0D0E);
        let mut sk_sampler = ZipfSampler::with_skew(n_supp.max(1), skew, seed ^ 0x50FF);
        let lineitem: Vec<Lineitem> = (0..n_line)
            .map(|_| Lineitem {
                orderkey: ok_sampler.next() as i64,
                suppkey: sk_sampler.next() as i64,
                quantity: rng.gen_range(1..=50),
                shipdate: rng.gen_range(0..SHIP_DATE_DAYS),
                shipmode: rng.gen_range(0..SHIP_MODES as u8),
                shipinstruct: rng.gen_range(0..SHIP_INSTRUCTS as u8),
            })
            .collect();

        TpchDb {
            lineitem,
            orders,
            supplier,
            nation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_counts_preserve_tpch_ratios() {
        let s = ScaledGb::new(10);
        assert_eq!(s.lineitem_rows(), 60_000);
        assert_eq!(s.orders_rows(), 15_000);
        // Suppliers are reduced 10x less to keep the key domain smooth.
        assert_eq!(s.supplier_rows(), 1_000);
        // lineitem : orders = 4 : 1 as in TPC-H.
        assert_eq!(s.lineitem_rows() / s.orders_rows(), 4);
    }

    #[test]
    fn nations_and_regions_are_fixed() {
        let db = TpchDb::generate(ScaledGb::new(1), Skew::Z0, 1);
        assert_eq!(db.nation.len(), 25);
        for n in &db.nation {
            assert!((0..5).contains(&n.regionkey));
        }
        // Exactly 5 nations per region.
        for region in 0..5 {
            assert_eq!(
                db.nation.iter().filter(|n| n.regionkey == region).count(),
                5
            );
        }
    }

    #[test]
    fn skew_concentrates_fk_references() {
        let size = ScaledGb::new(10);
        let top_share = |skew: Skew| -> f64 {
            let db = TpchDb::generate(size, skew, 33);
            let n_supp = db.supplier.len();
            let mut counts = vec![0u64; n_supp + 1];
            for l in &db.lineitem {
                counts[l.suppkey as usize] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let top = counts.iter().take(n_supp / 100 + 1).sum::<u64>();
            top as f64 / db.lineitem.len() as f64
        };
        let uniform = top_share(Skew::Z0);
        let heavy = top_share(Skew::Z4);
        assert!(
            heavy > uniform * 5.0,
            "Z4 top-1% share {heavy:.3} should dwarf Z0 {uniform:.3}"
        );
    }

    #[test]
    fn filters_have_expected_selectivities() {
        let db = TpchDb::generate(ScaledGb::new(10), Skew::Z0, 5);
        let n = db.lineitem.len() as f64;
        let truck = db
            .lineitem
            .iter()
            .filter(|l| l.shipmode == MODE_TRUCK)
            .count() as f64;
        assert!((truck / n - 1.0 / 7.0).abs() < 0.02);
        let qty45 = db.lineitem.iter().filter(|l| l.quantity > 45).count() as f64;
        assert!((qty45 / n - 0.1).abs() < 0.02);
        let none = db
            .lineitem
            .iter()
            .filter(|l| l.shipinstruct == INSTRUCT_NONE)
            .count() as f64;
        assert!((none / n - 0.25).abs() < 0.02);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchDb::generate(ScaledGb::new(2), Skew::Z2, 99);
        let b = TpchDb::generate(ScaledGb::new(2), Skew::Z2, 99);
        assert_eq!(a.lineitem.len(), b.lineitem.len());
        for (x, y) in a.lineitem.iter().zip(&b.lineitem) {
            assert_eq!(x.orderkey, y.orderkey);
            assert_eq!(x.suppkey, y.suppkey);
            assert_eq!(x.shipdate, y.shipdate);
        }
    }

    #[test]
    fn fk_domains_are_valid() {
        let db = TpchDb::generate(ScaledGb::new(4), Skew::Z3, 11);
        let n_orders = db.orders.len() as i64;
        let n_supp = db.supplier.len() as i64;
        for l in db.lineitem.iter().take(5000) {
            assert!((1..=n_orders).contains(&l.orderkey));
            assert!((1..=n_supp).contains(&l.suppkey));
            assert!((0..SHIP_DATE_DAYS).contains(&l.shipdate));
        }
    }
}
