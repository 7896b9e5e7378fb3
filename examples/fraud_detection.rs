//! Fraud-detection style self-join — another §1 application family
//! ("fraud-detection mining algorithms … perform joins on large volumes
//! of data with complex predicates; require operating in real-time; and
//! maintain large state").
//!
//! Transactions stream in; an alert fires when two transactions from the
//! same account occur close together in time but claim far-apart locations
//! (an impossible-travel heuristic). That is a theta-join with a *conjunctive
//! predicate over both tuples* — no hash or tree index can serve it, which
//! is exactly the general theta-join case the join-matrix model covers.
//! Transaction volume is also heavily skewed per account (a few bots hammer
//! the system), which is what breaks content-sensitive partitioning.
//!
//! ```text
//! cargo run --release --example fraud_detection
//! ```

use std::sync::Arc;

use adaptive_online_joins::core::{Predicate, Tuple};
use adaptive_online_joins::datagen::queries::{StreamItem, Workload};
use adaptive_online_joins::datagen::stream::interleave;
use adaptive_online_joins::datagen::zipf::ZipfSampler;
use adaptive_online_joins::operators::{run, OperatorKind, SessionBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(0xF4A0D);
    // Account popularity is Zipf-skewed: a handful of hot accounts (bots)
    // produce most of the traffic.
    let mut accounts = ZipfSampler::new(2_000, 0.9, 17);

    // Each transaction: key = account id, aux = packed (minute, location).
    let txn = |rng: &mut StdRng, accounts: &mut ZipfSampler| {
        let minute = rng.gen_range(0..1_000i32);
        let location = rng.gen_range(0..500i32);
        StreamItem {
            key: accounts.next() as i64,
            aux: minute * 1000 + location,
            bytes: 120,
        }
    };

    // Self-join: R = incoming transactions, S = the historical stream.
    let r_items: Vec<StreamItem> = (0..3_000).map(|_| txn(&mut rng, &mut accounts)).collect();
    let s_items: Vec<StreamItem> = (0..12_000).map(|_| txn(&mut rng, &mut accounts)).collect();

    // Impossible travel: same account, within 5 minutes, locations more
    // than 300 units apart. An arbitrary theta predicate over both tuples.
    let predicate = Predicate::Theta(Arc::new(|r: &Tuple, s: &Tuple| {
        if r.key != s.key {
            return false;
        }
        let (rm, rl) = (r.aux / 1000, r.aux % 1000);
        let (sm, sl) = (s.aux / 1000, s.aux % 1000);
        (rm - sm).abs() <= 5 && (rl - sl).abs() > 300
    }));

    let workload = Workload {
        name: "fraud",
        predicate,
        r_items,
        s_items,
    };
    let arrivals = interleave(&workload, 3);

    println!("impossible-travel self-join over skewed account traffic (theta predicate)\n");
    let mut alerts = Vec::new();
    for kind in [
        OperatorKind::Dynamic,
        OperatorKind::StaticMid,
        OperatorKind::StaticOpt,
    ] {
        let cfg = SessionBuilder::new(8, kind)
            .with_predicate(workload.predicate.clone())
            .with_workload(workload.name);
        let report = run(&arrivals, &cfg);
        println!("{}", report.summary());
        alerts.push(report.matches);
    }
    assert!(
        alerts.windows(2).all(|w| w[0] == w[1]),
        "operators disagree"
    );
    println!(
        "\n{} fraud alerts found by every operator. The routing never looked at\n\
         the predicate: content-insensitive partitioning makes the Zipf-skewed\n\
         account distribution irrelevant to load balance.",
        alerts[0]
    );
}
