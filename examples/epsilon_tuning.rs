//! Tuning the optimality/communication trade-off (Theorem 4.2).
//!
//! Alg. 2's thresholds are parameterised by ε: migrate when
//! `|ΔR| ≥ ε·|R|` or `|ΔS| ≥ ε·|S|`. Small ε tracks the optimal mapping
//! tightly (`ILF ≤ (3+2ε)/(3+ε) · ILF*`) but migrates often (amortised
//! cost `8/ε` per tuple); ε = 1 recovers the paper's headline 1.25 bound
//! with minimal traffic. This example sweeps ε over a drifting workload
//! and prints the measured trade-off next to the closed-form bounds.
//!
//! ```text
//! cargo run --release --example epsilon_tuning
//! ```

use adaptive_online_joins::core::decision::DecisionConfig;
use adaptive_online_joins::core::Predicate;
use adaptive_online_joins::datagen::queries::{StreamItem, Workload};
use adaptive_online_joins::datagen::stream::fluctuating;
use adaptive_online_joins::operators::{
    human_bytes, run, OperatorKind, SessionBuilder, SourcePacing,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(0xE5);
    let mut item = || StreamItem {
        key: rng.gen_range(0..500i64),
        aux: 0,
        bytes: 100,
    };
    let workload = Workload {
        name: "drift",
        predicate: Predicate::Equi,
        r_items: (0..8_000).map(|_| item()).collect(),
        s_items: (0..8_000).map(|_| item()).collect(),
    };
    // Fluctuating arrival ratio: the adversarial case for adaptivity.
    let arrivals = fluctuating(&workload, 4, 9);
    let total_bytes: u64 = arrivals.iter().map(|(_, i)| i.bytes as u64).sum();

    println!(
        "epsilon     bound (3+2e)/(3+e)   measured max ILF/ILF*   migrations   migration bytes"
    );
    println!("{}", "-".repeat(95));
    for (num, den) in [(1u32, 1u32), (1, 2), (1, 4), (1, 8)] {
        let mut cfg = SessionBuilder::new(16, OperatorKind::Dynamic)
            .with_predicate(workload.predicate.clone())
            .with_workload(workload.name);
        cfg.elasticity.decision = DecisionConfig {
            epsilon_num: num,
            epsilon_den: den,
            min_total: total_bytes / 100,
        };
        // Theorem 4.6 assumes flow-controlled arrivals; pace below capacity.
        cfg.source.pacing = SourcePacing::per_second(400_000);
        let report = run(&arrivals, &cfg);
        let warmup = arrivals.len() as u64 / 10;
        println!(
            "  {:>3}/{:<3}            {:>6.4}                  {:>6.4}       {:>6}        {:>10}",
            num,
            den,
            cfg.elasticity.decision.competitive_ratio(),
            report.max_competitive_ratio(warmup),
            report.migrations,
            human_bytes(report.migration_bytes),
        );
    }
    println!(
        "\nSmaller epsilon buys a tighter ILF at the price of more migration traffic —\n\
         the knob Theorem 4.2 formalises. The measured ratios sit under their bounds\n\
         (modulo the decentralised estimator's sampling noise)."
    );
}
