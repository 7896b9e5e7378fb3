//! Randomised sweep: the Dynamic operator must be exact across a grid of
//! cluster sizes, stream shapes, predicates and seeds — a broad net for
//! protocol corner cases the targeted tests might miss.

use aoj_core::predicate::Predicate;
use aoj_core::tuple::{Rel, Tuple};
use aoj_datagen::queries::{StreamItem, Workload};
use aoj_datagen::stream::{fluctuating, interleave, Arrivals};
use aoj_operators::{run, OperatorKind, SessionBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The session configuration for `kind` on `j` joiners over `w`.
fn config(j: u32, kind: OperatorKind, w: &Workload) -> SessionBuilder {
    SessionBuilder::new(j, kind)
        .with_predicate(w.predicate.clone())
        .with_workload(w.name)
}

fn reference_matches(arrivals: &Arrivals, predicate: &Predicate) -> u64 {
    let rs: Vec<&StreamItem> = arrivals
        .iter()
        .filter(|(rel, _)| *rel == Rel::R)
        .map(|(_, i)| i)
        .collect();
    let ss: Vec<&StreamItem> = arrivals
        .iter()
        .filter(|(rel, _)| *rel == Rel::S)
        .map(|(_, i)| i)
        .collect();
    let mut count = 0u64;
    for r in &rs {
        let rt = Tuple::new(Rel::R, 0, r.key, 0).with_aux(r.aux);
        for s in &ss {
            let st = Tuple::new(Rel::S, 1, s.key, 0).with_aux(s.aux);
            if predicate.matches(&rt, &st) {
                count += 1;
            }
        }
    }
    count
}

fn random_workload(seed: u64) -> (Workload, Arrivals) {
    let mut rng = StdRng::seed_from_u64(seed);
    let nr = rng.gen_range(50..800);
    let ns = rng.gen_range(50..2_000);
    let key_space = rng.gen_range(4..120i64);
    let mut item = |_: usize| StreamItem {
        key: rng.gen_range(0..key_space),
        aux: rng.gen_range(0..100),
        bytes: rng.gen_range(32..200),
    };
    let predicate = match seed % 3 {
        0 => Predicate::Equi,
        1 => Predicate::Band {
            width: 1 + (seed % 3) as i64,
        },
        _ => Predicate::NotEqual,
    };
    let w = Workload {
        name: "sweep",
        predicate,
        r_items: (0..nr).map(&mut item).collect(),
        s_items: (0..ns).map(&mut item).collect(),
    };
    let arrivals = if seed.is_multiple_of(2) {
        interleave(&w, seed ^ 0xF00)
    } else {
        fluctuating(&w, 2 + seed % 5, seed)
    };
    (w, arrivals)
}

#[test]
fn dynamic_is_exact_across_random_configurations() {
    for seed in 0..14u64 {
        let (w, arrivals) = random_workload(seed);
        // NotEqual on large streams is O(R*S) output: cap the reference
        // cost by skipping the heaviest combinations.
        if matches!(w.predicate, Predicate::NotEqual) && w.total() > 1_500 {
            continue;
        }
        let expected = reference_matches(&arrivals, &w.predicate);
        let j = [2u32, 4, 8, 16, 32][(seed % 5) as usize];
        let mut cfg = config(j, OperatorKind::Dynamic, &w);
        cfg.seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let report = run(&arrivals, &cfg);
        assert_eq!(
            report.matches, expected,
            "seed {seed} J={j} predicate {:?}",
            w.predicate
        );
    }
}

#[test]
fn blocking_mode_is_exact_across_random_configurations() {
    for seed in 0..8u64 {
        let (w, arrivals) = random_workload(seed);
        if matches!(w.predicate, Predicate::NotEqual) && w.total() > 1_500 {
            continue;
        }
        let expected = reference_matches(&arrivals, &w.predicate);
        let j = [4u32, 8, 16][(seed % 3) as usize];
        let mut cfg = config(j, OperatorKind::Dynamic, &w);
        cfg.elasticity.blocking_migrations = true;
        let report = run(&arrivals, &cfg);
        assert_eq!(report.matches, expected, "blocking seed {seed} J={j}");
    }
}
