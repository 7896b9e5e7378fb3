//! Property tests: every optimised index is observationally equivalent to
//! the reference `VecIndex` under random interleavings of inserts, probes,
//! filtered probes, extracts and drains.

use aoj_core::index::{JoinIndex, VecIndex};
use aoj_core::predicate::Predicate;
use aoj_core::tuple::{Rel, Tuple};
use aoj_joinalg::{index_for, BandIndex, SymmetricHashIndex};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert { rel: bool, key: i64, seq: u64 },
    Probe { rel: bool, key: i64 },
    Extract { key_mod: i64 },
    DrainCheck,
}

fn op_strategy(key_space: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<bool>(), 0..key_space, any::<u64>())
            .prop_map(|(rel, key, seq)| Op::Insert { rel, key, seq }),
        3 => (any::<bool>(), 0..key_space).prop_map(|(rel, key)| Op::Probe { rel, key }),
        1 => (1..5i64).prop_map(|key_mod| Op::Extract { key_mod }),
        1 => Just(Op::DrainCheck),
    ]
}

fn tuple(rel: bool, key: i64, seq: u64) -> Tuple {
    let rel = if rel { Rel::R } else { Rel::S };
    Tuple::new(rel, seq, key, seq.wrapping_mul(0x9E3779B97F4A7C15))
}

/// Run the op sequence against both indexes, asserting identical
/// observable behaviour at every step.
fn check_equivalence(mut candidate: Box<dyn JoinIndex>, predicate: Predicate, ops: Vec<Op>) {
    let mut reference = VecIndex::new(predicate);
    let mut seq = 0u64;
    for op in ops {
        match op {
            Op::Insert { rel, key, seq: s } => {
                let t = tuple(rel, key, s.wrapping_add(seq));
                seq += 1;
                candidate.insert(t);
                reference.insert(t);
            }
            Op::Probe { rel, key } => {
                let probe = tuple(rel, key, u64::MAX - seq);
                let mut got: Vec<u64> = Vec::new();
                let mut want: Vec<u64> = Vec::new();
                let c = candidate.probe(&probe, &mut |t| got.push(t.seq));
                let w = reference.probe(&probe, &mut |t| want.push(t.seq));
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "probe partners diverge");
                assert_eq!(c.matches, w.matches, "match counts diverge");
                // Filtered probe must agree too.
                let mut fgot = 0u64;
                let mut fwant = 0u64;
                candidate.probe_filtered(&probe, &mut |t| t.seq % 2 == 0, &mut |_| fgot += 1);
                reference.probe_filtered(&probe, &mut |t| t.seq % 2 == 0, &mut |_| fwant += 1);
                assert_eq!(fgot, fwant, "filtered probes diverge");
            }
            Op::Extract { key_mod } => {
                let mut got: Vec<(u64, usize)> = candidate
                    .extract(&mut |t| t.key % key_mod == 0)
                    .iter()
                    .map(|t| (t.seq, t.rel.index()))
                    .collect();
                let mut want: Vec<(u64, usize)> = reference
                    .extract(&mut |t| t.key % key_mod == 0)
                    .iter()
                    .map(|t| (t.seq, t.rel.index()))
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "extract diverges");
            }
            Op::DrainCheck => {
                assert_eq!(candidate.len(), reference.len());
                assert_eq!(candidate.len_rel(Rel::R), reference.len_rel(Rel::R));
                assert_eq!(candidate.len_rel(Rel::S), reference.len_rel(Rel::S));
                assert_eq!(candidate.bytes(), reference.bytes());
            }
        }
    }
    // Final state equivalence.
    let mut got: Vec<(u64, usize)> = candidate
        .drain()
        .iter()
        .map(|t| (t.seq, t.rel.index()))
        .collect();
    let mut want: Vec<(u64, usize)> = reference
        .drain()
        .iter()
        .map(|t| (t.seq, t.rel.index()))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "final drain diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn symmetric_hash_equals_reference(ops in prop::collection::vec(op_strategy(12), 0..120)) {
        check_equivalence(Box::new(SymmetricHashIndex::new()), Predicate::Equi, ops);
    }

    #[test]
    fn band_index_equals_reference(
        ops in prop::collection::vec(op_strategy(20), 0..120),
        width in 0..4i64,
    ) {
        check_equivalence(Box::new(BandIndex::new(width)), Predicate::Band { width }, ops);
    }

    #[test]
    fn factory_indexes_equal_reference(ops in prop::collection::vec(op_strategy(10), 0..100)) {
        for pred in [Predicate::Equi, Predicate::Band { width: 2 }, Predicate::LessThan] {
            check_equivalence(index_for(&pred), pred.clone(), ops.clone());
        }
    }
}
