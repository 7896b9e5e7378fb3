//! Property tests: every optimised index is observationally equivalent to
//! the reference `VecIndex` under random interleavings of inserts, probes,
//! filtered probes, batch probes, stream batches, seals, evictions,
//! extracts, iteration and drains.

use aoj_core::index::{JoinIndex, ProbeStats, VecIndex};
use aoj_core::predicate::Predicate;
use aoj_core::tuple::{Rel, Tuple};
use aoj_joinalg::{index_for, BandIndex, SymmetricHashIndex};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    Insert {
        rel: bool,
        key: i64,
        seq: u64,
    },
    Probe {
        rel: bool,
        key: i64,
    },
    /// Probe-then-insert of a whole batch through `stream_batch`.
    StreamBatch(Vec<(bool, i64)>),
    /// Probe-only batch through `probe_batch`.
    ProbeBatch(Vec<(bool, i64)>),
    Seal,
    Evict {
        bound: u64,
    },
    Extract {
        key_mod: i64,
    },
    ForEachCheck,
    DrainCheck,
}

/// Keys of three kinds: a small space whose key-sides cross the hash
/// index's chain-to-run promotion (and shrink back under extracts), a
/// wide one, and the extremes plus negatives.
fn key_strategy(key_space: i64) -> impl Strategy<Value = i64> {
    prop_oneof![
        6 => 0..key_space,
        2 => -1_000_000i64..1_000_000,
        1 => prop_oneof![
            1 => Just(i64::MIN),
            1 => Just(i64::MAX),
            2 => -3i64..0,
        ],
    ]
}

/// Batches of up to 64 tuples, the data plane's default batch. Half draw
/// each tuple's relation evenly; the other half skew it about 1:10, like
/// the benchmark's band stream, so long single-relation runs occur.
fn batch_strategy(key_space: i64) -> impl Strategy<Value = Vec<(bool, i64)>> {
    let skewed_rel = prop_oneof![1 => Just(true), 10 => Just(false)];
    prop_oneof![
        prop::collection::vec((any::<bool>(), key_strategy(key_space)), 1..65),
        prop::collection::vec((skewed_rel, key_strategy(key_space)), 1..65),
    ]
}

fn op_strategy(key_space: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<bool>(), key_strategy(key_space), any::<u64>())
            .prop_map(|(rel, key, seq)| Op::Insert { rel, key, seq }),
        3 => (any::<bool>(), key_strategy(key_space)).prop_map(|(rel, key)| Op::Probe { rel, key }),
        2 => batch_strategy(key_space).prop_map(Op::StreamBatch),
        1 => batch_strategy(key_space).prop_map(Op::ProbeBatch),
        1 => Just(Op::Seal),
        1 => any::<u64>().prop_map(|bound| Op::Evict { bound }),
        1 => (1..5i64).prop_map(|key_mod| Op::Extract { key_mod }),
        1 => Just(Op::ForEachCheck),
        1 => Just(Op::DrainCheck),
    ]
}

fn tuple(rel: bool, key: i64, seq: u64) -> Tuple {
    let rel = if rel { Rel::R } else { Rel::S };
    Tuple::new(rel, seq, key, seq.wrapping_mul(0x9E3779B97F4A7C15))
}

fn sorted_ids(tuples: impl IntoIterator<Item = Tuple>) -> Vec<(u64, usize)> {
    let mut ids: Vec<(u64, usize)> = tuples.into_iter().map(|t| (t.seq, t.rel.index())).collect();
    ids.sort_unstable();
    ids
}

fn stored_ids(idx: &dyn JoinIndex) -> Vec<(u64, usize)> {
    sorted_ids(idx.snapshot())
}

/// Per-probe match sets, each sorted.
fn sorted_sets(mut sets: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    for set in &mut sets {
        set.sort_unstable();
    }
    sets
}

/// Run the op sequence against a candidate built by `make`, a twin of it
/// that takes every batch op one tuple at a time, and the reference,
/// asserting identical observable behaviour at every step: match sets
/// and match counts against the reference, full [`ProbeStats`] (scan
/// counts included) against the twin.
fn check_equivalence(make: &dyn Fn() -> Box<dyn JoinIndex>, predicate: Predicate, ops: Vec<Op>) {
    let mut candidate = make();
    let mut twin = make();
    let mut reference = VecIndex::new(predicate);
    let mut seq = 0u64;
    let mut next_batch = |items: &[(bool, i64)]| -> Vec<Tuple> {
        items
            .iter()
            .map(|&(rel, key)| {
                seq += 1;
                tuple(rel, key, 1 << 40 | seq)
            })
            .collect()
    };
    for op in ops {
        match op {
            Op::Insert { rel, key, seq: s } => {
                let t = tuple(rel, key, s >> 1);
                candidate.insert(t);
                twin.insert(t);
                reference.insert(t);
            }
            Op::Probe { rel, key } => {
                let probe = tuple(rel, key, u64::MAX);
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
            Op::StreamBatch(items) => {
                let batch = next_batch(&items);
                let mut got = vec![Vec::new(); batch.len()];
                let mut run_total = 0u64;
                let stats = candidate.stream_batch(&batch, &mut |i, run| {
                    assert!(!run.is_empty(), "stream batch handed over an empty run");
                    run_total += run.len() as u64;
                    got[i].extend(run.iter().map(|m| m.seq));
                });
                assert_eq!(
                    run_total, stats.matches,
                    "stream batch run lengths diverge from its match count"
                );
                let mut want = vec![Vec::new(); batch.len()];
                let mut want_matches = 0;
                let mut twin_stats = ProbeStats::default();
                for (i, t) in batch.iter().enumerate() {
                    want_matches += reference.probe(t, &mut |m| want[i].push(m.seq)).matches;
                    reference.insert(*t);
                    twin_stats += twin.probe(t, &mut |_| {});
                    twin.insert(*t);
                }
                assert_eq!(
                    sorted_sets(got),
                    sorted_sets(want),
                    "stream batch partners diverge"
                );
                assert_eq!(
                    stats.matches, want_matches,
                    "stream batch match counts diverge"
                );
                assert_eq!(
                    stats, twin_stats,
                    "stream batch stats diverge from per-tuple"
                );
            }
            Op::ProbeBatch(items) => {
                let probes = next_batch(&items);
                let mut got = vec![Vec::new(); probes.len()];
                let stats = candidate.probe_batch(&probes, &mut |i, m| got[i].push(m.seq));
                let mut want = vec![Vec::new(); probes.len()];
                let mut twin_stats = ProbeStats::default();
                for (i, p) in probes.iter().enumerate() {
                    reference.probe(p, &mut |m| want[i].push(m.seq));
                    twin_stats += twin.probe(p, &mut |_| {});
                }
                assert_eq!(
                    sorted_sets(got),
                    sorted_sets(want),
                    "batch probe partners diverge"
                );
                assert_eq!(
                    stats, twin_stats,
                    "batch probe stats diverge from per-tuple"
                );
            }
            Op::Seal => {
                candidate.seal_segment();
                twin.seal_segment();
                reference.seal_segment();
                assert_eq!(candidate.sealed_segments(), reference.sealed_segments());
            }
            Op::Evict { bound } => {
                let got = candidate.evict_before(bound);
                twin.evict_before(bound);
                let want = reference.evict_before(bound);
                assert_eq!(got, want, "eviction diverges");
            }
            Op::Extract { key_mod } => {
                let got = sorted_ids(candidate.extract(&mut |t| t.key % key_mod == 0));
                twin.extract(&mut |t| t.key % key_mod == 0);
                let want = sorted_ids(reference.extract(&mut |t| t.key % key_mod == 0));
                assert_eq!(got, want, "extract diverges");
            }
            Op::ForEachCheck => {
                assert_eq!(
                    stored_ids(candidate.as_ref()),
                    stored_ids(&reference),
                    "stored multisets diverge"
                );
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
    assert_eq!(
        sorted_ids(candidate.drain()),
        sorted_ids(reference.drain()),
        "final drain diverges"
    );
    assert!(candidate.is_empty() && candidate.bytes() == 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn symmetric_hash_equals_reference(ops in prop::collection::vec(op_strategy(4), 0..160)) {
        check_equivalence(&|| Box::new(SymmetricHashIndex::new()), Predicate::Equi, ops);
    }

    #[test]
    fn band_index_equals_reference(
        ops in prop::collection::vec(op_strategy(20), 0..120),
        width in 0..4i64,
    ) {
        check_equivalence(&|| Box::new(BandIndex::new(width)), Predicate::Band { width }, ops);
    }

    /// A key space far wider than any batch's share of it: bands that
    /// hold a few tuples each, or none.
    #[test]
    fn band_index_equals_reference_on_wide_keys(
        ops in prop::collection::vec(op_strategy(1 << 20), 0..120),
        width in prop_oneof![0..4i64, 0..8192i64],
    ) {
        check_equivalence(&|| Box::new(BandIndex::new(width)), Predicate::Band { width }, ops);
    }

    #[test]
    fn factory_indexes_equal_reference(ops in prop::collection::vec(op_strategy(6), 0..100)) {
        let theta = Predicate::Theta(Arc::new(|r: &Tuple, s: &Tuple| r.key % 3 == s.key % 3));
        for pred in [Predicate::Equi, Predicate::Band { width: 2 }, Predicate::LessThan, theta] {
            let p = pred.clone();
            check_equivalence(&move || index_for(&p), pred, ops.clone());
        }
    }
}
