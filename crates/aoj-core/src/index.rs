//! The local join-state abstraction.
//!
//! §3.2: "Any flavor of non-blocking join algorithm can be independently
//! adopted at each joiner task." [`JoinIndex`] is that plug-in point: a
//! two-sided tuple store that supports the insert/probe pattern of local
//! non-blocking joins plus the bulk operations migrations need (drain,
//! filtered extraction, iteration). `aoj-joinalg` provides the indexed
//! implementations (symmetric hash, B-tree band); [`VecIndex`] here is
//! the obvious-by-inspection reference used by tests, by the
//! epoch-protocol correctness proofs and for arbitrary theta predicates.

use crate::lifecycle::EvictStats;
use crate::predicate::Predicate;
use crate::tuple::{Rel, Tuple};

/// Statistics from one probe: how many index entries were scanned and how
/// many satisfied the predicate. Feeds the CPU cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Index entries examined.
    pub candidates: u64,
    /// Matches found (after the optional filter).
    pub matches: u64,
}

impl std::ops::Add for ProbeStats {
    type Output = ProbeStats;
    fn add(self, rhs: ProbeStats) -> ProbeStats {
        ProbeStats {
            candidates: self.candidates + rhs.candidates,
            matches: self.matches + rhs.matches,
        }
    }
}

impl std::ops::AddAssign for ProbeStats {
    fn add_assign(&mut self, rhs: ProbeStats) {
        *self = *self + rhs;
    }
}

/// A two-sided store of R and S tuples supporting insert-probe joins and
/// the bulk state operations used by migrations.
///
/// `Send` is a supertrait so joiner tasks holding boxed indexes can be
/// moved onto worker threads by threaded execution backends.
pub trait JoinIndex: Send {
    /// Insert a tuple into its relation's side.
    fn insert(&mut self, t: Tuple);

    /// Find matches between `t` and stored tuples of the *opposite*
    /// relation, but only those stored tuples accepted by `filter`;
    /// `on_match` is invoked once per match. Returns scan statistics.
    ///
    /// The filter is how the epoch protocol joins against `Keep(τ ∪ Δ)`
    /// without physically splitting the τ index mid-migration.
    fn probe_filtered(
        &mut self,
        t: &Tuple,
        filter: &mut dyn FnMut(&Tuple) -> bool,
        on_match: &mut dyn FnMut(&Tuple),
    ) -> ProbeStats;

    /// Unfiltered probe.
    fn probe(&mut self, t: &Tuple, on_match: &mut dyn FnMut(&Tuple)) -> ProbeStats {
        self.probe_filtered(t, &mut |_| true, on_match)
    }

    /// Insert every tuple of `batch` (in order).
    fn insert_batch(&mut self, batch: &[Tuple]) {
        for t in batch {
            self.insert(*t);
        }
    }

    /// Probe each `probes[i]` against the stored state, invoking
    /// `on_match(i, stored)` once per match of `probes[i]`.
    ///
    /// Semantically identical to `probes.iter().map(|t| self.probe(t))` —
    /// probes are **not** matched against each other and are **not**
    /// inserted — but implementations may amortise the per-probe index
    /// work across the batch ([`VecIndex`] serves every probe with one
    /// pass over its state) or skip the default's per-match filter call.
    /// The invocation *order* of `on_match` is unspecified; the per-probe
    /// match sets and the summed [`ProbeStats`] are not.
    fn probe_batch(
        &mut self,
        probes: &[Tuple],
        on_match: &mut dyn FnMut(usize, &Tuple),
    ) -> ProbeStats {
        let mut stats = ProbeStats::default();
        for (i, t) in probes.iter().enumerate() {
            stats += self.probe(t, &mut |stored| on_match(i, stored));
        }
        stats
    }

    /// Stream-process a batch of arriving tuples: every tuple probes the
    /// state *as it stood at the tuple's own position in the stream*
    /// (earlier batch tuples included), then is inserted — exactly
    /// equivalent to per-tuple `probe` + `insert`, which is what a
    /// batch-of-one degenerates to. `on_match(i, stored)` receives the
    /// index of the probing tuple within `batch` plus the matched stored
    /// tuple; as for [`probe_batch`](JoinIndex::probe_batch), the
    /// invocation order is unspecified.
    ///
    /// The default keeps bulk probes exact with one observation: probes
    /// only ever scan the *opposite* relation, so tuples of the same
    /// relation can never match each other. Splitting the batch into
    /// maximal single-relation runs therefore lets a whole run probe via
    /// [`probe_batch`](JoinIndex::probe_batch) before any of it is
    /// inserted, with earlier runs already in the index when later runs
    /// probe — no intra-batch pair is missed or duplicated. Both indexed
    /// implementations override this with a per-tuple loop: the hash
    /// index shares one map entry between probe and insert, and the band
    /// index's range scan costs the same in or out of a batch.
    fn stream_batch(
        &mut self,
        batch: &[Tuple],
        on_match: &mut dyn FnMut(usize, &Tuple),
    ) -> ProbeStats {
        let mut stats = ProbeStats::default();
        let mut start = 0;
        while start < batch.len() {
            let rel = batch[start].rel;
            let mut end = start + 1;
            while end < batch.len() && batch[end].rel == rel {
                end += 1;
            }
            let run = &batch[start..end];
            stats += self.probe_batch(run, &mut |i, stored| on_match(start + i, stored));
            self.insert_batch(run);
            start = end;
        }
        stats
    }

    /// Probe counting matches only.
    fn probe_count(&mut self, t: &Tuple) -> ProbeStats {
        self.probe_filtered(t, &mut |_| true, &mut |_| {})
    }

    /// Number of stored tuples, both sides.
    fn len(&self) -> usize;

    /// True if no tuples are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stored tuples of one relation.
    fn len_rel(&self, rel: Rel) -> usize;

    /// Total stored payload bytes.
    fn bytes(&self) -> u64;

    /// Remove and return all tuples.
    fn drain(&mut self) -> Vec<Tuple>;

    /// Remove and return the tuples for which `pred` is true (discards and
    /// migration extraction).
    fn extract(&mut self, pred: &mut dyn FnMut(&Tuple) -> bool) -> Vec<Tuple>;

    /// Visit every stored tuple.
    fn for_each(&self, f: &mut dyn FnMut(&Tuple));

    /// Close the current run of inserts into a **sealed segment** (a
    /// PanJoin-style sub-window, arXiv:1811.05065): sealed tuples stay
    /// fully probe-able, but [`evict_before`](JoinIndex::evict_before)
    /// may later drop the segment wholesale instead of deleting tuples
    /// one at a time. Sealing an empty run is a no-op. The default does
    /// nothing — an index without segment support simply falls back to
    /// per-tuple eviction.
    fn seal_segment(&mut self) {}

    /// Drop stored tuples that are entirely outside the retention
    /// window: every **sealed segment** whose maximum sequence number is
    /// below `bound` is discarded whole (O(1) per segment for segmented
    /// indexes). Tuples in the active (unsealed) run, and sealed
    /// segments straddling the bound, are retained — eviction is
    /// conservative, never early. Returns what was dropped.
    ///
    /// The default implementation extracts per-tuple (`seq < bound`),
    /// for indexes without segment support.
    fn evict_before(&mut self, bound: u64) -> EvictStats {
        let removed = self.extract(&mut |t| t.seq < bound);
        EvictStats {
            tuples: removed.len() as u64,
            bytes: removed.iter().map(|t| t.bytes as u64).sum(),
        }
    }

    /// Sealed segments currently held (0 for unsegmented indexes).
    fn sealed_segments(&self) -> usize {
        0
    }

    /// Collect every stored tuple (testing convenience).
    fn snapshot(&self) -> Vec<Tuple> {
        let mut v = Vec::with_capacity(self.len());
        self.for_each(&mut |t| v.push(*t));
        v
    }
}

/// One sealed sub-window of a [`VecIndex`]: a closed run of tuples that
/// expires wholesale.
struct VecSegment {
    r: Vec<Tuple>,
    s: Vec<Tuple>,
    bytes: u64,
    max_seq: u64,
}

/// Reference [`JoinIndex`]: plain vectors and a linear scan per probe.
/// O(|state|) probes, but trivially correct for any predicate — the
/// yardstick the optimised indexes are tested against. Supports sealed
/// segments natively: the active run lives in `r`/`s`, closed runs move
/// into `sealed` (still probed, droppable whole). With no sealing the
/// struct degenerates to the original two-vector store.
pub struct VecIndex {
    predicate: Predicate,
    r: Vec<Tuple>,
    s: Vec<Tuple>,
    bytes: u64,
    active_max_seq: u64,
    sealed: Vec<VecSegment>,
}

impl VecIndex {
    /// Create an empty store joining with `predicate`.
    pub fn new(predicate: Predicate) -> VecIndex {
        VecIndex {
            predicate,
            r: Vec::new(),
            s: Vec::new(),
            bytes: 0,
            active_max_seq: 0,
            sealed: Vec::new(),
        }
    }

    fn side(&self, rel: Rel) -> &Vec<Tuple> {
        match rel {
            Rel::R => &self.r,
            Rel::S => &self.s,
        }
    }
}

impl JoinIndex for VecIndex {
    fn insert(&mut self, t: Tuple) {
        self.bytes += t.bytes as u64;
        self.active_max_seq = self.active_max_seq.max(t.seq);
        match t.rel {
            Rel::R => self.r.push(t),
            Rel::S => self.s.push(t),
        }
    }

    fn probe_filtered(
        &mut self,
        t: &Tuple,
        filter: &mut dyn FnMut(&Tuple) -> bool,
        on_match: &mut dyn FnMut(&Tuple),
    ) -> ProbeStats {
        let mut stats = ProbeStats::default();
        let other_rel = t.rel.other();
        let sealed_sides = self.sealed.iter().map(|seg| match other_rel {
            Rel::R => &seg.r,
            Rel::S => &seg.s,
        });
        for others in sealed_sides.chain(std::iter::once(self.side(other_rel))) {
            stats.candidates += others.len() as u64;
            for other in others {
                if self.predicate.matches_pair(t, other) && filter(other) {
                    stats.matches += 1;
                    on_match(other);
                }
            }
        }
        stats
    }

    fn probe_batch(
        &mut self,
        probes: &[Tuple],
        on_match: &mut dyn FnMut(usize, &Tuple),
    ) -> ProbeStats {
        // One sequential scan of each stored side serves every probe of
        // the opposite relation — same predicate evaluations as N
        // independent probes, one pass over the state.
        let mut stats = ProbeStats::default();
        for rel in [Rel::R, Rel::S] {
            let idxs: Vec<usize> = (0..probes.len())
                .filter(|&i| probes[i].rel == rel)
                .collect();
            if idxs.is_empty() {
                continue;
            }
            let other_rel = rel.other();
            let sealed_sides = self.sealed.iter().map(|seg| match other_rel {
                Rel::R => &seg.r,
                Rel::S => &seg.s,
            });
            for others in sealed_sides.chain(std::iter::once(self.side(other_rel))) {
                stats.candidates += (others.len() * idxs.len()) as u64;
                for other in others {
                    for &i in &idxs {
                        if self.predicate.matches_pair(&probes[i], other) {
                            stats.matches += 1;
                            on_match(i, other);
                        }
                    }
                }
            }
        }
        stats
    }

    fn len(&self) -> usize {
        self.r.len()
            + self.s.len()
            + self
                .sealed
                .iter()
                .map(|seg| seg.r.len() + seg.s.len())
                .sum::<usize>()
    }

    fn len_rel(&self, rel: Rel) -> usize {
        self.side(rel).len()
            + self
                .sealed
                .iter()
                .map(|seg| match rel {
                    Rel::R => seg.r.len(),
                    Rel::S => seg.s.len(),
                })
                .sum::<usize>()
    }

    fn bytes(&self) -> u64 {
        self.bytes + self.sealed.iter().map(|seg| seg.bytes).sum::<u64>()
    }

    fn drain(&mut self) -> Vec<Tuple> {
        self.bytes = 0;
        self.active_max_seq = 0;
        let mut out = Vec::new();
        for mut seg in std::mem::take(&mut self.sealed) {
            out.append(&mut seg.r);
            out.append(&mut seg.s);
        }
        out.append(&mut self.r);
        out.append(&mut self.s);
        out
    }

    fn extract(&mut self, pred: &mut dyn FnMut(&Tuple) -> bool) -> Vec<Tuple> {
        let mut out = Vec::new();
        for seg in &mut self.sealed {
            let before = out.len();
            for side in [&mut seg.r, &mut seg.s] {
                let mut i = 0;
                while i < side.len() {
                    if pred(&side[i]) {
                        out.push(side.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
            // Stale max_seq after removals only delays eviction — safe.
            for t in &out[before..] {
                seg.bytes -= t.bytes as u64;
            }
        }
        self.sealed.retain(|seg| seg.r.len() + seg.s.len() > 0);
        let before = out.len();
        for side in [&mut self.r, &mut self.s] {
            let mut i = 0;
            while i < side.len() {
                if pred(&side[i]) {
                    out.push(side.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        for t in &out[before..] {
            self.bytes -= t.bytes as u64;
        }
        out
    }

    fn for_each(&self, f: &mut dyn FnMut(&Tuple)) {
        for seg in &self.sealed {
            for t in &seg.r {
                f(t);
            }
            for t in &seg.s {
                f(t);
            }
        }
        for t in &self.r {
            f(t);
        }
        for t in &self.s {
            f(t);
        }
    }

    fn seal_segment(&mut self) {
        if self.r.is_empty() && self.s.is_empty() {
            return;
        }
        self.sealed.push(VecSegment {
            r: std::mem::take(&mut self.r),
            s: std::mem::take(&mut self.s),
            bytes: self.bytes,
            max_seq: self.active_max_seq,
        });
        self.bytes = 0;
        self.active_max_seq = 0;
    }

    fn evict_before(&mut self, bound: u64) -> EvictStats {
        let mut stats = EvictStats::default();
        self.sealed.retain(|seg| {
            if seg.max_seq < bound {
                stats.tuples += (seg.r.len() + seg.s.len()) as u64;
                stats.bytes += seg.bytes;
                false
            } else {
                true
            }
        });
        stats
    }

    fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(seq: u64, key: i64) -> Tuple {
        Tuple::new(Rel::R, seq, key, seq.wrapping_mul(0x9E3779B97F4A7C15))
    }
    fn s(seq: u64, key: i64) -> Tuple {
        Tuple::new(Rel::S, seq, key, seq.wrapping_mul(0x9E3779B97F4A7C15))
    }

    #[test]
    fn insert_probe_symmetric_hash_pattern() {
        let mut idx = VecIndex::new(Predicate::Equi);
        assert_eq!(idx.probe_count(&r(0, 5)).matches, 0);
        idx.insert(r(0, 5));
        idx.insert(r(1, 6));
        let stats = idx.probe_count(&s(2, 5));
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.candidates, 2);
        idx.insert(s(2, 5));
        // R probe sees the stored S tuple.
        assert_eq!(idx.probe_count(&r(3, 5)).matches, 1);
    }

    #[test]
    fn filtered_probe_restricts_matches() {
        let mut idx = VecIndex::new(Predicate::Equi);
        idx.insert(r(0, 1));
        idx.insert(r(1, 1));
        let mut only_even_seq = |t: &Tuple| t.seq.is_multiple_of(2);
        let stats = idx.probe_filtered(&s(5, 1), &mut only_even_seq, &mut |_| {});
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.candidates, 2);
    }

    #[test]
    fn extract_removes_and_updates_bytes() {
        let mut idx = VecIndex::new(Predicate::Equi);
        for i in 0..10 {
            idx.insert(r(i, i as i64));
        }
        let total = idx.bytes();
        let removed = idx.extract(&mut |t| t.key < 5);
        assert_eq!(removed.len(), 5);
        assert_eq!(idx.len(), 5);
        assert_eq!(
            idx.bytes(),
            total - removed.iter().map(|t| t.bytes as u64).sum::<u64>()
        );
    }

    #[test]
    fn drain_empties() {
        let mut idx = VecIndex::new(Predicate::CrossProduct);
        idx.insert(r(0, 0));
        idx.insert(s(1, 0));
        let all = idx.drain();
        assert_eq!(all.len(), 2);
        assert!(idx.is_empty());
        assert_eq!(idx.bytes(), 0);
    }

    #[test]
    fn len_rel_counts_sides() {
        let mut idx = VecIndex::new(Predicate::Equi);
        idx.insert(r(0, 0));
        idx.insert(r(1, 0));
        idx.insert(s(2, 0));
        assert_eq!(idx.len_rel(Rel::R), 2);
        assert_eq!(idx.len_rel(Rel::S), 1);
        assert_eq!(idx.snapshot().len(), 3);
    }

    #[test]
    fn probe_batch_equals_independent_probes() {
        let mut idx = VecIndex::new(Predicate::Band { width: 1 });
        for i in 0..40 {
            idx.insert(if i % 3 == 0 {
                r(i, (i as i64 * 7) % 20)
            } else {
                s(i, (i as i64 * 5) % 20)
            });
        }
        let probes: Vec<Tuple> = (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    r(100 + i, (i as i64 * 3) % 20)
                } else {
                    s(100 + i, (i as i64 * 11) % 20)
                }
            })
            .collect();
        let mut per_tuple = vec![Vec::new(); probes.len()];
        let mut batched = vec![Vec::new(); probes.len()];
        let mut loop_stats = ProbeStats::default();
        for (i, p) in probes.iter().enumerate() {
            loop_stats += idx.probe(p, &mut |m| per_tuple[i].push(m.seq));
        }
        let batch_stats = idx.probe_batch(&probes, &mut |i, m| batched[i].push(m.seq));
        for (a, b) in per_tuple.iter_mut().zip(batched.iter_mut()) {
            a.sort_unstable();
            b.sort_unstable();
        }
        assert_eq!(per_tuple, batched);
        assert_eq!(loop_stats.matches, batch_stats.matches);
    }

    #[test]
    fn stream_batch_matches_sequential_processing() {
        // Mixed-relation batch with intra-batch pairs: bulk processing
        // must produce exactly the pairs sequential probe+insert does.
        let batch: Vec<Tuple> = vec![
            r(0, 5),
            r(1, 6),
            s(2, 5), // pairs with r0
            s(3, 6), // pairs with r1
            r(4, 5), // pairs with s2
            s(5, 5), // pairs with r0 and r4
        ];
        let mut seq_idx = VecIndex::new(Predicate::Equi);
        let mut seq_pairs = Vec::new();
        for t in &batch {
            seq_idx.probe(t, &mut |m| {
                seq_pairs.push((t.seq.min(m.seq), t.seq.max(m.seq)))
            });
            seq_idx.insert(*t);
        }
        let mut bulk_idx = VecIndex::new(Predicate::Equi);
        let mut bulk_pairs = Vec::new();
        let stats = bulk_idx.stream_batch(&batch, &mut |i, m| {
            bulk_pairs.push((batch[i].seq.min(m.seq), batch[i].seq.max(m.seq)))
        });
        seq_pairs.sort_unstable();
        bulk_pairs.sort_unstable();
        assert_eq!(seq_pairs, bulk_pairs);
        assert_eq!(stats.matches as usize, bulk_pairs.len());
        assert_eq!(bulk_idx.len(), batch.len());
        assert_eq!(
            seq_pairs,
            vec![(0, 2), (0, 5), (1, 3), (2, 4), (4, 5)],
            "expected exactly the stream-order pairs"
        );
    }

    #[test]
    fn insert_batch_inserts_in_order() {
        let mut idx = VecIndex::new(Predicate::Equi);
        let batch = vec![r(0, 1), s(1, 1), r(2, 2)];
        idx.insert_batch(&batch);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.bytes(), 3 * 64);
    }

    #[test]
    fn sealed_segments_stay_probeable_and_evict_wholesale() {
        let mut idx = VecIndex::new(Predicate::Equi);
        for i in 0..10u64 {
            idx.insert(r(i, 1));
        }
        idx.seal_segment();
        for i in 10..20u64 {
            idx.insert(r(i, 1));
        }
        idx.seal_segment();
        for i in 20..25u64 {
            idx.insert(r(i, 1));
        }
        assert_eq!(idx.sealed_segments(), 2);
        assert_eq!(idx.len(), 25);
        assert_eq!(idx.bytes(), 25 * 64);
        // Probes see sealed + active state.
        assert_eq!(idx.probe_count(&s(100, 1)).matches, 25);
        // Bound 10 drops exactly the first segment (max_seq 9).
        let evicted = idx.evict_before(10);
        assert_eq!(
            evicted,
            EvictStats {
                tuples: 10,
                bytes: 640
            }
        );
        assert_eq!(idx.len(), 15);
        assert_eq!(idx.probe_count(&s(101, 1)).matches, 15);
        // Bound 15 straddles the second segment (max_seq 19): retained.
        assert_eq!(idx.evict_before(15), EvictStats::default());
        assert_eq!(idx.len(), 15);
        // The active run is never evicted by the segment path.
        assert_eq!(idx.evict_before(1000).tuples, 10);
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn drain_and_extract_span_sealed_segments() {
        let mut idx = VecIndex::new(Predicate::Equi);
        idx.insert(r(0, 0));
        idx.insert(s(1, 0));
        idx.seal_segment();
        idx.insert(r(2, 1));
        let pulled = idx.extract(&mut |t| t.seq == 1);
        assert_eq!(pulled.len(), 1);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.bytes(), 2 * 64);
        let all = idx.drain();
        assert_eq!(all.len(), 2);
        assert!(idx.is_empty());
        assert_eq!(idx.bytes(), 0);
        assert_eq!(idx.sealed_segments(), 0);
    }

    #[test]
    fn default_evict_before_falls_back_to_per_tuple() {
        // A minimal unsegmented JoinIndex exercising the trait default.
        struct Flat(VecIndex);
        impl JoinIndex for Flat {
            fn insert(&mut self, t: Tuple) {
                self.0.insert(t);
            }
            fn probe_filtered(
                &mut self,
                t: &Tuple,
                filter: &mut dyn FnMut(&Tuple) -> bool,
                on_match: &mut dyn FnMut(&Tuple),
            ) -> ProbeStats {
                self.0.probe_filtered(t, filter, on_match)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn len_rel(&self, rel: Rel) -> usize {
                self.0.len_rel(rel)
            }
            fn bytes(&self) -> u64 {
                self.0.bytes()
            }
            fn drain(&mut self) -> Vec<Tuple> {
                self.0.drain()
            }
            fn extract(&mut self, pred: &mut dyn FnMut(&Tuple) -> bool) -> Vec<Tuple> {
                self.0.extract(pred)
            }
            fn for_each(&self, f: &mut dyn FnMut(&Tuple)) {
                self.0.for_each(f)
            }
        }
        let mut idx = Flat(VecIndex::new(Predicate::Equi));
        for i in 0..8u64 {
            idx.insert(r(i, 0));
        }
        idx.seal_segment(); // default: no-op
        assert_eq!(idx.sealed_segments(), 0);
        let stats = idx.evict_before(5);
        assert_eq!(
            stats,
            EvictStats {
                tuples: 5,
                bytes: 5 * 64
            }
        );
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn on_match_receives_partners() {
        let mut idx = VecIndex::new(Predicate::Band { width: 1 });
        idx.insert(s(0, 10));
        idx.insert(s(1, 11));
        idx.insert(s(2, 13));
        let mut partners = Vec::new();
        idx.probe(&r(3, 11), &mut |t| partners.push(t.key));
        partners.sort();
        assert_eq!(partners, vec![10, 11]);
    }
}
