//! B-tree-indexed band join: the paper's joiners "use balanced binary
//! trees for band joins" (§5). A probe for key `k` with band width `w`
//! scans the opposite tree over `[k − w, k + w]`: O(log n + band) per
//! tuple, and batches are served one such scan per tuple. Sorting a batch
//! and merging it against the tree instead walks every bucket between
//! the batch's smallest and largest key; it lost to per-tuple scans at
//! every key-space density measured (5× at 20k Zipf keys, 13× at 125k).

use std::collections::BTreeMap;

use aoj_core::index::{JoinIndex, ProbeStats};
use aoj_core::lifecycle::EvictStats;
use aoj_core::tuple::{Rel, Tuple};

/// One sealed sub-window: a closed pair of trees that stays fully
/// probe-able and expires wholesale (see
/// [`JoinIndex::seal_segment`]/[`JoinIndex::evict_before`]).
#[derive(Default)]
struct BandSegment {
    r: BTreeMap<i64, Vec<Tuple>>,
    s: BTreeMap<i64, Vec<Tuple>>,
    r_len: usize,
    s_len: usize,
    bytes: u64,
    max_seq: u64,
}

impl BandSegment {
    fn side(&self, rel: Rel) -> &BTreeMap<i64, Vec<Tuple>> {
        match rel {
            Rel::R => &self.r,
            Rel::S => &self.s,
        }
    }

    fn len(&self) -> usize {
        self.r_len + self.s_len
    }
}

/// Tree-indexed [`JoinIndex`] for **band joins** `|r.key − s.key| ≤ width`.
/// The active run lives in `live`; sealed sub-windows keep their own
/// trees and are dropped whole on eviction.
pub struct BandIndex {
    width: i64,
    live: BandSegment,
    sealed: Vec<BandSegment>,
}

impl BandIndex {
    /// Create an empty index for half-width `width` (inclusive).
    pub fn new(width: i64) -> BandIndex {
        assert!(width >= 0);
        BandIndex {
            width,
            live: BandSegment::default(),
            sealed: Vec::new(),
        }
    }

    /// The band half-width.
    pub fn width(&self) -> i64 {
        self.width
    }

    /// Sealed segments oldest-first, then the live run.
    fn segments(&self) -> impl Iterator<Item = &BandSegment> {
        self.sealed.iter().chain(std::iter::once(&self.live))
    }

    fn segments_mut(&mut self) -> impl Iterator<Item = &mut BandSegment> {
        self.sealed
            .iter_mut()
            .chain(std::iter::once(&mut self.live))
    }

    /// The opposite relation's buckets in `t`'s band `[k − w, k + w]`:
    /// one B-tree range scan per segment.
    fn band(&self, t: &Tuple) -> impl Iterator<Item = &Vec<Tuple>> {
        let lo = t.key.saturating_sub(self.width);
        let hi = t.key.saturating_add(self.width);
        let other = t.rel.other();
        self.segments()
            .flat_map(move |seg| seg.side(other).range(lo..=hi).map(|(_, bucket)| bucket))
    }

    /// Unfiltered probe: every tuple in the band matches, so both counts
    /// are the in-band bucket lengths.
    fn scan(&self, t: &Tuple, on_match: &mut impl FnMut(&Tuple)) -> ProbeStats {
        let mut n = 0;
        for bucket in self.band(t) {
            n += bucket.len() as u64;
            bucket.iter().for_each(&mut *on_match);
        }
        ProbeStats {
            candidates: n,
            matches: n,
        }
    }
}

impl JoinIndex for BandIndex {
    fn insert(&mut self, t: Tuple) {
        let live = &mut self.live;
        live.bytes += t.bytes as u64;
        live.max_seq = live.max_seq.max(t.seq);
        match t.rel {
            Rel::R => {
                live.r_len += 1;
                live.r.entry(t.key).or_default().push(t);
            }
            Rel::S => {
                live.s_len += 1;
                live.s.entry(t.key).or_default().push(t);
            }
        }
    }

    fn probe_filtered(
        &mut self,
        t: &Tuple,
        filter: &mut dyn FnMut(&Tuple) -> bool,
        on_match: &mut dyn FnMut(&Tuple),
    ) -> ProbeStats {
        let mut stats = ProbeStats::default();
        for bucket in self.band(t) {
            stats.candidates += bucket.len() as u64;
            for other in bucket {
                if filter(other) {
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
        let mut stats = ProbeStats::default();
        for (i, t) in probes.iter().enumerate() {
            stats += self.scan(t, &mut |other| on_match(i, other));
        }
        stats
    }

    /// Each tuple in stream order: its own range scan, then its insert.
    fn stream_batch(
        &mut self,
        batch: &[Tuple],
        on_match: &mut dyn FnMut(usize, &Tuple),
    ) -> ProbeStats {
        let mut stats = ProbeStats::default();
        for (i, t) in batch.iter().enumerate() {
            stats += self.scan(t, &mut |other| on_match(i, other));
            self.insert(*t);
        }
        stats
    }

    fn len(&self) -> usize {
        self.segments().map(BandSegment::len).sum()
    }

    fn len_rel(&self, rel: Rel) -> usize {
        self.segments()
            .map(|seg| match rel {
                Rel::R => seg.r_len,
                Rel::S => seg.s_len,
            })
            .sum()
    }

    fn bytes(&self) -> u64 {
        self.segments().map(|seg| seg.bytes).sum()
    }

    fn drain(&mut self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        for seg in self
            .sealed
            .drain(..)
            .chain(std::iter::once(std::mem::take(&mut self.live)))
        {
            for (_, bucket) in seg.r {
                out.extend(bucket);
            }
            for (_, bucket) in seg.s {
                out.extend(bucket);
            }
        }
        out
    }

    fn extract(&mut self, pred: &mut dyn FnMut(&Tuple) -> bool) -> Vec<Tuple> {
        let mut out = Vec::new();
        for seg in self.segments_mut() {
            let before = out.len();
            for side in [&mut seg.r, &mut seg.s] {
                side.retain(|_, bucket| {
                    let mut i = 0;
                    while i < bucket.len() {
                        if pred(&bucket[i]) {
                            out.push(bucket.swap_remove(i));
                        } else {
                            i += 1;
                        }
                    }
                    !bucket.is_empty()
                });
            }
            // Stale max_seq after removals only delays eviction — safe.
            for t in &out[before..] {
                seg.bytes -= t.bytes as u64;
                match t.rel {
                    Rel::R => seg.r_len -= 1,
                    Rel::S => seg.s_len -= 1,
                }
            }
        }
        self.sealed.retain(|seg| seg.len() > 0);
        out
    }

    fn for_each(&self, f: &mut dyn FnMut(&Tuple)) {
        for seg in self.segments() {
            for bucket in seg.r.values() {
                for t in bucket {
                    f(t);
                }
            }
            for bucket in seg.s.values() {
                for t in bucket {
                    f(t);
                }
            }
        }
    }

    fn seal_segment(&mut self) {
        if self.live.len() > 0 {
            self.sealed.push(std::mem::take(&mut self.live));
        }
    }

    fn evict_before(&mut self, bound: u64) -> EvictStats {
        let mut stats = EvictStats::default();
        self.sealed.retain(|seg| {
            if seg.max_seq < bound {
                stats.tuples += seg.len() as u64;
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
        Tuple::new(Rel::R, seq, key, seq)
    }
    fn s(seq: u64, key: i64) -> Tuple {
        Tuple::new(Rel::S, seq, key, seq)
    }

    #[test]
    fn band_probe_scans_inclusive_range() {
        let mut idx = BandIndex::new(1);
        idx.insert(s(1, 9));
        idx.insert(s(2, 10));
        idx.insert(s(3, 11));
        idx.insert(s(4, 12));
        let mut keys = Vec::new();
        let stats = idx.probe(&r(5, 10), &mut |t| keys.push(t.key));
        keys.sort_unstable();
        assert_eq!(keys, vec![9, 10, 11]);
        assert_eq!(stats.matches, 3);
        assert_eq!(stats.candidates, 3, "range scan touches only the band");
    }

    #[test]
    fn zero_width_behaves_like_equi() {
        let mut idx = BandIndex::new(0);
        idx.insert(s(1, 5));
        idx.insert(s(2, 6));
        assert_eq!(idx.probe_count(&r(3, 5)).matches, 1);
    }

    #[test]
    fn saturating_bounds_at_extremes() {
        let mut idx = BandIndex::new(10);
        idx.insert(s(1, i64::MAX - 3));
        assert_eq!(idx.probe_count(&r(2, i64::MAX)).matches, 1);
        idx.insert(s(3, i64::MIN + 2));
        assert_eq!(idx.probe_count(&r(4, i64::MIN)).matches, 1);
    }

    #[test]
    fn extract_and_drain_keep_counts_consistent() {
        let mut idx = BandIndex::new(2);
        for i in 0..50u64 {
            idx.insert(if i % 2 == 0 {
                r(i, i as i64)
            } else {
                s(i, i as i64)
            });
        }
        assert_eq!(idx.len(), 50);
        let removed = idx.extract(&mut |t| t.key % 5 == 0);
        assert_eq!(idx.len() + removed.len(), 50);
        assert_eq!(
            idx.bytes(),
            (50 - removed.len() as u64) * 64,
            "byte gauge must track removals"
        );
        let rest = idx.drain();
        assert_eq!(rest.len() + removed.len(), 50);
        assert!(idx.is_empty());
    }

    #[test]
    fn stream_batch_equals_per_tuple_probe_then_insert() {
        // Duplicates, overlapping bands, intra-batch pairs, a sealed
        // segment and extreme keys: a 64-tuple mixed batch must match the
        // per-tuple probe-then-insert loop, match for match and stat for
        // stat.
        for width in [0i64, 1, 3, 17] {
            let mut bulk = BandIndex::new(width);
            let mut twin = BandIndex::new(width);
            for i in 0..300u64 {
                let key = ((i as i64 * 67) % 97) - 48;
                let t = if i % 3 == 0 { r(i, key) } else { s(i, key) };
                bulk.insert(t);
                twin.insert(t);
                if i == 150 {
                    bulk.seal_segment();
                    twin.seal_segment();
                }
            }
            let extremes = [
                s(900, i64::MAX),
                s(901, i64::MAX - 1),
                r(902, i64::MIN),
                r(903, i64::MIN + 1),
            ];
            for t in extremes {
                bulk.insert(t);
                twin.insert(t);
            }
            let batch: Vec<Tuple> = (0..62u64)
                .map(|i| {
                    let key = ((i as i64 * 41) % 90) - 45;
                    if i % 4 == 0 {
                        r(1000 + i, key)
                    } else {
                        s(1000 + i, key)
                    }
                })
                .chain([r(2000, i64::MAX), s(2001, i64::MIN)])
                .collect();
            assert_eq!(batch.len(), 64);
            let mut per_tuple = vec![Vec::new(); batch.len()];
            let mut twin_stats = ProbeStats::default();
            for (i, t) in batch.iter().enumerate() {
                twin_stats += twin.probe(t, &mut |m| per_tuple[i].push(m.seq));
                twin.insert(*t);
            }
            let mut streamed = vec![Vec::new(); batch.len()];
            let stats = bulk.stream_batch(&batch, &mut |i, m| streamed[i].push(m.seq));
            for (a, b) in per_tuple.iter_mut().zip(streamed.iter_mut()) {
                a.sort_unstable();
                b.sort_unstable();
            }
            assert_eq!(per_tuple, streamed, "width {width}: match sets diverge");
            assert_eq!(stats, twin_stats, "width {width}: stats diverge");
            assert!(
                per_tuple[62].contains(&900) && per_tuple[63].contains(&902),
                "width {width}: extreme keys must meet their neighbours"
            );
            assert_eq!(bulk.len(), twin.len());
        }
    }

    #[test]
    fn sealed_segments_probe_and_evict() {
        let mut idx = BandIndex::new(1);
        for i in 0..10u64 {
            idx.insert(s(i, 10 + (i as i64 % 3)));
        }
        idx.seal_segment();
        for i in 10..20u64 {
            idx.insert(s(i, 10));
        }
        assert_eq!(idx.sealed_segments(), 1);
        assert_eq!(idx.len(), 20);
        // Band probe spans sealed + live.
        assert_eq!(idx.probe_count(&r(99, 11)).matches, 20);
        let evicted = idx.evict_before(10);
        assert_eq!((evicted.tuples, evicted.bytes), (10, 640));
        assert_eq!(idx.len(), 10);
        assert_eq!(idx.bytes(), 10 * 64);
        assert_eq!(idx.probe_count(&r(100, 11)).matches, 10);
    }

    #[test]
    fn len_rel_tracks_sides() {
        let mut idx = BandIndex::new(1);
        idx.insert(r(1, 1));
        idx.insert(r(2, 2));
        idx.insert(s(3, 3));
        assert_eq!(idx.len_rel(Rel::R), 2);
        assert_eq!(idx.len_rel(Rel::S), 1);
    }
}
