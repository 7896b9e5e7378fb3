//! The local half of the symmetric hash join (Wilschut & Apers \[42\]):
//! each arriving tuple probes the stored tuples of the opposite relation
//! that share its key, then is stored itself — fully pipelined, never
//! blocking.
//!
//! Layout: the index is a list of **segments** — the live run plus each
//! sealed sub-window (PanJoin, arXiv:1811.05065) — and each segment is
//! one tuple arena plus one map from key to the heads of its two
//! key-sides (its stored R tuples and its stored S tuples).
//!
//! * A key-side of up to `CHAIN_MAX` tuples lives in the arena as a chain
//!   of slots linked by `u32`s in a parallel array: nothing is allocated
//!   per key.
//! * The next tuple moves the key-side to a run of its own, one
//!   contiguous `Vec<Tuple>`, so a hot key's partners are read as a slice
//!   rather than by a pointer chase.
//! * Iteration, draining and extraction visit the arena in insertion
//!   order, then the runs in promotion order, never the map: the order is
//!   a function of the inserts alone. Only runs own an allocation, so an
//!   expired sub-window is freed as a handful of blocks, not one per key.
//!
//! Keys hash as `mix64(key ^ salt)` with a salt drawn per index from
//! `RandomState`. SHJ routes keys to joiners by `mix64(key) % J`, so the
//! unsalted mixer would hold log₂J low hash bits constant at every
//! joiner; nothing iterates the map, so the salt reaches no output.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use aoj_core::index::{JoinIndex, ProbeStats};
use aoj_core::lifecycle::EvictStats;
use aoj_core::ticket::mix64;
use aoj_core::tuple::{Rel, Tuple};

/// Longest key-side kept as a chain; its next tuple promotes it to a run.
/// A chain costs one dependent cache miss per partner.
const CHAIN_MAX: usize = 8;
/// Head word of an empty key-side, and the link that ends a chain.
const NIL: u32 = u32::MAX;
/// Head-word flag: the low bits index [`Arena::runs`], not the slots.
const RUN: u32 = 1 << 31;
/// Link of an arena slot whose tuple was promoted into a run.
const MOVED: u32 = NIL - 1;

/// `n` as a slot or run index: below `RUN - 1`, so a slot never carries
/// the run flag and `RUN | i` is never `NIL`. A wrapped index would
/// silently link a tuple into another key's chain.
fn index_u32(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(i) if i < RUN - 1 => i,
        _ => panic!("hash index segment overflow: entry {n} does not fit its 31-bit links"),
    }
}

/// Builds the key hasher: one `mix64` of the salted key.
#[derive(Clone, Copy)]
struct KeyHash {
    salt: u64,
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher {
            salt: self.salt,
            hash: 0,
        }
    }
}

struct KeyHasher {
    salt: u64,
    hash: u64,
}

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the key map hashes i64 keys only");
    }

    #[inline]
    fn write_i64(&mut self, key: i64) {
        self.hash = mix64(key as u64 ^ self.salt);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A segment's tuples, grouped into key-sides. A key-side is named by a
/// head word: `NIL`, the newest slot of a chain, or `RUN | i` for
/// `runs[i]`.
#[derive(Default)]
struct Arena {
    /// Chained tuples in insertion order, plus the dead copies of those
    /// since promoted.
    tuples: Vec<Tuple>,
    /// `links[slot]`: the next-older slot of `tuples[slot]`'s chain,
    /// `NIL`, or `MOVED`.
    links: Vec<u32>,
    /// Promoted key-sides, oldest tuple first.
    runs: Vec<Vec<Tuple>>,
}

impl Arena {
    /// Visit the key-side `head` names: a promoted run as one slice, a
    /// chain one tuple at a time. Returns how many tuples it holds.
    #[inline]
    fn walk(&self, head: u32, f: &mut impl FnMut(&[Tuple])) -> u64 {
        if head == NIL {
            return 0;
        }
        if head & RUN != 0 {
            let run = &self.runs[(head & !RUN) as usize];
            f(run);
            return run.len() as u64;
        }
        let mut n = 0;
        let mut slot = head;
        while slot != NIL {
            f(std::slice::from_ref(&self.tuples[slot as usize]));
            n += 1;
            slot = self.links[slot as usize];
        }
        n
    }

    /// Append `t` to the key-side `head` names, promoting a full chain.
    #[inline]
    fn push(&mut self, head: &mut u32, t: Tuple) {
        if *head != NIL && *head & RUN != 0 {
            self.runs[(*head & !RUN) as usize].push(t);
            return;
        }
        let mut chain = [NIL; CHAIN_MAX];
        let mut len = 0;
        let mut slot = *head;
        while slot != NIL {
            chain[len] = slot;
            len += 1;
            slot = self.links[slot as usize];
        }
        if len < CHAIN_MAX {
            let slot = index_u32(self.tuples.len());
            self.tuples.push(t);
            self.links.push(*head);
            *head = slot;
            return;
        }
        let mut run = Vec::with_capacity(2 * CHAIN_MAX);
        for &slot in chain.iter().rev() {
            run.push(self.tuples[slot as usize]);
            self.links[slot as usize] = MOVED;
        }
        run.push(t);
        *head = RUN | index_u32(self.runs.len());
        self.runs.push(run);
    }

    /// Visit every stored tuple: the arena's in insertion order, then
    /// each run's.
    fn for_each(&self, f: &mut impl FnMut(&Tuple)) {
        for (t, &link) in self.tuples.iter().zip(&self.links) {
            if link != MOVED {
                f(t);
            }
        }
        for t in self.runs.iter().flatten() {
            f(t);
        }
    }
}

/// One segment — the live run or a sealed sub-window — probe-able until
/// it expires whole (see
/// [`JoinIndex::seal_segment`]/[`JoinIndex::evict_before`]).
struct Segment {
    arena: Arena,
    /// Key → head word per relation, indexed by [`Rel::index`].
    heads: HashMap<i64, [u32; 2], KeyHash>,
    len_rel: [usize; 2],
    bytes: u64,
    max_seq: u64,
}

impl Segment {
    fn new(hash: KeyHash) -> Segment {
        Segment {
            arena: Arena::default(),
            heads: HashMap::with_hasher(hash),
            len_rel: [0; 2],
            bytes: 0,
            max_seq: 0,
        }
    }

    fn len(&self) -> usize {
        self.len_rel[0] + self.len_rel[1]
    }

    /// Store `t`; returns its key's head words afterwards, so a probe can
    /// reuse the one map lookup.
    #[inline]
    fn insert(&mut self, t: Tuple) -> [u32; 2] {
        self.len_rel[t.rel.index()] += 1;
        self.bytes += t.bytes as u64;
        self.max_seq = self.max_seq.max(t.seq);
        let heads = self.heads.entry(t.key).or_insert([NIL; 2]);
        self.arena.push(&mut heads[t.rel.index()], t);
        *heads
    }

    /// Visit the stored `rel` tuples with key `key`, a run or a chain
    /// link at a time; returns how many.
    #[inline]
    fn probe(&self, key: i64, rel: Rel, f: &mut impl FnMut(&[Tuple])) -> u64 {
        self.heads
            .get(&key)
            .map_or(0, |heads| self.arena.walk(heads[rel.index()], f))
    }

    /// Move the tuples `pred` accepts to `out` and rebuild the segment
    /// from the rest, so key-sides that shrank become chains again. A
    /// stale `max_seq` only delays eviction, so it stays.
    ///
    /// Only the kept tuples after the first accepted one are copied out;
    /// the ones before it are re-read from the old arena, so a segment
    /// that gives up nothing is never copied.
    fn extract(&mut self, pred: &mut dyn FnMut(&Tuple) -> bool, out: &mut Vec<Tuple>) {
        let (before, len) = (out.len(), self.len());
        let mut prefix = 0;
        let mut kept = Vec::new();
        self.arena.for_each(&mut |t| {
            if pred(t) {
                if out.len() == before {
                    kept.reserve_exact(len - prefix - 1);
                }
                out.push(*t);
            } else if out.len() == before {
                prefix += 1;
            } else {
                kept.push(*t);
            }
        });
        if out.len() == before {
            return;
        }
        let max_seq = self.max_seq;
        let hash = *self.heads.hasher();
        let old = std::mem::replace(self, Segment::new(hash));
        let mut seen = 0;
        old.arena.for_each(&mut |t| {
            if seen < prefix {
                self.insert(*t);
            }
            seen += 1;
        });
        for t in kept {
            self.insert(t);
        }
        self.max_seq = max_seq;
    }
}

/// Hash-indexed [`JoinIndex`] for **equi-joins** (`r.key == s.key`).
/// The active run lives in `live`; sealed sub-windows keep their own
/// arenas and maps and are dropped whole on eviction.
pub struct SymmetricHashIndex {
    hash: KeyHash,
    live: Segment,
    sealed: Vec<Segment>,
}

impl Default for SymmetricHashIndex {
    fn default() -> SymmetricHashIndex {
        SymmetricHashIndex::new()
    }
}

impl SymmetricHashIndex {
    /// Create an empty index with a fresh key-hash salt.
    pub fn new() -> SymmetricHashIndex {
        let hash = KeyHash {
            salt: RandomState::new().hash_one(0u64),
        };
        SymmetricHashIndex {
            hash,
            live: Segment::new(hash),
            sealed: Vec::new(),
        }
    }

    /// Sealed segments oldest-first, then the live run.
    fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.sealed.iter().chain(std::iter::once(&self.live))
    }

    /// Visit every stored partner of `t` in every segment; returns how
    /// many.
    #[inline]
    fn probe_all(&self, t: &Tuple, f: &mut impl FnMut(&[Tuple])) -> u64 {
        let other = t.rel.other();
        self.segments().map(|seg| seg.probe(t.key, other, f)).sum()
    }
}

impl JoinIndex for SymmetricHashIndex {
    fn insert(&mut self, t: Tuple) {
        self.live.insert(t);
    }

    fn probe_filtered(
        &mut self,
        t: &Tuple,
        filter: &mut dyn FnMut(&Tuple) -> bool,
        on_match: &mut dyn FnMut(&Tuple),
    ) -> ProbeStats {
        let mut matches = 0;
        let candidates = self.probe_all(t, &mut |run| {
            for other in run {
                if filter(other) {
                    matches += 1;
                    on_match(other);
                }
            }
        });
        ProbeStats {
            candidates,
            matches,
        }
    }

    /// One live-map entry per tuple serves both halves: append the tuple
    /// to its own key-side, then walk the opposite one (sealed segments
    /// are probe-only lookups). A promoted key-side goes to `on_run` as
    /// one slice, a chain one tuple at a time.
    fn stream_batch(
        &mut self,
        batch: &[Tuple],
        on_run: &mut dyn FnMut(usize, &[Tuple]),
    ) -> ProbeStats {
        let mut n = 0;
        for (i, t) in batch.iter().enumerate() {
            let mut emit = |run: &[Tuple]| on_run(i, run);
            let other = t.rel.other();
            for seg in &self.sealed {
                n += seg.probe(t.key, other, &mut emit);
            }
            let heads = self.live.insert(*t);
            n += self.live.arena.walk(heads[other.index()], &mut emit);
        }
        ProbeStats {
            candidates: n,
            matches: n,
        }
    }

    fn len(&self) -> usize {
        self.segments().map(Segment::len).sum()
    }

    fn len_rel(&self, rel: Rel) -> usize {
        self.segments().map(|seg| seg.len_rel[rel.index()]).sum()
    }

    fn bytes(&self) -> u64 {
        self.segments().map(|seg| seg.bytes).sum()
    }

    fn drain(&mut self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(&mut |t| out.push(*t));
        self.sealed.clear();
        self.live = Segment::new(self.hash);
        out
    }

    fn extract(&mut self, pred: &mut dyn FnMut(&Tuple) -> bool) -> Vec<Tuple> {
        let mut out = Vec::new();
        for seg in self
            .sealed
            .iter_mut()
            .chain(std::iter::once(&mut self.live))
        {
            seg.extract(pred, &mut out);
        }
        self.sealed.retain(|seg| seg.len() > 0);
        out
    }

    fn for_each(&self, f: &mut dyn FnMut(&Tuple)) {
        for seg in self.segments() {
            seg.arena.for_each(&mut |t| f(t));
        }
    }

    fn seal_segment(&mut self) {
        if self.live.len() > 0 {
            let live = std::mem::replace(&mut self.live, Segment::new(self.hash));
            self.sealed.push(live);
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
    fn probe_hits_only_equal_keys() {
        let mut idx = SymmetricHashIndex::new();
        idx.insert(r(1, 10));
        idx.insert(r(2, 11));
        idx.insert(r(3, 10));
        let stats = idx.probe(&s(4, 10), &mut |_| {});
        assert_eq!(stats.matches, 2);
        assert_eq!(stats.candidates, 2, "only the bucket is scanned");
        assert_eq!(idx.probe(&s(5, 99), &mut |_| {}).matches, 0);
    }

    #[test]
    fn probe_is_symmetric() {
        let mut idx = SymmetricHashIndex::new();
        idx.insert(s(1, 7));
        assert_eq!(idx.probe(&r(2, 7), &mut |_| {}).matches, 1);
        assert_eq!(
            idx.probe(&s(3, 7), &mut |_| {}).matches,
            0,
            "same side never matches"
        );
    }

    #[test]
    fn bookkeeping_through_insert_extract_drain() {
        let mut idx = SymmetricHashIndex::new();
        for i in 0..100u64 {
            idx.insert(if i % 2 == 0 {
                r(i, (i / 4) as i64)
            } else {
                s(i, (i / 4) as i64)
            });
        }
        assert_eq!(idx.len(), 100);
        assert_eq!(idx.len_rel(Rel::R), 50);
        assert_eq!(idx.bytes(), 100 * 64);
        let removed = idx.extract(&mut |t| t.seq < 10);
        assert_eq!(removed.len(), 10);
        assert_eq!(idx.len(), 90);
        assert_eq!(idx.bytes(), 90 * 64);
        let rest = idx.drain();
        assert_eq!(rest.len(), 90);
        assert!(idx.is_empty());
        assert_eq!(idx.bytes(), 0);
    }

    #[test]
    fn filter_applies_after_key_match() {
        let mut idx = SymmetricHashIndex::new();
        idx.insert(r(1, 5));
        idx.insert(r(2, 5));
        let mut f = |t: &Tuple| t.seq == 2;
        let stats = idx.probe_filtered(&s(9, 5), &mut f, &mut |_| {});
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.candidates, 2);
    }

    #[test]
    fn probe_batch_equals_independent_probes() {
        let mut idx = SymmetricHashIndex::new();
        for i in 0..200u64 {
            let key = (i as i64 * 13) % 23;
            idx.insert(if i % 4 == 0 { r(i, key) } else { s(i, key) });
        }
        // Heavy key duplication in the probe batch, against key-sides
        // long enough to be runs.
        let probes: Vec<Tuple> = (0..64u64)
            .map(|i| {
                let key = (i as i64 * 7) % 5;
                if i % 2 == 0 {
                    r(1000 + i, key)
                } else {
                    s(1000 + i, key)
                }
            })
            .collect();
        let mut independent = vec![Vec::new(); probes.len()];
        let mut ind_stats = ProbeStats::default();
        for (i, p) in probes.iter().enumerate() {
            ind_stats += idx.probe(p, &mut |m| independent[i].push(m.seq));
        }
        let mut grouped = vec![Vec::new(); probes.len()];
        let idx: &mut dyn JoinIndex = &mut idx;
        let grouped_stats = idx.probe_batch(&probes, &mut |i, m| grouped[i].push(m.seq));
        for (a, b) in independent.iter_mut().zip(grouped.iter_mut()) {
            a.sort_unstable();
            b.sort_unstable();
        }
        assert_eq!(independent, grouped);
        assert_eq!(
            (ind_stats.candidates, ind_stats.matches),
            (grouped_stats.candidates, grouped_stats.matches)
        );
    }

    #[test]
    fn sealed_segments_probe_and_evict() {
        let mut idx = SymmetricHashIndex::new();
        for i in 0..10u64 {
            idx.insert(r(i, 7));
        }
        idx.seal_segment();
        for i in 10..20u64 {
            idx.insert(r(i, 7));
        }
        assert_eq!(idx.sealed_segments(), 1);
        assert_eq!(idx.len(), 20);
        assert_eq!(idx.probe(&s(99, 7), &mut |_| {}).matches, 20);
        let evicted = idx.evict_before(10);
        assert_eq!((evicted.tuples, evicted.bytes), (10, 640));
        assert_eq!(idx.len(), 10);
        assert_eq!(idx.probe(&s(100, 7), &mut |_| {}).matches, 10);
        assert_eq!(idx.bytes(), 10 * 64);
        // Straddling segment stays.
        idx.seal_segment();
        assert_eq!(idx.evict_before(15).tuples, 0);
        assert_eq!(idx.len(), 10);
    }

    #[test]
    fn for_each_visits_everything() {
        let mut idx = SymmetricHashIndex::new();
        idx.insert(r(1, 1));
        idx.insert(s(2, 2));
        let mut n = 0;
        idx.for_each(&mut |_| n += 1);
        assert_eq!(n, 2);
        assert_eq!(idx.snapshot().len(), 2);
    }

    #[test]
    fn iteration_order_is_independent_of_the_salt() {
        // Hot keys (promoted to runs) and cold ones, across a seal: two
        // indexes with independent salts iterate, extract and drain in
        // the same order.
        let tuples: Vec<Tuple> = (0..300u64)
            .map(|i| {
                let key = if i % 3 == 0 { 7 } else { i as i64 * 31 };
                if i % 2 == 0 {
                    r(i, key)
                } else {
                    s(i, key)
                }
            })
            .collect();
        let build = || {
            let mut idx = SymmetricHashIndex::new();
            tuples[..150].iter().for_each(|t| idx.insert(*t));
            idx.seal_segment();
            tuples[150..].iter().for_each(|t| idx.insert(*t));
            idx
        };
        let (mut a, mut b) = (build(), build());
        assert_ne!(a.hash.salt, b.hash.salt);
        assert_eq!(a.snapshot(), b.snapshot());
        let pulled = a.extract(&mut |t| t.seq % 5 == 0);
        assert_eq!(pulled, b.extract(&mut |t| t.seq % 5 == 0));
        assert_eq!(a.drain(), b.drain());
        // With no key-side promoted, iteration is insertion order.
        let cold: Vec<Tuple> = tuples.iter().filter(|t| t.key != 7).copied().collect();
        let mut c = SymmetricHashIndex::new();
        cold.iter().for_each(|t| c.insert(*t));
        assert_eq!(c.snapshot(), cold);
    }

    #[test]
    fn hot_key_sides_promote_and_shrink_back() {
        let mut idx = SymmetricHashIndex::new();
        for i in 0..40u64 {
            idx.insert(r(i, 1));
        }
        assert_eq!(idx.live.arena.runs.len(), 1, "40 tuples promote to a run");
        assert_eq!(idx.probe(&s(99, 1), &mut |_| {}).matches, 40);
        let removed = idx.extract(&mut |t| t.seq >= 3);
        assert_eq!(removed.len(), 37);
        assert!(idx.live.arena.runs.is_empty(), "three tuples are a chain");
        let mut partners = Vec::new();
        idx.probe(&s(100, 1), &mut |t| partners.push(t.seq));
        partners.sort_unstable();
        assert_eq!(partners, vec![0, 1, 2]);
        for i in 40..60u64 {
            idx.insert(r(i, 1));
        }
        assert_eq!(idx.live.arena.runs.len(), 1);
        assert_eq!(idx.probe(&s(101, 1), &mut |_| {}).matches, 23);
    }

    #[test]
    fn stream_batch_pairs_within_the_batch() {
        let mut idx = SymmetricHashIndex::new();
        idx.insert(r(0, 5));
        idx.seal_segment();
        let batch = [s(1, 5), r(2, 5), s(3, 5), s(4, 6)];
        let mut pairs = Vec::new();
        let stats = idx.stream_batch(&batch, &mut |i, run| {
            for m in run {
                pairs.push((batch[i].seq, m.seq))
            }
        });
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 0), (2, 1), (3, 0), (3, 2)]);
        assert_eq!((stats.candidates, stats.matches), (4, 4));
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn stream_batch_hands_over_promoted_runs_whole() {
        // Key 7 holds a run longer than a chain in each of two sealed
        // segments and in the live one; key 8 a three-tuple chain in each
        // sealed segment.
        let mut idx = SymmetricHashIndex::new();
        let hot = 3 * CHAIN_MAX;
        let mut seq = 0u64;
        for _ in 0..2 {
            for _ in 0..hot {
                seq += 1;
                idx.insert(r(seq, 7));
            }
            for _ in 0..3 {
                seq += 1;
                idx.insert(r(seq, 8));
            }
            idx.seal_segment();
        }
        for _ in 0..hot {
            seq += 1;
            idx.insert(r(seq, 7));
        }
        assert_eq!(idx.sealed_segments(), 2);
        let batch = [s(1000, 7), s(1001, 8), s(1002, 9)];
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let stats = idx.stream_batch(&batch, &mut |i, run| runs.push((i, run.len())));
        runs.sort_unstable();
        let mut want = vec![(0, hot); 3];
        want.extend([(1, 1); 6]);
        assert_eq!(runs, want, "a run arrives whole, a chain tuple by tuple");
        let summed: usize = runs.iter().map(|&(_, n)| n).sum();
        assert_eq!(stats.matches, summed as u64);
    }

    #[test]
    #[should_panic(expected = "hash index segment overflow")]
    fn slot_indices_refuse_to_wrap() {
        index_u32(RUN as usize - 1);
    }
}
