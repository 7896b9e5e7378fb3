//! Streaming heavy-hitter sketches for skew detection: one mergeable
//! SpaceSaving summary per relation.
//!
//! The reshufflers cannot afford exact per-key accounting — the key domain
//! is unbounded and the paper's migration trigger (Alg. 2) only sees total
//! stored bytes, which is blind to skew. `SpaceSaving` (Metwally et al.)
//! replaces exact accounting with `k` counters: every key whose weight
//! exceeds `N/k` is tracked, and no estimate overshoots the weight it was
//! fed by more than `N/k`. [`SkewSketch`] keeps one per relation, answers
//! "which keys are hot?" ([`SkewSketch::hot_keys`]), and carries a flat
//! `Vec<u64>` wire form (`to_parts` / `from_parts`) so shards can ride the
//! existing gauge-sample frames.
//!
//! The sketch is observability only: routing never reads it, so a
//! reshuffler feeds it a Bernoulli(1/s) sample of its tuples, each
//! weighted `s × bytes`. The weight fed per key (and in total) is an
//! unbiased estimate of the true bytes, with a relative standard error of
//! about `√(s / (share · n))` for a key carrying `share` of `n` routed
//! tuples, on top of SpaceSaving's `N/k` overestimate.
//!
//! Summaries merge **deterministically**: merging the per-shard sketches
//! of a threaded or TCP run yields the same summary regardless of machine
//! interleaving, the same way `SharedGauges` snapshots combine.

use std::collections::HashMap;

/// One tracked heavy-hitter: the key, its estimated weight, and the
/// maximum overestimation error baked into that estimate.
///
/// The true weight `w` of `key` satisfies `estimate - err <= w <= estimate`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeavyHitter {
    /// The tracked key.
    pub key: i64,
    /// Estimated total weight routed for this key (upper bound on truth).
    pub estimate: u64,
    /// Maximum overestimation: `estimate - err` lower-bounds the truth.
    pub err: u64,
}

#[derive(Clone, Copy, Debug)]
struct Counter {
    key: i64,
    count: u64,
    err: u64,
}

/// Mergeable SpaceSaving heavy-hitter summary over weighted updates.
///
/// Maintains at most `k` counters. Guarantees after observing total
/// weight `N`:
///
/// * every key with true weight `> N/k` is tracked (no false negatives),
/// * for every tracked key, `estimate >= truth` and
///   `estimate - truth <= err <= N/k`.
///
/// [`SpaceSaving::merge`] follows the mergeable-summaries construction
/// (Agarwal et al.): a key absent from a saturated summary contributes
/// that summary's minimum counter, then the union is truncated back to
/// the top `k` with a deterministic `(count desc, key asc)` order, which
/// preserves the combined `N/k` error bound and makes the result
/// independent of merge interleaving.
#[derive(Clone, Debug)]
pub(crate) struct SpaceSaving {
    cap: usize,
    total: u64,
    counters: Vec<Counter>,
    index: HashMap<i64, usize>,
}

impl SpaceSaving {
    /// Creates a summary tracking at most `cap` keys (`cap >= 1`).
    pub(crate) fn new(cap: usize) -> SpaceSaving {
        assert!(cap >= 1, "SpaceSaving capacity must be at least 1");
        SpaceSaving {
            cap,
            total: 0,
            counters: Vec::with_capacity(cap),
            index: HashMap::with_capacity(cap),
        }
    }

    /// Total weight observed (the `N` in the `N/k` bounds).
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Records `weight` for `key`.
    pub(crate) fn observe(&mut self, key: i64, weight: u64) {
        self.total += weight;
        if let Some(&i) = self.index.get(&key) {
            self.counters[i].count += weight;
            return;
        }
        if self.counters.len() < self.cap {
            self.index.insert(key, self.counters.len());
            self.counters.push(Counter {
                key,
                count: weight,
                err: 0,
            });
            return;
        }
        // Evict the minimum counter: the newcomer inherits its count as
        // error, which is what makes the estimate an upper bound.
        let (mut min_i, mut min_c) = (0usize, self.counters[0].count);
        for (i, c) in self.counters.iter().enumerate().skip(1) {
            if c.count < min_c {
                min_i = i;
                min_c = c.count;
            }
        }
        let evicted = self.counters[min_i].key;
        self.index.remove(&evicted);
        self.index.insert(key, min_i);
        self.counters[min_i] = Counter {
            key,
            count: min_c + weight,
            err: min_c,
        };
    }

    /// Upper bound on the weight of any untracked key.
    fn floor(&self) -> u64 {
        if self.counters.len() < self.cap {
            0
        } else {
            self.counters.iter().map(|c| c.count).min().unwrap_or(0)
        }
    }

    /// All tracked keys with `estimate >= threshold`, heaviest first
    /// (ties broken by ascending key, so the order is deterministic).
    pub(crate) fn heavy_hitters(&self, threshold: u64) -> Vec<HeavyHitter> {
        let mut out: Vec<HeavyHitter> = self
            .counters
            .iter()
            .filter(|c| c.count >= threshold)
            .map(|c| HeavyHitter {
                key: c.key,
                estimate: c.count,
                err: c.err,
            })
            .collect();
        out.sort_by(|a, b| b.estimate.cmp(&a.estimate).then(a.key.cmp(&b.key)));
        out
    }

    /// Merges `other` into `self`. Deterministic: the result is a pure
    /// function of the two summaries (no randomness, no dependence on
    /// thread interleaving), so folding per-shard sketches in a fixed slot
    /// order reproduces bit-identical results across runs. Folding in a
    /// *different* order can shift estimates within the error floor
    /// (intermediate truncation), but the combined `N/k` bound and the
    /// no-false-negative guarantee hold for any order.
    pub(crate) fn merge(&mut self, other: &SpaceSaving) {
        assert_eq!(
            self.cap, other.cap,
            "cannot merge SpaceSaving summaries of different capacities"
        );
        let self_floor = self.floor();
        let other_floor = other.floor();
        let mut union: HashMap<i64, Counter> = HashMap::with_capacity(self.cap * 2);
        for c in &self.counters {
            let (oc, oe) = match other.index.get(&c.key) {
                Some(&i) => (other.counters[i].count, other.counters[i].err),
                None => (other_floor, other_floor),
            };
            union.insert(
                c.key,
                Counter {
                    key: c.key,
                    count: c.count + oc,
                    err: c.err + oe,
                },
            );
        }
        for c in &other.counters {
            union.entry(c.key).or_insert(Counter {
                key: c.key,
                count: c.count + self_floor,
                err: c.err + self_floor,
            });
        }
        let mut merged: Vec<Counter> = union.into_values().collect();
        merged.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        merged.truncate(self.cap);
        self.total += other.total;
        self.counters = merged;
        self.index = self
            .counters
            .iter()
            .enumerate()
            .map(|(i, c)| (c.key, i))
            .collect();
    }
}

/// Configuration for a [`SkewSketch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewConfig {
    /// SpaceSaving capacity per relation (the `k` in the `N/k` bounds).
    pub keys: usize,
    /// A key is *hot* when its combined estimate exceeds
    /// `hot_num/hot_den` of the total observed weight.
    pub hot_num: u32,
    /// Denominator of the hot fraction.
    pub hot_den: u32,
    /// No key is reported hot before this much total weight is observed
    /// (avoids declaring the first few tuples "hot").
    pub min_total: u64,
}

impl Default for SkewConfig {
    fn default() -> SkewConfig {
        SkewConfig {
            keys: 64,
            // 5% of the stream: well above N/k for k=64, so the
            // SpaceSaving no-false-negative guarantee applies.
            hot_num: 1,
            hot_den: 20,
            min_total: 64 << 10,
        }
    }
}

impl SkewConfig {
    /// The hot threshold in absolute weight for a given observed total.
    pub(crate) fn threshold(&self, total: u64) -> u64 {
        ((total as u128 * self.hot_num as u128) / self.hot_den.max(1) as u128) as u64
    }
}

/// Which relation an observed tuple belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkewRel {
    /// The build side (R).
    R,
    /// The probe side (S).
    S,
}

/// Per-reshuffler skew summary: one SpaceSaving per relation, with a flat
/// `u64` wire form. A key's load is its combined (R+S) estimate.
#[derive(Clone, Debug)]
pub struct SkewSketch {
    cfg: SkewConfig,
    r: SpaceSaving,
    s: SpaceSaving,
}

impl SkewSketch {
    /// Creates an empty sketch with the given configuration.
    pub fn new(cfg: SkewConfig) -> SkewSketch {
        SkewSketch {
            cfg,
            r: SpaceSaving::new(cfg.keys),
            s: SpaceSaving::new(cfg.keys),
        }
    }

    /// Total observed weight across both relations.
    pub fn total(&self) -> u64 {
        self.r.total() + self.s.total()
    }

    /// Records `weight` for `key` on relation `rel`: a routed tuple's
    /// bytes, or those bytes scaled by the sampling stride.
    pub fn observe(&mut self, rel: SkewRel, key: i64, weight: u64) {
        match rel {
            SkewRel::R => self.r.observe(key, weight),
            SkewRel::S => self.s.observe(key, weight),
        }
    }

    /// Heavy hitters over the combined estimate, heaviest first.
    pub fn hot_keys(&self) -> Vec<HeavyHitter> {
        let total = self.total();
        if total < self.cfg.min_total {
            return Vec::new();
        }
        let threshold = self.cfg.threshold(total).max(1);
        let mut by_key: HashMap<i64, HeavyHitter> = HashMap::new();
        for hh in self
            .r
            .heavy_hitters(1)
            .into_iter()
            .chain(self.s.heavy_hitters(1))
        {
            let e = by_key.entry(hh.key).or_insert(HeavyHitter {
                key: hh.key,
                estimate: 0,
                err: 0,
            });
            e.estimate += hh.estimate;
            e.err += hh.err;
        }
        let mut out: Vec<HeavyHitter> = by_key
            .into_values()
            .filter(|h| h.estimate >= threshold)
            .collect();
        out.sort_by(|a, b| b.estimate.cmp(&a.estimate).then(a.key.cmp(&b.key)));
        out
    }

    /// Merges `other` into `self`. Deterministic across shard orderings.
    pub fn merge(&mut self, other: &SkewSketch) {
        self.r.merge(&other.r);
        self.s.merge(&other.s);
    }

    /// Flattens the sketch into a `u64` vector for the wire. Inverse of
    /// [`SkewSketch::from_parts`].
    pub fn to_parts(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(7 + (self.r.counters.len() + self.s.counters.len()) * 3);
        out.push(self.cfg.keys as u64);
        out.push(((self.cfg.hot_num as u64) << 32) | self.cfg.hot_den as u64);
        out.push(self.cfg.min_total);
        for ss in [&self.r, &self.s] {
            out.push(ss.total);
            out.push(ss.counters.len() as u64);
            for c in &ss.counters {
                out.push(c.key as u64);
                out.push(c.count);
                out.push(c.err);
            }
        }
        out
    }

    /// Rebuilds a sketch from [`SkewSketch::to_parts`] output. Returns
    /// `None` on malformed input (truncated or inconsistent lengths).
    pub fn from_parts(parts: &[u64]) -> Option<SkewSketch> {
        let mut it = parts.iter().copied();
        let mut next = || it.next();
        let keys = next()? as usize;
        let hot = next()?;
        let min_total = next()?;
        if keys == 0 {
            return None;
        }
        let cfg = SkewConfig {
            keys,
            hot_num: (hot >> 32) as u32,
            hot_den: hot as u32,
            min_total,
        };
        let mut sketch = SkewSketch::new(cfg);
        for ss in [&mut sketch.r, &mut sketch.s] {
            ss.total = next()?;
            let n = next()? as usize;
            if n > keys {
                return None;
            }
            for _ in 0..n {
                let key = next()? as i64;
                let count = next()?;
                let err = next()?;
                ss.index.insert(key, ss.counters.len());
                ss.counters.push(Counter { key, count, err });
            }
        }
        if it.next().is_some() {
            return None;
        }
        Some(sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Oracles of the error-bound tests; the operator reads only `heavy_hitters`.
    impl SpaceSaving {
        /// Estimated weight for `key`: the tracked upper bound, or the
        /// summary-wide floor (minimum counter when saturated, else 0).
        fn estimate(&self, key: i64) -> u64 {
            match self.index.get(&key) {
                Some(&i) => self.counters[i].count,
                None => self.floor(),
            }
        }

        /// Whether `key` is tracked with an estimate at or above `threshold`.
        ///
        /// For any `threshold > total()/capacity()` this has no false
        /// negatives: a key whose true weight reaches `threshold` is
        /// guaranteed to be tracked and to report `true` here.
        fn is_heavy(&self, key: i64, threshold: u64) -> bool {
            match self.index.get(&key) {
                Some(&i) => self.counters[i].count >= threshold,
                None => false,
            }
        }
    }

    fn true_counts(stream: &[(i64, u64)]) -> HashMap<i64, u64> {
        let mut m = HashMap::new();
        for &(k, w) in stream {
            *m.entry(k).or_insert(0) += w;
        }
        m
    }

    #[test]
    fn spacesaving_tracks_an_obvious_heavy_hitter() {
        let mut ss = SpaceSaving::new(8);
        for i in 0..1000i64 {
            ss.observe(i % 100, 1);
            ss.observe(7, 4); // key 7 gets ~80% of the weight
        }
        let n = ss.total();
        assert!(ss.is_heavy(7, n / 8));
        let hits = ss.heavy_hitters(n / 8);
        assert_eq!(hits[0].key, 7);
        assert!(hits[0].estimate >= 4000);
    }

    #[test]
    fn spacesaving_merge_is_order_independent() {
        let mut rng = StdRng::seed_from_u64(9);
        let stream: Vec<(i64, u64)> = (0..4000)
            .map(|_| (rng.gen_range(0..50), rng.gen_range(1..16)))
            .collect();
        let mut shards: Vec<SpaceSaving> = (0..4).map(|_| SpaceSaving::new(16)).collect();
        for (i, &(k, w)) in stream.iter().enumerate() {
            shards[i % 4].observe(k, w);
        }
        let mut fwd = shards[0].clone();
        for s in &shards[1..] {
            fwd.merge(s);
        }
        // Determinism: the same fold order reproduces bit-identical state.
        let mut again = shards[0].clone();
        for s in &shards[1..] {
            again.merge(s);
        }
        assert_eq!(fwd.heavy_hitters(0), again.heavy_hitters(0));
        // A different fold order may shift estimates within the error
        // floor, but totals agree and genuinely heavy keys agree.
        let mut rev = shards[3].clone();
        for s in shards[..3].iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd.total(), rev.total());
        let n = fwd.total();
        let ha: Vec<i64> = fwd.heavy_hitters(n / 8).iter().map(|h| h.key).collect();
        let hb: Vec<i64> = rev.heavy_hitters(n / 8).iter().map(|h| h.key).collect();
        assert_eq!(ha, hb);
    }

    #[test]
    fn hot_keys_separate_uniform_from_zipf() {
        let mut uniform = SkewSketch::new(SkewConfig {
            min_total: 0,
            ..SkewConfig::default()
        });
        let mut skewed = SkewSketch::new(SkewConfig {
            min_total: 0,
            ..SkewConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20_000 {
            uniform.observe(SkewRel::R, rng.gen_range(0..512), 64);
            // 40% of the skewed stream hits key 0.
            let key = if rng.gen_range(0..10) < 4 {
                0
            } else {
                rng.gen_range(1..512)
            };
            skewed.observe(SkewRel::S, key, 64);
        }
        let hot: Vec<i64> = skewed.hot_keys().iter().map(|h| h.key).collect();
        assert_eq!(hot, [0]);
        assert!(uniform.hot_keys().is_empty());
    }

    #[test]
    fn parts_round_trip_preserves_estimates() {
        let mut sk = SkewSketch::new(SkewConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5000 {
            sk.observe(SkewRel::R, rng.gen_range(0..64), rng.gen_range(1..256));
            sk.observe(SkewRel::S, rng.gen_range(0..64), rng.gen_range(1..256));
        }
        let parts = sk.to_parts();
        let back = SkewSketch::from_parts(&parts).expect("round trip");
        assert_eq!(back.to_parts(), parts);
        assert_eq!(back.total(), sk.total());
        assert_eq!(back.hot_keys(), sk.hot_keys());
        // Malformed inputs are rejected, not mis-parsed.
        assert!(SkewSketch::from_parts(&parts[..parts.len() - 1]).is_none());
        assert!(SkewSketch::from_parts(&[]).is_none());
    }

    #[test]
    fn merged_parts_equal_merged_sketches() {
        let mut a = SkewSketch::new(SkewConfig::default());
        let mut b = SkewSketch::new(SkewConfig::default());
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..3000 {
            a.observe(SkewRel::R, rng.gen_range(0..40), 100);
            b.observe(SkewRel::S, rng.gen_range(0..40), 100);
        }
        let via_parts = {
            let mut m = SkewSketch::from_parts(&a.to_parts()).unwrap();
            m.merge(&SkewSketch::from_parts(&b.to_parts()).unwrap());
            m
        };
        let mut direct = a.clone();
        direct.merge(&b);
        assert_eq!(via_parts.to_parts(), direct.to_parts());
    }

    proptest! {
        /// SpaceSaving pin: any key whose true weight strictly exceeds
        /// N/k is tracked, and every tracked estimate overshoots the
        /// truth by at most N/k.
        #[test]
        fn spacesaving_error_bounds(
            stream in prop::collection::vec((0i64..200, 1u64..64), 1..2000),
            cap in 4usize..48,
        ) {
            let mut ss = SpaceSaving::new(cap);
            for &(k, w) in &stream {
                ss.observe(k, w);
            }
            let truth = true_counts(&stream);
            let n = ss.total();
            prop_assert_eq!(n, truth.values().sum::<u64>());
            let bound = n / cap as u64;
            for (&k, &t) in &truth {
                let est = ss.estimate(k);
                // No underestimates, tracked or not: untracked keys
                // report the floor, which upper-bounds their true weight.
                prop_assert!(est >= t, "key {} underestimated: {} < {}", k, est, t);
                if ss.index.contains_key(&k) {
                    prop_assert!(est - t <= bound, "key {} err {} > N/k {}", k, est - t, bound);
                }
                if t > bound {
                    prop_assert!(
                        ss.is_heavy(k, t),
                        "heavy key {} (true {}) missing above N/k={}", k, t, bound
                    );
                }
            }
        }

        /// Merged summaries keep the combined-N/k error bound and still
        /// have no false negatives above it.
        #[test]
        fn spacesaving_merge_error_bounds(
            stream in prop::collection::vec((0i64..120, 1u64..32), 2..1500),
            cap in 8usize..32,
        ) {
            let mut a = SpaceSaving::new(cap);
            let mut b = SpaceSaving::new(cap);
            for (i, &(k, w)) in stream.iter().enumerate() {
                if i % 2 == 0 { a.observe(k, w) } else { b.observe(k, w) }
            }
            let mut m = a.clone();
            m.merge(&b);
            let truth = true_counts(&stream);
            let n: u64 = truth.values().sum();
            prop_assert_eq!(m.total(), n);
            let bound = 2 * (n / cap as u64) + 2; // combined bound across two shards
            for (&k, &t) in &truth {
                if m.index.contains_key(&k) {
                    let est = m.estimate(k);
                    prop_assert!(est >= t, "merged key {} underestimated", k);
                    prop_assert!(est - t <= bound, "merged key {} err {} > {}", k, est - t, bound);
                }
                if t > bound {
                    prop_assert!(m.index.contains_key(&k), "merged heavy key {} missing", k);
                }
            }
        }
    }
}
