//! Pins what the hash index costs the allocator: live heap bytes per
//! stored tuple and the number of allocation calls, counted by a
//! `#[global_allocator]` wrapper — the memory figure for this index
//! (the benchmark's `joinalg.hash.heap_bytes_per_tuple` is an RSS delta,
//! which moves with whatever pages the allocator kept from an earlier
//! pass).
//!
//! Its own integration-test binary, one `#[test]`: the counters are
//! process-global, so nothing may allocate beside the measured loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use aoj_core::predicate::Predicate;
use aoj_core::ticket::mix64;
use aoj_core::tuple::{Rel, Tuple};
use aoj_joinalg::index_for;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counters are a
// side-effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `n` tuples, relation and key drawn uniformly (`keys` of them).
fn stream(n: u64, keys: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let h = mix64(i ^ keys << 32);
            let rel = if h & 1 == 0 { Rel::R } else { Rel::S };
            Tuple::new(rel, i, ((h >> 1) % keys) as i64, h)
        })
        .collect()
}

/// Stream `tuples` through a fresh equi index in 64-tuple batches, as a
/// joiner does; returns (live heap bytes per stored tuple, alloc +
/// realloc calls).
fn measure(tuples: &[Tuple]) -> (f64, u64) {
    let (live0, calls0) = (LIVE.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    let mut idx = index_for(&Predicate::Equi);
    for batch in tuples.chunks(64) {
        idx.stream_batch(batch, &mut |_, _| {});
    }
    let live = LIVE.load(Ordering::Relaxed) - live0;
    let calls = CALLS.load(Ordering::Relaxed) - calls0;
    assert_eq!(idx.len(), tuples.len());
    (live as f64 / tuples.len() as f64, calls)
}

#[test]
fn hash_index_heap_per_stored_tuple() {
    // The benchmark replay's shape: ~1.6 tuples per key, ~0.8 per
    // key-side, nearly every key-side a short chain.
    let (per_tuple, calls) = measure(&stream(200_000, 125_000));
    assert!(
        per_tuple <= 96.0,
        "125k keys: {per_tuple:.1} live heap bytes per stored tuple"
    );
    assert!(
        calls < 1_000,
        "125k keys: {calls} alloc/realloc calls — an allocation per key is back"
    );
    // Dense keys: every key-side is promoted to a run of its own.
    let (per_tuple, _) = measure(&stream(250_000, 2_000));
    assert!(
        per_tuple <= 72.0,
        "2k keys: {per_tuple:.1} live heap bytes per stored tuple"
    );
}
