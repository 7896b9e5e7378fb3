//! Pins the tentpole claim of the pooled wire codec: once a frame
//! buffer has been sized by its first use, re-encoding data-plane
//! frames into it performs **zero heap allocations**. A counting
//! `#[global_allocator]` wrapper measures the steady-state loop
//! directly, so any future encoder edit that sneaks a `to_vec()`, a
//! fresh `Vec`, or a format! into the hot path fails this test rather
//! than silently regressing the TCP backend.
//!
//! This lives in its own integration-test binary because the allocator
//! hook is process-global: here the counted loop is the only thing
//! running, so a non-zero delta is a real allocation in the encode
//! path, not a neighbouring test's noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use aoj_core::tuple::{Rel, Tuple};
use aoj_net::wire::{append_frame, GaugeSample, TaskMsg, Wire, K_GAUGES, K_TASK_MSG};
use aoj_operators::messages::{IngestItem, OpMsg};
use aoj_simnet::{SimTime, TaskId};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter is a
// side-effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn tuple(i: u64) -> Tuple {
    let rel = if i.is_multiple_of(2) { Rel::R } else { Rel::S };
    Tuple::new(rel, i, (i as i64 * 37) % 1_000, i)
}

/// The data-plane message shapes the TCP hot path ships continuously.
fn hot_messages() -> Vec<TaskMsg> {
    let (from, to) = (TaskId(3), TaskId(9));
    [
        OpMsg::IngestBatch {
            items: (0..64u64)
                .map(|i| IngestItem {
                    rel: if i.is_multiple_of(2) { Rel::R } else { Rel::S },
                    key: (i as i64 * 31) % 1_000,
                    aux: i as i32,
                    bytes: 96,
                    seq: i,
                })
                .collect(),
            stamp: Some((63, 32, 32)),
        },
        OpMsg::DataBatch {
            tag: 3,
            store: true,
            tuples: (0..64).map(tuple).collect(),
            arrived: (0..64).map(SimTime).collect(),
        },
        OpMsg::MigBatch {
            tuples: (0..64).map(tuple).collect(),
        },
        OpMsg::ProcessedCopies { n: 64 },
    ]
    .into_iter()
    .map(|msg| (from, to, msg))
    .collect()
}

#[test]
fn steady_state_frame_encode_is_allocation_free() {
    let msgs = hot_messages();

    // Warm-up: size the reused buffers exactly like the machine loop's
    // first staging pass does.
    let mut frame_buf = Vec::new();
    let mut payload_buf = Vec::new();
    for m in &msgs {
        append_frame(&mut frame_buf, K_TASK_MSG, m);
        m.encode_into(&mut payload_buf);
    }
    let mut gauge_buf = Vec::new();
    let gauge = GaugeSample {
        machine: 2,
        gauges: [123, 45, 678, 9],
        data_processed: 9_000,
        // Empty on most samples: a worker only carries parts once its
        // reshufflers have published a sketch, and an idle steady state
        // ships the same (possibly empty) parts each round.
        skew_parts: Vec::new(),
    };
    append_frame(&mut gauge_buf, K_GAUGES, &gauge);

    // Steady state: coalesce all hot shapes into the frame buffer, ship,
    // return, repeat. Not one byte may come from the allocator.
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        frame_buf.clear();
        for m in &msgs {
            append_frame(&mut frame_buf, K_TASK_MSG, m);
        }
        payload_buf.clear();
        msgs[1].encode_into(&mut payload_buf);
        gauge_buf.clear();
        append_frame(&mut gauge_buf, K_GAUGES, &gauge);
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state frame encode hit the allocator {delta} times over \
         1000 iterations — the pooled hot path is no longer allocation-free"
    );
    assert!(!frame_buf.is_empty() && !payload_buf.is_empty());
}
