//! The process-wide allocator policy of a process that hosts operator
//! tasks.
//!
//! glibc's `malloc` serves a request of at least `M_MMAP_THRESHOLD`
//! bytes (128 KiB at start-up) with a mapping of its own, which `free`
//! hands back to the kernel at once. The threshold is dynamic, though:
//! the first free of such a mapped block raises it to that block's size,
//! up to 32 MiB. A windowed session frees large blocks all the time —
//! expired sub-window arenas and their key maps, `extract` rebuilds,
//! migration snapshots and outboxes — so after its first eviction every
//! one of those buffers comes from the heap instead, and the holes they
//! leave behind stay resident. Setting the threshold explicitly turns
//! the adjustment off, so the process's memory follows its window.

/// Pin glibc's mmap threshold at its initial 128 KiB, once per process.
///
/// Every session launch and every TCP worker calls this. A no-op off
/// glibc; an application with its own `#[global_allocator]` never sends
/// Rust's allocations to `malloc`, so only its C allocations see it.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        use std::sync::Once;

        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        /// `M_MMAP_THRESHOLD` in glibc's `<malloc.h>`.
        const M_MMAP_THRESHOLD: c_int = -3;

        static PIN: Once = Once::new();
        PIN.call_once(|| {
            // SAFETY: `mallopt` takes two plain integers, touches only
            // glibc's own malloc parameters under its own lock, and is
            // callable from any thread at any time; the declaration
            // matches `<malloc.h>`'s `int mallopt(int, int)`.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 128 << 10);
            }
        });
    }
}
