//! Opening a session pins glibc's mmap threshold, so a large block freed
//! later still goes back to the OS. Its own test binary: the threshold
//! is process-wide state that any earlier test's frees would move.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use std::hint::black_box;

use aoj_operators::{JoinSession, OperatorKind, SessionBuilder};

/// glibc's `struct mallinfo2` (`<malloc.h>`, glibc ≥ 2.33).
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    /// Bytes in blocks served by their own `mmap`.
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

fn mmapped_bytes() -> usize {
    // SAFETY: `mallinfo2` takes no arguments and returns a plain struct
    // by value; `MallInfo2` mirrors its layout.
    unsafe { mallinfo2() }.hblkhd
}

/// A `len`-byte block, every byte written so its pages are resident.
fn touched(len: usize) -> Vec<u8> {
    black_box(vec![0xA5u8; len])
}

#[test]
fn a_freed_large_block_leaves_the_next_one_mmapped() {
    JoinSession::open(SessionBuilder::new(2, OperatorKind::Dynamic)).close();
    // Unpinned, this free raises the threshold to 8 MiB.
    drop(touched(8 << 20));
    let before = mmapped_bytes();
    let block = touched(1 << 20);
    let after = mmapped_bytes();
    assert!(
        after >= before + (1 << 20),
        "the 1 MiB block came from the heap (hblkhd {before} -> {after}), \
         so freed large blocks stay resident"
    );
    drop(block);
}
