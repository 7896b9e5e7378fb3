//! Ticket-based nested partitioning.
//!
//! A reshuffler assigns every incoming tuple a uniformly random 64-bit
//! **ticket**. The tuple's partition among `p` partitions (`p` a power of
//! two) is the ticket's leading `log2 p` bits. Because the partition at
//! granularity `2p` refines the partition at granularity `p` by exactly one
//! more bit, the grid migrations of §4.2.1 become coordination-free:
//!
//! * when a relation's partition count **halves** (coarsening), sibling
//!   partitions `2i` and `2i+1` merge into `i` — realised by the pairwise
//!   *exchange* of Lemma 4.4;
//! * when it **doubles** (refinement), each joiner *discards* exactly the
//!   tuples whose next ticket bit does not match its new grid coordinate —
//!   deterministically, with zero communication, as required by §4.3.
//!
//! Tickets are drawn with a SplitMix64 generator: tiny, seedable, and good
//! enough statistically for load balancing (the paper's bounds hold "in
//! expectation with high probability" for any uniform assignment).

/// Partition index of `ticket` among `parts` partitions.
///
/// `parts` must be a power of two. The index is the leading `log2 parts`
/// bits of the ticket, so partitions nest as `parts` doubles.
#[inline]
pub fn partition(ticket: u64, parts: u32) -> u32 {
    debug_assert!(parts.is_power_of_two(), "parts must be a power of two");
    if parts <= 1 {
        return 0;
    }
    let bits = parts.trailing_zeros();
    (ticket >> (64 - bits)) as u32
}

/// The bit that decides which child a tuple falls into when its relation's
/// partition count doubles from `parts` to `2 * parts`:
/// `partition(t, 2p) == partition(t, p) * 2 + refine_bit(t, p)`.
#[inline]
pub(crate) fn refine_bit(ticket: u64, parts: u32) -> u32 {
    debug_assert!(parts.is_power_of_two());
    let bits = parts.trailing_zeros();
    ((ticket >> (63 - bits)) & 1) as u32
}

/// A tiny deterministic ticket generator (SplitMix64). Each reshuffler owns
/// one, seeded differently, so ticket draws are independent across
/// reshufflers yet the whole run stays reproducible.
#[derive(Clone, Debug)]
pub struct TicketGen {
    state: u64,
}

impl TicketGen {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> TicketGen {
        TicketGen {
            // Avoid the all-zero fixed point for seed 0.
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Draw the next uniformly distributed ticket.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A stateless 64-bit mixer used where a tuple needs a *second* independent
/// uniform value (e.g. choosing the storage group in §4.2.2 independently
/// of the in-group partition).
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_of_one_is_zero() {
        assert_eq!(partition(u64::MAX, 1), 0);
        assert_eq!(partition(0, 1), 0);
    }

    #[test]
    fn partition_uses_leading_bits() {
        // Ticket with the top two bits 10...
        let t = 0b10u64 << 62;
        assert_eq!(partition(t, 2), 1);
        assert_eq!(partition(t, 4), 2);
        assert_eq!(partition(t, 8), 4);
    }

    #[test]
    fn refinement_is_consistent() {
        let mut gen = TicketGen::new(42);
        for _ in 0..10_000 {
            let t = gen.next();
            for bits in 0..8 {
                let p = 1u32 << bits;
                assert_eq!(
                    partition(t, 2 * p),
                    partition(t, p) * 2 + refine_bit(t, p),
                    "nesting violated for ticket {t:#x} at {p} parts"
                );
            }
        }
    }

    #[test]
    fn partitions_are_roughly_balanced() {
        let mut gen = TicketGen::new(7);
        let parts = 16u32;
        let mut counts = vec![0u32; parts as usize];
        let n = 160_000;
        for _ in 0..n {
            counts[partition(gen.next(), parts) as usize] += 1;
        }
        let expected = n / parts;
        for (i, c) in counts.iter().enumerate() {
            let dev = (*c as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.05, "partition {i} off by {dev:.3}");
        }
    }

    #[test]
    fn ticketgen_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut g = TicketGen::new(1);
            (0..5).map(|_| g.next()).collect()
        };
        let b: Vec<u64> = {
            let mut g = TicketGen::new(1);
            (0..5).map(|_| g.next()).collect()
        };
        let c: Vec<u64> = {
            let mut g = TicketGen::new(2);
            (0..5).map(|_| g.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mix64_spreads_sequential_inputs() {
        // Adjacent inputs should land in different halves often enough.
        let mut flips = 0;
        for x in 0..1000u64 {
            if (mix64(x) >> 63) != (mix64(x + 1) >> 63) {
                flips += 1;
            }
        }
        assert!(flips > 400, "only {flips} sign flips in 1000");
    }
}
