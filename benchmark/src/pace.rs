//! Open-loop slot arithmetic.
//!
//! An open-loop generator offers tuples on a fixed schedule that never
//! slows with the system under test. Every tuple has a **slot** — the
//! instant it was due — computed from its index alone, and latency is
//! counted from the slot, not from the (possibly delayed) push: a stall
//! charges every tuple that was due during it.

/// Most tuples pushed together on the paced path.
pub const MAX_CHUNK: u64 = 16;
/// Tuples due within this span are pushed together: 16 at 50k tuples/s
/// and above, one at a time at 4k. A fixed chunk of 16 at a low rate
/// would offer a burst every few milliseconds and leave only two or
/// three distinct slots per latency segment.
const CHUNK_SPAN_NS: u64 = 320_000;

/// A fixed-rate schedule: tuple `i` is due `slot_ns(i)` after the start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    rate_tps: u64,
    chunk: u64,
}

impl Schedule {
    /// A schedule offering `rate_tps` tuples per second.
    pub fn new(rate_tps: u64) -> Schedule {
        assert!(rate_tps > 0, "an open loop needs a rate");
        let chunk = (rate_tps * CHUNK_SPAN_NS / 1_000_000_000).clamp(1, MAX_CHUNK);
        Schedule { rate_tps, chunk }
    }

    /// Tuples pushed together, sharing one slot.
    pub fn chunk(&self) -> usize {
        self.chunk as usize
    }

    /// When tuple `seq` is due, in nanoseconds after the start. Tuples
    /// of one chunk share the chunk's slot (they are pushed together);
    /// computed by multiplication from the index so rounding never
    /// accumulates into drift.
    pub fn slot_ns(&self, seq: u64) -> u64 {
        let chunk_start = seq - seq % self.chunk;
        (chunk_start as u128 * 1_000_000_000 / self.rate_tps as u128) as u64
    }

    /// Tuples a run of `seconds` offers, rounded down to whole chunks.
    pub fn tuples_in(&self, seconds: f64) -> usize {
        let n = (self.rate_tps as f64 * seconds) as usize;
        n - n % self.chunk()
    }
}

/// How late the generator itself ran: the distance between each chunk's
/// slot and the instant its push began.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lateness {
    /// Chunks offered.
    pub chunks: u64,
    /// Chunks whose push began more than [`Lateness::LATE_NS`] late.
    pub late_chunks: u64,
    /// Worst lag seen.
    pub max_lag_ns: u64,
}

impl Lateness {
    /// A chunk counts as late once its push begins this long after its
    /// slot (two thirds of a chunk interval at 50k tuples/s).
    pub const LATE_NS: u64 = 200_000;

    /// Record that a chunk due at `slot_ns` began its push at `now_ns`.
    pub fn record(&mut self, slot_ns: u64, now_ns: u64) {
        let lag = now_ns.saturating_sub(slot_ns);
        self.chunks += 1;
        self.late_chunks += (lag > Self::LATE_NS) as u64;
        self.max_lag_ns = self.max_lag_ns.max(lag);
    }

    /// Share of chunks that began late.
    pub fn late_frac(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.late_chunks as f64 / self.chunks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_the_rate_without_drift() {
        let s = Schedule::new(80_000);
        assert_eq!(s.slot_ns(0), 0);
        // One chunk of 16 at 80k/s is 200 µs.
        assert_eq!(s.slot_ns(16), 200_000);
        // Every tuple of a chunk shares its slot.
        assert_eq!(s.slot_ns(17), 200_000);
        assert_eq!(s.slot_ns(31), 200_000);
        // 40 s in: exact, no accumulated rounding.
        assert_eq!(s.slot_ns(3_200_000), 40_000_000_000);
        // A rate that does not divide a second still never drifts.
        let odd = Schedule::new(70_001);
        let n = 70_001u64 * 16;
        assert_eq!(odd.slot_ns(n), 16_000_000_000);
    }

    #[test]
    fn run_length_is_whole_chunks() {
        let s = Schedule::new(80_000);
        assert_eq!(s.tuples_in(40.0), 3_200_000);
        assert_eq!(Schedule::new(50_000).tuples_in(0.00065), 32);
        assert_eq!(Schedule::new(20_000).tuples_in(0.001), 18);
    }

    #[test]
    fn chunks_span_a_third_of_a_millisecond_up_to_sixteen() {
        assert_eq!(Schedule::new(4_000).chunk(), 1);
        assert_eq!(Schedule::new(20_000).chunk(), 6);
        assert_eq!(Schedule::new(50_000).chunk(), 16);
        assert_eq!(Schedule::new(400_000).chunk(), 16);
        // One tuple at a time: every tuple has its own slot.
        assert_eq!(Schedule::new(4_000).slot_ns(3), 750_000);
    }

    #[test]
    fn lateness_counts_from_the_slot() {
        let mut l = Lateness::default();
        l.record(1_000, 900); // early: no lag
        l.record(2_000, 2_000 + Lateness::LATE_NS); // on the edge: not late
        l.record(3_000, 3_001 + Lateness::LATE_NS);
        assert_eq!((l.chunks, l.late_chunks), (3, 1));
        assert_eq!(l.max_lag_ns, Lateness::LATE_NS + 1);
        assert!((l.late_frac() - 1.0 / 3.0).abs() < 1e-12);
    }
}
