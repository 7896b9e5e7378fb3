//! The network model: bandwidth-limited sender NICs plus constant
//! propagation latency.
//!
//! Every machine owns one egress link. Outgoing messages serialise on it in
//! send order (`nic_free_at` advances by `bytes / bandwidth`), then arrive
//! after a constant propagation latency. Two consequences matter to the
//! layers above:
//!
//! 1. every (sender, receiver) channel is FIFO, which the epoch protocol of
//!    the paper (§4.3.1) assumes, and
//! 2. a joiner bulk-sending migration state occupies its link for a time
//!    proportional to the state size — exactly the `2|R|/n time units` cost
//!    Lemma 4.4 accounts for.

use crate::time::{SimDuration, SimTime};

/// Network configuration shared by all links.
///
/// The egress cost of a message is split into a **per-message** term
/// (`per_message_overhead_bytes` of framing plus `per_message_us` of
/// fixed NIC processing) and a **per-byte** term (`bytes / bytes_per_us`
/// of serialisation). The split is what makes batching visible in
/// virtual time: coalescing `k` tuples into one message pays the
/// per-message term once instead of `k` times while the per-byte term is
/// unchanged.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// One-way propagation latency per message, in microseconds.
    pub latency_us: u64,
    /// Egress bandwidth per machine, in bytes per microsecond.
    /// 1 Gbit/s Ethernet ≈ 125 bytes/µs.
    pub bytes_per_us: u64,
    /// Fixed per-message framing overhead in bytes (headers etc.).
    pub per_message_overhead_bytes: u64,
    /// Fixed per-message NIC processing time in microseconds (descriptor
    /// ring work, interrupt amortisation), occupying the link like the
    /// serialisation time does. Defaults to 0, which preserves the
    /// pre-split cost model exactly; the framing bytes already impose a
    /// per-message floor of `overhead / bandwidth`.
    pub per_message_us: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency_us: 100,
            bytes_per_us: 125,
            per_message_overhead_bytes: 32,
            per_message_us: 0,
        }
    }
}

/// Egress link state for one machine.
///
/// Occupancy is tracked at byte granularity: `debt_bytes` carries the
/// sub-microsecond remainder between transmissions so that a stream of
/// small messages occupies exactly `total_bytes / bandwidth` — without it,
/// per-message rounding would add up to an artificial 1 µs-per-message
/// floor that throttles the whole cluster through any single stage.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Nic {
    /// Earliest time the link is free to start a new transmission.
    pub(crate) free_at: SimTime,
    /// Bytes already paid for in `free_at` but not yet "used" (remainder
    /// of integer division by the bandwidth).
    debt_bytes: u64,
}

impl Nic {
    /// Enqueue a transmission of `bytes` starting no earlier than `now`.
    /// Returns the arrival time at the receiver.
    pub(crate) fn transmit(&mut self, now: SimTime, bytes: u64, cfg: &NetworkConfig) -> SimTime {
        let start = if self.free_at >= now {
            // Back-to-back transmissions: the fractional remainder carries.
            self.free_at
        } else {
            // Idle link: the fractional remainder does not carry across
            // idle gaps.
            self.debt_bytes = 0;
            now
        };
        let total = self.debt_bytes + bytes + self.per_message_overhead(cfg);
        let whole_us = total / cfg.bytes_per_us;
        self.debt_bytes = total % cfg.bytes_per_us;
        // The fixed per-message NIC time occupies the link like the
        // serialisation time (it cannot overlap the next transmission).
        let done = start + SimDuration(whole_us + cfg.per_message_us);
        self.free_at = done;
        done + SimDuration(cfg.latency_us)
    }

    #[inline]
    fn per_message_overhead(&self, cfg: &NetworkConfig) -> u64 {
        cfg.per_message_overhead_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_serialises_in_send_order() {
        let cfg = NetworkConfig {
            latency_us: 10,
            bytes_per_us: 100,
            per_message_overhead_bytes: 0,
            per_message_us: 0,
        };
        let mut nic = Nic::default();
        // 1000 bytes at 100 B/us = 10us on the wire, +10us latency.
        let a1 = nic.transmit(SimTime(0), 1000, &cfg);
        assert_eq!(a1.as_micros(), 20);
        // Second send at t=0 must wait for the link: starts at 10.
        let a2 = nic.transmit(SimTime(0), 1000, &cfg);
        assert_eq!(a2.as_micros(), 30);
        // A later send after the link frees starts immediately.
        let a3 = nic.transmit(SimTime(100), 100, &cfg);
        assert_eq!(a3.as_micros(), 111);
    }

    #[test]
    fn small_messages_share_fractional_occupancy() {
        // 10 back-to-back 10-byte messages at 100 B/us occupy 1us total,
        // not 10us: the link must not round each message up.
        let cfg = NetworkConfig {
            latency_us: 0,
            bytes_per_us: 100,
            per_message_overhead_bytes: 0,
            per_message_us: 0,
        };
        let mut nic = Nic::default();
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            last = nic.transmit(SimTime(0), 10, &cfg);
        }
        assert_eq!(last.as_micros(), 1, "100 bytes total = 1us of link time");
        assert_eq!(nic.free_at.as_micros(), 1);
    }

    #[test]
    fn debt_resets_across_idle_gaps() {
        let cfg = NetworkConfig {
            latency_us: 0,
            bytes_per_us: 100,
            per_message_overhead_bytes: 0,
            per_message_us: 0,
        };
        let mut nic = Nic::default();
        nic.transmit(SimTime(0), 50, &cfg); // half a us of debt
                                            // Long idle gap: the fraction must not haunt the next message.
        let a = nic.transmit(SimTime(1000), 100, &cfg);
        assert_eq!(a.as_micros(), 1001);
    }

    #[test]
    fn fifo_per_channel() {
        // Arrival times are monotone in send order regardless of sizes,
        // because latency is constant and the link serialises.
        let cfg = NetworkConfig::default();
        let mut nic = Nic::default();
        let mut last = SimTime::ZERO;
        for bytes in [5000, 10, 900, 1, 123456] {
            let t = nic.transmit(SimTime(3), bytes, &cfg);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn per_message_term_is_paid_once_per_message() {
        // 10 messages of 100 bytes each: per-byte cost 1us each, plus a
        // 3us fixed NIC term per message — batching the same bytes into
        // one message would pay the fixed term once.
        let cfg = NetworkConfig {
            latency_us: 0,
            bytes_per_us: 100,
            per_message_overhead_bytes: 0,
            per_message_us: 3,
        };
        let mut nic = Nic::default();
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            last = nic.transmit(SimTime(0), 100, &cfg);
        }
        assert_eq!(last.as_micros(), 40, "10 × (1us bytes + 3us fixed)");
        let mut batched = Nic::default();
        let one = batched.transmit(SimTime(0), 1000, &cfg);
        assert_eq!(one.as_micros(), 13, "one message pays the term once");
    }
}
