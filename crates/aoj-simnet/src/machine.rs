//! Simulated machines: a CPU serving per-class message queues under a
//! weighted policy, and an egress NIC.

use std::collections::VecDeque;

use crate::network::Nic;
use crate::task::{MsgClass, TaskId};
use crate::time::SimTime;

/// Identifies a machine in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MachineId(pub usize);

impl MachineId {
    /// The raw index of this machine.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// How many `Migration`-class messages are serviced for every
/// `Data`-class message while both queues are backlogged. The paper fixes
/// this to 2 (§4.3.2): "We set the joiners to process migrated tuples at
/// twice the rate of processing new incoming tuples." The live backends'
/// mailboxes serve at the same ratio.
pub const MIGRATION_WEIGHT: u32 = 2;

/// A queued message awaiting CPU service.
pub(crate) struct Queued<M> {
    pub(crate) from: TaskId,
    pub(crate) to: TaskId,
    pub(crate) msg: M,
}

/// Internal machine state.
pub(crate) struct Machine<M> {
    pub(crate) nic: Nic,
    /// CPU is busy until this time.
    pub(crate) busy_until: SimTime,
    /// True if a `ProcessNext` event is already scheduled.
    pub(crate) scheduled: bool,
    pub(crate) control_q: VecDeque<Queued<M>>,
    pub(crate) data_q: VecDeque<Queued<M>>,
    pub(crate) migration_q: VecDeque<Queued<M>>,
    /// Counts migration-class messages served since the last data-class
    /// message, implementing the 2:1 weighted service.
    pub(crate) migration_credit: u32,
}

impl<M> Machine<M> {
    pub(crate) fn new() -> Self {
        Machine {
            nic: Nic::default(),
            busy_until: SimTime::ZERO,
            scheduled: false,
            control_q: VecDeque::new(),
            data_q: VecDeque::new(),
            migration_q: VecDeque::new(),
            migration_credit: 0,
        }
    }

    pub(crate) fn enqueue(&mut self, class: MsgClass, item: Queued<M>) {
        match class {
            MsgClass::Control => self.control_q.push_back(item),
            MsgClass::Data => self.data_q.push_back(item),
            MsgClass::Migration => self.migration_q.push_back(item),
        }
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.control_q.len() + self.data_q.len() + self.migration_q.len()
    }

    /// Pick the next message to service. Control preempts everything;
    /// migration is served [`MIGRATION_WEIGHT`] times per data message while
    /// both queues are non-empty; otherwise whichever queue has work.
    pub(crate) fn pop_next(&mut self) -> Option<Queued<M>> {
        if let Some(item) = self.control_q.pop_front() {
            return Some(item);
        }
        let has_data = !self.data_q.is_empty();
        let has_mig = !self.migration_q.is_empty();
        match (has_mig, has_data) {
            (false, false) => None,
            (true, false) => self.migration_q.pop_front(),
            (false, true) => {
                self.migration_credit = 0;
                self.data_q.pop_front()
            }
            (true, true) => {
                if self.migration_credit < MIGRATION_WEIGHT {
                    self.migration_credit += 1;
                    self.migration_q.pop_front()
                } else {
                    self.migration_credit = 0;
                    self.data_q.pop_front()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: usize) -> Queued<u32> {
        Queued {
            from: TaskId(0),
            to: TaskId(0),
            msg: n as u32,
        }
    }

    #[test]
    fn weighted_service_is_two_to_one() {
        let mut m: Machine<u32> = Machine::new();
        for i in 0..6 {
            m.enqueue(MsgClass::Migration, q(100 + i));
        }
        for i in 0..3 {
            m.enqueue(MsgClass::Data, q(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| m.pop_next().map(|x| x.msg)).collect();
        // Pattern M,M,D repeated.
        assert_eq!(order, vec![100, 101, 0, 102, 103, 1, 104, 105, 2]);
    }

    #[test]
    fn control_preempts() {
        let mut m: Machine<u32> = Machine::new();
        m.enqueue(MsgClass::Data, q(1));
        m.enqueue(MsgClass::Migration, q(2));
        m.enqueue(MsgClass::Control, q(3));
        assert_eq!(m.pop_next().unwrap().msg, 3);
    }

    #[test]
    fn drains_single_class() {
        let mut m: Machine<u32> = Machine::new();
        for i in 0..4 {
            m.enqueue(MsgClass::Data, q(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| m.pop_next().map(|x| x.msg)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn migration_only_drains_fifo() {
        let mut m: Machine<u32> = Machine::new();
        for i in 0..4 {
            m.enqueue(MsgClass::Migration, q(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| m.pop_next().map(|x| x.msg)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
