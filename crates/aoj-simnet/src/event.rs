//! The event queue: a binary heap keyed by `(time, sequence)` so that
//! simultaneous events pop in insertion order, making runs deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::machine::MachineId;
use crate::task::TaskId;
use crate::time::SimTime;

/// What happens when an event fires.
pub(crate) enum EventKind<M> {
    /// A message arrives at the destination machine's mailbox.
    Arrive { from: TaskId, to: TaskId, msg: M },
    /// The machine's CPU is free: service the next queued message.
    ProcessNext { machine: MachineId },
    /// A task timer fires.
    Timer { task: TaskId, key: u64 },
}

pub(crate) struct Event<M> {
    pub at: SimTime,
    pub seq: u64,
    pub(crate) kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic earliest-first event queue.
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    pub(crate) fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(
            SimTime(5),
            EventKind::Timer {
                task: TaskId(0),
                key: 50,
            },
        );
        q.push(
            SimTime(1),
            EventKind::Timer {
                task: TaskId(0),
                key: 10,
            },
        );
        q.push(
            SimTime(5),
            EventKind::Timer {
                task: TaskId(0),
                key: 51,
            },
        );
        let keys: Vec<u64> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Timer { key, .. } => key,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(keys, vec![10, 50, 51]);
        assert!(q.pop().is_none());
    }
}
