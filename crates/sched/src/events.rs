//! The simulated-time event queue both engines (`sched::run` here,
//! `hfta-serve`'s `ServeEngine`) drive.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

struct Event<K> {
    t: f64,
    prio: u8,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<K> Eq for Event<K> {}
impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Event<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.t
            .total_cmp(&other.t)
            .then(self.prio.cmp(&other.prio))
            .then(self.seq.cmp(&other.seq))
    }
}

/// A min-heap of events ordered by `(time, priority, insertion order)`,
/// so equal-time events replay deterministically.
pub struct EventQueue<K> {
    heap: BinaryHeap<Reverse<Event<K>>>,
    seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<K> EventQueue<K> {
    /// Schedules `kind` at simulated time `t`; among events at the same
    /// `t`, lower `prio` pops first, then earlier pushes.
    pub fn push(&mut self, t: f64, prio: u8, kind: K) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { t, prio, seq, kind }));
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pops every event at the earliest timestamp, in order. Draining the
    /// whole timestamp before the caller dispatches matters: a device
    /// whose completion is still queued at `t` is not idle, even though
    /// its booking already ended.
    pub fn pop_batch(&mut self) -> Option<(f64, Vec<K>)> {
        let t = self.heap.peek()?.0.t;
        let mut batch = Vec::new();
        while self.heap.peek().is_some_and(|Reverse(e)| e.t == t) {
            let Reverse(e) = self.heap.pop().expect("peeked");
            batch.push(e.kind);
        }
        Some((t, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_pop_by_time_then_priority_then_insertion() {
        let mut q = EventQueue::default();
        q.push(2.0, 1, "late");
        q.push(1.0, 1, "a");
        q.push(1.0, 0, "done");
        q.push(1.0, 1, "b");
        assert_eq!(q.pop_batch(), Some((1.0, vec!["done", "a", "b"])));
        assert_eq!(q.pop_batch(), Some((2.0, vec!["late"])));
        assert!(q.is_empty() && q.pop_batch().is_none());
    }
}
