//! A deterministic time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the queue: payload + time + insertion sequence number.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, breaking ties
        // by insertion order so runs are reproducible.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A min-queue of timed events with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use curtain_simnet::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ticks(5), "late");
/// q.push(SimTime::from_ticks(1), "early");
/// q.push(SimTime::from_ticks(1), "early2");
/// assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(1), "early"));
/// assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(1), "early2"));
/// assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(5), "late"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// The time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Pops the earliest event only if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(2), 'b');
        q.push(SimTime::from_ticks(1), 'a');
        q.push(SimTime::from_ticks(2), 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(5), ());
        assert!(q.pop_due(SimTime::from_ticks(4)).is_none());
        assert!(q.pop_due(SimTime::from_ticks(5)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }

    #[test]
    fn pops_in_nondecreasing_time_order() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..256 {
            let mut q = EventQueue::new();
            for _ in 0..rng.random_range(1..50) {
                let t = rng.random_range(0u64..100);
                q.push(SimTime::from_ticks(t), t);
            }
            let mut last = 0;
            while let Some((t, _)) = q.pop() {
                assert!(t.ticks() >= last);
                last = t.ticks();
            }
        }
    }

    #[test]
    fn same_time_events_are_fifo() {
        for count in 1usize..30 {
            let mut q = EventQueue::new();
            for i in 0..count {
                q.push(SimTime::from_ticks(7), i);
            }
            let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, (0..count).collect::<Vec<_>>());
        }
    }
}
