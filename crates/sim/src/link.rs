//! Fixed-latency FIFO links between components.
//!
//! Every hop in the simulated machine (core↔L1, L1↔LLC, LLC↔MC, MC↔MC)
//! is a [`DelayQueue`]: messages become visible to the receiver a fixed
//! number of cycles after being pushed, and ordering is preserved (FIFO per
//! link). FIFO ordering is load-bearing for correctness: the paper relies on
//! the caches' FIFO write buffer to guarantee that source-line writebacks
//! reach the memory controller before the MCLAZY packet that follows them
//! (§III-B1, step 2).

use crate::Cycle;
use std::collections::VecDeque;

/// A FIFO queue whose entries become poppable `latency` cycles after push.
#[derive(Debug)]
pub struct DelayQueue<T> {
    latency: Cycle,
    q: VecDeque<(Cycle, T)>,
}

impl<T> DelayQueue<T> {
    /// Create a link with the given one-way latency in cycles.
    pub fn new(latency: Cycle) -> Self {
        Self { latency, q: VecDeque::new() }
    }

    /// Enqueue a message at time `now`; it is deliverable at `now + latency`.
    pub fn push(&mut self, now: Cycle, msg: T) {
        let ready = now + self.latency;
        debug_assert!(self.q.back().is_none_or(|(r, _)| *r <= ready));
        self.q.push_back((ready, msg));
    }

    /// Enqueue with an extra delay on top of the link latency.
    ///
    /// FIFO order is still enforced: if the previous message is scheduled
    /// later, this one is delayed to match (no reordering within a link).
    pub fn push_after(&mut self, now: Cycle, extra: Cycle, msg: T) {
        let mut ready = now + self.latency + extra;
        if let Some((prev, _)) = self.q.back() {
            ready = ready.max(*prev);
        }
        self.q.push_back((ready, msg));
    }

    /// Pop the head message if it has arrived by `now`.
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        if self.q.front().is_some_and(|(r, _)| *r <= now) {
            self.q.pop_front().map(|(_, m)| m)
        } else {
            None
        }
    }

    /// Peek at the head message if it has arrived by `now`.
    pub fn peek(&self, now: Cycle) -> Option<&T> {
        match self.q.front() {
            Some((r, m)) if *r <= now => Some(m),
            _ => None,
        }
    }

    /// Number of in-flight messages.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the link is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The earliest cycle at which a currently queued message becomes
    /// deliverable, if any. Used for idle skip-ahead.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.q.front().map(|(r, _)| *r)
    }

    /// Iterate over in-flight messages (oldest first), regardless of
    /// delivery time. Used by snooping logic that must observe traffic
    /// still on the wire.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter().map(|(_, m)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency() {
        let mut l = DelayQueue::new(5);
        l.push(10, "a");
        assert!(l.pop(14).is_none());
        assert_eq!(l.pop(15), Some("a"));
        assert!(l.pop(100).is_none());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut l = DelayQueue::new(2);
        l.push(0, 1);
        l.push(0, 2);
        l.push(1, 3);
        assert_eq!(l.pop(10), Some(1));
        assert_eq!(l.pop(10), Some(2));
        assert_eq!(l.pop(10), Some(3));
    }

    #[test]
    fn push_after_never_reorders() {
        let mut l = DelayQueue::new(1);
        l.push_after(0, 100, "slow");
        l.push_after(1, 0, "fast");
        // "fast" would be ready at 2, but FIFO order delays it behind "slow".
        assert_eq!(l.pop(101), Some("slow"));
        assert_eq!(l.pop(101), Some("fast"));
    }

    #[test]
    fn next_ready_reports_head() {
        let mut l: DelayQueue<u8> = DelayQueue::new(7);
        assert_eq!(l.next_ready(), None);
        l.push(1, 9);
        assert_eq!(l.next_ready(), Some(8));
    }

    #[test]
    fn zero_latency_same_cycle() {
        let mut l = DelayQueue::new(0);
        l.push(4, 42);
        assert_eq!(l.pop(4), Some(42));
    }
}
