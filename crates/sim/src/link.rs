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
///
/// The head's ready cycle is kept inline, so the scheduler's many "when
/// is this link next deliverable?" questions, and every `pop`/`peek` that
/// finds nothing deliverable, read one number without touching the
/// buffer.
#[derive(Debug)]
pub struct DelayQueue<T> {
    latency: Cycle,
    /// The ready cycle of the oldest queued message, `Cycle::MAX` when
    /// the queue is empty.
    head: Cycle,
    q: VecDeque<(Cycle, T)>,
}

impl<T> DelayQueue<T> {
    /// Create a link with the given one-way latency in cycles.
    pub fn new(latency: Cycle) -> Self {
        Self { latency, head: Cycle::MAX, q: VecDeque::new() }
    }

    /// Enqueue a message at time `now`; it is deliverable at `now + latency`.
    pub fn push(&mut self, now: Cycle, msg: T) {
        let ready = now + self.latency;
        debug_assert!(self.q.back().is_none_or(|(r, _)| *r <= ready));
        self.enqueue(ready, msg);
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
        self.enqueue(ready, msg);
    }

    fn enqueue(&mut self, ready: Cycle, msg: T) {
        if self.q.is_empty() {
            self.head = ready;
        }
        self.q.push_back((ready, msg));
    }

    /// Pop the head message if it has arrived by `now`.
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        if self.head > now {
            return None;
        }
        let (_, m) = self.q.pop_front()?;
        self.head = self.q.front().map_or(Cycle::MAX, |(r, _)| *r);
        Some(m)
    }

    /// Peek at the head message if it has arrived by `now`.
    pub fn peek(&self, now: Cycle) -> Option<&T> {
        if self.head > now {
            return None;
        }
        self.q.front().map(|(_, m)| m)
    }

    /// Number of in-flight messages.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the link is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The cycle at which the head message becomes deliverable,
    /// `Cycle::MAX` when the link is empty. FIFO links never hold a head
    /// later than a newer message, so this bounds every queued arrival.
    pub fn head(&self) -> Cycle {
        self.head
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
    use proptest::prelude::*;

    proptest! {
        /// Random plain pushes, pushes with an extra delay (which FIFO
        /// order may clamp), pops and peeks, on links with and without
        /// latency, agree with a plain queue of `(ready, message)` pairs on
        /// `head()`, the length and every popped or peeked message.
        #[test]
        fn matches_a_plain_queue(
            latency in 0u64..3,
            ops in prop::collection::vec((0u8..4, 0u64..3, 0u64..8), 1..200)
        ) {
            let mut l = DelayQueue::new(latency);
            let mut r: VecDeque<(Cycle, u32)> = VecDeque::new();
            let mut now = 0;
            for (msg, (op, step, extra)) in (0u32..).zip(ops) {
                now += step;
                let back = r.back().map_or(0, |&(ready, _)| ready);
                match op {
                    // A plain push never lands before the queued tail.
                    0 if back <= now + latency => {
                        l.push(now, msg);
                        r.push_back((now + latency, msg));
                    }
                    0 | 1 => {
                        l.push_after(now, extra, msg);
                        r.push_back(((now + latency + extra).max(back), msg));
                    }
                    2 => {
                        let due = r.front().is_some_and(|&(ready, _)| ready <= now);
                        let want = if due { r.pop_front().map(|(_, m)| m) } else { None };
                        prop_assert_eq!(l.pop(now), want);
                    }
                    _ => {
                        let want = r.front().filter(|&&(ready, _)| ready <= now).map(|(_, m)| m);
                        prop_assert_eq!(l.peek(now), want);
                    }
                }
                prop_assert_eq!(l.head(), r.front().map_or(Cycle::MAX, |&(ready, _)| ready));
                prop_assert_eq!(l.len(), r.len());
            }
        }
    }

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
    fn head_reports_the_oldest_ready_cycle() {
        let mut l: DelayQueue<u8> = DelayQueue::new(7);
        assert_eq!(l.head(), Cycle::MAX);
        l.push(1, 9);
        l.push(3, 10);
        assert_eq!(l.head(), 8);
        assert_eq!(l.pop(8), Some(9));
        assert_eq!(l.head(), 10);
        assert_eq!(l.pop(10), Some(10));
        assert_eq!(l.head(), Cycle::MAX);
    }

    #[test]
    fn zero_latency_same_cycle() {
        let mut l = DelayQueue::new(0);
        l.push(4, 42);
        assert_eq!(l.pop(4), Some(42));
    }
}
