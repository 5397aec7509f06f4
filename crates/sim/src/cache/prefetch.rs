//! Stride prefetcher (Table I: both cache levels have one).
//!
//! Tracks a small number of access streams; once a stream shows the same
//! line-granularity stride twice, it issues `degree` prefetches ahead of
//! the stream. This is the mechanism that hides bounce latency for
//! sequential destination reads in Fig. 12: the prefetcher runs ahead of
//! the demand stream, the prefetch reads reach the memory controller early,
//! and the lazy-copy bounce completes before the core asks for the data.

use crate::addr::{PhysAddr, CACHELINE};

#[derive(Debug, Clone)]
struct Stream {
    last_line: i64,
    stride: i64,
    confidence: u8,
    lru: u64,
}

/// A stride prefetcher over cacheline addresses.
#[derive(Debug)]
pub struct StridePrefetcher {
    streams: Vec<Stream>,
    capacity: usize,
    degree: usize,
    stamp: u64,
}

impl StridePrefetcher {
    /// Create a prefetcher issuing `degree` lines ahead. `degree = 0`
    /// yields a no-op prefetcher (the Fig. 12 "No prefetch" ablation).
    pub fn new(degree: usize) -> StridePrefetcher {
        StridePrefetcher { streams: Vec::new(), capacity: 8, degree, stamp: 0 }
    }

    /// Observe a demand access to `line`; yields the lines to prefetch.
    /// The iterator holds no borrow of the prefetcher, so the caller may
    /// issue each prefetch as it comes.
    pub fn observe(&mut self, line: PhysAddr) -> impl Iterator<Item = PhysAddr> {
        let (l, stride, n) = match self.train(line) {
            Some((l, stride)) => (l, stride, self.degree as i64),
            None => (0, 0, 0),
        };
        (1..=n).filter_map(move |k| {
            // A downward stream near address zero would wrap on the cast;
            // drop those candidates.
            let tgt = l + k * stride;
            (tgt >= 0).then(|| PhysAddr(tgt as u64 * CACHELINE))
        })
    }

    /// Train on a demand access to `line`. Returns the access's line
    /// number and the stream's stride once the stride is confirmed.
    fn train(&mut self, line: PhysAddr) -> Option<(i64, i64)> {
        if self.degree == 0 {
            return None;
        }
        self.stamp += 1;
        let l = (line.line_base().0 / CACHELINE) as i64;

        // Find the stream this access extends: closest last_line within a
        // window of 16 lines.
        let found = self
            .streams
            .iter_mut()
            .filter(|s| (l - s.last_line).abs() <= 16 && l != s.last_line)
            .min_by_key(|s| (l - s.last_line).abs());

        if let Some(s) = found {
            let stride = l - s.last_line;
            if stride == s.stride {
                s.confidence = s.confidence.saturating_add(1);
            } else {
                s.stride = stride;
                s.confidence = 1;
            }
            s.last_line = l;
            s.lru = self.stamp;
            return (s.confidence >= 2).then_some((l, s.stride));
        }

        // New stream; evict LRU if at capacity.
        if self.streams.len() == self.capacity {
            let idx = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.lru)
                .map(|(i, _)| i)
                .expect("nonempty");
            self.streams.swap_remove(idx);
        }
        self.streams.push(Stream { last_line: l, stride: 0, confidence: 0, lru: self.stamp });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StridePrefetcher {
        StridePrefetcher::new(4)
    }

    fn line(i: u64) -> PhysAddr {
        PhysAddr(i * 64)
    }

    fn observe(p: &mut StridePrefetcher, l: PhysAddr) -> Vec<PhysAddr> {
        p.observe(l).collect()
    }

    #[test]
    fn sequential_stream_locks_on() {
        let mut p = pf();
        assert!(observe(&mut p, line(10)).is_empty()); // new stream
        assert!(observe(&mut p, line(11)).is_empty()); // stride seen once
        let out = observe(&mut p, line(12)); // stride confirmed
        assert_eq!(out, vec![line(13), line(14), line(15), line(16)]);
    }

    #[test]
    fn backwards_stride_works() {
        let mut p = pf();
        observe(&mut p, line(100));
        observe(&mut p, line(99));
        let out = observe(&mut p, line(98));
        assert_eq!(out[0], line(97));
    }

    #[test]
    fn downward_stream_near_zero_emits_no_wrapped_lines() {
        let mut p = pf();
        observe(&mut p, line(3));
        observe(&mut p, line(2));
        // Stride -1 confirmed at line 1: of lines 0, -1, -2, -3 only 0 exists.
        assert_eq!(observe(&mut p, line(1)), vec![line(0)]);
        assert!(observe(&mut p, line(0)).is_empty(), "every candidate is below zero");
    }

    #[test]
    fn random_accesses_never_prefetch() {
        let mut p = pf();
        for &i in &[5u64, 900, 33, 1200, 7, 4000, 21, 9999] {
            assert!(observe(&mut p, line(i)).is_empty());
        }
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = StridePrefetcher::new(0);
        for i in 0..10 {
            assert!(observe(&mut p, line(i)).is_empty());
        }
    }

    #[test]
    fn interleaved_streams_both_lock_on() {
        let mut p = pf();
        // Two independent sequential streams far apart.
        let mut fired = 0;
        for i in 0..6u64 {
            if !observe(&mut p, line(1000 + i)).is_empty() {
                fired += 1;
            }
            if !observe(&mut p, line(50_000 + i)).is_empty() {
                fired += 1;
            }
        }
        assert!(fired >= 6, "both streams should prefetch, fired={fired}");
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = pf();
        observe(&mut p, line(10));
        observe(&mut p, line(11));
        assert!(!observe(&mut p, line(12)).is_empty());
        // Stride changes from 1 to 3: one observation is not enough.
        assert!(observe(&mut p, line(15)).is_empty());
        // Re-established twice: fires again.
        assert!(!observe(&mut p, line(18)).is_empty());
    }
}
