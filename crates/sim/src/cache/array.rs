//! Generic set-associative cache array with LRU replacement.

use crate::addr::PhysAddr;

/// Marks an occupied slot in the tag array. Line base addresses are
/// 64-byte aligned, so bit 0 is free, and a zero-filled tag array reads as
/// every slot free.
const VALID: u64 = 1;

/// A set-associative array keyed by cacheline base address, with true-LRU
/// replacement. Payload type `T` carries per-line state (data, dirty bits,
/// directory info).
///
/// Tags and LRU stamps live apart from the payloads, `ways` slots per set
/// in two flat arrays, so a lookup scans one set's tags as contiguous
/// `u64`s without touching any payload. A set's occupied slots are its
/// first ones, in the order of its payload vector, which grows with
/// occupancy.
#[derive(Debug)]
pub struct CacheArray<T> {
    sets: usize,
    ways: usize,
    /// `line | VALID` per occupied slot, 0 per free slot.
    tags: Vec<u64>,
    /// LRU stamp per occupied slot; stamps are unique, so the LRU victim
    /// does not depend on slot order.
    lru: Vec<u64>,
    /// Per set, the payloads of its occupied slots in slot order.
    payloads: Vec<Vec<T>>,
    stamp: u64,
}

/// One occupied way of a [`CacheArray`], as a search found it. It names
/// that way only until the array next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way {
    set: usize,
    slot: usize,
}

impl<T> CacheArray<T> {
    /// Create an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> CacheArray<T> {
        assert!(sets.is_power_of_two() && sets > 0 && ways > 0);
        CacheArray {
            sets,
            ways,
            tags: vec![0; sets * ways],
            lru: vec![0; sets * ways],
            payloads: (0..sets).map(|_| Vec::new()).collect(),
            stamp: 0,
        }
    }

    fn set_of(&self, line: PhysAddr) -> usize {
        (line.line() as usize) & (self.sets - 1)
    }

    /// The set of `line` and the slot holding it, if it is resident.
    fn find(&self, line: PhysAddr) -> (usize, Option<usize>) {
        let line = line.line_base();
        let set = self.set_of(line);
        let base = set * self.ways;
        let slot = self.tags[base..base + self.ways].iter().position(|&t| t == line.0 | VALID);
        (set, slot)
    }

    /// The line held in `set`'s slot `i`.
    fn line_at(&self, set: usize, i: usize) -> PhysAddr {
        PhysAddr(self.tags[set * self.ways + i] & !VALID)
    }

    /// Look up a line, updating LRU state on hit.
    pub fn get_mut(&mut self, line: PhysAddr) -> Option<&mut T> {
        self.stamp += 1;
        let (set, i) = self.find(line);
        let i = i?;
        self.lru[set * self.ways + i] = self.stamp;
        Some(&mut self.payloads[set][i])
    }

    /// Look up a line without touching LRU state.
    pub fn peek(&self, line: PhysAddr) -> Option<&T> {
        let (set, i) = self.find(line);
        Some(&self.payloads[set][i?])
    }

    /// Look up mutably without touching LRU state.
    pub fn peek_mut(&mut self, line: PhysAddr) -> Option<&mut T> {
        let (set, i) = self.find(line);
        Some(&mut self.payloads[set][i?])
    }

    /// Whether the set containing `line` has a free way.
    pub fn has_room(&self, line: PhysAddr) -> bool {
        let set = self.set_of(line.line_base());
        self.tags[set * self.ways + self.ways - 1] == 0
    }

    /// Insert `line` (which must not be present). Does **not** evict;
    /// callers make room first via [`Self::evict`] when the set is full.
    ///
    /// # Panics
    /// Panics if the set is full or the line is already present.
    pub fn insert(&mut self, line: PhysAddr, payload: T) {
        let line = line.line_base();
        let (set, slot) = self.find(line);
        assert!(slot.is_none(), "line {line:?} already present");
        let n = self.payloads[set].len();
        assert!(n < self.ways, "set full; evict first");
        self.stamp += 1;
        let i = set * self.ways + n;
        self.tags[i] = line.0 | VALID;
        self.lru[i] = self.stamp;
        self.payloads[set].push(payload);
    }

    /// The LRU way in `line`'s set among those for which `keep` returns
    /// false, if any.
    pub fn lru_way(&self, line: PhysAddr, keep: impl Fn(PhysAddr, &T) -> bool) -> Option<Way> {
        let set = self.set_of(line.line_base());
        let base = set * self.ways;
        let slot = self.payloads[set]
            .iter()
            .enumerate()
            .filter(|&(i, p)| !keep(self.line_at(set, i), p))
            .min_by_key(|&(i, _)| self.lru[base + i])
            .map(|(i, _)| i);
        Some(Way { set, slot: slot? })
    }

    /// [`Self::lru_way`] for two payload filters at once, in one pass over
    /// `line`'s set: the LRU way `keep_a` spares not, and the LRU way
    /// `keep_b` spares not.
    pub fn lru_ways(
        &self,
        line: PhysAddr,
        keep_a: impl Fn(&T) -> bool,
        keep_b: impl Fn(&T) -> bool,
    ) -> [Option<Way>; 2] {
        let set = self.set_of(line.line_base());
        let stamps = &self.lru[set * self.ways..];
        // (stamp, slot) of each filter's LRU way so far.
        let mut best: [Option<(u64, usize)>; 2] = [None; 2];
        for (slot, p) in self.payloads[set].iter().enumerate() {
            let stamp = stamps[slot];
            for (b, keep) in best.iter_mut().zip([keep_a(p), keep_b(p)]) {
                if !keep && b.is_none_or(|(s, _)| stamp < s) {
                    *b = Some((stamp, slot));
                }
            }
        }
        best.map(|b| b.map(|(_, slot)| Way { set, slot }))
    }

    /// The line `way` holds.
    pub fn way_line(&self, way: Way) -> PhysAddr {
        self.line_at(way.set, way.slot)
    }

    /// Remove `way`, returning its line and payload.
    pub fn take(&mut self, way: Way) -> (PhysAddr, T) {
        (self.way_line(way), self.remove_at(way.set, way.slot))
    }

    /// The LRU victim in `line`'s set among ways for which `keep` returns
    /// false, or `None` if every way must be kept.
    pub fn victim(&self, line: PhysAddr, keep: impl Fn(PhysAddr, &T) -> bool) -> Option<PhysAddr> {
        Some(self.way_line(self.lru_way(line, keep)?))
    }

    /// Remove the LRU way in `line`'s set among those for which `keep`
    /// returns false, returning its line and payload, or `None` if every
    /// way must be kept: [`Self::victim`] and [`Self::remove`] in one scan.
    pub fn evict(
        &mut self,
        line: PhysAddr,
        keep: impl Fn(PhysAddr, &T) -> bool,
    ) -> Option<(PhysAddr, T)> {
        Some(self.take(self.lru_way(line, keep)?))
    }

    /// Remove a line, returning its payload.
    pub fn remove(&mut self, line: PhysAddr) -> Option<T> {
        let (set, i) = self.find(line);
        Some(self.remove_at(set, i?))
    }

    /// Remove `set`'s slot `i`, returning its payload. The set's last slot
    /// moves into the freed one, keeping the occupied slots first.
    fn remove_at(&mut self, set: usize, i: usize) -> T {
        let base = set * self.ways;
        let last = self.payloads[set].len() - 1;
        self.tags[base + i] = self.tags[base + last];
        self.lru[base + i] = self.lru[base + last];
        self.tags[base + last] = 0;
        self.payloads[set].swap_remove(i)
    }

    /// Iterate over all (line, payload) pairs, set by set.
    pub fn iter(&self) -> impl Iterator<Item = (PhysAddr, &T)> {
        self.payloads
            .iter()
            .enumerate()
            .flat_map(move |(set, ps)| ps.iter().enumerate().map(move |(i, p)| (self.line_at(set, i), p)))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.payloads.iter().map(|s| s.len()).sum()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The array as it was before tags moved out of the payloads: one
    /// vector of `(line, lru, payload)` ways per set. Kept as the
    /// reference that the property test compares against.
    struct RefArray<T> {
        sets: usize,
        ways: usize,
        table: Vec<Vec<(u64, u64, T)>>,
        stamp: u64,
    }

    impl<T> RefArray<T> {
        fn new(sets: usize, ways: usize) -> RefArray<T> {
            RefArray { sets, ways, table: (0..sets).map(|_| Vec::new()).collect(), stamp: 0 }
        }

        fn set(&mut self, line: PhysAddr) -> &mut Vec<(u64, u64, T)> {
            let sets = self.sets;
            &mut self.table[(line.line() as usize) & (sets - 1)]
        }

        fn get_mut(&mut self, line: PhysAddr) -> Option<&mut T> {
            self.stamp += 1;
            let stamp = self.stamp;
            let l = line.line_base().0;
            self.set(line).iter_mut().find(|w| w.0 == l).map(|w| {
                w.1 = stamp;
                &mut w.2
            })
        }

        fn peek(&mut self, line: PhysAddr) -> Option<&T> {
            let l = line.line_base().0;
            self.set(line).iter().find(|w| w.0 == l).map(|w| &w.2)
        }

        fn has_room(&mut self, line: PhysAddr) -> bool {
            let ways = self.ways;
            self.set(line).len() < ways
        }

        fn insert(&mut self, line: PhysAddr, payload: T) {
            self.stamp += 1;
            let stamp = self.stamp;
            self.set(line).push((line.line_base().0, stamp, payload));
        }

        fn victim(&mut self, line: PhysAddr, keep: impl Fn(PhysAddr, &T) -> bool) -> Option<PhysAddr> {
            self.set(line)
                .iter()
                .filter(|w| !keep(PhysAddr(w.0), &w.2))
                .min_by_key(|w| w.1)
                .map(|w| PhysAddr(w.0))
        }

        fn remove(&mut self, line: PhysAddr) -> Option<T> {
            let l = line.line_base().0;
            let idx = self.set(line).iter().position(|w| w.0 == l)?;
            Some(self.set(line).swap_remove(idx).2)
        }

        fn lines(&self) -> Vec<(PhysAddr, &T)> {
            self.table.iter().flatten().map(|w| (PhysAddr(w.0), &w.2)).collect()
        }
    }

    proptest! {
        /// Random inserts, hits, peeks, victim choices and evictions (with
        /// and without a keep filter) and removals over four 4-way sets give
        /// the same hits, victims, contents and order as the reference.
        #[test]
        fn matches_the_vec_of_sets_reference(
            ops in prop::collection::vec((0u8..6, 0u64..24, 0u32..1000), 1..200)
        ) {
            let mut a: CacheArray<u32> = CacheArray::new(4, 4);
            let mut r: RefArray<u32> = RefArray::new(4, 4);
            // Keep lines whose payload is odd: the filter depends on both
            // arguments.
            let keep = |l: PhysAddr, p: &u32| (l.line() + u64::from(*p)) % 2 == 1;
            for (op, n, v) in ops {
                let l = PhysAddr(n * 64 + v as u64 % 64);
                match op {
                    0 => {
                        prop_assert_eq!(a.has_room(l), r.has_room(l));
                        if a.peek(l).is_none() && a.has_room(l) {
                            a.insert(l, v);
                            r.insert(l, v);
                        }
                    }
                    1 => {
                        let (x, y) = (a.get_mut(l), r.get_mut(l));
                        prop_assert_eq!(x.as_deref(), y.as_deref());
                        if let (Some(x), Some(y)) = (x, y) {
                            *x += 1;
                            *y += 1;
                        }
                    }
                    2 => prop_assert_eq!(a.peek(l), r.peek(l)),
                    3 => prop_assert_eq!(a.victim(l, |_, _| false), r.victim(l, |_, _| false)),
                    4 => {
                        prop_assert_eq!(a.victim(l, keep), r.victim(l, keep));
                        // Both filters of one pass answer as two scans do.
                        let (odd, third) = (|p: &u32| p % 2 == 1, |p: &u32| p.is_multiple_of(3));
                        let ways = a.lru_ways(l, odd, third).map(|w| w.map(|w| a.way_line(w)));
                        let want = [r.victim(l, |_, p| odd(p)), r.victim(l, |_, p| third(p))];
                        prop_assert_eq!(ways, want);
                    }
                    _ => {
                        // Evict as a cache making room does, first from every
                        // way, then from the ways `keep` does not spare; then
                        // remove `l`.
                        for spare in [false, true] {
                            let filter = |l: PhysAddr, p: &u32| spare && keep(l, p);
                            let want = r.victim(l, filter).map(|v| (v, r.remove(v).expect("resident")));
                            prop_assert_eq!(a.evict(l, filter), want);
                        }
                        prop_assert_eq!(a.remove(l), r.remove(l));
                    }
                }
                prop_assert_eq!(a.len(), r.lines().len());
                prop_assert_eq!(a.iter().collect::<Vec<_>>(), r.lines());
            }
        }
    }

    fn line(i: u64) -> PhysAddr {
        PhysAddr(i * 64)
    }

    #[test]
    fn insert_and_get() {
        let mut a: CacheArray<u32> = CacheArray::new(4, 2);
        a.insert(line(1), 11);
        assert_eq!(a.get_mut(line(1)), Some(&mut 11));
        assert_eq!(a.peek(line(2)), None);
    }

    #[test]
    fn sets_fill_independently() {
        let mut a: CacheArray<u32> = CacheArray::new(4, 2);
        // lines 0,4,8 map to set 0 (4 sets).
        a.insert(line(0), 0);
        a.insert(line(4), 4);
        assert!(!a.has_room(line(8)));
        assert!(a.has_room(line(1)));
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut a: CacheArray<u32> = CacheArray::new(1, 3);
        a.insert(line(0), 0);
        a.insert(line(1), 1);
        a.insert(line(2), 2);
        // Touch 0 so 1 becomes LRU.
        let _ = a.get_mut(line(0));
        assert_eq!(a.victim(line(3), |_, _| false), Some(line(1)));
    }

    #[test]
    fn victim_respects_keep_filter() {
        let mut a: CacheArray<u32> = CacheArray::new(1, 2);
        a.insert(line(0), 0);
        a.insert(line(1), 1);
        let v = a.victim(line(2), |l, _| l == line(0));
        assert_eq!(v, Some(line(1)));
        let none = a.victim(line(2), |_, _| true);
        assert_eq!(none, None);
    }

    #[test]
    fn remove_returns_payload() {
        let mut a: CacheArray<&str> = CacheArray::new(2, 2);
        a.insert(line(5), "x");
        assert_eq!(a.remove(line(5)), Some("x"));
        assert_eq!(a.remove(line(5)), None);
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "set full")]
    fn insert_into_full_set_panics() {
        let mut a: CacheArray<u32> = CacheArray::new(1, 1);
        a.insert(line(0), 0);
        a.insert(line(1), 1);
    }

    #[test]
    fn unaligned_lookup_normalises() {
        let mut a: CacheArray<u32> = CacheArray::new(4, 2);
        a.insert(PhysAddr(64), 7);
        assert_eq!(a.peek(PhysAddr(100)), Some(&7));
    }
}
