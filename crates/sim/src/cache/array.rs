//! Generic set-associative cache array with LRU replacement.

use crate::addr::PhysAddr;

/// One occupied way.
#[derive(Debug, Clone)]
struct Way<T> {
    line: u64, // line base address
    lru: u64,
    payload: T,
}

/// A set-associative array keyed by cacheline base address, with true-LRU
/// replacement. Payload type `T` carries per-line state (data, dirty bits,
/// directory info).
#[derive(Debug)]
pub struct CacheArray<T> {
    sets: usize,
    ways: usize,
    table: Vec<Vec<Way<T>>>,
    stamp: u64,
}

impl<T> CacheArray<T> {
    /// Create an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> CacheArray<T> {
        assert!(sets.is_power_of_two() && sets > 0 && ways > 0);
        CacheArray { sets, ways, table: (0..sets).map(|_| Vec::new()).collect(), stamp: 0 }
    }

    fn set_of(&self, line: PhysAddr) -> usize {
        (line.line() as usize) & (self.sets - 1)
    }

    /// Look up a line, updating LRU state on hit.
    pub fn get_mut(&mut self, line: PhysAddr) -> Option<&mut T> {
        let line = line.line_base();
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(line);
        self.table[set].iter_mut().find(|w| w.line == line.0).map(|w| {
            w.lru = stamp;
            &mut w.payload
        })
    }

    /// Look up a line without touching LRU state.
    pub fn peek(&self, line: PhysAddr) -> Option<&T> {
        let line = line.line_base();
        let set = self.set_of(line);
        self.table[set].iter().find(|w| w.line == line.0).map(|w| &w.payload)
    }

    /// Look up mutably without touching LRU state.
    pub fn peek_mut(&mut self, line: PhysAddr) -> Option<&mut T> {
        let line = line.line_base();
        let set = self.set_of(line);
        self.table[set].iter_mut().find(|w| w.line == line.0).map(|w| &mut w.payload)
    }

    /// Whether the set containing `line` has a free way.
    pub fn has_room(&self, line: PhysAddr) -> bool {
        self.table[self.set_of(line.line_base())].len() < self.ways
    }

    /// Insert `line` (which must not be present). Does **not** evict;
    /// callers pick a victim first via [`Self::victim`] when the set is
    /// full.
    ///
    /// # Panics
    /// Panics if the set is full or the line is already present.
    pub fn insert(&mut self, line: PhysAddr, payload: T) {
        let line = line.line_base();
        let set = self.set_of(line);
        assert!(
            self.table[set].iter().all(|w| w.line != line.0),
            "line {line:?} already present"
        );
        assert!(self.table[set].len() < self.ways, "set full; evict first");
        self.stamp += 1;
        self.table[set].push(Way { line: line.0, lru: self.stamp, payload });
    }

    /// The LRU victim in `line`'s set among ways for which `keep` returns
    /// false, or `None` if every way must be kept.
    pub fn victim(&self, line: PhysAddr, keep: impl Fn(PhysAddr, &T) -> bool) -> Option<PhysAddr> {
        let set = self.set_of(line.line_base());
        self.table[set]
            .iter()
            .filter(|w| !keep(PhysAddr(w.line), &w.payload))
            .min_by_key(|w| w.lru)
            .map(|w| PhysAddr(w.line))
    }

    /// Remove a line, returning its payload.
    pub fn remove(&mut self, line: PhysAddr) -> Option<T> {
        let line = line.line_base();
        let set = self.set_of(line);
        let idx = self.table[set].iter().position(|w| w.line == line.0)?;
        Some(self.table[set].swap_remove(idx).payload)
    }

    /// Iterate over all (line, payload) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PhysAddr, &T)> {
        self.table.iter().flatten().map(|w| (PhysAddr(w.line), &w.payload))
    }

    /// Iterate mutably over all (line, payload) pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PhysAddr, &mut T)> {
        self.table.iter_mut().flatten().map(|w| (PhysAddr(w.line), &mut w.payload))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.table.iter().map(|s| s.len()).sum()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
