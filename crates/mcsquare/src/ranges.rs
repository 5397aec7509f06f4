//! Byte ranges and a disjoint interval map.
//!
//! [`RangeMap`] is the storage the Copy Tracking Table is built on: a set
//! of disjoint byte ranges, each carrying a value that can be *sliced*
//! (split at a byte offset) and tested for *continuity* (so adjacent
//! segments whose values continue each other coalesce into one — the
//! paper's entry-merging rule for contiguous copies, §III-A1).

use crate::ctt::hw_rows;
use std::collections::BTreeMap;
use std::fmt;

/// A half-open byte range `[start, end)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ByteRange {
    /// Inclusive start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
}

impl ByteRange {
    /// Construct `[start, end)`.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn new(start: u64, end: u64) -> ByteRange {
        assert!(end >= start, "inverted range {start}..{end}");
        ByteRange { start, end }
    }

    /// Construct from a start and a length.
    pub fn sized(start: u64, len: u64) -> ByteRange {
        ByteRange { start, end: start + len }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `p` lies inside the range.
    pub fn contains(&self, p: u64) -> bool {
        self.start <= p && p < self.end
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_range(&self, other: &ByteRange) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Whether the ranges share at least one byte.
    pub fn overlaps(&self, other: &ByteRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The overlapping part, if any.
    pub fn intersect(&self, other: &ByteRange) -> Option<ByteRange> {
        let s = self.start.max(other.start);
        let e = self.end.min(other.end);
        (s < e).then(|| ByteRange::new(s, e))
    }
}

impl fmt::Debug for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x},{:#x})", self.start, self.end)
    }
}

/// A value that can be split at a byte offset and tested for continuity
/// with a successor.
pub trait Sliceable: Clone {
    /// The value describing the subrange starting `off` bytes in.
    fn slice(&self, off: u64) -> Self;

    /// Whether a range of length `len` carrying `self`, immediately
    /// followed by a range carrying `next`, forms one logical range.
    fn continues(&self, len: u64, next: &Self) -> bool {
        let _ = (len, next);
        false
    }
}

/// Source base address carried by a CTT segment: the value at `dst` range
/// start; byte `dst.start + k` is a prospective copy of `src + k`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SrcBase(pub u64);

impl Sliceable for SrcBase {
    fn slice(&self, off: u64) -> Self {
        SrcBase(self.0 + off)
    }

    fn continues(&self, len: u64, next: &Self) -> bool {
        self.0 + len == next.0
    }
}

/// A map from disjoint byte ranges to sliceable values.
///
/// Inserting overwrites any overlapped parts of existing segments
/// (trimming or splitting them); adjacent segments whose values continue
/// each other are coalesced.
///
/// Every segment enters and leaves the map through two private helpers,
/// `put` and `take`, which keep running totals of the bytes covered and
/// of the CTT hardware rows the segments need, so both are O(1) to read.
#[derive(Clone)]
pub struct RangeMap<V> {
    map: BTreeMap<u64, (u64, V)>, // start → (end, value)
    /// Σ segment lengths.
    covered: u64,
    /// Σ ⌈segment length / [`crate::ctt::MAX_ENTRY_SIZE`]⌉.
    rows: usize,
}

impl<V: Sliceable> RangeMap<V> {
    /// Create an empty map.
    pub fn new() -> RangeMap<V> {
        RangeMap { map: BTreeMap::new(), covered: 0, rows: 0 }
    }

    /// Add segment `[start, end) → v`; no segment may start at `start`.
    fn put(&mut self, start: u64, end: u64, v: V) {
        self.covered += end - start;
        self.rows += hw_rows(end - start);
        let old = self.map.insert(start, (end, v));
        debug_assert!(old.is_none(), "segment at {start:#x} replaced");
    }

    /// Remove the segment starting at `start`, returning its end and value.
    fn take(&mut self, start: u64) -> (u64, V) {
        let (end, v) = self.map.remove(&start).expect("segment present");
        self.covered -= end - start;
        self.rows -= hw_rows(end - start);
        (end, v)
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        self.covered
    }

    /// CTT hardware rows the segments occupy: Σ ⌈len /
    /// [`crate::ctt::MAX_ENTRY_SIZE`]⌉ (see [`crate::ctt::Ctt::hw_entries`]).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The segment containing `p`, if any, as (range, value at range start).
    pub fn get(&self, p: u64) -> Option<(ByteRange, &V)> {
        let (s, (e, v)) = self.map.range(..=p).next_back()?;
        (*e > p).then(|| (ByteRange::new(*s, *e), v))
    }

    /// Clipped overlaps with `r`, in address order: each item is a subrange
    /// of `r` together with the value sliced to that subrange's start.
    pub fn overlapping(&self, r: ByteRange) -> impl Iterator<Item = (ByteRange, V)> + '_ {
        // The segment starting before r.start may reach into r.
        self.map
            .range(..r.start)
            .next_back()
            .into_iter()
            .chain(self.map.range(r.start..r.end))
            .filter_map(move |(s, (e, v))| {
                let ix = ByteRange::new(*s, *e).intersect(&r)?;
                Some((ix, v.slice(ix.start - s)))
            })
    }

    /// Whether any byte of `r` is covered.
    pub fn covers_any(&self, r: ByteRange) -> bool {
        if r.is_empty() {
            return false;
        }
        if let Some((s, (e, _))) = self.map.range(..r.start).next_back() {
            if ByteRange::new(*s, *e).overlaps(&r) {
                return true;
            }
        }
        self.map.range(r.start..r.end).next().is_some()
    }

    /// Remove coverage of `r`, trimming and splitting segments as needed.
    pub fn remove(&mut self, r: ByteRange) {
        if r.is_empty() {
            return;
        }
        // The segment starting before r.start may reach into r.
        if let Some((&s, &(e, _))) = self.map.range(..r.start).next_back() {
            if e > r.start {
                self.cut(s, r);
            }
        }
        // Then every segment starting within r, lowest first. The pieces
        // `cut` puts back start outside r, so each is found once.
        while let Some((&s, _)) = self.map.range(r.start..r.end).next() {
            self.cut(s, r);
        }
    }

    /// Remove the segment starting at `s` and put back its parts outside
    /// `r`.
    fn cut(&mut self, s: u64, r: ByteRange) {
        let (e, v) = self.take(s);
        if s < r.start {
            self.put(s, r.start, v.clone());
        }
        if e > r.end {
            self.put(r.end, e, v.slice(r.end - s));
        }
    }

    /// Insert `r → v`, overwriting whatever it overlaps, then coalesce
    /// with neighbours whose values continue.
    pub fn insert(&mut self, r: ByteRange, v: V) {
        if r.is_empty() {
            return;
        }
        self.remove(r);
        let (mut start, mut val, mut end) = (r.start, v, r.end);
        // Coalesce with predecessor.
        if let Some((ps, (pe, pv))) = self.map.range(..start).next_back() {
            if *pe == start && pv.continues(pe - ps, &val) {
                let ps = *ps;
                let (_, pv) = self.take(ps);
                val = pv;
                start = ps;
            }
        }
        // Coalesce with successor.
        if let Some((ns, (_, nv))) = self.map.range(end..).next() {
            if *ns == end && val.continues(end - start, nv) {
                let ns = *ns;
                end = self.take(ns).0;
            }
        }
        self.put(start, end, val);
    }

    /// Iterate over all segments in address order.
    pub fn iter(&self) -> impl Iterator<Item = (ByteRange, &V)> {
        self.map.iter().map(|(s, (e, v))| (ByteRange::new(*s, *e), v))
    }
}

impl<V: Sliceable> Default for RangeMap<V> {
    fn default() -> Self {
        RangeMap::new()
    }
}

impl<V: Sliceable + fmt::Debug> fmt::Debug for RangeMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.map.iter().map(|(s, (e, v))| (ByteRange::new(*s, *e), v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rm() -> RangeMap<SrcBase> {
        RangeMap::new()
    }

    #[test]
    fn byte_range_basics() {
        let r = ByteRange::new(10, 20);
        assert_eq!(r.len(), 10);
        assert!(r.contains(10) && r.contains(19) && !r.contains(20));
        assert!(r.overlaps(&ByteRange::new(19, 25)));
        assert!(!r.overlaps(&ByteRange::new(20, 25)));
        assert_eq!(r.intersect(&ByteRange::new(15, 30)), Some(ByteRange::new(15, 20)));
        assert!(ByteRange::new(0, 100).contains_range(&r));
    }

    #[test]
    fn insert_and_get() {
        let mut m = rm();
        m.insert(ByteRange::new(100, 200), SrcBase(1000));
        let (r, v) = m.get(150).expect("covered");
        assert_eq!(r, ByteRange::new(100, 200));
        assert_eq!(v.0, 1000);
        assert!(m.get(200).is_none());
        assert!(m.get(99).is_none());
    }

    #[test]
    fn overlapping_slices_values() {
        let mut m = rm();
        m.insert(ByteRange::new(100, 200), SrcBase(1000));
        let o: Vec<_> = m.overlapping(ByteRange::new(150, 400)).collect();
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].0, ByteRange::new(150, 200));
        assert_eq!(o[0].1 .0, 1050, "value sliced to subrange start");
    }

    #[test]
    fn insert_overwrites_overlap() {
        let mut m = rm();
        m.insert(ByteRange::new(0, 100), SrcBase(5000));
        m.insert(ByteRange::new(40, 60), SrcBase(9000));
        assert_eq!(m.segments(), 3);
        // `get` returns the value at the segment *start*.
        assert_eq!(m.get(39).unwrap(), (ByteRange::new(0, 40), &SrcBase(5000)));
        assert_eq!(m.get(40).unwrap().1 .0, 9000);
        assert_eq!(m.get(60).unwrap(), (ByteRange::new(60, 100), &SrcBase(5060)));
        assert_eq!(m.covered_bytes(), 100);
    }

    #[test]
    fn remove_splits_segments() {
        let mut m = rm();
        m.insert(ByteRange::new(0, 100), SrcBase(0));
        m.remove(ByteRange::new(30, 70));
        assert_eq!(m.segments(), 2);
        assert!(m.get(30).is_none() && m.get(69).is_none());
        assert_eq!(m.get(70).unwrap().1 .0, 70);
    }

    #[test]
    fn coalesce_contiguous_values() {
        let mut m = rm();
        m.insert(ByteRange::new(0, 64), SrcBase(1000));
        m.insert(ByteRange::new(64, 128), SrcBase(1064));
        assert_eq!(m.segments(), 1, "contiguous src+dst merge (paper §III-A1)");
        assert_eq!(m.get(100).unwrap().0, ByteRange::new(0, 128));
        // Non-contiguous values do not merge.
        m.insert(ByteRange::new(128, 192), SrcBase(9999));
        assert_eq!(m.segments(), 2);
    }

    #[test]
    fn coalesce_bridges_both_sides() {
        let mut m = rm();
        m.insert(ByteRange::new(0, 64), SrcBase(1000));
        m.insert(ByteRange::new(128, 192), SrcBase(1128));
        m.insert(ByteRange::new(64, 128), SrcBase(1064));
        assert_eq!(m.segments(), 1);
        assert_eq!(m.get(0).unwrap().0, ByteRange::new(0, 192));
    }

    #[test]
    fn covers_any_edges() {
        let mut m = rm();
        m.insert(ByteRange::new(100, 200), SrcBase(0));
        assert!(m.covers_any(ByteRange::new(199, 300)));
        assert!(!m.covers_any(ByteRange::new(200, 300)));
        assert!(m.covers_any(ByteRange::new(0, 101)));
        assert!(!m.covers_any(ByteRange::new(0, 100)));
        assert!(!m.covers_any(ByteRange::new(150, 150)), "empty range covers nothing");
    }

    /// Naive model: a Vec of per-byte Option<u64> source addresses.
    #[derive(Clone)]
    struct Model {
        bytes: Vec<Option<u64>>,
    }

    impl Model {
        fn new(n: usize) -> Model {
            Model { bytes: vec![None; n] }
        }
        fn insert(&mut self, r: ByteRange, src: u64) {
            for i in r.start..r.end {
                self.bytes[i as usize] = Some(src + (i - r.start));
            }
        }
        fn remove(&mut self, r: ByteRange) {
            for i in r.start..r.end {
                self.bytes[i as usize] = None;
            }
        }
    }

    fn arb_range(max: u64) -> impl Strategy<Value = ByteRange> {
        (0..max).prop_flat_map(move |s| (Just(s), s..=max)).prop_map(|(s, e)| ByteRange::new(s, e))
    }

    proptest! {
        #[test]
        fn matches_naive_model(ops in prop::collection::vec(
            (arb_range(256), 0u64..10_000, prop::bool::ANY), 1..40)
        ) {
            let mut m = rm();
            let mut model = Model::new(256);
            for (r, src, is_insert) in ops {
                if is_insert {
                    m.insert(r, SrcBase(src));
                    model.insert(r, src);
                } else {
                    m.remove(r);
                    model.remove(r);
                }
                // Compare byte by byte.
                for p in 0..256u64 {
                    let got = m.get(p).map(|(r0, v)| v.0 + (p - r0.start));
                    prop_assert_eq!(got, model.bytes[p as usize], "byte {}", p);
                }
                let covered = model.bytes.iter().filter(|b| b.is_some()).count() as u64;
                prop_assert_eq!(m.covered_bytes(), covered);
                // Segments are disjoint, sorted, and maximal w.r.t. merging.
                let segs: Vec<_> = m.iter().map(|(r, v)| (r, *v)).collect();
                for w in segs.windows(2) {
                    prop_assert!(w[0].0.end <= w[1].0.start, "disjoint & sorted");
                    let touching = w[0].0.end == w[1].0.start;
                    let continuous = w[0].1.0 + w[0].0.len() == w[1].1.0;
                    prop_assert!(!(touching && continuous), "unmerged neighbours");
                }
            }
        }
    }
}
