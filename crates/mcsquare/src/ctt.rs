//! The Copy Tracking Table (CTT), §III-A1.
//!
//! Each logical entry tracks one prospective copy as a destination byte
//! range plus the source address it shadows. The paper's table rules are
//! implemented here:
//!
//! * **Destination uniqueness** — inserting a copy whose destination
//!   overlaps existing entries trims or removes them, so tracked
//!   destination ranges are pairwise disjoint and every destination has a
//!   unique source.
//! * **Chain collapsing** — if the new copy's *source* overlaps an existing
//!   entry's *destination* (copy A→B followed by B→C), the new entry is
//!   split and the overlapping part redirected to the older source (stored
//!   as A→C), so no chains form.
//! * **Merging** — adjacent entries whose source and destination are both
//!   contiguous coalesce into one (element-by-element copies of an array
//!   occupy one entry).
//! * **Capacity** — a bounded number of entries (2048 in Table I);
//!   [`Ctt::try_insert`] fails when full so the memory controller can
//!   stall the request (the Fig. 20b stalls).
//!
//! The hardware table keeps one 16-byte row per entry (52b source, 52b
//! destination, 21b size, 1 active bit, 2 spare — see [`ENTRY_BYTES`]);
//! here an entry is a segment of a [`RangeMap`].

use crate::ranges::{ByteRange, RangeMap, SrcBase};
use mcs_sim::addr::{PhysAddr, CACHELINE, PAGE_2M};

/// Size of one hardware CTT entry in bytes (52 + 52 + 21 + 1 + 2 = 128
/// bits).
pub const ENTRY_BYTES: u64 = 16;
/// Maximum size a single entry can track: 2 MB, the 21-bit size field.
pub const MAX_ENTRY_SIZE: u64 = PAGE_2M;

/// Hardware rows needed to track `len` contiguous bytes.
pub(crate) fn hw_rows(len: u64) -> usize {
    (len.div_ceil(MAX_ENTRY_SIZE)) as usize
}

/// Why an insertion could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CttError {
    /// The table has no room for the entry (caller stalls and retries).
    Full,
    /// The new destination overlaps existing entries' *sources*: those
    /// dependent destinations must be flushed (copied out) before this
    /// insert can proceed, or the older entries would read clobbered data.
    /// Carries the destination lines to flush.
    NeedsFlush(Vec<PhysAddr>),
}

impl std::fmt::Display for CttError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CttError::Full => write!(f, "copy tracking table full"),
            CttError::NeedsFlush(lines) => {
                write!(f, "insert requires flushing {} dependent lines", lines.len())
            }
        }
    }
}

impl std::error::Error for CttError {}

/// A fragment of a destination cacheline and the source bytes backing it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Fragment {
    /// Absolute destination address of the fragment.
    pub dst: PhysAddr,
    /// Fragment length in bytes.
    pub len: u64,
    /// Absolute source address the fragment shadows.
    pub src: PhysAddr,
}

/// CTT statistics counters.
#[derive(Debug, Default, Clone)]
pub struct CttStats {
    /// Successful insert operations (MCLAZY packets accepted).
    pub inserts: u64,
    /// Inserts rejected because the table was full.
    pub full_rejects: u64,
    /// Pieces created by chain collapsing.
    pub chain_collapses: u64,
    /// Bytes untracked by destination writes.
    pub bytes_untracked_by_write: u64,
    /// Entries dropped by MCFREE.
    pub freed_entries: u64,
    /// Peak segment count observed.
    pub peak_segments: u64,
}

/// The Copy Tracking Table.
#[derive(Debug, Clone)]
pub struct Ctt {
    map: RangeMap<SrcBase>,
    capacity: usize,
    /// Statistics.
    pub stats: CttStats,
}

impl Ctt {
    /// Create a table with room for `capacity` entries (segments).
    pub fn new(capacity: usize) -> Ctt {
        Ctt {
            map: RangeMap::new(),
            capacity,
            stats: CttStats::default(),
        }
    }

    /// Number of live entries (segments).
    pub fn len(&self) -> usize {
        self.map.segments()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fractional occupancy, in hardware rows (drives the drain policy).
    pub fn occupancy(&self) -> f64 {
        self.hw_entries() as f64 / self.capacity as f64
    }

    /// Total destination bytes currently tracked.
    pub fn tracked_bytes(&self) -> u64 {
        self.map.covered_bytes()
    }

    /// Number of hardware table rows the live segments occupy. The 21-bit
    /// size field caps one row at [`MAX_ENTRY_SIZE`] (2 MB), so a merged
    /// segment wider than that is stored as several back-to-back rows:
    /// `ceil(len / MAX_ENTRY_SIZE)` per segment. The map keeps the sum as
    /// a running total, like the hardware's occupancy counter, so this is
    /// O(1); [`Ctt::check_invariants`] recounts it.
    pub fn hw_entries(&self) -> usize {
        self.map.rows()
    }

    /// Insert a prospective copy `size` bytes from `src` to `dst`.
    ///
    /// Applies chain collapsing and destination-overlap trimming. Copies
    /// larger than [`MAX_ENTRY_SIZE`] are accepted and split into multiple
    /// hardware rows — a segment wider than 2 MB counts as several entries
    /// toward capacity (see [`Ctt::hw_entries`]); the software wrapper
    /// already splits at page granularity, so this is belt and braces.
    ///
    /// # Errors
    /// * [`CttError::Full`] if the table cannot hold the resulting entries.
    /// * [`CttError::NeedsFlush`] if the new destination overlaps an
    ///   existing entry's source (the caller must flush those lines first).
    pub fn try_insert(&mut self, dst: PhysAddr, src: PhysAddr, size: u64) -> Result<(), CttError> {
        assert!(dst.is_aligned(CACHELINE), "MCLAZY destination must be line aligned");
        assert!(size > 0 && size.is_multiple_of(CACHELINE), "MCLAZY size must be in whole lines");
        let dst_r = ByteRange::sized(dst.0, size);
        let src_r = ByteRange::sized(src.0, size);
        assert!(!dst_r.overlaps(&src_r), "memcpy buffers must not overlap");

        // Rule: the new destination must not clobber bytes other entries
        // still need as sources.
        let dependents = self.dst_lines_with_src_in(dst_r);
        if !dependents.is_empty() {
            return Err(CttError::NeedsFlush(dependents));
        }

        // Chain collapsing: split the new source range around existing
        // destinations and redirect.
        let mut pieces: Vec<(ByteRange, u64)> = Vec::new(); // (dst subrange, src base)
        let mut cursor = src_r.start;
        for (seg, v) in self.map.overlapping(src_r) {
            if seg.start > cursor {
                let d0 = dst_r.start + (cursor - src_r.start);
                pieces.push((ByteRange::new(d0, d0 + (seg.start - cursor)), cursor));
            }
            let d0 = dst_r.start + (seg.start - src_r.start);
            pieces.push((ByteRange::new(d0, d0 + seg.len()), v.0));
            self.stats.chain_collapses += 1;
            cursor = seg.end;
        }
        if cursor < src_r.end {
            let d0 = dst_r.start + (cursor - src_r.start);
            pieces.push((ByteRange::new(d0, d0 + (src_r.end - cursor)), cursor));
        }

        // Capacity check: conservative upper bound on resulting hardware
        // rows. Each new piece costs ceil(len / MAX_ENTRY_SIZE) rows (the
        // 21-bit size field). Overlap removal can split one existing entry
        // into two; merging can reduce the count — we bound by current +
        // new rows + 1.
        let new_rows: usize = pieces.iter().map(|(r, _)| hw_rows(r.len())).sum();
        if self.hw_entries() + new_rows + 1 > self.capacity {
            self.stats.full_rejects += 1;
            return Err(CttError::Full);
        }

        for (r, src_base) in pieces {
            self.map.insert(r, SrcBase(src_base));
        }
        self.stats.inserts += 1;
        self.stats.peak_segments = self.stats.peak_segments.max(self.len() as u64);
        Ok(())
    }

    /// Fragments of the destination cacheline containing `line` that are
    /// tracked, in address order. Gaps between fragments are bytes whose
    /// current memory contents are already valid.
    pub fn lookup_line(&self, line: PhysAddr) -> Vec<Fragment> {
        let base = line.line_base().0;
        self.map
            .overlapping(ByteRange::new(base, base + CACHELINE))
            .into_iter()
            .map(|(r, v)| Fragment { dst: PhysAddr(r.start), len: r.len(), src: PhysAddr(v.0) })
            .collect()
    }

    /// Whether any byte in `[addr, addr+len)` is a tracked destination.
    pub fn covers_dst(&self, addr: PhysAddr, len: u64) -> bool {
        self.map.covers_any(ByteRange::sized(addr.0, len))
    }

    /// Untrack destination bytes `[addr, addr+len)` (a write to the
    /// destination reached memory, §III-B2).
    pub fn remove_dst(&mut self, addr: PhysAddr, len: u64) {
        let r = ByteRange::sized(addr.0, len);
        let before = self.map.covered_bytes();
        self.map.remove(r);
        self.stats.bytes_untracked_by_write += before - self.map.covered_bytes();
    }

    /// Entries whose *source* range overlaps `[addr, addr+len)`, clipped
    /// to the overlap: returns (destination subrange, source base of that
    /// subrange). O(entries).
    pub fn src_overlapping(&self, addr: PhysAddr, len: u64) -> Vec<(ByteRange, PhysAddr)> {
        let q = ByteRange::sized(addr.0, len);
        let mut out = Vec::new();
        for (dst, v) in self.map.iter() {
            let src = ByteRange::sized(v.0, dst.len());
            if let Some(ix) = src.intersect(&q) {
                let off = ix.start - src.start;
                out.push((
                    ByteRange::new(dst.start + off, dst.start + off + ix.len()),
                    PhysAddr(ix.start),
                ));
            }
        }
        out
    }

    /// Destination *lines* of entries whose source overlaps `r` (used for
    /// the flush-before-insert rule and for source-write handling).
    pub fn dst_lines_with_src_in(&self, r: ByteRange) -> Vec<PhysAddr> {
        let mut lines: Vec<PhysAddr> = Vec::new();
        for (dst_sub, _) in self.src_overlapping(PhysAddr(r.start), r.len()) {
            for l in mcs_sim::addr::lines_of(PhysAddr(dst_sub.start), dst_sub.len()) {
                if lines.last() != Some(&l) {
                    lines.push(l);
                }
            }
        }
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Drop every entry whose destination lies entirely within
    /// `[addr, addr+len)` — the MCFREE rule (§III-C). Returns entries
    /// dropped.
    pub fn free_contained(&mut self, addr: PhysAddr, len: u64) -> usize {
        let q = ByteRange::sized(addr.0, len);
        let victims: Vec<ByteRange> =
            self.map.iter().filter(|(r, _)| q.contains_range(r)).map(|(r, _)| r).collect();
        for v in &victims {
            self.map.remove(*v);
        }
        self.stats.freed_entries += victims.len() as u64;
        victims.len()
    }

    /// The smallest entry overlapping channel-owned lines, per the drain
    /// policy ("the MC identifies entries with the smallest size",
    /// §III-A1). `owned` filters by the first destination line; entries
    /// overlapping `exclude` ranges (already being drained) are skipped.
    pub fn smallest_entry(
        &self,
        owned: impl Fn(PhysAddr) -> bool,
        exclude: &[ByteRange],
    ) -> Option<(ByteRange, PhysAddr)> {
        self.map
            .iter()
            .filter(|(r, _)| owned(PhysAddr(r.start)))
            .filter(|(r, _)| !exclude.iter().any(|x| x.overlaps(r)))
            .min_by_key(|(r, _)| r.len())
            .map(|(r, v)| (r, PhysAddr(v.0)))
    }

    /// Iterate over (destination range, source base) entries.
    pub fn iter(&self) -> impl Iterator<Item = (ByteRange, PhysAddr)> + '_ {
        self.map.iter().map(|(r, v)| (r, PhysAddr(v.0)))
    }

    /// Invariant check (used by tests): destination ranges are pairwise
    /// disjoint, no entry's source overlaps any entry's destination, and
    /// the running totals behind [`Ctt::tracked_bytes`] and
    /// [`Ctt::hw_entries`] equal a full recount.
    pub fn check_invariants(&self) -> Result<(), String> {
        let entries: Vec<_> = self.iter().collect();
        let bytes: u64 = entries.iter().map(|(r, _)| r.len()).sum();
        let rows: usize = entries.iter().map(|(r, _)| hw_rows(r.len())).sum();
        if (bytes, rows) != (self.tracked_bytes(), self.hw_entries()) {
            return Err(format!(
                "running totals drifted: {} bytes in {} rows kept, \
                 {bytes} bytes in {rows} rows counted",
                self.tracked_bytes(),
                self.hw_entries()
            ));
        }
        for w in entries.windows(2) {
            if w[0].0.end > w[1].0.start {
                return Err(format!("overlapping destinations: {:?} and {:?}", w[0].0, w[1].0));
            }
        }
        for (dst, src) in &entries {
            let src_r = ByteRange::sized(src.0, dst.len());
            for (dst2, _) in &entries {
                if src_r.overlaps(dst2) {
                    return Err(format!("chain: src {src_r:?} overlaps dst {dst2:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pa(x: u64) -> PhysAddr {
        PhysAddr(x)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x2000), 128).unwrap();
        assert_eq!(c.len(), 1);
        let f = c.lookup_line(pa(0x1040));
        assert_eq!(f, vec![Fragment { dst: pa(0x1040), len: 64, src: pa(0x2040) }]);
        assert!(c.lookup_line(pa(0x1080)).is_empty());
        c.check_invariants().unwrap();
    }

    #[test]
    fn misaligned_source_lookup() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x2024), 64).unwrap();
        let f = c.lookup_line(pa(0x1000));
        assert_eq!(f, vec![Fragment { dst: pa(0x1000), len: 64, src: pa(0x2024) }]);
    }

    #[test]
    fn dest_overlap_trims_existing() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x8000), 256).unwrap();
        // New copy over the middle two lines.
        c.try_insert(pa(0x1040), pa(0x9000), 128).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.lookup_line(pa(0x1000))[0].src, pa(0x8000));
        assert_eq!(c.lookup_line(pa(0x1040))[0].src, pa(0x9000));
        assert_eq!(c.lookup_line(pa(0x1080))[0].src, pa(0x9040));
        assert_eq!(c.lookup_line(pa(0x10c0))[0].src, pa(0x80c0));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn chain_collapse_redirects_to_original_source() {
        let mut c = Ctt::new(16);
        // Copy A(0x8000) → B(0x1000), then B → C(0x4000): entry must read
        // A → C (paper's A/B/C example, §III-A1).
        c.try_insert(pa(0x1000), pa(0x8000), 128).unwrap();
        c.try_insert(pa(0x4000), pa(0x1000), 128).unwrap();
        c.check_invariants().unwrap();
        let f = c.lookup_line(pa(0x4000));
        assert_eq!(f[0].src, pa(0x8000), "chain collapsed to A");
        assert_eq!(c.stats.chain_collapses, 1);
    }

    #[test]
    fn partial_chain_collapse_splits() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x8000), 64).unwrap(); // A→B (one line)
        // C ← [B-line, untracked line]: first half redirects to A.
        c.try_insert(pa(0x4000), pa(0x1000), 128).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.lookup_line(pa(0x4000))[0].src, pa(0x8000));
        assert_eq!(c.lookup_line(pa(0x4040))[0].src, pa(0x1040));
    }

    #[test]
    fn contiguous_copies_merge() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x2000), 64).unwrap();
        c.try_insert(pa(0x1040), pa(0x2040), 64).unwrap();
        assert_eq!(c.len(), 1, "array element copies merge into one entry");
    }

    #[test]
    fn dest_write_untracks_and_splits() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x2000), 192).unwrap();
        c.remove_dst(pa(0x1040), 64);
        assert_eq!(c.len(), 2);
        assert!(c.lookup_line(pa(0x1040)).is_empty());
        assert!(!c.lookup_line(pa(0x1080)).is_empty());
        assert_eq!(c.stats.bytes_untracked_by_write, 64);
    }

    #[test]
    fn capacity_rejects_when_full() {
        // Capacity 3 with the conservative +1 headroom: third distinct
        // entry is rejected.
        let mut c = Ctt::new(3);
        // Non-mergeable entries.
        c.try_insert(pa(0x1000), pa(0x20000), 64).unwrap();
        c.try_insert(pa(0x3000), pa(0x40000), 64).unwrap();
        let e = c.try_insert(pa(0x5000), pa(0x60000), 64);
        assert_eq!(e, Err(CttError::Full));
        assert_eq!(c.stats.full_rejects, 1);
        // Freeing makes room again.
        c.free_contained(pa(0x1000), 64);
        c.try_insert(pa(0x5000), pa(0x60000), 64).unwrap();
    }

    #[test]
    fn needs_flush_when_dst_overlaps_existing_src() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x8000), 128).unwrap(); // src 0x8000..0x8080
        let e = c.try_insert(pa(0x8000), pa(0x9000), 64); // would clobber src
        match e {
            Err(CttError::NeedsFlush(lines)) => assert_eq!(lines, vec![pa(0x1000)]),
            other => panic!("expected NeedsFlush, got {other:?}"),
        }
        // After flushing (simulated by untracking), the insert succeeds.
        c.remove_dst(pa(0x1000), 64);
        c.try_insert(pa(0x8000), pa(0x9000), 64).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn mcfree_drops_only_contained() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x8000), 128).unwrap();
        c.try_insert(pa(0x3000), pa(0x9000), 128).unwrap();
        // Free covers the first entry fully, the second not at all.
        assert_eq!(c.free_contained(pa(0x0), 0x2000), 1);
        assert_eq!(c.len(), 1);
        assert!(!c.lookup_line(pa(0x3000)).is_empty());
    }

    #[test]
    fn src_overlapping_maps_back_to_dst() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x8020), 128).unwrap();
        let hits = c.src_overlapping(pa(0x8040), 64);
        assert_eq!(hits.len(), 1);
        let (dst, src) = hits[0];
        assert_eq!(src, pa(0x8040));
        assert_eq!(dst, ByteRange::new(0x1020, 0x1060));
    }

    #[test]
    fn smallest_entry_selection() {
        let mut c = Ctt::new(16);
        c.try_insert(pa(0x1000), pa(0x8000), 256).unwrap();
        c.try_insert(pa(0x3000), pa(0x9000), 64).unwrap();
        let (r, _) = c.smallest_entry(|_| true, &[]).unwrap();
        assert_eq!(r.len(), 64);
        // Excluding it picks the next.
        let (r2, _) = c.smallest_entry(|_| true, &[r]).unwrap();
        assert_eq!(r2.len(), 256);
    }

    #[test]
    fn running_totals_follow_wide_segments() {
        const MB: u64 = 1 << 20;
        let expect = |c: &Ctt| {
            let rows: u64 = c.iter().map(|(r, _)| r.len().div_ceil(MAX_ENTRY_SIZE)).sum();
            let bytes: u64 = c.iter().map(|(r, _)| r.len()).sum();
            assert_eq!(c.hw_entries() as u64, rows);
            assert_eq!(c.tracked_bytes(), bytes);
            c.check_invariants().unwrap();
        };
        let mut c = Ctt::new(64);
        // 5 MB: one segment, three rows.
        c.try_insert(pa(0), pa(64 * MB), 5 * MB).unwrap();
        assert_eq!(c.hw_entries(), 3);
        expect(&c);
        // Trim 1 MB off the tail: 4 MB, two rows.
        c.remove_dst(pa(4 * MB), MB);
        assert_eq!(c.hw_entries(), 2);
        expect(&c);
        // Split out the middle line: 2 MB + 2 MB - 64 B, two rows.
        c.remove_dst(pa(2 * MB), CACHELINE);
        assert_eq!((c.len(), c.hw_entries()), (2, 2));
        expect(&c);
        // Overwrite the head with another 3 MB copy: trims, then a new
        // two-row entry next to a one-row remnant.
        c.try_insert(pa(0), pa(128 * MB), 3 * MB).unwrap();
        assert_eq!((c.len(), c.hw_entries()), (2, 3));
        expect(&c);
        // A contiguous continuation merges 3 MB + 2 MB into one 5 MB entry.
        c.try_insert(pa(3 * MB), pa(131 * MB), 2 * MB).unwrap();
        assert_eq!((c.len(), c.hw_entries()), (1, 3));
        expect(&c);
        c.free_contained(pa(0), 8 * MB);
        assert_eq!((c.hw_entries(), c.tracked_bytes()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_buffers_panic() {
        let mut c = Ctt::new(16);
        let _ = c.try_insert(pa(0x1000), pa(0x1020), 128);
    }

    proptest! {
        #[test]
        fn invariants_hold_under_random_ops(
            ops in prop::collection::vec((0u8..4, 0u64..32, 32u64..64, 1u64..4), 1..60)
        ) {
            let mut c = Ctt::new(64);
            for (kind, a, b, lines) in ops {
                let dst = pa(a * 64);
                let src = pa(b * 64 + 7); // misaligned sources allowed
                let size = lines * 64;
                match kind {
                    0 => {
                        if !ByteRange::sized(dst.0, size).overlaps(&ByteRange::sized(src.0, size)) {
                            let _ = c.try_insert(dst, src, size);
                        }
                    }
                    1 => c.remove_dst(dst, size),
                    2 => { c.free_contained(dst, size); }
                    3 => { let _ = c.lookup_line(dst); }
                    _ => unreachable!(),
                }
                prop_assert!(c.check_invariants().is_ok(), "{:?}", c.check_invariants());
                prop_assert!(c.len() <= c.capacity() + 1);
            }
        }

        #[test]
        fn lookup_agrees_with_entry_arithmetic(
            dst_line in 0u64..64, src_byte in 4096u64..8192, lines in 1u64..8
        ) {
            let mut c = Ctt::new(64);
            let dst = pa(dst_line * 64);
            let size = lines * 64;
            prop_assume!(!ByteRange::sized(dst.0, size).overlaps(&ByteRange::sized(src_byte, size)));
            c.try_insert(dst, pa(src_byte), size).unwrap();
            for l in 0..lines {
                let frs = c.lookup_line(pa(dst.0 + l * 64));
                let total: u64 = frs.iter().map(|f| f.len).sum();
                prop_assert_eq!(total, 64);
                for f in frs {
                    let off = f.dst.0 - dst.0;
                    prop_assert_eq!(f.src.0, src_byte + off);
                }
            }
        }
    }
}
