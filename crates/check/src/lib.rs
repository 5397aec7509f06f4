//! # mcs-check — bounded model checking for the (MC)² Copy Tracking Table
//!
//! The CTT ([`mcsquare::ctt`]) promises four structural invariants
//! (destination uniqueness, chain collapsing, merging, capacity) plus the
//! semantic property that matters to software: **lazy memory always reads
//! as if every registered copy had executed eagerly**. This crate checks
//! both, exhaustively, over a small bounded universe:
//!
//! * A flat arena of three 8-line regions (`D`, `S0`, `S1`) models
//!   physical memory at cacheline granularity.
//! * A curated set of operations ([`OPS`]) — overlapping inserts, chain
//!   collapses, flush-triggering inserts, destination and source writes,
//!   drains, bounce reads, and frees — drives the table through every
//!   documented transition.
//! * A breadth-first search enumerates all operation interleavings up to a
//!   depth bound, deduplicating states by hash. BFS order means the first
//!   violation found carries a *minimal* reproducing trace.
//! * After every step the checker asserts the structural invariants
//!   directly from the entry list (not via the table's own self-check, so
//!   a broken table cannot vouch for itself) and compares every line of
//!   lazily-resolved memory against a shadow oracle that copies eagerly.
//!
//! Deliberately broken table implementations ([`SimpleCtt`] with a
//! [`Mutation`]) demonstrate that the checker actually detects the bugs it
//! is aimed at: skipped chain collapsing, a missing flush-before-insert
//! check, and writes that fail to untrack the destination.
//!
//! Run it as a CLI (`cargo run -p mcs-check --release`) or via the crate's
//! integration tests.

pub mod oracle;

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use mcs_sim::addr::{PhysAddr, CACHELINE};
use mcsquare::ctt::{Ctt, CttError, Fragment, MAX_ENTRY_SIZE};
use mcsquare::ranges::ByteRange;

/// Lines per arena region.
pub const LINES_PER_REGION: usize = 8;
/// Number of regions (`D`, `S0`, `S1`).
pub const REGIONS: usize = 3;
/// Total cachelines in the modelled universe.
pub const NUM_LINES: usize = REGIONS * LINES_PER_REGION;
/// Base physical address of each region. Regions are deliberately
/// non-adjacent so entries can never merge across them.
pub const REGION_BASES: [u64; REGIONS] = [0x1000, 0x2000, 0x3000];
/// Region display names (indexes match [`REGION_BASES`]).
pub const REGION_NAMES: [&str; REGIONS] = ["D", "S0", "S1"];

/// Physical address of arena line `i`.
pub fn addr_of(line: usize) -> PhysAddr {
    assert!(line < NUM_LINES);
    PhysAddr(REGION_BASES[line / LINES_PER_REGION] + (line % LINES_PER_REGION) as u64 * CACHELINE)
}

/// Arena line index of a (line-aligned) physical address, if inside the
/// arena.
pub fn idx_of(addr: PhysAddr) -> Option<usize> {
    if !addr.0.is_multiple_of(CACHELINE) {
        return None;
    }
    for (r, base) in REGION_BASES.iter().enumerate() {
        let span = LINES_PER_REGION as u64 * CACHELINE;
        if (*base..base + span).contains(&addr.0) {
            return Some(r * LINES_PER_REGION + ((addr.0 - base) / CACHELINE) as usize);
        }
    }
    None
}

/// Human-readable name of an arena line (`D[3]`, `S1[0]`, ...).
pub fn line_name(line: usize) -> String {
    format!("{}[{}]", REGION_NAMES[line / LINES_PER_REGION], line % LINES_PER_REGION)
}

// ---------------------------------------------------------------------------
// The table interface under test
// ---------------------------------------------------------------------------

/// The slice of the CTT interface the model checker drives. Implemented by
/// the real [`mcsquare::Ctt`] and by [`SimpleCtt`] (which can carry an
/// injected bug), so the checker can demonstrate it detects broken tables.
pub trait CttLike: Clone {
    /// Register a prospective copy (see [`Ctt::try_insert`]).
    fn try_insert(&mut self, dst: PhysAddr, src: PhysAddr, size: u64) -> Result<(), CttError>;
    /// Untrack destination bytes after a write reached memory.
    fn remove_dst(&mut self, addr: PhysAddr, len: u64);
    /// Drop entries fully contained in the range (MCFREE).
    fn free_contained(&mut self, addr: PhysAddr, len: u64) -> usize;
    /// Tracked fragments of the cacheline containing `line`.
    fn lookup_line(&self, line: PhysAddr) -> Vec<Fragment>;
    /// Destination lines of entries whose source overlaps `r`.
    fn dst_lines_with_src_in(&self, r: ByteRange) -> Vec<PhysAddr>;
    /// Whether any byte of the range is a tracked destination.
    fn covers_dst(&self, addr: PhysAddr, len: u64) -> bool;
    /// Smallest entry not overlapping `exclude` (drain policy).
    fn smallest_entry(&self, exclude: &[ByteRange]) -> Option<(ByteRange, PhysAddr)>;
    /// All (destination range, source base) entries in address order.
    fn entries(&self) -> Vec<(ByteRange, PhysAddr)>;
    /// Tracked bytes and hardware rows as the table reports them (see
    /// [`Ctt::tracked_bytes`] and [`Ctt::hw_entries`]).
    fn totals(&self) -> (u64, usize);
    /// Entry capacity.
    fn capacity(&self) -> usize;
    /// Short description for reports.
    fn describe(&self) -> String;
}

impl CttLike for Ctt {
    fn try_insert(&mut self, dst: PhysAddr, src: PhysAddr, size: u64) -> Result<(), CttError> {
        Ctt::try_insert(self, dst, src, size)
    }

    fn remove_dst(&mut self, addr: PhysAddr, len: u64) {
        Ctt::remove_dst(self, addr, len)
    }

    fn free_contained(&mut self, addr: PhysAddr, len: u64) -> usize {
        Ctt::free_contained(self, addr, len)
    }

    fn lookup_line(&self, line: PhysAddr) -> Vec<Fragment> {
        Ctt::lookup_line(self, line)
    }

    fn dst_lines_with_src_in(&self, r: ByteRange) -> Vec<PhysAddr> {
        Ctt::dst_lines_with_src_in(self, r)
    }

    fn covers_dst(&self, addr: PhysAddr, len: u64) -> bool {
        Ctt::covers_dst(self, addr, len)
    }

    fn smallest_entry(&self, exclude: &[ByteRange]) -> Option<(ByteRange, PhysAddr)> {
        Ctt::smallest_entry(self, |_| true, exclude)
    }

    fn entries(&self) -> Vec<(ByteRange, PhysAddr)> {
        self.iter().collect()
    }

    fn totals(&self) -> (u64, usize) {
        (self.tracked_bytes(), self.hw_entries())
    }

    fn capacity(&self) -> usize {
        Ctt::capacity(self)
    }

    fn describe(&self) -> String {
        format!("real mcsquare::Ctt (capacity {})", Ctt::capacity(self))
    }
}

// ---------------------------------------------------------------------------
// A second, mutable implementation for mutation testing
// ---------------------------------------------------------------------------

/// An injectable bug for [`SimpleCtt`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Faithful behaviour (differential reference against the real table).
    None,
    /// Skip chain collapsing: copy B→C after A→B is stored as B→C.
    NoCollapse,
    /// Skip the flush-before-insert rule: a new destination may silently
    /// clobber bytes older entries still need as sources.
    NoFlushCheck,
    /// Destination writes do not untrack the written bytes.
    NoUntrack,
}

impl Mutation {
    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "no-collapse" => Some(Mutation::NoCollapse),
            "no-flush-check" => Some(Mutation::NoFlushCheck),
            "no-untrack" => Some(Mutation::NoUntrack),
            _ => None,
        }
    }
}

/// A small, independent CTT implementation (a sorted `Vec` of entries)
/// whose behaviour can be selectively broken via [`Mutation`]. With
/// `Mutation::None` it must be observationally equivalent to the real
/// table; with a bug injected, the model checker must find a violating
/// trace — that is the mutation smoke test.
#[derive(Clone)]
pub struct SimpleCtt {
    /// (destination range, source base), sorted by destination start.
    entries: Vec<(ByteRange, u64)>,
    capacity: usize,
    mutation: Mutation,
}

impl SimpleCtt {
    /// New table with the given capacity and injected bug.
    pub fn new(capacity: usize, mutation: Mutation) -> SimpleCtt {
        SimpleCtt { entries: Vec::new(), capacity, mutation }
    }

    /// Trim/split entries so nothing overlaps `r`.
    fn remove_range(&mut self, r: ByteRange) {
        let mut out = Vec::with_capacity(self.entries.len() + 1);
        for (dst, src) in self.entries.drain(..) {
            match dst.intersect(&r) {
                None => out.push((dst, src)),
                Some(ix) => {
                    if dst.start < ix.start {
                        out.push((ByteRange::new(dst.start, ix.start), src));
                    }
                    if ix.end < dst.end {
                        out.push((ByteRange::new(ix.end, dst.end), src + (ix.end - dst.start)));
                    }
                }
            }
        }
        self.entries = out;
        self.normalize();
    }

    /// Sort and coalesce adjacent entries whose source continues.
    fn normalize(&mut self) {
        self.entries.sort_by_key(|(r, _)| r.start);
        let mut out: Vec<(ByteRange, u64)> = Vec::with_capacity(self.entries.len());
        for (dst, src) in self.entries.drain(..) {
            if let Some((prev, psrc)) = out.last_mut() {
                if prev.end == dst.start && *psrc + prev.len() == src {
                    prev.end = dst.end;
                    continue;
                }
            }
            out.push((dst, src));
        }
        self.entries = out;
    }
}

impl CttLike for SimpleCtt {
    fn try_insert(&mut self, dst: PhysAddr, src: PhysAddr, size: u64) -> Result<(), CttError> {
        let dst_r = ByteRange::sized(dst.0, size);
        let src_r = ByteRange::sized(src.0, size);
        if self.mutation != Mutation::NoFlushCheck {
            let dependents = self.dst_lines_with_src_in(dst_r);
            if !dependents.is_empty() {
                return Err(CttError::NeedsFlush(dependents));
            }
        }
        // Chain collapsing: redirect parts of the new source that are
        // themselves tracked destinations to their original sources.
        let mut pieces: Vec<(ByteRange, u64)> = Vec::new();
        if self.mutation == Mutation::NoCollapse {
            pieces.push((dst_r, src_r.start));
        } else {
            let mut cursor = src_r.start;
            let mut overlaps: Vec<(ByteRange, u64)> = self
                .entries
                .iter()
                .filter_map(|(d, s)| d.intersect(&src_r).map(|ix| (ix, s + (ix.start - d.start))))
                .collect();
            overlaps.sort_by_key(|(r, _)| r.start);
            for (seg, redirected) in overlaps {
                if seg.start > cursor {
                    let d0 = dst_r.start + (cursor - src_r.start);
                    pieces.push((ByteRange::new(d0, d0 + (seg.start - cursor)), cursor));
                }
                let d0 = dst_r.start + (seg.start - src_r.start);
                pieces.push((ByteRange::new(d0, d0 + seg.len()), redirected));
                cursor = seg.end;
            }
            if cursor < src_r.end {
                let d0 = dst_r.start + (cursor - src_r.start);
                pieces.push((ByteRange::new(d0, d0 + (src_r.end - cursor)), cursor));
            }
        }
        if self.entries.len() + pieces.len() + 1 > self.capacity {
            return Err(CttError::Full);
        }
        self.remove_range(dst_r);
        self.entries.extend(pieces);
        self.normalize();
        Ok(())
    }

    fn remove_dst(&mut self, addr: PhysAddr, len: u64) {
        if self.mutation == Mutation::NoUntrack {
            return;
        }
        self.remove_range(ByteRange::sized(addr.0, len));
    }

    fn free_contained(&mut self, addr: PhysAddr, len: u64) -> usize {
        let q = ByteRange::sized(addr.0, len);
        let before = self.entries.len();
        self.entries.retain(|(dst, _)| !q.contains_range(dst));
        before - self.entries.len()
    }

    fn lookup_line(&self, line: PhysAddr) -> Vec<Fragment> {
        let base = line.line_base().0;
        let q = ByteRange::new(base, base + CACHELINE);
        let mut out: Vec<Fragment> = self
            .entries
            .iter()
            .filter_map(|(d, s)| {
                d.intersect(&q).map(|ix| Fragment {
                    dst: PhysAddr(ix.start),
                    len: ix.len(),
                    src: PhysAddr(s + (ix.start - d.start)),
                })
            })
            .collect();
        out.sort_by_key(|f| f.dst.0);
        out
    }

    fn dst_lines_with_src_in(&self, r: ByteRange) -> Vec<PhysAddr> {
        let mut lines: Vec<PhysAddr> = Vec::new();
        for (dst, src) in &self.entries {
            let src_r = ByteRange::sized(*src, dst.len());
            if let Some(ix) = src_r.intersect(&r) {
                let off = ix.start - src_r.start;
                let sub = ByteRange::new(dst.start + off, dst.start + off + ix.len());
                lines.extend(mcs_sim::addr::lines_of(PhysAddr(sub.start), sub.len()));
            }
        }
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    fn covers_dst(&self, addr: PhysAddr, len: u64) -> bool {
        let q = ByteRange::sized(addr.0, len);
        self.entries.iter().any(|(d, _)| d.overlaps(&q))
    }

    fn smallest_entry(&self, exclude: &[ByteRange]) -> Option<(ByteRange, PhysAddr)> {
        self.entries
            .iter()
            .filter(|(r, _)| !exclude.iter().any(|x| x.overlaps(r)))
            .min_by_key(|(r, _)| r.len())
            .map(|(r, s)| (*r, PhysAddr(*s)))
    }

    fn entries(&self) -> Vec<(ByteRange, PhysAddr)> {
        self.entries.iter().map(|(r, s)| (*r, PhysAddr(*s))).collect()
    }

    fn totals(&self) -> (u64, usize) {
        row_totals(&self.entries())
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn describe(&self) -> String {
        format!("SimpleCtt (capacity {}, mutation {:?})", self.capacity, self.mutation)
    }
}

/// Bytes and hardware rows (Σ ⌈len / [`MAX_ENTRY_SIZE`]⌉) of `entries`.
fn row_totals(entries: &[(ByteRange, PhysAddr)]) -> (u64, usize) {
    let bytes = entries.iter().map(|(r, _)| r.len()).sum();
    let rows = entries.iter().map(|(r, _)| r.len().div_ceil(MAX_ENTRY_SIZE) as usize).sum();
    (bytes, rows)
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// One transition of the model. All fields are arena line indexes.
#[derive(Copy, Clone, Debug)]
pub enum Op {
    /// MCLAZY: register `lines` cachelines `dst ← src`.
    Insert { dst: usize, src: usize, lines: usize },
    /// A store to `line` reaching memory: flushes dependents if the line
    /// is a source, untracks if it is a destination.
    Write { line: usize },
    /// Background drain of the smallest entry.
    Drain,
    /// Demand read of `line`: if tracked, reconstruct from the source,
    /// verify against the oracle, write back and untrack.
    BounceRead { line: usize },
    /// MCFREE over `lines` cachelines starting at `start`.
    Free { start: usize, lines: usize },
}

/// The curated transition set: every documented CTT rule is reachable
/// within a couple of steps. Line indexes: `D` = 0..8, `S0` = 8..16,
/// `S1` = 16..24.
pub const OPS: &[(&str, Op)] = &[
    ("insert D[0..2] <- S0[0..2]", Op::Insert { dst: 0, src: 8, lines: 2 }),
    // Overlaps the first insert's destination: exercises trimming.
    ("insert D[1..3] <- S1[0..2]", Op::Insert { dst: 1, src: 16, lines: 2 }),
    // Source is a tracked destination after the first insert: exercises
    // chain collapsing (stored as S1[4] <- S0[0]).
    ("insert S1[4] <- D[0]", Op::Insert { dst: 20, src: 0, lines: 1 }),
    ("insert S0[4..6] <- S1[2..4]", Op::Insert { dst: 12, src: 18, lines: 2 }),
    // Destination clobbers the second insert's source: exercises the
    // NeedsFlush rule (flush dependents, then retry).
    ("insert S1[0] <- S0[6]", Op::Insert { dst: 16, src: 14, lines: 1 }),
    ("write D[1]", Op::Write { line: 1 }),
    ("write S0[0]", Op::Write { line: 8 }),
    ("write S1[2]", Op::Write { line: 18 }),
    ("drain smallest entry", Op::Drain),
    ("bounce-read D[0]", Op::BounceRead { line: 0 }),
    ("bounce-read D[2]", Op::BounceRead { line: 2 }),
    ("free D[0..8]", Op::Free { start: 0, lines: 8 }),
];

// ---------------------------------------------------------------------------
// Model state
// ---------------------------------------------------------------------------

/// One model state: the table under test, the lazy world's raw memory
/// contents, and the eager-copy oracle. Memory is modelled one `u64` tag
/// per cacheline (all operations are line-granular).
#[derive(Clone)]
pub struct State<B: CttLike> {
    /// The table under test.
    pub ctt: B,
    /// Raw lazy-world memory: what a DRAM read would return before any
    /// CTT-driven reconstruction.
    pub lazy: [u64; NUM_LINES],
    /// Shadow oracle: memory as if every copy had executed eagerly.
    pub oracle: [u64; NUM_LINES],
}

impl<B: CttLike> State<B> {
    /// Initial state: every line holds a distinct tag, both worlds agree.
    pub fn initial(ctt: B) -> State<B> {
        let mut lazy = [0u64; NUM_LINES];
        for (i, v) in lazy.iter_mut().enumerate() {
            *v = 0x1000 + i as u64;
        }
        State { ctt, lazy, oracle: lazy }
    }

    /// What a coherent read of arena line `i` returns in the lazy world:
    /// the raw contents, unless the line is a tracked destination, in
    /// which case the controller bounces to the source. Single-level
    /// resolution is sufficient because sources are never themselves
    /// tracked destinations (chain collapsing); if that invariant is
    /// broken the structural check reports it first.
    pub fn resolve_line(&self, i: usize) -> Result<u64, String> {
        let addr = addr_of(i);
        let frags = self.ctt.lookup_line(addr);
        if frags.is_empty() {
            return Ok(self.lazy[i]);
        }
        // Line-granular operations can only produce whole-line coverage.
        if frags.len() != 1 || frags[0].dst != addr || frags[0].len != CACHELINE {
            return Err(format!(
                "line {} has sub-line tracking {:?} despite line-granular ops",
                line_name(i),
                frags
            ));
        }
        let src = idx_of(frags[0].src)
            .ok_or_else(|| format!("entry source {:#x} outside the arena", frags[0].src.0))?;
        Ok(self.lazy[src])
    }

    /// Execute the copy for destination line `addr` now: write the
    /// reconstructed value to memory and untrack it.
    fn materialize(&mut self, addr: PhysAddr) -> Result<(), String> {
        let i = idx_of(addr)
            .ok_or_else(|| format!("materialize target {:#x} outside the arena", addr.0))?;
        let v = self.resolve_line(i)?;
        self.lazy[i] = v;
        self.ctt.remove_dst(addr, CACHELINE);
        Ok(())
    }

    /// Apply one operation. `tag` is the value written by `Op::Write`
    /// (distinct per trace position so overwrites are observable).
    /// Returns `Err` when the step itself exposes a violation.
    pub fn apply(&mut self, op: Op, tag: u64) -> Result<(), String> {
        match op {
            Op::Insert { dst, src, lines } => {
                let (d, s) = (addr_of(dst), addr_of(src));
                let size = lines as u64 * CACHELINE;
                match self.ctt.try_insert(d, s, size) {
                    Ok(()) => {}
                    Err(CttError::Full) => return Ok(()), // dropped in both worlds
                    Err(CttError::NeedsFlush(dep)) => {
                        // The MC flushes the dependent destinations, then
                        // retries. A second NeedsFlush means the flush
                        // rule under-approximates — a table bug.
                        for l in dep {
                            self.materialize(l)?;
                        }
                        match self.ctt.try_insert(d, s, size) {
                            Ok(()) => {}
                            Err(CttError::Full) => return Ok(()),
                            Err(CttError::NeedsFlush(rest)) => {
                                return Err(format!(
                                    "insert still needs flushing {rest:?} after flushing \
                                     every reported dependent"
                                ));
                            }
                        }
                    }
                }
                // The oracle copies eagerly.
                for k in 0..lines {
                    self.oracle[dst + k] = self.oracle[src + k];
                }
            }
            Op::Write { line } => {
                let addr = addr_of(line);
                // Source write: dependent destinations must be copied out
                // before the old bytes are clobbered.
                for l in self.ctt.dst_lines_with_src_in(ByteRange::sized(addr.0, CACHELINE)) {
                    self.materialize(l)?;
                }
                // Destination write: the written bytes are no longer a
                // prospective copy.
                self.ctt.remove_dst(addr, CACHELINE);
                self.lazy[line] = tag;
                self.oracle[line] = tag;
            }
            Op::Drain => {
                if let Some((r, _)) = self.ctt.smallest_entry(&[]) {
                    for l in mcs_sim::addr::lines_of(PhysAddr(r.start), r.len()) {
                        self.materialize(l)?;
                    }
                }
            }
            Op::BounceRead { line } => {
                let addr = addr_of(line);
                if self.ctt.covers_dst(addr, CACHELINE) {
                    let v = self.resolve_line(line)?;
                    if v != self.oracle[line] {
                        return Err(format!(
                            "bounce read of {} returned {:#x}, eager copy has {:#x}",
                            line_name(line),
                            v,
                            self.oracle[line]
                        ));
                    }
                    // Post-bounce writeback: the reconstructed line goes
                    // to memory and the entry is dropped.
                    self.lazy[line] = v;
                    self.ctt.remove_dst(addr, CACHELINE);
                }
            }
            Op::Free { start, lines } => {
                let r = ByteRange::sized(addr_of(start).0, lines as u64 * CACHELINE);
                // The model reuses the freed range immediately (contents
                // canonicalised to zero), so entries sourcing from it must
                // be copied out first — same rule as a source write.
                for l in self.ctt.dst_lines_with_src_in(r) {
                    self.materialize(l)?;
                }
                self.ctt.free_contained(PhysAddr(r.start), r.len());
                if self.ctt.covers_dst(PhysAddr(r.start), r.len()) {
                    return Err(format!(
                        "free of {r:?} left tracked destinations inside the freed range"
                    ));
                }
                for k in start..start + lines {
                    self.lazy[k] = 0;
                    self.oracle[k] = 0;
                }
            }
        }
        Ok(())
    }

    /// Structural invariants plus data equivalence, computed from the
    /// entry list and memories only (never via the table's own
    /// self-check).
    pub fn check(&self) -> Result<(), String> {
        let arena = |r: &ByteRange| {
            REGION_BASES.iter().any(|b| {
                ByteRange::sized(*b, LINES_PER_REGION as u64 * CACHELINE).contains_range(r)
            })
        };
        let entries = self.ctt.entries();
        for w in entries.windows(2) {
            // Destination uniqueness: disjoint, sorted destinations.
            if w[0].0.end > w[1].0.start {
                return Err(format!("destinations overlap: {:?} and {:?}", w[0].0, w[1].0));
            }
            // Merging: touching entries with a continuing source must
            // have coalesced into one.
            if w[0].0.end == w[1].0.start && w[0].1 .0 + w[0].0.len() == w[1].1 .0 {
                return Err(format!("unmerged contiguous entries: {:?} and {:?}", w[0].0, w[1].0));
            }
        }
        for (dst, src) in &entries {
            let src_r = ByteRange::sized(src.0, dst.len());
            if !arena(dst) || !arena(&src_r) {
                return Err(format!("entry {dst:?} <- {src_r:?} escapes the arena"));
            }
            // Chain collapsing: no source may be a tracked destination.
            for (dst2, _) in &entries {
                if src_r.overlaps(dst2) {
                    return Err(format!("chain: source {src_r:?} overlaps destination {dst2:?}"));
                }
            }
        }
        // The table's running totals (what the drain policy reads) match
        // a recount of its entries.
        let (kept, counted) = (self.ctt.totals(), row_totals(&entries));
        if kept != counted {
            return Err(format!(
                "table reports {kept:?} (bytes, rows) but its entries hold {counted:?}"
            ));
        }
        // Capacity: inserts reserve one segment of headroom, and a
        // destination write may split one entry into two, so the table
        // may transiently hold capacity + 1 segments but never more.
        if entries.len() > self.ctt.capacity() + 1 {
            return Err(format!(
                "{} entries exceed capacity {} (+1 headroom)",
                entries.len(),
                self.ctt.capacity()
            ));
        }
        // Data equivalence: lazy resolution matches the eager oracle.
        for i in 0..NUM_LINES {
            let got = self.resolve_line(i)?;
            if got != self.oracle[i] {
                return Err(format!(
                    "line {} resolves to {:#x} but eager copy has {:#x}",
                    line_name(i),
                    got,
                    self.oracle[i]
                ));
            }
        }
        Ok(())
    }

    /// Canonical hash for state deduplication.
    pub fn hash_key(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (r, s) in self.ctt.entries() {
            (r.start, r.end, s.0).hash(&mut h);
        }
        self.lazy.hash(&mut h);
        self.oracle.hash(&mut h);
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// Breadth-first exploration
// ---------------------------------------------------------------------------

/// Exploration bounds.
#[derive(Copy, Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum trace length.
    pub depth: usize,
    /// Cap on distinct states (safety valve; exploration reports
    /// truncation when hit).
    pub max_states: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { depth: 5, max_states: 250_000 }
    }
}

/// A violating trace: the operations from the initial state (minimal by
/// BFS order) and what went wrong after the last one.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Operation names from the initial state, in order.
    pub trace: Vec<&'static str>,
    /// The failed check's message.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation after {} step(s):", self.trace.len())?;
        for (i, op) in self.trace.iter().enumerate() {
            writeln!(f, "  {}. {op}", i + 1)?;
        }
        write!(f, "  => {}", self.message)
    }
}

/// Exploration outcome.
#[derive(Clone, Debug)]
pub struct Report {
    /// Distinct states visited (including the initial state).
    pub states: usize,
    /// Transitions executed.
    pub transitions: u64,
    /// First violation found, with its minimal trace.
    pub violation: Option<Violation>,
    /// Whether the state space was exhausted within the bounds.
    pub complete: bool,
}

/// Exhaustively explore all interleavings of [`OPS`] from `initial` up to
/// the configured depth. Stops at the first violation (whose trace is
/// minimal: BFS visits shorter traces first).
pub fn explore<B: CttLike>(initial: State<B>, cfg: &ExploreConfig) -> Report {
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(initial.hash_key());
    let mut frontier: Vec<(State<B>, Vec<u8>)> = vec![(initial, Vec::new())];
    let mut report = Report { states: 1, transitions: 0, violation: None, complete: true };

    for depth in 0..cfg.depth {
        let mut next = Vec::new();
        for (state, trace) in &frontier {
            for (op_idx, (name, op)) in OPS.iter().enumerate() {
                if report.states >= cfg.max_states {
                    report.complete = false;
                    return report;
                }
                let mut child = state.clone();
                report.transitions += 1;
                // Distinct write tag per (trace position, op) so every
                // store is observable.
                let tag = 0xA000_0000 + (depth as u64) * 0x100 + op_idx as u64;
                if let Err(message) = child.apply(*op, tag).and_then(|()| child.check()) {
                    let mut ops: Vec<&'static str> =
                        trace.iter().map(|&i| OPS[i as usize].0).collect();
                    ops.push(name);
                    report.violation = Some(Violation { trace: ops, message });
                    report.complete = false;
                    return report;
                }
                if seen.insert(child.hash_key()) {
                    report.states += 1;
                    let mut t = trace.clone();
                    t.push(op_idx as u8);
                    next.push((child, t));
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    report
}

/// Explore with the real CTT implementation.
pub fn explore_real(capacity: usize, cfg: &ExploreConfig) -> Report {
    explore(State::initial(Ctt::new(capacity)), cfg)
}

/// Explore with [`SimpleCtt`] carrying `mutation`.
pub fn explore_mutant(capacity: usize, mutation: Mutation, cfg: &ExploreConfig) -> Report {
    explore(State::initial(SimpleCtt::new(capacity, mutation)), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_round_trips() {
        for i in 0..NUM_LINES {
            assert_eq!(idx_of(addr_of(i)), Some(i));
        }
        assert_eq!(idx_of(PhysAddr(0x0)), None);
        assert_eq!(idx_of(PhysAddr(0x1001)), None, "unaligned");
        assert_eq!(idx_of(PhysAddr(0x1200)), None, "one past D");
        assert_eq!(line_name(0), "D[0]");
        assert_eq!(line_name(17), "S1[1]");
    }

    #[test]
    fn initial_state_checks_clean() {
        let st = State::initial(Ctt::new(16));
        st.check().unwrap();
    }

    #[test]
    fn simple_ctt_matches_real_on_basic_ops() {
        // Differential spot-check: chain collapse + overlap trim behave
        // identically.
        let mut real = Ctt::new(16);
        let mut simple = SimpleCtt::new(16, Mutation::None);
        for t in [(0usize, 8usize, 2usize), (20, 0, 1), (1, 16, 2)] {
            let (d, s, n) = (addr_of(t.0), addr_of(t.1), t.2 as u64 * CACHELINE);
            let a = CttLike::try_insert(&mut real, d, s, n);
            let b = simple.try_insert(d, s, n);
            assert_eq!(a.is_ok(), b.is_ok());
        }
        assert_eq!(CttLike::entries(&real), simple.entries());
    }

    #[test]
    fn write_tag_is_observable() {
        let mut st = State::initial(Ctt::new(16));
        st.apply(Op::Write { line: 3 }, 0xDEAD).unwrap();
        assert_eq!(st.lazy[3], 0xDEAD);
        assert_eq!(st.oracle[3], 0xDEAD);
        st.check().unwrap();
    }
}
