//! Private L1 data cache controller.
//!
//! Writeback, write-allocate, MSI states (I implicit, S, M), per-line MSHRs
//! with request merging, and a stride prefetcher. Stores require ownership
//! (read-for-ownership on miss); non-temporal stores bypass the cache
//! entirely.

use super::array::CacheArray;
use super::prefetch::StridePrefetcher;
use super::{CoreToL1, L1ToCore, L1ToLlc, LlcToL1, ServiceLevel};
use crate::addr::PhysAddr;
use crate::config::CacheConfig;
use crate::data::{Bytes, LineData};
use crate::stats::CacheStats;
use crate::uop::UopId;
use crate::Cycle;
use crate::hash::FastMap;

/// L1 line state.
#[derive(Debug, Clone)]
struct L1Line {
    data: LineData,
    /// Shared (false) or Modified (true). Invalid = absent.
    modified: bool,
    /// Dirty with respect to the LLC (only meaningful while `modified`).
    dirty: bool,
    /// Installed by a prefetch and not yet demanded (for stats).
    prefetched: bool,
}

/// A pending operation queued on an MSHR, in arrival order.
#[derive(Debug, Clone)]
enum PendingOp {
    Load { id: UopId, off: usize, len: usize },
    Store { id: UopId, off: usize, bytes: Bytes },
}

#[derive(Debug)]
struct Mshr {
    /// Ownership requested (GetM in flight or required).
    want_m: bool,
    /// GetS already in flight; issue GetM after it returns.
    upgrade_after: bool,
    ops: Vec<PendingOp>,
    prefetch_only: bool,
}

/// Outputs produced by L1 handlers in one call.
#[derive(Debug, Default)]
pub struct L1Out {
    /// Responses to the core, with extra delay beyond the core↔L1 latency.
    pub to_core: Vec<(L1ToCore, Cycle)>,
    /// Messages to the LLC.
    pub to_llc: Vec<L1ToLlc>,
}

/// One private L1 cache.
#[derive(Debug)]
pub struct L1 {
    /// Owning core index.
    pub id: usize,
    cfg: CacheConfig,
    array: CacheArray<L1Line>,
    mshrs: FastMap<u64, Mshr>,
    /// Emptied op lists of completed misses, reused by the next miss so
    /// that queueing an op on an MSHR does not allocate.
    spare_ops: Vec<Vec<PendingOp>>,
    pf: StridePrefetcher,
    /// Cycle each in-flight miss was allocated, for miss-lifecycle spans.
    /// Purely observational; see DESIGN.md, "Observability layer".
    #[cfg(feature = "trace")]
    miss_start: FastMap<u64, Cycle>,
    /// Statistics.
    pub stats: CacheStats,
}

impl L1 {
    /// Create the L1 for core `id`.
    pub fn new(id: usize, cfg: CacheConfig) -> L1 {
        let sets = cfg.sets();
        let pf = StridePrefetcher::new(cfg.prefetch_degree);
        L1 {
            id,
            cfg: cfg.clone(),
            array: CacheArray::new(sets, cfg.ways),
            mshrs: FastMap::default(),
            spare_ops: Vec::new(),
            pf,
            #[cfg(feature = "trace")]
            miss_start: FastMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// Whether the cache has in-flight transactions.
    pub fn busy(&self) -> bool {
        !self.mshrs.is_empty()
    }

    /// In-flight miss count (diagnostics).
    pub fn mshr_count(&self) -> usize {
        self.mshrs.len()
    }

    /// Resident lines as `(line address, modified, dirty)`, for the
    /// runtime invariant checker.
    #[cfg(feature = "check-invariants")]
    pub fn check_lines(&self) -> Vec<(PhysAddr, bool, bool)> {
        self.array.iter().map(|(a, l)| (a, l.modified, l.dirty)).collect()
    }

    /// Whether `line` has an MSHR allocated (a transaction in flight),
    /// for the runtime invariant checker.
    #[cfg(feature = "check-invariants")]
    pub fn check_has_mshr(&self, line: PhysAddr) -> bool {
        self.mshrs.contains_key(&line.0)
    }

    /// Handle a core request. Returns `false` (without consuming) if the
    /// request cannot be accepted this cycle (MSHRs full); the caller
    /// retries later.
    pub fn handle_core(&mut self, now: Cycle, msg: &CoreToL1, out: &mut L1Out) -> bool {
        let _ = now; // stamp for the trace hooks below
        match msg {
            CoreToL1::Load { id, addr, size } => self.load(now, *id, *addr, *size as usize, out),
            CoreToL1::Store { id, addr, data, nontemporal } => {
                if *nontemporal {
                    self.nt_store(*id, *addr, data, out)
                } else {
                    self.store(now, *id, *addr, *data, out)
                }
            }
            CoreToL1::Clwb { id, addr } => {
                self.clwb(*id, *addr, out);
                true
            }
            CoreToL1::WbRange { id, addr, size } => {
                self.wb_range(*id, *addr, *size, out);
                true
            }
            CoreToL1::Mclazy { id, desc } => {
                // The snoop (writeback of dirty source lines, invalidation
                // of destination lines across all caches) is performed by
                // the system before this message is forwarded; see
                // `System::snoop_mclazy`. The L1 only routes it onward.
                out.to_llc.push(L1ToLlc::Mclazy { desc: *desc, id: *id, core: self.id });
                true
            }
            CoreToL1::Mcfree { addr, size } => {
                out.to_llc.push(L1ToLlc::Mcfree { addr: *addr, size: *size });
                true
            }
        }
    }

    fn load(&mut self, now: Cycle, id: UopId, addr: PhysAddr, size: usize, out: &mut L1Out) -> bool {
        let line = addr.line_base();
        let off = addr.line_off() as usize;
        if let Some(l) = self.array.get_mut(line) {
            // A pending store to this line (GetM in flight) does not block
            // unrelated loads; program-order conflicts are filtered by the
            // core's store buffer before the load is ever sent here.
            self.stats.hits += 1;
            if l.prefetched {
                l.prefetched = false;
                self.stats.prefetch_hits += 1;
            }
            let data = Bytes::new(l.data.read(off, size));
            out.to_core.push((
                L1ToCore::LoadDone { id, data, level: ServiceLevel::L1 },
                self.cfg.hit_latency,
            ));
            return true;
        }
        self.miss(now, line, PendingOp::Load { id, off, len: size }, out)
    }

    fn store(&mut self, now: Cycle, id: UopId, addr: PhysAddr, bytes: Bytes, out: &mut L1Out) -> bool {
        let line = addr.line_base();
        let off = addr.line_off() as usize;
        if let Some(l) = self.array.get_mut(line) {
            if l.modified {
                self.stats.hits += 1;
                l.data.write(off, &bytes);
                l.dirty = true;
                l.prefetched = false;
                out.to_core.push((L1ToCore::StoreDone { id }, self.cfg.hit_latency));
                return true;
            }
        }
        // Need ownership (upgrade or full RFO miss).
        self.miss(now, line, PendingOp::Store { id, off, bytes }, out)
    }

    /// Queue `op` on `line`'s MSHR, joining the miss in flight or starting
    /// one. Returns false (consuming nothing) if every MSHR is in use.
    fn miss(&mut self, now: Cycle, line: PhysAddr, op: PendingOp, out: &mut L1Out) -> bool {
        let store = matches!(op, PendingOp::Store { .. });
        if let Some(m) = self.mshrs.get_mut(&line.0) {
            // A store joining a GetS in flight upgrades once it lands.
            m.upgrade_after |= store && !m.want_m;
            m.ops.push(op);
            m.prefetch_only = false;
        } else if !self.start_miss(now, line, store, Some(op), out) {
            return false;
        } else if !store {
            self.issue_prefetches(now, line, out);
        }
        self.stats.misses += 1;
        true
    }

    /// Allocate an MSHR for `line` holding `op` (none for a prefetch),
    /// stamp the miss for tracing and send GetM if `want_m`, else GetS.
    /// Returns false if every MSHR is in use.
    fn start_miss(
        &mut self,
        now: Cycle,
        line: PhysAddr,
        want_m: bool,
        op: Option<PendingOp>,
        out: &mut L1Out,
    ) -> bool {
        let _ = now;
        if self.mshrs.len() >= self.cfg.mshrs {
            return false;
        }
        #[cfg(feature = "trace")]
        self.miss_start.insert(line.0, now);
        let (prefetch, core) = (op.is_none(), self.id);
        let mut ops = self.spare_ops.pop().unwrap_or_default();
        ops.extend(op);
        self.mshrs.insert(line.0, Mshr { want_m, upgrade_after: false, ops, prefetch_only: prefetch });
        out.to_llc.push(if want_m {
            L1ToLlc::GetM { line, core }
        } else {
            L1ToLlc::GetS { line, core, prefetch }
        });
        true
    }

    fn issue_prefetches(&mut self, now: Cycle, line: PhysAddr, out: &mut L1Out) {
        for p in self.pf.observe(line) {
            if self.array.peek(p).is_some() || self.mshrs.contains_key(&p.0) {
                continue;
            }
            if !self.start_miss(now, p, false, None, out) {
                break;
            }
            self.stats.prefetches_issued += 1;
        }
    }

    fn nt_store(&mut self, id: UopId, addr: PhysAddr, bytes: &[u8], out: &mut L1Out) -> bool {
        let line = addr.line_base();
        assert_eq!(addr.line_off(), 0, "NT stores must be line aligned");
        assert_eq!(bytes.len() as u64, crate::addr::CACHELINE, "NT stores are full-line");
        // Drop any local copy; the line's new value bypasses the caches.
        self.snoop_invalidate(line);
        let mut data = LineData::ZERO;
        data.write(0, bytes);
        out.to_llc.push(L1ToLlc::NtWrite { line, data, id, core: self.id });
        true
    }

    fn wb_range(&mut self, id: UopId, addr: PhysAddr, size: u64, out: &mut L1Out) {
        // Collect and clean all dirty lines in the range in one pass (the
        // §V-A1 wide-writeback instruction); the LLC adds its own and
        // forwards everything to memory.
        let dirty = crate::addr::lines_of(addr, size)
            .filter_map(|line| Some((line, self.snoop_writeback(line)?)))
            .collect();
        out.to_llc.push(L1ToLlc::WbRange { addr, size, dirty, id, core: self.id });
    }

    fn clwb(&mut self, id: UopId, addr: PhysAddr, out: &mut L1Out) {
        let line = addr.line_base();
        let data = self.snoop_writeback(line);
        out.to_llc.push(L1ToLlc::Clwb { line, data, id, core: self.id });
    }

    /// Handle a message from the LLC.
    pub fn handle_llc(&mut self, now: Cycle, msg: LlcToL1, out: &mut L1Out) {
        match msg {
            LlcToL1::Data { line, data, excl, level } => {
                self.fill(now, line, data, excl, level, out)
            }
            LlcToL1::Inval { line } => {
                self.stats.invalidations += 1;
                self.drop_line(line, out);
            }
            LlcToL1::Recall { line, inval: true } => self.drop_line(line, out),
            LlcToL1::Recall { line, inval: false } => {
                // Downgrade M to S, returning the data if dirty.
                let data = self.array.peek_mut(line).filter(|l| l.modified).and_then(|l| {
                    l.modified = false;
                    std::mem::take(&mut l.dirty).then_some(l.data)
                });
                out.to_llc.push(L1ToLlc::RecallAck { line, data, core: self.id });
            }
            LlcToL1::ClwbAck { id } => out.to_core.push((L1ToCore::ClwbDone { id }, 0)),
            LlcToL1::NtAck { id } => out.to_core.push((L1ToCore::NtDone { id }, 0)),
            LlcToL1::MclazyAck { id } => out.to_core.push((L1ToCore::MclazyDone { id }, 0)),
        }
    }

    /// Drop `line` at the LLC's request (`Inval`, or `Recall` with
    /// `inval`), acking with its data if dirty.
    fn drop_line(&mut self, line: PhysAddr, out: &mut L1Out) {
        let data = self.array.remove(line).filter(|l| l.modified && l.dirty).map(|l| l.data);
        out.to_llc.push(L1ToLlc::RecallAck { line, data, core: self.id });
    }

    fn fill(
        &mut self,
        now: Cycle,
        line: PhysAddr,
        data: LineData,
        excl: bool,
        level: ServiceLevel,
        out: &mut L1Out,
    ) {
        let _ = now;
        let Some(mut m) = self.mshrs.remove(&line.0) else {
            // Response to a transaction we no longer track (e.g. the line
            // was invalidated by an MCLAZY snoop while the fill was in
            // flight). Drop it: re-reading will miss and refetch.
            #[cfg(feature = "trace")]
            self.miss_start.remove(&line.0);
            return;
        };
        if m.upgrade_after && !excl {
            // We asked for S but a store arrived meanwhile: serve the loads
            // from the shared data, then upgrade for the stores.
            let is_load = |op: &&PendingOp| matches!(op, PendingOp::Load { .. });
            self.serve(m.ops.iter().filter(is_load), &mut { data }, level, out);
            m.ops.retain(|op| matches!(op, PendingOp::Store { .. }));
            m.want_m = true;
            m.upgrade_after = false;
            self.mshrs.insert(line.0, m);
            out.to_llc.push(L1ToLlc::GetM { line, core: self.id });
            return;
        }

        // The transaction completes below: emit its miss-lifecycle span.
        #[cfg(feature = "trace")]
        if let Some(start) = self.miss_start.remove(&line.0) {
            mcs_trace::emit(mcs_trace::Event::L1Miss {
                l1: self.id as u16,
                line: line.0,
                start,
                end: now,
            });
        }

        // Install the line (evicting if needed). An ownership upgrade
        // (store to a line held in S) finds the line already resident:
        // it takes the authoritative data in place, keeping its flags.
        let resident = self.array.peek(line).map(|l| (l.dirty, l.prefetched));
        let (dirty, prefetched) = resident.unwrap_or_else(|| {
            self.make_room(line, out);
            (false, m.prefetch_only)
        });
        let mut l = L1Line { data, modified: excl, dirty, prefetched };
        let wrote = self.serve(&m.ops, &mut l.data, level, out);
        debug_assert!(excl || !wrote, "store served without ownership");
        l.dirty |= wrote;
        if resident.is_some() {
            *self.array.peek_mut(line).expect("still resident") = l;
        } else {
            self.array.insert(line, l);
        }
        m.ops.clear();
        self.spare_ops.push(m.ops);
    }

    /// Answer queued ops in arrival order against `data`: loads read it,
    /// stores write it. Returns whether any store was applied.
    fn serve<'a>(
        &self,
        ops: impl IntoIterator<Item = &'a PendingOp>,
        data: &mut LineData,
        level: ServiceLevel,
        out: &mut L1Out,
    ) -> bool {
        let mut wrote = false;
        for op in ops {
            let done = match op {
                PendingOp::Load { id, off, len } => {
                    L1ToCore::LoadDone { id: *id, data: Bytes::new(data.read(*off, *len)), level }
                }
                PendingOp::Store { id, off, bytes } => {
                    data.write(*off, bytes);
                    wrote = true;
                    L1ToCore::StoreDone { id: *id }
                }
            };
            out.to_core.push((done, self.cfg.hit_latency));
        }
        wrote
    }

    fn make_room(&mut self, line: PhysAddr, out: &mut L1Out) {
        if self.array.has_room(line) {
            return;
        }
        let (victim, v) = self.array.evict(line, |_, _| false).expect("full set has a victim");
        self.stats.evictions += 1;
        if v.modified && v.dirty {
            self.stats.writebacks += 1;
            out.to_llc.push(L1ToLlc::PutM { line: victim, data: v.data, core: self.id });
        }
        // Clean lines are dropped silently (the directory tolerates stale
        // sharer bits).
    }

    /// Write back the line if dirty (returning the data) and mark it
    /// clean, keeping it cached: CLWB, and the MCLAZY snoop (called by the
    /// system).
    pub fn snoop_writeback(&mut self, line: PhysAddr) -> Option<LineData> {
        match self.array.peek_mut(line) {
            Some(l) if l.modified && l.dirty => {
                l.dirty = false;
                Some(l.data)
            }
            _ => None,
        }
    }

    /// Drop the line: non-temporal stores, and the MCLAZY snoop (called by
    /// the system; destination lines are about to be redefined by the lazy
    /// copy).
    pub fn snoop_invalidate(&mut self, line: PhysAddr) {
        if self.array.remove(line).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Test/debug helper: peek at a cached line's data.
    pub fn peek_line(&self, line: PhysAddr) -> Option<&LineData> {
        self.array.peek(line).map(|l| &l.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn mk() -> L1 {
        L1::new(0, SystemConfig::tiny().l1)
    }

    fn load(id: UopId, addr: u64, size: u8) -> CoreToL1 {
        CoreToL1::Load { id, addr: PhysAddr(addr), size }
    }

    #[test]
    fn miss_then_fill_serves_load() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        assert!(l1.handle_core(0, &load(1, 0x100, 8), &mut out));
        assert!(matches!(out.to_llc[0], L1ToLlc::GetS { .. }));
        assert!(out.to_core.is_empty());

        let mut out = L1Out::default();
        l1.handle_llc(
            10,
            LlcToL1::Data {
                line: PhysAddr(0x100),
                data: LineData::splat(5),
                excl: false,
                level: ServiceLevel::Llc,
            },
            &mut out,
        );
        match &out.to_core[0].0 {
            L1ToCore::LoadDone { id, data, .. } => {
                assert_eq!(*id, 1);
                assert_eq!(**data, [5u8; 8]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(l1.stats.misses, 1);
    }

    #[test]
    fn hit_after_fill() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        l1.handle_core(0, &load(1, 0x100, 8), &mut out);
        l1.handle_llc(
            1,
            LlcToL1::Data {
                line: PhysAddr(0x100),
                data: LineData::splat(5),
                excl: false,
                level: ServiceLevel::Llc,
            },
            &mut out,
        );
        let mut out = L1Out::default();
        l1.handle_core(2, &load(2, 0x108, 4), &mut out);
        assert_eq!(l1.stats.hits, 1);
        assert!(matches!(&out.to_core[0].0, L1ToCore::LoadDone { id: 2, .. }));
    }

    #[test]
    fn store_miss_issues_getm_and_applies_on_fill() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        let st = CoreToL1::Store { id: 3, addr: PhysAddr(0x40), data: Bytes::new(&[9, 9]), nontemporal: false };
        assert!(l1.handle_core(0, &st, &mut out));
        assert!(matches!(out.to_llc[0], L1ToLlc::GetM { .. }));

        let mut out = L1Out::default();
        l1.handle_llc(
            5,
            LlcToL1::Data {
                line: PhysAddr(0x40),
                data: LineData::splat(1),
                excl: true,
                level: ServiceLevel::Mem,
            },
            &mut out,
        );
        assert!(matches!(&out.to_core[0].0, L1ToCore::StoreDone { id: 3 }));
        let line = l1.peek_line(PhysAddr(0x40)).unwrap();
        assert_eq!(line.read(0, 3), &[9, 9, 1]);
    }

    #[test]
    fn store_hit_in_m_is_local() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        l1.handle_core(0, &CoreToL1::Store { id: 1, addr: PhysAddr(0x40), data: Bytes::new(&[1]), nontemporal: false }, &mut out);
        l1.handle_llc(
            1,
            LlcToL1::Data { line: PhysAddr(0x40), data: LineData::ZERO, excl: true, level: ServiceLevel::Llc },
            &mut out,
        );
        let mut out = L1Out::default();
        l1.handle_core(2, &CoreToL1::Store { id: 2, addr: PhysAddr(0x41), data: Bytes::new(&[2]), nontemporal: false }, &mut out);
        assert!(out.to_llc.is_empty(), "M hit needs no LLC traffic");
        assert!(matches!(&out.to_core[0].0, L1ToCore::StoreDone { id: 2 }));
    }

    #[test]
    fn clwb_sends_dirty_data_and_cleans() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        l1.handle_core(0, &CoreToL1::Store { id: 1, addr: PhysAddr(0x40), data: Bytes::new(&[7]), nontemporal: false }, &mut out);
        l1.handle_llc(
            1,
            LlcToL1::Data { line: PhysAddr(0x40), data: LineData::ZERO, excl: true, level: ServiceLevel::Llc },
            &mut out,
        );
        let mut out = L1Out::default();
        l1.handle_core(2, &CoreToL1::Clwb { id: 9, addr: PhysAddr(0x47) }, &mut out);
        match &out.to_llc[0] {
            L1ToLlc::Clwb { data: Some(d), id: 9, .. } => assert_eq!(d.read(0, 1), &[7]),
            other => panic!("unexpected {other:?}"),
        }
        // Second CLWB finds it clean.
        let mut out = L1Out::default();
        l1.handle_core(3, &CoreToL1::Clwb { id: 10, addr: PhysAddr(0x40) }, &mut out);
        assert!(matches!(&out.to_llc[0], L1ToLlc::Clwb { data: None, .. }));
    }

    #[test]
    fn nt_store_bypasses_and_invalidates() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        // Prime the line.
        l1.handle_core(0, &load(1, 0x80, 8), &mut out);
        l1.handle_llc(
            1,
            LlcToL1::Data { line: PhysAddr(0x80), data: LineData::ZERO, excl: false, level: ServiceLevel::Llc },
            &mut out,
        );
        let mut out = L1Out::default();
        let nt = CoreToL1::Store { id: 5, addr: PhysAddr(0x80), data: Bytes::new(&[3u8; 64]), nontemporal: true };
        l1.handle_core(2, &nt, &mut out);
        assert!(l1.peek_line(PhysAddr(0x80)).is_none(), "local copy dropped");
        assert!(matches!(&out.to_llc[0], L1ToLlc::NtWrite { .. }));
    }

    #[test]
    fn eviction_writes_back_dirty() {
        let mut l1 = mk(); // tiny: 1KB, 2-way, 8 sets
        let mut out = L1Out::default();
        // Fill set 0 with two dirty lines, then fill a third.
        for (i, addr) in [0u64, 8 * 64, 16 * 64].iter().enumerate() {
            l1.handle_core(
                0,
                &CoreToL1::Store { id: i as u64, addr: PhysAddr(*addr), data: Bytes::new(&[i as u8]), nontemporal: false },
                &mut out,
            );
            l1.handle_llc(
                1,
                LlcToL1::Data { line: PhysAddr(*addr), data: LineData::ZERO, excl: true, level: ServiceLevel::Llc },
                &mut out,
            );
        }
        assert!(out.to_llc.iter().any(|m| matches!(m, L1ToLlc::PutM { .. })), "dirty eviction writes back");
        assert_eq!(l1.stats.evictions, 1);
    }

    #[test]
    fn recall_downgrade_returns_dirty_data() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        l1.handle_core(0, &CoreToL1::Store { id: 1, addr: PhysAddr(0x40), data: Bytes::new(&[7]), nontemporal: false }, &mut out);
        l1.handle_llc(
            1,
            LlcToL1::Data { line: PhysAddr(0x40), data: LineData::ZERO, excl: true, level: ServiceLevel::Llc },
            &mut out,
        );
        let mut out = L1Out::default();
        l1.handle_llc(2, LlcToL1::Recall { line: PhysAddr(0x40), inval: false }, &mut out);
        match &out.to_llc[0] {
            L1ToLlc::RecallAck { data: Some(d), .. } => assert_eq!(d.read(0, 1), &[7]),
            other => panic!("unexpected {other:?}"),
        }
        // Line retained in S: a load still hits.
        let mut out = L1Out::default();
        l1.handle_core(3, &load(4, 0x40, 1), &mut out);
        assert_eq!(l1.stats.hits, 1);
    }

    #[test]
    fn mshr_exhaustion_backpressures() {
        let mut l1 = mk(); // tiny mshrs = 4
        let mut out = L1Out::default();
        for i in 0..4u64 {
            assert!(l1.handle_core(0, &load(i, i * 64, 1), &mut out));
        }
        assert!(!l1.handle_core(0, &load(9, 9 * 64, 1), &mut out), "5th miss must be rejected");
    }

    #[test]
    fn wb_range_collects_only_dirty_lines() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        // Dirty line at 0x40, clean (shared) line at 0x80.
        l1.handle_core(0, &CoreToL1::Store { id: 1, addr: PhysAddr(0x40), data: Bytes::new(&[7]), nontemporal: false }, &mut out);
        l1.handle_llc(
            1,
            LlcToL1::Data { line: PhysAddr(0x40), data: LineData::ZERO, excl: true, level: ServiceLevel::Llc },
            &mut out,
        );
        l1.handle_core(2, &load(2, 0x80, 8), &mut out);
        l1.handle_llc(
            3,
            LlcToL1::Data { line: PhysAddr(0x80), data: LineData::splat(5), excl: false, level: ServiceLevel::Llc },
            &mut out,
        );
        let mut out = L1Out::default();
        l1.handle_core(4, &CoreToL1::WbRange { id: 9, addr: PhysAddr(0x40), size: 128 }, &mut out);
        match &out.to_llc[0] {
            L1ToLlc::WbRange { dirty, id: 9, .. } => {
                assert_eq!(dirty.len(), 1, "only the dirty line rides along");
                assert_eq!(dirty[0].0, PhysAddr(0x40));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Line is clean now: a second pass collects nothing.
        let mut out = L1Out::default();
        l1.handle_core(5, &CoreToL1::WbRange { id: 10, addr: PhysAddr(0x40), size: 128 }, &mut out);
        match &out.to_llc[0] {
            L1ToLlc::WbRange { dirty, .. } => assert!(dirty.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn data(line: u64, fill: u8, excl: bool) -> LlcToL1 {
        LlcToL1::Data { line: PhysAddr(line), data: LineData::splat(fill), excl, level: ServiceLevel::Llc }
    }

    fn store(id: UopId, addr: u64, data: &[u8]) -> CoreToL1 {
        CoreToL1::Store { id, addr: PhysAddr(addr), data: Bytes::new(data), nontemporal: false }
    }

    #[test]
    fn ownership_upgrade_in_place_keeps_the_prefetched_flag() {
        // A prefetcher one line ahead: three unit-stride misses prefetch 0xc0.
        let cfg = CacheConfig { prefetch_degree: 1, ..SystemConfig::tiny().l1 };
        let mut l1 = L1::new(0, cfg);
        let mut out = L1Out::default();
        for (i, a) in [0x0u64, 0x40, 0x80].into_iter().enumerate() {
            l1.handle_core(0, &load(i as u64, a, 8), &mut out);
        }
        assert!(matches!(out.to_llc.last(), Some(L1ToLlc::GetS { line: PhysAddr(0xc0), prefetch: true, .. })));
        l1.handle_llc(1, data(0xc0, 1, false), &mut out);
        assert!(l1.array.peek(PhysAddr(0xc0)).is_some_and(|l| !l.modified && l.prefetched));

        // A store to the line held in S upgrades it; the M fill lands in place.
        let mut out = L1Out::default();
        l1.handle_core(2, &store(7, 0xc4, &[9, 9]), &mut out);
        assert!(matches!(out.to_llc[..], [L1ToLlc::GetM { line: PhysAddr(0xc0), .. }]));
        l1.handle_llc(3, data(0xc0, 2, true), &mut out);
        assert!(matches!(out.to_core[..], [(L1ToCore::StoreDone { id: 7 }, _)]));
        let l = l1.array.peek(PhysAddr(0xc0)).expect("still resident");
        assert!(l.modified && l.dirty && l.prefetched);
        assert_eq!(l.data.read(2, 6), &[2, 2, 9, 9, 2, 2]);

        // The first demand load still counts as a prefetch hit.
        l1.handle_core(4, &load(8, 0xc0, 8), &mut out);
        assert_eq!((l1.stats.hits, l1.stats.prefetch_hits), (1, 1));
    }

    #[test]
    fn store_joining_a_gets_upgrades_after_serving_the_loads() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        l1.handle_core(0, &load(1, 0x100, 8), &mut out);
        l1.handle_core(1, &store(2, 0x108, &[7; 4]), &mut out);
        l1.handle_core(2, &load(3, 0x110, 4), &mut out);
        assert!(matches!(out.to_llc[..], [L1ToLlc::GetS { .. }]), "the store joins the GetS");

        // The S data serves both loads; the store waits for a GetM.
        let mut out = L1Out::default();
        l1.handle_llc(3, data(0x100, 5, false), &mut out);
        let served: Vec<_> = out
            .to_core
            .iter()
            .map(|(m, _)| match m {
                L1ToCore::LoadDone { id, data, .. } => (*id, data.to_vec()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(served, vec![(1, vec![5; 8]), (3, vec![5; 4])]);
        assert!(matches!(out.to_llc[..], [L1ToLlc::GetM { line: PhysAddr(0x100), .. }]));
        assert!(l1.peek_line(PhysAddr(0x100)).is_none(), "nothing installed before ownership");

        let mut out = L1Out::default();
        l1.handle_llc(4, data(0x100, 6, true), &mut out);
        assert!(matches!(out.to_core[..], [(L1ToCore::StoreDone { id: 2 }, _)]));
        let l = l1.array.peek(PhysAddr(0x100)).expect("installed");
        assert!(l.modified && l.dirty);
        assert_eq!(l.data.read(6, 8), &[6, 6, 7, 7, 7, 7, 6, 6]);
    }

    #[test]
    fn snoop_invalidate_and_writeback() {
        let mut l1 = mk();
        let mut out = L1Out::default();
        l1.handle_core(0, &CoreToL1::Store { id: 1, addr: PhysAddr(0x40), data: Bytes::new(&[7]), nontemporal: false }, &mut out);
        l1.handle_llc(
            1,
            LlcToL1::Data { line: PhysAddr(0x40), data: LineData::ZERO, excl: true, level: ServiceLevel::Llc },
            &mut out,
        );
        let wb = l1.snoop_writeback(PhysAddr(0x40)).expect("dirty");
        assert_eq!(wb.read(0, 1), &[7]);
        assert!(l1.snoop_writeback(PhysAddr(0x40)).is_none(), "now clean");
        l1.snoop_invalidate(PhysAddr(0x40));
        assert!(l1.peek_line(PhysAddr(0x40)).is_none());
    }
}
