//! Shared, inclusive last-level cache with an MSI directory.
//!
//! The LLC tracks, per resident line, which L1 owns it (Modified) or shares
//! it, and serialises transactions per line with blocking MSHRs. It is the
//! point where core-visible cache traffic turns into memory-interconnect
//! packets: fills, writebacks, CLWB write-throughs, non-temporal writes,
//! and the forwarding of MCLAZY/MCFREE toward the memory controllers.

use super::array::{CacheArray, Way};
use super::prefetch::StridePrefetcher;
use super::{L1ToLlc, LlcToL1, ServiceLevel};
use crate::addr::PhysAddr;
use crate::config::CacheConfig;
use crate::data::LineData;
use crate::dram::channel_of;
use crate::packet::{MemCmd, Node, Packet};
use crate::stats::CacheStats;
use crate::uop::UopId;
use crate::Cycle;
use crate::hash::FastMap;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct LlcLine {
    data: LineData,
    /// Dirty with respect to memory.
    dirty: bool,
    /// L1 holding the line in M, if any. While an owner exists the LLC's
    /// copy may be stale; it is refreshed by Recall/PutM before being
    /// served to anyone else.
    owner: Option<usize>,
    /// L1s holding the line in S (bitmask by core id; may include stale
    /// bits after silent clean evictions — invalidating a non-holder is
    /// harmless).
    sharers: u32,
    prefetched: bool,
}

/// What to do when an ack-counting transaction finishes.
#[derive(Debug)]
enum After {
    /// Grant the line to a core, exclusive (GetM) or shared (GetS).
    Grant { core: usize, excl: bool },
    /// Finish evicting the line (write back if dirty, drop, then retry
    /// whatever was queued).
    Evict,
    /// Complete a non-temporal write: forward to memory, ack the core.
    NtWrite { data: LineData, id: UopId, core: usize },
    /// Complete a CLWB that needed a recall from a remote owner.
    Clwb { id: UopId, core: usize },
}

#[derive(Debug)]
enum Txn {
    /// Fill from memory in flight.
    Mem { excl: bool, core: usize, prefetch: bool },
    /// Waiting for `pending` L1 acks: one for a recall, one per sharer for
    /// an invalidation. Every ack is a `RecallAck`.
    Acks { pending: u32, after: After },
}

#[derive(Debug)]
struct Mshr {
    txn: Txn,
    /// Requests deferred while this line is busy, replayed afterwards.
    queue: VecDeque<L1ToLlc>,
}

/// Outputs of LLC handlers.
#[derive(Debug, Default)]
pub struct LlcOut {
    /// (l1 index, message, extra delay).
    pub to_l1: Vec<(usize, LlcToL1, Cycle)>,
    /// (packet, extra delay) toward the memory interconnect.
    pub to_bus: Vec<(Packet, Cycle)>,
}

/// The shared last-level cache.
#[derive(Debug)]
pub struct Llc {
    cfg: CacheConfig,
    channels: usize,
    array: CacheArray<LlcLine>,
    mshrs: FastMap<u64, Mshr>,
    /// Requests bounced for capacity (MSHR full / eviction in progress),
    /// replayed each cycle before new input.
    retry: VecDeque<L1ToLlc>,
    /// MCLAZY packets in flight to the MCs: packet id → (core, uop id).
    pending_lazy: FastMap<u64, (usize, UopId)>,
    /// CLWB write-throughs awaiting controller acceptance: packet id →
    /// (core, uop id). The ack is what propagates BPQ back-pressure.
    pending_write_acks: FastMap<u64, (usize, UopId)>,
    /// Id of the last packet this LLC sent (ids start at 1).
    last_id: u64,
    pf: StridePrefetcher,
    /// Statistics.
    pub stats: CacheStats,
}

impl Llc {
    /// Create the LLC for a system with `channels` memory controllers.
    pub fn new(cfg: CacheConfig, channels: usize) -> Llc {
        let sets = cfg.sets();
        let pf = StridePrefetcher::new(cfg.prefetch_degree);
        Llc {
            cfg: cfg.clone(),
            channels,
            array: CacheArray::new(sets, cfg.ways),
            mshrs: FastMap::default(),
            retry: VecDeque::new(),
            pending_lazy: FastMap::default(),
            pending_write_acks: FastMap::default(),
            last_id: 0,
            pf,
            stats: CacheStats::default(),
        }
    }

    fn mc_of(&self, line: PhysAddr) -> Node {
        Node::Mc(channel_of(line, self.channels))
    }

    /// Number the next packet this LLC sends.
    fn next_id(&mut self) -> u64 {
        self.last_id += 1;
        self.last_id
    }

    /// Directory state of resident lines as `(line address, owner,
    /// sharers bitmask)`, for the runtime invariant checker.
    #[cfg(feature = "check-invariants")]
    pub fn check_lines(&self) -> Vec<(PhysAddr, Option<usize>, u32)> {
        self.array.iter().map(|(a, l)| (a, l.owner, l.sharers)).collect()
    }

    /// Whether `line` is resident or has a transaction in flight, for the
    /// runtime invariant checker (inclusion checks).
    #[cfg(feature = "check-invariants")]
    pub fn check_tracks(&self, line: PhysAddr) -> bool {
        self.array.peek(line).is_some() || self.mshrs.contains_key(&line.0)
    }

    /// Whether `line` has a transaction in flight, for the runtime
    /// invariant checker.
    #[cfg(feature = "check-invariants")]
    pub fn check_has_mshr(&self, line: PhysAddr) -> bool {
        self.mshrs.contains_key(&line.0)
    }

    /// Write `data` to memory `delay` cycles from now, unacknowledged.
    fn write_mem(&mut self, line: PhysAddr, data: LineData, delay: Cycle, out: &mut LlcOut) {
        let pkt = Packet { id: self.next_id(), ..Packet::write(line, data, self.mc_of(line)) };
        out.to_bus.push((pkt, delay));
    }

    /// Send a write to memory whose acceptance must be acknowledged back to
    /// `core` as the completion of CLWB uop `id`.
    fn send_acked_write(
        &mut self,
        line: PhysAddr,
        data: LineData,
        id: UopId,
        core: usize,
        out: &mut LlcOut,
    ) {
        let pkt = Packet {
            id: self.next_id(),
            needs_ack: true,
            core: Some(core),
            ..Packet::write(line, data, self.mc_of(line))
        };
        self.pending_write_acks.insert(pkt.id, (core, id));
        out.to_bus.push((pkt, self.cfg.hit_latency));
    }

    /// In-flight transaction count (diagnostics).
    pub fn mshr_count(&self) -> usize {
        self.mshrs.len()
    }

    /// Whether transactions or retries are outstanding.
    pub fn busy(&self) -> bool {
        !self.mshrs.is_empty()
            || !self.retry.is_empty()
            || !self.pending_lazy.is_empty()
            || !self.pending_write_acks.is_empty()
    }

    /// Whether deferred requests are queued for replay — i.e. whether
    /// [`Llc::begin_cycle`] would do anything. Used by the event-driven
    /// scheduler: with no retries and no deliverable input, the LLC's
    /// whole phase is a no-op.
    pub fn has_retries(&self) -> bool {
        !self.retry.is_empty()
    }

    /// Whether [`Llc::handle_l1`] would refuse `msg` without changing any
    /// state: a `GetS`/`GetM` miss (no MSHR, not resident) while every
    /// MSHR is in use. Its only effect is an LRU stamp that reorders
    /// nothing, so until a response or fill frees an MSHR, re-offering
    /// the request is a no-op. Refusals that do change state (a hit that
    /// needs a recall or invalidation adds to `hits`) are not covered.
    pub(crate) fn refuses(&self, msg: &L1ToLlc) -> bool {
        match msg {
            L1ToLlc::GetS { line, .. } | L1ToLlc::GetM { line, .. } => {
                self.mshrs.len() >= self.cfg.mshrs
                    && !self.mshrs.contains_key(&line.0)
                    && self.array.peek(*line).is_none()
            }
            _ => false,
        }
    }

    /// Replay deferred requests (call once per cycle before new input).
    pub fn begin_cycle(&mut self, out: &mut LlcOut) {
        for _ in 0..self.retry.len() {
            let Some(msg) = self.retry.pop_front() else { break };
            if !self.handle_l1(&msg, out) {
                self.retry.push_back(msg);
                break; // still blocked; keep order, try next cycle
            }
        }
    }

    /// Handle a message from an L1. Returns `false` if it could not be
    /// accepted (caller must retry); acks are always accepted. A request
    /// for a busy line is cloned into that line's MSHR queue.
    pub fn handle_l1(&mut self, msg: &L1ToLlc, out: &mut LlcOut) -> bool {
        match *msg {
            L1ToLlc::RecallAck { line, data, .. } => {
                self.on_ack(line, data, out);
                true
            }
            L1ToLlc::PutM { line, data, core } => {
                self.on_putm(line, data, core);
                true
            }
            L1ToLlc::WbRange { addr, size, ref dirty, id, core } => {
                self.wb_range(addr, size, dirty, id, core, out);
                true
            }
            L1ToLlc::Mclazy { desc, id, core } => {
                // §III-B1 step 3: the packet is BROADCAST to every memory
                // controller. Each per-controller FIFO then guarantees that
                // writebacks already heading to that controller process
                // before its copy of the broadcast — the ordering the
                // paper's consistency argument rests on. The engine arms
                // the tracking entry only once the last copy arrives.
                let bid = self.next_id();
                self.pending_lazy.insert(bid, (core, id));
                for k in 0..self.channels {
                    let mclazy = Packet::new(MemCmd::Mclazy(desc), desc.dst, Node::Mc(k));
                    let pkt = Packet { id: bid, core: Some(core), ..mclazy };
                    out.to_bus.push((pkt, self.cfg.hit_latency));
                }
                true
            }
            L1ToLlc::Mcfree { addr, size } => {
                let free = MemCmd::Mcfree(crate::packet::FreeDesc { addr, size });
                let mcfree = Packet::new(free, addr.line_base(), self.mc_of(addr));
                let pkt = Packet { id: self.next_id(), ..mcfree };
                out.to_bus.push((pkt, self.cfg.hit_latency));
                true
            }
            L1ToLlc::GetS { line, .. }
            | L1ToLlc::GetM { line, .. }
            | L1ToLlc::Clwb { line, .. }
            | L1ToLlc::NtWrite { line, .. }
                if self.mshrs.contains_key(&line.0) =>
            {
                self.mshrs.get_mut(&line.0).expect("busy line").queue.push_back(msg.clone());
                true
            }
            L1ToLlc::GetS { line, core, prefetch } => self.get_s(line, core, prefetch, out),
            L1ToLlc::GetM { line, core } => self.get_m(line, core, out),
            L1ToLlc::Clwb { line, data, id, core } => self.clwb(line, data, id, core, out),
            L1ToLlc::NtWrite { line, data, id, core } => self.nt_write(line, data, id, core, out),
        }
    }

    /// Recall `line` from `owner` (downgrade to S, or drop if `inval`) and
    /// run `after` once it acks. Returns false if no MSHR is free.
    fn recall(
        &mut self,
        line: PhysAddr,
        owner: usize,
        inval: bool,
        after: After,
        out: &mut LlcOut,
    ) -> bool {
        if self.mshrs.len() >= self.cfg.mshrs {
            return false;
        }
        out.to_l1.push((owner, LlcToL1::Recall { line, inval }, 0));
        self.mshrs.insert(line.0, Mshr { txn: Txn::Acks { pending: 1, after }, queue: VecDeque::new() });
        true
    }

    /// Invalidate `line` in every core of `sharers` and run `after` once
    /// all of them ack. Returns false if no MSHR is free.
    fn invalidate(&mut self, line: PhysAddr, sharers: u32, after: After, out: &mut LlcOut) -> bool {
        if self.mshrs.len() >= self.cfg.mshrs {
            return false;
        }
        for c in cores_in(sharers) {
            out.to_l1.push((c, LlcToL1::Inval { line }, 0));
        }
        let txn = Txn::Acks { pending: sharers.count_ones(), after };
        self.mshrs.insert(line.0, Mshr { txn, queue: VecDeque::new() });
        true
    }

    /// Send the resident `line`'s data to `core` and record it in the
    /// directory: as owner if `excl`, else as a sharer (demoting any
    /// owner). A fill from memory forwards without re-paying the lookup
    /// latency, which was charged when the read was sent.
    fn grant(&mut self, line: PhysAddr, core: usize, excl: bool, level: ServiceLevel, out: &mut LlcOut) {
        let l = self.array.peek_mut(line).expect("granted line is resident");
        if excl {
            l.owner = Some(core);
            l.sharers = 0;
        } else {
            l.owner = None;
            l.sharers |= 1 << core;
        }
        let data = l.data;
        let delay = if level == ServiceLevel::Mem { 0 } else { self.cfg.hit_latency };
        out.to_l1.push((core, LlcToL1::Data { line, data, excl, level }, delay));
    }

    fn get_s(&mut self, line: PhysAddr, core: usize, prefetch: bool, out: &mut LlcOut) -> bool {
        if let Some(l) = self.array.get_mut(line) {
            self.stats.hits += 1;
            if l.prefetched {
                l.prefetched = false;
                self.stats.prefetch_hits += 1;
            }
            return match l.owner {
                Some(owner) if owner != core => {
                    self.recall(line, owner, false, After::Grant { core, excl: false }, out)
                }
                // An owner re-requesting S lost its copy silently: the
                // grant demotes it.
                _ => {
                    self.grant(line, core, false, ServiceLevel::Llc, out);
                    true
                }
            };
        }
        // Miss, counted once the fill starts (a refusal is retried).
        if !self.start_fill(line, false, core, prefetch, out) {
            return false;
        }
        self.stats.misses += 1;
        if !prefetch {
            self.issue_prefetches(line, out);
        }
        true
    }

    fn get_m(&mut self, line: PhysAddr, core: usize, out: &mut LlcOut) -> bool {
        if let Some(l) = self.array.get_mut(line) {
            self.stats.hits += 1;
            l.prefetched = false;
            let after = After::Grant { core, excl: true };
            let others = l.sharers & !(1 << core);
            return match l.owner {
                Some(owner) if owner != core => self.recall(line, owner, true, after, out),
                None if others != 0 => self.invalidate(line, others, after, out),
                // Also re-grants to an owner asking again (e.g. after a
                // silent drop).
                _ => {
                    self.grant(line, core, true, ServiceLevel::Llc, out);
                    true
                }
            };
        }
        if !self.start_fill(line, true, core, false, out) {
            return false;
        }
        self.stats.misses += 1;
        true
    }

    /// Begin a memory fill; returns false if resources are unavailable.
    fn start_fill(
        &mut self,
        line: PhysAddr,
        excl: bool,
        core: usize,
        prefetch: bool,
        out: &mut LlcOut,
    ) -> bool {
        if self.mshrs.len() >= self.cfg.mshrs {
            return false;
        }
        if !self.array.has_room(line) && !self.make_room(line, out) {
            return false;
        }
        let mut pkt = Packet { id: self.next_id(), ..Packet::read(line, self.mc_of(line)) };
        pkt.is_prefetch = prefetch;
        pkt.core = Some(core);
        out.to_bus.push((pkt, self.cfg.hit_latency));
        self.mshrs.insert(line.0, Mshr { txn: Txn::Mem { excl, core, prefetch }, queue: VecDeque::new() });
        true
    }

    /// Try to free a way in `line`'s set. Returns false if eviction needs a
    /// recall that is now in flight (caller retries the original request).
    fn make_room(&mut self, line: PhysAddr, out: &mut LlcOut) -> bool {
        if let Some(way) = self.victim_way(line) {
            let (v, p) = self.array.take(way);
            self.stats.evictions += 1;
            // Clean sharers are force-invalidated without acks; inclusion is
            // restored within a link delay and clean reads in the window are
            // indistinguishable from an earlier interleaving.
            for c in cores_in(p.sharers) {
                out.to_l1.push((c, LlcToL1::Inval { line: v }, 0));
            }
            if p.dirty {
                self.stats.writebacks += 1;
                self.write_mem(v, p.data, self.cfg.hit_latency, out);
            }
            return true;
        }
        // Every candidate is owned dirty in an L1: recall the LRU owner and
        // retry the request once the recall lands.
        if let Some(v) = self.array.victim(line, |l, _| self.mshrs.contains_key(&l.0)) {
            let owner = self.array.peek(v).and_then(|p| p.owner).expect("owned victim");
            self.recall(v, owner, true, After::Evict, out);
        }
        false
    }

    /// The way [`Self::make_room`] evicts from `line`'s set: the LRU way no
    /// L1 holds, else the LRU way no L1 owns, passing over lines with a
    /// transaction in flight; `None` if every other way is owned. One pass
    /// over the set finds both candidates, and the MSHR map is probed for
    /// the chosen one only. If that line is busy, the definition decides
    /// ([`Self::victim_way_by_scans`]).
    fn victim_way(&self, line: PhysAddr) -> Option<Way> {
        let [unheld, unowned] = self.array.lru_ways(
            line,
            |p| p.owner.is_some() || p.sharers != 0,
            |p| p.owner.is_some(),
        );
        let way = unheld.or(unowned)?;
        if self.mshrs.contains_key(&self.array.way_line(way).0) {
            return self.victim_way_by_scans(line);
        }
        Some(way)
    }

    /// The definition of [`Self::victim_way`]: two scans over the set that
    /// probe the MSHR map for every way the directory fields do not spare.
    fn victim_way_by_scans(&self, line: PhysAddr) -> Option<Way> {
        let busy = |l: PhysAddr| self.mshrs.contains_key(&l.0);
        self.array
            .lru_way(line, |l, p| p.owner.is_some() || p.sharers != 0 || busy(l))
            .or_else(|| self.array.lru_way(line, |l, p| p.owner.is_some() || busy(l)))
    }

    fn issue_prefetches(&mut self, line: PhysAddr, out: &mut LlcOut) {
        for p in self.pf.observe(line) {
            if self.array.peek(p).is_some() || self.mshrs.contains_key(&p.0) {
                continue;
            }
            if self.mshrs.len() >= self.cfg.mshrs || !self.array.has_room(p) {
                break;
            }
            self.stats.prefetches_issued += 1;
            // Prefetches fill the LLC only (core index unused).
            let _ = self.start_fill(p, false, usize::MAX, true, out);
        }
    }

    /// The §V-A1 wide writeback: merge the L1's dirty lines, add this
    /// level's dirty lines in the range, push everything to memory, and
    /// acknowledge once the final write is accepted by its controller.
    fn wb_range(
        &mut self,
        addr: PhysAddr,
        size: u64,
        l1_dirty: &[(PhysAddr, LineData)],
        id: UopId,
        core: usize,
        out: &mut LlcOut,
    ) {
        let mut writes: Vec<(PhysAddr, LineData)> = Vec::new();
        for &(line, data) in l1_dirty {
            if let Some(l) = self.array.peek_mut(line) {
                l.data = data;
                l.dirty = false;
            }
            writes.push((line, data));
        }
        for line in crate::addr::lines_of(addr, size) {
            if let Some(l) = self.array.peek_mut(line) {
                if l.dirty && l.owner.is_none() {
                    l.dirty = false;
                    writes.push((line, l.data));
                }
            }
        }
        match writes.split_last() {
            None => out.to_l1.push((core, LlcToL1::ClwbAck { id }, self.cfg.hit_latency)),
            Some(((last_line, last_data), rest)) => {
                for (line, data) in rest {
                    self.write_mem(*line, *data, self.cfg.hit_latency, out);
                }
                self.send_acked_write(*last_line, *last_data, id, core, out);
            }
        }
    }

    fn clwb(
        &mut self,
        line: PhysAddr,
        data: Option<LineData>,
        id: UopId,
        core: usize,
        out: &mut LlcOut,
    ) -> bool {
        if let Some(d) = data {
            // L1 had it dirty: refresh our copy, write through to memory.
            // The ack comes back from the controller (WriteAck).
            if let Some(l) = self.array.peek_mut(line) {
                l.data = d;
                l.dirty = false;
            }
            self.send_acked_write(line, d, id, core, out);
            return true;
        }
        match self.array.peek(line).and_then(|l| l.owner) {
            // Dirty in a remote L1: recall (downgrade) then write back.
            Some(owner) if owner != core => {
                self.recall(line, owner, false, After::Clwb { id, core }, out)
            }
            _ => {
                self.clwb_here(line, id, core, out);
                true
            }
        }
    }

    /// Finish a CLWB at this level: write the line through if it is dirty
    /// here (acked once its controller accepts), else ack at once.
    fn clwb_here(&mut self, line: PhysAddr, id: UopId, core: usize, out: &mut LlcOut) {
        match self.array.peek_mut(line) {
            Some(l) if l.dirty => {
                l.dirty = false;
                let d = l.data;
                self.send_acked_write(line, d, id, core, out);
            }
            // Clean or absent everywhere: nothing to write back.
            _ => out.to_l1.push((core, LlcToL1::ClwbAck { id }, self.cfg.hit_latency)),
        }
    }

    fn nt_write(
        &mut self,
        line: PhysAddr,
        data: LineData,
        id: UopId,
        core: usize,
        out: &mut LlcOut,
    ) -> bool {
        let after = After::NtWrite { data, id, core };
        match self.array.peek(line).map(|l| (l.owner, l.sharers & !(1 << core))) {
            Some((Some(owner), _)) => self.recall(line, owner, true, after, out),
            Some((None, others)) if others != 0 => self.invalidate(line, others, after, out),
            _ => {
                self.run_after(line, after, out);
                true
            }
        }
    }

    fn on_putm(&mut self, line: PhysAddr, data: LineData, core: usize) {
        // A line no longer resident was evicted by a recall that raced
        // with this writeback; memory already has the recalled version.
        if let Some(l) = self.array.peek_mut(line) {
            l.data = data;
            l.dirty = true;
            if l.owner == Some(core) {
                l.owner = None;
            }
        }
    }

    /// A `RecallAck`, answering either a `Recall` or an `Inval`.
    fn on_ack(&mut self, line: PhysAddr, data: Option<LineData>, out: &mut LlcOut) {
        let Some(m) = self.mshrs.get_mut(&line.0) else {
            return; // stale ack (e.g. inval of a silently evicted line)
        };
        // Merge returned data.
        if let Some(d) = data {
            if let Some(l) = self.array.peek_mut(line) {
                l.data = d;
                l.dirty = true;
            }
        }
        let Txn::Acks { pending, .. } = &mut m.txn else { return };
        *pending -= 1;
        if *pending > 0 {
            return;
        }
        let m = self.mshrs.remove(&line.0).expect("present");
        let Txn::Acks { after, .. } = m.txn else { unreachable!() };
        self.run_after(line, after, out);
        self.retry.extend(m.queue);
    }

    fn run_after(&mut self, line: PhysAddr, after: After, out: &mut LlcOut) {
        match after {
            After::Grant { core, excl } => self.grant(line, core, excl, ServiceLevel::Llc, out),
            After::Evict => {
                if let Some(p) = self.array.remove(line) {
                    self.stats.evictions += 1;
                    if p.dirty {
                        self.stats.writebacks += 1;
                        self.write_mem(line, p.data, self.cfg.hit_latency, out);
                    }
                }
            }
            After::NtWrite { data, id, core } => {
                if self.array.remove(line).is_some() {
                    self.stats.invalidations += 1;
                }
                self.write_mem(line, data, self.cfg.hit_latency, out);
                out.to_l1.push((core, LlcToL1::NtAck { id }, self.cfg.hit_latency));
            }
            After::Clwb { id, core } => {
                if let Some(l) = self.array.peek_mut(line) {
                    l.owner = None;
                }
                self.clwb_here(line, id, core, out);
            }
        }
    }

    /// Handle a packet arriving from the memory interconnect.
    pub fn handle_pkt(&mut self, _now: Cycle, pkt: Packet, out: &mut LlcOut) {
        match pkt.cmd {
            MemCmd::ReadResp => self.on_fill(pkt, out),
            MemCmd::MclazyAck => {
                if let Some((core, id)) = self.pending_lazy.remove(&pkt.id) {
                    out.to_l1.push((core, LlcToL1::MclazyAck { id }, 0));
                }
            }
            MemCmd::WriteAck => {
                if let Some((core, id)) = self.pending_write_acks.remove(&pkt.id) {
                    out.to_l1.push((core, LlcToL1::ClwbAck { id }, 0));
                }
            }
            other => unreachable!("unexpected packet at LLC: {other:?}"),
        }
    }

    fn on_fill(&mut self, pkt: Packet, out: &mut LlcOut) {
        let line = pkt.addr;
        let data = pkt.data.expect("fill carries data");
        let Some(m) = self.mshrs.get(&line.0) else {
            return; // line was invalidated (MCLAZY snoop) while in flight
        };
        let Txn::Mem { excl, core, prefetch } = m.txn else {
            return; // ditto: txn type changed under an invalidation race
        };
        if !self.array.has_room(line) && !self.make_room(line, out) {
            // No victim available right now (all owned/busy): retry the
            // fill next cycle by re-queueing it through the retry path.
            let m = self.mshrs.remove(&line.0).expect("present");
            self.retry.extend(m.queue);
            self.retry.push_back(if excl {
                L1ToLlc::GetM { line, core }
            } else {
                L1ToLlc::GetS { line, core, prefetch }
            });
            return;
        }
        let m = self.mshrs.remove(&line.0).expect("present");
        let lline = LlcLine { data, dirty: false, owner: None, sharers: 0, prefetched: prefetch };
        self.array.insert(line, lline);
        // `core == usize::MAX` marks the LLC's own prefetches (no L1 is
        // waiting). An L1-initiated prefetch (`prefetch` set, real core)
        // must still be granted — the L1 holds an MSHR for it.
        if core != usize::MAX {
            self.grant(line, core, excl, ServiceLevel::Mem, out);
        }
        self.retry.extend(m.queue);
    }

    /// MCLAZY snoop support (called by the system): write back the line if
    /// dirty at this level and mark clean, returning a write packet target.
    pub fn snoop_writeback(&mut self, line: PhysAddr, out: &mut LlcOut) {
        if let Some(l) = self.array.peek_mut(line) {
            if l.dirty {
                l.dirty = false;
                let d = l.data;
                self.write_mem(line, d, 0, out);
            }
        }
    }

    /// MCLAZY snoop support: merge an L1's dirty data and write it back to
    /// memory (the L1 keeps a clean copy; ownership collapses to shared).
    pub fn snoop_merge_writeback(&mut self, line: PhysAddr, data: LineData, out: &mut LlcOut) {
        if let Some(l) = self.array.peek_mut(line) {
            l.data = data;
            l.dirty = false;
            if let Some(o) = l.owner.take() {
                l.sharers |= 1 << o;
            }
        }
        self.write_mem(line, data, 0, out);
    }

    /// MCLAZY snoop support: drop a destination line entirely.
    pub fn snoop_invalidate(&mut self, line: PhysAddr) {
        if self.array.remove(line).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Test/debug helper: peek at a resident line.
    pub fn peek_line(&self, line: PhysAddr) -> Option<&LineData> {
        self.array.peek(line).map(|l| &l.data)
    }
}

/// The core indices set in a sharer mask, in ascending order.
fn cores_in(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |c| mask & (1 << c) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn mk() -> Llc {
        Llc::new(SystemConfig::tiny().llc, 2)
    }

    fn gets(line: u64, core: usize) -> L1ToLlc {
        L1ToLlc::GetS { line: PhysAddr(line), core, prefetch: false }
    }

    fn fill(llc: &mut Llc, line: u64, data: LineData, out: &mut LlcOut) {
        // Find the ReadReq we sent and answer it.
        let req = out
            .to_bus
            .iter()
            .find(|(p, _)| p.cmd == MemCmd::ReadReq && p.addr == PhysAddr(line))
            .map(|(p, _)| p.clone())
            .expect("read request issued");
        llc.handle_pkt(1, req.make_read_resp(data), out);
    }

    #[test]
    fn miss_fetches_from_memory_then_grants() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        assert!(llc.handle_l1(&gets(0x100, 0), &mut out));
        assert_eq!(llc.stats.misses, 1);
        fill(&mut llc, 0x100, LineData::splat(4), &mut out);
        let grant = out
            .to_l1
            .iter()
            .find(|(c, m, _)| *c == 0 && matches!(m, LlcToL1::Data { .. }))
            .expect("granted");
        match &grant.1 {
            LlcToL1::Data { data, excl, level, .. } => {
                assert_eq!(*data, LineData::splat(4));
                assert!(!excl);
                assert_eq!(*level, ServiceLevel::Mem);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn packets_are_numbered_per_llc() {
        // Each LLC numbers what it sends from 1, so ids do not depend on
        // what else ran in the process.
        for _ in 0..2 {
            let mut llc = mk();
            let mut out = LlcOut::default();
            llc.handle_l1(&gets(0x100, 0), &mut out);
            llc.handle_l1(&gets(0x200, 0), &mut out);
            let ids: Vec<u64> = out.to_bus.iter().map(|(p, _)| p.id).collect();
            assert_eq!(ids, [1, 2]);
        }
    }

    #[test]
    fn second_reader_hits() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        llc.handle_l1(&gets(0x100, 0), &mut out);
        fill(&mut llc, 0x100, LineData::splat(4), &mut out);
        let mut out = LlcOut::default();
        llc.handle_l1(&gets(0x100, 1), &mut out);
        assert_eq!(llc.stats.hits, 1);
        assert!(out.to_bus.is_empty());
    }

    #[test]
    fn getm_invalidates_sharers_before_grant() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        llc.handle_l1(&gets(0x100, 0), &mut out);
        fill(&mut llc, 0x100, LineData::ZERO, &mut out);
        llc.handle_l1(&gets(0x100, 1), &mut out);

        let mut out = LlcOut::default();
        llc.handle_l1(&L1ToLlc::GetM { line: PhysAddr(0x100), core: 2 }, &mut out);
        // Invals to cores 0 and 1, no grant yet.
        let invals: Vec<_> = out
            .to_l1
            .iter()
            .filter(|(_, m, _)| matches!(m, LlcToL1::Inval { .. }))
            .map(|(c, _, _)| *c)
            .collect();
        assert_eq!(invals, vec![0, 1]);
        assert!(!out.to_l1.iter().any(|(_, m, _)| matches!(m, LlcToL1::Data { .. })));

        // Acks arrive; grant fires on the last one.
        let mut out = LlcOut::default();
        llc.handle_l1(&L1ToLlc::RecallAck { line: PhysAddr(0x100), data: None, core: 0 }, &mut out);
        assert!(out.to_l1.is_empty());
        llc.handle_l1(&L1ToLlc::RecallAck { line: PhysAddr(0x100), data: None, core: 1 }, &mut out);
        match &out.to_l1[0].1 {
            LlcToL1::Data { excl: true, .. } => {}
            other => panic!("expected M grant, got {other:?}"),
        }
    }

    #[test]
    fn gets_to_owned_line_recalls_owner() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        llc.handle_l1(&L1ToLlc::GetM { line: PhysAddr(0x100), core: 0 }, &mut out);
        fill(&mut llc, 0x100, LineData::ZERO, &mut out);

        let mut out = LlcOut::default();
        llc.handle_l1(&gets(0x100, 1), &mut out);
        assert!(matches!(&out.to_l1[0], (0, LlcToL1::Recall { inval: false, .. }, _)));

        // Owner returns dirty data; requester gets it.
        let mut out = LlcOut::default();
        llc.handle_l1(
            &L1ToLlc::RecallAck { line: PhysAddr(0x100), data: Some(LineData::splat(9)), core: 0 },
            &mut out,
        );
        match &out.to_l1[0] {
            (1, LlcToL1::Data { data, excl: false, .. }, _) => {
                assert_eq!(*data, LineData::splat(9))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn requests_to_busy_line_are_queued() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        llc.handle_l1(&gets(0x100, 0), &mut out);
        // Second request while fill outstanding: must not issue a second read.
        llc.handle_l1(&gets(0x100, 1), &mut out);
        let reads = out.to_bus.iter().filter(|(p, _)| p.cmd == MemCmd::ReadReq).count();
        assert_eq!(reads, 1);
        fill(&mut llc, 0x100, LineData::splat(2), &mut out);
        // Queued request replays via retry queue.
        let mut out = LlcOut::default();
        llc.begin_cycle(&mut out);
        assert!(out
            .to_l1
            .iter()
            .any(|(c, m, _)| *c == 1 && matches!(m, LlcToL1::Data { .. })));
    }

    #[test]
    fn clwb_with_data_writes_through() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        llc.handle_l1(&L1ToLlc::GetM { line: PhysAddr(0x80), core: 0 }, &mut out);
        fill(&mut llc, 0x80, LineData::ZERO, &mut out);
        let mut out = LlcOut::default();
        llc.handle_l1(
            &L1ToLlc::Clwb { line: PhysAddr(0x80), data: Some(LineData::splat(6)), id: 11, core: 0 },
            &mut out,
        );
        let (wr, _) = out
            .to_bus
            .iter()
            .find(|(p, _)| p.cmd == MemCmd::WriteReq && p.data == Some(LineData::splat(6)))
            .expect("write-through issued");
        assert!(wr.needs_ack, "CLWB writes request a controller ack");
        // The ClwbAck only fires once the controller accepts the write.
        assert!(!out.to_l1.iter().any(|(_, m, _)| matches!(m, LlcToL1::ClwbAck { .. })));
        let ack = wr.make_write_ack();
        let mut out = LlcOut::default();
        llc.handle_pkt(3, ack, &mut out);
        assert!(out.to_l1.iter().any(|(_, m, _)| matches!(m, LlcToL1::ClwbAck { id: 11 })));
    }

    #[test]
    fn nt_write_goes_straight_to_memory() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        llc.handle_l1(
            &L1ToLlc::NtWrite { line: PhysAddr(0xc0), data: LineData::splat(3), id: 4, core: 0 },
            &mut out,
        );
        assert!(out.to_bus.iter().any(|(p, _)| p.cmd == MemCmd::WriteReq));
        assert!(out.to_l1.iter().any(|(_, m, _)| matches!(m, LlcToL1::NtAck { id: 4 })));
        assert!(llc.peek_line(PhysAddr(0xc0)).is_none(), "NT writes do not allocate");
    }

    #[test]
    fn mclazy_forwards_and_acks() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        let desc = crate::packet::LazyDesc { dst: PhysAddr(0x1000), src: PhysAddr(0x2000), size: 64 };
        llc.handle_l1(&L1ToLlc::Mclazy { desc, id: 77, core: 0 }, &mut out);
        let (pkt, _) = out
            .to_bus
            .iter()
            .find(|(p, _)| matches!(p.cmd, MemCmd::Mclazy(_)))
            .expect("forwarded");
        let ack = pkt.make_mclazy_ack();
        let mut out = LlcOut::default();
        llc.handle_pkt(3, ack, &mut out);
        assert!(out.to_l1.iter().any(|(c, m, _)| *c == 0 && matches!(m, LlcToL1::MclazyAck { id: 77 })));
        assert!(!llc.busy());
    }

    #[test]
    fn wb_range_writes_all_dirty_and_acks_after_last() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        // Two LLC-dirty lines via PutM.
        for a in [0u64, 0x40] {
            llc.handle_l1(&gets(a, 0), &mut out);
            fill(&mut llc, a, LineData::ZERO, &mut out);
            llc.handle_l1(&L1ToLlc::PutM { line: PhysAddr(a), data: LineData::splat(9), core: 0 }, &mut out);
        }
        let mut out = LlcOut::default();
        llc.handle_l1(
            &L1ToLlc::WbRange { addr: PhysAddr(0), size: 128, dirty: vec![], id: 5, core: 0 },
            &mut out,
        );
        let writes: Vec<_> =
            out.to_bus.iter().filter(|(p, _)| p.cmd == MemCmd::WriteReq).collect();
        assert_eq!(writes.len(), 2);
        // Exactly one write requests the ack; ClwbAck fires on its WriteAck.
        let acked: Vec<_> = writes.iter().filter(|(p, _)| p.needs_ack).collect();
        assert_eq!(acked.len(), 1);
        assert!(!out.to_l1.iter().any(|(_, m, _)| matches!(m, LlcToL1::ClwbAck { .. })));
        let ack = acked[0].0.make_write_ack();
        let mut out = LlcOut::default();
        llc.handle_pkt(3, ack, &mut out);
        assert!(out.to_l1.iter().any(|(_, m, _)| matches!(m, LlcToL1::ClwbAck { id: 5 })));
    }

    #[test]
    fn wb_range_with_nothing_dirty_acks_immediately() {
        let mut llc = mk();
        let mut out = LlcOut::default();
        llc.handle_l1(
            &L1ToLlc::WbRange { addr: PhysAddr(0x1000), size: 256, dirty: vec![], id: 6, core: 0 },
            &mut out,
        );
        assert!(out.to_bus.is_empty());
        assert!(out.to_l1.iter().any(|(_, m, _)| matches!(m, LlcToL1::ClwbAck { id: 6 })));
    }

    #[test]
    fn eviction_writes_back_dirty_line() {
        let mut llc = mk(); // tiny llc: 4096B, 4-way, 16 sets
        // Make line 0 dirty via PutM, then stream 4 more lines into set 0.
        let mut out = LlcOut::default();
        llc.handle_l1(&gets(0, 0), &mut out);
        fill(&mut llc, 0, LineData::ZERO, &mut out);
        llc.handle_l1(&L1ToLlc::PutM { line: PhysAddr(0), data: LineData::splat(8), core: 0 }, &mut out);
        // Set stride = 16 sets * 64B = 1024B.
        for k in 1..=4u64 {
            let addr = k * 1024;
            let mut out2 = LlcOut::default();
            llc.handle_l1(&gets(addr, 0), &mut out2);
            fill(&mut llc, addr, LineData::ZERO, &mut out2);
            out.to_bus.extend(out2.to_bus);
        }
        assert!(
            out.to_bus
                .iter()
                .any(|(p, _)| p.cmd == MemCmd::WriteReq && p.data == Some(LineData::splat(8))),
            "dirty victim written back"
        );
    }

    /// A two-MSHR LLC holding line 0x100 owned by core 0 and line 0x140
    /// shared by core 1, with `busy` misses (lines 0x1000, 0x1040, ...)
    /// in flight.
    fn with_busy_mshrs(busy: u64) -> Llc {
        let mut llc = Llc::new(CacheConfig { mshrs: 2, ..SystemConfig::tiny().llc }, 2);
        let mut out = LlcOut::default();
        llc.handle_l1(&L1ToLlc::GetM { line: PhysAddr(0x100), core: 0 }, &mut out);
        fill(&mut llc, 0x100, LineData::ZERO, &mut out);
        llc.handle_l1(&gets(0x140, 1), &mut out);
        fill(&mut llc, 0x140, LineData::ZERO, &mut out);
        for k in 0..busy {
            assert!(llc.handle_l1(&gets(0x1000 + 64 * k, 0), &mut out));
        }
        assert_eq!(llc.mshr_count(), busy as usize);
        llc
    }

    #[test]
    fn one_pass_victim_equals_the_two_scan_definition() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        // 8 sets of 8 ways; lines k * 512 share set 0.
        let cfg = CacheConfig { ways: 8, mshrs: 64, ..SystemConfig::tiny().llc };
        let (mut all_owned, mut busy_pick, mut one_pass) = (0, 0, 0);
        for _ in 0..2_000 {
            let mut llc = Llc::new(cfg.clone(), 2);
            let n = rng.random_range(1..=8u64);
            // Mostly owned ways, so that every way is owned now and then.
            let owned_pct = if rng.random_range(0..4u32) == 0 { 100 } else { 50 };
            for k in 0..n {
                let owned = rng.random_range(0..100u32) < owned_pct;
                let owner = owned.then(|| rng.random_range(0..4usize));
                let shared = rng.random_range(0..2u32) == 0;
                let sharers = if shared { rng.random_range(1..16u32) } else { 0 };
                let l = LlcLine { data: LineData::ZERO, dirty: false, owner, sharers, prefetched: false };
                llc.array.insert(PhysAddr(k * 512), l);
                if rng.random_range(0..3u32) == 0 {
                    let txn = Txn::Mem { excl: false, core: 0, prefetch: false };
                    llc.mshrs.insert(k * 512, Mshr { txn, queue: VecDeque::new() });
                }
            }
            // Touch random ways, so the LRU order is not the insertion order.
            for _ in 0..rng.random_range(0..12u32) {
                let _ = llc.array.get_mut(PhysAddr(rng.random_range(0..n) * 512));
            }
            let line = PhysAddr(n * 512);
            let way_line = |w: Option<Way>| w.map(|w| llc.array.way_line(w));
            let want = way_line(llc.victim_way_by_scans(line));
            assert_eq!(way_line(llc.victim_way(line)), want);
            let held = |p: &LlcLine| p.owner.is_some() || p.sharers != 0;
            let [unheld, unowned] = llc.array.lru_ways(line, held, |p| p.owner.is_some());
            match way_line(unheld.or(unowned)) {
                None => all_owned += 1,
                Some(v) if llc.mshrs.contains_key(&v.0) => busy_pick += 1,
                Some(_) => one_pass += 1,
            }
        }
        let paths = (all_owned, busy_pick, one_pass);
        assert!(all_owned > 100 && busy_pick > 100 && one_pass > 100, "each path is taken: {paths:?}");
    }

    #[test]
    fn refuses_matches_a_no_op_refusal() {
        let cases = [
            ("GetS miss, MSHRs full", 2, gets(0x2000, 1), true),
            ("GetM miss, MSHRs full", 2, L1ToLlc::GetM { line: PhysAddr(0x2000), core: 1 }, true),
            ("miss with a free MSHR", 1, gets(0x2000, 1), false),
            ("hit", 2, gets(0x140, 1), false),
            ("busy line, queued", 2, gets(0x1000, 1), false),
            ("hit owned elsewhere, MSHRs full", 2, gets(0x100, 1), false),
        ];
        for (what, busy, msg, expect) in cases {
            let mut llc = with_busy_mshrs(busy);
            let refuses = llc.refuses(&msg);
            let (stats, mshrs) = (llc.stats.clone(), llc.mshr_count());
            let mut out = LlcOut::default();
            let accepted = llc.handle_l1(&msg, &mut out);
            let unchanged = llc.stats == stats
                && llc.mshr_count() == mshrs
                && out.to_l1.is_empty()
                && out.to_bus.is_empty();
            assert_eq!(refuses, expect, "{what}");
            assert_eq!(refuses, !accepted && unchanged, "{what}: predicate and handler disagree");
        }
    }
}
