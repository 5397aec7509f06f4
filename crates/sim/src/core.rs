//! Program-driven out-of-order-style CPU core model.
//!
//! The model captures what the paper's experiments depend on (§II):
//! a reorder buffer that bounds memory-level parallelism (the reason memcpy
//! latency enters the critical path once the ROB fills), a load queue, a
//! store buffer with forwarding (x86-TSO-style retired stores), limited
//! outstanding CLWBs (the resource whose exhaustion serialises
//! `memcpy_lazy`'s writebacks in Fig. 11), parallel MCLAZY issue with
//! fence-enforced ordering (§III-C), and non-temporal stores.
//!
//! It does not model fetch/decode/branches: non-memory work is represented
//! by `Compute` uops with a cycle cost.

use crate::cache::{CoreToL1, L1ToCore, ServiceLevel};
use crate::config::CoreConfig;
use crate::packet::LazyDesc;
use crate::program::{Fetch, Program};
use crate::stats::{CoreStats, StallReason};
use crate::uop::{StatTag, StoreData, Uop, UopId, UopKind};
use crate::hash::{FastMap, FastSet};
use crate::Cycle;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobKind {
    Load,
    Store,
    Clwb,
    Mclazy,
    Mcfree,
    Fence,
    Compute,
    Marker(u32),
    Flush,
}

#[derive(Debug)]
struct RobEntry {
    id: UopId,
    kind: RobKind,
    tag: StatTag,
    done: bool,
    /// For Compute: completion time.
    ready_at: Option<Cycle>,
}

#[derive(Debug)]
struct SbEntry {
    id: UopId,
    addr: crate::addr::PhysAddr,
    size: u8,
    data: Option<Vec<u8>>,
    from: Option<(UopId, u8)>,
    nontemporal: bool,
    sent: bool,
}

#[derive(Debug)]
struct PendingLoad {
    id: UopId,
    addr: crate::addr::PhysAddr,
    size: u8,
    issued: bool,
    issue_after: Cycle,
}

#[derive(Debug)]
struct PendingClwb {
    id: UopId,
    addr: crate::addr::PhysAddr,
    /// 0 for a single-line CLWB, else the WbRange size in bytes.
    size: u64,
    sent: bool,
}

/// Outputs of one core cycle.
#[derive(Debug, Default)]
pub struct CoreOut {
    /// Requests to the L1.
    pub to_l1: Vec<CoreToL1>,
}

/// One simulated CPU core running a [`Program`].
pub struct Core {
    /// Core index.
    pub id: usize,
    cfg: CoreConfig,
    program: Box<dyn Program>,
    next_id: UopId,
    rob: VecDeque<RobEntry>,
    sb: VecDeque<SbEntry>,
    loads: Vec<PendingLoad>,
    clwbs: Vec<PendingClwb>,
    /// Completed load values kept for `StoreData::FromLoad` consumers.
    load_vals: FastMap<UopId, Vec<u8>>,
    outstanding_mclazy: usize,
    outstanding_nt: usize,
    /// Leading store-buffer entries already sent to the L1. Sends are
    /// strictly in order and stop at the first unresolved entry, so the
    /// sent entries always form a prefix of the deque; the drain loops
    /// start here instead of rescanning acknowledged-pending stores.
    sb_sent_prefix: usize,
    /// Fence/Flush ROB entries not yet done. With none pending and no
    /// matured compute (see `compute_ready_min`), `complete` has nothing
    /// to transition and skips its ROB scan.
    undone_ff: usize,
    /// Lower bound on the earliest `ready_at` of a not-yet-done Compute
    /// entry (`None` = no such entry). Min-merged at dispatch, recomputed
    /// exactly whenever the completion scan runs.
    compute_ready_min: Option<Cycle>,
    /// Uop that failed a resource check at dispatch, retried next cycle.
    held: Option<Uop>,
    /// The program returned `Fetch::Stall`; only a load completion can
    /// change its answer (see the [`Program`] contract).
    frontend_stalled: bool,
    fence_blocked: bool,
    program_done: bool,
    /// All work retired and drained.
    finished: bool,
    last_tag: StatTag,
    /// Open stall span: (reason, start cycle). Purely observational; see
    /// DESIGN.md, "Observability layer".
    #[cfg(feature = "trace")]
    cur_stall: Option<(StallReason, crate::Cycle)>,
    /// Statistics.
    pub stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Core{}{{rob={}, sb={}, loads={}, finished={}}}",
            self.id,
            self.rob.len(),
            self.sb.len(),
            self.loads.len(),
            self.finished
        )
    }
}

impl Core {
    /// Create core `id` running `program`.
    pub fn new(id: usize, cfg: CoreConfig, program: Box<dyn Program>) -> Core {
        Core {
            id,
            cfg,
            program,
            next_id: 0,
            rob: VecDeque::new(),
            sb: VecDeque::new(),
            loads: Vec::new(),
            clwbs: Vec::new(),
            load_vals: FastMap::default(),
            outstanding_mclazy: 0,
            outstanding_nt: 0,
            sb_sent_prefix: 0,
            undone_ff: 0,
            compute_ready_min: None,
            held: None,
            frontend_stalled: false,
            fence_blocked: false,
            program_done: false,
            finished: false,
            last_tag: StatTag::App,
            #[cfg(feature = "trace")]
            cur_stall: None,
            stats: CoreStats::default(),
        }
    }

    /// Whether the core has retired everything and drained all buffers.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Number of issued (sent to L1) loads in flight (diagnostics).
    pub fn issued_loads(&self) -> usize {
        self.loads.iter().filter(|l| l.issued).count()
    }

    /// Store-buffer occupancy (diagnostics).
    pub fn sb_len(&self) -> usize {
        self.sb.len()
    }

    /// ROB occupancy (diagnostics).
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// Earliest future self-wakeup (skip-ahead hint): pending compute
    /// completion or delayed load issue.
    pub fn next_event(&self) -> Option<Cycle> {
        let mut hint = self.rob.iter().filter_map(|e| e.ready_at).min();
        for l in &self.loads {
            if !l.issued {
                hint = Some(hint.map_or(l.issue_after, |h| h.min(l.issue_after)));
            }
        }
        hint
    }

    /// Handle a response from the L1.
    pub fn handle_l1(&mut self, _now: Cycle, msg: L1ToCore) {
        match msg {
            L1ToCore::LoadDone { id, data, level } => {
                match level {
                    ServiceLevel::L1 => {}
                    ServiceLevel::Llc => self.stats.l1_miss_loads += 1,
                    ServiceLevel::Mem => {
                        self.stats.l1_miss_loads += 1;
                        self.stats.mem_loads += 1;
                    }
                }
                self.load_done(id, data);
            }
            L1ToCore::StoreDone { id } => {
                if let Some(pos) = self.sb.iter().position(|s| s.id == id) {
                    self.sb.remove(pos);
                    if pos < self.sb_sent_prefix {
                        self.sb_sent_prefix -= 1;
                    }
                }
            }
            L1ToCore::ClwbDone { id } => {
                if let Some(pos) = self.clwbs.iter().position(|c| c.id == id) {
                    self.clwbs.swap_remove(pos);
                }
            }
            L1ToCore::MclazyDone { id: _ } => {
                debug_assert!(self.outstanding_mclazy > 0);
                self.outstanding_mclazy -= 1;
            }
            L1ToCore::NtDone { id: _ } => {
                debug_assert!(self.outstanding_nt > 0);
                self.outstanding_nt -= 1;
            }
        }
    }

    fn mark_done(&mut self, id: UopId) {
        if let Some(e) = self.rob.iter_mut().find(|e| e.id == id) {
            e.done = true;
        }
    }

    fn mem_drained(&self) -> bool {
        self.sb.is_empty()
            && self.clwbs.is_empty()
            && self.outstanding_mclazy == 0
            && self.outstanding_nt == 0
    }

    /// Advance one cycle: complete, retire, issue, dispatch.
    pub fn tick(&mut self, now: Cycle, out: &mut CoreOut) {
        if self.finished {
            return;
        }

        self.complete(now);
        let retired = self.retire(now);
        self.issue_loads(now, out);
        self.issue_clwbs(out);
        self.drain_sb(out);
        let dispatch_stall = self.dispatch(now, out);
        self.account(1, now, retired, dispatch_stall);

        if self.program_done && self.rob.is_empty() && self.loads.is_empty() && self.mem_drained() {
            self.finished = true;
        }
    }

    fn complete(&mut self, now: Cycle) {
        // Loads and stores transition via `mark_done`; only Fence/Flush
        // entries and maturing Computes need the scan, so skip it when
        // neither exists — the common case in streaming phases.
        if self.undone_ff == 0 && self.compute_ready_min.is_none_or(|r| r > now) {
            return;
        }
        let drained = self.mem_drained();
        let no_loads = self.loads.is_empty();
        // A pipeline flush completes only at the head of an otherwise
        // drained machine: everything older has retired and left.
        if let Some(head) = self.rob.front_mut() {
            if head.kind == RobKind::Flush && drained && no_loads && !head.done {
                head.done = true;
                self.undone_ff -= 1;
            }
        }
        let mut next_ready: Option<Cycle> = None;
        for e in self.rob.iter_mut() {
            if e.done {
                continue;
            }
            match e.kind {
                RobKind::Compute => {
                    if e.ready_at.is_some_and(|r| r <= now) {
                        e.done = true;
                    } else if let Some(r) = e.ready_at {
                        next_ready = Some(next_ready.map_or(r, |m: Cycle| m.min(r)));
                    }
                }
                RobKind::Fence
                    if drained && no_loads => {
                        e.done = true;
                        self.undone_ff -= 1;
                    }
                RobKind::Flush => {
                    // Completed below (needs head-of-ROB knowledge).
                }
                _ => {}
            }
        }
        self.compute_ready_min = next_ready;
    }

    fn retire(&mut self, now: Cycle) -> usize {
        let mut n = 0;
        while n < self.cfg.retire_width {
            match self.rob.front() {
                Some(e) if e.done => {
                    let e = self.rob.pop_front().expect("front");
                    match e.kind {
                        RobKind::Fence | RobKind::Flush => self.fence_blocked = false,
                        RobKind::Marker(mid) => self.stats.markers.push((mid, now)),
                        _ => {}
                    }
                    self.stats.retired += 1;
                    n += 1;
                }
                _ => break,
            }
        }
        n
    }

    fn issue_loads(&mut self, now: Cycle, out: &mut CoreOut) {
        // Loads issue in order of arrival; forwarding and conflict checks
        // against the store buffer happen at issue time.
        let mut fwd: Vec<(UopId, Vec<u8>)> = Vec::new();
        for i in 0..self.loads.len() {
            if self.loads[i].issued || self.loads[i].issue_after > now {
                continue;
            }
            let (addr, size, id) = (self.loads[i].addr, self.loads[i].size, self.loads[i].id);
            match self.sb_lookup(addr, size as usize, id) {
                SbCheck::Forward(bytes) => {
                    self.loads[i].issued = true;
                    fwd.push((id, bytes));
                }
                SbCheck::Conflict => {
                    // Wait for the conflicting store to drain; retry later.
                }
                SbCheck::Clear => {
                    self.loads[i].issued = true;
                    out.to_l1.push(CoreToL1::Load { id, addr, size });
                }
            }
        }
        for (id, bytes) in fwd {
            self.load_done(id, bytes);
        }
    }

    /// Complete load `id` with `data`, whether the L1 answered it or the
    /// store buffer forwarded it. The program may have stalled its
    /// frontend on this value, so fetching may resume.
    fn load_done(&mut self, id: UopId, data: Vec<u8>) {
        if let Some(pos) = self.loads.iter().position(|l| l.id == id) {
            self.loads.swap_remove(pos);
        }
        self.program.on_load_complete(id, &data);
        self.frontend_stalled = false;
        self.load_vals.insert(id, data);
        self.mark_done(id);
    }

    fn sb_lookup(&self, addr: crate::addr::PhysAddr, size: usize, before: UopId) -> SbCheck {
        let lo = addr.0;
        let hi = addr.0 + size as u64;
        // Scan youngest-first among stores older than the load.
        for s in self.sb.iter().rev() {
            if s.id >= before {
                continue;
            }
            let slo = s.addr.0;
            let shi = s.addr.0 + s.size as u64;
            if hi <= slo || shi <= lo {
                continue; // disjoint
            }
            if slo <= lo && hi <= shi && !s.nontemporal {
                let off = (lo - slo) as usize;
                if let Some(d) = &s.data {
                    return SbCheck::Forward(d[off..off + size].to_vec());
                }
                // Data may be available but not yet materialized into the
                // entry (resolution is lazy, see drain_sb): forward straight
                // from the producing load's value.
                if let Some((load, loff)) = s.from {
                    if let Some(v) = self.load_vals.get(&load) {
                        let off = loff as usize + off;
                        return SbCheck::Forward(v[off..off + size].to_vec());
                    }
                }
                return SbCheck::Conflict; // data not produced yet
            }
            return SbCheck::Conflict; // partial overlap: wait for drain
        }
        SbCheck::Clear
    }

    fn issue_clwbs(&mut self, out: &mut CoreOut) {
        for i in 0..self.clwbs.len() {
            if self.clwbs[i].sent {
                continue;
            }
            let addr = self.clwbs[i].addr;
            let size = self.clwbs[i].size;
            // Writebacks wait for older pending stores to the target range.
            let (lo, hi) = if size == 0 {
                (addr.line_base().0, addr.line_base().0 + crate::addr::CACHELINE)
            } else {
                (addr.line_base().0, addr.0 + size)
            };
            let conflict = self.sb.iter().any(|s| {
                s.id < self.clwbs[i].id && s.addr.0 < hi && s.addr.0 + s.size as u64 > lo
            });
            if conflict {
                continue;
            }
            self.clwbs[i].sent = true;
            if size == 0 {
                out.to_l1.push(CoreToL1::Clwb { id: self.clwbs[i].id, addr });
            } else {
                out.to_l1.push(CoreToL1::WbRange { id: self.clwbs[i].id, addr, size });
            }
        }
    }

    fn drain_sb(&mut self, out: &mut CoreOut) {
        // Sent entries form a prefix (in-order sends) and are fully
        // resolved, so the send loop starts past them. FromLoad data is
        // resolved lazily, right at the send head — entries deeper in the
        // buffer cannot send this cycle anyway, and `sb_lookup` forwards
        // straight out of `load_vals` for them.
        let mut sent = 0;
        let mut sent_nt = false;
        for s in self.sb.iter_mut().skip(self.sb_sent_prefix) {
            if s.sent {
                continue;
            }
            if s.data.is_none() {
                if let Some((load, off)) = s.from {
                    if let Some(v) = self.load_vals.get(&load) {
                        let off = off as usize;
                        s.data = Some(v[off..off + s.size as usize].to_vec());
                        s.from = None; // value consumed; safe to prune
                    }
                }
            }
            let Some(data) = s.data.clone() else { break }; // in-order: stop at unresolved
            if sent >= 2 {
                break;
            }
            s.sent = true;
            sent += 1;
            if s.nontemporal {
                sent_nt = true;
                self.outstanding_nt += 1;
                out.to_l1.push(CoreToL1::Store {
                    id: s.id,
                    addr: s.addr,
                    data,
                    nontemporal: true,
                });
            } else {
                out.to_l1.push(CoreToL1::Store {
                    id: s.id,
                    addr: s.addr,
                    data,
                    nontemporal: false,
                });
            }
        }
        self.sb_sent_prefix += sent;
        // NT stores leave the SB as soon as sent (posted); completion is
        // tracked by outstanding_nt for fences. A sent NT entry can only
        // have been marked in this very call, so the sweep is gated on it.
        if sent_nt {
            let before = self.sb.len();
            self.sb.retain(|s| !(s.nontemporal && s.sent));
            self.sb_sent_prefix -= before - self.sb.len();
        }
        // Bound the forwarding value cache, but never drop a value an
        // unresolved store still references (that would deadlock the SB).
        if self.load_vals.len() > 4 * self.cfg.rob_size {
            let referenced: FastSet<UopId> =
                self.sb.iter().filter_map(|s| s.from.map(|(l, _)| l)).collect();
            let min_live = self.rob.front().map(|e| e.id).unwrap_or(self.next_id);
            let window = 2 * self.cfg.rob_size as u64;
            self.load_vals
                .retain(|id, _| referenced.contains(id) || *id + window >= min_live);
        }
    }

    /// Dispatch new uops; returns the stall reason if dispatch was blocked.
    fn dispatch(&mut self, now: Cycle, out: &mut CoreOut) -> Option<StallReason> {
        let mut stall = None;
        for _ in 0..self.cfg.dispatch_width {
            if self.program_done {
                break;
            }
            if self.fence_blocked {
                stall = Some(StallReason::Fence);
                break;
            }
            if self.rob.len() >= self.cfg.rob_size {
                stall = Some(StallReason::RobFull);
                break;
            }
            let id = self.next_id;
            // Resource pre-checks require peeking at the uop; fetch it and
            // if resources are missing, hold it for next cycle.
            let uop = match self.held_or_fetch(id) {
                HeldFetch::Uop(u) => u,
                HeldFetch::Stall => {
                    stall = Some(StallReason::Frontend);
                    break;
                }
                HeldFetch::Done => {
                    self.program_done = true;
                    break;
                }
            };
            match self.try_dispatch(now, uop, id, out) {
                Ok(()) => {
                    self.next_id += 1;
                }
                Err((uop, reason)) => {
                    self.held = Some(uop);
                    stall = Some(reason);
                    break;
                }
            }
        }
        stall
    }

    fn held_or_fetch(&mut self, id: UopId) -> HeldFetch {
        if let Some(u) = self.held.take() {
            return HeldFetch::Uop(u);
        }
        match self.program.fetch(id) {
            Fetch::Uop(u) => {
                debug_assert!(u.validate().is_ok(), "invalid uop: {u} ({:?})", u.validate());
                HeldFetch::Uop(u)
            }
            Fetch::Stall => {
                self.frontend_stalled = true;
                HeldFetch::Stall
            }
            Fetch::Done => HeldFetch::Done,
        }
    }

    /// Diagnostic snapshot of the core's blocking state (for debugging
    /// stuck simulations; not a stable format).
    pub fn debug_state(&self) -> String {
        let head = self.rob.front().map(|e| format!("{:?} id={} done={}", e.kind, e.id, e.done));
        let sb: Vec<String> = self
            .sb
            .iter()
            .map(|s| {
                format!(
                    "id={} @{:?} sent={} data={} from={:?}",
                    s.id,
                    s.addr,
                    s.sent,
                    s.data.is_some(),
                    s.from
                )
            })
            .collect();
        let loads: Vec<String> =
            self.loads.iter().map(|l| format!("id={} @{:?} issued={}", l.id, l.addr, l.issued)).collect();
        format!(
            "core{} next_id={} rob={} head={:?} fence={} frontend_stalled={} held={:?} \
             clwbs={} mclazy={} nt={} sb={:?} loads={:?}",
            self.id,
            self.next_id,
            self.rob.len(),
            head,
            self.fence_blocked,
            self.frontend_stalled,
            self.held.as_ref().map(|u| u.to_string()),
            self.clwbs.len(),
            self.outstanding_mclazy,
            self.outstanding_nt,
            sb,
            loads
        )
    }

    /// Whether [`Core::tick`] would change any state this cycle without a
    /// new message from the memory system: the event-driven scheduler's
    /// per-core elision test. Unsent stores count only when the send head
    /// can send now: it carries its data, or the load it copies from has
    /// completed. A head waiting on a load in flight is woken by that
    /// load's `LoadDone` instead.
    pub(crate) fn can_act(&self) -> bool {
        if self.finished {
            return false;
        }
        if self.rob.front().is_some_and(|e| e.done) {
            return true; // can retire
        }
        if self.undone_ff > 0 && self.mem_drained() && self.loads.is_empty() {
            return true; // fence/flush completion pending
        }
        if let Some(head) = self.sb.get(self.sb_sent_prefix) {
            let resolved = head.data.is_some()
                || head.from.is_some_and(|(load, _)| self.load_vals.contains_key(&load));
            if resolved {
                return true; // the send head can go (sent entries form a prefix)
            }
        }
        if self.clwbs.iter().any(|c| !c.sent) {
            return true;
        }
        if self.loads.iter().any(|l| !l.issued) {
            return true; // may issue (or is a conflict resolved by SB drain)
        }
        if !self.program_done
            && !self.fence_blocked
            && self.rob.len() < self.cfg.rob_size
            && self.held.is_none()
            && !self.frontend_stalled
        {
            return true; // can fetch a new uop
        }
        false
    }

    /// Whether any store-buffer entry has not been sent to the L1 yet.
    pub(crate) fn has_unsent_stores(&self) -> bool {
        self.sb.len() > self.sb_sent_prefix
    }

    /// [`Core::can_act`], or some store is unsent even though its data
    /// is not ready. Gates the whole-machine idle skip-ahead, which must
    /// not jump while this holds.
    pub fn has_internal_work(&self) -> bool {
        self.can_act() || self.has_unsent_stores()
    }

    fn try_dispatch(
        &mut self,
        now: Cycle,
        uop: Uop,
        id: UopId,
        out: &mut CoreOut,
    ) -> Result<(), (Uop, StallReason)> {
        let tag = uop.tag;
        match &uop.kind {
            UopKind::Load { addr, size } => {
                if self.loads.len() >= self.cfg.lq_size {
                    return Err((uop, StallReason::RobFull));
                }
                self.loads.push(PendingLoad {
                    id,
                    addr: *addr,
                    size: *size,
                    issued: false,
                    issue_after: now,
                });
                self.rob.push_back(RobEntry { id, kind: RobKind::Load, tag, done: false, ready_at: None });
                self.stats.loads += 1;
            }
            UopKind::Store { addr, size, data, nontemporal } => {
                if self.sb.len() >= self.cfg.sb_size {
                    return Err((uop, StallReason::StoreBuffer));
                }
                let (bytes, from) = match data {
                    StoreData::Imm(b) => (Some(b.clone()), None),
                    StoreData::Splat(v) => (Some(vec![*v; *size as usize]), None),
                    StoreData::FromLoad { load, offset } => {
                        match self.load_vals.get(load) {
                            Some(v) => {
                                let off = *offset as usize;
                                (Some(v[off..off + *size as usize].to_vec()), None)
                            }
                            None => (None, Some((*load, *offset))),
                        }
                    }
                };
                self.sb.push_back(SbEntry {
                    id,
                    addr: *addr,
                    size: *size,
                    data: bytes,
                    from,
                    nontemporal: *nontemporal,
                    sent: false,
                });
                // Stores retire as soon as they are in the SB (TSO).
                self.rob.push_back(RobEntry { id, kind: RobKind::Store, tag, done: true, ready_at: None });
                self.stats.stores += 1;
            }
            UopKind::Clwb { addr } => {
                if self.clwbs.len() >= self.cfg.max_clwb {
                    return Err((uop, StallReason::ClwbSlots));
                }
                self.clwbs.push(PendingClwb { id, addr: *addr, size: 0, sent: false });
                self.rob.push_back(RobEntry { id, kind: RobKind::Clwb, tag, done: true, ready_at: None });
            }
            UopKind::WbRange { addr, size } => {
                if self.clwbs.len() >= self.cfg.max_clwb {
                    return Err((uop, StallReason::ClwbSlots));
                }
                self.clwbs.push(PendingClwb { id, addr: *addr, size: *size, sent: false });
                self.rob.push_back(RobEntry { id, kind: RobKind::Clwb, tag, done: true, ready_at: None });
            }
            UopKind::Mclazy { dst, src, size } => {
                if self.outstanding_mclazy >= self.cfg.max_mclazy {
                    return Err((uop, StallReason::MclazySlots));
                }
                // Conservative ordering: MCLAZY waits for the store buffer
                // to drain so earlier stores to the source are visible.
                if !self.sb.is_empty() {
                    return Err((uop, StallReason::StoreBuffer));
                }
                self.outstanding_mclazy += 1;
                out.to_l1.push(CoreToL1::Mclazy {
                    id,
                    desc: LazyDesc { dst: *dst, src: *src, size: *size },
                });
                self.rob.push_back(RobEntry { id, kind: RobKind::Mclazy, tag, done: true, ready_at: None });
            }
            UopKind::Mcfree { addr, size } => {
                out.to_l1.push(CoreToL1::Mcfree { addr: *addr, size: *size });
                self.rob.push_back(RobEntry { id, kind: RobKind::Mcfree, tag, done: true, ready_at: None });
            }
            UopKind::Mfence => {
                self.fence_blocked = true;
                self.undone_ff += 1;
                self.rob.push_back(RobEntry { id, kind: RobKind::Fence, tag, done: false, ready_at: None });
            }
            UopKind::Compute { cycles } => {
                let ready = now + *cycles as Cycle;
                if *cycles > 0 {
                    self.compute_ready_min =
                        Some(self.compute_ready_min.map_or(ready, |m| m.min(ready)));
                }
                self.rob.push_back(RobEntry {
                    id,
                    kind: RobKind::Compute,
                    tag,
                    done: *cycles == 0,
                    ready_at: Some(ready),
                });
            }
            UopKind::Marker { id: mid } => {
                self.rob.push_back(RobEntry {
                    id,
                    kind: RobKind::Marker(*mid),
                    tag,
                    done: true,
                    ready_at: None,
                });
            }
            UopKind::PipelineFlush => {
                self.fence_blocked = true;
                self.undone_ff += 1;
                self.rob.push_back(RobEntry {
                    id,
                    kind: RobKind::Flush,
                    tag,
                    done: false,
                    ready_at: None,
                });
            }
        }
        self.last_tag = tag;
        Ok(())
    }

    /// Attribute `k` cycles starting at `now`: cycles and mem-busy cycles
    /// by tag, the stall reason (from the ROB head, else dispatch) and the
    /// trace stall span. The one accounting rule: [`Core::tick`] calls it
    /// with `k = 1`, [`Core::account_idle`] with `k` elided cycles.
    fn account(&mut self, k: u64, now: Cycle, retired: usize, dispatch_stall: Option<StallReason>) {
        let _ = now; // stamp for the trace hook below
        self.stats.cycles += k;
        let tag = self.rob.front().map(|e| e.tag).unwrap_or(self.last_tag);
        *self.stats.cycles_by_tag.entry(tag).or_insert(0) += k;

        // "Mem miss cycles": at least one outstanding load that has
        // plausibly left the L1 (issued and still pending).
        if self.loads.iter().any(|l| l.issued) {
            *self.stats.mem_busy_by_tag.entry(tag).or_insert(0) += k;
        }

        // The stall attribution (None ⇔ something retired or the machine
        // was genuinely idle with nothing blocked).
        let stalled = if retired > 0 {
            None
        } else if let Some(head) = self.rob.front() {
            Some(match head.kind {
                RobKind::Load => StallReason::LoadMiss,
                RobKind::Fence => {
                    if !self.clwbs.is_empty() {
                        StallReason::ClwbSlots
                    } else if self.outstanding_mclazy > 0 {
                        StallReason::MclazySlots
                    } else {
                        StallReason::Fence
                    }
                }
                // A compute (or other non-memory) head stalls retirement by
                // itself; if dispatch was also blocked on a concrete
                // resource (ROB full behind a long compute, store buffer
                // full), that resource is the more useful attribution than
                // the generic front-end bucket.
                _ => dispatch_stall.unwrap_or(StallReason::Frontend),
            })
        } else {
            dispatch_stall
        };
        if let Some(r) = stalled {
            self.stats.bump_stall_n(r, k);
            if r == StallReason::LoadMiss {
                *self.stats.mem_stall_by_tag.entry(tag).or_insert(0) += k;
            }
        }

        // Trace hook: convert the attribution into stall *spans* (one
        // event per transition, not per cycle).
        #[cfg(feature = "trace")]
        match (self.cur_stall, stalled) {
            (Some((r0, _)), Some(r)) if r0 == r => {}
            (open, new) => {
                if let Some((r0, start)) = open {
                    mcs_trace::emit(mcs_trace::Event::CoreStall {
                        core: self.id as u16,
                        reason: r0.name(),
                        start,
                        end: now,
                    });
                }
                self.cur_stall = new.map(|r| (r, now));
            }
        }
    }

    /// Accounting for `k` executed cycles during which the core was
    /// provably frozen: no deliverable inbox message, nothing it can do
    /// on its own ([`Core::can_act`] false) and no timer due
    /// ([`Core::next_event`] in the future). Under those conditions
    /// [`Core::tick`] retires nothing and changes no state, so `k` ticks
    /// are one [`Core::account`] of `k` cycles. `first_now` is the first
    /// elided cycle (stall spans open there, exactly where the per-cycle
    /// path would have opened them).
    pub(crate) fn account_idle(&mut self, k: u64, first_now: Cycle) {
        if k == 0 || self.finished {
            return;
        }
        let dispatch_stall = self.idle_dispatch_stall();
        self.account(k, first_now, 0, dispatch_stall);
    }

    /// What [`Core::dispatch`] would return on a frozen core — a pure
    /// function of state that cannot change while frozen. Mirrors the
    /// check order in `dispatch`/`try_dispatch`.
    fn idle_dispatch_stall(&self) -> Option<StallReason> {
        if self.program_done {
            return None;
        }
        if self.fence_blocked {
            return Some(StallReason::Fence);
        }
        if self.rob.len() >= self.cfg.rob_size {
            return Some(StallReason::RobFull);
        }
        if let Some(u) = &self.held {
            // A held uop failed a resource check last cycle and, with the
            // core frozen, fails the same one again.
            let r = match &u.kind {
                UopKind::Load { .. } => StallReason::RobFull,
                UopKind::Store { .. } => StallReason::StoreBuffer,
                UopKind::Clwb { .. } | UopKind::WbRange { .. } => StallReason::ClwbSlots,
                UopKind::Mclazy { .. } => {
                    if self.outstanding_mclazy >= self.cfg.max_mclazy {
                        StallReason::MclazySlots
                    } else {
                        StallReason::StoreBuffer
                    }
                }
                // Remaining kinds never fail a resource check, so they
                // are never held.
                _ => StallReason::Frontend,
            };
            return Some(r);
        }
        if self.frontend_stalled {
            return Some(StallReason::Frontend);
        }
        // Unreachable for a frozen core: dispatch could fetch a new uop,
        // so can_act() would have been true.
        debug_assert!(false, "idle_dispatch_stall on a dispatch-capable core");
        Some(StallReason::Frontend)
    }
}

enum HeldFetch {
    Uop(Uop),
    Stall,
    Done,
}

#[derive(Debug)]
enum SbCheck {
    Forward(Vec<u8>),
    Conflict,
    Clear,
}
