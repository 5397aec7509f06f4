//! Memory controller: read/write pending queues, FR-FCFS-style scheduling,
//! write-drain watermarks, WPQ read forwarding, and the [`CopyEngine`] hook.

use crate::config::McConfig;
use crate::data::{LineData, SparseMem};
use crate::dram::{DramBackend, RowOutcome};
use crate::engine::{CopyEngine, EngineIo, Verdict};
use crate::fault::{domain, FaultPlan, FaultStream};
use crate::link::DelayQueue;
use crate::packet::{MemCmd, Packet};
use crate::stats::McStats;
use crate::addr::PhysAddr;
use crate::hash::FastSet;
use crate::Cycle;
use std::collections::VecDeque;

/// Who asked for a DRAM read.
#[derive(Debug, Clone)]
enum ReadOrigin {
    /// A cache read: respond to the LLC with this request packet.
    Llc(Packet),
    /// An engine read with the engine's tag.
    Engine(u64),
}

#[derive(Debug)]
struct RpqEntry {
    addr: PhysAddr,
    origin: ReadOrigin,
    enq: Cycle,
}

#[derive(Debug)]
struct WpqEntry {
    addr: PhysAddr,
    data: LineData,
    /// The data was derived from an uncorrectable ECC error: committing
    /// this write re-poisons the line instead of clearing it.
    poison: bool,
    enq: Cycle,
    #[cfg(feature = "trace")]
    class: mcs_trace::PacketClass,
}

#[derive(Debug)]
struct Inflight {
    done: Cycle,
    addr: PhysAddr,
    kind: InflightKind,
    /// Cycle the request entered its pending queue (service latency base).
    enq: Cycle,
}

/// Traffic class of a read origin, for latency histograms.
#[cfg(feature = "trace")]
fn trace_class(origin: &ReadOrigin) -> mcs_trace::PacketClass {
    match origin {
        ReadOrigin::Llc(p) if p.is_prefetch => mcs_trace::PacketClass::PrefetchRead,
        ReadOrigin::Llc(_) => mcs_trace::PacketClass::DemandRead,
        ReadOrigin::Engine(_) => mcs_trace::PacketClass::EngineRead,
    }
}

#[cfg(feature = "trace")]
fn trace_row(outcome: RowOutcome) -> mcs_trace::RowKind {
    match outcome {
        RowOutcome::Hit => mcs_trace::RowKind::Hit,
        RowOutcome::Empty => mcs_trace::RowKind::Empty,
        RowOutcome::Conflict => mcs_trace::RowKind::Conflict,
    }
}

#[derive(Debug)]
enum InflightKind {
    Read(ReadOrigin),
    Write,
}

/// Per-controller fault-injection state. Present only when the configured
/// [`FaultPlan`] is non-empty, so clean runs pay nothing and stay
/// byte-identical. All decisions are per-*event* (per DRAM access, per
/// accepted packet), never per cycle, so fault schedules are identical
/// with and without idle skip-ahead.
#[derive(Debug)]
struct McFault {
    plan: FaultPlan,
    /// ECC decision stream (one roll per DRAM read, plus retry re-rolls).
    ecc: FaultStream,
    /// Transient-stall decision stream (one roll per accepted packet).
    stall: FaultStream,
    /// Lines currently carrying poison from an uncorrectable error.
    /// Metadata only: the functional bytes in [`SparseMem`] stay correct.
    poisoned: FastSet<u64>,
    /// Input intake and DRAM scheduling are blocked until this cycle.
    stall_until: Cycle,
}

/// One memory controller, fronting one DRAM channel.
#[derive(Debug)]
pub struct MemCtrl {
    /// Controller index (== channel index).
    pub id: usize,
    cfg: McConfig,
    dram: DramBackend,
    rpq: VecDeque<RpqEntry>,
    wpq: VecDeque<WpqEntry>,
    inflight: Vec<Inflight>,
    /// Packets the engine asked to retry; reprocessed before new input so
    /// a blocked MCLAZY never head-of-line-blocks engine-critical traffic.
    retry_q: VecDeque<Packet>,
    /// Engine reads satisfied by WPQ forwarding, delivered next tick
    /// (tag, line, data, poisoned).
    engine_fwd: Vec<(u64, PhysAddr, LineData, bool)>,
    draining: bool,
    /// Fault-injection state (None ⇔ empty plan ⇒ all hooks are no-ops).
    fault: Option<McFault>,
    /// Human-readable reports of malformed packets this controller dropped
    /// (bounded; see [`MemCtrl::audit_reports`]).
    audit: Vec<String>,
    /// Statistics.
    pub stats: McStats,
}

/// How many input packets a controller accepts per cycle.
const INPUT_PER_CYCLE: usize = 4;

/// Cap on retained malformed-packet audit reports (the counter keeps
/// counting past it).
const AUDIT_CAP: usize = 32;

impl MemCtrl {
    /// Create controller `id` with the given queue config and channel model.
    pub fn new(id: usize, cfg: McConfig, dram: DramBackend) -> MemCtrl {
        MemCtrl {
            id,
            cfg,
            dram,
            rpq: VecDeque::new(),
            wpq: VecDeque::new(),
            inflight: Vec::new(),
            retry_q: VecDeque::new(),
            engine_fwd: Vec::new(),
            draining: false,
            fault: None,
            audit: Vec::new(),
            stats: McStats::default(),
        }
    }

    /// Arm (or disarm) fault injection. An empty plan clears all fault
    /// state; a non-empty one derives this controller's decision streams
    /// from the plan seed and the controller index.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault = (!plan.is_empty()).then(|| McFault {
            ecc: plan.stream(domain::ECC, self.id as u64),
            stall: plan.stream(domain::MC_STALL, self.id as u64),
            poisoned: FastSet::default(),
            stall_until: 0,
            plan: plan.clone(),
        });
    }

    /// Audit log of malformed packets this controller dropped instead of
    /// panicking on (first [`AUDIT_CAP`] reports retained;
    /// [`McStats::malformed_packets`] counts them all).
    pub fn audit_reports(&self) -> &[String] {
        &self.audit
    }

    /// Lines currently poisoned by uncorrectable ECC errors, sorted
    /// (diagnostics; empty without fault injection).
    pub fn poisoned_lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.fault.as_ref().map(|f| f.poisoned.iter().copied().collect()).unwrap_or_default();
        v.sort_unstable();
        v
    }

    fn record_malformed(&mut self, report: String) {
        self.stats.malformed_packets += 1;
        if self.audit.len() < AUDIT_CAP {
            self.audit.push(report);
        }
    }

    /// Whether the controller has no queued or in-flight work.
    pub fn idle(&self) -> bool {
        self.rpq.is_empty()
            && self.wpq.is_empty()
            && self.inflight.is_empty()
            && self.retry_q.is_empty()
            && self.engine_fwd.is_empty()
    }

    /// Earliest future event (skip-ahead hint).
    pub fn next_event(&self) -> Option<Cycle> {
        if !self.retry_q.is_empty() || !self.engine_fwd.is_empty() {
            return Some(0); // work every cycle until drained
        }
        let mut hint = self.inflight.iter().map(|f| f.done).min();
        if !self.rpq.is_empty() || !self.wpq.is_empty() {
            let mut d = self.dram.next_ready();
            if let Some(f) = &self.fault {
                // Nothing schedules inside an injected stall window.
                d = d.max(f.stall_until);
            }
            hint = Some(hint.map_or(d, |h| h.min(d)));
        }
        hint
    }

    /// The event-driven scheduler's cached readiness verdict: `None` means
    /// the controller has immediate work and must tick every cycle;
    /// `Some(wake)` means ticking before cycle `wake` changes nothing
    /// except the drain-mode hysteresis, which [`Self::replay_elided`]
    /// restores. `wake` is the earliest of an in-flight completion, a
    /// refresh window, and the first cycle a queued request can issue
    /// ([`Cycle::MAX`] if none is pending). Valid until the controller
    /// next ticks — all controller state mutates only inside
    /// [`Self::tick`]. Input arrival is the caller's side of the predicate
    /// (the input queue lives in the interconnect), and engine background
    /// work is covered by [`CopyEngine::needs_tick`].
    pub fn readiness(&self) -> Option<Cycle> {
        if !self.retry_q.is_empty() || !self.engine_fwd.is_empty() {
            return None;
        }
        let wake = self
            .inflight
            .iter()
            .map(|f| f.done)
            .fold(self.dram.refresh_next(), Cycle::min);
        Some(self.next_issue().map_or(wake, |at| wake.min(at)))
    }

    /// First cycle at which `schedule_dram` can issue a queued request:
    /// the command bus must be ready and so must the bank of at least one
    /// RPQ or WPQ entry (both predicates only turn true as time passes),
    /// and no injected stall may be pending. `None` with both queues empty.
    fn next_issue(&self) -> Option<Cycle> {
        let bus = self.dram.bus_ready_at();
        let mut bank: Option<Cycle> = None;
        for addr in self.rpq.iter().map(|e| e.addr).chain(self.wpq.iter().map(|e| e.addr)) {
            let at = self.dram.bank_ready_at(addr);
            bank = Some(bank.map_or(at, |b| b.min(at)));
            if at <= bus {
                break; // the bus is the binding constraint
            }
        }
        let at = bank?.max(bus);
        Some(self.fault.as_ref().map_or(at, |f| at.max(f.stall_until)))
    }

    /// Apply what the executed cycles this controller was elided for
    /// would have done to its state; call before [`Self::tick`] when it
    /// was elided at least once since it last ticked, the last time at
    /// `last_elided`. The event-driven schedule runs a controller holding
    /// queued requests on every executed cycle, and each such cycle past
    /// an injected stall re-ran the drain-mode hysteresis on unchanged
    /// queues. The hysteresis is idempotent on fixed queues, so one
    /// application stands for all of them.
    pub fn replay_elided(&mut self, last_elided: Cycle) {
        let queued = !self.rpq.is_empty() || !self.wpq.is_empty();
        let stalled = self.fault.as_ref().is_some_and(|f| last_elided < f.stall_until);
        if queued && !stalled {
            self.update_drain_mode();
        }
    }

    /// Current WPQ occupancy as (len, capacity).
    pub fn wpq_occupancy(&self) -> (usize, usize) {
        (self.wpq.len(), self.cfg.wpq_cap)
    }

    /// (rpq len, wpq len, in-flight DRAM accesses) — diagnostics.
    pub fn queue_depths(&self) -> (usize, usize, usize) {
        (self.rpq.len(), self.wpq.len(), self.inflight.len())
    }

    fn fresh_io(&self) -> EngineIo {
        EngineIo { wpq: (self.wpq.len(), self.cfg.wpq_cap), ..EngineIo::default() }
    }

    fn apply_io(&mut self, now: Cycle, io: EngineIo, out: &mut Vec<(Packet, Cycle)>) {
        for (tag, addr) in io.dram_reads {
            self.stats.engine_reads += 1;
            // WPQ forwarding applies to engine reads too: a pending write
            // to the line is newer than DRAM contents.
            if let Some(w) = self.wpq.iter().rev().find(|w| w.addr == addr) {
                self.stats.wpq_forwards += 1;
                self.engine_fwd.push((tag, addr, w.data, w.poison));
                continue;
            }
            #[cfg(feature = "trace")]
            mcs_trace::emit(mcs_trace::Event::McEnqueue {
                mc: self.id as u16,
                class: mcs_trace::PacketClass::EngineRead,
                at: now,
            });
            self.rpq.push_back(RpqEntry { addr, origin: ReadOrigin::Engine(tag), enq: now });
        }
        for (addr, data, poison) in io.dram_writes {
            self.stats.engine_writes += 1;
            #[cfg(feature = "trace")]
            mcs_trace::emit(mcs_trace::Event::McEnqueue {
                mc: self.id as u16,
                class: mcs_trace::PacketClass::EngineWrite,
                at: now,
            });
            self.wpq.push_back(WpqEntry {
                addr,
                data,
                poison,
                enq: now,
                #[cfg(feature = "trace")]
                class: mcs_trace::PacketClass::EngineWrite,
            });
        }
        for send in io.sends {
            out.push(send);
        }
        self.stats.forced_flushes += io.fault_forced_flushes;
        self.stats.eager_fallbacks += io.fault_eager_fallbacks;
    }

    /// Advance one cycle.
    ///
    /// * `input` — packets arriving from the interconnect;
    /// * `engine` — the copy engine shared across controllers;
    /// * `mem` — the functional memory image;
    /// * `out` — packets to hand back to the interconnect, with extra delay.
    pub fn tick(
        &mut self,
        now: Cycle,
        input: &mut DelayQueue<Packet>,
        engine: &mut dyn CopyEngine,
        mem: &mut SparseMem,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        // Apply elapsed refresh windows before any readiness check.
        self.dram.sync(now);
        #[cfg(feature = "trace")]
        {
            // stats.refreshes still holds last tick's cumulative count.
            let r = self.dram.refreshes();
            if r > self.stats.refreshes {
                mcs_trace::emit(mcs_trace::Event::Refresh {
                    mc: self.id as u16,
                    n: (r - self.stats.refreshes) as u32,
                    at: now,
                });
            }
        }
        self.deliver_forwarded(now, engine, out);
        self.complete_inflight(now, engine, mem, out);
        self.engine_tick(now, engine, out);
        self.accept_input(now, input, engine, out);
        self.schedule_dram(now, mem);
        self.stats.refreshes = self.dram.refreshes();
    }

    fn deliver_forwarded(
        &mut self,
        now: Cycle,
        engine: &mut dyn CopyEngine,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        let fwd = std::mem::take(&mut self.engine_fwd);
        for (tag, addr, data, poisoned) in fwd {
            if poisoned {
                self.stats.poisoned_reads += 1;
            }
            let mut io = self.fresh_io();
            engine.on_dram_read(now, self.id, tag, addr, data, poisoned, &mut io);
            self.apply_io(now, io, out);
        }
    }

    fn complete_inflight(
        &mut self,
        now: Cycle,
        engine: &mut dyn CopyEngine,
        mem: &mut SparseMem,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].done <= now {
                let f = self.inflight.swap_remove(i);
                match f.kind {
                    InflightKind::Read(origin) => {
                        let data = mem.read_line(f.addr);
                        let poisoned = self
                            .fault
                            .as_ref()
                            .is_some_and(|fs| fs.poisoned.contains(&f.addr.line_base().0));
                        if poisoned {
                            self.stats.poisoned_reads += 1;
                        }
                        #[cfg(feature = "trace")]
                        mcs_trace::emit(mcs_trace::Event::McComplete {
                            mc: self.id as u16,
                            class: trace_class(&origin),
                            enq: f.enq,
                            at: now,
                        });
                        match origin {
                            ReadOrigin::Llc(req) => {
                                if !req.is_prefetch {
                                    self.stats.demand_read_lat_sum += now - f.enq;
                                    self.stats.demand_reads_done += 1;
                                }
                                let mut resp = req.make_read_resp(data);
                                resp.poisoned = poisoned;
                                out.push((resp, 0));
                            }
                            ReadOrigin::Engine(tag) => {
                                let mut io = self.fresh_io();
                                engine
                                    .on_dram_read(now, self.id, tag, f.addr, data, poisoned, &mut io);
                                self.apply_io(now, io, out);
                            }
                        }
                    }
                    InflightKind::Write => {
                        // Data was applied to the image at issue; nothing to do.
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    fn engine_tick(
        &mut self,
        now: Cycle,
        engine: &mut dyn CopyEngine,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        let mut io = self.fresh_io();
        engine.tick(now, self.id, &mut io);
        self.apply_io(now, io, out);
    }

    fn accept_input(
        &mut self,
        now: Cycle,
        input: &mut DelayQueue<Packet>,
        engine: &mut dyn CopyEngine,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        // Injected transient stall: the input port (and DRAM scheduler)
        // is paused; the fault hook rolls per accepted packet, so the
        // schedule is identical with and without idle skip-ahead.
        if let Some(f) = &self.fault {
            if now < f.stall_until {
                if !self.retry_q.is_empty() || input.peek(now).is_some() {
                    self.stats.fault_stall_cycles += 1;
                }
                return;
            }
        }
        // Engine-deferred packets first (e.g. MCLAZY waiting for CTT room).
        // They retry without blocking the packets behind them, which is
        // required for forward progress: freeing CTT entries depends on
        // LazyDestWrite deliveries that may share this input port.
        for _ in 0..self.retry_q.len() {
            let Some(pkt) = self.retry_q.pop_front() else { break };
            let mut io = self.fresh_io();
            match engine.on_arrive(now, self.id, pkt, &mut io) {
                Verdict::Consumed => {}
                Verdict::Retry(pkt) => {
                    self.apply_io(now, io, out);
                    self.retry_q.push_front(pkt);
                    self.stats.input_stall_cycles += 1;
                    break;
                }
                Verdict::Pass(pkt) => {
                    self.apply_io(now, io, out);
                    self.enqueue(now, pkt, out);
                    continue;
                }
            }
            self.apply_io(now, io, out);
        }
        for _ in 0..INPUT_PER_CYCLE {
            // Flow control: don't pop what we can't queue.
            let Some(head) = input.peek(now) else { break };
            match head.cmd {
                MemCmd::ReadReq if self.rpq.len() >= self.cfg.rpq_cap => {
                    self.stats.input_stall_cycles += 1;
                    break;
                }
                MemCmd::WriteReq | MemCmd::LazyDestWrite
                    if self.wpq.len() >= self.cfg.wpq_cap =>
                {
                    self.stats.input_stall_cycles += 1;
                    break;
                }
                _ => {}
            }
            let pkt = input.pop(now).expect("peeked");
            if let Some(f) = self.fault.as_mut() {
                if f.stall.roll(f.plan.mc_stall_rate) {
                    f.stall_until = now + f.plan.mc_stall_cycles;
                    self.stats.fault_stalls += 1;
                }
            }
            let mut io = self.fresh_io();
            let verdict = engine.on_arrive(now, self.id, pkt, &mut io);
            self.apply_io(now, io, out);
            match verdict {
                Verdict::Consumed => {}
                Verdict::Retry(pkt) => {
                    self.stats.input_stall_cycles += 1;
                    self.retry_q.push_back(pkt);
                }
                Verdict::Pass(pkt) => self.enqueue(now, pkt, out),
            }
            // A stall tripped by this packet pauses intake immediately.
            if self.fault.as_ref().is_some_and(|f| now < f.stall_until) {
                break;
            }
        }
    }

    fn enqueue(&mut self, now: Cycle, pkt: Packet, out: &mut Vec<(Packet, Cycle)>) {
        match pkt.cmd {
            MemCmd::ReadReq => {
                // WPQ forwarding: a pending write to the same line services
                // the read without touching DRAM.
                if let Some(w) = self.wpq.iter().rev().find(|w| w.addr == pkt.addr) {
                    self.stats.wpq_forwards += 1;
                    let data = w.data;
                    let poison = w.poison;
                    if poison {
                        self.stats.poisoned_reads += 1;
                    }
                    let mut resp = pkt.make_read_resp(data);
                    resp.poisoned = poison;
                    out.push((resp, 0));
                    return;
                }
                #[cfg(feature = "trace")]
                mcs_trace::emit(mcs_trace::Event::McEnqueue {
                    mc: self.id as u16,
                    class: if pkt.is_prefetch {
                        mcs_trace::PacketClass::PrefetchRead
                    } else {
                        mcs_trace::PacketClass::DemandRead
                    },
                    at: now,
                });
                self.rpq.push_back(RpqEntry { addr: pkt.addr, origin: ReadOrigin::Llc(pkt), enq: now });
            }
            MemCmd::WriteReq | MemCmd::LazyDestWrite => {
                // A write without a payload is a protocol violation by the
                // sender; drop it and leave an audit trail rather than
                // aborting the whole simulation.
                let Some(data) = pkt.data else {
                    self.record_malformed(format!(
                        "mc{} @{now}: write without data dropped: {pkt:?}",
                        self.id
                    ));
                    return;
                };
                if pkt.needs_ack {
                    out.push((pkt.make_write_ack(), 0));
                }
                #[cfg(feature = "trace")]
                let class = if matches!(pkt.cmd, MemCmd::LazyDestWrite) {
                    mcs_trace::PacketClass::EngineWrite
                } else {
                    mcs_trace::PacketClass::Write
                };
                #[cfg(feature = "trace")]
                mcs_trace::emit(mcs_trace::Event::McEnqueue {
                    mc: self.id as u16,
                    class,
                    at: now,
                });
                self.wpq.push_back(WpqEntry {
                    addr: pkt.addr,
                    data,
                    poison: pkt.poisoned,
                    enq: now,
                    #[cfg(feature = "trace")]
                    class,
                });
            }
            _ => {
                // Mclazy/Mcfree/Bounce* are engine commands; with an engine
                // present they never Pass and NullEngine consumes them, so
                // anything landing here is malformed traffic. Surface it as
                // a diagnosable fault instead of an abort.
                self.record_malformed(format!(
                    "mc{} @{now}: unexpected command dropped: {pkt:?}",
                    self.id
                ));
            }
        }
    }

    fn schedule_dram(&mut self, now: Cycle, mem: &mut SparseMem) {
        // Injected transient stall also pauses the DRAM scheduler.
        if self.fault.as_ref().is_some_and(|f| now < f.stall_until) {
            return;
        }
        self.update_drain_mode();

        // Issue while the channel can accept column commands (the data bus
        // may be booked ahead; see DramBackend::bus_ready), bounded per
        // tick to model the command bus.
        for _ in 0..4 {
            if !self.dram.bus_ready(now) {
                break;
            }
            let did = if self.draining { self.issue_write(now, mem) } else { self.issue_read(now) };
            if !did {
                // Try the other kind opportunistically.
                let did2 =
                    if self.draining { self.issue_read(now) } else { self.issue_write(now, mem) };
                if !did2 {
                    break;
                }
            }
        }
    }

    /// Drain-mode hysteresis: start draining writes at the high
    /// watermark or when no read waits, stop at the low watermark. Its
    /// result depends on the previous mode, so every cycle that runs the
    /// scheduler must apply it (see [`Self::replay_elided`]).
    fn update_drain_mode(&mut self) {
        let occ = self.wpq.len() as f64 / self.cfg.wpq_cap as f64;
        if (occ >= self.cfg.wpq_drain_hi || self.rpq.is_empty()) && !self.wpq.is_empty() {
            self.draining = true;
        }
        if occ <= self.cfg.wpq_drain_lo && !self.rpq.is_empty() {
            self.draining = false;
        }
        if self.wpq.is_empty() {
            self.draining = false;
        }
    }

    fn issue_read(&mut self, now: Cycle) -> bool {
        // FR-FCFS-lite with demand priority: engine reads (lazy-copy
        // drains) only issue when no demand read is ready, bounding their
        // bandwidth interference (§III-A1 limits outstanding asynchronous
        // copies for the same reason). One pass records the first entry in
        // each priority class (demand row-hit > demand > row-hit > ready),
        // probing each candidate's bank exactly once.
        let mut demand_ready = None;
        let mut any_hit = None;
        let mut any_ready = None;
        let mut pick = None;
        for (i, e) in self.rpq.iter().enumerate() {
            let (ready, hit) = self.dram.probe(now, e.addr);
            if !ready {
                continue;
            }
            if matches!(e.origin, ReadOrigin::Llc(_)) {
                if hit {
                    pick = Some(i); // top class: first match wins outright
                    break;
                }
                if demand_ready.is_none() {
                    demand_ready = Some(i);
                }
            } else if hit {
                if any_hit.is_none() {
                    any_hit = Some(i);
                }
            } else if any_ready.is_none() {
                any_ready = Some(i);
            }
        }
        let pick = pick.or(demand_ready).or(any_hit).or(any_ready);
        let Some(idx) = pick else { return false };
        let e = self.rpq.remove(idx).expect("index valid");
        let (mut done, outcome) = self.dram.access(now, e.addr);
        self.note_row(outcome);
        self.stats.reads += 1;
        if let Some(f) = self.fault.as_mut() {
            if f.ecc.roll(f.plan.ecc_uncorrectable_rate) {
                // Uncorrectable: poison the line. The response still
                // carries the functional bytes (poison is metadata), so
                // differential checks against an eager oracle remain valid.
                self.stats.ecc_uncorrectable += 1;
                f.poisoned.insert(e.addr.line_base().0);
            } else if f.ecc.roll(f.plan.ecc_correctable_rate) {
                // Correctable: bounded re-reads with exponential backoff.
                // The retry occupies the same bank reservation; only the
                // completion is delayed.
                self.stats.ecc_corrected += 1;
                let mut penalty = f.plan.ecc_penalty;
                for _ in 0..f.plan.ecc_max_retries {
                    self.stats.ecc_retries += 1;
                    done += penalty;
                    penalty = penalty.saturating_mul(2);
                    if !f.ecc.roll(f.plan.ecc_correctable_rate) {
                        break;
                    }
                }
            }
        }
        #[cfg(feature = "trace")]
        mcs_trace::emit(mcs_trace::Event::McIssue {
            mc: self.id as u16,
            bank: self.dram.bank_of(e.addr) as u16,
            class: trace_class(&e.origin),
            row: trace_row(outcome),
            enq: e.enq,
            at: now,
            done,
        });
        self.inflight.push(Inflight {
            done,
            addr: e.addr,
            kind: InflightKind::Read(e.origin),
            enq: e.enq,
        });
        true
    }

    fn issue_write(&mut self, now: Cycle, mem: &mut SparseMem) -> bool {
        // One pass: first ready row-hit wins, else first ready entry.
        let mut any_ready = None;
        let mut pick = None;
        for (i, e) in self.wpq.iter().enumerate() {
            let (ready, hit) = self.dram.probe(now, e.addr);
            if !ready {
                continue;
            }
            if hit {
                pick = Some(i);
                break;
            }
            if any_ready.is_none() {
                any_ready = Some(i);
            }
        }
        let pick = pick.or(any_ready);
        let Some(idx) = pick else { return false };
        let e = self.wpq.remove(idx).expect("index valid");
        let (done, outcome) = self.dram.access(now, e.addr);
        self.note_row(outcome);
        self.stats.writes += 1;
        #[cfg(feature = "trace")]
        mcs_trace::emit(mcs_trace::Event::McIssue {
            mc: self.id as u16,
            bank: self.dram.bank_of(e.addr) as u16,
            class: e.class,
            row: trace_row(outcome),
            enq: e.enq,
            at: now,
            done,
        });
        // Apply functionally at issue: any later read goes through the RPQ
        // behind this write's bank occupancy, and reads that raced ahead
        // were already served by WPQ forwarding.
        mem.write_line(e.addr, e.data);
        if let Some(f) = self.fault.as_mut() {
            let line = e.addr.line_base().0;
            if e.poison {
                f.poisoned.insert(line);
            } else {
                // Fresh data overwrites the faulted cells: poison clears.
                f.poisoned.remove(&line);
            }
        }
        self.inflight.push(Inflight { done, addr: e.addr, kind: InflightKind::Write, enq: e.enq });
        true
    }

    fn note_row(&mut self, outcome: RowOutcome) {
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Empty => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::engine::NullEngine;
    use crate::packet::Node;

    fn mk() -> (MemCtrl, DelayQueue<Packet>, SparseMem, NullEngine) {
        mk_with(DramConfig {
            banks: 4,
            row_bytes: 1024,
            t_rcd: 5,
            t_rp: 5,
            t_cl: 5,
            t_burst: 2,
            ..DramConfig::default()
        })
    }

    fn mk_with(dram: DramConfig) -> (MemCtrl, DelayQueue<Packet>, SparseMem, NullEngine) {
        let mc = MemCtrl::new(0, McConfig::default(), crate::dram::build(&dram, 1));
        (mc, DelayQueue::new(0), SparseMem::new(), NullEngine)
    }

    fn run(
        mc: &mut MemCtrl,
        input: &mut DelayQueue<Packet>,
        mem: &mut SparseMem,
        eng: &mut NullEngine,
        cycles: Cycle,
    ) -> Vec<Packet> {
        let mut got = Vec::new();
        for now in 0..cycles {
            let mut out = Vec::new();
            mc.tick(now, input, eng, mem, &mut out);
            got.extend(out.into_iter().map(|(p, _)| p));
        }
        got
    }

    #[test]
    fn read_returns_memory_contents() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mem.write_line(PhysAddr(0x40), LineData::splat(9));
        input.push(0, Packet::read(PhysAddr(0x40), Node::Mc(0)));
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 50);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].cmd, MemCmd::ReadResp);
        assert_eq!(resps[0].data, Some(LineData::splat(9)));
        assert!(mc.idle());
    }

    #[test]
    fn write_then_read_sees_new_data() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        input.push(0, Packet::write(PhysAddr(0x80), LineData::splat(7), Node::Mc(0)));
        input.push(0, Packet::read(PhysAddr(0x80), Node::Mc(0)));
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 60);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].data, Some(LineData::splat(7)));
    }

    #[test]
    fn wpq_forwarding_counts() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        input.push(0, Packet::write(PhysAddr(0x80), LineData::splat(7), Node::Mc(0)));
        input.push(0, Packet::read(PhysAddr(0x80), Node::Mc(0)));
        let _ = run(&mut mc, &mut input, &mut mem, &mut eng, 60);
        assert!(mc.stats.wpq_forwards >= 1 || mc.stats.reads == 1);
    }

    #[test]
    fn many_reads_all_complete() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        for i in 0..20u64 {
            mem.write_line(PhysAddr(i * 64), LineData::splat(i as u8));
            input.push(0, Packet::read(PhysAddr(i * 64), Node::Mc(0)));
        }
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 500);
        assert_eq!(resps.len(), 20);
        for r in &resps {
            let want = (r.addr.0 / 64) as u8;
            assert_eq!(r.data, Some(LineData::splat(want)));
        }
        assert!(mc.stats.row_hits > 0, "sequential reads should row-hit");
    }

    #[test]
    fn writes_drain_eventually() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        for i in 0..10u64 {
            input.push(0, Packet::write(PhysAddr(i * 64), LineData::splat(1), Node::Mc(0)));
        }
        let _ = run(&mut mc, &mut input, &mut mem, &mut eng, 500);
        assert!(mc.idle());
        assert_eq!(mc.stats.writes, 10);
        assert_eq!(mem.read_line(PhysAddr(0)), LineData::splat(1));
    }

    #[test]
    fn ecc_exact_accounting_at_rate_one() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mc.set_fault_plan(&FaultPlan {
            seed: 7,
            ecc_correctable_rate: 1.0,
            ecc_max_retries: 2,
            ecc_penalty: 8,
            ..FaultPlan::none()
        });
        for i in 0..10u64 {
            input.push(0, Packet::read(PhysAddr(i * 64), Node::Mc(0)));
        }
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 2000);
        assert_eq!(resps.len(), 10, "retries delay but never lose reads");
        // At rate 1.0 every DRAM read takes an error and every retry
        // re-faults, so retries == corrected × max_retries exactly.
        assert_eq!(mc.stats.ecc_corrected, 10);
        assert_eq!(mc.stats.ecc_retries, 20);
        assert_eq!(mc.stats.ecc_uncorrectable, 0);
        assert_eq!(mc.stats.poisoned_reads, 0);
        assert!(resps.iter().all(|r| !r.poisoned));
    }

    #[test]
    fn ecc_retries_add_latency() {
        let baseline = {
            let (mut mc, mut input, mut mem, mut eng) = mk();
            input.push(0, Packet::read(PhysAddr(0x40), Node::Mc(0)));
            let mut done = 0;
            for now in 0..500 {
                let mut out = Vec::new();
                mc.tick(now, &mut input, &mut eng, &mut mem, &mut out);
                if !out.is_empty() {
                    done = now;
                    break;
                }
            }
            done
        };
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mc.set_fault_plan(&FaultPlan {
            seed: 7,
            ecc_correctable_rate: 1.0,
            ecc_max_retries: 2,
            ecc_penalty: 8,
            ..FaultPlan::none()
        });
        input.push(0, Packet::read(PhysAddr(0x40), Node::Mc(0)));
        let mut done = 0;
        for now in 0..500 {
            let mut out = Vec::new();
            mc.tick(now, &mut input, &mut eng, &mut mem, &mut out);
            if !out.is_empty() {
                done = now;
                break;
            }
        }
        // Two retries with 8-cycle exponential backoff: 8 + 16 = 24 extra.
        assert_eq!(done, baseline + 24, "backoff penalty must be visible");
    }

    #[test]
    fn uncorrectable_errors_poison_reads_until_rewritten() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mc.set_fault_plan(&FaultPlan {
            seed: 3,
            ecc_uncorrectable_rate: 1.0,
            ..FaultPlan::none()
        });
        mem.write_line(PhysAddr(0x40), LineData::splat(5));
        input.push(0, Packet::read(PhysAddr(0x40), Node::Mc(0)));
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 100);
        assert_eq!(resps.len(), 1);
        assert!(resps[0].poisoned, "uncorrectable error must poison the response");
        assert_eq!(resps[0].data, Some(LineData::splat(5)), "bytes stay functional");
        assert_eq!(mc.stats.ecc_uncorrectable, 1);
        assert_eq!(mc.stats.poisoned_reads, 1);
        assert_eq!(mc.poisoned_lines(), vec![0x40]);
        // A fresh write overwrites the faulted cells and clears the poison.
        input.push(200, Packet::write(PhysAddr(0x40), LineData::splat(6), Node::Mc(0)));
        for now in 200..400 {
            let mut out = Vec::new();
            mc.tick(now, &mut input, &mut eng, &mut mem, &mut out);
        }
        assert!(mc.idle());
        assert!(mc.poisoned_lines().is_empty(), "write must clear poison");
    }

    #[test]
    fn malformed_write_is_dropped_and_audited() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        let mut pkt = Packet::write(PhysAddr(0x40), LineData::splat(1), Node::Mc(0));
        pkt.data = None;
        input.push(0, pkt);
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 50);
        assert!(resps.is_empty());
        assert!(mc.idle(), "malformed packet must not wedge the controller");
        assert_eq!(mc.stats.malformed_packets, 1);
        assert_eq!(mc.audit_reports().len(), 1);
        assert!(mc.audit_reports()[0].contains("write without data"), "{:?}", mc.audit_reports());
    }

    #[test]
    fn unexpected_command_is_dropped_and_audited() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        // A ReadResp has no business arriving at a controller.
        let req = Packet::read(PhysAddr(0x40), Node::Mc(0));
        input.push(0, req.make_read_resp(LineData::ZERO));
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 50);
        assert!(resps.is_empty());
        assert!(mc.idle());
        assert_eq!(mc.stats.malformed_packets, 1);
        assert!(mc.audit_reports()[0].contains("unexpected command"), "{:?}", mc.audit_reports());
    }

    /// Everything a controller run emits, in order: each tick's DRAM issue
    /// counts (when they changed) and every response packet, stamped with
    /// its cycle.
    #[derive(Debug, Default, PartialEq)]
    struct Log {
        issues: Vec<(Cycle, u64, u64)>,
        resps: Vec<(Cycle, u64, PhysAddr, Option<LineData>)>,
    }

    fn tick_logged(
        mc: &mut MemCtrl,
        now: Cycle,
        input: &mut DelayQueue<Packet>,
        mem: &mut SparseMem,
        log: &mut Log,
    ) {
        let before = (mc.stats.reads, mc.stats.writes);
        let mut out = Vec::new();
        mc.tick(now, input, &mut NullEngine, mem, &mut out);
        if (mc.stats.reads, mc.stats.writes) != before {
            log.issues.push((now, mc.stats.reads, mc.stats.writes));
        }
        log.resps.extend(out.into_iter().map(|(p, _)| (now, p.id, p.addr, p.data)));
    }

    /// Bursts of up to four packets a cycle at random lines (some shared,
    /// so WPQ forwarding fires too), separated by quiet gaps. Write-heavy
    /// phases fill the WPQ past its high watermark; read-heavy ones let it
    /// drain below the low one.
    fn random_traffic(seed: u64, cycles: Cycle) -> Vec<(Cycle, Packet)> {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sched = Vec::new();
        let mut now = 0;
        while now < cycles {
            let write_pct = if (now / 800) % 2 == 0 { 90 } else { 35 };
            for i in 0..rng.random_range(1..25u64) {
                let addr = PhysAddr(rng.random_range(0..256u64) * 64);
                let pkt = if rng.random_range(0..100u32) < write_pct {
                    Packet::write(addr, LineData::splat(now as u8), Node::Mc(0))
                } else {
                    Packet::read(addr, Node::Mc(0))
                };
                sched.push((now + i / 4, pkt));
            }
            now += rng.random_range(30..150u64);
        }
        sched
    }

    #[test]
    fn elided_controller_matches_one_ticked_every_cycle() {
        // A twin driven only at its `readiness` wake cycles, at cycles with
        // deliverable input, and (as the event-driven scheduler does) with
        // the elided cycles replayed before it next ticks, must issue and
        // respond exactly like a controller ticked every cycle.
        // The state the replay restores (read queue just emptied, writes
        // between the watermarks, new reads arriving while the twin
        // sleeps) is rare per run, so many short runs are checked; every
        // third one adds injected stalls.
        const DRAIN: Cycle = 3_000;
        let stalls =
            FaultPlan { seed: 5, mc_stall_rate: 0.05, mc_stall_cycles: 25, ..FaultPlan::none() };
        for seed in 1..=24 {
            let plan = if seed % 3 == 0 { stalls.clone() } else { FaultPlan::none() };
            let horizon = 3_000;
            let traffic = random_traffic(seed, horizon);
            // Slow bursts and a refresh window every 700 cycles leave the
            // twin idle stretches to sleep through.
            let dram = DramConfig {
                banks: 4,
                row_bytes: 1024,
                t_rcd: 10,
                t_rp: 10,
                t_cl: 10,
                t_burst: 4,
                t_refi: 700,
                t_rfc: 40,
                ..DramConfig::default()
            };
            let (mut every, mut every_in, mut every_mem, _) = mk_with(dram.clone());
            let (mut twin, mut twin_in, mut twin_mem, _) = mk_with(dram);
            every.set_fault_plan(&plan);
            twin.set_fault_plan(&plan);
            let (mut every_log, mut twin_log) = (Log::default(), Log::default());
            let (mut wpq_peak, mut wpq_low_after_peak) = (0, usize::MAX);
            let mut next = traffic.iter().peekable();
            let mut wake = Some(0);
            let mut last_elided = None;
            let mut woken = 0;
            for now in 0..horizon + DRAIN {
                while let Some((_, pkt)) = next.next_if(|(at, _)| *at == now) {
                    every_in.push(now, pkt.clone());
                    twin_in.push(now, pkt.clone());
                }
                tick_logged(&mut every, now, &mut every_in, &mut every_mem, &mut every_log);
                let wpq = every.wpq_occupancy().0;
                wpq_peak = wpq_peak.max(wpq);
                if wpq_peak as f64 >= every.cfg.wpq_drain_hi * every.cfg.wpq_cap as f64 {
                    wpq_low_after_peak = wpq_low_after_peak.min(wpq);
                }
                if wake.is_none_or(|w| w <= now) || twin_in.peek(now).is_some() {
                    if let Some(last) = last_elided.take() {
                        twin.replay_elided(last);
                    }
                    tick_logged(&mut twin, now, &mut twin_in, &mut twin_mem, &mut twin_log);
                    wake = twin.readiness();
                    woken += 1;
                } else {
                    last_elided = Some(now);
                }
            }
            let cap = every.cfg.wpq_cap as f64;
            let high = wpq_peak as f64 >= every.cfg.wpq_drain_hi * cap;
            assert!(high, "seed {seed}: WPQ peaked at {wpq_peak}, below the high watermark");
            assert!(
                (wpq_low_after_peak as f64) <= every.cfg.wpq_drain_lo * cap,
                "seed {seed}: WPQ never drained below the low watermark"
            );
            let asleep = woken < (horizon + DRAIN) / 2;
            assert!(asleep, "seed {seed}: the twin must sleep ({woken} ticks)");
            assert!(every.idle() && twin.idle(), "seed {seed}: traffic must drain");
            assert_eq!(every_log.issues, twin_log.issues, "seed {seed}: issue order diverged");
            assert_eq!(every_log.resps, twin_log.resps, "seed {seed}: responses diverged");
            assert_eq!(every.stats, twin.stats, "seed {seed}: McStats diverged");
        }
    }

    #[test]
    fn transient_stalls_delay_but_never_lose_traffic() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        mc.set_fault_plan(&FaultPlan {
            seed: 11,
            mc_stall_rate: 1.0,
            mc_stall_cycles: 20,
            ..FaultPlan::none()
        });
        for i in 0..5u64 {
            mem.write_line(PhysAddr(i * 64), LineData::splat(i as u8));
            input.push(0, Packet::read(PhysAddr(i * 64), Node::Mc(0)));
        }
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 2000);
        assert_eq!(resps.len(), 5, "stalls delay but never drop reads");
        assert!(mc.idle());
        assert_eq!(mc.stats.fault_stalls, 5, "rate 1.0 trips one stall per accept");
        assert!(mc.stats.fault_stall_cycles > 0);
    }
}
