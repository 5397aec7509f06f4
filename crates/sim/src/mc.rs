//! Memory controller: read/write pending queues, FR-FCFS-style scheduling,
//! write-drain watermarks, WPQ read forwarding, and the [`CopyEngine`] hook.
//!
//! Each step of a request is one function: `offer` hands an arriving
//! packet to the engine and acts on its verdict, `enqueue` turns a passed
//! packet into a queue entry or a forwarded answer, `engine_call` enters
//! what an engine call asked for, `pick` chooses the next DRAM access, and
//! `answer` returns a read's data to whoever asked.
//!
//! Each queued request's bank and row are decoded once, when it enters its
//! queue, into a `Slot` kept apart from the payloads: the scheduling
//! scans (`pick`, `next_issue`, `forward`) read only the slots.

use crate::config::McConfig;
use crate::data::{LineData, SparseMem};
use crate::dram::{DramBackend, DramKey, RowOutcome};
use crate::engine::{CopyEngine, EngineIo, Verdict};
use crate::fault::{domain, FaultPlan, FaultStream};
use crate::link::DelayQueue;
use crate::packet::{MemCmd, Node, Packet};
use crate::stats::McStats;
use crate::addr::PhysAddr;
use crate::hash::FastSet;
use crate::Cycle;
use std::collections::VecDeque;

/// Who asked for a DRAM read.
#[derive(Debug, Clone, Copy)]
enum ReadOrigin {
    /// A cache read: what its response copies from the request besides the
    /// line (see [`Packet::make_read_resp`]).
    Llc { id: u64, core: Option<usize>, prefetch: bool },
    /// An engine read with the engine's tag.
    Engine(u64),
}

impl ReadOrigin {
    /// The origin of the LLC read request `req`.
    fn llc(req: &Packet) -> ReadOrigin {
        ReadOrigin::Llc { id: req.id, core: req.core, prefetch: req.is_prefetch }
    }
}

/// A queued request as the scheduler sees it: its line, the line's bank
/// and row, and whether it is demand traffic (every write is).
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: PhysAddr,
    key: DramKey,
    demand: bool,
}

/// A pending queue in age order: the scheduling slots in one array and
/// the payloads in another, entry `i` of each describing one request.
#[derive(Debug)]
struct Queue<T> {
    slots: VecDeque<Slot>,
    items: VecDeque<T>,
}

impl<T> Queue<T> {
    fn new() -> Queue<T> {
        Queue { slots: VecDeque::new(), items: VecDeque::new() }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn push(&mut self, slot: Slot, item: T) {
        self.slots.push_back(slot);
        self.items.push_back(item);
    }

    /// Remove entry `i`, returning its slot and payload.
    fn remove(&mut self, i: usize) -> (Slot, T) {
        let slot = self.slots.remove(i).expect("index valid");
        (slot, self.items.remove(i).expect("index valid"))
    }
}

#[derive(Debug)]
struct RpqEntry {
    origin: ReadOrigin,
    enq: Cycle,
}

#[derive(Debug)]
struct WpqEntry {
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
    /// Who asked, for a read; `None` for a write, whose data was applied
    /// to the memory image at issue.
    read: Option<ReadOrigin>,
    /// Cycle the request entered its pending queue (service latency base).
    enq: Cycle,
}

// Queue entries hold no `Packet` (160 B): a read's slot is 32 B and its
// payload 40 B, a line's key 16 B.
const _: () = assert!(std::mem::size_of::<Slot>() == 32);
const _: () = assert!(std::mem::size_of::<RpqEntry>() == 40);
const _: () = assert!(std::mem::size_of::<DramKey>() == 16);

/// Traffic class of a read origin, for latency histograms.
#[cfg(feature = "trace")]
fn trace_class(origin: &ReadOrigin) -> mcs_trace::PacketClass {
    match origin {
        ReadOrigin::Llc { prefetch: true, .. } => mcs_trace::PacketClass::PrefetchRead,
        ReadOrigin::Llc { .. } => mcs_trace::PacketClass::DemandRead,
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

/// FR-FCFS with demand priority over one pending queue's slots: the first
/// ready demand row hit, else the first ready demand entry, else the first
/// ready non-demand row hit, else the first ready non-demand entry. One
/// pass reads each candidate's bank once. Engine reads (lazy-copy drains) are
/// the non-demand class: they issue only when no demand read is ready,
/// bounding their bandwidth interference (§III-A1 limits outstanding
/// asynchronous copies for the same reason). Every write is demand, so a
/// write row hit goes before an older ready write.
fn pick(dram: &DramBackend, now: Cycle, slots: &VecDeque<Slot>) -> Option<usize> {
    // The first ready demand entry, non-demand row hit and non-demand entry.
    let mut first = [None; 3];
    for (i, slot) in slots.iter().enumerate() {
        let class = match (slot.demand, dram.probe_key(now, slot.key)) {
            (_, (false, _)) => continue,
            (true, (true, true)) => return Some(i), // top class: first match wins outright
            (true, _) => 0,
            (false, (true, true)) => 1,
            (false, _) => 2,
        };
        first[class].get_or_insert(i);
    }
    first.into_iter().flatten().next()
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
    rpq: Queue<RpqEntry>,
    wpq: Queue<WpqEntry>,
    /// The drain-mode watermarks as WPQ lengths: draining starts at
    /// `drain_start` entries and may stop below `drain_stop`.
    drain_start: usize,
    drain_stop: usize,
    inflight: Vec<Inflight>,
    /// Packets the engine asked to retry; reprocessed before new input so
    /// a blocked MCLAZY never head-of-line-blocks engine-critical traffic.
    retry_q: VecDeque<Packet>,
    /// The `retry_q` head was answered [`Verdict::Wait`] when last asked:
    /// until the engine's state changes, re-asking it each cycle only
    /// counts, so [`Self::readiness`] lets the controller sleep.
    parked: bool,
    /// The cycle of the last [`Self::tick`]; a parked controller re-asked
    /// its head on every cycle since (see [`Self::replay_elided`]).
    last_tick: Cycle,
    /// Engine reads satisfied by WPQ forwarding, answered next tick
    /// (tag, line, data, poisoned).
    engine_fwd: Vec<(u64, PhysAddr, LineData, bool)>,
    /// The collector handed to every engine call, emptied by
    /// [`Self::engine_call`] and reused so that an engine call allocates
    /// nothing.
    io: EngineIo,
    draining: bool,
    /// Fault-injection state (None ⇔ empty plan ⇒ all hooks are no-ops).
    fault: Option<McFault>,
    /// Statistics.
    pub stats: McStats,
}

/// How many input packets a controller accepts per cycle.
const INPUT_PER_CYCLE: usize = 4;

/// The least queue length for which `pred` holds, given that it holds for
/// every length from there on ([`usize::MAX`] if it holds for none up to
/// 2^53, beyond which lengths stop converting to `f64` exactly).
fn least_len(pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, 1 << 53);
    if !pred(hi) {
        return usize::MAX;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

impl MemCtrl {
    /// Create controller `id` with the given queue config and channel model.
    pub fn new(id: usize, cfg: McConfig, dram: DramBackend) -> MemCtrl {
        // WPQ occupancy as `update_drain_mode` has always computed it; it
        // never falls as the queue grows, so each watermark test flips once.
        let occ = |len: usize| len as f64 / cfg.wpq_cap as f64;
        let below_lo = |len: usize| occ(len) <= cfg.wpq_drain_lo;
        MemCtrl {
            id,
            drain_start: least_len(|len| occ(len) >= cfg.wpq_drain_hi),
            drain_stop: least_len(|len| !below_lo(len)),
            cfg,
            dram,
            rpq: Queue::new(),
            wpq: Queue::new(),
            inflight: Vec::new(),
            retry_q: VecDeque::new(),
            parked: false,
            last_tick: 0,
            engine_fwd: Vec::new(),
            io: EngineIo::default(),
            draining: false,
            fault: None,
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

    /// Lines currently poisoned by uncorrectable ECC errors, sorted
    /// (diagnostics; empty without fault injection).
    pub fn poisoned_lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.fault.as_ref().map(|f| f.poisoned.iter().copied().collect()).unwrap_or_default();
        v.sort_unstable();
        v
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

    /// The event-driven scheduler's sleep verdict: `None` means
    /// the controller has immediate work and must tick every cycle (a
    /// forwarded engine read, or a retry the engine did not answer with
    /// [`Verdict::Wait`]); `Some(wake)` means ticking before cycle `wake`
    /// changes nothing except what [`Self::replay_elided`] restores: the
    /// drain-mode hysteresis and a parked head's per-cycle stall counts.
    /// `wake` is the earliest of an in-flight completion, a refresh
    /// window, and the first cycle a queued request can issue
    /// ([`Cycle::MAX`] if none is pending). Valid until the controller
    /// next ticks — all controller state mutates only inside
    /// [`Self::tick`]. Input arrival is the caller's side of the predicate
    /// (the input queue lives in the interconnect), and so is a change of
    /// engine state, which [`CopyEngine::needs_tick`] reports: it covers
    /// both engine background work and a parked head that may now pass.
    pub fn readiness(&self) -> Option<Cycle> {
        if !self.engine_fwd.is_empty() || (!self.retry_q.is_empty() && !self.parked) {
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
        for slot in self.rpq.slots.iter().chain(&self.wpq.slots) {
            let at = self.dram.bank_ready_at_key(slot.key);
            bank = Some(bank.map_or(at, |b| b.min(at)));
            if at <= bus {
                break; // the bus is the binding constraint
            }
        }
        let at = bank?.max(bus);
        Some(self.fault.as_ref().map_or(at, |f| at.max(f.stall_until)))
    }

    /// Apply what the executed cycles this controller was elided for
    /// would have done to its state; call before [`Self::tick`] with the
    /// last executed cycle, `last_executed`. A no-op when the controller
    /// ticked in that cycle; otherwise it was elided on every executed
    /// cycle since it last ticked. The reference schedule runs a
    /// controller on every executed cycle, and each elided one did at
    /// most two things:
    ///
    /// * Past an injected stall, with requests queued, it re-ran the
    ///   drain-mode hysteresis on unchanged queues. The hysteresis is
    ///   idempotent on fixed queues, so one application stands for all.
    /// * With a parked retry head, it either counted a fault-stall cycle
    ///   (before the stall window's end) or re-asked the head and was
    ///   told [`Verdict::Wait`] again (from then on: an input stall, and
    ///   [`CopyEngine::on_waits_elided`] for the engine). A queued retry
    ///   forbids the whole-machine skip ([`Self::next_event`]), so every
    ///   cycle since [`Self::tick`] last ran was elided, and the stall
    ///   window cannot move while the controller sleeps.
    pub fn replay_elided(&mut self, last_executed: Cycle, engine: &mut dyn CopyEngine) {
        if last_executed <= self.last_tick {
            return;
        }
        let stall_until = self.fault.as_ref().map_or(0, |f| f.stall_until);
        let queued = !self.rpq.is_empty() || !self.wpq.is_empty();
        if queued && last_executed >= stall_until {
            self.update_drain_mode();
        }
        if self.parked {
            let (first, end) = (self.last_tick + 1, last_executed + 1);
            let waits_from = stall_until.clamp(first, end);
            self.stats.fault_stall_cycles += waits_from - first;
            self.stats.input_stall_cycles += end - waits_from;
            if end > waits_from {
                let head = self.retry_q.front().expect("a parked controller has a retry head");
                engine.on_waits_elided(waits_from, end - waits_from, self.id, head);
            }
        }
    }

    /// (rpq len, wpq len, in-flight DRAM accesses) — diagnostics.
    pub fn queue_depths(&self) -> (usize, usize, usize) {
        (self.rpq.len(), self.wpq.len(), self.inflight.len())
    }

    /// Make one engine call: hand `call` this controller's collector,
    /// stamped with the WPQ occupancy, then queue the engine's DRAM reads
    /// and writes, pass on its packets and keep the emptied collector.
    fn engine_call<R>(
        &mut self,
        now: Cycle,
        out: &mut Vec<(Packet, Cycle)>,
        call: impl FnOnce(&mut EngineIo) -> R,
    ) -> R {
        let mut io = std::mem::take(&mut self.io);
        io.wpq = (self.wpq.len(), self.cfg.wpq_cap);
        let result = call(&mut io);
        for (tag, addr) in io.dram_reads.drain(..) {
            self.stats.engine_reads += 1;
            // A pending write to the line is newer than DRAM contents; the
            // engine hears of it on the next tick.
            match self.forward(addr) {
                Some((data, poison)) => self.engine_fwd.push((tag, addr, data, poison)),
                None => self.push_read(now, addr, ReadOrigin::Engine(tag)),
            }
        }
        for (addr, data, poison) in io.dram_writes.drain(..) {
            self.stats.engine_writes += 1;
            self.push_write(now, addr, data, poison, true);
        }
        out.append(&mut io.sends);
        self.io = io;
        result
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
        self.last_tick = now;
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
        for (tag, addr, data, poisoned) in std::mem::take(&mut self.engine_fwd) {
            self.answer(now, ReadOrigin::Engine(tag), addr, data, poisoned, engine, out);
        }
        self.complete_inflight(now, engine, mem, out);
        let id = self.id;
        self.engine_call(now, out, |io| engine.tick(now, id, io));
        self.accept_input(now, input, engine, out);
        self.schedule_dram(now, mem);
        self.stats.refreshes = self.dram.refreshes();
    }

    /// Return a read's `data` to whoever asked: a response packet to the
    /// LLC, or [`CopyEngine::on_dram_read`].
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &mut self,
        now: Cycle,
        origin: ReadOrigin,
        addr: PhysAddr,
        data: LineData,
        poisoned: bool,
        engine: &mut dyn CopyEngine,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        if poisoned {
            self.stats.poisoned_reads += 1;
        }
        match origin {
            ReadOrigin::Llc { id, core, prefetch } => {
                // The response `make_read_resp` would build from the request.
                let resp = Packet::new(MemCmd::ReadResp, addr, Node::Llc);
                let data = Some(data);
                out.push((Packet { id, core, data, is_prefetch: prefetch, poisoned, ..resp }, 0));
            }
            ReadOrigin::Engine(tag) => {
                let id = self.id;
                self.engine_call(now, out, |io| {
                    engine.on_dram_read(now, id, tag, addr, data, poisoned, io)
                });
            }
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
            if self.inflight[i].done > now {
                i += 1;
                continue;
            }
            let f = self.inflight.swap_remove(i);
            let Some(origin) = f.read else { continue };
            let data = mem.read_line(f.addr);
            let poisoned =
                self.fault.as_ref().is_some_and(|fs| fs.poisoned.contains(&f.addr.line_base().0));
            #[cfg(feature = "trace")]
            mcs_trace::emit(mcs_trace::Event::McComplete {
                mc: self.id as u16,
                class: trace_class(&origin),
                enq: f.enq,
                at: now,
            });
            if matches!(origin, ReadOrigin::Llc { prefetch: false, .. }) {
                self.stats.demand_read_lat_sum += now - f.enq;
                self.stats.demand_reads_done += 1;
            }
            self.answer(now, origin, f.addr, data, poisoned, engine, out);
        }
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
        // schedule is identical with and without idle skip-ahead. The
        // retry head is not asked, so it is not parked.
        self.parked = false;
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
        while let Some(pkt) = self.retry_q.pop_front() {
            if !self.offer(now, pkt, true, engine, out) {
                break;
            }
        }
        for _ in 0..INPUT_PER_CYCLE {
            // Flow control: don't pop what we can't queue.
            let Some(head) = input.peek(now) else { break };
            let full = match head.cmd {
                MemCmd::ReadReq => self.rpq.len() >= self.cfg.rpq_cap,
                MemCmd::WriteReq | MemCmd::LazyDestWrite => self.wpq.len() >= self.cfg.wpq_cap,
                _ => false,
            };
            if full {
                self.stats.input_stall_cycles += 1;
                break;
            }
            let pkt = input.pop(now).expect("peeked");
            if let Some(f) = self.fault.as_mut() {
                if f.stall.roll(f.plan.mc_stall_rate) {
                    f.stall_until = now + f.plan.mc_stall_cycles;
                    self.stats.fault_stalls += 1;
                }
            }
            self.offer(now, pkt, false, engine, out);
            // A stall tripped by this packet pauses intake immediately.
            if self.fault.as_ref().is_some_and(|f| now < f.stall_until) {
                break;
            }
        }
    }

    /// Offer `pkt` to the engine and act on its verdict. A passed packet
    /// is queued. A refused one counts an input stall and goes back to the
    /// retry queue: at its front if it came from there (`retried`), else
    /// at its back. A refused packet that heads the retry queue parks the
    /// controller if the refusal was a [`Verdict::Wait`]. Returns whether
    /// the engine took the packet.
    fn offer(
        &mut self,
        now: Cycle,
        pkt: Packet,
        retried: bool,
        engine: &mut dyn CopyEngine,
        out: &mut Vec<(Packet, Cycle)>,
    ) -> bool {
        let id = self.id;
        let verdict = self.engine_call(now, out, |io| engine.on_arrive(now, id, pkt, io));
        let (pkt, wait) = match verdict {
            Verdict::Consumed => return true,
            Verdict::Pass(pkt) => {
                self.enqueue(now, pkt, engine, out);
                return true;
            }
            Verdict::Retry(pkt) => (pkt, false),
            Verdict::Wait(pkt) => (pkt, true),
        };
        self.stats.input_stall_cycles += 1;
        if retried || self.retry_q.is_empty() {
            self.parked = wait;
        }
        if retried {
            self.retry_q.push_front(pkt);
        } else {
            self.retry_q.push_back(pkt);
        }
        false
    }

    /// Queue a request the engine passed; a read of a line with a pending
    /// write is answered from the WPQ at once.
    fn enqueue(
        &mut self,
        now: Cycle,
        pkt: Packet,
        engine: &mut dyn CopyEngine,
        out: &mut Vec<(Packet, Cycle)>,
    ) {
        match pkt.cmd {
            MemCmd::ReadReq => match self.forward(pkt.addr) {
                Some((data, poison)) => {
                    self.answer(now, ReadOrigin::llc(&pkt), pkt.addr, data, poison, engine, out);
                }
                None => self.push_read(now, pkt.addr, ReadOrigin::llc(&pkt)),
            },
            MemCmd::WriteReq | MemCmd::LazyDestWrite => {
                // A write without a payload is a simulator bug in its sender.
                let Some(data) = pkt.data else {
                    panic!("mc{} @{now}: write without data: {pkt:?}", self.id);
                };
                if pkt.needs_ack {
                    out.push((pkt.make_write_ack(), 0));
                }
                let engine_write = pkt.cmd == MemCmd::LazyDestWrite;
                self.push_write(now, pkt.addr, data, pkt.poisoned, engine_write);
            }
            // Mclazy/Mcfree/Bounce* are engine commands: an engine never
            // passes them and NullEngine consumes them.
            _ => panic!("mc{} @{now}: unexpected command: {pkt:?}", self.id),
        }
    }

    /// The data and poison flag of the newest pending write to `addr`'s
    /// line, which serves a read of it without touching DRAM.
    fn forward(&mut self, addr: PhysAddr) -> Option<(LineData, bool)> {
        let i = self.wpq.slots.iter().rposition(|s| s.addr == addr)?;
        let w = &self.wpq.items[i];
        self.stats.wpq_forwards += 1;
        Some((w.data, w.poison))
    }

    fn push_read(&mut self, now: Cycle, addr: PhysAddr, origin: ReadOrigin) {
        #[cfg(feature = "trace")]
        mcs_trace::emit(mcs_trace::Event::McEnqueue {
            mc: self.id as u16,
            class: trace_class(&origin),
            at: now,
        });
        let demand = matches!(origin, ReadOrigin::Llc { .. });
        let slot = Slot { addr, key: self.dram.key(addr), demand };
        self.rpq.push(slot, RpqEntry { origin, enq: now });
    }

    /// Queue a write; `eng` marks one the engine made (an engine write or
    /// a lazy destination write), which only the trace tells apart.
    fn push_write(&mut self, now: Cycle, addr: PhysAddr, data: LineData, poison: bool, eng: bool) {
        #[cfg(feature = "trace")]
        let class = if eng {
            mcs_trace::PacketClass::EngineWrite
        } else {
            mcs_trace::PacketClass::Write
        };
        #[cfg(feature = "trace")]
        mcs_trace::emit(mcs_trace::Event::McEnqueue { mc: self.id as u16, class, at: now });
        #[cfg(not(feature = "trace"))]
        let _ = eng;
        let slot = Slot { addr, key: self.dram.key(addr), demand: true };
        let entry = WpqEntry {
            data,
            poison,
            enq: now,
            #[cfg(feature = "trace")]
            class,
        };
        self.wpq.push(slot, entry);
    }

    fn schedule_dram(&mut self, now: Cycle, mem: &mut SparseMem) {
        // Injected transient stall also pauses the DRAM scheduler.
        if self.fault.as_ref().is_some_and(|f| now < f.stall_until) {
            return;
        }
        self.update_drain_mode();

        // Issue while the channel can accept column commands (the data bus
        // may be booked ahead; see DramBackend::bus_ready), bounded per
        // tick to model the command bus. The mode's own queue goes first;
        // the other issues opportunistically.
        for _ in 0..4 {
            if !self.dram.bus_ready(now) {
                break;
            }
            let is_write = [self.draining, !self.draining];
            let issued = is_write.into_iter().any(|write| {
                if write { self.issue_write(now, mem) } else { self.issue_read(now) }
            });
            if !issued {
                break;
            }
        }
    }

    /// Drain-mode hysteresis: start draining writes at the high
    /// watermark or when no read waits, stop at the low watermark. Its
    /// result depends on the previous mode, so every cycle that runs the
    /// scheduler must apply it (see [`Self::replay_elided`]).
    fn update_drain_mode(&mut self) {
        let len = self.wpq.len();
        if (len >= self.drain_start || self.rpq.is_empty()) && len > 0 {
            self.draining = true;
        }
        if len < self.drain_stop && !self.rpq.is_empty() {
            self.draining = false;
        }
        if len == 0 {
            self.draining = false;
        }
    }

    fn issue_read(&mut self, now: Cycle) -> bool {
        let Some(idx) = pick(&self.dram, now, &self.rpq.slots) else { return false };
        let (slot, e) = self.rpq.remove(idx);
        let (mut done, outcome) = self.dram.access(now, slot.addr);
        self.note_row(outcome);
        self.stats.reads += 1;
        if let Some(f) = self.fault.as_mut() {
            if f.ecc.roll(f.plan.ecc_uncorrectable_rate) {
                // Uncorrectable: poison the line. The response still
                // carries the functional bytes (poison is metadata), so
                // differential checks against an eager oracle remain valid.
                self.stats.ecc_uncorrectable += 1;
                f.poisoned.insert(slot.addr.line_base().0);
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
            bank: slot.key.bank() as u16,
            class: trace_class(&e.origin),
            row: trace_row(outcome),
            enq: e.enq,
            at: now,
            done,
        });
        self.inflight.push(Inflight { done, addr: slot.addr, read: Some(e.origin), enq: e.enq });
        true
    }

    fn issue_write(&mut self, now: Cycle, mem: &mut SparseMem) -> bool {
        let Some(idx) = pick(&self.dram, now, &self.wpq.slots) else { return false };
        let (slot, e) = self.wpq.remove(idx);
        let (done, outcome) = self.dram.access(now, slot.addr);
        self.note_row(outcome);
        self.stats.writes += 1;
        #[cfg(feature = "trace")]
        mcs_trace::emit(mcs_trace::Event::McIssue {
            mc: self.id as u16,
            bank: slot.key.bank() as u16,
            class: e.class,
            row: trace_row(outcome),
            enq: e.enq,
            at: now,
            done,
        });
        // Apply functionally at issue: any later read goes through the RPQ
        // behind this write's bank occupancy, and reads that raced ahead
        // were already served by WPQ forwarding.
        mem.write_line(slot.addr, e.data);
        if let Some(f) = self.fault.as_mut() {
            let line = slot.addr.line_base().0;
            if e.poison {
                f.poisoned.insert(line);
            } else {
                // Fresh data overwrites the faulted cells: poison clears.
                f.poisoned.remove(&line);
            }
        }
        self.inflight.push(Inflight { done, addr: slot.addr, read: None, enq: e.enq });
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
        eng: &mut dyn CopyEngine,
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
    fn llc_reads_are_answered_as_make_read_resp_answers() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        // Three reads from DRAM, then one of a line with a queued write.
        let asks = [
            (7, Some(1), false, 4),
            (8, Some(usize::MAX), true, 5),
            (9, None, false, 6),
            (10, Some(0), false, 7),
        ];
        let mut want = Vec::new();
        for (k, (id, core, is_prefetch, byte)) in asks.into_iter().enumerate() {
            let addr = PhysAddr(0x40 + 1024 * k as u64);
            let req = Packet { id, core, is_prefetch, ..Packet::read(addr, Node::Mc(0)) };
            if id == 10 {
                input.push(0, Packet::write(addr, LineData::splat(byte), Node::Mc(0)));
            } else {
                mem.write_line(addr, LineData::splat(byte));
            }
            want.push(req.make_read_resp(LineData::splat(byte)));
            input.push(0, req);
        }
        let mut resps = run(&mut mc, &mut input, &mut mem, &mut eng, 100);
        resps.sort_by_key(|p| p.id);
        let fields = |p: &Packet| {
            (p.id, p.cmd.clone(), p.addr, p.data, p.dest, p.is_prefetch, p.core, p.needs_ack, p.poisoned)
        };
        let got: Vec<_> = resps.iter().map(fields).collect();
        assert_eq!(got, want.iter().map(fields).collect::<Vec<_>>());
        assert_eq!((mc.stats.reads, mc.stats.wpq_forwards), (3, 1));
    }

    #[test]
    fn requests_picked_out_of_order_keep_their_payloads() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        // Lines k and 64 + k share bank 0 in different rows, so once a
        // row is open the picker takes its hits from behind the conflicts.
        let lines: Vec<u64> = (0..8).flat_map(|k| [k, 64 + k]).collect();
        for &l in &lines {
            mem.write_line(PhysAddr(l * 64), LineData::splat(l as u8));
            let read = Packet::read(PhysAddr(l * 64), Node::Mc(0));
            input.push(0, Packet { id: l + 1, ..read });
        }
        // The same pattern of writes, in bank 2.
        for &l in &lines {
            let line = 32 + l;
            input.push(1, Packet::write(PhysAddr(line * 64), LineData::splat(line as u8), Node::Mc(0)));
        }
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 2_000);
        let order: Vec<u64> = resps.iter().map(|p| p.id - 1).collect();
        assert_ne!(order, lines, "the picker must reorder");
        for p in &resps {
            let l = p.addr.line();
            assert_eq!((p.id, p.data), (l + 1, Some(LineData::splat(l as u8))), "read of line {l}");
        }
        for &l in &lines {
            let line = 32 + l;
            assert_eq!(mem.read_line(PhysAddr(line * 64)), LineData::splat(line as u8), "line {line}");
        }
        assert!(mc.idle());
    }

    #[test]
    fn wpq_forwarding_counts() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        input.push(0, Packet::write(PhysAddr(0x80), LineData::splat(7), Node::Mc(0)));
        input.push(0, Packet::write(PhysAddr(0x80), LineData::splat(8), Node::Mc(0)));
        input.push(0, Packet::read(PhysAddr(0x80), Node::Mc(0)));
        let resps = run(&mut mc, &mut input, &mut mem, &mut eng, 60);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].data, Some(LineData::splat(8)), "the newer write answers");
        assert_eq!((mc.stats.wpq_forwards, mc.stats.reads, mc.stats.writes), (1, 0, 2));
    }

    #[test]
    fn pick_orders_demand_before_engine_and_row_hits_first() {
        let (mut mc, ..) = mk();
        // Open row 0 of bank 0 (lines 0..16); line 64 is row 1 of that
        // bank, line 16 is bank 1, whose row is closed.
        mc.dram.access(0, PhysAddr(0));
        let now = 100;
        let (hit, hit2, closed, conflict) =
            (PhysAddr(0x40), PhysAddr(0x80), PhysAddr(16 * 64), PhysAddr(64 * 64));
        let slots = |dram: &DramBackend, queue: &[(PhysAddr, bool)]| -> VecDeque<Slot> {
            queue.iter().map(|&(addr, demand)| Slot { addr, key: dram.key(addr), demand }).collect()
        };
        let pick_of = |queue: &[(PhysAddr, bool)]| pick(&mc.dram, now, &slots(&mc.dram, queue));
        // Engine entries (not demand) go last, row hits first in each class.
        let mut queue = vec![(closed, false), (hit, false), (conflict, true), (hit2, true)];
        assert_eq!(pick_of(&queue), Some(3), "demand row hit");
        queue.pop();
        assert_eq!(pick_of(&queue), Some(2), "demand ready");
        queue.pop();
        assert_eq!(pick_of(&queue), Some(1), "engine row hit");
        queue.pop();
        assert_eq!(pick_of(&queue), Some(0), "engine ready");
        // Writes are all demand: a row hit goes before an older ready write.
        assert_eq!(pick_of(&[(closed, true), (conflict, true), (hit, true)]), Some(2));
        // A bank that is not ready yields nothing.
        mc.dram.access(now, PhysAddr(0));
        assert_eq!(pick(&mc.dram, now, &slots(&mc.dram, &[(hit, true), (conflict, false)])), None);
    }

    #[test]
    fn drain_thresholds_equal_the_occupancy_predicates() {
        let shipped = [
            McConfig::default(),
            crate::config::SystemConfig::table1().mc,
            crate::config::SystemConfig::tiny().mc,
        ];
        let edges = [0.0, 1.0].into_iter().flat_map(|hi| {
            [0.0, 1.0].map(|lo| McConfig { wpq_drain_hi: hi, wpq_drain_lo: lo, ..McConfig::default() })
        });
        for cfg in shipped.into_iter().chain(edges) {
            let (hi, lo) = (cfg.wpq_drain_hi, cfg.wpq_drain_lo);
            let mc = MemCtrl::new(0, cfg.clone(), crate::dram::build(&DramConfig::default(), 1));
            for len in 0..=2 * cfg.wpq_cap {
                let occ = len as f64 / cfg.wpq_cap as f64;
                assert_eq!(len >= mc.drain_start, occ >= hi, "{cfg:?}: start at length {len}");
                assert_eq!(len < mc.drain_stop, occ <= lo, "{cfg:?}: stop at length {len}");
            }
        }
    }

    #[test]
    fn forwarded_engine_read_is_answered_next_tick_with_the_write() {
        let (mut mc, mut input, mut mem, _) = mk();
        let mut eng = EchoEngine::default();
        // Three poisoned writes to line 0 arrive at cycle 5. The first
        // issues at once; the others wait for its bank.
        for k in 0..3 {
            let write = Packet::write(PhysAddr(0), LineData::splat(7 + k), Node::Mc(0));
            input.push(5, Packet { poisoned: true, ..write });
        }
        run(&mut mc, &mut input, &mut mem, &mut eng, 100);
        // The engine reads line 0 three times at cycle 6, finds the newest
        // write queued, and hears at cycle 7 with its bytes and poison; no
        // read reaches DRAM.
        let answer = (7, 6, PhysAddr(0), LineData::splat(9), true);
        assert_eq!(eng.answers, vec![answer; 3]);
        assert_eq!((mc.stats.wpq_forwards, mc.stats.reads, mc.stats.poisoned_reads), (3, 0, 3));
        assert_eq!((mc.stats.engine_reads, mc.stats.engine_writes, mc.stats.writes), (3, 3, 6));
        assert!(mc.idle());
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
        // The cycle a single read's response leaves the controller.
        let answered_at = |plan: &FaultPlan| {
            let (mut mc, mut input, mut mem, mut eng) = mk();
            mc.set_fault_plan(plan);
            input.push(0, Packet::read(PhysAddr(0x40), Node::Mc(0)));
            (0..500).find(|&now| {
                let mut out = Vec::new();
                mc.tick(now, &mut input, &mut eng, &mut mem, &mut out);
                !out.is_empty()
            })
        };
        let baseline = answered_at(&FaultPlan::none()).expect("answered");
        let plan = FaultPlan {
            seed: 7,
            ecc_correctable_rate: 1.0,
            ecc_max_retries: 2,
            ecc_penalty: 8,
            ..FaultPlan::none()
        };
        // Two retries with 8-cycle exponential backoff: 8 + 16 = 24 extra.
        assert_eq!(answered_at(&plan), Some(baseline + 24), "backoff penalty must be visible");
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
    #[should_panic(expected = "mc0 @0: write without data: Packet#0{WriteReq @PA(0x40) -> Mc(0)}")]
    fn malformed_write_panics() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        let mut pkt = Packet::write(PhysAddr(0x40), LineData::splat(1), Node::Mc(0));
        pkt.data = None;
        input.push(0, pkt);
        run(&mut mc, &mut input, &mut mem, &mut eng, 50);
    }

    #[test]
    #[should_panic(expected = "mc0 @0: unexpected command: Packet#0{ReadResp @PA(0x40) -> Llc +data}")]
    fn unexpected_command_panics() {
        let (mut mc, mut input, mut mem, mut eng) = mk();
        // A ReadResp has no business arriving at a controller.
        let req = Packet::read(PhysAddr(0x40), Node::Mc(0));
        input.push(0, req.make_read_resp(LineData::ZERO));
        run(&mut mc, &mut input, &mut mem, &mut eng, 50);
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
        engine: &mut dyn CopyEngine,
        mem: &mut SparseMem,
        log: &mut Log,
    ) {
        let before = (mc.stats.reads, mc.stats.writes);
        let mut out = Vec::new();
        mc.tick(now, input, engine, mem, &mut out);
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

    /// A copy engine that parks every write while its gate is closed. A
    /// read of line 8k closes the gate and a read of line 8k + 4 opens it,
    /// each a change of engine state; everything else passes. It counts what it is asked, and
    /// keeps the default `on_waits_elided`, which re-asks each elided
    /// wait and panics unless it is answered `Wait` again.
    #[derive(Debug, Default)]
    struct GateEngine {
        closed: bool,
        version: u64,
        seen: u64,
        waiting: bool,
        waits: u64,
        passes: u64,
    }

    impl CopyEngine for GateEngine {
        fn on_arrive(&mut self, _: Cycle, _: usize, pkt: Packet, _: &mut EngineIo) -> Verdict {
            if pkt.cmd == MemCmd::WriteReq && self.closed {
                self.waits += 1;
                self.waiting = true;
                return Verdict::Wait(pkt);
            }
            if pkt.cmd == MemCmd::ReadReq {
                match pkt.addr.0 / 64 % 8 {
                    0 => self.closed = true,
                    4 => self.closed = false,
                    _ => {}
                }
            }
            self.passes += 1;
            self.version += 1;
            Verdict::Pass(pkt)
        }

        fn on_dram_read(
            &mut self,
            _: Cycle,
            _: usize,
            _: u64,
            _: PhysAddr,
            _: LineData,
            _: bool,
            _: &mut EngineIo,
        ) {
            unreachable!("the gate issues no DRAM reads");
        }

        fn tick(&mut self, _: Cycle, _: usize, _: &mut EngineIo) {
            self.seen = self.version;
            self.waiting = false;
        }

        fn needs_tick(&self, _: usize) -> bool {
            self.waiting && self.version != self.seen
        }
    }

    /// A copy engine that, on the tick after a request for a line at a
    /// multiple of eight lines arrives, reads that line (so a read after a
    /// write often finds the write still queued) and writes what it reads
    /// back to it. It logs each answer (cycle, tag = the cycle it asked,
    /// line, data, poison) and needs a tick only with reads to ask.
    #[derive(Debug, Default)]
    struct EchoEngine {
        to_read: Vec<PhysAddr>,
        answers: Vec<(Cycle, u64, PhysAddr, LineData, bool)>,
    }

    impl CopyEngine for EchoEngine {
        fn on_arrive(&mut self, _: Cycle, _: usize, pkt: Packet, _: &mut EngineIo) -> Verdict {
            if pkt.addr.line().is_multiple_of(8) {
                self.to_read.push(pkt.addr);
            }
            Verdict::Pass(pkt)
        }

        fn on_dram_read(
            &mut self,
            now: Cycle,
            _: usize,
            tag: u64,
            addr: PhysAddr,
            data: LineData,
            poisoned: bool,
            io: &mut EngineIo,
        ) {
            self.answers.push((now, tag, addr, data, poisoned));
            io.dram_write(addr, data, poisoned);
        }

        fn tick(&mut self, now: Cycle, _: usize, io: &mut EngineIo) {
            for addr in self.to_read.drain(..) {
                io.dram_read(now, addr);
            }
        }

        fn needs_tick(&self, _: usize) -> bool {
            !self.to_read.is_empty()
        }
    }

    /// One twin run: a controller ticked every cycle next to a twin driven
    /// only at its `readiness` wake cycles, at cycles with deliverable
    /// input, and when its engine reports news (`needs_tick`), with the
    /// elided cycles replayed before it next ticks, as the event-driven
    /// scheduler does. Each side has its own engine.
    struct Twins<E> {
        every: MemCtrl,
        twin: MemCtrl,
        every_log: Log,
        twin_log: Log,
        every_eng: E,
        twin_eng: E,
        /// Cycles the twin ticked.
        woken: Cycle,
        /// The every-cycle controller's WPQ peak, and its lowest
        /// occupancy after reaching the high watermark.
        wpq_peak: usize,
        wpq_low_after_peak: usize,
        /// Cycles the twin slept through with a parked retry head, and
        /// how many of those lay inside an injected stall window.
        parked_elided: u64,
        parked_stalled: u64,
    }

    /// Cycles of random traffic in a twin run, and the quiet cycles after.
    const HORIZON: Cycle = 3_000;
    const DRAIN: Cycle = 3_000;

    fn run_twins<E: CopyEngine>(
        traffic: &[(Cycle, Packet)],
        plan: &FaultPlan,
        engine: impl Fn() -> E,
    ) -> Twins<E> {
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
        every.set_fault_plan(plan);
        twin.set_fault_plan(plan);
        let (mut every_eng, mut twin_eng) = (engine(), engine());
        let (mut every_log, mut twin_log) = (Log::default(), Log::default());
        let (mut wpq_peak, mut wpq_low_after_peak) = (0, usize::MAX);
        let (mut parked_elided, mut parked_stalled) = (0, 0);
        let mut next = traffic.iter().peekable();
        let mut wake = Some(0);
        let mut woken = 0;
        for now in 0..HORIZON + DRAIN {
            while let Some((_, pkt)) = next.next_if(|(at, _)| *at == now) {
                every_in.push(now, pkt.clone());
                twin_in.push(now, pkt.clone());
            }
            tick_logged(&mut every, now, &mut every_in, &mut every_eng, &mut every_mem, &mut every_log);
            let wpq = every.queue_depths().1;
            wpq_peak = wpq_peak.max(wpq);
            if wpq_peak as f64 >= every.cfg.wpq_drain_hi * every.cfg.wpq_cap as f64 {
                wpq_low_after_peak = wpq_low_after_peak.min(wpq);
            }
            if wake.is_none_or(|w| w <= now)
                || twin_in.peek(now).is_some()
                || twin_eng.needs_tick(twin.id)
            {
                // As the system does: every cycle here is executed.
                if let Some(last) = now.checked_sub(1) {
                    twin.replay_elided(last, &mut twin_eng);
                }
                tick_logged(&mut twin, now, &mut twin_in, &mut twin_eng, &mut twin_mem, &mut twin_log);
                wake = twin.readiness();
                woken += 1;
            } else if twin.parked {
                parked_elided += 1;
                parked_stalled += u64::from(twin.fault.as_ref().is_some_and(|f| now < f.stall_until));
            }
        }
        Twins {
            every,
            twin,
            every_log,
            twin_log,
            every_eng,
            twin_eng,
            woken,
            wpq_peak,
            wpq_low_after_peak,
            parked_elided,
            parked_stalled,
        }
    }

    /// Every third seed adds injected stalls.
    fn twin_plan(seed: u64) -> FaultPlan {
        if seed.is_multiple_of(3) {
            FaultPlan { seed: 5, mc_stall_rate: 0.05, mc_stall_cycles: 25, ..FaultPlan::none() }
        } else {
            FaultPlan::none()
        }
    }

    /// The twins issued, responded and counted alike, and the twin slept.
    fn assert_twins_agree<E>(seed: u64, t: &Twins<E>) {
        let asleep = t.woken < (HORIZON + DRAIN) / 2;
        assert!(asleep, "seed {seed}: the twin must sleep ({} ticks)", t.woken);
        assert!(t.every.idle() && t.twin.idle(), "seed {seed}: traffic must drain");
        assert_eq!(t.every_log.issues, t.twin_log.issues, "seed {seed}: issue order diverged");
        assert_eq!(t.every_log.resps, t.twin_log.resps, "seed {seed}: responses diverged");
        assert_eq!(t.every.stats, t.twin.stats, "seed {seed}: McStats diverged");
    }

    #[test]
    fn elided_controller_matches_one_ticked_every_cycle() {
        // The state the drain-mode replay restores (read queue just
        // emptied, writes between the watermarks, new reads arriving
        // while the twin sleeps) is rare per run, so many short runs are
        // checked.
        for seed in 1..=24 {
            let t = run_twins(&random_traffic(seed, HORIZON), &twin_plan(seed), || NullEngine);
            let cap = t.every.cfg.wpq_cap as f64;
            let high = t.wpq_peak as f64 >= t.every.cfg.wpq_drain_hi * cap;
            assert!(high, "seed {seed}: WPQ peaked at {}, below the high watermark", t.wpq_peak);
            assert!(
                (t.wpq_low_after_peak as f64) <= t.every.cfg.wpq_drain_lo * cap,
                "seed {seed}: WPQ never drained below the low watermark"
            );
            assert_twins_agree(seed, &t);
        }
    }

    #[test]
    fn parked_controller_matches_one_ticked_every_cycle() {
        // Writes wait at a closed gate, so the twin sleeps with a parked
        // retry head until a read reopens it; its elided re-asks (and,
        // inside a stall window, its fault-stall cycles) are replayed on
        // wake. The default `on_waits_elided` re-asks each elided cycle,
        // so both engines must end with the same counts.
        let (mut parked, mut stalled) = (0, 0);
        for seed in 1..=24 {
            // A last read opens the gate, so every write drains.
            let mut traffic = random_traffic(seed, HORIZON);
            let end = traffic.last().map_or(0, |(at, _)| at + 1);
            traffic.push((end, Packet::read(PhysAddr(4 * 64), Node::Mc(0))));
            let t = run_twins(&traffic, &twin_plan(seed), GateEngine::default);
            assert_twins_agree(seed, &t);
            let counts = |e: &GateEngine| (e.waits, e.passes, e.closed);
            assert_eq!(counts(&t.every_eng), counts(&t.twin_eng), "seed {seed}: engines diverged");
            parked += t.parked_elided;
            stalled += t.parked_stalled;
        }
        assert!(parked > 1_000, "the twin must sleep parked ({parked} cycles)");
        assert!(stalled > 0, "parked spans must cross injected stall windows");
    }

    #[test]
    fn engine_traffic_controller_matches_one_ticked_every_cycle() {
        // The engine's reads go through the RPQ or, for a line with a
        // queued write, are answered from the WPQ on the next tick, which
        // keeps the twin awake for that tick. Every other packet of the
        // traffic is dropped, so that with the engine's accesses added the
        // controller still idles part of the time.
        let (mut forwarded, mut from_dram) = (0, 0);
        for seed in 1..=24 {
            let traffic: Vec<_> = random_traffic(seed, HORIZON).into_iter().step_by(2).collect();
            let t = run_twins(&traffic, &twin_plan(seed), EchoEngine::default);
            assert_twins_agree(seed, &t);
            assert_eq!(t.every_eng.answers, t.twin_eng.answers, "seed {seed}: engines diverged");
            let s = &t.every.stats;
            assert!(s.engine_reads > 0 && s.engine_writes == s.engine_reads, "seed {seed}");
            // Only a forwarded read is answered the cycle after it is asked.
            let fwd = t.every_eng.answers.iter().filter(|a| a.0 == a.1 + 1).count();
            forwarded += fwd;
            from_dram += t.every_eng.answers.len() - fwd;
        }
        assert!(forwarded > 100, "engine reads must be forwarded ({forwarded})");
        assert!(from_dram > 100, "engine reads must reach DRAM ({from_dram})");
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
