//! The (MC)² memory-controller extension: implements §III-B's four
//! tracked-access cases, destination-line reconstruction with bouncing,
//! the BPQ protocol, asynchronous CTT draining, and broadcast-consistent
//! CTT updates — as a [`CopyEngine`] plugged into `mcs-sim`'s memory
//! controllers.
//!
//! One engine instance serves every controller (the paper keeps per-MC
//! CTTs coherent by snooping broadcast messages; we model the
//! synchronized tables as one logical table and charge the broadcast cost
//! to the interconnect latencies of the packets involved).

use crate::bpq::Bpq;
use crate::config::McSquareConfig;
use crate::ctt::{Ctt, CttError, Fragment};
use crate::ranges::ByteRange;
use mcs_sim::addr::{PhysAddr, CACHELINE};
use mcs_sim::data::{LineData, SparseMem};
use mcs_sim::dram::channel_of;
use mcs_sim::fault::{domain, FaultPlan, FaultStream};
use mcs_sim::engine::{CopyEngine, EngineIo, Verdict};
use mcs_sim::hash::FastMap;
use mcs_sim::packet::{BounceInfo, FreeDesc, LazyDesc, MemCmd, Node, Packet};
use mcs_sim::Cycle;
use std::collections::hash_map::Entry;

/// Why a destination line is being reconstructed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum ReconCause {
    /// A demand (or prefetch) read of the destination arrived at the MC.
    Demand,
    /// A write to a source line forced the copy (BPQ flush).
    SrcFlush,
    /// The asynchronous drain engine is freeing the entry.
    Drain,
}

#[derive(Debug)]
enum ReconState {
    /// Fragments outstanding.
    Filling,
    /// Data complete; a `LazyDestWrite` is in flight to the destination's
    /// controller, which will untrack the line on arrival.
    AwaitingDestWrite,
}

/// An in-flight reconstruction of one destination cacheline.
#[derive(Debug)]
struct Recon {
    /// Controller executing the reconstruction.
    mcid: usize,
    buf: LineData,
    outstanding: u32,
    waiting: Vec<Packet>,
    cause: ReconCause,
    state: ReconState,
    /// A fresh destination write arrived mid-flight: serve waiting readers
    /// from `buf` (legal: they ordered before the write) but do not write
    /// back or untrack.
    superseded: bool,
    /// A BPQ entry depends on this copy completing: the destination write
    /// must happen even if the WPQ is busy.
    force_write: bool,
    /// Source lines pinned by this reconstruction.
    pinned: Vec<PhysAddr>,
    /// A fragment was produced by a poisoned DRAM read: the assembled
    /// line (responses, destination writebacks) carries poison onward.
    poisoned: bool,
}

#[derive(Debug)]
enum TagKind {
    /// Local fragment read for a reconstruction keyed by dest line.
    Frag { dest_line: PhysAddr, dest_off: u32, len: u32, src_off: u32 },
    /// Serving a remote controller's bounce request.
    BounceServe { info: BounceInfo },
}

/// An active drain job: frees one CTT entry line by line.
#[derive(Debug)]
struct DrainJob {
    range: ByteRange,
    cursor: u64,
}

/// Deliberately disabled degradation paths, for chaos-harness mutants:
/// each variant makes the engine *wrong* in a way the differential
/// oracle must catch. Production code always runs with `None`.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ChaosMutation {
    /// Fully correct engine.
    #[default]
    None,
    /// When a CTT-drop fault fires, lose the metadata silently instead of
    /// repairing by eager re-copy — destination reads then return stale
    /// memory.
    DropWithoutRepair,
}

/// Fault state for the engine-level fault classes of a
/// [`FaultPlan`]: forced CTT flushes and dropped CTT entries, both
/// rolled once per successful CTT insert.
#[derive(Debug)]
struct EngineFault {
    plan: FaultPlan,
    flush: FaultStream,
    drop: FaultStream,
    pick: FaultStream,
}

/// Counters (exported into `RunStats::engine`).
#[derive(Debug, Default, Clone)]
struct Counters {
    bounces_sent: u64,
    bounce_serves: u64,
    recon_demand: u64,
    recon_src_flush: u64,
    recon_drain: u64,
    dest_writebacks: u64,
    writebacks_rejected: u64,
    reads_from_bpq: u64,
    bpq_full_retries: u64,
    ctt_full_retries: u64,
    flush_retries: u64,
    drained_entries: u64,
    lazy_dest_writes: u64,
    mclazy_acked: u64,
    forced_flushes: u64,
    dropped_entries: u64,
    eager_fallbacks: u64,
}

/// The (MC)² engine.
#[derive(Debug)]
pub struct McSquareEngine {
    cfg: McSquareConfig,
    channels: usize,
    ctt: Ctt,
    bpqs: Vec<Bpq>,
    recons: FastMap<u64, Recon>,
    /// Source lines with in-flight reconstruction reads: line → count.
    pins: FastMap<u64, usize>,
    /// MCLAZY broadcasts still arming: packet id → controllers whose copy
    /// has not yet arrived. The entry is inserted (and acked) only when
    /// the last controller processes its copy, so every write queued ahead
    /// of the broadcast anywhere has already been applied (§III-B1).
    arming: FastMap<u64, u32>,
    tags: FastMap<u64, TagKind>,
    next_tag: u64,
    drains: Vec<Vec<DrainJob>>,
    n: Counters,
    /// Injected engine faults (`None` ⇔ empty plan: zero-cost hooks).
    fault: Option<EngineFault>,
    mutation: ChaosMutation,
    /// Current cycle, cached at the trait entry points so private
    /// methods can timestamp trace events without threading `now`
    /// through every call.
    #[cfg(feature = "trace")]
    now: Cycle,
    /// BPQ entries `(mcid, line)` that were releasable at the previous
    /// `validate` call. `bpq_release_tick` runs every cycle, so an entry
    /// still releasable a full validation period later is stuck.
    #[cfg(feature = "check-invariants")]
    releasable_memo: mcs_sim::hash::FastSet<(usize, u64)>,
}

impl McSquareEngine {
    /// Create an engine for a system with `channels` memory controllers.
    pub fn new(cfg: McSquareConfig, channels: usize) -> McSquareEngine {
        McSquareEngine {
            ctt: Ctt::new(cfg.ctt_entries),
            bpqs: (0..channels).map(|_| Bpq::new(cfg.bpq_entries)).collect(),
            drains: (0..channels).map(|_| Vec::new()).collect(),
            recons: FastMap::default(),
            pins: FastMap::default(),
            arming: FastMap::default(),
            tags: FastMap::default(),
            next_tag: 1,
            channels,
            cfg,
            n: Counters::default(),
            fault: None,
            mutation: ChaosMutation::None,
            #[cfg(feature = "trace")]
            now: 0,
            #[cfg(feature = "check-invariants")]
            releasable_memo: mcs_sim::hash::FastSet::default(),
        }
    }

    /// Create an engine with the engine-level fault classes of `plan`
    /// armed (forced CTT flushes, dropped CTT entries).
    pub fn with_faults(cfg: McSquareConfig, channels: usize, plan: &FaultPlan) -> McSquareEngine {
        let mut e = McSquareEngine::new(cfg, channels);
        if !plan.is_empty() {
            e.fault = Some(EngineFault {
                plan: plan.clone(),
                flush: plan.stream(domain::CTT_FLUSH, 0),
                drop: plan.stream(domain::CTT_DROP, 0),
                pick: plan.stream(domain::CTT_PICK, 0),
            });
        }
        e
    }

    /// Arm a chaos mutant (test harnesses only — see [`ChaosMutation`]).
    pub fn set_chaos_mutation(&mut self, m: ChaosMutation) {
        self.mutation = m;
    }

    /// Access the CTT (tests and instrumentation).
    pub fn ctt(&self) -> &Ctt {
        &self.ctt
    }

    fn mc_of(&self, addr: PhysAddr) -> usize {
        channel_of(addr, self.channels)
    }

    fn pin(&mut self, line: PhysAddr) {
        *self.pins.entry(line.line_base().0).or_insert(0) += 1;
    }

    fn unpin(&mut self, line: PhysAddr) {
        match self.pins.entry(line.line_base().0) {
            Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(_) => unreachable!("unpin of unpinned line {line:?}"),
        }
    }

    fn pinned_overlap(&self, addr: PhysAddr, len: u64) -> bool {
        mcs_sim::addr::lines_of(addr, len).any(|l| self.pins.contains_key(&l.0))
    }

    fn bpq_overlap_any(&self, addr: PhysAddr, len: u64) -> bool {
        self.bpqs.iter().any(|b| b.overlaps(addr, len))
    }

    /// Start reconstructing destination line `line` at controller `mcid`
    /// (or join an existing reconstruction). Returns whether a new
    /// reconstruction was started.
    fn start_recon(
        &mut self,
        mcid: usize,
        line: PhysAddr,
        cause: ReconCause,
        reader: Option<Packet>,
        io: &mut EngineIo,
    ) -> bool {
        let line = line.line_base();
        if let Some(r) = self.recons.get_mut(&line.0) {
            if cause == ReconCause::SrcFlush {
                r.force_write = true;
            }
            match (&r.state, reader) {
                (ReconState::Filling, Some(p)) => r.waiting.push(p),
                (ReconState::AwaitingDestWrite, Some(p)) => {
                    // Data already assembled: answer immediately.
                    let mut resp = p.make_read_resp(r.buf);
                    resp.poisoned = r.poisoned;
                    io.send(resp);
                }
                (_, None) => {}
            }
            return false;
        }

        let frags = self.ctt.lookup_line(line);
        self.start_recon_with(frags, mcid, line, cause, reader, io)
    }

    /// Start a reconstruction from an explicit fragment list. Used by
    /// [`McSquareEngine::start_recon`] (fragments straight from the CTT)
    /// and by dropped-entry repair, where the fragments are captured
    /// *before* the faulty metadata loss and the entry is already gone.
    fn start_recon_with(
        &mut self,
        frags: Vec<Fragment>,
        mcid: usize,
        line: PhysAddr,
        cause: ReconCause,
        reader: Option<Packet>,
        io: &mut EngineIo,
    ) -> bool {
        debug_assert!(!frags.is_empty(), "recon of untracked line {line:?}");
        debug_assert!(!self.recons.contains_key(&line.0), "recon already in flight");
        match cause {
            ReconCause::Demand => self.n.recon_demand += 1,
            ReconCause::SrcFlush => self.n.recon_src_flush += 1,
            ReconCause::Drain => self.n.recon_drain += 1,
        }
        #[cfg(feature = "trace")]
        mcs_trace::emit(mcs_trace::Event::ReconStart {
            mc: mcid as u16,
            line: line.0,
            cause: match cause {
                ReconCause::Demand => "demand",
                ReconCause::SrcFlush => "src_flush",
                ReconCause::Drain => "drain",
            },
            at: self.now,
        });

        // Plan sub-fragments: tracked bytes come from their sources
        // (splitting at source-line boundaries — the two-bounce case for
        // misaligned copies, §III-B2), gaps come from the destination
        // line's own memory.
        let mut plan: Vec<(u32, u32, PhysAddr)> = Vec::new(); // (dest_off, len, src)
        let mut cursor = line.0;
        let end = line.0 + CACHELINE;
        for Fragment { dst, len, src } in &frags {
            if dst.0 > cursor {
                plan.push(((cursor - line.0) as u32, (dst.0 - cursor) as u32, PhysAddr(cursor)));
            }
            // Split the tracked fragment at source line boundaries.
            let mut off = 0u64;
            while off < *len {
                let s = src.add(off);
                let take = (*len - off).min(CACHELINE - s.line_off());
                plan.push(((dst.0 + off - line.0) as u32, take as u32, s));
                off += take;
            }
            cursor = dst.0 + len;
        }
        if cursor < end {
            plan.push(((cursor - line.0) as u32, (end - cursor) as u32, PhysAddr(cursor)));
        }

        let mut recon = Recon {
            mcid,
            buf: LineData::ZERO,
            outstanding: plan.len() as u32,
            waiting: reader.into_iter().collect(),
            cause,
            state: ReconState::Filling,
            superseded: false,
            force_write: cause == ReconCause::SrcFlush,
            pinned: Vec::new(),
            poisoned: false,
        };

        for (dest_off, len, src) in plan {
            let src_line = src.line_base();
            recon.pinned.push(src_line);
            let src_mc = self.mc_of(src_line);
            if src_mc == mcid {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.tags.insert(
                    tag,
                    TagKind::Frag {
                        dest_line: line,
                        dest_off,
                        len,
                        src_off: src.line_off() as u32,
                    },
                );
                io.dram_read(tag, src_line);
            } else {
                self.n.bounces_sent += 1;
                #[cfg(feature = "trace")]
                mcs_trace::emit(mcs_trace::Event::Bounce {
                    mc: mcid as u16,
                    src_mc: src_mc as u16,
                    at: self.now,
                });
                let info = BounceInfo { reply_to: mcid, token: line.0, src, len, dest_off };
                let pkt = Packet {
                    id: mcs_sim::packet::fresh_id(),
                    cmd: MemCmd::BounceRead(info),
                    addr: src_line,
                    data: None,
                    dest: Node::Mc(src_mc),
                    is_prefetch: false,
                    core: None,
                    needs_ack: false,
                    poisoned: false,
                };
                io.send_after(pkt, self.cfg.ctt_latency);
            }
        }
        for l in recon.pinned.clone() {
            self.pin(l);
        }
        self.recons.insert(line.0, recon);
        true
    }

    /// A fragment landed: fill the buffer and finish if complete.
    fn fragment_done(
        &mut self,
        line: PhysAddr,
        dest_off: u32,
        bytes: &[u8],
        poisoned: bool,
        io: &mut EngineIo,
    ) {
        let Some(r) = self.recons.get_mut(&line.0) else {
            return; // reconstruction superseded and discarded
        };
        r.buf.write(dest_off as usize, bytes);
        r.poisoned |= poisoned;
        r.outstanding -= 1;
        if r.outstanding == 0 {
            self.finish_recon(line, io);
        }
    }

    fn finish_recon(&mut self, line: PhysAddr, io: &mut EngineIo) {
        let r = self.recons.get_mut(&line.0).expect("recon present");
        debug_assert!(matches!(r.state, ReconState::Filling));
        // Answer waiting readers (§III-B2 step 3: the packet is sent back
        // to the core as if it was read from the destination).
        let buf = r.buf;
        let poisoned = r.poisoned;
        for p in std::mem::take(&mut r.waiting) {
            let mut resp = p.make_read_resp(buf);
            resp.poisoned = poisoned;
            io.send(resp);
        }
        // Unpin sources: the copy data is captured.
        let pinned = std::mem::take(&mut r.pinned);
        let (cause, superseded, force_write, mcid) =
            (r.cause, r.superseded, r.force_write, r.mcid);
        #[cfg(feature = "trace")]
        mcs_trace::emit(mcs_trace::Event::ReconEnd {
            mc: mcid as u16,
            line: line.0,
            at: self.now,
        });
        for l in pinned {
            self.unpin(l);
        }

        if superseded {
            self.recons.remove(&line.0);
            return;
        }

        // Writeback decision. Demand reconstructions skip the write when
        // the WPQ is contended (§III-B2 "reducing bandwidth contention")
        // or when the ablation disables it; flushes and drains must write.
        let must_write = force_write || cause != ReconCause::Demand;
        let want_write = self.cfg.writeback_after_bounce && io.wpq_frac() < self.cfg.wpq_reject_frac;
        if !(must_write || want_write) {
            self.n.writebacks_rejected += 1;
            self.recons.remove(&line.0);
            return;
        }

        self.n.dest_writebacks += 1;
        let dest_mc = self.mc_of(line);
        if dest_mc == mcid {
            self.ctt.remove_dst(line, CACHELINE);
            if poisoned {
                io.dram_write_poisoned(line, buf);
            } else {
                io.dram_write(line, buf);
            }
            self.recons.remove(&line.0);
        } else {
            // The entry is untracked when the write arrives at the owning
            // controller, so a racing read still bounces correctly.
            self.n.lazy_dest_writes += 1;
            let pkt = Packet {
                id: mcs_sim::packet::fresh_id(),
                cmd: MemCmd::LazyDestWrite,
                addr: line,
                data: Some(buf),
                dest: Node::Mc(dest_mc),
                is_prefetch: false,
                core: None,
                needs_ack: false,
                poisoned,
            };
            io.send(pkt);
            let r = self.recons.get_mut(&line.0).expect("recon present");
            r.state = ReconState::AwaitingDestWrite;
        }
    }

    fn on_mclazy(&mut self, mcid: usize, pkt: Packet, desc: LazyDesc, io: &mut EngineIo) -> Verdict {
        // Broadcast arming: consume copies until the last controller's
        // arrives; only then is the table updated.
        let rem = self.arming.entry(pkt.id).or_insert(self.channels as u32);
        if *rem > 0 {
            *rem -= 1;
        }
        if *rem > 0 {
            return Verdict::Consumed;
        }
        // Stall while any BPQ holds lines of either buffer (Fig. 9:
        // "prospective copies involving S1 or S2 are stalled"), or while
        // in-flight reconstructions still read lines the new copy will
        // redefine.
        if self.bpq_overlap_any(desc.src, desc.size)
            || self.bpq_overlap_any(desc.dst, desc.size)
            || self.pinned_overlap(desc.dst, desc.size)
        {
            self.n.bpq_full_retries += 1;
            return Verdict::Retry(pkt);
        }
        #[cfg(feature = "trace")]
        let collapses_pre = self.ctt.stats.chain_collapses;
        match self.ctt.try_insert(desc.dst, desc.src, desc.size) {
            Ok(()) => {
                #[cfg(feature = "trace")]
                {
                    mcs_trace::emit(mcs_trace::Event::CttInsert {
                        mc: mcid as u16,
                        dst: desc.dst.0,
                        lines: mcs_sim::addr::lines_of(desc.dst, desc.size).count() as u32,
                        at: self.now,
                    });
                    let collapsed = self.ctt.stats.chain_collapses - collapses_pre;
                    if collapsed > 0 {
                        mcs_trace::emit(mcs_trace::Event::CttCollapse {
                            mc: mcid as u16,
                            n: collapsed as u32,
                            at: self.now,
                        });
                    }
                }
                // Destination lines being reconstructed are redefined.
                for l in mcs_sim::addr::lines_of(desc.dst, desc.size) {
                    if let Some(r) = self.recons.get_mut(&l.0) {
                        r.superseded = true;
                    }
                }
                self.arming.remove(&pkt.id);
                self.n.mclazy_acked += 1;
                io.send(pkt.make_mclazy_ack());
                self.inject_post_insert_faults(mcid, io);
                Verdict::Consumed
            }
            Err(CttError::Full) => {
                self.n.ctt_full_retries += 1;
                #[cfg(feature = "trace")]
                mcs_trace::emit(mcs_trace::Event::CttFull { mc: mcid as u16, at: self.now });
                Verdict::Retry(pkt)
            }
            Err(CttError::NeedsFlush(lines)) => {
                // Copy out the dependent destinations, then retry.
                self.n.flush_retries += 1;
                #[cfg(feature = "trace")]
                mcs_trace::emit(mcs_trace::Event::CttFlush {
                    mc: mcid as u16,
                    lines: lines.len() as u32,
                    at: self.now,
                });
                for l in lines {
                    if self.ctt.covers_dst(l, CACHELINE) {
                        self.start_recon(mcid, l, ReconCause::SrcFlush, None, io);
                    }
                }
                Verdict::Retry(pkt)
            }
        }
    }

    fn on_read(&mut self, mcid: usize, pkt: Packet, io: &mut EngineIo) -> Verdict {
        let line = pkt.addr.line_base();
        // Reads of BPQ-held source lines are serviced from the queue.
        if let Some(d) = self.bpqs[mcid].get(line) {
            self.n.reads_from_bpq += 1;
            #[cfg(feature = "trace")]
            mcs_trace::emit(mcs_trace::Event::BpqHit {
                mc: mcid as u16,
                line: line.0,
                at: self.now,
            });
            let data = *d;
            io.send(pkt.make_read_resp(data));
            return Verdict::Consumed;
        }
        // Join an in-flight reconstruction if one exists.
        if self.recons.contains_key(&line.0) {
            self.start_recon(mcid, line, ReconCause::Demand, Some(pkt), io);
            return Verdict::Consumed;
        }
        if !self.ctt.covers_dst(line, CACHELINE) {
            return Verdict::Pass(pkt); // includes reads from source: §III-B2
        }
        self.start_recon(mcid, line, ReconCause::Demand, Some(pkt), io);
        Verdict::Consumed
    }

    fn on_write(&mut self, mcid: usize, pkt: Packet, io: &mut EngineIo) -> Verdict {
        let line = pkt.addr.line_base();
        let is_lazy_dest = pkt.cmd == MemCmd::LazyDestWrite;

        // Write to destination: memory will hold fresh data — untrack
        // (§III-B2 "write to destination").
        if self.ctt.covers_dst(line, CACHELINE) {
            self.ctt.remove_dst(line, CACHELINE);
            if let Some(r) = self.recons.get_mut(&line.0) {
                match r.state {
                    // A fresh write beats an in-flight reconstruction.
                    ReconState::Filling => r.superseded = true,
                    // Our own completed copy arriving: drop the recon.
                    ReconState::AwaitingDestWrite => {
                        self.recons.remove(&line.0);
                    }
                }
            }
            return Verdict::Pass(pkt);
        }
        if is_lazy_dest {
            // Entry already untracked (e.g. by an intervening write).
            if let Some(r) = self.recons.get(&line.0) {
                if matches!(r.state, ReconState::AwaitingDestWrite) {
                    self.recons.remove(&line.0);
                }
            }
            return Verdict::Pass(pkt);
        }

        // Write to source (or to a line an in-flight reconstruction still
        // reads): hold in the BPQ until dependent copies complete
        // (§III-B2 "write to source").
        let deps = self.ctt.src_overlapping(line, CACHELINE);
        if !deps.is_empty() || self.pins.contains_key(&line.0) || self.bpqs[mcid].contains(line) {
            let data = pkt.data.expect("write carries data");
            if !self.bpqs[mcid].insert(line, data) {
                self.n.bpq_full_retries += 1;
                return Verdict::Retry(pkt);
            }
            if pkt.needs_ack {
                io.send(pkt.make_write_ack());
            }
            // Flush every destination line depending on this source line.
            let mut dest_lines: Vec<PhysAddr> = Vec::new();
            for (dst_sub, _) in deps {
                for l in mcs_sim::addr::lines_of(PhysAddr(dst_sub.start), dst_sub.len()) {
                    if dest_lines.last() != Some(&l) {
                        dest_lines.push(l);
                    }
                }
            }
            dest_lines.dedup();
            for l in dest_lines {
                self.start_recon(mcid, l, ReconCause::SrcFlush, None, io);
            }
            return Verdict::Consumed;
        }
        Verdict::Pass(pkt)
    }

    /// Roll the engine-level fault classes once per successful CTT insert
    /// (per-event, so the schedule is fast-forward safe):
    ///
    /// * **forced flush** — a CTT entry must be drained eagerly even below
    ///   the occupancy threshold (models e.g. a metadata scrub);
    /// * **dropped entry** — one tracked destination line's metadata is
    ///   lost. The engine *detects* the loss and degrades gracefully: it
    ///   captures the fragments first and repairs by eager re-copy, so
    ///   memory stays correct (unless a [`ChaosMutation`] disables the
    ///   repair to exercise the chaos harness).
    fn inject_post_insert_faults(&mut self, mcid: usize, io: &mut EngineIo) {
        let Some(f) = self.fault.as_mut() else {
            return;
        };
        let do_flush = f.flush.roll(f.plan.ctt_flush_rate);
        let drop_draw = f.drop.roll(f.plan.ctt_drop_rate).then(|| f.pick.next_u64());

        if do_flush {
            let exclude: Vec<ByteRange> = self.drains.iter().flatten().map(|d| d.range).collect();
            if let Some((range, _)) = self.ctt.smallest_entry(|_| true, &exclude) {
                let cursor = PhysAddr(range.start).line_base().0;
                self.drains[mcid].push(DrainJob { range, cursor });
                self.n.forced_flushes += 1;
                io.fault_forced_flushes += 1;
            }
        }

        if let Some(draw) = drop_draw {
            // Victim: a tracked destination line with no reconstruction in
            // flight (an in-flight recon already owns the fragments).
            let cands: Vec<PhysAddr> = self
                .ctt
                .iter()
                .map(|(r, _)| PhysAddr(r.start).line_base())
                .filter(|l| !self.recons.contains_key(&l.0))
                .collect();
            if !cands.is_empty() {
                let line = cands[(draw % cands.len() as u64) as usize];
                let frags = self.ctt.lookup_line(line);
                self.ctt.remove_dst(line, CACHELINE);
                self.n.dropped_entries += 1;
                if self.mutation == ChaosMutation::DropWithoutRepair {
                    // Mutant: metadata silently lost, no repair. Reads of
                    // `line` now return stale memory — the differential
                    // oracle must flag this.
                } else {
                    self.n.eager_fallbacks += 1;
                    io.fault_eager_fallbacks += 1;
                    self.start_recon_with(frags, mcid, line, ReconCause::SrcFlush, None, io);
                }
            }
        }
    }

    fn drain_tick(&mut self, mcid: usize, io: &mut EngineIo) {
        /// Lines one drain job keeps in flight. Kept small so the total
        /// outstanding asynchronous copies per controller is governed by
        /// `parallel_free` and never swamps the read queue — the paper
        /// "limits the outstanding asynchronous copies per memory
        /// controller, restricting the memory bandwidth interference"
        /// (§V-C).
        const DRAIN_WINDOW: usize = 2;
        // Launch new jobs while above the threshold (§III-A1: start lazy
        // copying at 50% occupancy, smallest entries first, bounded
        // parallelism per controller).
        if self.ctt.occupancy() >= self.cfg.drain_threshold {
            while self.drains[mcid].len() < self.cfg.parallel_free {
                let exclude: Vec<ByteRange> = self
                    .drains
                    .iter()
                    .flatten()
                    .map(|d| d.range)
                    .collect();
                // Any controller may orchestrate a drain (page-aligned
                // buffers would otherwise all land on channel 0's
                // controller); the line reads and writes still route to
                // their owning channels.
                let Some((range, _)) = self.ctt.smallest_entry(|_| true, &exclude) else {
                    break;
                };
                // Chain collapse can leave byte-granular entry bounds; the
                // drain walks whole destination lines.
                let cursor = PhysAddr(range.start).line_base().0;
                self.drains[mcid].push(DrainJob { range, cursor });
            }
        }
        let mut j = 0;
        while j < self.drains[mcid].len() {
            // Advance the cursor past lines already untracked and settled.
            loop {
                let job = &self.drains[mcid][j];
                if job.cursor >= job.range.end {
                    break;
                }
                let line = PhysAddr(job.cursor).line_base();
                if !self.ctt.covers_dst(line, CACHELINE) && !self.recons.contains_key(&line.0)
                {
                    self.drains[mcid][j].cursor = line.0 + CACHELINE;
                } else {
                    break;
                }
            }
            let (cur, end) = {
                let job = &self.drains[mcid][j];
                (job.cursor, job.range.end)
            };
            if cur >= end {
                self.drains[mcid].remove(j);
                self.n.drained_entries += 1;
                continue;
            }
            // Keep up to DRAIN_WINDOW line copies in flight for this job.
            let mut inflight = 0;
            let mut line = PhysAddr(cur).line_base().0;
            while line < end && inflight < DRAIN_WINDOW {
                let l = PhysAddr(line);
                if self.recons.contains_key(&l.0) {
                    inflight += 1;
                } else if self.ctt.covers_dst(l, CACHELINE) {
                    self.start_recon(mcid, l, ReconCause::Drain, None, io);
                    inflight += 1;
                }
                line += CACHELINE;
            }
            j += 1;
        }

    }

    fn bpq_release_tick(&mut self, mcid: usize, io: &mut EngineIo) {
        if self.bpqs[mcid].is_empty() {
            return;
        }
        let ctt = &self.ctt;
        let pins = &self.pins;
        let ready = self.bpqs[mcid].take_ready(|line| {
            !pins.contains_key(&line.0) && ctt.src_overlapping(line, CACHELINE).is_empty()
        });
        #[cfg(feature = "trace")]
        if !ready.is_empty() {
            mcs_trace::emit(mcs_trace::Event::BpqDrain {
                mc: mcid as u16,
                lines: ready.len() as u32,
                at: self.now,
            });
        }
        for e in ready {
            io.dram_write(e.line, e.data);
        }
    }
}

impl CopyEngine for McSquareEngine {
    fn on_arrive(&mut self, _now: Cycle, mcid: usize, pkt: Packet, io: &mut EngineIo) -> Verdict {
        #[cfg(feature = "trace")]
        {
            self.now = _now;
        }
        match pkt.cmd {
            MemCmd::Mclazy(desc) => self.on_mclazy(mcid, pkt.clone(), desc, io),
            MemCmd::Mcfree(FreeDesc { addr, size }) => {
                self.ctt.free_contained(addr, size);
                Verdict::Consumed
            }
            MemCmd::ReadReq => self.on_read(mcid, pkt, io),
            MemCmd::WriteReq | MemCmd::LazyDestWrite => self.on_write(mcid, pkt, io),
            MemCmd::BounceRead(info) => {
                // Serve a remote reconstruction: read the source line from
                // *memory* (not the BPQ — the held write is newer than the
                // copy point, Fig. 9 state 3).
                self.n.bounce_serves += 1;
                let tag = self.next_tag;
                self.next_tag += 1;
                self.tags.insert(tag, TagKind::BounceServe { info });
                io.dram_read(tag, info.src.line_base());
                Verdict::Consumed
            }
            MemCmd::BounceResp(info) => {
                let data = pkt.data.expect("bounce response carries data");
                let bytes = data.read(info.dest_off as usize, info.len as usize).to_vec();
                self.fragment_done(PhysAddr(info.token), info.dest_off, &bytes, pkt.poisoned, io);
                Verdict::Consumed
            }
            _ => Verdict::Pass(pkt),
        }
    }

    fn on_dram_read(
        &mut self,
        _now: Cycle,
        _mcid: usize,
        tag: u64,
        _addr: PhysAddr,
        data: LineData,
        poisoned: bool,
        io: &mut EngineIo,
    ) {
        #[cfg(feature = "trace")]
        {
            self.now = _now;
        }
        match self.tags.remove(&tag).expect("unknown engine tag") {
            TagKind::Frag { dest_line, dest_off, len, src_off } => {
                let bytes = data.read(src_off as usize, len as usize).to_vec();
                self.fragment_done(dest_line, dest_off, &bytes, poisoned, io);
            }
            TagKind::BounceServe { info } => {
                // Pack the fragment at its destination offset and reply.
                let mut payload = LineData::ZERO;
                let off = info.src.line_off() as usize;
                payload.write(info.dest_off as usize, data.read(off, info.len as usize));
                let pkt = Packet {
                    id: mcs_sim::packet::fresh_id(),
                    cmd: MemCmd::BounceResp(info),
                    addr: info.src.line_base(),
                    data: Some(payload),
                    dest: Node::Mc(info.reply_to),
                    is_prefetch: false,
                    core: None,
                    needs_ack: false,
                    poisoned,
                };
                io.send(pkt);
            }
        }
    }

    fn tick(&mut self, _now: Cycle, mcid: usize, io: &mut EngineIo) {
        #[cfg(feature = "trace")]
        {
            self.now = _now;
        }
        self.bpq_release_tick(mcid, io);
        self.drain_tick(mcid, io);
    }

    fn needs_tick(&self, mcid: usize) -> bool {
        // Mirrors what tick() would do for this controller: release BPQ
        // entries, advance in-flight drain jobs, or launch new ones when
        // CTT occupancy is at the drain threshold.
        !self.bpqs[mcid].is_empty()
            || !self.drains[mcid].is_empty()
            || self.ctt.occupancy() >= self.cfg.drain_threshold
    }

    fn busy(&self) -> bool {
        !self.recons.is_empty()
            || !self.arming.is_empty()
            || !self.tags.is_empty()
            || self.bpqs.iter().any(|b| !b.is_empty())
            || self.drains.iter().any(|d| !d.is_empty())
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let c = &self.n;
        let s = &self.ctt.stats;
        vec![
            ("ctt_inserts".into(), s.inserts),
            ("ctt_full_rejects".into(), s.full_rejects),
            ("ctt_chain_collapses".into(), s.chain_collapses),
            ("ctt_peak_entries".into(), s.peak_segments),
            ("ctt_freed_entries".into(), s.freed_entries),
            ("ctt_live_entries".into(), self.ctt.len() as u64),
            ("ctt_hw_entries".into(), self.ctt.hw_entries() as u64),
            ("bounces_sent".into(), c.bounces_sent),
            ("bounce_serves".into(), c.bounce_serves),
            ("recon_demand".into(), c.recon_demand),
            ("recon_src_flush".into(), c.recon_src_flush),
            ("recon_drain".into(), c.recon_drain),
            ("dest_writebacks".into(), c.dest_writebacks),
            ("writebacks_rejected".into(), c.writebacks_rejected),
            ("reads_from_bpq".into(), c.reads_from_bpq),
            ("bpq_full_retries".into(), c.bpq_full_retries),
            ("ctt_full_retries".into(), c.ctt_full_retries),
            ("flush_retries".into(), c.flush_retries),
            ("drained_entries".into(), c.drained_entries),
            ("lazy_dest_writes".into(), c.lazy_dest_writes),
            ("mclazy_acked".into(), c.mclazy_acked),
            ("bpq_peak".into(), self.bpqs.iter().map(|b| b.peak as u64).max().unwrap_or(0)),
            ("forced_flushes".into(), c.forced_flushes),
            ("dropped_entries".into(), c.dropped_entries),
            ("eager_fallbacks".into(), c.eager_fallbacks),
        ]
    }

    /// The *materialized* value of `line`: BPQ-held source writes first
    /// (they are newer than memory), then CTT-tracked fragments overlaid
    /// on the destination line's backing memory. `None` for untracked
    /// lines — memory is already authoritative there.
    fn peek_line(&self, mem: &SparseMem, line: PhysAddr) -> Option<LineData> {
        let line = line.line_base();
        for b in &self.bpqs {
            if let Some(d) = b.get(line) {
                return Some(*d);
            }
        }
        let frags = self.ctt.lookup_line(line);
        if frags.is_empty() {
            return None;
        }
        let mut buf = mem.read_line(line);
        for Fragment { dst, len, src } in frags {
            let bytes = mem.read_bytes(src, len as usize);
            buf.write((dst.0 - line.0) as usize, &bytes);
        }
        Some(buf)
    }

    /// Audit the engine's internal bookkeeping (the `check-invariants`
    /// feature): CTT structural invariants, pin/reconstruction agreement,
    /// tag liveness, arming bounds, and BPQ forward progress.
    #[cfg(feature = "check-invariants")]
    fn validate(&mut self, now: Cycle) -> Result<(), String> {
        self.ctt.check_invariants()?;

        // The pin multiset is exactly the union of in-flight
        // reconstructions' pinned source lines (unpinned when the copy
        // data is captured). A mismatch means a leaked or double-freed
        // pin, which would wedge BPQ releases or MCLAZY arming forever.
        let mut want: FastMap<u64, usize> = FastMap::default();
        for r in self.recons.values() {
            for l in &r.pinned {
                *want.entry(l.0).or_insert(0) += 1;
            }
        }
        if want != self.pins {
            return Err(format!(
                "pin ledger disagrees with reconstructions at cycle {now}: \
                 pins {:?} vs pinned-by-recons {:?}",
                self.pins, want
            ));
        }

        for (line, r) in &self.recons {
            if matches!(r.state, ReconState::Filling) {
                if r.outstanding == 0 {
                    return Err(format!(
                        "recon of line {line:#x} is Filling with zero \
                         outstanding fragments at cycle {now}"
                    ));
                }
                if r.outstanding as usize > r.pinned.len() {
                    return Err(format!(
                        "recon of line {line:#x} has more outstanding \
                         fragments ({}) than pinned sources ({}) at cycle {now}",
                        r.outstanding,
                        r.pinned.len()
                    ));
                }
            }
        }

        // Every local-fragment tag must point at a live Filling recon;
        // a dangling tag means the DRAM read's result will be dropped and
        // the reconstruction can never complete.
        for (tag, kind) in &self.tags {
            if let TagKind::Frag { dest_line, .. } = kind {
                match self.recons.get(&dest_line.0) {
                    Some(r) if matches!(r.state, ReconState::Filling) => {}
                    other => {
                        return Err(format!(
                            "fragment tag {tag} targets line {:#x} with no \
                             Filling recon ({other:?}) at cycle {now}",
                            dest_line.0
                        ));
                    }
                }
            }
        }

        for (id, rem) in &self.arming {
            if *rem > self.channels as u32 {
                return Err(format!(
                    "MCLAZY {id} arming count {rem} exceeds {} controllers \
                     at cycle {now}",
                    self.channels
                ));
            }
        }

        // BPQ forward progress: `bpq_release_tick` runs every cycle, so an
        // entry whose release condition held at the previous audit and
        // still holds now was skipped — a stuck entry (it would deadlock
        // fences waiting on the held write).
        let mut releasable = mcs_sim::hash::FastSet::default();
        for (mcid, bpq) in self.bpqs.iter().enumerate() {
            for e in bpq.iter() {
                if !self.pins.contains_key(&e.line.0)
                    && self.ctt.src_overlapping(e.line, CACHELINE).is_empty()
                {
                    releasable.insert((mcid, e.line.0));
                }
            }
        }
        if let Some((mcid, line)) = releasable.intersection(&self.releasable_memo).next() {
            return Err(format!(
                "BPQ entry for line {line:#x} at controller {mcid} has been \
                 releasable across two audits without being released (stuck) \
                 at cycle {now}"
            ));
        }
        self.releasable_memo = releasable;
        Ok(())
    }

    /// Destination lines with an active (not superseded) reconstruction.
    /// While one is in flight every read of the line joins the recon, so
    /// no cache may hold a dirty copy.
    #[cfg(feature = "check-invariants")]
    fn reconstructing_lines(&self) -> Vec<PhysAddr> {
        self.recons
            .iter()
            .filter(|(_, r)| matches!(r.state, ReconState::Filling) && !r.superseded)
            .map(|(l, _)| PhysAddr(*l))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sim::packet::fresh_id;

    fn engine() -> McSquareEngine {
        McSquareEngine::new(McSquareConfig::tiny(), 2)
    }

    impl McSquareEngine {
        fn counters_map(&self) -> FastMap<String, u64> {
            self.counters().into_iter().collect()
        }
    }

    fn read_pkt(addr: u64, mc: usize) -> Packet {
        Packet::read(PhysAddr(addr), Node::Mc(mc))
    }

    fn write_pkt(addr: u64, mc: usize, val: u8) -> Packet {
        Packet::write(PhysAddr(addr), LineData::splat(val), Node::Mc(mc))
    }

    fn mclazy_pkt(dst: u64, src: u64, size: u64, mc: usize) -> Packet {
        Packet {
            id: fresh_id(),
            cmd: MemCmd::Mclazy(LazyDesc { dst: PhysAddr(dst), src: PhysAddr(src), size }),
            addr: PhysAddr(dst),
            data: None,
            dest: Node::Mc(mc),
            is_prefetch: false,
            core: Some(0),
            needs_ack: false,
            poisoned: false,
        }
    }

    /// Deliver an MCLAZY broadcast (one copy per controller); the table
    /// arms on the last arrival.
    fn insert(e: &mut McSquareEngine, dst: u64, src: u64, size: u64) {
        let pkt = mclazy_pkt(dst, src, size, 0);
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, pkt.clone(), &mut io), Verdict::Consumed));
        assert!(
            !io.sends.iter().any(|(p, _)| p.cmd == MemCmd::MclazyAck),
            "no ack until the broadcast completes"
        );
        let mut io = EngineIo::default();
        match e.on_arrive(0, 1, pkt, &mut io) {
            Verdict::Consumed => {}
            other => panic!("insert rejected: {other:?}"),
        }
        assert!(io.sends.iter().any(|(p, _)| p.cmd == MemCmd::MclazyAck));
    }

    #[test]
    fn untracked_reads_and_writes_pass_through() {
        let mut e = engine();
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, read_pkt(0x1000, 0), &mut io), Verdict::Pass(_)));
        assert!(matches!(e.on_arrive(0, 0, write_pkt(0x1000, 0, 1), &mut io), Verdict::Pass(_)));
        assert!(io.dram_reads.is_empty() && io.sends.is_empty());
    }

    #[test]
    fn source_reads_pass_destination_reads_reconstruct() {
        let mut e = engine();
        // dst line 0x2000 is on channel 0 (line index even).
        insert(&mut e, 0x2000, 0x10000, 64);
        let mut io = EngineIo::default();
        assert!(
            matches!(e.on_arrive(1, 0, read_pkt(0x10000, 0), &mut io), Verdict::Pass(_)),
            "source reads proceed without interference (§III-B2)"
        );
        let mut io = EngineIo::default();
        match e.on_arrive(2, 0, read_pkt(0x2000, 0), &mut io) {
            Verdict::Consumed => {}
            other => panic!("dest read must be consumed: {other:?}"),
        }
        // Source is on this channel → a local tagged DRAM read.
        assert_eq!(io.dram_reads.len(), 1);
        assert!(e.busy());
    }

    #[test]
    fn reconstruction_answers_reader_and_writes_back() {
        let mut e = engine();
        insert(&mut e, 0x2000, 0x10000, 64);
        let req = read_pkt(0x2000, 0);
        let req_id = req.id;
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, req, &mut io), Verdict::Consumed));
        let (tag, addr) = io.dram_reads[0];
        // Plenty of room: writeback allowed.
        let mut io = EngineIo { wpq: (0, 8), ..Default::default() };
        e.on_dram_read(5, 0, tag, addr, LineData::splat(7), false, &mut io);
        let resp = io.sends.iter().find(|(p, _)| p.cmd == MemCmd::ReadResp).expect("reply");
        assert_eq!(resp.0.id, req_id);
        assert_eq!(resp.0.data, Some(LineData::splat(7)));
        assert_eq!(io.dram_writes.len(), 1, "post-bounce writeback");
        assert!(!e.ctt().covers_dst(PhysAddr(0x2000), 64), "entry removed after writeback");
    }

    #[test]
    fn busy_wpq_rejects_writeback_and_keeps_entry() {
        let mut e = engine();
        insert(&mut e, 0x2000, 0x10000, 64);
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, read_pkt(0x2000, 0), &mut io), Verdict::Consumed));
        let (tag, addr) = io.dram_reads[0];
        // ≥ 75% full → reject (§III-B2).
        let mut io = EngineIo { wpq: (7, 8), ..Default::default() };
        e.on_dram_read(5, 0, tag, addr, LineData::splat(7), false, &mut io);
        assert!(io.dram_writes.is_empty(), "writeback rejected under contention");
        assert!(e.ctt().covers_dst(PhysAddr(0x2000), 64), "entry stays tracked");
    }

    #[test]
    fn cross_channel_destination_bounces() {
        let mut e = engine();
        // dst on channel 0, src line 0x10040 on channel 1.
        insert(&mut e, 0x2000, 0x10040, 64);
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, read_pkt(0x2000, 0), &mut io), Verdict::Consumed));
        assert!(io.dram_reads.is_empty());
        let bounce = io
            .sends
            .iter()
            .find(|(p, _)| matches!(p.cmd, MemCmd::BounceRead(_)))
            .expect("bounce sent to the source's controller");
        assert_eq!(bounce.0.dest, Node::Mc(1));
    }

    #[test]
    fn source_write_goes_to_bpq_and_flushes() {
        let mut e = engine();
        insert(&mut e, 0x2000, 0x10000, 64);
        let mut io = EngineIo::default();
        match e.on_arrive(0, 0, write_pkt(0x10000, 0, 9), &mut io) {
            Verdict::Consumed => {}
            other => panic!("source write must be held: {other:?}"),
        }
        assert_eq!(io.dram_reads.len(), 1, "flush reconstruction starts");
        // BPQ merge of a second write to the same line.
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(1, 0, write_pkt(0x10000, 0, 10), &mut io), Verdict::Consumed));
    }

    #[test]
    fn bpq_full_retries_new_source_lines() {
        let mut e = engine(); // tiny: bpq 2 entries
        insert(&mut e, 0x2000, 0x10000, 64);
        insert(&mut e, 0x2080, 0x10080, 64);
        insert(&mut e, 0x2100, 0x10100, 64);
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, write_pkt(0x10000, 0, 1), &mut io), Verdict::Consumed));
        assert!(matches!(e.on_arrive(0, 0, write_pkt(0x10080, 0, 2), &mut io), Verdict::Consumed));
        match e.on_arrive(0, 0, write_pkt(0x10100, 0, 3), &mut io) {
            Verdict::Retry(_) => {}
            other => panic!("full BPQ must back-pressure: {other:?}"),
        }
    }

    #[test]
    fn ctt_full_retries_mclazy() {
        let mut e = engine(); // tiny: 8 entries (with +1 insert headroom)
        for i in 0..7u64 {
            insert(&mut e, 0x100000 + i * 0x2000, 0x400000 + i * 0x4000, 64);
        }
        let pkt = mclazy_pkt(0x300000, 0x500000, 64, 0);
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, pkt.clone(), &mut io), Verdict::Consumed));
        match e.on_arrive(0, 1, pkt, &mut io) {
            Verdict::Retry(_) => {}
            other => panic!("full CTT must stall MCLAZY: {other:?}"),
        }
        assert!(!io.sends.iter().any(|(p, _)| p.cmd == MemCmd::MclazyAck));
    }

    #[test]
    fn mcfree_drops_tracking_without_traffic() {
        let mut e = engine();
        insert(&mut e, 0x2000, 0x10000, 128);
        let pkt = Packet {
            id: fresh_id(),
            cmd: MemCmd::Mcfree(FreeDesc { addr: PhysAddr(0x2000), size: 128 }),
            addr: PhysAddr(0x2000),
            data: None,
            dest: Node::Mc(0),
            is_prefetch: false,
            core: None,
            needs_ack: false,
            poisoned: false,
        };
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, pkt, &mut io), Verdict::Consumed));
        assert!(io.dram_reads.is_empty() && io.dram_writes.is_empty());
        assert_eq!(e.ctt().len(), 0);
    }

    #[test]
    fn drain_starts_above_threshold_only() {
        let mut e = engine(); // capacity 8, threshold 0.5
        insert(&mut e, 0x100000, 0x400000, 64);
        let mut io = EngineIo::default();
        e.tick(0, 0, &mut io);
        e.tick(0, 1, &mut io);
        assert!(io.dram_reads.is_empty(), "below threshold: no drain");
        for i in 1..5u64 {
            insert(&mut e, 0x100000 + i * 0x2000, 0x400000 + i * 0x4000, 64);
        }
        let mut io = EngineIo::default();
        e.tick(1, 0, &mut io);
        e.tick(1, 1, &mut io);
        assert!(
            !io.dram_reads.is_empty() || !io.sends.is_empty(),
            "above threshold the drain engine must start copying"
        );
    }

    #[test]
    fn forced_flush_fault_drains_below_threshold() {
        let mut plan = FaultPlan::none();
        plan.seed = 7;
        plan.ctt_flush_rate = 1.0;
        let mut e = McSquareEngine::with_faults(McSquareConfig::tiny(), 2, &plan);
        insert(&mut e, 0x2000, 0x10000, 64); // occupancy 1/8: below threshold
        assert_eq!(e.counters_map()["forced_flushes"], 1);
        // The forced drain job copies the entry out on the next ticks.
        let mut io = EngineIo::default();
        e.tick(0, 0, &mut io);
        e.tick(0, 1, &mut io);
        assert!(
            !io.dram_reads.is_empty() || !io.sends.is_empty(),
            "forced flush must start copying despite sub-threshold occupancy"
        );
    }

    #[test]
    fn dropped_entry_is_repaired_by_eager_recopy() {
        let mut plan = FaultPlan::none();
        plan.seed = 7;
        plan.ctt_drop_rate = 1.0;
        let mut e = McSquareEngine::with_faults(McSquareConfig::tiny(), 2, &plan);
        let mut io = EngineIo::default();
        // Deliver controller 0's broadcast copy last: the insert (and the
        // injected drop + repair) then execute at controller 0, which owns
        // the source line — the repair read is local and visible in `io`.
        let pkt = mclazy_pkt(0x2000, 0x10000, 64, 0);
        assert!(matches!(e.on_arrive(0, 1, pkt.clone(), &mut io), Verdict::Consumed));
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, pkt, &mut io), Verdict::Consumed));
        assert!(!e.ctt().covers_dst(PhysAddr(0x2000), 64), "metadata dropped");
        assert_eq!(e.counters_map()["dropped_entries"], 1);
        assert_eq!(e.counters_map()["eager_fallbacks"], 1);
        // Repair: an eager re-copy reconstruction reads the source.
        assert_eq!(io.dram_reads.len(), 1, "repair re-copy starts immediately");
        let (tag, addr) = io.dram_reads[0];
        let mut io = EngineIo::default();
        e.on_dram_read(1, 0, tag, addr, LineData::splat(9), false, &mut io);
        assert_eq!(io.dram_writes.len(), 1, "repair writes the copy eagerly");
        assert_eq!(io.dram_writes[0].0, PhysAddr(0x2000));
        assert_eq!(io.dram_writes[0].1, LineData::splat(9));
    }

    #[test]
    fn drop_without_repair_mutant_loses_the_copy() {
        let mut plan = FaultPlan::none();
        plan.seed = 7;
        plan.ctt_drop_rate = 1.0;
        let mut e = McSquareEngine::with_faults(McSquareConfig::tiny(), 2, &plan);
        e.set_chaos_mutation(ChaosMutation::DropWithoutRepair);
        insert(&mut e, 0x2000, 0x10000, 64);
        assert!(!e.ctt().covers_dst(PhysAddr(0x2000), 64));
        assert_eq!(e.counters_map()["dropped_entries"], 1);
        assert_eq!(e.counters_map()["eager_fallbacks"], 0, "mutant skips the repair");
        assert!(!e.busy(), "no repair reconstruction in flight");
    }

    #[test]
    fn poisoned_fragment_taints_response_and_writeback() {
        let mut e = engine();
        insert(&mut e, 0x2000, 0x10000, 64);
        let mut io = EngineIo::default();
        assert!(matches!(e.on_arrive(0, 0, read_pkt(0x2000, 0), &mut io), Verdict::Consumed));
        let (tag, addr) = io.dram_reads[0];
        let mut io = EngineIo { wpq: (0, 8), ..Default::default() };
        e.on_dram_read(5, 0, tag, addr, LineData::splat(7), true, &mut io);
        let resp = io.sends.iter().find(|(p, _)| p.cmd == MemCmd::ReadResp).expect("reply");
        assert!(resp.0.poisoned, "poison propagates to the demand response");
        assert_eq!(resp.0.data, Some(LineData::splat(7)), "bytes still functional");
        assert_eq!(io.dram_writes.len(), 1);
        assert!(io.dram_writes[0].2, "writeback re-poisons the destination line");
    }

    #[test]
    fn peek_line_materializes_tracked_lines() {
        let mut e = engine();
        let mut mem = SparseMem::default();
        mem.write_line(PhysAddr(0x10000), LineData::splat(3));
        mem.write_line(PhysAddr(0x2000), LineData::splat(1));
        assert_eq!(e.peek_line(&mem, PhysAddr(0x2000)), None, "untracked: memory rules");
        insert(&mut e, 0x2000, 0x10000, 64);
        assert_eq!(
            e.peek_line(&mem, PhysAddr(0x2000)),
            Some(LineData::splat(3)),
            "tracked line reads through to the source bytes"
        );
    }

    #[test]
    fn counters_cover_key_events() {
        let mut e = engine();
        insert(&mut e, 0x2000, 0x10000, 64);
        let names: Vec<String> = e.counters().into_iter().map(|(k, _)| k).collect();
        for key in ["ctt_inserts", "bounces_sent", "dest_writebacks", "ctt_full_retries"] {
            assert!(names.iter().any(|n| n == key), "missing counter {key}");
        }
    }
}
