//! Top-level system: wires cores, L1s, the LLC, the interconnect, memory
//! controllers, DRAM channels, and the copy engine, and runs the clock.

use crate::bus::Bus;
use crate::cache::l1::{L1Out, L1};
use crate::cache::llc::{Llc, LlcOut};
use crate::cache::{CoreToL1, L1ToCore, L1ToLlc, LlcToL1};
use crate::config::SystemConfig;
use crate::core::{Core, CoreOut};
use crate::data::{LineData, SparseMem};
use crate::engine::{CopyEngine, NullEngine};
use crate::link::DelayQueue;
use crate::mc::MemCtrl;
use crate::packet::LazyDesc;
use crate::program::Program;
use crate::stats::{RunStats, SchedStats};
use crate::addr::{lines_of, PhysAddr};
use crate::Cycle;

/// Why a run stopped early. Both variants carry enough per-component
/// state — memory-controller queue depths and per-core pipeline snapshots
/// — that a hung run is debuggable from the error value alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget was exhausted before all programs finished.
    Timeout {
        /// Budget that was exceeded.
        max_cycles: Cycle,
        /// Cores that had not finished.
        unfinished: Vec<usize>,
        /// Per-MC (rpq, wpq, inflight) depths at the timeout.
        mc_queues: Vec<(usize, usize, usize)>,
        /// Per-core pipeline snapshots (ROB head, fence state, store
        /// buffer, outstanding loads) at the timeout.
        cores: Vec<String>,
    },
    /// The liveness watchdog fired: no component made forward progress
    /// (retires, DRAM accesses, LLC activity) for a whole observation
    /// window while work was still outstanding.
    Livelock {
        /// Cycle at which the watchdog gave up.
        at: Cycle,
        /// Consecutive progress-free ticks that triggered it.
        idle_for: Cycle,
        /// Cores that had not finished.
        unfinished: Vec<usize>,
        /// Per-MC (rpq, wpq, inflight) depths when the watchdog fired.
        mc_queues: Vec<(usize, usize, usize)>,
        /// Per-core pipeline snapshots when the watchdog fired.
        cores: Vec<String>,
    },
}

impl SimError {
    /// Per-MC (rpq, wpq, inflight) depths captured when the run stopped.
    pub fn mc_queues(&self) -> &[(usize, usize, usize)] {
        match self {
            SimError::Timeout { mc_queues, .. } | SimError::Livelock { mc_queues, .. } => mc_queues,
        }
    }

    /// Per-core pipeline snapshots captured when the run stopped.
    pub fn core_states(&self) -> &[String] {
        match self {
            SimError::Timeout { cores, .. } | SimError::Livelock { cores, .. } => cores,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Timeout { max_cycles, unfinished, mc_queues, cores } => {
                writeln!(
                    f,
                    "simulation exceeded {max_cycles} cycles; unfinished cores {unfinished:?}"
                )?;
                writeln!(f, "  mc queues (rpq, wpq, inflight): {mc_queues:?}")?;
                for c in cores {
                    writeln!(f, "  {c}")?;
                }
                Ok(())
            }
            SimError::Livelock { at, idle_for, unfinished, mc_queues, cores } => {
                writeln!(
                    f,
                    "livelock: no forward progress for {idle_for} ticks \
(gave up at cycle {at}); unfinished cores {unfinished:?}"
                )?;
                writeln!(f, "  mc queues (rpq, wpq, inflight): {mc_queues:?}")?;
                for c in cores {
                    writeln!(f, "  {c}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// How the run loop advances simulated time. [`SchedMode::Conservative`]
/// and [`SchedMode::EventDriven`] execute the same cycles and produce
/// identical statistics; they differ only in how much per-cycle work is
/// elided. [`SchedMode::TickByTick`] is the reference, and the two
/// skipping modes currently depart from it in two known ways (DESIGN.md
/// §2.10): cycles jumped by whole-machine skip-ahead are missing from
/// per-core cycle accounting, and a skip may jump over the LLC's deferred
/// retries, which shifts timing by a few cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Execute every component on every cycle, never skipping ahead.
    /// Slowest; the reference the other modes are checked against.
    TickByTick,
    /// Execute every component on every *executed* cycle, jumping over
    /// cycles only when the whole machine is provably idle (the legacy
    /// scheduler).
    Conservative,
    /// Execute the same cycle set as [`SchedMode::Conservative`], but
    /// within each executed cycle skip components that provably cannot
    /// act, batching their idle accounting. The default.
    #[default]
    EventDriven,
}

/// Cached readiness of a component, valid until it next executes: all
/// scheduling-relevant state of a core mutates only inside its own phase
/// (inbox arrival is covered separately by a queue peek), so the verdict
/// computed right after an execution holds for every elided cycle since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Readiness {
    /// Has immediate internal work: must execute every cycle.
    Active,
    /// Nothing to do before this cycle (`Cycle::MAX` = only external
    /// input can wake it).
    WakeAt(Cycle),
    /// The core ran its program to completion: never self-wakes and its
    /// elided cycles are not idle-accounted (a finished core's tick is a
    /// no-op, not a stall).
    Finished,
}

/// A complete simulated machine.
pub struct System {
    cfg: SystemConfig,
    now: Cycle,
    cores: Vec<Core>,
    l1s: Vec<L1>,
    llc: Llc,
    bus: Bus,
    mcs: Vec<MemCtrl>,
    engine: Box<dyn CopyEngine>,
    mem: SparseMem,
    core_to_l1: Vec<DelayQueue<CoreToL1>>,
    l1_to_core: Vec<DelayQueue<L1ToCore>>,
    /// Request virtual network (GetS/GetM/Clwb/NtWrite/Mclazy/Mcfree).
    l1_to_llc: Vec<DelayQueue<L1ToLlc>>,
    /// Response virtual network (RecallAck/PutM): never blocked
    /// by stalled requests, which would deadlock the directory.
    l1_to_llc_resp: Vec<DelayQueue<L1ToLlc>>,
    llc_to_l1: Vec<DelayQueue<LlcToL1>>,
    sched: SchedMode,
    /// Executed cycles during which core `i` was elided but not yet
    /// accounted (flushed before the core next runs, and at run exit).
    idle_pending: Vec<u64>,
    /// First cycle of core `i`'s current elision streak.
    idle_first: Vec<Cycle>,
    /// Cached per-core readiness, recomputed after each execution of the
    /// core's phase. `Active` is the safe reset value (never elides).
    core_ready: Vec<Readiness>,
    /// [`Core::has_internal_work`] at core `i`'s last execution: the
    /// whole-machine skip gate. Looser than `core_ready` (a store waiting
    /// on a load in flight blocks skipping but not elision), which keeps
    /// the set of executed cycles independent of how precisely components
    /// are elided.
    core_blocks_skip: Vec<bool>,
    /// L1 `i` refused its core's head request (MSHRs full) when it last
    /// ran; until an LLC message can free an MSHR, retrying is a no-op.
    l1_refused: Vec<bool>,
    /// Cached per-controller readiness (never `Finished`); engine
    /// background work is probed fresh each cycle via `needs_tick`, since
    /// engine state is shared across controllers.
    mc_ready: Vec<Readiness>,
    /// Last executed cycle at which controller `i` was elided since it
    /// last ran (replayed by [`MemCtrl::replay_elided`] before it next
    /// runs).
    mc_last_elided: Vec<Option<Cycle>>,
    /// Always-on scheduler counters, reported in [`RunStats::sched`].
    sched_stats: SchedStats,
    /// Per-phase output buffers, reused across cycles so the hot loop
    /// allocates nothing once capacities have warmed up.
    scratch_core: CoreOut,
    scratch_l1: L1Out,
    scratch_llc: LlcOut,
    scratch_mc: Vec<(crate::packet::Packet, Cycle)>,
    /// Interconnect fault streams (None ⇔ empty plan).
    link_fault: Option<LinkFaults>,
    #[cfg(feature = "check-invariants")]
    checker: crate::check::Checker,
}

/// Decision streams for interconnect faults (jitter, duplication).
struct LinkFaults {
    jitter: crate::fault::FaultStream,
    dup: crate::fault::FaultStream,
}

/// Whether an interconnect packet may safely be delivered twice: posted
/// (unacked) writes are idempotent re-applications of the same line data,
/// `Mcfree` is a hint, and the LLC ignores stray `MclazyAck`s. Everything
/// matched against an outstanding request (responses, acks that complete
/// CLWBs, engine commands that mutate the CTT) must not be duplicated.
fn dup_safe(pkt: &crate::packet::Packet) -> bool {
    use crate::packet::MemCmd;
    match pkt.cmd {
        MemCmd::Mcfree(_) | MemCmd::MclazyAck => true,
        MemCmd::WriteReq | MemCmd::LazyDestWrite => !pkt.needs_ack,
        _ => false,
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "System(t={}, {} cores, {} MCs)", self.now, self.cores.len(), self.mcs.len())
    }
}

impl System {
    /// Build a baseline system (no lazy-copy engine) running `programs`.
    ///
    /// # Panics
    /// Panics if `programs.len() != cfg.cores`.
    pub fn new(cfg: SystemConfig, programs: Vec<Box<dyn Program>>) -> System {
        System::with_engine(cfg, programs, Box::new(NullEngine))
    }

    /// Build a system with a custom copy engine (the `mcsquare` crate's
    /// (MC)² engine, or any other [`CopyEngine`]).
    ///
    /// # Panics
    /// Panics if `programs.len() != cfg.cores`, or if `cfg.cores` exceeds
    /// the 32 cores the LLC's sharer bitmask can name.
    pub fn with_engine(
        cfg: SystemConfig,
        programs: Vec<Box<dyn Program>>,
        engine: Box<dyn CopyEngine>,
    ) -> System {
        assert!(
            cfg.cores <= u32::BITS as usize,
            "{} cores exceed the LLC sharer mask's limit of {} cores",
            cfg.cores,
            u32::BITS
        );
        assert_eq!(programs.len(), cfg.cores, "one program per core");
        let cores: Vec<Core> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Core::new(i, cfg.core.clone(), p))
            .collect();
        let l1s: Vec<L1> = (0..cfg.cores).map(|i| L1::new(i, cfg.l1.clone())).collect();
        let llc = Llc::new(cfg.llc.clone(), cfg.channels);
        let bus = Bus::new(cfg.channels, cfg.links.llc_mc, cfg.links.mc_mc);
        let mut mcs: Vec<MemCtrl> = (0..cfg.channels)
            .map(|i| MemCtrl::new(i, cfg.mc.clone(), crate::dram::build(&cfg.dram, cfg.channels)))
            .collect();
        for mc in &mut mcs {
            mc.set_fault_plan(&cfg.fault);
        }
        let link_fault = (!cfg.fault.is_empty()).then(|| LinkFaults {
            jitter: cfg.fault.stream(crate::fault::domain::LINK_JITTER, 0),
            dup: cfg.fault.stream(crate::fault::domain::LINK_DUP, 0),
        });
        fn mk<T>(n: usize, lat: Cycle) -> Vec<DelayQueue<T>> {
            (0..n).map(|_| DelayQueue::new(lat)).collect()
        }
        let n = cfg.cores;
        System {
            now: 0,
            cores,
            l1s,
            llc,
            bus,
            mcs,
            engine,
            mem: SparseMem::new(),
            core_to_l1: mk(n, cfg.links.core_l1),
            l1_to_core: mk(n, cfg.links.core_l1),
            l1_to_llc: mk(n, cfg.links.l1_llc),
            l1_to_llc_resp: mk(n, cfg.links.l1_llc),
            llc_to_l1: mk(n, cfg.links.l1_llc),
            sched: SchedMode::EventDriven,
            idle_pending: vec![0; n],
            idle_first: vec![0; n],
            core_ready: vec![Readiness::Active; n],
            core_blocks_skip: vec![true; n],
            l1_refused: vec![false; n],
            mc_ready: vec![Readiness::Active; cfg.channels],
            mc_last_elided: vec![None; cfg.channels],
            sched_stats: SchedStats::default(),
            scratch_core: CoreOut::default(),
            scratch_l1: L1Out::default(),
            scratch_llc: LlcOut::default(),
            scratch_mc: Vec::new(),
            link_fault,
            #[cfg(feature = "check-invariants")]
            checker: crate::check::Checker::default(),
            cfg,
        }
    }

    /// Put `pkt` on the memory interconnect, applying any configured link
    /// faults: jitter delays the send, and duplication-safe packets may be
    /// delivered twice (one cycle apart). Rolls are per-send, so the fault
    /// schedule is independent of idle skip-ahead.
    fn send_bus(&mut self, now: Cycle, pkt: crate::packet::Packet, extra: Cycle) {
        let mut extra = extra;
        if let Some(lf) = self.link_fault.as_mut() {
            if lf.jitter.roll(self.cfg.fault.link_jitter_rate) {
                extra += self.cfg.fault.link_jitter_cycles;
            }
            if lf.dup.roll(self.cfg.fault.link_dup_rate) && dup_safe(&pkt) {
                let dup = pkt.clone();
                #[cfg(feature = "check-invariants")]
                self.checker.observe_send(&dup);
                self.bus.send(now, dup, extra + 1);
            }
        }
        #[cfg(feature = "check-invariants")]
        self.checker.observe_send(&pkt);
        self.bus.send(now, pkt, extra);
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Select the run-loop scheduler (see [`SchedMode`] for how the modes
    /// agree).
    pub fn set_sched_mode(&mut self, mode: SchedMode) {
        self.sched = mode;
    }

    /// Write bytes directly into simulated DRAM, bypassing timing
    /// (workload initialisation).
    pub fn poke(&mut self, addr: PhysAddr, bytes: &[u8]) {
        self.mem.write_bytes(addr, bytes);
    }

    /// Read bytes directly from simulated DRAM, bypassing timing and caches.
    /// Note: dirty cached data is not reflected; use after a drained run.
    pub fn peek(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        self.mem.read_bytes(addr, len)
    }

    /// Advance one cycle, ticking every component unconditionally.
    pub fn tick(&mut self) {
        // A caller may interleave manual ticks with event-driven runs:
        // settle any batched idle accounting before executing everything,
        // and drop the cached readiness verdicts (`Active` never elides).
        self.flush_idle();
        self.reset_readiness();
        let now = self.now;
        for i in 0..self.cores.len() {
            self.phase_core(now, i);
        }
        for i in 0..self.l1s.len() {
            let _ = self.phase_l1(now, i);
        }
        self.phase_llc(now);
        for i in 0..self.mcs.len() {
            self.phase_mc(now, i);
        }
        self.tick_epilogue(now);
    }

    /// Advance one cycle, skipping components that provably cannot act.
    /// Executes exactly the same architectural events as [`System::tick`]
    /// at this cycle; elided cores have their per-cycle accounting batched
    /// and replayed by [`Core::account_idle`] before they next run.
    fn tick_event(&mut self) {
        let now = self.now;

        // 1. Cores. A core can act only when its inbox has a deliverable
        //    response, it has internal work, or an internal timer (compute
        //    completion, delayed load issue) has matured. The cached
        //    verdict makes the elided-cycle check O(1).
        for i in 0..self.cores.len() {
            let ready = match self.core_ready[i] {
                Readiness::Active => true,
                Readiness::WakeAt(w) => w <= now,
                Readiness::Finished => false,
            };
            if !ready && self.l1_to_core[i].peek(now).is_none() {
                if self.core_ready[i] != Readiness::Finished {
                    if self.idle_pending[i] == 0 {
                        self.idle_first[i] = now;
                    }
                    self.idle_pending[i] += 1;
                }
                continue;
            }
            self.flush_idle_core(i);
            self.phase_core(now, i);
            let c = &self.cores[i];
            let act = c.can_act();
            self.core_ready[i] = if c.finished() {
                Readiness::Finished
            } else if act {
                Readiness::Active
            } else {
                Readiness::WakeAt(c.next_event().unwrap_or(Cycle::MAX))
            };
            self.core_blocks_skip[i] = act || c.has_unsent_stores();
        }

        // 2. L1s are purely message-driven: no input, no work. A refused
        //    core request blocks its queue until an LLC message (a fill)
        //    frees an MSHR, so only LLC input wakes a refused L1.
        for i in 0..self.l1s.len() {
            if self.llc_to_l1[i].peek(now).is_some()
                || (!self.l1_refused[i] && self.core_to_l1[i].peek(now).is_some())
            {
                self.l1_refused[i] = self.phase_l1(now, i);
            }
        }

        // 3. LLC: deferred replays or any deliverable input.
        if self.llc.has_retries()
            || self.bus.to_llc.peek(now).is_some()
            || self.l1_to_llc.iter().any(|q| q.peek(now).is_some())
            || self.l1_to_llc_resp.iter().any(|q| q.peek(now).is_some())
        {
            self.phase_llc(now);
        }

        // 4. MCs: deliverable input, a due completion, refresh window or
        //    request issue, or engine background work. The cached
        //    readiness covers controller-internal state (valid until the
        //    controller next ticks); `needs_tick` is probed fresh every
        //    cycle because the engine's state is shared and another
        //    controller's phase may have changed it. Refresh windows count
        //    as work so `sync` applies them (and stats/trace see them) at
        //    exactly the cycles the full tick would. Blocked input still
        //    wakes the controller through the peek, so its input-stall
        //    count stays exact.
        for i in 0..self.mcs.len() {
            let ready = match self.mc_ready[i] {
                Readiness::Active => true,
                Readiness::WakeAt(w) => w <= now,
                Readiness::Finished => unreachable!("controllers never finish"),
            };
            if ready || self.bus.to_mc[i].peek(now).is_some() || self.engine.needs_tick(i) {
                self.phase_mc(now, i);
                self.mc_ready[i] = match self.mcs[i].readiness() {
                    None => Readiness::Active,
                    Some(w) => Readiness::WakeAt(w),
                };
            } else {
                self.mc_last_elided[i] = Some(now);
            }
        }

        self.tick_epilogue(now);
    }

    /// Phase 1 for core `i`: consume L1 responses, then advance.
    fn phase_core(&mut self, now: Cycle, i: usize) {
        self.sched_stats.core_execs += 1;
        while let Some(msg) = self.l1_to_core[i].pop(now) {
            self.cores[i].handle_l1(now, msg);
        }
        let mut out = std::mem::take(&mut self.scratch_core);
        self.cores[i].tick(now, &mut out);
        for m in out.to_l1.drain(..) {
            self.core_to_l1[i].push(now, m);
        }
        self.scratch_core = out;
    }

    /// Phase 2 for L1 `i`: consume LLC messages, then core requests (with
    /// flow control), producing core responses and LLC requests. Returns
    /// whether the L1 refused the core's head request (MSHRs full).
    /// Refusal has no effect on simulated state, so the same request is
    /// refused again until an LLC message frees an MSHR.
    fn phase_l1(&mut self, now: Cycle, i: usize) -> bool {
        self.sched_stats.l1_execs += 1;
        let mut out = std::mem::take(&mut self.scratch_l1);
        while let Some(msg) = self.llc_to_l1[i].pop(now) {
            self.l1s[i].handle_llc(now, msg, &mut out);
        }
        let mut refused = false;
        for _ in 0..8 {
            let Some(msg) = self.core_to_l1[i].peek(now) else { break };
            let msg = msg.clone();
            if self.l1s[i].handle_core(now, &msg, &mut out) {
                let _ = self.core_to_l1[i].pop(now);
            } else {
                refused = true;
                break;
            }
        }
        for (m, extra) in out.to_core.drain(..) {
            self.l1_to_core[i].push_after(now, extra, m);
        }
        for m in out.to_llc.drain(..) {
            // Route by virtual network: responses must never queue
            // behind a blocked request.
            match m {
                L1ToLlc::RecallAck { .. } | L1ToLlc::PutM { .. } => {
                    self.l1_to_llc_resp[i].push(now, m)
                }
                other => self.l1_to_llc[i].push(now, other),
            }
        }
        self.scratch_l1 = out;
        refused
    }

    /// Phase 3: LLC replays deferred work, consumes L1 requests (performing
    /// the MCLAZY snoop where needed), consumes memory responses.
    fn phase_llc(&mut self, now: Cycle) {
        self.sched_stats.llc_execs += 1;
        let mut out = std::mem::take(&mut self.scratch_llc);
        // Responses first: they are always accepted and unblock MSHRs.
        for i in 0..self.l1_to_llc_resp.len() {
            while let Some(msg) = self.l1_to_llc_resp[i].pop(now) {
                let accepted = self.llc.handle_l1(now, msg, &mut out);
                debug_assert!(accepted, "responses are always accepted");
            }
        }
        self.llc.begin_cycle(now, &mut out);
        for i in 0..self.l1_to_llc.len() {
            for _ in 0..8 {
                let Some(msg) = self.l1_to_llc[i].peek(now) else { break };
                if let L1ToLlc::Mclazy { desc, .. } = msg {
                    let desc = *desc;
                    let queues: Vec<&DelayQueue<L1ToLlc>> = self
                        .l1_to_llc_resp
                        .iter()
                        .collect();
                    Self::snoop_mclazy(&mut self.l1s, &mut self.llc, &queues, desc, &mut out);
                    // The snoop mutates L1s outside their own phase.
                    self.l1_refused.fill(false);
                }
                let msg = self.l1_to_llc[i].peek(now).expect("still there").clone();
                if self.llc.handle_l1(now, msg, &mut out) {
                    let _ = self.l1_to_llc[i].pop(now);
                } else {
                    break;
                }
            }
        }
        while let Some(pkt) = self.bus.to_llc.pop(now) {
            self.llc.handle_pkt(now, pkt, &mut out);
        }
        for (l1, m, extra) in out.to_l1.drain(..) {
            self.llc_to_l1[l1].push_after(now, extra, m);
        }
        for (pkt, extra) in out.to_bus.drain(..) {
            self.send_bus(now, pkt, extra);
        }
        self.scratch_llc = out;
    }

    /// Phase 4 for memory controller `i`.
    fn phase_mc(&mut self, now: Cycle, i: usize) {
        self.sched_stats.mc_execs += 1;
        if let Some(last) = self.mc_last_elided[i].take() {
            self.mcs[i].replay_elided(last);
        }
        let mut out = std::mem::take(&mut self.scratch_mc);
        // Split-borrow: temporarily take the input queue.
        let mut input = std::mem::replace(&mut self.bus.to_mc[i], DelayQueue::new(0));
        self.mcs[i].tick(now, &mut input, self.engine.as_mut(), &mut self.mem, &mut out);
        self.bus.to_mc[i] = input;
        for (pkt, extra) in out.drain(..) {
            self.send_bus(now, pkt, extra);
        }
        self.scratch_mc = out;
    }

    /// End of an executed cycle: periodic invariant checks, trace samples,
    /// and the clock edge.
    fn tick_epilogue(&mut self, now: Cycle) {
        let _ = now;

        #[cfg(feature = "check-invariants")]
        {
            self.checker.ticks += 1;
            if self.checker.ticks.is_multiple_of(1024) {
                self.validate_invariants(false);
            }
        }

        #[cfg(feature = "trace")]
        self.trace_sample(now);

        self.sched_stats.executed_cycles += 1;
        self.now += 1;
    }

    /// Replay core `i`'s batched idle accounting (no-op when none).
    fn flush_idle_core(&mut self, i: usize) {
        let k = self.idle_pending[i];
        if k > 0 {
            self.idle_pending[i] = 0;
            self.cores[i].account_idle(k, self.idle_first[i]);
        }
    }

    /// Replay all cores' batched idle accounting (run exits, mode mixes).
    fn flush_idle(&mut self) {
        for i in 0..self.cores.len() {
            self.flush_idle_core(i);
        }
    }

    /// Invalidate all cached readiness verdicts. Called whenever component
    /// state may have changed outside the event-driven loop's own phases
    /// (manual ticks, run entry after external setters).
    fn reset_readiness(&mut self) {
        self.core_ready.fill(Readiness::Active);
        self.core_blocks_skip.fill(true);
        self.l1_refused.fill(false);
        self.mc_ready.fill(Readiness::Active);
    }

    /// Push one interval sample per memory controller into the armed
    /// trace sink when an epoch boundary has been reached. Observational
    /// only: reads queue depths and cumulative counters, never sim state.
    /// Idle skip-ahead lands on event cycles, so a jumped-over boundary is
    /// sampled at the first tick after it (the sample carries its actual
    /// cycle; intervals are differenced, not assumed uniform).
    #[cfg(feature = "trace")]
    fn trace_sample(&mut self, now: Cycle) {
        let mcs = &self.mcs;
        mcs_trace::with_sink(|sink| {
            if !sink.series.due(now) {
                return;
            }
            for mc in mcs.iter() {
                let (rpq, wpq, inflight) = mc.queue_depths();
                sink.series.push(mcs_trace::McSample {
                    cycle: now,
                    mc: mc.id as u16,
                    rpq: rpq as u32,
                    wpq: wpq as u32,
                    inflight: inflight as u32,
                    reads: mc.stats.reads,
                    writes: mc.stats.writes,
                    engine_accesses: mc.stats.engine_reads + mc.stats.engine_writes,
                    row_hits: mc.stats.row_hits,
                    row_misses: mc.stats.row_misses + mc.stats.row_conflicts,
                    refreshes: mc.stats.refreshes,
                });
            }
            sink.series.advance(now);
        });
    }

    /// The MCLAZY broadcast snoop (§III-B1 step 2): write back every dirty
    /// source line from the L1s and the LLC, and invalidate every
    /// destination line everywhere. Performed atomically when the MCLAZY
    /// message reaches the LLC; its timing cost is carried by the CLWB
    /// instructions the software wrapper issues per source line (§IV).
    fn snoop_mclazy(
        l1s: &mut [L1],
        llc: &mut Llc,
        in_flight: &[&DelayQueue<L1ToLlc>],
        desc: LazyDesc,
        out: &mut LlcOut,
    ) {
        for line in lines_of(desc.src, desc.size) {
            let mut merged: Option<LineData> = None;
            for l1 in l1s.iter_mut() {
                if let Some(d) = l1.snoop_writeback(line) {
                    merged = Some(d);
                }
            }
            // Dirty data may also be on the wire between an L1 and the
            // LLC (an eviction's PutM or a CLWB's payload). The paper's
            // guarantee — writebacks reach the controller before the
            // MCLAZY packet — requires the snoop to see those too, or the
            // LLC would absorb them dirty after the CTT already assumed
            // memory holds the source. The newest in-flight copy wins.
            for q in in_flight {
                for msg in q.iter() {
                    match msg {
                        L1ToLlc::PutM { line: l, data, .. } if l.line_base() == line => {
                            merged = Some(*data);
                        }
                        L1ToLlc::Clwb { line: l, data: Some(d), .. }
                            if l.line_base() == line =>
                        {
                            merged = Some(*d);
                        }
                        L1ToLlc::RecallAck { line: l, data: Some(d), .. }
                            if l.line_base() == line =>
                        {
                            merged = Some(*d);
                        }
                        _ => {}
                    }
                }
            }
            match merged {
                Some(d) => llc.snoop_merge_writeback(line, d, out),
                None => llc.snoop_writeback(line, out),
            }
        }
        for line in lines_of(desc.dst, desc.size) {
            for l1 in l1s.iter_mut() {
                l1.snoop_invalidate(line);
            }
            llc.snoop_invalidate(line);
        }
    }

    fn quiescent_links(&self, at: Cycle) -> bool {
        self.core_to_l1.iter().all(|q| q.peek(at).is_none())
            && self.l1_to_core.iter().all(|q| q.peek(at).is_none())
            && self.l1_to_llc.iter().all(|q| q.peek(at).is_none())
            && self.l1_to_llc_resp.iter().all(|q| q.peek(at).is_none())
            && self.llc_to_l1.iter().all(|q| q.peek(at).is_none())
            && self.bus.to_llc.peek(at).is_none()
            && self.bus.to_mc.iter().all(|q| q.peek(at).is_none())
    }

    fn all_done(&self) -> bool {
        self.cores.iter().all(|c| c.finished())
            && self.quiescent_links(Cycle::MAX)
            && self.mcs.iter().all(|m| m.idle())
            && !self.llc.busy()
            && !self.engine.busy()
    }

    fn skip_target(&self) -> Option<Cycle> {
        // Only skip when no link has a deliverable message next cycle and
        // no core can make internal progress; then jump to the earliest
        // future event.
        let next = self.now + 1;
        if !self.quiescent_links(next) {
            return None;
        }
        let mut hint: Option<Cycle> = None;
        let mut merge = |c: Option<Cycle>| {
            hint = match (hint, c) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        for q in &self.core_to_l1 {
            merge(q.next_ready());
        }
        for q in &self.l1_to_core {
            merge(q.next_ready());
        }
        for q in &self.l1_to_llc {
            merge(q.next_ready());
        }
        for q in &self.l1_to_llc_resp {
            merge(q.next_ready());
        }
        for q in &self.llc_to_l1 {
            merge(q.next_ready());
        }
        merge(self.bus.next_event());
        for m in &self.mcs {
            merge(m.next_event());
        }
        for c in &self.cores {
            merge(c.next_event());
        }
        match hint {
            Some(h) if h > next => Some(h),
            _ => None,
        }
    }

    /// Run until every program finishes and all queues drain, or until
    /// `max_cycles` elapse.
    ///
    /// # Errors
    /// Returns [`SimError::Timeout`] if the budget is exhausted first.
    pub fn run(&mut self, max_cycles: Cycle) -> Result<RunStats, SimError> {
        self.run_inner(max_cycles, None)
    }

    /// Like [`System::run`], but with a liveness watchdog: if no component
    /// makes forward progress (core retires, DRAM accesses or forwards,
    /// LLC hits/misses) for `window` consecutive executed ticks while work
    /// is still outstanding, the run aborts with [`SimError::Livelock`]
    /// carrying per-component queue snapshots. Ticks, not cycles: idle
    /// skip-ahead jumps (which are legitimate waits) never trip it.
    ///
    /// # Errors
    /// [`SimError::Timeout`] or [`SimError::Livelock`].
    pub fn run_with_watchdog(
        &mut self,
        max_cycles: Cycle,
        window: Cycle,
    ) -> Result<RunStats, SimError> {
        self.run_inner(max_cycles, Some(window))
    }

    /// Monotonic activity measure for the liveness watchdog.
    fn progress_metric(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.retired).sum::<u64>()
            + self
                .mcs
                .iter()
                .map(|m| m.stats.reads + m.stats.writes + m.stats.wpq_forwards)
                .sum::<u64>()
            + self.llc.stats.hits
            + self.llc.stats.misses
    }

    fn unfinished_cores(&self) -> Vec<usize> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.finished())
            .map(|(i, _)| i)
            .collect()
    }

    fn mc_queue_snapshot(&self) -> Vec<(usize, usize, usize)> {
        self.mcs.iter().map(|m| m.queue_depths()).collect()
    }

    fn core_snapshot(&self) -> Vec<String> {
        self.cores.iter().map(|c| c.debug_state()).collect()
    }

    fn run_inner(
        &mut self,
        max_cycles: Cycle,
        watchdog: Option<Cycle>,
    ) -> Result<RunStats, SimError> {
        let start = self.now;
        let mut stable = 0u32;
        let mut last_metric = self.progress_metric();
        let mut idle_ticks: Cycle = 0;
        // External setters (fault plans, mode switches) may have touched
        // component state since the last run: start from a clean slate.
        self.reset_readiness();
        while self.now - start < max_cycles {
            match self.sched {
                SchedMode::EventDriven => self.tick_event(),
                _ => self.tick(),
            }
            if let Some(window) = watchdog {
                let m = self.progress_metric();
                if m != last_metric {
                    last_metric = m;
                    idle_ticks = 0;
                } else {
                    idle_ticks += 1;
                    if idle_ticks >= window && !self.all_done() {
                        self.flush_idle();
                        return Err(SimError::Livelock {
                            at: self.now,
                            idle_for: idle_ticks,
                            unfinished: self.unfinished_cores(),
                            mc_queues: self.mc_queue_snapshot(),
                            cores: self.core_snapshot(),
                        });
                    }
                }
            }
            if self.all_done() {
                // A few grace ticks so posted work settles, then stop.
                stable += 1;
                if stable >= 2 {
                    self.flush_idle();
                    #[cfg(feature = "check-invariants")]
                    self.validate_invariants(true);
                    return Ok(self.collect_stats());
                }
            } else {
                stable = 0;
                // Conservative idle skip: every core is stalled on external
                // events, and those events are all in the future. The cheap
                // all-cores-inactive gate runs first so configurations that
                // cannot skip (an active core) never pay for the link scan.
                // Under the event-driven scheduler the cached flags give the
                // same answer in O(cores): `has_internal_work` at a core's
                // last execution cannot change while it is elided.
                let cores_inactive = match self.sched {
                    SchedMode::TickByTick => false,
                    SchedMode::EventDriven => self.core_blocks_skip.iter().all(|b| !b),
                    SchedMode::Conservative => self
                        .cores
                        .iter()
                        .enumerate()
                        .all(|(i, c)| self.idle_pending[i] > 0 || c.finished() || !c.has_internal_work()),
                };
                if cores_inactive {
                    if let Some(target) = self.skip_target() {
                        // With the watchdog armed, a skip of a whole
                        // observation window means nothing in the
                        // machine can act for `window` cycles while
                        // work is outstanding (e.g. an injected stall
                        // parked traffic inside a controller): that is
                        // a livelock, not a wait — report it rather
                        // than silently jumping over it.
                        if let Some(window) = watchdog {
                            if target.saturating_sub(self.now) >= window {
                                self.flush_idle();
                                return Err(SimError::Livelock {
                                    at: self.now,
                                    idle_for: target - self.now,
                                    unfinished: self.unfinished_cores(),
                                    mc_queues: self.mc_queue_snapshot(),
                                    cores: self.core_snapshot(),
                                });
                            }
                        }
                        self.sched_stats.skipped_cycles += target - self.now;
                        self.now = target;
                    }
                }
            }
        }
        self.flush_idle();
        Err(SimError::Timeout {
            max_cycles,
            unfinished: self.unfinished_cores(),
            mc_queues: self.mc_queue_snapshot(),
            cores: self.core_snapshot(),
        })
    }

    /// Diagnostic snapshot of blocking state (for debugging stuck
    /// simulations; not a stable format).
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "t={}", self.now);
        for c in &self.cores {
            let _ = writeln!(s, "  {}", c.debug_state());
        }
        for (i, l1) in self.l1s.iter().enumerate() {
            let _ = writeln!(s, "  l1[{i}] busy={}", l1.busy());
        }
        let _ = writeln!(s, "  llc busy={}", self.llc.busy());
        for (i, m) in self.mcs.iter().enumerate() {
            let _ = writeln!(s, "  mc[{i}] idle={} next={:?}", m.idle(), m.next_event());
        }
        let _ = writeln!(
            s,
            "  links: c2l={:?} l2c={:?} l2llc={:?} l2llc_resp={:?} llc2l={:?} bus_llc={} bus_mc={:?} engine_busy={}",
            self.core_to_l1.iter().map(|q| q.len()).collect::<Vec<_>>(),
            self.l1_to_core.iter().map(|q| q.len()).collect::<Vec<_>>(),
            self.l1_to_llc.iter().map(|q| q.len()).collect::<Vec<_>>(),
            self.l1_to_llc_resp.iter().map(|q| q.len()).collect::<Vec<_>>(),
            self.llc_to_l1.iter().map(|q| q.len()).collect::<Vec<_>>(),
            self.bus.to_llc.len(),
            self.bus.to_mc.iter().map(|q| q.len()).collect::<Vec<_>>(),
            self.engine.busy(),
        );
        s
    }

    /// Occupancy probe for diagnostics: (core loads issued, core SB, core
    /// ROB, per-L1 MSHRs, LLC MSHRs).
    pub fn probe(&self) -> (usize, usize, usize, Vec<usize>, usize) {
        (
            self.cores[0].issued_loads(),
            self.cores[0].sb_len(),
            self.cores[0].rob_len(),
            self.l1s.iter().map(|l| l.mshr_count()).collect(),
            self.llc.mshr_count(),
        )
    }

    /// MC queue depths + bus queue depths (diagnostics).
    pub fn probe_mc(&self) -> Vec<(usize, usize, usize, usize)> {
        self.mcs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let (r, w, f) = m.queue_depths();
                (r, w, f, self.bus.to_mc[i].len())
            })
            .collect()
    }

    /// Whether every core's program completed (may still be draining).
    pub fn cores_finished(&self) -> bool {
        self.cores.iter().all(|c| c.finished())
    }

    /// All malformed-packet audit reports across controllers.
    pub fn audit_reports(&self) -> Vec<String> {
        self.mcs.iter().flat_map(|m| m.audit_reports().iter().cloned()).collect()
    }

    /// Read bytes as the *materialized* logical memory image, the view a
    /// demand read would return: the owning L1's copy wins, then the LLC,
    /// then lines the copy engine still tracks lazily (reconstructed
    /// through [`CopyEngine::peek_line`] rather than read stale from DRAM),
    /// then DRAM. Differential checkers compare it against an eager
    /// oracle. Meaningful after a drained run (no in-flight recons).
    pub fn peek_materialized(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        let mut rem = len;
        while rem > 0 {
            let off = a.line_off() as usize;
            let take = rem.min(64 - off);
            let line = self
                .l1s
                .iter()
                .rev()
                .find_map(|l1| l1.peek_line(a).copied())
                .or_else(|| self.llc.peek_line(a).copied())
                .or_else(|| self.engine.peek_line(&self.mem, a.line_base()))
                .unwrap_or_else(|| self.mem.read_line(a));
            out.extend_from_slice(line.read(off, take));
            a = a.add(take as u64);
            rem -= take;
        }
        out
    }

    /// Audit global invariants: coherence directory agreement, copy-engine
    /// internal state, CTT/cache exclusivity, and stats sanity. Called
    /// periodically from [`System::tick`] and, with `quiescent = true`
    /// (which adds the strict end-state checks), when a run completes.
    ///
    /// # Panics
    /// Panics describing the first violated invariant.
    #[cfg(feature = "check-invariants")]
    pub fn validate_invariants(&mut self, quiescent: bool) {
        use crate::hash::FastMap;

        // --- Coherence: MSI single-owner + directory agreement ---------
        // owners: line -> L1s holding it Modified; resident: line -> L1s
        // holding it in any state (for inclusion).
        let mut owners: FastMap<u64, Vec<usize>> = FastMap::default();
        let mut resident: FastMap<u64, Vec<usize>> = FastMap::default();
        let mut dirty_m: FastMap<u64, usize> = FastMap::default();
        for (i, l1) in self.l1s.iter().enumerate() {
            for (line, modified, dirty) in l1.check_lines() {
                resident.entry(line.0).or_default().push(i);
                if modified {
                    owners.entry(line.0).or_default().push(i);
                    if dirty {
                        dirty_m.insert(line.0, i);
                    }
                }
            }
        }
        for (line, who) in &owners {
            assert!(
                who.len() <= 1,
                "invariant violation (coherence): line {:#x} held Modified by \
                 multiple L1s {who:?} at cycle {}",
                line,
                self.now
            );
        }
        let dir: FastMap<u64, (Option<usize>, u32)> = self
            .llc
            .check_lines()
            .into_iter()
            .map(|(a, owner, sharers)| (a.0, (owner, sharers)))
            .collect();
        for (line, who) in &owners {
            let i = who[0];
            let agrees = dir.get(line).is_some_and(|(owner, _)| *owner == Some(i));
            // Mid-run, a recall/grant for the line may be in flight: the
            // LLC then holds an MSHR serialising the transition.
            let in_transition = !quiescent
                && (self.llc.check_has_mshr(PhysAddr(*line)) || self.l1s[i].check_has_mshr(PhysAddr(*line)));
            assert!(
                agrees || in_transition,
                "invariant violation (coherence): L1 {i} holds line {:#x} \
                 Modified but the directory says {:?} and no transaction is \
                 in flight, at cycle {}",
                line,
                dir.get(line),
                self.now
            );
        }
        // Inclusion: an L1-resident line is tracked by the inclusive LLC
        // (resident, or mid-eviction with an MSHR serialising it). An LLC
        // eviction drops clean sharers with unacked `Inval`s, so mid-run
        // the line may instead have an `Inval` on the way to every holder.
        for (line, who) in &resident {
            let inval_in_flight = |i: usize| {
                self.llc_to_l1[i]
                    .iter()
                    .any(|m| matches!(m, LlcToL1::Inval { line: l } if l.0 == *line))
            };
            assert!(
                self.llc.check_tracks(PhysAddr(*line))
                    || (!quiescent && who.iter().all(|&i| inval_in_flight(i))),
                "invariant violation (coherence): line {:#x} resident in \
                 L1s {who:?} but not tracked by the inclusive LLC, at cycle {}",
                line,
                self.now
            );
        }

        // --- Copy engine: internal audit + CTT/cache exclusivity -------
        if let Err(msg) = self.engine.validate(self.now) {
            panic!("invariant violation (copy engine) at cycle {}: {msg}", self.now);
        }
        for line in self.engine.reconstructing_lines() {
            assert!(
                !dirty_m.contains_key(&line.0),
                "invariant violation (exclusivity): core {} holds a dirty \
                 Modified copy of line {:#x} while the engine is \
                 reconstructing it from the CTT, at cycle {}",
                dirty_m[&line.0],
                line.0,
                self.now
            );
        }

        // --- Stats: exact stall attribution + monotonic counters --------
        if self.checker.core_snap.len() != self.cores.len() {
            self.checker.core_snap = vec![(0, 0, 0); self.cores.len()];
        }
        for (i, c) in self.cores.iter().enumerate() {
            if let Err(msg) = c.stats.check_stall_accounting() {
                panic!("invariant violation (stats, core {i}) at cycle {}: {msg}", self.now);
            }
            let cur = (c.stats.cycles, c.stats.retired, c.stats.stalled_cycles);
            let prev = self.checker.core_snap[i];
            assert!(
                cur.0 >= prev.0 && cur.1 >= prev.1 && cur.2 >= prev.2,
                "invariant violation (stats, core {i}): counters went \
                 backwards, {prev:?} -> {cur:?}, at cycle {}",
                self.now
            );
            self.checker.core_snap[i] = cur;
        }
        let mem_cur = (
            self.llc.stats.hits + self.llc.stats.misses,
            self.mcs.iter().map(|m| m.stats.reads + m.stats.writes).sum::<u64>(),
        );
        assert!(
            mem_cur.0 >= self.checker.mem_snap.0 && mem_cur.1 >= self.checker.mem_snap.1,
            "invariant violation (stats): LLC/MC counters went backwards, \
             {:?} -> {mem_cur:?}, at cycle {}",
            self.checker.mem_snap,
            self.now
        );
        self.checker.mem_snap = mem_cur;

        // --- Quiescence: strict end-state checks ------------------------
        if quiescent {
            self.checker.assert_quiescent();
            for (i, l1) in self.l1s.iter().enumerate() {
                assert_eq!(
                    l1.mshr_count(),
                    0,
                    "invariant violation (liveness): L1 {i} has MSHRs \
                     outstanding in a quiescent system"
                );
            }
            assert_eq!(
                self.llc.mshr_count(),
                0,
                "invariant violation (liveness): LLC has MSHRs outstanding \
                 in a quiescent system"
            );
            assert!(
                self.engine.reconstructing_lines().is_empty(),
                "invariant violation (liveness): reconstructions outstanding \
                 in a quiescent system: {:?}",
                self.engine.reconstructing_lines()
            );
        }
    }

    /// Collect statistics.
    pub fn collect_stats(&self) -> RunStats {
        RunStats {
            cycles: self.now,
            cores: self.cores.iter().map(|c| c.stats.clone()).collect(),
            l1: self.l1s.iter().map(|l| l.stats.clone()).collect(),
            llc: self.llc.stats.clone(),
            mcs: self.mcs.iter().map(|m| m.stats.clone()).collect(),
            engine: self.engine.counters().into_iter().collect(),
            sched: self.sched_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FixedProgram;
    use crate::uop::{StatTag, StoreData, Uop, UopKind};

    fn ld(addr: u64, size: u8) -> Uop {
        Uop::new(UopKind::Load { addr: PhysAddr(addr), size }, StatTag::App)
    }

    fn st(addr: u64, bytes: &[u8]) -> Uop {
        Uop::new(
            UopKind::Store {
                addr: PhysAddr(addr),
                size: bytes.len() as u8,
                data: StoreData::Imm(bytes.to_vec()),
                nontemporal: false,
            },
            StatTag::App,
        )
    }

    fn run_one(uops: Vec<Uop>) -> (System, RunStats) {
        let mut sys = System::new(
            SystemConfig::tiny(),
            vec![Box::new(FixedProgram::new(uops))],
        );
        let stats = sys.run(100_000).expect("finishes");
        (sys, stats)
    }

    #[test]
    fn single_load_reads_memory() {
        let cfg = SystemConfig::tiny();
        let mut sys = System::new(cfg, vec![Box::new(FixedProgram::new(vec![ld(0x1000, 8)]))]);
        sys.poke(PhysAddr(0x1000), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let stats = sys.run(100_000).expect("finishes");
        assert_eq!(stats.cores[0].loads, 1);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn store_then_load_forwards_or_reads_back() {
        let (_, stats) = run_one(vec![st(0x2000, &[42]), ld(0x2000, 1)]);
        assert_eq!(stats.cores[0].retired, 2);
    }

    #[test]
    fn store_becomes_visible_in_memory_after_fence_and_drain() {
        let uops = vec![
            st(0x3000, &[9, 8, 7]),
            Uop::new(UopKind::Clwb { addr: PhysAddr(0x3000) }, StatTag::App),
            Uop::new(UopKind::Mfence, StatTag::App),
        ];
        let (sys, _) = run_one(uops);
        assert_eq!(sys.peek(PhysAddr(0x3000), 3), vec![9, 8, 7]);
    }

    #[test]
    fn eager_memcpy_program_copies_data() {
        // 4-line memcpy: load src line, store to dst line (FromLoad).
        let src = 0x10000u64;
        let dst = 0x20000u64;
        let mut uops = Vec::new();
        for i in 0..4u64 {
            let lid = uops.len() as u64;
            uops.push(ld(src + i * 64, 64));
            uops.push(Uop::new(
                UopKind::Store {
                    addr: PhysAddr(dst + i * 64),
                    size: 64,
                    data: StoreData::FromLoad { load: lid, offset: 0 },
                    nontemporal: false,
                },
                StatTag::Memcpy,
            ));
        }
        for i in 0..4u64 {
            uops.push(Uop::new(UopKind::Clwb { addr: PhysAddr(dst + i * 64) }, StatTag::Memcpy));
        }
        uops.push(Uop::new(UopKind::Mfence, StatTag::Memcpy));

        let mut sys = System::new(SystemConfig::tiny(), vec![Box::new(FixedProgram::new(uops))]);
        let pattern: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        sys.poke(PhysAddr(src), &pattern);
        sys.run(1_000_000).expect("finishes");
        assert_eq!(sys.peek(PhysAddr(dst), 256), pattern);
    }

    #[test]
    fn nontemporal_store_reaches_memory() {
        let uops = vec![
            Uop::new(
                UopKind::Store {
                    addr: PhysAddr(0x4000),
                    size: 64,
                    data: StoreData::Splat(0xaa),
                    nontemporal: true,
                },
                StatTag::App,
            ),
            Uop::new(UopKind::Mfence, StatTag::App),
        ];
        let (sys, _) = run_one(uops);
        assert_eq!(sys.peek(PhysAddr(0x4000), 64), vec![0xaa; 64]);
    }

    #[test]
    fn determinism_same_seed_same_cycles() {
        let mk = || {
            let mut uops = Vec::new();
            for i in 0..50u64 {
                uops.push(ld(0x1000 + (i * 97 % 64) * 64, 8));
                uops.push(st(0x9000 + i * 64, &[i as u8]));
            }
            uops
        };
        let (_, s1) = run_one(mk());
        let (_, s2) = run_one(mk());
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.llc.misses, s2.llc.misses);
    }

    #[test]
    fn fast_forward_matches_slow_path() {
        let mk = || {
            let uops: Vec<Uop> = (0..20u64).map(|i| ld(0x5000 + i * 4096, 8)).collect();
            FixedProgram::new(uops)
        };
        let mut a = System::new(SystemConfig::tiny(), vec![Box::new(mk())]);
        a.set_sched_mode(SchedMode::TickByTick);
        let sa = a.run(1_000_000).unwrap();
        let mut b = System::new(SystemConfig::tiny(), vec![Box::new(mk())]);
        b.set_sched_mode(SchedMode::EventDriven);
        let sb = b.run(1_000_000).unwrap();
        assert_eq!(sa.cycles, sb.cycles, "skip-ahead must not change timing");
    }

    #[test]
    fn multicore_disjoint_programs_finish() {
        let mut cfg = SystemConfig::tiny();
        cfg.cores = 2;
        let p0: Vec<Uop> = (0..10u64).map(|i| ld(0x10000 + i * 64, 8)).collect();
        let p1: Vec<Uop> = (0..10u64).map(|i| st(0x20000 + i * 64, &[1])).collect();
        let mut sys = System::new(
            cfg,
            vec![Box::new(FixedProgram::new(p0)), Box::new(FixedProgram::new(p1))],
        );
        let stats = sys.run(1_000_000).expect("finishes");
        assert_eq!(stats.cores[0].loads, 10);
        assert_eq!(stats.cores[1].stores, 10);
    }

    #[test]
    #[should_panic(expected = "33 cores exceed the LLC sharer mask's limit of 32 cores")]
    fn more_cores_than_sharer_bits_are_refused() {
        let mut cfg = SystemConfig::tiny();
        cfg.cores = 33;
        let programs: Vec<Box<dyn Program>> =
            (0..33).map(|_| Box::new(FixedProgram::new(vec![])) as Box<dyn Program>).collect();
        let _ = System::new(cfg, programs);
    }

    #[test]
    fn cross_core_store_visibility() {
        // Core 0 stores then fences; core 1 loads the same line afterwards.
        // Without ordering primitives across cores we just check the final
        // coherent value.
        let mut cfg = SystemConfig::tiny();
        cfg.cores = 2;
        let p0 = vec![st(0x7000, &[5]), Uop::new(UopKind::Mfence, StatTag::App)];
        let p1 = vec![ld(0x7040, 1)]; // disjoint line, keeps core busy
        let mut sys = System::new(
            cfg,
            vec![Box::new(FixedProgram::new(p0)), Box::new(FixedProgram::new(p1))],
        );
        sys.run(1_000_000).expect("finishes");
        assert_eq!(sys.peek_materialized(PhysAddr(0x7000), 1), vec![5]);
    }

    #[test]
    fn prefetched_streams_complete_with_prefetch_enabled() {
        // Regression: L1-initiated prefetch GetS must be granted by the
        // LLC, or demand loads merging into the prefetch MSHR hang.
        let mut cfg = SystemConfig::tiny();
        cfg.l1.prefetch = true;
        cfg.l1.prefetch_degree = 4;
        cfg.llc.prefetch = true;
        cfg.llc.prefetch_degree = 4;
        let uops: Vec<Uop> = (0..64u64).map(|i| ld(0x100000 + i * 64, 8)).collect();
        let mut sys = System::new(cfg, vec![Box::new(FixedProgram::new(uops))]);
        let stats = sys.run(1_000_000).expect("must not hang");
        assert_eq!(stats.cores[0].loads, 64);
        let pf: u64 = stats.l1.iter().map(|l| l.prefetches_issued).sum();
        assert!(pf > 0, "prefetcher must fire on a streaming read");
    }

    #[test]
    fn pipeline_flush_serialises_compute() {
        // Two 1000-cycle computes: unflushed they overlap in the ROB;
        // flushed they cannot.
        let mk = |flush: bool| {
            let mut uops = Vec::new();
            for _ in 0..2 {
                if flush {
                    uops.push(Uop::new(UopKind::PipelineFlush, StatTag::App));
                }
                uops.push(Uop::new(UopKind::Compute { cycles: 1000 }, StatTag::App));
            }
            FixedProgram::new(uops)
        };
        let mut a = System::new(SystemConfig::tiny(), vec![Box::new(mk(false))]);
        let ta = a.run(1_000_000).unwrap().cycles;
        let mut b = System::new(SystemConfig::tiny(), vec![Box::new(mk(true))]);
        let tb = b.run(1_000_000).unwrap().cycles;
        assert!(ta < 1500, "unflushed computes overlap: {ta}");
        assert!(tb >= 2000, "flushed computes serialise: {tb}");
    }

    #[test]
    fn wbrange_flushes_dirty_data_to_memory() {
        let uops = vec![
            st(0x5000, &[1, 2, 3]),
            st(0x5040, &[4, 5, 6]),
            Uop::new(UopKind::WbRange { addr: PhysAddr(0x5000), size: 128 }, StatTag::App),
            Uop::new(UopKind::Mfence, StatTag::App),
        ];
        let (sys, _) = run_one(uops);
        assert_eq!(sys.peek(PhysAddr(0x5000), 3), vec![1, 2, 3]);
        assert_eq!(sys.peek(PhysAddr(0x5040), 3), vec![4, 5, 6]);
    }

    #[test]
    fn timeout_reports_unfinished() {
        // A load that can never complete does not exist in this system, so
        // emulate with an absurdly small budget.
        let mut sys =
            System::new(SystemConfig::tiny(), vec![Box::new(FixedProgram::new(vec![ld(0, 8)]))]);
        let err = sys.run(1).unwrap_err();
        match err {
            SimError::Timeout { ref unfinished, ref cores, .. } => {
                assert_eq!(unfinished, &vec![0]);
                assert_eq!(cores.len(), 1, "per-core diagnostics included");
            }
            ref other => panic!("expected timeout, got {other:?}"),
        }
        // The error alone carries the queue and pipeline diagnostics.
        assert_eq!(err.mc_queues().len(), 2);
        assert!(err.core_states()[0].contains("core0"), "{:?}", err.core_states());
    }

    #[test]
    fn watchdog_reports_livelock_with_queue_snapshots() {
        // An injected controller stall far longer than the watchdog window
        // freezes all progress while queues stay occupied: a fabricated
        // hang the watchdog must convert into a structured error.
        let mut cfg = SystemConfig::tiny();
        cfg.fault = crate::fault::FaultPlan {
            seed: 1,
            mc_stall_rate: 1.0,
            mc_stall_cycles: 10_000_000,
            ..crate::fault::FaultPlan::none()
        };
        let uops: Vec<Uop> = (0..4u64).map(|i| ld(0x1000 + i * 4096, 8)).collect();
        let mut sys = System::new(cfg, vec![Box::new(FixedProgram::new(uops))]);
        let err = sys.run_with_watchdog(5_000_000, 2_000).unwrap_err();
        match err {
            SimError::Livelock { idle_for, ref unfinished, ref mc_queues, ref cores, .. } => {
                assert!(idle_for >= 2_000);
                assert_eq!(unfinished, &vec![0]);
                assert_eq!(mc_queues.len(), 2);
                assert!(
                    mc_queues.iter().any(|&(r, w, f)| r + w + f > 0),
                    "stalled work must be visible in the snapshot: {mc_queues:?}"
                );
                assert!(!cores.is_empty());
            }
            other => panic!("expected livelock, got {other}"),
        }
    }

    #[test]
    fn watchdog_does_not_fire_on_healthy_runs() {
        let uops: Vec<Uop> = (0..20u64).map(|i| ld(0x5000 + i * 4096, 8)).collect();
        let mut sys = System::new(SystemConfig::tiny(), vec![Box::new(FixedProgram::new(uops))]);
        sys.run_with_watchdog(1_000_000, 2_000).expect("healthy run passes the watchdog");
    }

    #[test]
    fn fault_plan_runs_are_deterministic_and_complete() {
        let mk = || {
            let mut cfg = SystemConfig::tiny();
            cfg.fault = crate::fault::FaultPlan::mild(0xD06);
            let mut uops = Vec::new();
            for i in 0..40u64 {
                uops.push(st(0x9000 + i * 64, &[i as u8]));
                uops.push(ld(0x1000 + (i * 97 % 64) * 64, 8));
            }
            uops.push(Uop::new(UopKind::Mfence, StatTag::App));
            System::new(cfg, vec![Box::new(FixedProgram::new(uops))])
        };
        let mut a = mk();
        let sa = a.run(5_000_000).expect("finishes under mild faults");
        let mut b = mk();
        let sb = b.run(5_000_000).expect("finishes under mild faults");
        // Identical seed + plan ⇒ identical fault schedule, timing, stats,
        // and final memory image.
        assert_eq!(sa.cycles, sb.cycles);
        let fa: Vec<u64> = sa.mcs.iter().map(|m| m.fault_events()).collect();
        let fb: Vec<u64> = sb.mcs.iter().map(|m| m.fault_events()).collect();
        assert_eq!(fa, fb);
        assert!(fa.iter().sum::<u64>() > 0, "mild plan must actually inject: {fa:?}");
        assert_eq!(
            a.peek_materialized(PhysAddr(0x9000), 40 * 64),
            b.peek_materialized(PhysAddr(0x9000), 40 * 64)
        );
        // Faults degrade timing, never data.
        for i in 0..40u64 {
            assert_eq!(a.peek_materialized(PhysAddr(0x9000 + i * 64), 1), vec![i as u8]);
        }
    }

    #[test]
    fn fault_fast_forward_matches_slow_path() {
        // Fault rolls are per-event, so the schedule must be identical
        // with and without idle skip-ahead.
        let mk = || {
            let mut cfg = SystemConfig::tiny();
            cfg.fault = crate::fault::FaultPlan::mild(0xFF1);
            let uops: Vec<Uop> = (0..20u64).map(|i| ld(0x5000 + i * 4096, 8)).collect();
            System::new(cfg, vec![Box::new(FixedProgram::new(uops))])
        };
        let mut a = mk();
        a.set_sched_mode(SchedMode::TickByTick);
        let sa = a.run(5_000_000).unwrap();
        let mut b = mk();
        b.set_sched_mode(SchedMode::EventDriven);
        let sb = b.run(5_000_000).unwrap();
        assert_eq!(sa.cycles, sb.cycles, "skip-ahead must not change the fault schedule");
        let fa: Vec<u64> = sa.mcs.iter().map(|m| m.fault_events()).collect();
        let fb: Vec<u64> = sb.mcs.iter().map(|m| m.fault_events()).collect();
        assert_eq!(fa, fb);
    }
}
