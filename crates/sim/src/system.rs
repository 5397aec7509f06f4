//! Top-level system: wires cores, L1s, the LLC, the interconnect, memory
//! controllers, DRAM channels, and the copy engine, and runs the clock.

use crate::cache::l1::{L1Out, L1};
use crate::cache::llc::{Llc, LlcOut};
use crate::cache::{CoreToL1, L1ToCore, L1ToLlc, LlcToL1};
use crate::config::SystemConfig;
use crate::core::{Core, CoreOut};
use crate::data::{LineData, SparseMem};
use crate::engine::{CopyEngine, NullEngine};
use crate::link::DelayQueue;
use crate::mc::MemCtrl;
use crate::packet::{LazyDesc, Node, Packet};
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
    /// run only components that provably can act, batching the idle
    /// accounting of the others. An agenda of per-component due cycles,
    /// lowered whenever a message is sent, lets the loop enter only the
    /// executed cycles in which some component is due; it accounts the
    /// cycles in between without entering them. The default.
    #[default]
    EventDriven,
}

/// One stage's agenda entries (the cores, the L1s or the controllers)
/// and their running minimum, so that finding the next due cycle reads
/// one number per stage instead of every entry.
///
/// Outside the stage's own loop in [`System::visit`], `min` is exactly
/// the minimum entry: entries change there only through [`Stage::lower`],
/// which folds what it writes. The loop rewrites entries, so it refolds
/// `min` from `Cycle::MAX` over every entry it reads; when `min` says no
/// entry is due, the loop would only refold the same number, and `visit`
/// skips it ([`Stage::due_at`]).
struct Stage {
    due: Vec<Cycle>,
    min: Cycle,
}

impl Stage {
    fn new(n: usize) -> Stage {
        let mut stage = Stage { due: vec![0; n], min: 0 };
        stage.reset();
        stage
    }

    /// Lower entry `i` to `at` if that is earlier. Only a strict lowering
    /// is folded into `min`, which keeps the minimum exact even while the
    /// stage's own loop runs (a controller sending to another controller):
    /// an entry the loop has not reached yet may be due and then raised,
    /// but a strict lowering makes it `at`, which lies after the current
    /// cycle (the interconnect's latency is at least one), and any later
    /// recompute of the entry is no later than its inbound head, `at` or
    /// earlier.
    fn lower(&mut self, i: usize, at: Cycle) {
        if at < self.due[i] {
            self.due[i] = at;
            self.min = self.min.min(at);
        }
    }

    /// Put every entry on the agenda for the next cycle.
    fn reset(&mut self) {
        self.due.fill(0);
        self.min = self.scan();
    }

    /// Whether some entry is due at `now`, read from `min`. Under the
    /// invariant layer, a scan confirms a "no".
    fn due_at(&self, now: Cycle) -> bool {
        let due = self.min <= now;
        #[cfg(feature = "check-invariants")]
        assert!(
            due || self.scan() > now,
            "invariant violation (scheduler): a stage skipped at cycle {now} has an entry due"
        );
        due
    }

    /// The minimum entry, by a scan.
    fn scan(&self) -> Cycle {
        self.due.iter().copied().fold(Cycle::MAX, Cycle::min)
    }
}

/// A complete simulated machine.
pub struct System {
    cfg: SystemConfig,
    now: Cycle,
    cores: Vec<Core>,
    l1s: Vec<L1>,
    llc: Llc,
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
    /// The memory interconnect: one FIFO into the LLC and one into each
    /// memory controller (indexed by channel), which LLC requests and
    /// bounces from other controllers share. Per-destination FIFO order is
    /// what §III-B1 relies on: source writebacks reach a controller before
    /// the MCLAZY that follows them. Bandwidth is not modelled here; the
    /// DRAM data bus is the bottleneck in every experiment.
    to_llc: DelayQueue<Packet>,
    to_mc: Vec<DelayQueue<Packet>>,
    sched: SchedMode,
    /// The [`SchedStats::executed_cycles`] count through which core `i`'s
    /// cycles are accounted. The executed cycles since then are the ones
    /// it was elided in, replayed by [`System::account_elided`] before it
    /// next runs, before a whole-machine skip and at every run exit.
    accounted: Vec<u64>,
    /// Whether core `i` could act, or held an unsent store or writeback,
    /// after its last execution: the whole-machine skip gate, under both
    /// skipping schedulers. Looser than the core's sleep verdict (a store
    /// waiting on a load in flight blocks skipping but not elision), which
    /// keeps the set of executed cycles independent of how precisely
    /// components are elided; the skip must not jump while it holds
    /// (DESIGN.md §2.10, trap 1).
    core_blocks_skip: Vec<bool>,
    /// L1 `i` refused its core's head request (MSHRs full) when it last
    /// ran; until an LLC message can free an MSHR, retrying is a no-op.
    l1_refused: Vec<bool>,
    /// The head of `l1_to_llc[i]` was a request [`Llc::refuses`] when the
    /// LLC last ran; until the LLC runs again its state is unchanged, so
    /// the head would be refused again and does not wake it.
    llc_refused: Vec<bool>,
    /// Controller `i`'s own wake, from [`MemCtrl::readiness`] when it last
    /// ran: the cycle after that run if it had immediate work. Valid until
    /// it next runs. Engine state is shared across controllers, so whether
    /// the engine has news for a controller (`CopyEngine::needs_tick`) is
    /// asked separately, whenever a controller phase may have changed it
    /// (step 4 of `visit`).
    mc_wake: Vec<Cycle>,
    /// The last executed cycle. A controller that did not run in it was
    /// elided on every executed cycle since it last ran, which
    /// [`MemCtrl::replay_elided`] replays before it next runs.
    last_executed: Option<Cycle>,
    /// The agenda: for each component, a lower bound on the first cycle
    /// at which it has work. A sender lowers the receiver's entry when it
    /// pushes a message; a component's own entry is recomputed from its
    /// state and inbound queue heads each time the event-driven loop
    /// looks at it. A core runs exactly when its entry is due. 0 = look
    /// next cycle. Each stage keeps its running minimum; the LLC's single
    /// entry is its own.
    due_core: Stage,
    due_l1: Stage,
    due_llc: Cycle,
    due_mc: Stage,
    /// The rest of a whole-machine skip that the previous run's budget
    /// cut short; the next run finishes it before it executes anything.
    skip_to: Option<Cycle>,
    /// Cores whose program has not finished.
    unfinished: usize,
    /// Always-on scheduler counters, reported in [`RunStats::sched`].
    sched_stats: SchedStats,
    /// Per-phase output buffers, reused across cycles so the hot loop
    /// allocates nothing once capacities have warmed up.
    scratch_core: CoreOut,
    scratch_l1: L1Out,
    scratch_llc: LlcOut,
    scratch_mc: Vec<(Packet, Cycle)>,
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
fn dup_safe(pkt: &Packet) -> bool {
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
        // A controller's send to another controller may lower an agenda
        // entry that the same loop reads later (`Stage::lower`).
        assert!(cfg.links.llc_mc >= 1, "the memory interconnect's latency must be at least one cycle");
        fn mk<T>(n: usize, lat: Cycle) -> Vec<DelayQueue<T>> {
            (0..n).map(|_| DelayQueue::new(lat)).collect()
        }
        let n = cfg.cores;
        let unfinished = cores.iter().filter(|c| !c.finished()).count();
        System {
            now: 0,
            cores,
            l1s,
            llc,
            mcs,
            engine,
            mem: SparseMem::new(),
            core_to_l1: mk(n, cfg.links.core_l1),
            l1_to_core: mk(n, cfg.links.core_l1),
            l1_to_llc: mk(n, cfg.links.l1_llc),
            l1_to_llc_resp: mk(n, cfg.links.l1_llc),
            llc_to_l1: mk(n, cfg.links.l1_llc),
            to_llc: DelayQueue::new(cfg.links.llc_mc),
            to_mc: mk(cfg.channels, cfg.links.llc_mc),
            sched: SchedMode::EventDriven,
            accounted: vec![0; n],
            core_blocks_skip: vec![true; n],
            l1_refused: vec![false; n],
            llc_refused: vec![false; n],
            mc_wake: vec![0; cfg.channels],
            last_executed: None,
            due_core: Stage::new(n),
            due_l1: Stage::new(n),
            due_llc: 0,
            due_mc: Stage::new(cfg.channels),
            skip_to: None,
            unfinished,
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
    fn send_bus(&mut self, now: Cycle, pkt: Packet, extra: Cycle) {
        let mut extra = extra;
        if let Some(lf) = self.link_fault.as_mut() {
            if lf.jitter.roll(self.cfg.fault.link_jitter_rate) {
                extra += self.cfg.fault.link_jitter_cycles;
            }
            if lf.dup.roll(self.cfg.fault.link_dup_rate) && dup_safe(&pkt) {
                self.post_bus(now, pkt.clone(), extra + 1);
            }
        }
        self.post_bus(now, pkt, extra);
    }

    /// Push one packet onto its destination's link, `extra` cycles later
    /// than the link latency, and post the receiver's wake.
    fn post_bus(&mut self, now: Cycle, pkt: Packet, extra: Cycle) {
        #[cfg(feature = "check-invariants")]
        self.checker.observe_send(&pkt);
        match pkt.dest {
            Node::Llc => {
                self.to_llc.push_after(now, extra, pkt);
                self.due_llc = self.due_llc.min(self.to_llc.head());
            }
            Node::Mc(j) => {
                self.to_mc[j].push_after(now, extra, pkt);
                self.due_mc.lower(j, self.to_mc[j].head());
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Select the run-loop scheduler (see [`SchedMode`] for how the modes
    /// agree). Drops a skip carried over from a budgeted run, which
    /// [`SchedMode::TickByTick`] would not have taken.
    pub fn set_sched_mode(&mut self, mode: SchedMode) {
        self.sched = mode;
        self.skip_to = None;
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

    /// Execute cycle `now` the reference way: every component runs.
    fn tick(&mut self) {
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

    /// Execute cycle `now` under the agenda: look only at components whose
    /// agenda entry has come due, and run each exactly when the reference
    /// predicate holds for it (a timer or immediate work of its own, a
    /// deliverable inbox, the refusal flags). The agenda only chooses what
    /// gets checked, so this executes the same architectural events as
    /// [`System::tick`] at this cycle. An elided core's cycles are
    /// accounted when it next runs ([`System::account_elided`]).
    fn visit(&mut self) {
        let now = self.now;

        // 1. Cores. A core can act only when its inbox has a deliverable
        //    response, it has internal work, or an internal timer (compute
        //    completion, delayed load issue) has matured. Its entry is the
        //    earliest of these, and every sender lowers it to the head it
        //    pushed, so a due core always has one of them. Each stage's
        //    loop refolds its running minimum over every entry it reads,
        //    and runs only if that minimum is due.
        if self.due_core.due_at(now) {
            self.due_core.min = Cycle::MAX;
            for i in 0..self.cores.len() {
                let mut due = self.due_core.due[i];
                if due <= now {
                    let act = self.phase_core(now, i);
                    let c = &self.cores[i];
                    let wake = if act {
                        now + 1
                    } else if c.finished() {
                        Cycle::MAX
                    } else {
                        c.wake_at().unwrap_or(Cycle::MAX)
                    };
                    due = wake.min(self.l1_to_core[i].head());
                    self.due_core.due[i] = due;
                }
                self.due_core.min = self.due_core.min.min(due);
            }
        }

        // 2. L1s are purely message-driven: no input, no work. A refused
        //    core request blocks its queue until an LLC message (a fill)
        //    frees an MSHR, so only LLC input wakes a refused L1.
        if self.due_l1.due_at(now) {
            self.due_l1.min = Cycle::MAX;
            for i in 0..self.l1s.len() {
                let mut due = self.due_l1.due[i];
                if due <= now {
                    if self.l1_inbox(i) <= now {
                        self.l1_refused[i] = self.phase_l1(now, i);
                    }
                    due = self.l1_inbox(i);
                    self.due_l1.due[i] = due;
                }
                self.due_l1.min = self.due_l1.min.min(due);
            }
        }

        // 3. LLC: deferred replays or any deliverable input, except a
        //    request head it refused when it last ran (MSHRs full): only
        //    a response or fill can free an MSHR, and both wake it.
        if self.due_llc <= now {
            if self.llc.has_retries() || self.llc_inbox() <= now {
                self.phase_llc(now);
            }
            let retry = if self.llc.has_retries() { now + 1 } else { Cycle::MAX };
            self.due_llc = self.llc_inbox().min(retry);
        }

        // 4. MCs: deliverable input, a due completion, refresh window or
        //    request issue, or news from the engine (background work, or
        //    a change that may let a parked retry in). `mc_wake` covers
        //    controller-internal state (valid until the controller next
        //    ticks). Engine state is shared and changes only inside
        //    controller phases, so `needs_tick` is re-probed for a
        //    controller that is not due only after another one ran in
        //    this cycle, and after such a cycle every controller it holds
        //    for is put on the agenda for the next one. Refresh windows
        //    count as work so `sync` applies them (and stats/trace see
        //    them) at exactly the cycles the full tick would. Blocked
        //    input stays at the head of the controller's queue, so it
        //    keeps the controller due and its input-stall count exact. A
        //    controller's send to another one lowers that entry while this
        //    loop runs, which `Stage::lower` keeps exact. With no
        //    controller due, none runs: a controller that is not due runs
        //    only after another one ran.
        let mut mc_ran = false;
        if self.due_mc.due_at(now) {
            self.due_mc.min = Cycle::MAX;
            for i in 0..self.mcs.len() {
                let due = self.due_mc.due[i] <= now;
                let run = if due {
                    self.mc_wake[i] <= now
                        || self.to_mc[i].head() <= now
                        || self.engine.needs_tick(i)
                } else {
                    mc_ran && self.engine.needs_tick(i)
                };
                if run {
                    self.phase_mc(now, i);
                    self.mc_wake[i] = self.mcs[i].readiness().unwrap_or(now + 1);
                    mc_ran = true;
                }
                if due || run {
                    self.due_mc.due[i] = self.mc_wake[i].min(self.to_mc[i].head());
                }
                self.due_mc.min = self.due_mc.min.min(self.due_mc.due[i]);
            }
        }
        if mc_ran {
            for i in 0..self.mcs.len() {
                if self.engine.needs_tick(i) {
                    self.due_mc.lower(i, now + 1);
                }
            }
        }

        self.tick_epilogue(now);
    }

    /// The first cycle at which L1 `i` has a message it can take: any LLC
    /// message, or its core's head request unless it refused that head.
    fn l1_inbox(&self, i: usize) -> Cycle {
        let core = if self.l1_refused[i] { Cycle::MAX } else { self.core_to_l1[i].head() };
        self.llc_to_l1[i].head().min(core)
    }

    /// The first cycle at which the LLC has a message it can take: a fill,
    /// a response, or a request head it did not refuse when it last ran.
    fn llc_inbox(&self) -> Cycle {
        let requests = self.l1_to_llc.iter().zip(&self.llc_refused);
        let requests = requests.filter(|(_, &refused)| !refused).map(|(q, _)| q.head());
        let responses = self.l1_to_llc_resp.iter().map(DelayQueue::head);
        requests.chain(responses).fold(self.to_llc.head(), Cycle::min)
    }

    /// Replay core `i`'s accounting for the executed cycles it was elided
    /// in since it was last accounted. No whole-machine skip falls among
    /// them (a skip accounts every core first), so they are the `k`
    /// cycles just before `now`.
    fn account_elided(&mut self, i: usize) {
        let k = self.sched_stats.executed_cycles - self.accounted[i];
        self.accounted[i] = self.sched_stats.executed_cycles;
        self.cores[i].account_idle(k, self.now - k);
    }

    /// Phase 1 for core `i`: consume L1 responses, then advance. Returns
    /// [`Core::can_act`] after the advance.
    fn phase_core(&mut self, now: Cycle, i: usize) -> bool {
        self.sched_stats.core_execs += 1;
        self.account_elided(i);
        // The core's own tick accounts this cycle.
        self.accounted[i] += 1;
        while let Some(msg) = self.l1_to_core[i].pop(now) {
            self.cores[i].handle_l1(now, msg);
        }
        let was_finished = self.cores[i].finished();
        let mut out = std::mem::take(&mut self.scratch_core);
        self.cores[i].tick(now, &mut out);
        if !was_finished && self.cores[i].finished() {
            self.unfinished -= 1;
        }
        if !out.to_l1.is_empty() {
            for m in out.to_l1.drain(..) {
                self.core_to_l1[i].push(now, m);
            }
            self.due_l1.lower(i, self.l1_inbox(i));
        }
        self.scratch_core = out;
        let c = &self.cores[i];
        let act = c.can_act();
        self.core_blocks_skip[i] = act || c.has_unsent_stores() || c.has_unsent_clwbs();
        act
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
            if self.l1s[i].handle_core(now, msg, &mut out) {
                let _ = self.core_to_l1[i].pop(now);
            } else {
                refused = true;
                break;
            }
        }
        if !out.to_core.is_empty() {
            for (m, extra) in out.to_core.drain(..) {
                self.l1_to_core[i].push_after(now, extra, m);
            }
            self.due_core.lower(i, self.l1_to_core[i].head());
        }
        if !out.to_llc.is_empty() {
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
            self.due_llc = self.due_llc.min(self.llc_inbox());
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
                let accepted = self.llc.handle_l1(&msg, &mut out);
                debug_assert!(accepted, "responses are always accepted");
            }
        }
        self.llc.begin_cycle(&mut out);
        for i in 0..self.l1_to_llc.len() {
            for _ in 0..8 {
                let Some(msg) = self.l1_to_llc[i].peek(now) else { break };
                if let L1ToLlc::Mclazy { desc, .. } = *msg {
                    Self::snoop_mclazy(&mut self.l1s, &mut self.llc, &self.l1_to_llc_resp, desc, &mut out);
                    // The snoop mutates L1s outside their own phase, so a
                    // refused core request may now be accepted.
                    self.l1_refused.fill(false);
                    for l1 in 0..self.l1s.len() {
                        self.due_l1.lower(l1, self.l1_inbox(l1));
                    }
                }
                if !self.llc.handle_l1(msg, &mut out) {
                    break;
                }
                let _ = self.l1_to_llc[i].pop(now);
            }
        }
        while let Some(pkt) = self.to_llc.pop(now) {
            self.llc.handle_pkt(now, pkt, &mut out);
        }
        // After the fills, which may have freed MSHRs this cycle.
        for (refused, q) in self.llc_refused.iter_mut().zip(&self.l1_to_llc) {
            *refused = q.iter().next().is_some_and(|m| self.llc.refuses(m));
        }
        for (l1, m, extra) in out.to_l1.drain(..) {
            self.llc_to_l1[l1].push_after(now, extra, m);
            self.due_l1.lower(l1, self.l1_inbox(l1));
        }
        for (pkt, extra) in out.to_bus.drain(..) {
            self.send_bus(now, pkt, extra);
        }
        self.scratch_llc = out;
    }

    /// Phase 4 for memory controller `i`.
    fn phase_mc(&mut self, now: Cycle, i: usize) {
        self.sched_stats.mc_execs += 1;
        if let Some(last) = self.last_executed {
            self.mcs[i].replay_elided(last, self.engine.as_mut());
        }
        let mut out = std::mem::take(&mut self.scratch_mc);
        self.mcs[i].tick(now, &mut self.to_mc[i], self.engine.as_mut(), &mut self.mem, &mut out);
        for (pkt, extra) in out.drain(..) {
            self.send_bus(now, pkt, extra);
        }
        self.scratch_mc = out;
    }

    /// End of an executed cycle: periodic invariant checks, trace samples,
    /// and the clock edge.
    fn tick_epilogue(&mut self, now: Cycle) {
        let _ = now;
        self.sched_stats.visited_cycles += 1;
        self.sched_stats.executed_cycles += 1;

        #[cfg(feature = "check-invariants")]
        if self.sched_stats.executed_cycles.is_multiple_of(1024) {
            self.validate_invariants(false);
        }

        #[cfg(feature = "trace")]
        self.trace_sample(now);

        self.last_executed = Some(now);
        self.now += 1;
    }

    /// Account the cycles `[now, to)` that the event-driven loop jumps:
    /// no component is due in them, so the reference loop would execute
    /// each one and find nothing to run. They count as executed cycles,
    /// elided for every core and controller, so adding them to
    /// [`SchedStats::executed_cycles`] is all their accounting until each
    /// component next runs. The machine state is frozen across them, so
    /// one audit stands for the per-cycle ones, and the trace series
    /// samples each epoch boundary the span crosses at the first cycle at
    /// or after it, as the per-cycle loop would.
    fn jump_to(&mut self, to: Cycle) {
        let from = self.now;
        let span = to - from;
        #[cfg(feature = "check-invariants")]
        {
            assert!(
                self.skip_gate().is_none(),
                "invariant violation (scheduler): a whole-machine skip is due at the \
                 start of the jumped span [{from}, {to})"
            );
            let executed = self.sched_stats.executed_cycles;
            if (executed + span) / 1024 > executed / 1024 {
                self.validate_invariants(false);
            }
        }
        #[cfg(feature = "trace")]
        while let Some(at) = mcs_trace::with_sink(|sink| sink.series.next_at.max(from)) {
            if at >= to {
                break;
            }
            self.trace_sample(at);
        }
        self.last_executed = Some(to - 1);
        self.sched_stats.executed_cycles += span;
        self.now = to;
    }

    /// The first cycle at which any component is due: the least of the
    /// stages' running minimums.
    fn next_due(&self) -> Cycle {
        let due = self.due_core.min.min(self.due_l1.min).min(self.due_llc).min(self.due_mc.min);
        #[cfg(feature = "check-invariants")]
        {
            let scan = self.due_core.scan().min(self.due_l1.scan());
            let scan = scan.min(self.due_llc).min(self.due_mc.scan());
            assert_eq!(
                due, scan,
                "invariant violation (scheduler): the agenda's running minimum disagrees \
                 with a scan of its entries at cycle {}",
                self.now
            );
        }
        due
    }

    /// Account every core's elided cycles (run exits and whole-machine
    /// skips).
    fn account_all_elided(&mut self) {
        for i in 0..self.cores.len() {
            self.account_elided(i);
        }
    }

    /// Put every component on the agenda for the next cycle and drop the
    /// refusal flags, so the event-driven loop looks at everything once.
    /// Called at run entry: a mode switch or an external setter may have
    /// changed component state outside the loop's own phases.
    fn reset_agenda(&mut self) {
        self.l1_refused.fill(false);
        self.llc_refused.fill(false);
        self.mc_wake.fill(0);
        self.due_core.reset();
        self.due_l1.reset();
        self.due_llc = 0;
        self.due_mc.reset();
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
        in_flight: &[DelayQueue<L1ToLlc>],
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

    /// Fold `f` over every link's `(head, len)`, stopping at the first
    /// `None`: core→L1, L1→core, L1→LLC requests, L1→LLC responses and
    /// LLC→L1 (each per core), then into the LLC and into each controller.
    /// A fold rather than an iterator: the skip test calls it on almost
    /// every visited cycle and usually stops within the first few links,
    /// where building a chain of seven iterators would cost more than the
    /// scan.
    fn fold_links<A>(&self, init: A, mut f: impl FnMut(A, Cycle, usize) -> Option<A>) -> Option<A> {
        fn fold<T, A>(
            qs: &[DelayQueue<T>],
            acc: A,
            f: &mut impl FnMut(A, Cycle, usize) -> Option<A>,
        ) -> Option<A> {
            qs.iter().try_fold(acc, |acc, q| f(acc, q.head(), q.len()))
        }
        let acc = fold(&self.core_to_l1, init, &mut f)?;
        let acc = fold(&self.l1_to_core, acc, &mut f)?;
        let acc = fold(&self.l1_to_llc, acc, &mut f)?;
        let acc = fold(&self.l1_to_llc_resp, acc, &mut f)?;
        let acc = fold(&self.llc_to_l1, acc, &mut f)?;
        let acc = fold(std::slice::from_ref(&self.to_llc), acc, &mut f)?;
        fold(&self.to_mc, acc, &mut f)
    }

    /// Whether the machine has drained: every program finished, no
    /// message on any link, and no controller, LLC or engine work left.
    /// The unfinished count settles the common case; the links are
    /// scanned only once every program has finished.
    fn all_done(&self) -> bool {
        #[cfg(feature = "check-invariants")]
        self.check_counts();
        self.unfinished == 0
            && self.fold_links((), |(), _, len| (len == 0).then_some(())).is_some()
            && self.mcs.iter().all(|m| m.idle())
            && !self.llc.busy()
            && !self.engine.busy()
    }

    /// The running unfinished count agrees with a scan of the cores.
    #[cfg(feature = "check-invariants")]
    fn check_counts(&self) {
        let unfinished = self.cores.iter().filter(|c| !c.finished()).count();
        assert_eq!(
            self.unfinished, unfinished,
            "invariant violation (scheduler): unfinished cores counted vs scanned, at cycle {}",
            self.now
        );
    }

    /// The whole-machine skip's target, if it fires now: every core is
    /// stalled on external events, and those events are all in the
    /// future. The cheap all-cores-inactive gate runs first so
    /// configurations that cannot skip (an active core) never pay for
    /// the link scan. A core's flag cannot change while it is elided.
    fn skip_gate(&self) -> Option<Cycle> {
        if self.sched != SchedMode::TickByTick && self.core_blocks_skip.iter().all(|b| !b) {
            self.skip_target()
        } else {
            None
        }
    }

    /// The earliest future event — a link head, a controller's or a
    /// core's own timer — if it lies beyond the next cycle: then nothing
    /// can happen before it, and the machine may jump there. One pass,
    /// which stops at the first event due by the next cycle.
    fn skip_target(&self) -> Option<Cycle> {
        let next = self.now + 1;
        let after = |min: Cycle, at: Cycle| (at > next).then_some(min.min(at));
        let links = self.fold_links(Cycle::MAX, |min, head, _| after(min, head))?;
        let mcs = self.mcs.iter().filter_map(MemCtrl::next_event);
        let cores = self.cores.iter().filter_map(Core::next_event);
        let hint = mcs.chain(cores).try_fold(links, after)?;
        (hint < Cycle::MAX).then_some(hint)
    }

    /// Run until every program finishes and all queues drain, or until
    /// `max_cycles` elapse. A run never advances the clock past its
    /// budget: a whole-machine skip that would cross it stops there, and
    /// the next run finishes the skip first, so a run stepped in budgeted
    /// slices ends as one uninterrupted run does.
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
    /// skip-ahead jumps (which are legitimate waits) never trip it, while
    /// the executed cycles the event-driven agenda jumps count as ticks,
    /// so it fires at the same cycle under every scheduler.
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
        let end = start.saturating_add(max_cycles);
        let mut stable = 0u32;
        let mut last_metric = self.progress_metric();
        // The executed cycle count when the progress metric last changed:
        // the watchdog's idle ticks are the executed cycles since.
        let mut progress_at = self.sched_stats.executed_cycles;
        // External setters (fault plans, mode switches) may have touched
        // component state since the last run: start from a clean slate.
        self.reset_agenda();
        if let Some(target) = self.skip_to.take() {
            self.skip(target, end, watchdog)?;
        }
        let agenda = self.sched == SchedMode::EventDriven;
        while self.now < end {
            if agenda {
                self.visit();
            } else {
                self.tick();
            }
            if let Some(window) = watchdog {
                let m = self.progress_metric();
                if m != last_metric {
                    last_metric = m;
                    progress_at = self.sched_stats.executed_cycles;
                } else {
                    let idle_ticks = self.sched_stats.executed_cycles - progress_at;
                    if idle_ticks >= window && !self.all_done() {
                        return Err(self.livelock(idle_ticks));
                    }
                }
            }
            if self.all_done() {
                // A few grace ticks so posted work settles, then stop.
                stable += 1;
                if stable >= 2 {
                    self.account_all_elided();
                    #[cfg(feature = "check-invariants")]
                    self.validate_invariants(true);
                    return Ok(self.collect_stats());
                }
                continue;
            }
            stable = 0;
            if let Some(target) = self.skip_gate() {
                self.skip(target, end, watchdog)?;
            } else if agenda {
                // Jump to the next cycle where some component is due.
                // The skip cannot fire inside the span (DESIGN.md §2.10),
                // and each jumped cycle is an idle tick for the watchdog.
                let to = self.next_due().min(end);
                if to > self.now {
                    if let Some(window) = watchdog {
                        let idle_ticks = self.sched_stats.executed_cycles - progress_at;
                        if idle_ticks + (to - self.now) >= window {
                            self.jump_to(self.now + (window - idle_ticks));
                            return Err(self.livelock(window));
                        }
                    }
                    self.jump_to(to);
                }
            }
        }
        self.account_all_elided();
        Err(SimError::Timeout {
            max_cycles,
            unfinished: self.unfinished_cores(),
            mc_queues: self.mc_queue_snapshot(),
            cores: self.core_snapshot(),
        })
    }

    /// Skip the whole machine to `target`, stopping at the budget's `end`
    /// and carrying the rest of the span to the next run. With the
    /// watchdog armed, a skip of a whole observation window means nothing
    /// in the machine can act for `window` cycles while work is
    /// outstanding (e.g. an injected stall parked traffic inside a
    /// controller): that is a livelock, not a wait, so it is reported
    /// rather than silently jumped over.
    fn skip(&mut self, target: Cycle, end: Cycle, watchdog: Option<Cycle>) -> Result<(), SimError> {
        if watchdog.is_some_and(|window| target - self.now >= window) {
            return Err(self.livelock(target - self.now));
        }
        // Skipped cycles are not accounted to any core (DESIGN.md §2.10,
        // known defect 1); accounting the elided ones first keeps each
        // core's unaccounted executed cycles contiguous in time.
        self.account_all_elided();
        let to = target.min(end);
        self.sched_stats.skipped_cycles += to - self.now;
        self.now = to;
        self.skip_to = (to < target).then_some(target);
        Ok(())
    }

    /// Stop a run for the liveness watchdog after `idle_for` cycles
    /// without forward progress.
    fn livelock(&mut self, idle_for: Cycle) -> SimError {
        self.account_all_elided();
        SimError::Livelock {
            at: self.now,
            idle_for,
            unfinished: self.unfinished_cores(),
            mc_queues: self.mc_queue_snapshot(),
            cores: self.core_snapshot(),
        }
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
        let _ = writeln!(s, "  engine busy={}", self.engine.busy());
        let lens = self.fold_links(Vec::new(), |mut lens, _, len| {
            lens.push(len);
            Some(lens)
        });
        let lens = lens.unwrap_or_default();
        let _ = writeln!(s, "  link lens (in `fold_links` order)={lens:?}");
        s
    }

    /// Per-L1 MSHR occupancy (diagnostics).
    pub fn l1_mshrs(&self) -> Vec<usize> {
        self.l1s.iter().map(|l| l.mshr_count()).collect()
    }

    /// MC queue depths + inbound link depth (diagnostics).
    pub fn probe_mc(&self) -> Vec<(usize, usize, usize, usize)> {
        self.mcs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let (r, w, f) = m.queue_depths();
                (r, w, f, self.to_mc[i].len())
            })
            .collect()
    }

    /// Whether every core's program completed (may still be draining).
    pub fn cores_finished(&self) -> bool {
        self.cores.iter().all(|c| c.finished())
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
    /// every 1024 executed cycles of a run and, with `quiescent = true`
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
    fn interrupted_event_driven_run_matches_conservative() {
        // Runs cut short by their budget, then a run to completion: each
        // `run` rebuilds its agenda from scratch, and the machine must end
        // exactly as one uninterrupted `Conservative` run does.
        let run = |mode, budgets: &[Cycle]| {
            let mut cfg = SystemConfig::tiny();
            cfg.cores = 2;
            let p0: Vec<Uop> = (0..16u64).map(|i| ld(0x10000 + i * 4096, 8)).collect();
            let p1: Vec<Uop> = (0..16u64).map(|i| st(0x40000 + i * 64, &[i as u8])).collect();
            let mut sys = System::new(
                cfg,
                vec![Box::new(FixedProgram::new(p0)), Box::new(FixedProgram::new(p1))],
            );
            sys.set_sched_mode(mode);
            for &b in budgets {
                assert!(matches!(sys.run(b), Err(SimError::Timeout { .. })));
            }
            let stats = sys.run(1_000_000).expect("finishes");
            (RunStats { sched: SchedStats::default(), ..stats }, sys.now())
        };
        assert_eq!(run(SchedMode::Conservative, &[]), run(SchedMode::EventDriven, &[60, 1, 1, 40]));
    }

    #[test]
    fn budgeted_run_stops_at_its_budget() {
        // A 1000-cycle compute lets the whole-machine skip jump far past a
        // 10-cycle budget. Each run must stop at its budget and carry the
        // rest of the skip, so the stepped machine ends as an
        // uninterrupted one does (`sched` counts the re-looks a resumed
        // run makes).
        let mk = |mode| {
            let compute = Uop::new(UopKind::Compute { cycles: 1000 }, StatTag::App);
            let prog = FixedProgram::new(vec![compute]);
            let mut sys = System::new(SystemConfig::tiny(), vec![Box::new(prog)]);
            sys.set_sched_mode(mode);
            sys
        };
        for mode in [SchedMode::Conservative, SchedMode::EventDriven] {
            let whole = mk(mode).run(1_000_000).expect("finishes");
            let mut sys = mk(mode);
            for k in 1..=3 {
                assert!(matches!(sys.run(10), Err(SimError::Timeout { .. })), "{mode:?}");
                assert_eq!(sys.now(), 10 * k, "{mode:?}: run {k} overran its budget");
            }
            let stepped = sys.run(1_000_000).expect("finishes");
            assert_eq!(RunStats { sched: whole.sched, ..stepped }, whole, "{mode:?}");
        }
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
        cfg.l1.prefetch_degree = 4;
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
