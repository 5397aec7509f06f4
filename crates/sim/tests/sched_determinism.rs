//! Scheduler-mode determinism: the event-driven scheduler is an
//! *elision* of do-nothing work, never a reordering. These tests pin
//! that claim four ways:
//!
//! * `EventDriven` vs `Conservative` must agree on the **entire**
//!   machine part of [`RunStats`] (every core, cache, controller, and
//!   engine counter), on the final simulated clock, and on the number of
//!   executed and skipped cycles, across all three memory technologies
//!   with refresh armed — refresh deadlines are the one periodic event a
//!   skip could plausibly jump over.
//! * The same holds on a multi-core stress workload built to reach every
//!   corner the per-component sleep verdicts rely on: more outstanding
//!   misses than the L1 has MSHRs, stores whose data comes from loads
//!   still in memory, and WPQ occupancy past the drain watermark, with
//!   and without refresh and an aggressive fault plan.
//! * `EventDriven` vs `TickByTick` must agree on the final clock and on
//!   every message-driven statistic (caches, controllers, engine).
//!   Per-cycle core accounting is compared too: idle cycles elided by a
//!   skip are re-attributed on wake, so totals match on this workload
//!   (see DESIGN.md §2.10 for the known case where they do not).
//! * The scheduler counters in [`RunStats::sched`] add up: executed plus
//!   skipped cycles is the run length, and `TickByTick` executes every
//!   phase on every cycle.
//! * A load answered from the store buffer wakes a frontend stalled on
//!   its value exactly as an L1 answer does, so neither skipping
//!   scheduler sleeps a core that could dispatch.

use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::fault::FaultPlan;
use mcs_sim::program::{Fetch, FixedProgram, Program};
use mcs_sim::stats::{RunStats, SchedStats};
use mcs_sim::uop::{StatTag, StoreData, Uop, UopId, UopKind};
use mcs_sim::{PhysAddr, SchedMode, System, CACHELINE};

/// A per-core workload that exercises every scheduling-relevant path:
/// cached stores, loads, non-temporal stores, CLWB writebacks, fences,
/// compute gaps long enough to make the cores go quiet (so skips arm),
/// and a trailing pointer-chase-style reload of everything written.
fn workload(core: usize) -> Vec<Uop> {
    let base = 0x4_0000 + (core as u64) * 0x2_0000;
    let mut uops = Vec::new();
    for i in 0..24u64 {
        let line = PhysAddr(base + i * CACHELINE);
        let nt = i % 5 == 0;
        let size: u8 = if nt { CACHELINE as u8 } else { 8 };
        uops.push(Uop::new(
            UopKind::Store {
                addr: line,
                size,
                data: StoreData::Imm(vec![core as u8; size as usize]),
                nontemporal: nt,
            },
            StatTag::App,
        ));
        if i % 4 == 0 {
            uops.push(Uop::new(UopKind::Clwb { addr: line }, StatTag::App));
        }
        if i % 8 == 7 {
            uops.push(Uop::new(UopKind::Mfence, StatTag::App));
            // A long quiet stretch: with nothing in flight the cores
            // report a wake-at hint and the scheduler may skip ahead.
            uops.push(
                Uop::new(UopKind::Compute { cycles: 600 }, StatTag::App),
            );
        }
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    for i in 0..24u64 {
        let line = PhysAddr(base + i * CACHELINE);
        uops.push(Uop::new(
            UopKind::Load { addr: line, size: 8 },
            StatTag::App,
        ));
    }
    uops
}

fn store(addr: u64, data: StoreData, nontemporal: bool) -> Uop {
    Uop::new(
        UopKind::Store { addr: PhysAddr(addr), size: CACHELINE as u8, data, nontemporal },
        StatTag::App,
    )
}

fn load(addr: u64) -> Uop {
    Uop::new(UopKind::Load { addr: PhysAddr(addr), size: CACHELINE as u8 }, StatTag::App)
}

/// A per-core stress workload for the sleep verdicts:
///
/// * a fenced 16-line memcpy, short enough that every miss reaches DRAM
///   and the machine waits with stores pending on loads in flight;
/// * a 64-line memcpy whose loads are independent, so the core has more
///   misses outstanding than its L1 has MSHRs and the L1 refuses
///   requests, and whose stores copy from those loads while they are
///   still in memory;
/// * CLWBs and a burst of non-temporal stores from every core, which
///   fill the write queues past `wpq_drain_hi` while the reads of a
///   second, strided load stream compete with the drain;
/// * a compute gap, so whole-machine skips arm mid-run.
fn stress_workload(core: usize) -> Vec<Uop> {
    let base = 0x100_0000 + (core as u64) * 0x10_0000;
    let (src, dst, nt) = (base, base + 0x4_0000, base + 0x8_0000);
    let line = CACHELINE;
    let mut uops = Vec::new();
    let memcpy = |uops: &mut Vec<Uop>, from: u64, to: u64, lines: u64| {
        for i in 0..lines {
            let lid = uops.len() as u64;
            uops.push(load(from + i * line));
            uops.push(store(to + i * line, StoreData::FromLoad { load: lid, offset: 0 }, false));
        }
    };
    memcpy(&mut uops, src + 0x3_0000, dst + 0x3_0000, 16);
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    memcpy(&mut uops, src, dst, 64);
    for i in 0..64u64 {
        uops.push(Uop::new(UopKind::Clwb { addr: PhysAddr(dst + i * line) }, StatTag::App));
    }
    uops.push(Uop::new(UopKind::Compute { cycles: 500 }, StatTag::App));
    for i in 0..96u64 {
        uops.push(store(nt + i * line, StoreData::Splat(core as u8), true));
        if i % 3 == 0 {
            uops.push(load(src + 0x2_0000 + i * 7 * line));
        }
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    uops
}

fn build(cfg: &SystemConfig, mode: SchedMode, work: fn(usize) -> Vec<Uop>) -> System {
    let progs: Vec<Box<dyn mcs_sim::program::Program>> = (0..cfg.cores)
        .map(|c| Box::new(FixedProgram::new(work(c))) as Box<dyn mcs_sim::program::Program>)
        .collect();
    let mut sys = System::new(cfg.clone(), progs);
    sys.set_sched_mode(mode);
    sys
}

fn run_with(cfg: &SystemConfig, mode: SchedMode, work: fn(usize) -> Vec<Uop>) -> (RunStats, u64) {
    let mut sys = build(cfg, mode, work);
    let stats = sys.run(20_000_000).expect("workload finishes");
    (stats, sys.now())
}

fn run_mode(cfg: &SystemConfig, mode: SchedMode) -> (RunStats, u64) {
    run_with(cfg, mode, workload)
}

/// The simulated machine's statistics, without the scheduler's own
/// counters (which legitimately differ between modes).
fn machine(stats: &RunStats) -> RunStats {
    RunStats { sched: SchedStats::default(), ..stats.clone() }
}

/// `EventDriven` and `Conservative` execute the same cycles and produce
/// the same machine statistics.
fn assert_event_matches_conservative(
    cfg: &SystemConfig,
    work: fn(usize) -> Vec<Uop>,
    what: &str,
) {
    let (cons, cons_now) = run_with(cfg, SchedMode::Conservative, work);
    let (ev, ev_now) = run_with(cfg, SchedMode::EventDriven, work);
    assert_eq!(cons_now, ev_now, "{what}: final clock diverged");
    assert_eq!(machine(&cons), machine(&ev), "{what}: RunStats diverged");
    assert_eq!(
        (cons.sched.executed_cycles, cons.sched.skipped_cycles),
        (ev.sched.executed_cycles, ev.sched.skipped_cycles),
        "{what}: executed/skipped cycle counts diverged"
    );
}

fn cfg_for(tech: MemTech, fault: FaultPlan) -> SystemConfig {
    SystemConfig::builder().tech(tech).refresh(true).fault(fault).build()
}

#[test]
fn event_driven_matches_conservative_on_full_stats_all_techs() {
    for tech in [MemTech::Ddr4, MemTech::Ddr5, MemTech::Hbm2] {
        let cfg = cfg_for(tech, FaultPlan::none());
        assert_event_matches_conservative(&cfg, workload, &format!("{tech:?}"));
    }
}

/// The stress workload's fault plan: the mild plan with controller stalls
/// ten times as frequent, so stalls overlap queued and elided work.
fn stress_faults() -> FaultPlan {
    FaultPlan { mc_stall_rate: 0.05, ..FaultPlan::mild(0x5EED) }
}

#[test]
fn event_driven_matches_conservative_on_stress_workload() {
    // One core leaves the machine waiting on a single core's misses, so
    // whole-machine skips arm while its stores wait on loads in flight;
    // four cores contend for MSHRs, directory and write queues.
    for cores in [1, 4] {
        for refresh in [false, true] {
            for fault in [FaultPlan::none(), stress_faults()] {
                let faulty = !fault.is_empty();
                let cfg =
                    SystemConfig::builder().cores(cores).refresh(refresh).fault(fault).build();
                let what = format!("stress, {cores} cores, refresh={refresh}, faults={faulty}");
                assert_event_matches_conservative(&cfg, stress_workload, &what);
            }
        }
    }
}

#[test]
fn stress_workload_reaches_the_corner_cases() {
    // Step the reference loop cycle by cycle and watch the occupancies
    // the sleep verdicts depend on.
    let cfg = SystemConfig::builder().cores(4).build();
    let mut sys = build(&cfg, SchedMode::TickByTick, stress_workload);
    let (mut mshr_peak, mut wpq_peak) = (0, 0);
    while !sys.cores_finished() {
        assert!(sys.now() < 2_000_000, "stress workload must finish");
        sys.tick();
        let (_, _, _, mshrs, _) = sys.probe();
        mshr_peak = mshr_peak.max(mshrs.into_iter().max().unwrap_or(0));
        wpq_peak = wpq_peak.max(sys.probe_mc().iter().map(|q| q.1).max().unwrap_or(0));
    }
    assert_eq!(mshr_peak, cfg.l1.mshrs, "some L1 must run out of MSHRs");
    let hi = (cfg.mc.wpq_drain_hi * cfg.mc.wpq_cap as f64).ceil() as usize;
    assert!(wpq_peak > hi, "WPQ peak {wpq_peak} must pass the drain watermark {hi}");
}

#[test]
fn event_driven_matches_tick_by_tick() {
    let cfg = cfg_for(MemTech::Ddr4, FaultPlan::none());
    let (tick, tick_now) = run_mode(&cfg, SchedMode::TickByTick);
    let (ev, ev_now) = run_mode(&cfg, SchedMode::EventDriven);
    assert_eq!(tick_now, ev_now, "final clock diverged vs TickByTick");
    assert_eq!(tick.cycles, ev.cycles);
    assert_eq!(tick.l1, ev.l1, "L1 stats diverged vs TickByTick");
    assert_eq!(tick.llc, ev.llc, "LLC stats diverged vs TickByTick");
    assert_eq!(tick.mcs, ev.mcs, "MC stats diverged vs TickByTick");
    assert_eq!(tick.engine, ev.engine, "engine stats diverged");
    assert_eq!(
        tick.cores, ev.cores,
        "per-core accounting diverged vs TickByTick (idle re-attribution \
         on wake must cover every elided cycle)"
    );
}

#[test]
fn sched_modes_agree_under_faults() {
    let cfg = cfg_for(MemTech::Ddr5, FaultPlan::mild(0xFA17));
    assert_event_matches_conservative(&cfg, workload, "Ddr5 under faults");
}

#[test]
fn scheduler_counters_add_up() {
    let cfg = cfg_for(MemTech::Ddr4, FaultPlan::none());
    for mode in [SchedMode::TickByTick, SchedMode::Conservative, SchedMode::EventDriven] {
        let (stats, _) = run_mode(&cfg, mode);
        let s = &stats.sched;
        assert_eq!(s.executed_cycles + s.skipped_cycles, stats.cycles, "{mode:?}: {s:?}");
        assert!(s.mc_execs <= s.executed_cycles * cfg.channels as u64, "{mode:?}: {s:?}");
    }
    let (tick, _) = run_mode(&cfg, SchedMode::TickByTick);
    let (cores, channels) = (cfg.cores as u64, cfg.channels as u64);
    assert_eq!(
        tick.sched,
        SchedStats {
            executed_cycles: tick.cycles,
            skipped_cycles: 0,
            core_execs: tick.cycles * cores,
            l1_execs: tick.cycles * cores,
            llc_execs: tick.cycles,
            mc_execs: tick.cycles * channels,
        },
        "TickByTick runs every phase on every cycle"
    );
    let (ev, _) = run_mode(&cfg, SchedMode::EventDriven);
    assert!(ev.sched.skipped_cycles > 0, "the workload's compute gaps must skip");
    assert!(ev.sched.mc_execs < ev.sched.executed_cycles * channels, "idle controllers sleep");
}

/// Stores to a line, loads it back while the store is still in the store
/// buffer (so the load is forwarded, never sent to the L1), and stalls its
/// frontend until that value arrives; then computes.
#[derive(Default)]
struct ForwardedLoad {
    step: usize,
    load: Option<UopId>,
    arrived: bool,
}

impl Program for ForwardedLoad {
    fn fetch(&mut self, next_id: UopId) -> Fetch {
        let kind = match self.step {
            0 => UopKind::Store {
                addr: PhysAddr(0x4000),
                size: 8,
                data: StoreData::Imm(vec![7; 8]),
                nontemporal: false,
            },
            1 => UopKind::Compute { cycles: 1 },
            2 => {
                self.load = Some(next_id);
                UopKind::Load { addr: PhysAddr(0x4000), size: 8 }
            }
            _ if !self.arrived => return Fetch::Stall,
            3..=14 => UopKind::Compute { cycles: 300 },
            _ => return Fetch::Done,
        };
        self.step += 1;
        Fetch::Uop(Uop::new(kind, StatTag::App))
    }

    fn on_load_complete(&mut self, id: UopId, data: &[u8]) {
        if self.load == Some(id) {
            assert_eq!(data, [7; 8], "the load is forwarded the stored value");
            self.arrived = true;
        }
    }
}

#[test]
fn forwarded_load_wakes_a_stalled_frontend() {
    let run = |mode| {
        let mut sys = System::new(SystemConfig::tiny(), vec![Box::new(ForwardedLoad::default())]);
        sys.set_sched_mode(mode);
        let stats = sys.run(1_000_000).expect("program finishes");
        (stats, sys.now())
    };
    let (_, tick_now) = run(SchedMode::TickByTick);
    let (cons, cons_now) = run(SchedMode::Conservative);
    let (ev, ev_now) = run(SchedMode::EventDriven);
    assert_eq!(machine(&cons), machine(&ev), "RunStats diverged");
    assert_eq!(cons_now, tick_now, "Conservative slept a core that could dispatch");
    assert_eq!(ev_now, tick_now, "EventDriven slept a core that could dispatch");
}
