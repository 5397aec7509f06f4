//! The event-driven scheduler's agenda changes which cycles the run loop
//! enters, never what the machine does. On the jobs where it jumps the
//! most (the Mess bandwidth–latency points, where every controller is
//! busy), where source writes wait for a full BPQ (Fig. 21 at one entry,
//! also with injected controller stalls, so that a controller sleeping
//! with a parked write wakes on the far side of a stall window), and
//! where eight cores wait to send CLWBs behind their stores (Fig. 16's
//! (MC)² MVCC), `EventDriven` must reproduce `Conservative` on every
//! machine statistic and on the executed and skipped cycle counts, and
//! must enter fewer cycles than it executes. (`Conservative` runs every
//! phase on every executed cycle, so its phase-execution counts are
//! higher by design.) The liveness watchdog, which counts executed
//! cycles, must stop a hung machine at the same cycle under both.

use mcs_bench::figs::fig21_job;
use mcs_bench::mess::{job_for, Point, Scale};
use mcs_bench::{BenchOpts, Job};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::fault::FaultPlan;
use mcs_sim::program::{Fetch, FixedProgram, Program};
use mcs_sim::stats::{RunStats, SchedStats};
use mcs_sim::system::SimError;
use mcs_sim::uop::{StatTag, Uop, UopId, UopKind};
use mcs_sim::{PhysAddr, SchedMode, System};
use mcs_workloads::mvcc::{mvcc_multithread, MvccConfig, UpdateKind};
use mcs_workloads::CopyMech;
use mcsquare::McSquareConfig;

fn run(job: impl Fn() -> Job, sched: SchedMode) -> RunStats {
    job().run(&BenchOpts { sched, ..BenchOpts::default() })
}

/// Run `job` under both skipping schedulers and compare them. Returns
/// the `Conservative` and `EventDriven` statistics.
fn assert_agenda_exact(job: impl Fn() -> Job, what: &str) -> (RunStats, RunStats) {
    let cons = run(&job, SchedMode::Conservative);
    let ev = run(&job, SchedMode::EventDriven);
    let (c, e) = (cons.sched, ev.sched);
    assert_eq!(c.visited_cycles, c.executed_cycles, "{what}: Conservative enters every cycle");
    assert_eq!(
        (c.executed_cycles, c.skipped_cycles),
        (e.executed_cycles, e.skipped_cycles),
        "{what}: executed/skipped cycle counts diverged"
    );
    assert!(e.visited_cycles < e.executed_cycles, "{what}: the agenda must jump cycles ({e:?})");
    assert!(
        e.core_execs <= c.core_execs
            && e.l1_execs <= c.l1_execs
            && e.llc_execs <= c.llc_execs
            && e.mc_execs <= c.mc_execs,
        "{what}: the agenda only elides phases ({e:?} vs {c:?})"
    );
    let machine = |s: &RunStats| RunStats { sched: SchedStats::default(), ..s.clone() };
    assert_eq!(machine(&cons), machine(&ev), "{what}: RunStats diverged");
    (cons, ev)
}

/// The smoke-scale Mess points of one technology at its largest burst,
/// with memcpy and with (MC)² copies.
fn assert_mess_exact(tech: MemTech) {
    let sc = Scale::smoke();
    for lazy in [false, true] {
        let p = Point { tech, lazy, burst: 32 };
        assert_agenda_exact(|| job_for(&p, &sc), &format!("mess {tech:?} lazy={lazy}"));
    }
}

#[test]
fn mess_smoke_ddr4_matches_conservative() {
    assert_mess_exact(MemTech::Ddr4);
}

#[test]
fn mess_smoke_ddr5_matches_conservative() {
    assert_mess_exact(MemTech::Ddr5);
}

#[test]
fn mess_smoke_hbm2_matches_conservative() {
    assert_mess_exact(MemTech::Hbm2);
}

/// Fig. 21's source-overwrite job at one BPQ entry, under `fault`.
fn fig21_bpq1(size: u64, fault: &FaultPlan) -> Job {
    let mut job = fig21_job(size, 1);
    job.cfg.fault = fault.clone();
    job
}

#[test]
fn fig21_one_bpq_entry_matches_conservative() {
    let (cons, ev) =
        assert_agenda_exact(|| fig21_bpq1(256 << 10, &FaultPlan::none()), "fig21 256 KB, BPQ 1");
    // A write waiting for the BPQ parks its controller: the controllers
    // run on a small fraction of the cycles they run under `Conservative`.
    let (c, e) = (cons.sched.mc_execs, ev.sched.mc_execs);
    assert!(e * 10 < c, "fig21 BPQ 1: {e} controller executions vs {c} under Conservative");
    assert!(cons.engine["bpq_full_retries"] > 0, "the BPQ must fill");
}

#[test]
fn fig21_one_bpq_entry_with_mc_stalls_matches_conservative() {
    let stalls =
        FaultPlan { seed: 9, mc_stall_rate: 0.02, mc_stall_cycles: 40, ..FaultPlan::none() };
    let (cons, _) = assert_agenda_exact(|| fig21_bpq1(64 << 10, &stalls), "fig21 64 KB, BPQ 1, stalls");
    let (mut stalled, mut input_stalled) = (0, 0);
    for mc in &cons.mcs {
        stalled += mc.fault_stall_cycles;
        input_stalled += mc.input_stall_cycles;
    }
    assert!(stalled > 0 && input_stalled > 0, "stall windows and BPQ waits must both occur");
}

#[test]
fn fig16_eight_core_mcsquare_matches_conservative() {
    // Every core copies tuples with (MC)²: each copy writes its source
    // back with CLWBs that wait behind the core's own stores.
    assert_agenda_exact(
        || {
            let wcfg = MvccConfig {
                tuples: 16,
                tuple_size: 4096,
                txns: 6,
                kind: UpdateKind::Rmw,
                update_frac: 0.25,
                ..MvccConfig::default()
            };
            let mech = CopyMech::McSquare { threshold: 0 };
            let progs = mvcc_multithread(mech, &wcfg, 8, &mut AddrSpace::dram_3gb());
            Job::multi_core(Some(McSquareConfig::default()), progs)
        },
        "fig16 8 cores, (MC)² 25%",
    );
}

/// Four loads, then a frontend that stalls forever: the machine goes
/// quiet with the program unfinished and nothing left to wake it.
struct LoadsThenHang {
    left: u64,
}

impl Program for LoadsThenHang {
    fn fetch(&mut self, _next_id: UopId) -> Fetch {
        if self.left == 0 {
            return Fetch::Stall;
        }
        self.left -= 1;
        let addr = PhysAddr(0x1000 + self.left * 4096);
        Fetch::Uop(Uop::new(UopKind::Load { addr, size: 8 }, StatTag::App))
    }
}

fn livelock(build: impl Fn() -> System, window: u64, sched: SchedMode) -> SimError {
    let mut sys = build();
    sys.set_sched_mode(sched);
    sys.run_with_watchdog(5_000_000, window).expect_err("the machine hangs")
}

fn assert_same_livelock(build: impl Fn() -> System, window: u64, what: &str) {
    let cons = livelock(&build, window, SchedMode::Conservative);
    let ev = livelock(&build, window, SchedMode::EventDriven);
    assert!(matches!(cons, SimError::Livelock { .. }), "{what}: {cons}");
    assert_eq!(cons, ev, "{what}: the watchdog fired differently");
}

#[test]
fn watchdog_fires_at_the_same_cycle_on_a_hung_program() {
    // Nothing is due after the loads: one jump crosses the window.
    assert_same_livelock(
        || System::new(SystemConfig::tiny(), vec![Box::new(LoadsThenHang { left: 4 })]),
        2_000,
        "hung program",
    );
    // Refresh windows wake the controllers without progress, so the
    // watchdog counts several jumped spans and the visits between them.
    assert_same_livelock(
        || {
            let cfg = SystemConfig::builder().cores(1).refresh(true).build();
            System::new(cfg, vec![Box::new(LoadsThenHang { left: 4 })])
        },
        200_000,
        "hung program with refresh",
    );
}

#[test]
fn watchdog_fires_at_the_same_cycle_on_a_stalled_controller() {
    assert_same_livelock(
        || {
            let mut cfg = SystemConfig::tiny();
            cfg.fault = FaultPlan {
                seed: 1,
                mc_stall_rate: 1.0,
                mc_stall_cycles: 10_000_000,
                ..FaultPlan::none()
            };
            let uops = (0..4u64)
                .map(|i| {
                    Uop::new(
                        UopKind::Load { addr: PhysAddr(0x1000 + i * 4096), size: 8 },
                        StatTag::App,
                    )
                })
                .collect();
            System::new(cfg, vec![Box::new(FixedProgram::new(uops))])
        },
        2_000,
        "stalled controller",
    );
}
