//! Known disagreements between the event-driven scheduler and the
//! reference tick loop on a Fig. 10 job (DESIGN.md §2.10). Fixing either
//! changes pinned results, so the test that states the intended
//! behaviour is ignored until a change that may re-pin them lands.

use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::FixedProgram;
use mcs_sim::stats::{RunStats, SchedStats};
use mcs_sim::{SchedMode, System};
use mcs_workloads::micro::copy_latency;
use mcs_workloads::CopyMech;

/// Run the 1 KB Fig. 10 copy with `mode`.
fn fig10_1kb(touch: bool, mode: SchedMode) -> RunStats {
    let mut space = AddrSpace::dram_3gb();
    let g = copy_latency(CopyMech::Native, 1 << 10, touch, &mut space);
    let mut sys =
        System::new(SystemConfig::table1_one_core(), vec![Box::new(FixedProgram::new(g.uops))]);
    g.pokes.apply(&mut sys);
    sys.set_sched_mode(mode);
    let stats = sys.run(1_000_000).expect("the copy finishes");
    RunStats { sched: SchedStats::default(), ..stats }
}

/// On this job `TickByTick` ends at cycle 709 with core cycles 708;
/// `EventDriven` (and `Conservative`) end at 715 with core cycles 365 and
/// both markers 6 cycles later.
#[test]
#[ignore = "known defect: cycles jumped by whole-machine skip-ahead never reach \
            Core::account_idle, and skip_target ignores the LLC's retry queue"]
fn event_driven_matches_tick_by_tick_on_touched_memcpy_1kb() {
    let tick = fig10_1kb(true, SchedMode::TickByTick);
    let event = fig10_1kb(true, SchedMode::EventDriven);
    assert_eq!(tick, event);
}
