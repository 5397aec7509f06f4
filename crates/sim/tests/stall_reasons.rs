//! Regression tests for stall attribution (`CoreStats::stalls`).
//!
//! Three properties: (a) every [`StallReason`] variant is reachable — a
//! workload exists whose stalls are attributed to it — (b) every stalled
//! cycle is attributed to exactly one reason, i.e. the per-reason
//! histogram sums to `stalled_cycles` and never exceeds total cycles, and
//! (c) a core frozen behind a held uop is charged the reason that uop was
//! refused for, on elided cycles as on executed ones.

use mcs_sim::addr::PhysAddr;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::FixedProgram;
use mcs_sim::stats::{RunStats, StallReason};
use mcs_sim::system::{SchedMode, System};
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};

fn ld(addr: u64) -> Uop {
    Uop::new(UopKind::Load { addr: PhysAddr(addr), size: 8 }, StatTag::App)
}

fn st(addr: u64) -> Uop {
    Uop::new(
        UopKind::Store {
            addr: PhysAddr(addr),
            size: 8,
            data: StoreData::Splat(0x11),
            nontemporal: false,
        },
        StatTag::App,
    )
}

fn mclazy(i: u64) -> Uop {
    Uop::new(
        UopKind::Mclazy {
            dst: PhysAddr(0x400000 + i * 8192),
            src: PhysAddr(0x300000 + i * 8192),
            size: 4096,
        },
        StatTag::Memcpy,
    )
}

fn run(uops: Vec<Uop>) -> RunStats {
    run_in(SchedMode::EventDriven, uops)
}

fn run_in(mode: SchedMode, uops: Vec<Uop>) -> RunStats {
    let mut sys = System::new(SystemConfig::tiny(), vec![Box::new(FixedProgram::new(uops))]);
    sys.set_sched_mode(mode);
    sys.run(10_000_000).expect("workload finishes")
}

/// Run and assert the exact-attribution invariant, then return the stats.
fn run_checked(uops: Vec<Uop>) -> RunStats {
    let stats = run(uops);
    let c = &stats.cores[0];
    c.check_stall_accounting().expect("each stalled cycle attributed exactly once");
    assert_eq!(c.total_stalls(), c.stalled_cycles);
    assert!(c.stalled_cycles <= c.cycles);
    stats
}

fn assert_reaches(stats: &RunStats, reason: StallReason) {
    let n = stats.cores[0].stalls.get(&reason).copied().unwrap_or(0);
    assert!(n > 0, "expected {reason:?} stalls, histogram: {:?}", stats.cores[0].stalls);
}

#[test]
fn load_miss_is_reachable() {
    // Uncached loads miss all the way to DRAM; the ROB head waits.
    let stats = run_checked((0..8).map(|i| ld(0x10000 + i * 4096)).collect());
    assert_reaches(&stats, StallReason::LoadMiss);
}

#[test]
fn clwb_slots_is_reachable() {
    // More CLWBs than slots (tiny: 4): dispatch blocks, and the final
    // fence drains them with ClwbSlots at the ROB head.
    let mut uops: Vec<Uop> = (0..8).map(|i| st(0x20000 + i * 64)).collect();
    for i in 0..8u64 {
        uops.push(Uop::new(UopKind::Clwb { addr: PhysAddr(0x20000 + i * 64) }, StatTag::App));
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    let stats = run_checked(uops);
    assert_reaches(&stats, StallReason::ClwbSlots);
}

#[test]
fn mclazy_slots_is_reachable() {
    // More MCLAZYs than slots (tiny: 2); the baseline NullEngine acks
    // them, but acks take interconnect round-trips during which dispatch
    // is blocked on a slot.
    let uops: Vec<Uop> = (0..6u64).map(mclazy).collect();
    let stats = run_checked(uops);
    assert_reaches(&stats, StallReason::MclazySlots);
}

#[test]
fn fence_is_reachable() {
    // A fence draining a plain store: no CLWBs, no MCLAZYs — the wait is
    // attributed to the fence itself.
    let stats = run_checked(vec![st(0x30000), Uop::new(UopKind::Mfence, StatTag::App)]);
    assert_reaches(&stats, StallReason::Fence);
}

#[test]
fn store_buffer_is_reachable() {
    // Stores to distinct uncached lines retire into the store buffer
    // (tiny: 4 entries) far faster than misses drain it.
    let stats = run_checked((0..24).map(|i| st(0x40000 + i * 4096)).collect());
    assert_reaches(&stats, StallReason::StoreBuffer);
}

#[test]
fn rob_full_is_reachable() {
    // A long compute at the head with enough work behind it to fill the
    // ROB (tiny: 16 entries): dispatch blocks on ROB space.
    let mut uops = vec![Uop::new(UopKind::Compute { cycles: 500 }, StatTag::App)];
    for _ in 0..30 {
        uops.push(Uop::new(UopKind::Compute { cycles: 1 }, StatTag::App));
    }
    let stats = run_checked(uops);
    assert_reaches(&stats, StallReason::RobFull);
}

#[test]
fn frontend_is_reachable() {
    // A lone long compute: nothing to dispatch behind it, the zero-retire
    // cycles fall into the front-end bucket.
    let stats = run_checked(vec![Uop::new(UopKind::Compute { cycles: 100 }, StatTag::App)]);
    assert_reaches(&stats, StallReason::Frontend);
}

#[test]
fn attribution_is_exact_on_a_mixed_workload() {
    // All stall sources at once; the histogram must still sum exactly to
    // the stalled-cycle count (each stalled cycle attributed once).
    let mut uops = Vec::new();
    for i in 0..6u64 {
        uops.push(st(0x50000 + i * 4096));
        uops.push(ld(0x60000 + i * 4096));
    }
    for i in 0..6u64 {
        uops.push(Uop::new(UopKind::Clwb { addr: PhysAddr(0x50000 + i * 4096) }, StatTag::App));
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    uops.push(Uop::new(UopKind::Compute { cycles: 200 }, StatTag::App));
    for _ in 0..20 {
        uops.push(Uop::new(UopKind::Compute { cycles: 1 }, StatTag::App));
    }
    let stats = run_checked(uops);
    let c = &stats.cores[0];
    assert!(c.stalled_cycles > 0);
    // Several distinct reasons must appear in one run.
    assert!(c.stalls.len() >= 3, "expected a mixed histogram, got {:?}", c.stalls);
}

/// Run `uops` under the reference `Conservative` loop and the default
/// event-driven one, which elides the cycles a core sits frozen behind a
/// held uop; both must charge those cycles to `reason` and agree on
/// every core statistic.
fn held_reason_on_elided_cycles(uops: impl Fn() -> Vec<Uop>, reason: StallReason) {
    let cons = run_in(SchedMode::Conservative, uops());
    let ev = run_in(SchedMode::EventDriven, uops());
    assert_reaches(&cons, reason);
    assert!(
        ev.sched.core_execs < ev.cores[0].cycles,
        "the event-driven loop elided no core cycle ({} runs for {} cycles)",
        ev.sched.core_execs,
        ev.cores[0].cycles
    );
    assert_eq!(cons.cores, ev.cores);
}

#[test]
fn mclazy_held_behind_the_store_buffer() {
    // Two stores to uncached lines leave the store buffer (tiny: 4) half
    // empty, so the only StoreBuffer stalls are the MCLAZY's: it waits
    // for both stores to drain while they miss to DRAM.
    let uops = || vec![st(0x70000), st(0x71000), mclazy(0)];
    held_reason_on_elided_cycles(uops, StallReason::StoreBuffer);
}

#[test]
fn mclazy_held_on_full_mclazy_slots() {
    // A third MCLAZY with both slots (tiny: 2) taken waits for an ack.
    held_reason_on_elided_cycles(|| (0..3).map(mclazy).collect(), StallReason::MclazySlots);
}
