//! Stress tests for the `check-invariants` runtime verification layer.
//!
//! Only built with `--features check-invariants`. Each test runs a
//! lazy-copy workload that exercises the racy parts of the protocol
//! (bounces across channels, BPQ holds, chain collapsing, frees) while
//! auditing the full invariant set far more often than the production
//! cadence — every violation panics, so "the test passes" means every
//! intermediate state satisfied the coherence, conservation, engine, and
//! stats invariants. Every workload runs with DRAM refresh and fault
//! injection each on and off.

#![cfg(feature = "check-invariants")]

use mcs_sim::addr::PhysAddr;
use mcs_sim::config::SystemConfig;
use mcs_sim::fault::FaultPlan;
use mcs_sim::program::FixedProgram;
use mcs_sim::system::System;
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};
use mcsquare::config::McSquareConfig;
use mcsquare::engine::McSquareEngine;
use mcsquare::software::{memcpy_lazy_uops, LazyOpts};

fn ld(addr: PhysAddr, size: u8) -> Uop {
    Uop::new(UopKind::Load { addr, size }, StatTag::App)
}

fn st(addr: PhysAddr, bytes: &[u8]) -> Uop {
    Uop::new(
        UopKind::Store {
            addr,
            size: bytes.len() as u8,
            data: StoreData::Imm(bytes.to_vec()),
            nontemporal: false,
        },
        StatTag::App,
    )
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u64 * 131 + seed as u64).wrapping_rem(251) as u8).collect()
}

/// Tick the system to completion, auditing every `stride` cycles —
/// coarse enough to be fast, fine enough to catch transient states the
/// production 1024-cycle cadence would step over.
fn run_audited(sys: &mut System, stride: u64, max_cycles: u64) {
    let mut since_done = 0u32;
    for i in 0..max_cycles {
        sys.tick();
        if i % stride == 0 {
            sys.validate_invariants(false);
        }
        // Mirror System::run's quiescence detection via public probes:
        // once stats stop changing and the engine reports no activity the
        // run is over. Simpler: rely on cores_finished + a settle window.
        if sys.cores_finished() {
            since_done += 1;
            if since_done > 2_000 {
                sys.validate_invariants(true);
                return;
            }
        }
    }
    panic!("workload did not finish within {max_cycles} cycles");
}

/// Every (refresh, faults) setting of [`lazy_system`].
const SETTINGS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// The tiny machine with the engine, optionally with refresh every 500
/// cycles and the mild every-class fault plan.
fn lazy_system(mcfg: McSquareConfig, uops: Vec<Uop>, refresh: bool, faults: bool) -> System {
    let mut cfg = SystemConfig::tiny();
    if refresh {
        cfg.dram.t_refi = 500;
    }
    if faults {
        cfg.fault = FaultPlan::mild(0xFA17);
    }
    let engine = McSquareEngine::new(mcfg, cfg.channels);
    System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(engine))
}

#[test]
fn audited_bounce_heavy_workload_holds_all_invariants() {
    // Copies whose lines interleave across both channels, then demand
    // reads of every destination line: maximal bounce/BounceResp traffic.
    let (src, dst) = (PhysAddr(0x100000 + 20), PhysAddr(0x200000));
    let size = 1024u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    for i in 0..(size / 64) {
        uops.push(ld(dst.add(i * 64), 64));
    }
    for (refresh, faults) in SETTINGS {
        let mut sys = lazy_system(McSquareConfig::default(), uops.clone(), refresh, faults);
        let data = pattern(size as usize, 21);
        sys.poke(src, &data);
        run_audited(&mut sys, 16, 5_000_000);
        assert_eq!(sys.peek_materialized(dst, size as usize), data);
    }
}

#[test]
fn audited_source_write_and_free_workload_holds_all_invariants() {
    // Source writes (BPQ holds + forced flushes), chained copies, and an
    // MCFREE — the paths that mutate the CTT and pins concurrently.
    let a = PhysAddr(0x100000);
    let b = PhysAddr(0x200000);
    let c = PhysAddr(0x300000);
    let size = 512u64;
    let mut uops = memcpy_lazy_uops(0, b, a, size, &LazyOpts::default());
    uops.extend(memcpy_lazy_uops(uops.len() as u64, c, b, size, &LazyOpts::default()));
    // Dirty a source line and push it to the controller.
    uops.push(st(a.add(64), &[0x5A; 64]));
    uops.push(Uop::new(UopKind::Clwb { addr: a.add(64) }, StatTag::App));
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    // Read both destinations, free one, fence.
    for i in 0..(size / 64) {
        uops.push(ld(b.add(i * 64), 64));
        uops.push(ld(c.add(i * 64), 64));
    }
    uops.push(Uop::new(UopKind::Mcfree { addr: c, size }, StatTag::App));
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    for (refresh, faults) in SETTINGS {
        let mut sys = lazy_system(McSquareConfig::default(), uops.clone(), refresh, faults);
        let data = pattern(size as usize, 33);
        sys.poke(a, &data);
        run_audited(&mut sys, 16, 5_000_000);
        // The copies were logically taken before the source write.
        assert_eq!(sys.peek_materialized(b, size as usize), data);
    }
}

#[test]
fn run_performs_quiescence_audit() {
    // System::run itself must end with the strict quiescence audit (packet
    // ledgers empty, no leaked MSHRs/recons) — this is the path production
    // callers take.
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 256u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    for i in 0..(size / 64) {
        uops.push(ld(dst.add(i * 64), 64));
    }
    for (refresh, faults) in SETTINGS {
        let mut sys = lazy_system(McSquareConfig::default(), uops.clone(), refresh, faults);
        let data = pattern(size as usize, 55);
        sys.poke(src, &data);
        sys.run(50_000_000).expect("finishes");
        assert_eq!(sys.peek_materialized(dst, size as usize), data);
    }
}

#[test]
fn stall_cycles_are_attributed_exactly_once_under_lazy_load() {
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let mut uops = memcpy_lazy_uops(0, dst, src, 2048, &LazyOpts::default());
    for i in 0..32u64 {
        uops.push(ld(dst.add(i * 64), 64));
    }
    for (refresh, faults) in SETTINGS {
        let mut sys = lazy_system(McSquareConfig::default(), uops.clone(), refresh, faults);
        sys.poke(src, &pattern(2048, 3));
        let stats = sys.run(50_000_000).expect("finishes");
        let c = &stats.cores[0];
        assert_eq!(c.total_stalls(), c.stalled_cycles);
        assert!(c.stalled_cycles > 0, "a lazy memcpy with demand reads must stall somewhere");
        c.check_stall_accounting().expect("stall accounting exact");
    }
}
