//! End-to-end tests of the (MC)² engine through the full simulated
//! machine: CPU → caches → interconnect → memory controllers.
//!
//! These validate the paper's correctness story (§III-E, Fig. 9): at all
//! times data appears to the program as if it had been copied eagerly, for
//! every access pattern the state machine covers — destination reads
//! (bounce), destination writes (untrack), source writes (BPQ), source
//! reads (pass-through), misaligned two-bounce reconstruction, MCFREE, and
//! asynchronous draining.

use mcs_sim::addr::PhysAddr;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::FixedProgram;
use mcs_sim::stats::RunStats;
use mcs_sim::system::System;
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};
use mcsquare::config::McSquareConfig;
use mcsquare::engine::McSquareEngine;
use mcsquare::software::{memcpy_lazy_uops, LazyOpts};

fn lazy_system(cfg: SystemConfig, mcfg: McSquareConfig, uops: Vec<Uop>) -> System {
    let engine = McSquareEngine::new(mcfg, cfg.channels);
    System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(engine))
}

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

fn fence() -> Uop {
    Uop::new(UopKind::Mfence, StatTag::App)
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u64 * 131 + seed as u64).wrapping_rem(251) as u8).collect()
}

/// Run to completion and return (system, stats).
fn run(mut sys: System) -> (System, RunStats) {
    let stats = sys.run(50_000_000).expect("program finishes");
    (sys, stats)
}

#[test]
fn lazy_copy_converges_to_eager_result() {
    let cfg = SystemConfig::tiny();
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 4096u64;
    let uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    let data = pattern(size as usize, 1);
    sys.poke(src, &data);
    let (sys, stats) = run(sys);
    assert!(stats.engine_counter("ctt_inserts") >= 1);
    // No demand access: the data either stays tracked or was drained; a
    // coherent read of the *tracked view* must equal the eager result.
    // Drain the table by checking DRAM + CTT convergence: simplest strong
    // check is via a second run with reads (below); here assert tracking
    // bookkeeping stayed sane.
    assert_eq!(stats.engine_counter("ctt_full_rejects"), 0);
    drop(sys);
}

#[test]
fn destination_reads_bounce_and_return_source_data() {
    let cfg = SystemConfig::tiny();
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 1024u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    let base = uops.len() as u64;
    for i in 0..(size / 64) {
        uops.push(ld(dst.add(i * 64), 64));
    }
    let _ = base;
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    let data = pattern(size as usize, 7);
    sys.poke(src, &data);
    let (sys, stats) = run(sys);
    // Every destination line was served; loads observed the source bytes.
    assert_eq!(sys.peek_materialized(dst, size as usize), data, "reads saw eager-copy data");
    assert!(
        stats.engine_counter("recon_demand") >= 1,
        "destination reads must reconstruct: {stats}"
    );
}

#[test]
fn misaligned_copy_needs_two_sources_per_line() {
    let cfg = SystemConfig::tiny();
    // Source deliberately misaligned by 20 bytes: every destination line
    // spans two source lines (§III-B2 "unaligned copies").
    let (src, dst) = (PhysAddr(0x100000 + 20), PhysAddr(0x200000));
    let size = 512u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    for i in 0..(size / 64) {
        uops.push(ld(dst.add(i * 64), 64));
    }
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    let data = pattern(size as usize, 9);
    sys.poke(src, &data);
    let (sys, _stats) = run(sys);
    assert_eq!(sys.peek_materialized(dst, size as usize), data);
}

#[test]
fn destination_write_untracks_and_wins() {
    let cfg = SystemConfig::tiny();
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 256u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    // Overwrite the second destination line, flush it to memory, fence.
    uops.push(st(dst.add(64), &[0xEE; 64]));
    uops.push(Uop::new(UopKind::Clwb { addr: dst.add(64) }, StatTag::App));
    uops.push(fence());
    // Read everything back.
    for i in 0..(size / 64) {
        uops.push(ld(dst.add(i * 64), 64));
    }
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    let data = pattern(size as usize, 3);
    sys.poke(src, &data);
    let (sys, _) = run(sys);
    let got = sys.peek_materialized(dst, size as usize);
    assert_eq!(&got[..64], &data[..64]);
    assert_eq!(&got[64..128], &[0xEE; 64][..], "fresh write beats the lazy copy");
    assert_eq!(&got[128..], &data[128..]);
}

#[test]
fn source_write_preserves_copy_via_bpq() {
    // Fig. 9 states 2→3→4: write to the source after MCLAZY; the
    // destination must still observe the ORIGINAL source data.
    let cfg = SystemConfig::tiny();
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 256u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    // Overwrite source line 1 and force it to memory (CLWB + fence pushes
    // the write to the controller, where the BPQ must hold it).
    uops.push(st(src.add(64), &[0x55; 64]));
    uops.push(Uop::new(UopKind::Clwb { addr: src.add(64) }, StatTag::App));
    uops.push(fence());
    // Now read the destination.
    for i in 0..(size / 64) {
        uops.push(ld(dst.add(i * 64), 64));
    }
    uops.push(fence());
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    let data = pattern(size as usize, 5);
    sys.poke(src, &data);
    let (sys, stats) = run(sys);
    assert_eq!(
        sys.peek_materialized(dst, size as usize),
        data,
        "destination sees pre-write source data"
    );
    // And the source itself holds the new bytes after the BPQ released.
    assert_eq!(sys.peek_materialized(src.add(64), 64), vec![0x55; 64]);
    assert!(
        stats.engine_counter("recon_src_flush") >= 1,
        "source write must flush dependent copies: {stats}"
    );
}

#[test]
fn source_reads_pass_through_untouched() {
    let cfg = SystemConfig::tiny();
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 256u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    for i in 0..(size / 64) {
        uops.push(ld(src.add(i * 64), 64));
    }
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    let data = pattern(size as usize, 2);
    sys.poke(src, &data);
    let (sys, stats) = run(sys);
    assert_eq!(sys.peek_materialized(src, size as usize), data);
    // Source reads must not reconstruct anything by themselves (drains
    // may, so only demand reconstructions are checked).
    assert_eq!(stats.engine_counter("recon_demand"), 0);
}

#[test]
fn mcfree_drops_tracking() {
    let cfg = SystemConfig::tiny();
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 512u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    uops.push(Uop::new(UopKind::Mcfree { addr: dst, size }, StatTag::App));
    uops.push(fence());
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    sys.poke(src, &pattern(size as usize, 4));
    let (_, stats) = run(sys);
    assert!(stats.engine_counter("ctt_freed_entries") >= 1, "{stats}");
    assert_eq!(stats.engine_counter("ctt_live_entries"), 0);
}

#[test]
fn ctt_pressure_triggers_async_drain() {
    let cfg = SystemConfig::tiny();
    let mcfg = McSquareConfig { ctt_entries: 8, drain_threshold: 0.5, ..McSquareConfig::tiny() };
    // Many small, non-mergeable copies (distinct pages) to fill the CTT.
    let mut uops = Vec::new();
    let opts = LazyOpts { clwb_sources: false, fence: false, ..LazyOpts::default() };
    for i in 0..12u64 {
        let dst = PhysAddr(0x200000 + i * 8192);
        let src = PhysAddr(0x100000 + i * 8192);
        uops.extend(memcpy_lazy_uops(uops.len() as u64, dst, src, 64, &opts));
    }
    uops.push(fence());
    let mut sys = lazy_system(cfg, mcfg, uops);
    for i in 0..12u64 {
        sys.poke(PhysAddr(0x100000 + i * 8192), &pattern(64, i as u8));
    }
    let (sys, stats) = run(sys);
    assert!(
        stats.engine_counter("recon_drain") >= 1,
        "drain engine must kick in above threshold: {stats}"
    );
    // Drained copies landed correctly in memory.
    for i in 0..stats.engine_counter("recon_drain").min(12) {
        let dst = PhysAddr(0x200000 + i * 8192);
        let want = pattern(64, i as u8);
        let got = sys.peek_materialized(dst, 64);
        if got == want {
            return; // at least one fully drained line verified
        }
    }
    panic!("no drained destination matched its source");
}

#[test]
fn ctt_full_applies_backpressure_but_completes() {
    let cfg = SystemConfig::tiny();
    // CTT of 4 entries, drains disabled by a high threshold at first is
    // not possible (threshold ≤ 1.0 always drains at full), so use a tiny
    // table and many copies: correctness must hold regardless of stalls.
    let mcfg = McSquareConfig { ctt_entries: 4, ..McSquareConfig::tiny() };
    let mut uops = Vec::new();
    for i in 0..10u64 {
        let dst = PhysAddr(0x400000 + i * 8192);
        let src = PhysAddr(0x300000 + i * 8192);
        uops.extend(memcpy_lazy_uops(uops.len() as u64, dst, src, 128, &LazyOpts::default()));
    }
    for i in 0..10u64 {
        // Read both lines of each copy: a tracked entry below the drain
        // threshold legitimately stays lazy until accessed.
        uops.push(ld(PhysAddr(0x400000 + i * 8192), 64));
        uops.push(ld(PhysAddr(0x400000 + i * 8192 + 64), 64));
    }
    let mut sys = lazy_system(cfg, mcfg, uops);
    for i in 0..10u64 {
        sys.poke(PhysAddr(0x300000 + i * 8192), &pattern(128, i as u8));
    }
    let (sys, stats) = run(sys);
    for i in 0..10u64 {
        assert_eq!(
            sys.peek_materialized(PhysAddr(0x400000 + i * 8192), 128),
            pattern(128, i as u8),
            "copy {i}"
        );
    }
    assert!(stats.mc_input_stalls() > 0 || stats.engine_counter("ctt_full_retries") > 0);
}

#[test]
fn copy_chain_collapses_and_reads_original() {
    // A → B, then B → C; reading C must return A's data even though B was
    // never materialised (§III-A1 chain rule).
    let cfg = SystemConfig::tiny();
    let a = PhysAddr(0x100000);
    let b = PhysAddr(0x200000);
    let c = PhysAddr(0x300000);
    let size = 256u64;
    let mut uops = memcpy_lazy_uops(0, b, a, size, &LazyOpts::default());
    uops.extend(memcpy_lazy_uops(uops.len() as u64, c, b, size, &LazyOpts::default()));
    for i in 0..(size / 64) {
        uops.push(ld(c.add(i * 64), 64));
    }
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    let data = pattern(size as usize, 11);
    sys.poke(a, &data);
    let (sys, stats) = run(sys);
    assert_eq!(sys.peek_materialized(c, size as usize), data);
    assert!(stats.engine_counter("ctt_chain_collapses") >= 1, "{stats}");
}

#[test]
fn repeated_copy_to_same_destination_takes_latest_source() {
    let cfg = SystemConfig::tiny();
    let s1 = PhysAddr(0x100000);
    let s2 = PhysAddr(0x180000);
    let d = PhysAddr(0x200000);
    let size = 256u64;
    let mut uops = memcpy_lazy_uops(0, d, s1, size, &LazyOpts::default());
    uops.extend(memcpy_lazy_uops(uops.len() as u64, d, s2, size, &LazyOpts::default()));
    for i in 0..(size / 64) {
        uops.push(ld(d.add(i * 64), 64));
    }
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    sys.poke(s1, &pattern(size as usize, 1));
    let newer = pattern(size as usize, 42);
    sys.poke(s2, &newer);
    let (sys, _) = run(sys);
    assert_eq!(sys.peek_materialized(d, size as usize), newer, "second copy wins");
}

#[test]
fn nontemporal_store_to_destination_untracks() {
    let cfg = SystemConfig::tiny();
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 128u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    uops.push(Uop::new(
        UopKind::Store {
            addr: dst,
            size: 64,
            data: StoreData::Splat(0x77),
            nontemporal: true,
        },
        StatTag::App,
    ));
    uops.push(fence());
    for i in 0..(size / 64) {
        uops.push(ld(dst.add(i * 64), 64));
    }
    let mut sys = lazy_system(cfg, McSquareConfig::default(), uops);
    let data = pattern(size as usize, 8);
    sys.poke(src, &data);
    let (sys, _) = run(sys);
    let got = sys.peek_materialized(dst, size as usize);
    assert_eq!(&got[..64], &[0x77; 64][..]);
    assert_eq!(&got[64..], &data[64..]);
}

#[test]
fn no_writeback_ablation_still_correct() {
    let cfg = SystemConfig::tiny();
    let mcfg = McSquareConfig { writeback_after_bounce: false, ..McSquareConfig::default() };
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 512u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    // Read each destination line twice: without writeback the second read
    // bounces again (the Fig. 13 ablation's cost), but stays correct.
    for _ in 0..2 {
        for i in 0..(size / 64) {
            uops.push(ld(dst.add(i * 64), 64));
        }
    }
    let mut sys = lazy_system(cfg, mcfg, uops);
    let data = pattern(size as usize, 13);
    sys.poke(src, &data);
    let (sys, stats) = run(sys);
    assert_eq!(sys.peek_materialized(dst, size as usize), data);
    assert!(stats.engine_counter("writebacks_rejected") >= 1, "{stats}");
}

#[test]
fn eager_and_lazy_agree_on_final_memory_random_program() {
    // Differential test: the same random mix of copies, stores and loads
    // executed (a) eagerly on the baseline and (b) lazily on (MC)² must
    // leave identical architectural memory.
    use mcs_sim::uop::StatTag::App;
    let mut ops: Vec<(u64, u64, u64)> = Vec::new(); // (dst page, src page, bytes)
    let mut x = 0x243F6A8885A308D3u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..6 {
        let d = rnd() % 16;
        let mut s = rnd() % 16;
        if s == d {
            s = (s + 1) % 16;
        }
        let bytes = 64 + (rnd() % 512);
        ops.push((d, s, bytes));
    }

    let build = |lazy: bool| -> Vec<Uop> {
        let mut uops = Vec::new();
        for (d, s, bytes) in &ops {
            let dst = PhysAddr(0x500000 + d * 4096);
            let src = PhysAddr(0x500000 + s * 4096);
            if lazy {
                uops.extend(memcpy_lazy_uops(uops.len() as u64, dst, src, *bytes, &LazyOpts::default()));
            } else {
                uops.extend(mcsquare::software::memcpy_eager_uops(
                    uops.len() as u64,
                    dst,
                    src,
                    *bytes,
                    StatTag::Memcpy,
                ));
                // Flush so final DRAM converges for comparison.
                for l in mcs_sim::addr::lines_of(dst, *bytes) {
                    uops.push(Uop::new(UopKind::Clwb { addr: l }, App));
                }
                uops.push(fence());
            }
        }
        // Touch every page at the end so lazy copies resolve.
        for p in 0..16u64 {
            for l in 0..(4096 / 64) {
                uops.push(ld(PhysAddr(0x500000 + p * 4096 + l * 64), 64));
            }
        }
        uops
    };

    let init: Vec<u8> = (0..16 * 4096).map(|i| (i as u64 * 37 % 251) as u8).collect();

    let mut base = System::new(SystemConfig::tiny(), vec![Box::new(FixedProgram::new(build(false)))]);
    base.poke(PhysAddr(0x500000), &init);
    base.run(100_000_000).expect("baseline finishes");

    let mut lazy = lazy_system(SystemConfig::tiny(), McSquareConfig::default(), build(true));
    lazy.poke(PhysAddr(0x500000), &init);
    lazy.run(100_000_000).expect("lazy finishes");

    assert_eq!(
        base.peek_materialized(PhysAddr(0x500000), 16 * 4096),
        lazy.peek_materialized(PhysAddr(0x500000), 16 * 4096),
        "architectural memory diverged between eager and lazy execution"
    );
}

#[test]
fn ctt_full_fallback_preserves_data_and_counts_rejects() {
    // Regression for the `CttError::Full` path: when the CTT rejects an
    // MCLAZY because the table is full, the request is retried at the
    // controller until draining (or demand reconstruction) frees an entry
    // — the copy must never be lost. Config::tiny + McSquareConfig::tiny
    // (8 entries, drain at 50%) with a burst of distinct-page copies
    // overruns the table deterministically.
    let cfg = SystemConfig::tiny();
    let mcfg = McSquareConfig::tiny();
    let n = 24u64;
    let mut uops = Vec::new();
    let opts = LazyOpts { clwb_sources: false, fence: false, ..LazyOpts::default() };
    for i in 0..n {
        let dst = PhysAddr(0x400000 + i * 8192);
        let src = PhysAddr(0x300000 + i * 8192);
        uops.extend(memcpy_lazy_uops(uops.len() as u64, dst, src, 64, &opts));
    }
    uops.push(fence());
    for i in 0..n {
        uops.push(ld(PhysAddr(0x400000 + i * 8192), 64));
    }
    let mut sys = lazy_system(cfg, mcfg, uops);
    for i in 0..n {
        sys.poke(PhysAddr(0x300000 + i * 8192), &pattern(64, i as u8));
    }
    let (sys, stats) = run(sys);
    assert!(
        stats.engine_counter("ctt_full_rejects") >= 1,
        "a 24-copy burst must overrun an 8-entry CTT: {stats}"
    );
    assert!(stats.engine_counter("ctt_full_retries") >= 1, "{stats}");
    // Oracle: every destination equals its source pattern, as if copied
    // eagerly — back-pressure degraded timing, not data.
    for i in 0..n {
        assert_eq!(
            sys.peek_materialized(PhysAddr(0x400000 + i * 8192), 64),
            pattern(64, i as u8),
            "copy {i} lost under CTT-full back-pressure"
        );
    }
}

#[test]
fn lazy_copy_survives_mild_fault_plan() {
    // End-to-end graceful degradation: ECC retries, poisoned lines, link
    // jitter/duplication, controller stalls, forced CTT flushes and
    // dropped-entry repairs all active — the lazy copy must still be
    // indistinguishable from an eager one at every load.
    let mut cfg = SystemConfig::tiny();
    cfg.fault = mcs_sim::fault::FaultPlan::mild(0xBAD5EED);
    let mcfg = McSquareConfig::tiny();
    let (src, dst) = (PhysAddr(0x100000), PhysAddr(0x200000));
    let size = 8192u64;
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    for i in 0..(size / 64) {
        uops.push(ld(dst.add(i * 64), 64));
    }
    uops.push(fence());
    let engine = McSquareEngine::with_faults(mcfg, cfg.channels, &cfg.fault);
    let mut sys = System::with_engine(
        cfg,
        vec![Box::new(FixedProgram::new(uops))],
        Box::new(engine),
    );
    let data = pattern(size as usize, 21);
    sys.poke(src, &data);
    let stats = sys.run(50_000_000).expect("finishes under mild faults");
    assert_eq!(sys.peek_materialized(dst, size as usize), data, "faults must not corrupt the copy");
    let injected: u64 = stats.mcs.iter().map(|m| m.fault_events()).sum();
    assert!(injected > 0, "mild plan must actually inject at this scale");
}
