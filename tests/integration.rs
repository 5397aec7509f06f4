//! Cross-crate integration tests: full workloads through the full
//! simulated machine, eager-vs-lazy equivalence, and end-to-end figure
//! harness smoke checks.

use mcs_sim::addr::PhysAddr;
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::FixedProgram;
use mcs_sim::system::System;
use mcs_workloads::common::marker_latencies;
use mcs_workloads::micro::{copy_latency, seq_access};
use mcs_workloads::CopyMech;
use mcsquare::{McSquareConfig, McSquareEngine};

fn run_gen(
    g: mcs_workloads::micro::Generated,
    cfg: SystemConfig,
    mc2: Option<McSquareConfig>,
) -> (System, mcs_sim::stats::RunStats) {
    let mut sys = match mc2 {
        Some(m) => {
            let e = McSquareEngine::new(m, cfg.channels);
            System::with_engine(cfg, vec![Box::new(FixedProgram::new(g.uops))], Box::new(e))
        }
        None => System::new(cfg, vec![Box::new(FixedProgram::new(g.uops))]),
    };
    g.pokes.apply(&mut sys);
    let stats = sys.run(5_000_000_000).expect("finishes");
    (sys, stats)
}

#[test]
fn fig10_shape_lazy_beats_eager_at_large_sizes() {
    // The headline claim at one size: a 64 KB lazy copy completes much
    // faster than the eager one (the data isn't moved yet), and remains
    // correct when later accessed.
    let mut space = AddrSpace::dram_3gb();
    let eager = copy_latency(CopyMech::Native, 64 * 1024, false, &mut space);
    let (_, se) = run_gen(eager, SystemConfig::table1_one_core(), None);
    let te = marker_latencies(&se.cores[0])[0];

    let mut space = AddrSpace::dram_3gb();
    let lazy = copy_latency(CopyMech::McSquare { threshold: 0 }, 64 * 1024, false, &mut space);
    let (_, sl) =
        run_gen(lazy, SystemConfig::table1_one_core(), Some(McSquareConfig::default()));
    let tl = marker_latencies(&sl.cores[0])[0];

    assert!(
        tl * 2 < te,
        "lazy 64KB copy ({tl} cy) should be far cheaper than eager ({te} cy)"
    );
}

#[test]
fn fig12_shape_sequential_access_stays_competitive() {
    // Even reading 100% of a misaligned lazy copy, the prefetcher keeps
    // (MC)² at or below ~1.3x the eager runtime (the paper reports ≤1.0;
    // we allow slack for the scaled substrate, the shape matters).
    let size = 512 * 1024u64;
    let mut space = AddrSpace::dram_3gb();
    let e = seq_access(CopyMech::Native, size, 1.0, true, &mut space);
    let (_, se) = run_gen(e, SystemConfig::table1_one_core(), None);
    let te = marker_latencies(&se.cores[0])[0];

    let mut space = AddrSpace::dram_3gb();
    let l = seq_access(CopyMech::McSquare { threshold: 0 }, size, 1.0, true, &mut space);
    let (sys, sl) =
        run_gen(l, SystemConfig::table1_one_core(), Some(McSquareConfig::default()));
    let tl = marker_latencies(&sl.cores[0])[0];

    assert!(
        (tl as f64) < te as f64 * 1.3,
        "lazy full-access runtime {tl} too far above eager {te}"
    );
    drop(sys);
}

#[test]
fn lazy_copy_correct_under_table1_config_with_prefetchers() {
    // Correctness of the bounce path under the full-size machine with
    // both prefetchers on (they generate prefetch reads of tracked lines).
    let size = 128 * 1024u64;
    let mut space = AddrSpace::dram_3gb();
    let g = seq_access(CopyMech::McSquare { threshold: 0 }, size, 1.0, true, &mut space);
    let dst = g.dst;
    let want = mcs_workloads::common::pattern(size as usize, 11);
    let (sys, _) = run_gen(g, SystemConfig::table1_one_core(), Some(McSquareConfig::default()));
    assert_eq!(sys.peek_materialized(dst, size as usize), want);
}

#[test]
fn multicore_mvcc_lazy_vs_eager_same_retires() {
    // 4 cores running MVCC partitions: both mechanisms must retire the
    // same uop counts (same work), lazy must not deadlock under sharing
    // of the memory controllers.
    use mcs_sim::program::Program;
    use mcs_workloads::mvcc::{mvcc_multithread, MvccConfig, UpdateKind};
    let base = MvccConfig {
        tuples: 8,
        tuple_size: 4096,
        txns: 16,
        kind: UpdateKind::Rmw,
        ..MvccConfig::default()
    };
    let mut counts = Vec::new();
    for lazy in [false, true] {
        let mut space = AddrSpace::dram_3gb();
        let mech =
            if lazy { CopyMech::McSquare { threshold: 0 } } else { CopyMech::Native };
        let progs = mvcc_multithread(mech, &base, 4, &mut space);
        let mut cfg = SystemConfig::table1();
        cfg.cores = 4;
        let mut pokes = mcs_workloads::Pokes::default();
        let mut programs: Vec<Box<dyn Program>> = Vec::new();
        for (u, p) in progs {
            programs.push(Box::new(FixedProgram::new(u)));
            pokes.0.extend(p.0);
        }
        let mut sys = if lazy {
            let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
            System::with_engine(cfg, programs, Box::new(e))
        } else {
            System::new(cfg, programs)
        };
        pokes.apply(&mut sys);
        let st = sys.run(10_000_000_000).expect("finishes");
        counts.push(st.cores.iter().map(|c| c.loads + c.stores).sum::<u64>());
    }
    // Same loads+stores modulo the copy mechanism's own accesses: lazy
    // replaces copy loads/stores with CLWB+MCLAZY, so lazy ≤ eager.
    assert!(counts[1] <= counts[0], "lazy must not add demand accesses: {counts:?}");
}

#[test]
fn cow_snapshot_data_isolation() {
    // After fork + parent writes, the child's (snapshot) pages must hold
    // the ORIGINAL data; the parent's faulted pages hold the new write.
    use mcs_os::{CopyMode, Kernel, OsCosts, PageSize, VirtAddr, Vm};
    let mut kernel =
        Kernel::new(OsCosts::free(), AddrSpace::new(PhysAddr(1 << 21), 1 << 30));
    let mut parent = Vm::new();
    let base = VirtAddr(0x100_0000);
    let pa0 = kernel.mmap(&mut parent, base, 2 << 20, PageSize::Huge2M);
    let (child, _) = kernel.fork(&mut parent, mcs_sim::uop::StatTag::Kernel);

    // Parent faults (lazy mode) and then stores.
    let mut uops = kernel.handle_cow_fault(&mut parent, base, CopyMode::Lazy, 0);
    let (new_pa, _) = parent.translate(base).unwrap();
    uops.push(mcs_sim::uop::Uop::new(
        mcs_sim::uop::UopKind::Store {
            addr: new_pa,
            size: 8,
            data: mcs_sim::uop::StoreData::Splat(0xEE),
            nontemporal: false,
        },
        mcs_sim::uop::StatTag::App,
    ));
    uops.push(mcs_sim::uop::Uop::new(mcs_sim::uop::UopKind::Mfence, mcs_sim::uop::StatTag::App));
    // Read back both copies through the memory system.
    for off in [0u64, 64] {
        uops.push(mcs_sim::uop::Uop::new(
            mcs_sim::uop::UopKind::Load { addr: new_pa.add(off), size: 8 },
            mcs_sim::uop::StatTag::App,
        ));
    }

    let cfg = SystemConfig::table1_one_core();
    let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
    let mut sys = System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(e));
    sys.poke(pa0, &mcs_workloads::common::pattern(4096, 7));
    sys.run(5_000_000_000).expect("finishes");

    let (child_pa, _) = child.translate(base).unwrap();
    assert_eq!(child_pa, pa0, "child still maps the original frame");
    assert_eq!(
        sys.peek_materialized(child_pa, 8),
        mcs_workloads::common::pattern(8, 7),
        "snapshot unchanged"
    );
    let got = sys.peek_materialized(new_pa, 8);
    assert_eq!(got, vec![0xEE; 8], "parent sees its write");
    // Bytes beyond the write come from the lazy copy of the original page.
    assert_eq!(
        sys.peek_materialized(new_pa.add(64), 8),
        mcs_workloads::common::pattern(4096, 7)[64..72].to_vec(),
    );
}

#[test]
fn pipe_transfer_delivers_data_lazily() {
    use mcs_os::{CopyMode, OsCosts, Pipe};
    let mut space = AddrSpace::dram_3gb();
    let kbuf = space.alloc_page(64 * 1024);
    let src = space.alloc_page(8192);
    let dst = space.alloc_page(8192);
    let mut pipe = Pipe::new(kbuf, 64 * 1024, OsCosts::default());
    let mut uops = Vec::new();
    let (w, n) = pipe.write_uops(0, src, 8192, CopyMode::Lazy);
    assert_eq!(n, 8192);
    uops.extend(w);
    let (r, m) = pipe.read_uops(uops.len() as u64, dst, 8192, CopyMode::Lazy);
    assert_eq!(m, 8192);
    uops.extend(r);
    // Touch everything so the chain of lazy copies resolves.
    for i in 0..(8192 / 64) {
        uops.push(mcs_sim::uop::Uop::new(
            mcs_sim::uop::UopKind::Load { addr: dst.add(i * 64), size: 64 },
            mcs_sim::uop::StatTag::App,
        ));
    }
    let cfg = SystemConfig::table1_one_core();
    let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
    let mut sys = System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(e));
    let data = mcs_workloads::common::pattern(8192, 31);
    sys.poke(src, &data);
    let stats = sys.run(5_000_000_000).expect("finishes");
    assert_eq!(sys.peek_materialized(dst, 8192), data, "user→kernel→user chain intact");
    assert!(stats.engine_counter("ctt_chain_collapses") > 0, "kernel-buffer hop collapsed");
}
