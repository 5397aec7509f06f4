//! Multi-core coherence tests for the MSI directory: cross-core
//! visibility, ownership migration, recall/downgrade, non-temporal
//! invalidation, and writeback ordering — exercised through the full
//! system rather than unit-level handlers.

use mcs_sim::addr::PhysAddr;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::{FixedProgram, Program};
use mcs_sim::system::System;
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};

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

fn fence() -> Uop {
    Uop::new(UopKind::Mfence, StatTag::App)
}

fn two_core_sys(p0: Vec<Uop>, p1: Vec<Uop>) -> System {
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 2;
    let programs: Vec<Box<dyn Program>> =
        vec![Box::new(FixedProgram::new(p0)), Box::new(FixedProgram::new(p1))];
    System::new(cfg, programs)
}

#[test]
fn ownership_migrates_between_writers() {
    // Both cores write the same line (different bytes); the directory must
    // recall ownership back and forth and preserve both writes.
    let reps = 8u64;
    let mut p0 = Vec::new();
    let mut p1 = Vec::new();
    for i in 0..reps {
        p0.push(st(0x9000, &[i as u8]));
        p0.push(fence());
        p1.push(st(0x9008, &[(100 + i) as u8]));
        p1.push(fence());
    }
    let mut sys = two_core_sys(p0, p1);
    sys.run(50_000_000).expect("finishes");
    assert_eq!(sys.peek_materialized(PhysAddr(0x9000), 1), vec![(reps - 1) as u8]);
    assert_eq!(sys.peek_materialized(PhysAddr(0x9008), 1), vec![(100 + reps - 1) as u8]);
}

#[test]
fn reader_sees_writers_final_value_after_drain() {
    // Writer stores then flushes to memory; reader polls the same line.
    // After both finish, every copy agrees.
    let p0 = vec![
        st(0xa000, &[0xCC]),
        Uop::new(UopKind::Clwb { addr: PhysAddr(0xa000) }, StatTag::App),
        fence(),
    ];
    let p1: Vec<Uop> = (0..6).map(|_| ld(0xa000, 1)).collect();
    let mut sys = two_core_sys(p0, p1);
    sys.run(50_000_000).expect("finishes");
    assert_eq!(sys.peek(PhysAddr(0xa000), 1), vec![0xCC], "memory drained");
    assert_eq!(sys.peek_materialized(PhysAddr(0xa000), 1), vec![0xCC]);
}

#[test]
fn nontemporal_store_invalidates_remote_copies() {
    // Core 1 caches a line; core 0 NT-stores the whole line; the final
    // coherent view must be the NT data (remote copy invalidated, not
    // resurrected by a stale writeback).
    let p1 = vec![ld(0xb000, 8), ld(0xb000, 8)];
    let p0 = vec![
        Uop::new(
            UopKind::Store {
                addr: PhysAddr(0xb000),
                size: 64,
                data: StoreData::Splat(0x7E),
                nontemporal: true,
            },
            StatTag::App,
        ),
        fence(),
    ];
    let mut sys = two_core_sys(p0, p1);
    sys.poke(PhysAddr(0xb000), &[1u8; 64]);
    sys.run(50_000_000).expect("finishes");
    assert_eq!(sys.peek_materialized(PhysAddr(0xb000), 8), vec![0x7E; 8]);
    assert_eq!(sys.peek(PhysAddr(0xb000), 8), vec![0x7E; 8], "NT wrote through");
}

#[test]
fn interleaved_false_sharing_preserves_both_halves() {
    // Classic false sharing: two cores hammer disjoint halves of one line.
    let mut p0 = Vec::new();
    let mut p1 = Vec::new();
    for i in 0..10u8 {
        p0.push(st(0xc000, &[i, i]));
        p1.push(st(0xc020, &[i + 50, i + 50]));
    }
    p0.push(fence());
    p1.push(fence());
    let mut sys = two_core_sys(p0, p1);
    sys.run(50_000_000).expect("finishes");
    assert_eq!(sys.peek_materialized(PhysAddr(0xc000), 2), vec![9, 9]);
    assert_eq!(sys.peek_materialized(PhysAddr(0xc020), 2), vec![59, 59]);
}

#[test]
fn capacity_evictions_do_not_lose_writes() {
    // Dirty a working set far larger than L1 (1 KB) and LLC (4 KB) so
    // evictions and writebacks churn; every byte must survive.
    let lines = 256u64; // 16 KB
    let base = 0x40000u64;
    let mut p0 = Vec::new();
    for i in 0..lines {
        p0.push(st(base + i * 64, &[(i % 251) as u8]));
    }
    p0.push(fence());
    // Read everything back (forces misses through the churned hierarchy).
    for i in 0..lines {
        p0.push(ld(base + i * 64, 1));
    }
    let mut sys = two_core_sys(p0, vec![]);
    sys.run(100_000_000).expect("finishes");
    for i in 0..lines {
        assert_eq!(
            sys.peek_materialized(PhysAddr(base + i * 64), 1),
            vec![(i % 251) as u8],
            "line {i}"
        );
    }
}

#[test]
fn read_sharing_scales_to_eight_cores() {
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 8;
    let programs: Vec<Box<dyn Program>> = (0..8)
        .map(|_| {
            let p: Vec<Uop> = (0..8u64).map(|i| ld(0xd000 + i * 64, 8)).collect();
            Box::new(FixedProgram::new(p)) as Box<dyn Program>
        })
        .collect();
    let mut sys = System::new(cfg, programs);
    sys.poke(PhysAddr(0xd000), &[0xAB; 512]);
    let stats = sys.run(100_000_000).expect("finishes");
    // One memory fill per line; everyone else hits the LLC.
    let mem_reads: u64 = stats.mcs.iter().map(|m| m.reads).sum();
    assert!(mem_reads <= 8 + 2, "shared reads must not refetch: {mem_reads}");
    for c in &stats.cores {
        assert_eq!(c.loads, 8);
    }
}

#[test]
fn writer_then_reader_chain_through_three_cores() {
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 3;
    // Core 0 writes A; core 1 copies A→B (eagerly, with polling loads);
    // core 2 reads B. Without inter-core synchronisation primitives we
    // only assert the final coherent state.
    let p0 = vec![st(0xe000, &[7]), fence()];
    let p1 = vec![ld(0xe000, 1), st(0xe100, &[1]), fence()];
    let p2 = vec![ld(0xe100, 1)];
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(FixedProgram::new(p0)),
        Box::new(FixedProgram::new(p1)),
        Box::new(FixedProgram::new(p2)),
    ];
    let mut sys = System::new(cfg, programs);
    sys.run(50_000_000).expect("finishes");
    assert_eq!(sys.peek_materialized(PhysAddr(0xe000), 1), vec![7]);
    assert_eq!(sys.peek_materialized(PhysAddr(0xe100), 1), vec![1]);
}
