//! Hugepage copy-on-write workload (Fig. 18) — virtual-memory
//! snapshotting via `fork`.
//!
//! An in-memory database initialises a large hugepage-mapped region, forks
//! to take a consistent snapshot, then keeps serving writes: each write to
//! a still-shared hugepage traps, and the unmodified kernel copies the
//! whole 2 MB page in the handler (the latency spike Redis warns about),
//! while the paper's kernel issues a single `MCLAZY` instead. The workload
//! updates random 8-byte elements and brackets every update with markers,
//! reproducing the paper's per-access RDTSC measurement.

use crate::common::{marker, pattern, Pokes};
use mcs_os::{CopyMode, Kernel, PageSize, VirtAddr, Vm};
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};
use rand::RngExt;

/// COW workload parameters.
#[derive(Clone, Debug)]
pub struct CowConfig {
    /// Region size in bytes (paper: 64 MB; must be a page multiple).
    pub region: u64,
    /// Random 8-byte updates measured (paper: first 100 accesses).
    pub updates: usize,
    /// Kernel copy mode in the fault handler.
    pub mode: CopyMode,
    /// Page size of the mapping (the paper contrasts 4 KB faults, whose
    /// copy is small, with 2 MB hugepage faults, whose copy dominates).
    pub page: PageSize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CowConfig {
    fn default() -> Self {
        CowConfig {
            region: 16 * 1024 * 1024,
            updates: 100,
            mode: CopyMode::Eager,
            page: PageSize::Huge2M,
            seed: 0xF0F0,
        }
    }
}

/// Build the fork+COW workload. Returns the uops, pokes, and the kernel
/// (whose stats report faults and pages copied). Marker pair `2k`/`2k+1`
/// brackets update `k`.
pub fn cow_program(cfg: &CowConfig, kernel: &mut Kernel) -> (Vec<Uop>, Pokes) {
    assert_eq!(cfg.region % cfg.page.bytes(), 0);
    let mut vm = Vm::new();
    let base_va = VirtAddr(0x4000_0000);
    let pa = kernel.mmap(&mut vm, base_va, cfg.region, cfg.page);

    let mut pokes = Pokes::default();
    pokes.add(pa, pattern(cfg.region as usize, 29));

    let mut uops: Vec<Uop> = Vec::new();
    // fork(): the snapshot child shares every page; parent pages go COW.
    let (_child, fork_cost) = kernel.fork(&mut vm, StatTag::Kernel);
    uops.extend(fork_cost);

    let mut r = crate::dist::rng(cfg.seed);
    for k in 0..cfg.updates {
        // Random aligned 8-byte element.
        let off = r.random_range(0..cfg.region / 8) * 8;
        let va = VirtAddr(base_va.0 + off);
        marker(&mut uops, (2 * k) as u32);
        let (pa, mv) = vm.translate(va).expect("mapped");
        if mv.cow {
            let plan = kernel.handle_cow_fault(&mut vm, va, cfg.mode, uops.len() as u64);
            uops.extend(plan);
        }
        // Re-translate: the fault may have remapped the page.
        let (pa, _) = vm.translate(va).unwrap_or((pa, mv));
        uops.push(Uop::new(
            UopKind::Store {
                addr: pa,
                size: 8,
                data: StoreData::Splat(0x5A),
                nontemporal: false,
            },
            StatTag::App,
        ));
        marker(&mut uops, (2 * k + 1) as u32);
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    (uops, pokes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sim::addr::PhysAddr;
    use crate::common::marker_latencies;
    use mcs_os::OsCosts;
    use mcs_sim::alloc::AddrSpace;
    use mcs_sim::config::SystemConfig;
    use mcs_sim::program::FixedProgram;
    use mcs_sim::system::System;
    use mcsquare::{McSquareConfig, McSquareEngine};

    fn small() -> CowConfig {
        CowConfig { region: 2 * PageSize::Huge2M.bytes(), updates: 8, ..CowConfig::default() }
    }

    fn run(mode: CopyMode) -> (Vec<u64>, mcs_os::vm::KernelStats) {
        let mut kernel =
            Kernel::new(OsCosts::default(), AddrSpace::new(PhysAddr(1 << 21), 1 << 30));
        let cfgw = CowConfig { mode, ..small() };
        let (uops, pokes) = cow_program(&cfgw, &mut kernel);
        let cfg = SystemConfig::tiny();
        let mut sys = match mode {
            CopyMode::Lazy => {
                let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
                System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(e))
            }
            CopyMode::Eager => System::new(cfg, vec![Box::new(FixedProgram::new(uops))]),
        };
        pokes.apply(&mut sys);
        let st = sys.run(2_000_000_000).expect("finishes");
        (marker_latencies(&st.cores[0]), kernel.stats.clone())
    }

    #[test]
    fn eager_faults_spike_lazy_does_not() {
        let (eager, es) = run(CopyMode::Eager);
        let (lazy, ls) = run(CopyMode::Lazy);
        assert_eq!(eager.len(), 8);
        assert_eq!(lazy.len(), 8);
        assert!(es.cow_faults >= 1 && es.cow_faults <= 2);
        assert_eq!(es.cow_faults, ls.cow_faults, "same fault pattern");
        let emax = *eager.iter().max().unwrap();
        let lmax = *lazy.iter().max().unwrap();
        assert!(
            emax > 10 * lmax,
            "eager 2MB copy must dominate lazy fault: {emax} vs {lmax}"
        );
    }

    #[test]
    fn non_faulting_updates_are_fast_in_both() {
        let (eager, _) = run(CopyMode::Eager);
        let min = *eager.iter().min().unwrap();
        let max = *eager.iter().max().unwrap();
        assert!(max > 20 * min, "fault spike vs plain store");
    }

    #[test]
    fn small_pages_fault_often_but_cheaply() {
        // 4 KB mapping: many more faults, each copying only 4 KB — the
        // reason fork is tolerable without huge pages (§V-B).
        let mut kernel =
            Kernel::new(OsCosts::default(), AddrSpace::new(PhysAddr(1 << 21), 1 << 30));
        let cfgw = CowConfig {
            region: 2 * PageSize::Huge2M.bytes(),
            updates: 16,
            page: PageSize::Base4K,
            ..CowConfig::default()
        };
        let (uops, pokes) = cow_program(&cfgw, &mut kernel);
        let cfg = SystemConfig::tiny();
        let mut sys = System::new(cfg, vec![Box::new(FixedProgram::new(uops))]);
        pokes.apply(&mut sys);
        let st = sys.run(2_000_000_000).expect("finishes");
        let lats = marker_latencies(&st.cores[0]);
        assert!(kernel.stats.cow_faults > 2, "4KB pages fault per page touched");
        let max = *lats.iter().max().unwrap();
        // A 4 KB copy is ~512× cheaper than a 2 MB one; spikes stay small.
        assert!(max < 200_000, "4KB fault spike bounded: {max}");
    }

    #[test]
    fn fault_count_bounded_by_pages() {
        let mut kernel =
            Kernel::new(OsCosts::default(), AddrSpace::new(PhysAddr(1 << 21), 1 << 30));
        let cfgw = CowConfig { updates: 50, ..small() };
        let (_, _) = cow_program(&cfgw, &mut kernel);
        assert!(kernel.stats.cow_faults <= 2, "at most one fault per hugepage");
    }
}
