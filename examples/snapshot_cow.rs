//! Virtual-memory snapshotting example (§V-B, Fig. 18): an in-memory
//! database forks to take a consistent snapshot, then keeps serving
//! writes. Hugepage copy-on-write faults are served either by the native
//! kernel (full 2 MB copy in the handler) or the (MC)²-modified kernel
//! (one MCLAZY).
//!
//! Run with: `cargo run --release --example snapshot_cow`

use mcs_os::{CopyMode, Kernel, OsCosts};
use mcs_sim::addr::PhysAddr;
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::FixedProgram;
use mcs_sim::system::System;
use mcs_workloads::common::marker_latencies;
use mcs_workloads::cow::{cow_program, CowConfig};
use mcsquare::{McSquareConfig, McSquareEngine};

fn run(mode: CopyMode) -> Vec<u64> {
    let mut kernel = Kernel::new(OsCosts::default(), AddrSpace::new(PhysAddr(1 << 21), 2 << 30));
    let wcfg = CowConfig {
        region: 16 * 1024 * 1024, // 8 hugepages
        updates: 40,
        mode,
        ..CowConfig::default()
    };
    let (uops, pokes) = cow_program(&wcfg, &mut kernel);
    let cfg = SystemConfig::table1_one_core();
    let mut sys = match mode {
        CopyMode::Lazy => {
            let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
            System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(e))
        }
        CopyMode::Eager => System::new(cfg, vec![Box::new(FixedProgram::new(uops))]),
    };
    pokes.apply(&mut sys);
    let stats = sys.run(20_000_000_000).expect("finishes");
    println!(
        "  ({} COW faults, {} pages copied)",
        kernel.stats.cow_faults, kernel.stats.pages_copied
    );
    marker_latencies(&stats.cores[0])
}

fn stat(name: &str, lats: &[u64]) {
    let min = lats.iter().min().unwrap();
    let max = lats.iter().max().unwrap();
    let avg = lats.iter().sum::<u64>() as f64 / lats.len() as f64;
    println!("  {name}: min {min} cy, avg {avg:.0} cy, max {max} cy (spike {:.0}x)", *max as f64 / *min as f64);
}

fn main() {
    println!("16 MB hugepage-mapped database, fork(), 40 random 8B updates\n");
    println!("native kernel (eager 2 MB copy in the fault handler):");
    let native = run(CopyMode::Eager);
    stat("latency", &native);

    println!("\n(MC)^2 kernel (MCLAZY in copy_user_huge_page):");
    let lazy = run(CopyMode::Lazy);
    stat("latency", &lazy);

    let improvement = *native.iter().max().unwrap() as f64 / *lazy.iter().max().unwrap() as f64;
    println!("\nworst-case fault latency reduced {improvement:.0}x by the lazy kernel");
}
