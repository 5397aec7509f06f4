//! Golden-shape regression for the headline result: the Fig. 10
//! (MC)²-vs-memcpy copy-latency speedups on the default DDR4 system.
//!
//! The exact cycle counts are pinned byte-for-byte by `results/fig10.tsv`
//! regeneration; this test instead pins the *shape* — the speedup ratios at
//! three decades of copy size — with a ±10% tolerance, so that deliberate
//! timing-model retunes that preserve the paper's story still pass while
//! anything that flattens or inverts the curve fails loudly.
//!
//! Golden ratios come from the committed `results/fig10.tsv`
//! (see EXPERIMENTS.md): 1 KB → 2.731×, 64 KB → 4.616×, 4 MB → 8.886×.

use mcs_bench::{BenchOpts, Job};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_workloads::common::marker_latencies;
use mcs_workloads::micro::copy_latency;
use mcs_workloads::CopyMech;
use mcsquare::McSquareConfig;

/// Copy latency (cycles) for `mech` at `size` on the default DDR4 system.
fn latency(mech: CopyMech, size: u64) -> u64 {
    let mut space = AddrSpace::dram_3gb();
    let g = copy_latency(mech.clone(), size, false, &mut space);
    let engine = mech.needs_engine().then(McSquareConfig::default);
    let stats = Job::single(SystemConfig::table1_one_core(), engine, g.uops, g.pokes)
        .run(&BenchOpts::default());
    marker_latencies(&stats.cores[0])[0]
}

#[test]
fn fig10_speedup_ratios_match_golden_shape() {
    let golden = [(1u64 << 10, 2.731), (64 << 10, 4.616), (4 << 20, 8.886)];
    for (size, expect) in golden {
        let memcpy = latency(CopyMech::Native, size);
        let mcs = latency(CopyMech::McSquare { threshold: 0 }, size);
        let speedup = memcpy as f64 / mcs as f64;
        let rel = (speedup - expect).abs() / expect;
        assert!(
            rel <= 0.10,
            "size {size}: (MC)^2 speedup {speedup:.3}x drifted more than 10% \
             from golden {expect:.3}x (memcpy {memcpy} cyc, mcsquare {mcs} cyc)"
        );
    }
}
