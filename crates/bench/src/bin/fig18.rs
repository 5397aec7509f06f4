//! Figure 18: per-access write latency under hugepage copy-on-write,
//! native kernel vs. the (MC)²-modified kernel.
//!
//! Paper shape: a 64 MB hugepage region is forked and 100 random 8-byte
//! updates are timed; faults that hit a still-shared 2 MB page cost the
//! native kernel a full-page copy (spikes up to ~455×), while the MCLAZY
//! kernel's worst case is ~2× a plain access — 250× lower.

use mcs_bench::{Job, Table};
use mcs_os::{CowCopyMode, Kernel, OsCosts};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::addr::PhysAddr;
use mcs_sim::config::SystemConfig;
use mcs_workloads::common::marker_latencies;
use mcs_workloads::cow::{cow_program, CowConfig};
use mcsquare::McSquareConfig;

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let region = 64 * 1024 * 1024;
    let updates = 100;

    let modes = [("native", CowCopyMode::Eager), ("mcsquare", CowCopyMode::Lazy)];
    let results = mcs_bench::par_run(&opts, vec![0usize, 1], |&mi| {
        let (_, mode) = modes[mi];
        let mut kernel =
            Kernel::new(OsCosts::default(), AddrSpace::new(PhysAddr(1 << 21), 2 << 30));
        let wcfg = CowConfig { region, updates, mode, ..CowConfig::default() };
        let (uops, pokes) = cow_program(&wcfg, &mut kernel);
        let mc2 = matches!(mode, CowCopyMode::Lazy).then(McSquareConfig::default);
        Job::single(SystemConfig::table1_one_core(), mc2, uops, pokes)
    });

    let native = marker_latencies(&results[0].1.cores[0]);
    let lazy = marker_latencies(&results[1].1.cores[0]);

    let mut table = Table::new(
        "fig18",
        "per-access write latency (cycles) with hugepage COW: native vs (MC)^2 kernel",
        &["access", "native_cycles", "mcsquare_cycles"],
    );
    for i in 0..updates {
        table.row(vec![i.to_string(), native[i].to_string(), lazy[i].to_string()]);
    }
    table.emit();

    // Summary like the paper's prose.
    let ns = mcs_sim::stats::summarize_latencies(&native).expect("samples");
    let ls = mcs_sim::stats::summarize_latencies(&lazy).expect("samples");
    println!(
        "# native  cycles: min={} p50={} p99={} max={} mean={:.0}",
        ns.min, ns.p50, ns.p99, ns.max, ns.mean
    );
    println!(
        "# (MC)^2  cycles: min={} p50={} p99={} max={} mean={:.0}",
        ls.min, ls.p50, ls.p99, ls.max, ls.mean
    );
    println!("# native worst spike: {}x its fast path", ns.max / ns.min.max(1));
    println!(
        "# (MC)^2 worst case is {:.0}x lower than native worst case",
        ns.max as f64 / ls.max as f64
    );
    mcs_bench::print_sim_throughput();
}
