//! Figure 11: overhead breakdown of `memcpy_lazy` — cacheline writeback
//! (CLWB) vs. the MCLAZY packet sends.
//!
//! Paper shape: below 1 KB the CLWBs proceed in parallel and the packet
//! component matters; above 1 KB the CLWBs exhaust the writeback slots and
//! serialise, dominating the overhead at large sizes.

use mcs_bench::{marker0, f3, fmt_size, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_workloads::micro::lazy_overhead_parts;
use mcsquare::McSquareConfig;

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let sizes: Vec<u64> =
        vec![64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];

    // Two jobs per size: writeback-only and packet-only.
    let points: Vec<(u64, bool)> =
        sizes.iter().flat_map(|&s| [(s, true), (s, false)]).collect();
    let results = mcs_bench::par_run(&opts, points, |&(size, writeback)| {
        let mut space = AddrSpace::dram_3gb();
        let (wb, pk) = lazy_overhead_parts(size, &mut space);
        let g = if writeback { wb } else { pk };
        Job::single(
            SystemConfig::table1_one_core(),
            Some(McSquareConfig::default()),
            g.uops,
            g.pokes,
        )
    });

    let mut table = Table::new(
        "fig11",
        "memcpy_lazy overhead contribution: cacheline writeback vs packet to memctrl",
        &["size", "writeback_cycles", "packet_cycles", "writeback_frac", "packet_frac"],
    );
    for (i, &size) in sizes.iter().enumerate() {
        let wb = marker0(&results[2 * i].1);
        let pk = marker0(&results[2 * i + 1].1);
        let total = (wb + pk) as f64;
        table.row(vec![
            fmt_size(size),
            wb.to_string(),
            pk.to_string(),
            f3(wb as f64 / total),
            f3(pk as f64 / total),
        ]);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
