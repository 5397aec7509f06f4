//! Figure 19: Linux pipe transfer throughput, native vs. lazy kernel
//! copies.
//!
//! Paper shape: at small transfers the syscall cost dominates and the two
//! are close; as transfers grow, (MC)² approaches ~2× the native
//! throughput (it skips both the user→kernel and kernel→user data moves).

use mcs_bench::{marker0, f3, Job, Table};
use mcs_os::CopyMode;
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_workloads::pipe::{pipe_program, throughput_bytes_per_kcycle, PipeConfig};
use mcsquare::McSquareConfig;

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let sizes: Vec<u64> = vec![1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10];
    let points: Vec<(u64, bool)> = sizes.iter().flat_map(|&s| [(s, false), (s, true)]).collect();

    let results = mcs_bench::par_run(&opts, points, |&(size, lazy)| {
        let mut space = AddrSpace::dram_3gb();
        let mode = if lazy { CopyMode::Lazy } else { CopyMode::Eager };
        let wcfg = PipeConfig { transfer: size, rounds: 24, mode, ..PipeConfig::default() };
        let (uops, pokes, _) = pipe_program(&wcfg, &mut space);
        Job::single(
            SystemConfig::table1_one_core(),
            lazy.then(McSquareConfig::default),
            uops,
            pokes,
        )
    });

    let mut table = Table::new(
        "fig19",
        "pipe transfer throughput (bytes/kilocycle): native vs (MC)^2 kernel",
        &["transfer", "native_bpk", "mcsquare_bpk", "ratio"],
    );
    for (i, &size) in sizes.iter().enumerate() {
        let bytes = size * 24;
        let tn = marker0(&results[2 * i].1);
        let tl = marker0(&results[2 * i + 1].1);
        let n = throughput_bytes_per_kcycle(bytes, tn);
        let l = throughput_bytes_per_kcycle(bytes, tl);
        table.row(vec![mcs_bench::fmt_size(size), f3(n), f3(l), f3(l / n)]);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
