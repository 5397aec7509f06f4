//! Figure 21: runtime when source buffers are overwritten after a lazy
//! copy, varying the number of BPQ entries.
//!
//! Paper shape: 1 entry serialises the source writes badly; 2 entries are
//! ~35% faster; returns diminish — 16 entries gain only ~2% over 8
//! (Table I picks 8).

use mcs_bench::{marker0, f3, fmt_size, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_workloads::micro::src_write_stress;
use mcsquare::McSquareConfig;

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let sizes: Vec<u64> = vec![16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let bpqs = [1usize, 2, 4, 8, 16];

    let mut points = Vec::new();
    for &s in &sizes {
        for &b in &bpqs {
            points.push((s, b));
        }
    }
    let results = mcs_bench::par_run(&opts, points.clone(), |&(size, bpq)| {
        let mut space = AddrSpace::dram_3gb();
        let g = src_write_stress(size, &mut space);
        let mc2 = McSquareConfig { bpq_entries: bpq, ..McSquareConfig::default() };
        Job::single(SystemConfig::table1_one_core(), Some(mc2), g.uops, g.pokes)
    });

    let mut table = Table::new(
        "fig21",
        "source-overwrite runtime normalised to BPQ=1, per buffer size",
        &["buffer", "bpq1", "bpq2", "bpq4", "bpq8", "bpq16"],
    );
    for (si, &size) in sizes.iter().enumerate() {
        let base = marker0(&results[si * bpqs.len()].1) as f64;
        let mut row = vec![fmt_size(size)];
        for bi in 0..bpqs.len() {
            let t = marker0(&results[si * bpqs.len() + bi].1) as f64;
            row.push(f3(t / base));
        }
        table.row(row);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
