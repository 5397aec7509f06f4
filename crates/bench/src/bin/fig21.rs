//! Figure 21: runtime when source buffers are overwritten after a lazy
//! copy, varying the number of BPQ entries.
//!
//! Paper shape: 1 entry serialises the source writes badly; 2 entries are
//! ~35% faster; returns diminish — 16 entries gain only ~2% over 8
//! (Table I picks 8).

use mcs_bench::figs::{fig21_job, fig21_row, FIG21_BPQS, FIG21_SIZES};
use mcs_bench::{marker0, Table};

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let points: Vec<(u64, usize)> = FIG21_SIZES
        .iter()
        .flat_map(|&s| FIG21_BPQS.iter().map(move |&b| (s, b)))
        .collect();
    let results = mcs_bench::par_run(&opts, points, |&(size, bpq)| fig21_job(size, bpq));

    let mut table = Table::new(
        "fig21",
        "source-overwrite runtime normalised to BPQ=1, per buffer size",
        &["buffer", "bpq1", "bpq2", "bpq4", "bpq8", "bpq16"],
    );
    for (row, &size) in results.chunks(FIG21_BPQS.len()).zip(&FIG21_SIZES) {
        let lats: Vec<u64> = row.iter().map(|(_, stats)| marker0(stats)).collect();
        table.row(fig21_row(size, &lats));
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
