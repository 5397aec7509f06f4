//! Bandwidth–latency ("Mess"-style) curves per memory technology.
//!
//! All workload construction lives in [`mcs_bench::mess`] (shared with
//! the `perf_smoke` throughput benchmark); this binary sweeps the full
//! grid and emits `results/mess_curves.tsv`. Pass `--smoke` for a
//! seconds-long CI variant (same code paths, smaller buffers and
//! ladder). With the `trace` feature and `--trace=<path>`, each job
//! additionally writes a Chrome trace, a queue-depth time series, and
//! latency histograms.

use mcs_bench::mess::{job_for, points, row_for, Scale};
use mcs_bench::{BenchOpts, Table};

fn main() {
    let opts = BenchOpts::parse();
    let scale = if opts.smoke { Scale::smoke() } else { Scale::full() };

    let sc = &scale;
    let results = mcs_bench::par_run(&opts, points(sc), |p| job_for(p, sc));

    let mut table = Table::new(
        "mess_curves",
        "bandwidth-latency curves: probe chase latency vs injected copy load, \
         per memory technology, memcpy vs (MC)^2",
        &["tech", "mode", "burst", "bw_gbps", "lat_ns", "mc_read_ns"],
    );
    for (p, stats) in &results {
        table.row(row_for(p, sc, stats));
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
