//! Figure 10: copy latency vs. size for native memcpy, zIO, touched
//! memcpy, and (MC)².
//!
//! Paper shape: (MC)² is 55% – 11× faster than memcpy for ≥ 1 KB; zIO is
//! flat-expensive until 64 KB (page floor + shootdown) then wins big at
//! 4 MB; touched memcpy is fastest at small sizes, and (MC)² approaches it
//! from 16 KB up.

use mcs_bench::figs::{fig10_job, fig10_mechs, fig10_row, FIG10_SIZES};
use mcs_bench::{marker0, Table};

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let mechs = fig10_mechs();
    let points: Vec<(usize, u64)> = mechs
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| FIG10_SIZES.iter().map(move |&s| (mi, s)))
        .collect();

    let mechs_ref = &mechs;
    let results = mcs_bench::par_run(&opts, points, |&(mi, size)| {
        let (_, mech, touch) = &mechs_ref[mi];
        fig10_job(mech, size, *touch)
    });

    let mut table = Table::new(
        "fig10",
        "copy latency (ns) for native memcpy, zIO, touched memcpy and (MC)^2",
        &["size", "memcpy_ns", "zio_ns", "touched_ns", "mcsquare_ns"],
    );
    for (si, &size) in FIG10_SIZES.iter().enumerate() {
        let lats: Vec<u64> = (0..mechs.len())
            .map(|mi| marker0(&results[mi * FIG10_SIZES.len() + si].1))
            .collect();
        table.row(fig10_row(size, &lats));
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
