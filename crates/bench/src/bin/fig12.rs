//! Figure 12: sequential destination access after a 4 MB copy, varying
//! the fraction of the destination read.
//!
//! Series: native memcpy (baseline = 1.0), zIO, (MC)² (misaligned source,
//! two bounces/line), (MC)² `Aligned`, (MC)² [No prefetch]. Paper shape:
//! (MC)² stays below 1.0 for all fractions (~0.57 aligned best, ~0.8
//! misaligned worst) thanks to the prefetcher running ahead of the demand
//! stream; disabling prefetch degrades it past the baseline (~1.2×); zIO
//! wins only when almost nothing is accessed and loses past ~50%.

use mcs_bench::figs::{fig12_job, fig12_row, fig12_variants, FIG12_FRACS};
use mcs_bench::{marker0, Table};

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let variants = fig12_variants();
    let points: Vec<(usize, f64)> = (0..variants.len())
        .flat_map(|v| FIG12_FRACS.iter().map(move |&f| (v, f)))
        .collect();
    let variants_ref = &variants;
    let results =
        mcs_bench::par_run(&opts, points, |&(vi, frac)| fig12_job(&variants_ref[vi], frac));

    let mut headers: Vec<String> = vec!["fraction".into()];
    headers.extend(variants.iter().map(|v| format!("{}_norm", v.name)));
    let mut table = Table::new(
        "fig12",
        "sequential destination access: runtime normalised to native memcpy (4MB copy)",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (fi, &frac) in FIG12_FRACS.iter().enumerate() {
        let lats: Vec<u64> = (0..variants.len())
            .map(|vi| marker0(&results[vi * FIG12_FRACS.len() + fi].1))
            .collect();
        table.row(fig12_row(frac, &lats));
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
