//! Memory-technology sensitivity sweep: re-runs the Fig. 10 copy-latency
//! microbenchmark and the Fig. 12 sequential destination-access experiment
//! on every [`MemTech`] (DDR4, DDR5, HBM2), with refresh enabled —
//! the robustness question the single hardcoded DDR4 model could not ask.
//!
//! Emits `results/sweep_memtech_fig10.tsv` and
//! `results/sweep_memtech_fig12.tsv`. Pass `--smoke` for a seconds-long CI
//! variant (small sizes, all three backends, same code paths).

use mcs_bench::figs::{memtech_cfg, memtech_fig10_job, memtech_fig10_row, memtech_mech};
use mcs_bench::{f3, marker0, ns, BenchOpts, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::MemTech;
use mcs_workloads::micro::seq_access;
use mcsquare::McSquareConfig;

fn main() {
    let opts = BenchOpts::parse();
    let smoke = opts.smoke;
    let sizes: Vec<u64> = if smoke {
        vec![1 << 10, 4 << 10]
    } else {
        vec![1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]
    };
    let seq_size: u64 = if smoke { 64 << 10 } else { 4 << 20 };
    let fracs: Vec<f64> = if smoke { vec![0.0, 1.0] } else { vec![0.0, 0.25, 0.5, 0.75, 1.0] };

    // --- Fig. 10 across technologies: copy latency, memcpy vs (MC)² ----
    let points: Vec<(MemTech, bool, u64)> = MemTech::ALL
        .iter()
        .flat_map(|&tech| {
            sizes.iter().flat_map(move |&size| [false, true].map(|mcsquare| (tech, mcsquare, size)))
        })
        .collect();
    let results = mcs_bench::par_run(&opts, points, |&(tech, mcsquare, size)| {
        memtech_fig10_job(tech, mcsquare, size)
    });
    let mut t10 = Table::new(
        "sweep_memtech_fig10",
        "Fig. 10 copy latency across memory technologies, refresh enabled",
        &["tech", "size", "memcpy_ns", "mcsquare_ns", "speedup", "refreshes"],
    );
    let per_tech = sizes.len() * 2;
    for (ti, &tech) in MemTech::ALL.iter().enumerate() {
        for (si, &size) in sizes.iter().enumerate() {
            let base = &results[ti * per_tech + si * 2].1;
            let mcs = &results[ti * per_tech + si * 2 + 1].1;
            t10.row(memtech_fig10_row(tech, size, base, mcs));
        }
    }
    t10.emit();

    // --- Fig. 12 across technologies: destination access after a copy --
    let points: Vec<(MemTech, bool, f64)> = MemTech::ALL
        .iter()
        .flat_map(|&tech| {
            fracs.iter().flat_map(move |&frac| [false, true].map(|mcsquare| (tech, mcsquare, frac)))
        })
        .collect();
    let results = mcs_bench::par_run(&opts, points, |&(tech, mcsquare, frac)| {
        let mech = memtech_mech(mcsquare);
        let mut space = AddrSpace::dram_3gb();
        let g = seq_access(mech.clone(), seq_size, frac, true, &mut space);
        let mc2 = mech.needs_engine().then(McSquareConfig::default);
        Job::single(memtech_cfg(tech), mc2, g.uops, g.pokes)
    });
    let mut t12 = Table::new(
        "sweep_memtech_fig12",
        "Fig. 12 sequential destination access across memory technologies: \
         (MC)^2 runtime normalised to native memcpy, refresh enabled",
        &["tech", "fraction", "memcpy_ns", "mcsquare_ns", "mcsquare_norm"],
    );
    let per_tech = fracs.len() * 2;
    for (ti, tech) in MemTech::ALL.iter().enumerate() {
        for (fi, &frac) in fracs.iter().enumerate() {
            let base = marker0(&results[ti * per_tech + fi * 2].1);
            let mcs = marker0(&results[ti * per_tech + fi * 2 + 1].1);
            t12.row(vec![
                tech.name().into(),
                format!("{:.0}%", frac * 100.0),
                f3(ns(base)),
                f3(ns(mcs)),
                f3(mcs as f64 / base as f64),
            ]);
        }
    }
    t12.emit();
    mcs_bench::print_sim_throughput();
}
