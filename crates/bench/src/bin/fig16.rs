//! Figure 16: MVCC read-modify-write throughput vs. update fraction, for
//! 1 thread (a) and 8 threads (b).
//!
//! Paper shape: (MC)² wins up to ~78% at small update fractions (it never
//! reads the unmodified tuple bytes); with 1 thread the baseline catches
//! up at high fractions; with 8 threads the run is bandwidth-bound and
//! (MC)²'s reduced traffic wins everywhere below 100%.

use mcs_bench::{f3, throughput_kops, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::{FixedProgram, Program};
use mcs_workloads::mvcc::{mvcc_multithread, MvccConfig, UpdateKind};
use mcs_workloads::CopyMech;
use mcsquare::McSquareConfig;

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let fracs = [0.0625, 0.125, 0.25, 0.5, 1.0];
    let threads = [1usize, 8];
    let base = MvccConfig {
        tuples: 32,
        tuple_size: 8192,
        txns: 48,
        kind: UpdateKind::Rmw,
        ..MvccConfig::default()
    };

    let mut points: Vec<(usize, f64, bool)> = Vec::new();
    for &t in &threads {
        for &f in &fracs {
            points.push((t, f, false));
            points.push((t, f, true));
        }
    }
    let basec = &base;
    let results = mcs_bench::par_run(&opts, points.clone(), |&(nthreads, frac, lazy)| {
        let mut space = AddrSpace::dram_3gb();
        let wcfg = MvccConfig { update_frac: frac, ..basec.clone() };
        let mech = if lazy { CopyMech::McSquare { threshold: 0 } } else { CopyMech::Native };
        let progs = mvcc_multithread(mech.clone(), &wcfg, nthreads, &mut space);
        let mut cfg = SystemConfig::table1();
        cfg.cores = nthreads;
        let mut pokes = mcs_workloads::Pokes::default();
        let mut programs: Vec<Box<dyn Program>> = Vec::new();
        for (u, p) in progs {
            programs.push(Box::new(FixedProgram::new(u)));
            pokes.0.extend(p.0);
        }
        Job {
            cfg,
            mc2: lazy.then(McSquareConfig::default),
            programs,
            pokes,
            max_cycles: 40_000_000_000,
        }
    });

    let mut table = Table::new(
        "fig16",
        "MVCC RMW throughput (kOps/s) vs fraction updated; 1 and 8 threads",
        &["threads", "fraction", "baseline_kops", "mcsquare_kops", "speedup"],
    );
    for (i, &(t, f, _)) in points.iter().enumerate().step_by(2) {
        let b = throughput_kops(&results[i].1, base.txns, t);
        let m = throughput_kops(&results[i + 1].1, base.txns, t);
        table.row(vec![
            t.to_string(),
            format!("{:.2}%", f * 100.0),
            f3(b),
            f3(m),
            f3(m / b),
        ]);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
