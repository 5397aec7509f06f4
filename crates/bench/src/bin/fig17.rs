//! Figure 17: MVCC write-only throughput vs. fraction written, 1 and 8
//! threads, with the non-temporal store variant.
//!
//! Paper shape: plain write-only mimics RMW because store misses issue
//! read-for-ownership; with non-temporal stores (no RFO) (MC)² beats the
//! baseline at every fraction with 1 thread, and until 100% with 8.

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
    let base = MvccConfig { tuples: 32, tuple_size: 8192, txns: 48, ..MvccConfig::default() };

    // Variants per (threads, frac): baseline WriteOnly, MC² WriteOnly,
    // MC² NonTemporal.
    #[derive(Clone)]
    struct P(usize, f64, u8);
    let mut points = Vec::new();
    for &t in &threads {
        for &f in &fracs {
            for v in 0..3u8 {
                points.push(P(t, f, v));
            }
        }
    }
    let basec = &base;
    let results = mcs_bench::par_run(&opts, points.clone(), |P(nthreads, frac, v)| {
        let mut space = AddrSpace::dram_3gb();
        let kind = if *v == 2 { UpdateKind::NonTemporal } else { UpdateKind::WriteOnly };
        let mech = if *v == 0 { CopyMech::Native } else { CopyMech::McSquare { threshold: 0 } };
        let wcfg = MvccConfig { update_frac: *frac, kind, ..basec.clone() };
        let progs = mvcc_multithread(mech, &wcfg, *nthreads, &mut space);
        let mut cfg = SystemConfig::table1();
        cfg.cores = *nthreads;
        let mut pokes = mcs_workloads::Pokes::default();
        let mut programs: Vec<Box<dyn Program>> = Vec::new();
        for (u, p) in progs {
            programs.push(Box::new(FixedProgram::new(u)));
            pokes.0.extend(p.0);
        }
        Job {
            cfg,
            mc2: (*v > 0).then(McSquareConfig::default),
            programs,
            pokes,
            max_cycles: 40_000_000_000,
        }
    });

    let mut table = Table::new(
        "fig17",
        "MVCC write-only throughput (kOps/s): baseline, (MC)^2, (MC)^2 nontemporal",
        &["threads", "fraction", "baseline_kops", "mcsquare_kops", "mcsquare_nt_kops"],
    );
    for (i, P(t, f, _)) in points.iter().enumerate().step_by(3) {
        let b = throughput_kops(&results[i].1, base.txns, *t);
        let m = throughput_kops(&results[i + 1].1, base.txns, *t);
        let nt = throughput_kops(&results[i + 2].1, base.txns, *t);
        table.row(vec![t.to_string(), format!("{:.2}%", f * 100.0), f3(b), f3(m), f3(nt)]);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
