//! Figure 22: MVCC throughput with (MC)², normalised to the baseline,
//! varying the number of CTT entries freed in parallel per memory
//! controller and the number of executing threads.
//!
//! Paper shape: at low thread counts parallel freeing does not matter (the
//! CTT never fills); at 8 threads serial freeing stalls and parallelism
//! restores the speedup.

use mcs_bench::{f3, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::{FixedProgram, Program};
use mcs_workloads::common::marker_latencies;
use mcs_workloads::mvcc::{mvcc_multithread, MvccConfig, UpdateKind};
use mcs_workloads::CopyMech;
use mcsquare::McSquareConfig;

fn elapsed(stats: &mcs_sim::stats::RunStats, cores: usize) -> u64 {
    stats
        .cores
        .iter()
        .take(cores)
        .map(|c| marker_latencies(c).first().copied().unwrap_or(0))
        .max()
        .unwrap_or(stats.cycles)
}

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let threads = [1usize, 2, 4, 8];
    let frees = [1usize, 2, 4, 8];
    // A CTT small relative to the copy burst so freeing throughput matters
    // (the paper's 2,048 entries against its full-size workload; scaled to
    // our transaction volume).
    let ctt_entries = 64;
    let base = MvccConfig {
        tuples: 16,
        tuple_size: 8192,
        txns: 32,
        update_frac: 0.125,
        update_ratio: 1.0,
        kind: UpdateKind::Rmw,
        ..MvccConfig::default()
    };

    #[derive(Clone)]
    struct P(usize, Option<usize>); // threads, parallel frees (None = baseline)
    let mut points = Vec::new();
    for &t in &threads {
        points.push(P(t, None));
        for &f in &frees {
            points.push(P(t, Some(f)));
        }
    }
    let basec = &base;
    let results = mcs_bench::par_run(&opts, points.clone(), |P(nthreads, free)| {
        let mut space = AddrSpace::dram_3gb();
        let mech = match free {
            Some(_) => CopyMech::McSquare { threshold: 0 },
            None => CopyMech::Native,
        };
        let progs = mvcc_multithread(mech, basec, *nthreads, &mut space);
        let mut cfg = SystemConfig::table1();
        cfg.cores = *nthreads;
        let mut pokes = mcs_workloads::Pokes::default();
        let mut programs: Vec<Box<dyn Program>> = Vec::new();
        for (u, p) in progs {
            programs.push(Box::new(FixedProgram::new(u)));
            pokes.0.extend(p.0);
        }
        let mc2 = free.map(|f| McSquareConfig {
            ctt_entries,
            parallel_free: f,
            ..McSquareConfig::default()
        });
        Job { cfg, mc2, programs, pokes, max_cycles: 40_000_000_000 }
    });

    let mut table = Table::new(
        "fig22",
        "MVCC throughput with (MC)^2 normalised to baseline, by threads x parallel frees",
        &["threads", "free1", "free2", "free4", "free8"],
    );
    let row_len = 1 + frees.len();
    for (ti, &t) in threads.iter().enumerate() {
        let base_t = elapsed(&results[ti * row_len].1, t) as f64;
        let mut row = vec![t.to_string()];
        for fi in 0..frees.len() {
            let lazy_t = elapsed(&results[ti * row_len + 1 + fi].1, t) as f64;
            // Normalised throughput = baseline time / lazy time.
            row.push(f3(base_t / lazy_t));
        }
        table.row(row);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
