//! Availability / graceful-degradation sweep: how much does a faulty
//! memory system slow down `memcpy` versus the (MC)² lazy copy?
//!
//! For each severity step the [`mcs_sim::fault::FaultPlan::mild`] plan is
//! scaled (ECC correctable/uncorrectable rates, link jitter/duplication,
//! controller stalls, forced CTT flushes, dropped-entry repairs) and the
//! Fig. 10 copy-latency microbenchmark plus a full destination read-back
//! run on both mechanisms. Faults degrade *timing only* — every run is
//! still differentially checked for data correctness by the simulator's
//! invariants and the chaos harness; this sweep quantifies the latency
//! cost of riding through them.
//!
//! Emits `results/fault_sweep.tsv`. Pass `--smoke` for the seconds-long
//! CI variant (one size, same code paths).

use mcs_bench::{marker0, f3, fmt_size, ns, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_sim::fault::FaultPlan;
use mcs_sim::stats::RunStats;
use mcs_workloads::micro::seq_access;
use mcs_workloads::CopyMech;
use mcsquare::McSquareConfig;

/// Scale the mild plan's per-event rates by `severity` (0 = fault-free).
fn plan_at(severity: f64) -> FaultPlan {
    if severity <= 0.0 {
        return FaultPlan::none();
    }
    let m = FaultPlan::mild(0xFA17);
    FaultPlan {
        seed: 0xFA17,
        ecc_correctable_rate: (m.ecc_correctable_rate * severity).min(1.0),
        ecc_uncorrectable_rate: (m.ecc_uncorrectable_rate * severity).min(1.0),
        link_jitter_rate: (m.link_jitter_rate * severity).min(1.0),
        link_dup_rate: (m.link_dup_rate * severity).min(1.0),
        mc_stall_rate: (m.mc_stall_rate * severity).min(1.0),
        ctt_flush_rate: (m.ctt_flush_rate * severity).min(1.0),
        ctt_drop_rate: (m.ctt_drop_rate * severity).min(1.0),
        ..m
    }
}

fn fault_events(stats: &RunStats) -> u64 {
    stats.mcs.iter().map(|m| m.fault_events()).sum()
}

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let smoke = opts.smoke;
    let size: u64 = if smoke { 16 << 10 } else { 256 << 10 };
    let severities: Vec<f64> =
        if smoke { vec![0.0, 1.0, 4.0] } else { vec![0.0, 0.1, 0.5, 1.0, 2.0, 4.0] };

    // Copy + read every destination line (the `frac = 1.0` Fig. 12 shape):
    // this exercises the whole degradation surface — ECC retries and
    // poisoned reads on the reconstruction path, BPQ/CTT fault repairs,
    // link faults on the bounce traffic.
    let points: Vec<(f64, bool)> = severities
        .iter()
        .flat_map(|&s| [false, true].map(|mcsquare| (s, mcsquare)))
        .collect();
    let results = mcs_bench::par_run(&opts, points, |(severity, mcsquare)| {
        let mech = if *mcsquare {
            CopyMech::McSquare { threshold: 0 }
        } else {
            CopyMech::Native
        };
        let mut space = AddrSpace::dram_3gb();
        let g = seq_access(mech.clone(), size, 1.0, true, &mut space);
        let mc2 = mech.needs_engine().then(McSquareConfig::default);
        let mut cfg = SystemConfig::table1_one_core();
        cfg.fault = plan_at(*severity);
        Job::single(cfg, mc2, g.uops, g.pokes)
    });

    let mut t = Table::new(
        "fault_sweep",
        "Copy + full destination read-back latency vs injected-fault severity \
         (multiples of the mild every-fault-class plan); slowdowns are \
         normalised to the same mechanism at severity 0",
        &[
            "severity",
            "size",
            "memcpy_ns",
            "mcsquare_ns",
            "memcpy_slowdown",
            "mcsquare_slowdown",
            "memcpy_fault_events",
            "mcsquare_fault_events",
        ],
    );
    let lat = |i: usize| marker0(&results[i].1);
    let (base_memcpy, base_mcs) = (lat(0), lat(1));
    for (si, &severity) in severities.iter().enumerate() {
        let (lb, lm) = (lat(si * 2), lat(si * 2 + 1));
        t.row(vec![
            format!("{severity:.1}x"),
            fmt_size(size),
            f3(ns(lb)),
            f3(ns(lm)),
            f3(lb as f64 / base_memcpy as f64),
            f3(lm as f64 / base_mcs as f64),
            fault_events(&results[si * 2].1).to_string(),
            fault_events(&results[si * 2 + 1].1).to_string(),
        ]);
    }
    t.emit();
    mcs_bench::print_sim_throughput();
}
