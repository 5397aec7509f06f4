//! Figure 20: Protobuf performance and CTT-full stalls, sweeping the CTT
//! entry count and the asynchronous-drain threshold.
//!
//! Paper shape: worst-to-best spread is small (~5%); too few entries or a
//! too-high threshold cause CTT-full stalls. The paper sweeps 1,024–4,096
//! entries against its workload; our scaled workload holds proportionally
//! fewer live copies, so the sweep covers proportionally smaller tables
//! (the stall mechanism and its shape are the reproduction target —
//! recorded in EXPERIMENTS.md).

use mcs_bench::{marker0, f3, ms, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_workloads::protobuf::{protobuf_program, ProtobufConfig};
use mcs_workloads::CopyMech;
use mcsquare::McSquareConfig;

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let entries = [32usize, 64, 128, 256];
    let thresholds = [0.25f64, 0.5, 0.75, 0.9];
    // No MCFREE hints here: like the paper's run, prospective copies live
    // until overwritten or drained, so table capacity and the drain
    // threshold are the binding constraints.
    let wcfg =
        ProtobufConfig { messages: 64, fields: 8, free_hints: false, ..ProtobufConfig::default() };

    let mut points = Vec::new();
    for &e in &entries {
        for &t in &thresholds {
            points.push((e, t));
        }
    }
    let wc = &wcfg;
    let results = mcs_bench::par_run(&opts, points.clone(), |&(e, t)| {
        let mut space = AddrSpace::dram_3gb();
        let (uops, pokes, _) =
            protobuf_program(CopyMech::McSquare { threshold: 1024 }, wc, &mut space);
        let mc2 = McSquareConfig { ctt_entries: e, drain_threshold: t, ..McSquareConfig::default() };
        Job::single(SystemConfig::table1_one_core(), Some(mc2), uops, pokes)
    });

    let mut table = Table::new(
        "fig20",
        "Protobuf runtime (ms) and CTT-full stall cycles vs CTT entries x drain threshold",
        &["ctt_entries", "threshold", "runtime_ms", "ctt_full_stall_cycles", "stalls_norm"],
    );
    let max_stall = results
        .iter()
        .map(|(_, s)| s.engine_counter("ctt_full_retries"))
        .max()
        .unwrap_or(0)
        .max(1);
    for (i, &(e, t)) in points.iter().enumerate() {
        let stats = &results[i].1;
        let rt = marker0(stats);
        let stalls = stats.engine_counter("ctt_full_retries");
        table.row(vec![
            e.to_string(),
            format!("{:.0}%", t * 100.0),
            f3(ms(rt)),
            stalls.to_string(),
            f3(stalls as f64 / max_stall as f64),
        ]);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
