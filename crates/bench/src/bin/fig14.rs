//! Figure 14: Protobuf (Fleetbench-like) workload runtime for baseline,
//! zIO, and (MC)².
//!
//! Paper shape: (MC)² gives a ~43% speedup; zIO elides nothing because
//! every copy is sub-page.

use mcs_bench::{marker0, f3, ms, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_workloads::protobuf::{protobuf_program, ProtobufConfig};
use mcs_workloads::CopyMech;
use mcsquare::McSquareConfig;

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let wcfg = ProtobufConfig { messages: 96, fields: 8, ..ProtobufConfig::default() };
    let mechs: Vec<(&str, CopyMech)> = vec![
        ("baseline", CopyMech::Native),
        ("zio", CopyMech::Zio),
        ("mcsquare", CopyMech::mcsquare_1k()),
    ];

    let points: Vec<usize> = (0..mechs.len()).collect();
    let mechs_ref = &mechs;
    let wc = &wcfg;
    let results = mcs_bench::par_run(&opts, points, |&mi| {
        let mut space = AddrSpace::dram_3gb();
        let (uops, pokes, _) = protobuf_program(mechs_ref[mi].1.clone(), wc, &mut space);
        let mc2 = mechs_ref[mi].1.needs_engine().then(McSquareConfig::default);
        Job::single(SystemConfig::table1_one_core(), mc2, uops, pokes)
    });

    let base = marker0(&results[0].1);
    let mut table = Table::new(
        "fig14",
        "Protobuf workload runtime (ms) and speedup over baseline",
        &["mechanism", "runtime_ms", "speedup"],
    );
    for (mi, (name, _)) in mechs.iter().enumerate() {
        let t = marker0(&results[mi].1);
        table.row(vec![
            name.to_string(),
            f3(ms(t)),
            f3(base as f64 / t as f64),
        ]);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
