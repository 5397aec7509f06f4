//! Figures 2–4 (motivation): copy-cycle fractions, memcpy stall anatomy,
//! and the Protobuf copy-size CDF — measured on the simulator instead of
//! the paper's Skylake + perf setup.
//!
//! Paper shape: copy overhead reaches tens of percent of cycles (up to
//! ~68%, and ~99% for hugepage COW); during Protobuf memcpys most cycles
//! have a memory access outstanding and the majority are full stalls;
//! ~56% of Protobuf copies are exactly 1 KB.

use mcs_bench::{f3, Job, Table};
use mcs_os::{CowCopyMode, Kernel, OsCosts};
use mcs_sim::addr::PhysAddr;
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_sim::stats::RunStats;
use mcs_sim::uop::StatTag;
use mcs_workloads::cow::{cow_program, CowConfig};
use mcs_workloads::mongodb::{mongodb_program, MongoConfig};
use mcs_workloads::mvcc::{mvcc_program, MvccConfig, UpdateKind};
use mcs_workloads::protobuf::{protobuf_program, ProtobufConfig};
use mcs_workloads::CopyMech;

fn copy_fraction(stats: &RunStats) -> f64 {
    // Count kernel-tagged copy work (COW handlers) together with memcpy.
    let copy = stats.total_tag_cycles(StatTag::Memcpy) + stats.total_tag_cycles(StatTag::Kernel);
    let total: u64 = stats.cores.iter().flat_map(|c| c.cycles_by_tag.values()).sum();
    copy as f64 / total.max(1) as f64
}

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    // --- Fig. 2: copy overhead per use case (baseline machines). ---
    let jobs: Vec<(&str, Job)> = vec![
        ("protobuf", {
            let mut space = AddrSpace::dram_3gb();
            let (u, p, _) = protobuf_program(
                CopyMech::Native,
                &ProtobufConfig { messages: 48, ..ProtobufConfig::default() },
                &mut space,
            );
            Job::single(SystemConfig::table1_one_core(), None, u, p)
        }),
        ("mongodb_inserts", {
            let mut space = AddrSpace::dram_3gb();
            let (u, p, _) = mongodb_program(
                CopyMech::Native,
                &MongoConfig { inserts: 4, field_size: 16 * 1024, ..MongoConfig::default() },
                &mut space,
            );
            Job::single(SystemConfig::table1_one_core(), None, u, p)
        }),
        ("mvcc_writes", {
            let mut space = AddrSpace::dram_3gb();
            let (u, p, _) = mvcc_program(
                CopyMech::Native,
                &MvccConfig { txns: 32, update_ratio: 1.0, kind: UpdateKind::Rmw, ..MvccConfig::default() },
                &mut space,
            );
            Job::single(SystemConfig::table1_one_core(), None, u, p)
        }),
        ("fork_cow_fault", {
            let mut kernel =
                Kernel::new(OsCosts::default(), AddrSpace::new(PhysAddr(1 << 21), 2 << 30));
            let (u, p) = cow_program(
                &CowConfig {
                    region: 16 * 1024 * 1024,
                    updates: 24,
                    mode: CowCopyMode::Eager,
                    ..CowConfig::default()
                },
                &mut kernel,
            );
            Job::single(SystemConfig::table1_one_core(), None, u, p)
        }),
    ];

    let names: Vec<&str> = jobs.iter().map(|(n, _)| *n).collect();
    let mut fig2 = Table::new(
        "fig02",
        "fraction of cycles attributed to memory copying, per use case",
        &["use_case", "copy_overhead"],
    );
    let mut proto_stats: Option<RunStats> = None;
    for ((name, job), n) in jobs.into_iter().zip(names) {
        let stats = job.run(&opts);
        fig2.row(vec![n.to_string(), f3(copy_fraction(&stats))]);
        if name == "protobuf" {
            proto_stats = Some(stats);
        }
    }
    fig2.emit();

    // --- Fig. 3: anatomy of Protobuf memcpy cycles. ---
    let st = proto_stats.expect("protobuf ran");
    let c = &st.cores[0];
    let memcpy_cycles = c.tag_cycles(StatTag::Memcpy).max(1);
    let mem_busy = c.mem_busy_by_tag.get(&StatTag::Memcpy).copied().unwrap_or(0);
    let mem_stall = c.tag_mem_stalls(StatTag::Memcpy);
    let miss_frac = if c.loads == 0 { 0.0 } else { c.l1_miss_loads as f64 / c.loads as f64 };
    let mut fig3 = Table::new(
        "fig03",
        "during Protobuf memcpys: cache-miss rate, memory-busy cycles, full-stall cycles",
        &["metric", "fraction"],
    );
    fig3.row(vec!["cache_miss".into(), f3(miss_frac)]);
    fig3.row(vec!["mem_miss_cycles".into(), f3(mem_busy as f64 / memcpy_cycles as f64)]);
    fig3.row(vec!["mem_miss_stall_cycles".into(), f3(mem_stall as f64 / memcpy_cycles as f64)]);
    fig3.emit();

    // --- Fig. 4: Protobuf copy-size CDF. ---
    let dist = mcs_workloads::dist::ProtobufSizes::default();
    let mut fig4 = Table::new(
        "fig04",
        "cumulative distribution of Protobuf memcpy sizes",
        &["size", "cdf"],
    );
    for size in [2u64, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
        fig4.row(vec![mcs_bench::fmt_size(size), f3(dist.cdf_at(size))]);
    }
    fig4.emit();
    mcs_bench::print_sim_throughput();
}
