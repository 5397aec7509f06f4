//! The figure registry: every table and figure of the evaluation,
//! described once as data. A [`Figure`] names the tables it writes, lists
//! its simulation jobs, and turns their results into [`Table`]s; the
//! `reproduce` binary puts the jobs of every selected figure on one
//! [`crate::par_run`] queue and prints the tables in [`FIGURES`] order.
//!
//! The Fig. 10, Fig. 12 and Fig. 21 job and row constructors are public:
//! the byte-identity regression test (`tests/trace_identity.rs`) and the
//! scheduler tests must simulate exactly the points a figure simulates
//! and format rows exactly as it does, or they would compare different
//! experiments.

use crate::mess::{self, Scale};
use crate::{elapsed_cycles, f3, fmt_size, marker0, ms, ns, throughput_kops, Job, JobFn, Table};
use mcs_os::{CopyMode, Kernel, OsCosts};
use mcs_sim::addr::PhysAddr;
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::fault::FaultPlan;
use mcs_sim::stats::{summarize_latencies, LatencySummary, RunStats};
use mcs_sim::uop::{StatTag, Uop};
use mcs_workloads::common::{marker, marker_latencies, pattern, Pokes};
use mcs_workloads::cow::{cow_program, CowConfig};
use mcs_workloads::micro::{
    copy_latency, lazy_overhead_parts, seq_access, src_write_stress, PointerChaseProgram,
};
use mcs_workloads::mongodb::{mongodb_program, MongoConfig};
use mcs_workloads::mvcc::{mvcc_multithread, mvcc_program, MvccConfig, UpdateKind};
use mcs_workloads::pipe::{pipe_program, throughput_bytes_per_kcycle, PipeConfig};
use mcs_workloads::protobuf::{protobuf_program, ProtobufConfig};
use mcs_workloads::CopyMech;
use mcsquare::ctt::ENTRY_BYTES;
use mcsquare::software::{memcpy_lazy_uops, LazyOpts};
use mcsquare::McSquareConfig;

/// One table or figure of the evaluation.
pub struct Figure {
    /// Name `reproduce --only` selects it by.
    pub name: &'static str,
    /// The tables it writes, each to `results/<table>.tsv`, in order.
    pub tables: &'static [&'static str],
    /// Its jobs, at the seconds-long `--smoke` scale when asked.
    pub jobs: fn(smoke: bool) -> Vec<JobFn>,
    /// Its tables, from its jobs' statistics in job order.
    pub report: fn(smoke: bool, results: &[RunStats]) -> Vec<Table>,
}

/// Every figure, those with the longest jobs first so that the shared
/// queue starts them early. `reproduce` queues jobs and prints tables in
/// this order.
pub const FIGURES: &[Figure] = &[
    MESS_CURVES,
    FIG13,
    FIG18,
    FIG22,
    SWEEP_MEMTECH,
    FIG12,
    FIG21,
    FIG17,
    FIG16,
    FIG02_03_04,
    FIG15,
    FIG20,
    FIG10,
    FIG14,
    FAULT_SWEEP,
    FIG19,
    FIG11,
    ABLATE_WBRANGE,
    TABLE1,
];

/// The figures `only` names, in [`FIGURES`] order; every figure when
/// `only` is empty.
///
/// # Errors
/// A name that is no figure's; the message lists the valid names.
pub fn select(only: &[String]) -> Result<Vec<&'static Figure>, String> {
    if let Some(bad) = only.iter().find(|n| !FIGURES.iter().any(|f| f.name == n.as_str())) {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        return Err(format!("unknown figure {bad:?} for --only; choose from {}", names.join(", ")));
    }
    Ok(FIGURES.iter().filter(|f| only.is_empty() || only.iter().any(|n| n == f.name)).collect())
}

/// Box a job thunk.
fn job(build: impl Fn() -> Job + Send + Sync + 'static) -> JobFn {
    Box::new(build)
}

/// One job per point, each built by `build` when a worker takes it.
fn jobs<P: Send + Sync + 'static>(
    points: impl IntoIterator<Item = P>,
    build: fn(&P) -> Job,
) -> Vec<JobFn> {
    points.into_iter().map(|p| job(move || build(&p))).collect()
}

/// The points of `outer` × `inner`, `inner` varying fastest.
fn grid<A: Clone, B: Clone>(outer: impl IntoIterator<Item = A>, inner: &[B]) -> Vec<(A, B)> {
    outer.into_iter().flat_map(|a| inner.iter().map(move |b| (a.clone(), b.clone()))).collect()
}

/// Table I: dump the simulated configuration used throughout the
/// evaluation (see [`table1`]). Runs no simulation.
const TABLE1: Figure = Figure {
    name: "table1",
    tables: &["table1"],
    jobs: |_| Vec::new(),
    report: |_, _| vec![table1()],
};

/// Table I: the simulated configuration used throughout the evaluation,
/// alongside the (MC)² hardware parameters (CTT/BPQ sizes and the
/// CACTI-derived CTT figures quoted from the paper).
pub fn table1() -> Table {
    let c = SystemConfig::table1();
    let m = McSquareConfig::default();
    let mut t = Table::new("table1", "simulated configuration", &["parameter", "value"]);
    let mut kv = |k: &str, v: String| t.row(vec![k.to_string(), v]);
    kv("CPUs", c.cores.to_string());
    kv("Clock speed", "4 GHz".into());
    kv("Private L1 cache", format!("{} KB/CPU, stride prefetcher", c.l1.size_bytes >> 10));
    kv("Shared L2 cache", format!("{} MB, stride prefetcher", c.llc.size_bytes >> 20));
    kv("DRAM size", "3 GB (sparse)".into());
    kv("DRAM channels", c.channels.to_string());
    kv("DRAM config", "DDR4-like bank/row-buffer timing".into());
    kv("BPQ size", format!("{} entries", m.bpq_entries));
    kv("CTT entries", m.ctt_entries.to_string());
    kv("CTT latency", format!("{} cycles ({} ns)", m.ctt_latency, ns(m.ctt_latency)));
    kv("CTT SRAM", format!("{} KB", m.ctt_entries as u64 * ENTRY_BYTES / 1024));
    kv("CTT area (paper, CACTI 7.0 @22nm)", "0.14 mm^2".into());
    kv("CTT bank leakage (paper)", "33.8 mW".into());
    kv("Drain threshold", format!("{:.0}%", m.drain_threshold * 100.0));
    kv("WPQ writeback-reject watermark", format!("{:.0}%", m.wpq_reject_frac * 100.0));
    t
}

/// Copy sizes of the Fig. 10 sweep.
pub const FIG10_SIZES: [u64; 9] =
    [64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];

/// The four Fig. 10 mechanisms: (column name, mechanism, touch-first).
pub fn fig10_mechs() -> Vec<(&'static str, CopyMech, bool)> {
    vec![
        ("memcpy", CopyMech::Native, false),
        ("zio", CopyMech::Zio, false),
        ("touched_memcpy", CopyMech::Native, true),
        ("mcsquare", CopyMech::McSquare { threshold: 0 }, false),
    ]
}

/// Build the Fig. 10 job for one (mechanism, size) point.
pub fn fig10_job(mech: &CopyMech, size: u64, touch: bool) -> Job {
    let mut space = AddrSpace::dram_3gb();
    let g = copy_latency(mech.clone(), size, touch, &mut space);
    let mc2 = mech.needs_engine().then(McSquareConfig::default);
    Job::single(SystemConfig::table1_one_core(), mc2, g.uops, g.pokes)
}

/// Format one Fig. 10 row from the four mechanisms' copy latencies (in
/// cycles, ordered as [`fig10_mechs`]).
pub fn fig10_row(size: u64, lats: &[u64]) -> Vec<String> {
    let mut row = vec![fmt_size(size)];
    row.extend(lats.iter().map(|&l| f3(ns(l))));
    row
}

/// Buffer sizes of the Fig. 21 sweep.
pub const FIG21_SIZES: [u64; 5] = [16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];

/// BPQ sizes of the Fig. 21 sweep; the first is each row's baseline.
pub const FIG21_BPQS: [usize; 5] = [1, 2, 4, 8, 16];

/// Build the Fig. 21 job: overwrite `size` bytes of lazily copied
/// source with `bpq` BPQ entries per controller.
pub fn fig21_job(size: u64, bpq: usize) -> Job {
    let g = src_write_stress(size, &mut AddrSpace::dram_3gb());
    let mc2 = McSquareConfig { bpq_entries: bpq, ..McSquareConfig::default() };
    Job::single(SystemConfig::table1_one_core(), Some(mc2), g.uops, g.pokes)
}

/// Format one Fig. 21 row from the runtimes (marker 0, in cycles) at each
/// of [`FIG21_BPQS`], normalised to the first.
pub fn fig21_row(size: u64, lats: &[u64]) -> Vec<String> {
    let base = lats[0] as f64;
    let mut row = vec![fmt_size(size)];
    row.extend(lats.iter().map(|&l| f3(l as f64 / base)));
    row
}

/// One series of the Fig. 12 sweep.
#[derive(Clone)]
pub struct Fig12Variant {
    /// Column name (suffixed `_norm` in the table header).
    pub name: &'static str,
    /// Copy mechanism.
    pub mech: CopyMech,
    /// Offset the source by 20 bytes (two bounces per destination line).
    pub misalign: bool,
    /// Leave the prefetchers on.
    pub prefetch: bool,
}

/// Copy size of the Fig. 12 experiment (must exceed the LLC).
pub const FIG12_SIZE: u64 = 4 << 20;

/// Destination fractions of the Fig. 12 sweep.
pub const FIG12_FRACS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The five Fig. 12 series. The first (native memcpy) is the
/// normalisation baseline.
pub fn fig12_variants() -> Vec<Fig12Variant> {
    let mc2 = CopyMech::McSquare { threshold: 0 };
    vec![
        Fig12Variant { name: "memcpy", mech: CopyMech::Native, misalign: true, prefetch: true },
        Fig12Variant { name: "zio", mech: CopyMech::Zio, misalign: true, prefetch: true },
        Fig12Variant { name: "mcsquare", mech: mc2.clone(), misalign: true, prefetch: true },
        Fig12Variant {
            name: "mcsquare_aligned",
            mech: mc2.clone(),
            misalign: false,
            prefetch: true,
        },
        Fig12Variant { name: "mcsquare_nopf", mech: mc2, misalign: true, prefetch: false },
    ]
}

/// Build the Fig. 12 job for one (variant, fraction) point.
pub fn fig12_job(v: &Fig12Variant, frac: f64) -> Job {
    let mut space = AddrSpace::dram_3gb();
    let g = seq_access(v.mech.clone(), FIG12_SIZE, frac, v.misalign, &mut space);
    let mut cfg = SystemConfig::table1_one_core();
    if !v.prefetch {
        cfg.l1.prefetch_degree = 0;
        cfg.llc.prefetch_degree = 0;
    }
    let mc2 = v.mech.needs_engine().then(McSquareConfig::default);
    Job::single(cfg, mc2, g.uops, g.pokes)
}

/// Format one Fig. 12 row from the variants' runtimes (in cycles, ordered
/// as [`fig12_variants`]; `lats[0]` is the baseline).
pub fn fig12_row(frac: f64, lats: &[u64]) -> Vec<String> {
    let base = lats[0] as f64;
    let mut row = vec![format!("{:.0}%", frac * 100.0)];
    row.extend(lats.iter().map(|&l| f3(l as f64 / base)));
    row
}

/// The copy mechanism of a memory-technology sweep point: native memcpy,
/// or (MC)² when `mcsquare`.
pub fn memtech_mech(mcsquare: bool) -> CopyMech {
    if mcsquare {
        CopyMech::McSquare { threshold: 0 }
    } else {
        CopyMech::Native
    }
}

/// The machine of a memory-technology sweep point: one-core Table I on
/// `tech`'s canonical channels, refresh enabled.
pub fn memtech_cfg(tech: MemTech) -> SystemConfig {
    let mut cfg = SystemConfig::builder()
        .base(SystemConfig::table1_one_core())
        .tech(tech)
        .build();
    cfg.dram = cfg.dram.with_refresh();
    cfg
}

/// Build the memory-technology Fig. 10 job for one (tech, mechanism, size)
/// point.
pub fn memtech_fig10_job(tech: MemTech, mcsquare: bool, size: u64) -> Job {
    let mech = memtech_mech(mcsquare);
    let mut space = AddrSpace::dram_3gb();
    let g = copy_latency(mech.clone(), size, false, &mut space);
    let mc2 = mech.needs_engine().then(McSquareConfig::default);
    Job::single(memtech_cfg(tech), mc2, g.uops, g.pokes)
}

/// Format one `sweep_memtech_fig10` row from the memcpy and (MC)² runs of
/// a (tech, size) point.
pub fn memtech_fig10_row(tech: MemTech, size: u64, memcpy: &RunStats, mcs: &RunStats) -> Vec<String> {
    let (lb, lm) = (marker0(memcpy), marker0(mcs));
    let refreshes: u64 = mcs.mcs.iter().map(|m| m.refreshes).sum();
    vec![
        tech.name().into(),
        fmt_size(size),
        f3(ns(lb)),
        f3(ns(lm)),
        f3(lb as f64 / lm as f64),
        refreshes.to_string(),
    ]
}

/// Figures 2–4 (motivation): copy-cycle fractions, memcpy stall anatomy,
/// and the Protobuf copy-size CDF, measured on the simulator instead of
/// the paper's Skylake + perf setup.
///
/// Paper shape: copy overhead reaches tens of percent of cycles (up to
/// ~68%, and ~99% for hugepage COW); during Protobuf memcpys most cycles
/// have a memory access outstanding and the majority are full stalls;
/// ~56% of Protobuf copies are exactly 1 KB.
const FIG02_03_04: Figure = Figure {
    name: "fig02_03_04",
    tables: &["fig02", "fig03", "fig04"],
    jobs: |_| {
        let native =
            |(uops, pokes)| Job::single(SystemConfig::table1_one_core(), None, uops, pokes);
        vec![
            job(move || {
                let wcfg = ProtobufConfig { messages: 48, ..ProtobufConfig::default() };
                let (u, p, _) =
                    protobuf_program(CopyMech::Native, &wcfg, &mut AddrSpace::dram_3gb());
                native((u, p))
            }),
            job(move || {
                let wcfg =
                    MongoConfig { inserts: 4, field_size: 16 * 1024, ..MongoConfig::default() };
                let (u, p, _) =
                    mongodb_program(CopyMech::Native, &wcfg, &mut AddrSpace::dram_3gb());
                native((u, p))
            }),
            job(move || {
                let kind = UpdateKind::Rmw;
                let wcfg =
                    MvccConfig { txns: 32, update_ratio: 1.0, kind, ..MvccConfig::default() };
                let (u, p, _) = mvcc_program(CopyMech::Native, &wcfg, &mut AddrSpace::dram_3gb());
                native((u, p))
            }),
            job(move || {
                let mut kernel =
                    Kernel::new(OsCosts::default(), AddrSpace::new(PhysAddr(1 << 21), 2 << 30));
                let mode = CopyMode::Eager;
                let wcfg =
                    CowConfig { region: 16 << 20, updates: 24, mode, ..CowConfig::default() };
                native(cow_program(&wcfg, &mut kernel))
            }),
        ]
    },
    report: |_, results| {
        let mut fig2 = Table::new(
            "fig02",
            "fraction of cycles attributed to memory copying, per use case",
            &["use_case", "copy_overhead"],
        );
        let cases = ["protobuf", "mongodb_inserts", "mvcc_writes", "fork_cow_fault"];
        for (case, stats) in cases.iter().zip(results) {
            // Kernel-tagged copy work (COW handlers) counts as copying.
            let copy =
                stats.total_tag_cycles(StatTag::Memcpy) + stats.total_tag_cycles(StatTag::Kernel);
            let total: u64 = stats.cores.iter().flat_map(|c| c.cycles_by_tag.values()).sum();
            fig2.row(vec![case.to_string(), f3(copy as f64 / total.max(1) as f64)]);
        }

        let c = &results[0].cores[0];
        let memcpy_cycles = c.tag_cycles(StatTag::Memcpy).max(1) as f64;
        let mem_busy = c.mem_busy_by_tag.get(&StatTag::Memcpy).copied().unwrap_or(0);
        let miss_frac = if c.loads == 0 { 0.0 } else { c.l1_miss_loads as f64 / c.loads as f64 };
        let mut fig3 = Table::new(
            "fig03",
            "during Protobuf memcpys: cache-miss rate, memory-busy cycles, full-stall cycles",
            &["metric", "fraction"],
        );
        fig3.row(vec!["cache_miss".into(), f3(miss_frac)]);
        fig3.row(vec!["mem_miss_cycles".into(), f3(mem_busy as f64 / memcpy_cycles)]);
        let stalls = c.tag_mem_stalls(StatTag::Memcpy) as f64;
        fig3.row(vec!["mem_miss_stall_cycles".into(), f3(stalls / memcpy_cycles)]);

        let dist = mcs_workloads::dist::ProtobufSizes::default();
        let caption = "cumulative distribution of Protobuf memcpy sizes";
        let mut fig4 = Table::new("fig04", caption, &["size", "cdf"]);
        for size in [2u64, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            fig4.row(vec![fmt_size(size), f3(dist.cdf_at(size))]);
        }
        vec![fig2, fig3, fig4]
    },
};

/// Figure 10: copy latency vs. size for native memcpy, zIO, touched
/// memcpy, and (MC)².
///
/// Paper shape: (MC)² is 55% – 11× faster than memcpy for ≥ 1 KB; zIO is
/// flat-expensive until 64 KB (page floor + shootdown) then wins big at
/// 4 MB; touched memcpy is fastest at small sizes, and (MC)² approaches it
/// from 16 KB up.
const FIG10: Figure = Figure {
    name: "fig10",
    tables: &["fig10"],
    jobs: |_| {
        jobs(grid(fig10_mechs(), &FIG10_SIZES), |((_, mech, touch), size)| {
            fig10_job(mech, *size, *touch)
        })
    },
    report: |_, results| {
        let mut table = Table::new(
            "fig10",
            "copy latency (ns) for native memcpy, zIO, touched memcpy and (MC)^2",
            &["size", "memcpy_ns", "zio_ns", "touched_ns", "mcsquare_ns"],
        );
        for (si, &size) in FIG10_SIZES.iter().enumerate() {
            let lats: Vec<u64> =
                results[si..].iter().step_by(FIG10_SIZES.len()).map(marker0).collect();
            table.row(fig10_row(size, &lats));
        }
        vec![table]
    },
};

/// Figure 11: overhead breakdown of `memcpy_lazy`: cacheline writeback
/// (CLWB) vs. the MCLAZY packet sends, at the Fig. 10 sizes.
///
/// Paper shape: below 1 KB the CLWBs proceed in parallel and the packet
/// component matters; above 1 KB the CLWBs exhaust the writeback slots and
/// serialise, dominating the overhead at large sizes.
const FIG11: Figure = Figure {
    name: "fig11",
    tables: &["fig11"],
    // Two jobs per size: writeback-only and packet-only.
    jobs: |_| {
        jobs(grid(FIG10_SIZES, &[true, false]), |&(size, writeback)| {
            let (wb, pk) = lazy_overhead_parts(size, &mut AddrSpace::dram_3gb());
            let g = if writeback { wb } else { pk };
            Job::single(
                SystemConfig::table1_one_core(),
                Some(McSquareConfig::default()),
                g.uops,
                g.pokes,
            )
        })
    },
    report: |_, results| {
        let mut table = Table::new(
            "fig11",
            "memcpy_lazy overhead contribution: cacheline writeback vs packet to memctrl",
            &["size", "writeback_cycles", "packet_cycles", "writeback_frac", "packet_frac"],
        );
        for (pair, &size) in results.chunks(2).zip(&FIG10_SIZES) {
            let (wb, pk) = (marker0(&pair[0]), marker0(&pair[1]));
            let total = (wb + pk) as f64;
            let (wb_frac, pk_frac) = (f3(wb as f64 / total), f3(pk as f64 / total));
            table.row(vec![fmt_size(size), wb.to_string(), pk.to_string(), wb_frac, pk_frac]);
        }
        vec![table]
    },
};

/// A table of `fraction` rows and one `<series>_norm` column per series.
fn norm_table(name: &str, caption: &str, series: impl Iterator<Item = &'static str>) -> Table {
    let headers: Vec<String> = std::iter::once("fraction".to_string())
        .chain(series.map(|s| format!("{s}_norm")))
        .collect();
    Table::new(name, caption, &headers.iter().map(String::as_str).collect::<Vec<_>>())
}

/// Figure 12: sequential destination access after a 4 MB copy, varying
/// the fraction of the destination read.
///
/// Series: native memcpy (baseline = 1.0), zIO, (MC)² (misaligned source,
/// two bounces/line), (MC)² `Aligned`, (MC)² [No prefetch]. Paper shape:
/// (MC)² stays below 1.0 for all fractions (~0.57 aligned best, ~0.8
/// misaligned worst) thanks to the prefetcher running ahead of the demand
/// stream; disabling prefetch degrades it past the baseline (~1.2×); zIO
/// wins only when almost nothing is accessed and loses past ~50%.
const FIG12: Figure = Figure {
    name: "fig12",
    tables: &["fig12"],
    jobs: |_| jobs(grid(fig12_variants(), &FIG12_FRACS), |(v, frac)| fig12_job(v, *frac)),
    report: |_, results| {
        let mut table = norm_table(
            "fig12",
            "sequential destination access: runtime normalised to native memcpy (4MB copy)",
            fig12_variants().into_iter().map(|v| v.name),
        );
        for (fi, &frac) in FIG12_FRACS.iter().enumerate() {
            let lats: Vec<u64> =
                results[fi..].iter().step_by(FIG12_FRACS.len()).map(marker0).collect();
            table.row(fig12_row(frac, &lats));
        }
        vec![table]
    },
};

/// Destination fractions of the Fig. 13 sweep.
const FIG13_FRACS: [f64; 5] = [0.125, 0.25, 0.5, 0.75, 1.0];

/// The five Fig. 13 series: (column name, mechanism, misaligned source,
/// write back after a bounce). The first is the normalisation baseline.
fn fig13_variants() -> [(&'static str, CopyMech, bool, bool); 5] {
    let mc2 = CopyMech::McSquare { threshold: 0 };
    [
        ("memcpy", CopyMech::Native, true, true),
        ("zio", CopyMech::Zio, true, true),
        ("mcsquare", mc2.clone(), true, true),
        ("mcsquare_aligned", mc2.clone(), false, true),
        ("mcsquare_nowb", mc2, true, false),
    ]
}

/// Figure 13: random (pointer-chase) destination access after a 4 MB
/// copy.
///
/// Series: native, zIO, (MC)², (MC)² `Aligned`, (MC)² [No writeback].
/// Paper shape: dependent accesses put the full bounce latency on the
/// critical path. With the post-bounce writeback, (MC)² stays ~0.92× of
/// memcpy; without it every re-access bounces twice and degrades to
/// ~1.6×; zIO spikes to ~2.1× at small fractions (fault per page) and
/// recovers toward 1.3×.
const FIG13: Figure = Figure {
    name: "fig13",
    tables: &["fig13"],
    jobs: |_| {
        jobs(grid(fig13_variants(), &FIG13_FRACS), |((_, mech, misalign, writeback), frac)| {
            const SIZE: u64 = 4 << 20; // the paper's 4 MB (must exceed the LLC)
            let steps = ((SIZE / 8) as f64 * frac) as u64;
            let mut space = AddrSpace::dram_3gb();
            let (prog, pokes, _) =
                PointerChaseProgram::build(mech.clone(), SIZE, steps, *misalign, 1234, &mut space);
            let mc2 = mech.needs_engine().then(|| McSquareConfig {
                writeback_after_bounce: *writeback,
                ..McSquareConfig::default()
            });
            let cfg = SystemConfig::table1_one_core();
            Job { cfg, mc2, programs: vec![Box::new(prog)], pokes, max_cycles: 20_000_000_000 }
        })
    },
    report: |_, results| {
        let mut table = norm_table(
            "fig13",
            "random (pointer-chase) destination access: runtime normalised to native memcpy",
            fig13_variants().into_iter().map(|v| v.0),
        );
        for (fi, &frac) in FIG13_FRACS.iter().enumerate() {
            let base = marker0(&results[fi]) as f64;
            let mut row = vec![format!("{:.1}%", frac * 100.0)];
            let series = results[fi..].iter().step_by(FIG13_FRACS.len());
            row.extend(series.map(|s| f3(marker0(s) as f64 / base)));
            table.row(row);
        }
        vec![table]
    },
};

/// An application workload's generator: its uops and pokes for a copy
/// mechanism.
type AppProgram = fn(CopyMech, &mut AddrSpace) -> (Vec<Uop>, Pokes);

/// Row names of the Fig. 14 and Fig. 15 mechanisms.
const APP_MECHS: [&str; 3] = ["baseline", "zio", "mcsquare"];

/// One single-core Table I job per row of [`APP_MECHS`] (native, zIO,
/// then `mcsquare`), the engine present when the mechanism needs it.
fn app_jobs(mcsquare: CopyMech, program: AppProgram) -> Vec<JobFn> {
    let mechs = [CopyMech::Native, CopyMech::Zio, mcsquare];
    jobs(mechs.map(|mech| (mech, program)), |(mech, program)| {
        let (uops, pokes) = program(mech.clone(), &mut AddrSpace::dram_3gb());
        let mc2 = mech.needs_engine().then(McSquareConfig::default);
        Job::single(SystemConfig::table1_one_core(), mc2, uops, pokes)
    })
}

/// Figure 14: Protobuf (Fleetbench-like) workload runtime for baseline,
/// zIO, and (MC)².
///
/// Paper shape: (MC)² gives a ~43% speedup; zIO elides nothing because
/// every copy is sub-page.
const FIG14: Figure = Figure {
    name: "fig14",
    tables: &["fig14"],
    jobs: |_| {
        app_jobs(CopyMech::mcsquare_1k(), |mech, space| {
            let wcfg = ProtobufConfig { messages: 96, fields: 8, ..ProtobufConfig::default() };
            let (uops, pokes, _) = protobuf_program(mech, &wcfg, space);
            (uops, pokes)
        })
    },
    report: |_, results| {
        let base = marker0(&results[0]);
        let mut table = Table::new(
            "fig14",
            "Protobuf workload runtime (ms) and speedup over baseline",
            &["mechanism", "runtime_ms", "speedup"],
        );
        for (name, stats) in APP_MECHS.iter().zip(results) {
            let t = marker0(stats);
            table.row(vec![name.to_string(), f3(ms(t)), f3(base as f64 / t as f64)]);
        }
        vec![table]
    },
};

/// Figure 15: MongoDB average insertion latency for baseline, zIO, and
/// (MC)².
///
/// Paper shape: (MC)² speeds up inserts ~15.5%; zIO *slows them down*
/// ~9.7% because copied fields are accessed (B-tree, log) and fault.
/// The paper's 10 × 100 KB fields × 50 inserts are scaled to
/// 10 × 96 KB × 4 (recorded in EXPERIMENTS.md); the copy-to-access
/// pattern, not the absolute volume, drives the result.
const FIG15: Figure = Figure {
    name: "fig15",
    tables: &["fig15"],
    jobs: |_| {
        app_jobs(CopyMech::McSquare { threshold: 1024 }, |mech, space| {
            let wcfg = MongoConfig {
                inserts: 4,
                fields: 10,
                field_size: 96 * 1024,
                // Full MongoDB does substantial non-copy work per field
                // (BSON validation, index maintenance, journaling); Fig. 2
                // puts its copy overhead near 40%, which these costs
                // reproduce.
                server_work: 30_000,
                parse_cost: 20_000,
                ..MongoConfig::default()
            };
            let (uops, pokes, _) = mongodb_program(mech, &wcfg, space);
            (uops, pokes)
        })
    },
    report: |_, results| {
        let avg = |stats: &RunStats| {
            let l = marker_latencies(&stats.cores[0]);
            l.iter().sum::<u64>() as f64 / l.len() as f64
        };
        let base = avg(&results[0]);
        let mut table = Table::new(
            "fig15",
            "MongoDB average insertion latency (ms) and change vs baseline",
            &["mechanism", "avg_latency_ms", "vs_baseline"],
        );
        for (name, stats) in APP_MECHS.iter().zip(results) {
            let t = avg(stats);
            let change = format!("{:+.1}%", (t / base - 1.0) * 100.0);
            table.row(vec![name.to_string(), f3(ms(t as u64)), change]);
        }
        vec![table]
    },
};

/// Thread counts × update fractions of the Fig. 16 and Fig. 17 sweeps.
fn mvcc_points() -> Vec<(usize, f64)> {
    [1, 8].into_iter().flat_map(|t| [0.0625, 0.125, 0.25, 0.5, 1.0].map(|f| (t, f))).collect()
}

/// Transactions per thread in Figs. 16 and 17.
const MVCC_TXNS: usize = 48;

/// One Fig. 16/17 MVCC job per (threads, fraction) point and variant
/// (update kind, mechanism), variants innermost.
fn mvcc_jobs(variants: &[(UpdateKind, CopyMech)]) -> Vec<JobFn> {
    jobs(grid(mvcc_points(), variants), |&((threads, frac), (kind, ref mech))| {
        let wcfg = MvccConfig {
            tuples: 32,
            tuple_size: 8192,
            txns: MVCC_TXNS,
            update_frac: frac,
            kind,
            ..MvccConfig::default()
        };
        let mc2 = mech.needs_engine().then(McSquareConfig::default);
        let progs = mvcc_multithread(mech.clone(), &wcfg, threads, &mut AddrSpace::dram_3gb());
        Job::multi_core(mc2, progs)
    })
}

/// Rows of Figs. 16 and 17: threads, fraction, then each variant's
/// throughput, from `results` in [`mvcc_jobs`] order; `speedup` appends
/// the second variant's throughput over the first's.
fn mvcc_rows(table: &mut Table, results: &[RunStats], variants: usize, speedup: bool) {
    for ((threads, frac), runs) in mvcc_points().into_iter().zip(results.chunks(variants)) {
        let kops: Vec<f64> = runs.iter().map(|s| throughput_kops(s, MVCC_TXNS, threads)).collect();
        let mut row = vec![threads.to_string(), format!("{:.2}%", frac * 100.0)];
        row.extend(kops.iter().map(|&k| f3(k)));
        if speedup {
            row.push(f3(kops[1] / kops[0]));
        }
        table.row(row);
    }
}

/// Figure 16: MVCC read-modify-write throughput vs. update fraction, for
/// 1 thread (a) and 8 threads (b).
///
/// Paper shape: (MC)² wins up to ~78% at small update fractions (it never
/// reads the unmodified tuple bytes); with 1 thread the baseline catches
/// up at high fractions; with 8 threads the run is bandwidth-bound and
/// (MC)²'s reduced traffic wins everywhere below 100%.
const FIG16: Figure = Figure {
    name: "fig16",
    tables: &["fig16"],
    jobs: |_| {
        let mc2 = CopyMech::McSquare { threshold: 0 };
        mvcc_jobs(&[(UpdateKind::Rmw, CopyMech::Native), (UpdateKind::Rmw, mc2)])
    },
    report: |_, results| {
        let mut table = Table::new(
            "fig16",
            "MVCC RMW throughput (kOps/s) vs fraction updated; 1 and 8 threads",
            &["threads", "fraction", "baseline_kops", "mcsquare_kops", "speedup"],
        );
        mvcc_rows(&mut table, results, 2, true);
        vec![table]
    },
};

/// Figure 17: MVCC write-only throughput vs. fraction written, 1 and 8
/// threads, with the non-temporal store variant.
///
/// Paper shape: plain write-only mimics RMW because store misses issue
/// read-for-ownership; with non-temporal stores (no RFO) (MC)² beats the
/// baseline at every fraction with 1 thread, and until 100% with 8.
const FIG17: Figure = Figure {
    name: "fig17",
    tables: &["fig17"],
    jobs: |_| {
        let mc2 = CopyMech::McSquare { threshold: 0 };
        mvcc_jobs(&[
            (UpdateKind::WriteOnly, CopyMech::Native),
            (UpdateKind::WriteOnly, mc2.clone()),
            (UpdateKind::NonTemporal, mc2),
        ])
    },
    report: |_, results| {
        let mut table = Table::new(
            "fig17",
            "MVCC write-only throughput (kOps/s): baseline, (MC)^2, (MC)^2 nontemporal",
            &["threads", "fraction", "baseline_kops", "mcsquare_kops", "mcsquare_nt_kops"],
        );
        mvcc_rows(&mut table, results, 3, false);
        vec![table]
    },
};

/// Figure 18: per-access write latency under hugepage copy-on-write,
/// native kernel vs. the (MC)²-modified kernel.
///
/// Paper shape: a 64 MB hugepage region is forked and 100 random 8-byte
/// updates are timed; faults that hit a still-shared 2 MB page cost the
/// native kernel a full-page copy (spikes up to ~455×), while the MCLAZY
/// kernel's worst case is ~2× a plain access — 250× lower. The table's
/// stdout footer summarises both series like the paper's prose. The
/// model's fast-path store retires in a cycle or less, so the 455× ratio
/// to a plain access has no counterpart here; the footer gives the native
/// worst case in cycles and the ratio of the two worst cases.
const FIG18: Figure = Figure {
    name: "fig18",
    tables: &["fig18"],
    jobs: |_| {
        jobs([CopyMode::Eager, CopyMode::Lazy], |&mode| {
            let mut kernel =
                Kernel::new(OsCosts::default(), AddrSpace::new(PhysAddr(1 << 21), 2 << 30));
            let wcfg = CowConfig { region: 64 << 20, updates: 100, mode, ..CowConfig::default() };
            let (uops, pokes) = cow_program(&wcfg, &mut kernel);
            let mc2 = matches!(mode, CopyMode::Lazy).then(McSquareConfig::default);
            Job::single(SystemConfig::table1_one_core(), mc2, uops, pokes)
        })
    },
    report: |_, results| {
        let native = marker_latencies(&results[0].cores[0]);
        let lazy = marker_latencies(&results[1].cores[0]);
        let mut table = Table::new(
            "fig18",
            "per-access write latency (cycles) with hugepage COW: native vs (MC)^2 kernel",
            &["access", "native_cycles", "mcsquare_cycles"],
        );
        for (i, (n, l)) in native.iter().zip(&lazy).enumerate() {
            table.row(vec![i.to_string(), n.to_string(), l.to_string()]);
        }
        let n = summarize_latencies(&native).expect("samples");
        let l = summarize_latencies(&lazy).expect("samples");
        let summary = |who: &str, s: &LatencySummary| {
            let (min, p50, p99, max, mean) = (s.min, s.p50, s.p99, s.max, s.mean);
            format!("# {who}  cycles: min={min} p50={p50} p99={p99} max={max} mean={mean:.0}")
        };
        table.footer = vec![
            summary("native", &n),
            summary("(MC)^2", &l),
            format!("# native worst case: {} cycles", n.max),
            format!(
                "# (MC)^2 worst case is {:.0}x lower than native worst case",
                n.max as f64 / l.max as f64
            ),
        ];
        vec![table]
    },
};

/// Transfer sizes of the Fig. 19 sweep.
const FIG19_SIZES: [u64; 5] = [1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10];

/// Pipe rounds per Fig. 19 job.
const FIG19_ROUNDS: usize = 24;

/// Figure 19: Linux pipe transfer throughput, native vs. lazy kernel
/// copies.
///
/// Paper shape: at small transfers the syscall cost dominates and the two
/// are close; as transfers grow, (MC)² approaches ~2× the native
/// throughput (it skips both the user→kernel and kernel→user data moves).
const FIG19: Figure = Figure {
    name: "fig19",
    tables: &["fig19"],
    jobs: |_| {
        jobs(grid(FIG19_SIZES, &[false, true]), |&(transfer, lazy)| {
            let mode = if lazy { CopyMode::Lazy } else { CopyMode::Eager };
            let wcfg = PipeConfig { transfer, rounds: FIG19_ROUNDS, mode, ..PipeConfig::default() };
            let (uops, pokes, _) = pipe_program(&wcfg, &mut AddrSpace::dram_3gb());
            Job::single(
                SystemConfig::table1_one_core(),
                lazy.then(McSquareConfig::default),
                uops,
                pokes,
            )
        })
    },
    report: |_, results| {
        let mut table = Table::new(
            "fig19",
            "pipe transfer throughput (bytes/kilocycle): native vs (MC)^2 kernel",
            &["transfer", "native_bpk", "mcsquare_bpk", "ratio"],
        );
        for (pair, &size) in results.chunks(2).zip(&FIG19_SIZES) {
            let bytes = size * FIG19_ROUNDS as u64;
            let n = throughput_bytes_per_kcycle(bytes, marker0(&pair[0]));
            let l = throughput_bytes_per_kcycle(bytes, marker0(&pair[1]));
            table.row(vec![fmt_size(size), f3(n), f3(l), f3(l / n)]);
        }
        vec![table]
    },
};

/// CTT entry counts of the Fig. 20 sweep.
const FIG20_ENTRIES: [usize; 4] = [32, 64, 128, 256];

/// Drain thresholds of the Fig. 20 sweep.
const FIG20_THRESHOLDS: [f64; 4] = [0.25, 0.5, 0.75, 0.9];

/// Figure 20: Protobuf performance and CTT-full stalls, sweeping the CTT
/// entry count and the asynchronous-drain threshold.
///
/// Paper shape: worst-to-best spread is small (~5%); too few entries or a
/// too-high threshold cause CTT-full stalls. The paper sweeps 1,024–4,096
/// entries against its workload; our scaled workload holds proportionally
/// fewer live copies, so the sweep covers proportionally smaller tables
/// (the stall mechanism and its shape are the reproduction target,
/// recorded in EXPERIMENTS.md).
const FIG20: Figure = Figure {
    name: "fig20",
    tables: &["fig20"],
    jobs: |_| {
        jobs(grid(FIG20_ENTRIES, &FIG20_THRESHOLDS), |&(ctt_entries, drain_threshold)| {
            // No MCFREE hints: like the paper's run, prospective copies
            // live until overwritten or drained, so table capacity and the
            // drain threshold are the binding constraints.
            let wcfg =
                ProtobufConfig { messages: 64, fields: 8, free_hints: false, ..Default::default() };
            let mech = CopyMech::McSquare { threshold: 1024 };
            let (uops, pokes, _) = protobuf_program(mech, &wcfg, &mut AddrSpace::dram_3gb());
            let mc2 = McSquareConfig { ctt_entries, drain_threshold, ..McSquareConfig::default() };
            Job::single(SystemConfig::table1_one_core(), Some(mc2), uops, pokes)
        })
    },
    report: |_, results| {
        let mut table = Table::new(
            "fig20",
            "Protobuf runtime (ms) and CTT-full stall cycles vs CTT entries x drain threshold",
            &["ctt_entries", "threshold", "runtime_ms", "ctt_full_stall_cycles", "stalls_norm"],
        );
        let stalls = |s: &RunStats| s.engine_counter("ctt_full_rejects");
        let max_stall = results.iter().map(stalls).max().unwrap_or(0).max(1);
        for ((entries, threshold), stats) in
            grid(FIG20_ENTRIES, &FIG20_THRESHOLDS).iter().zip(results)
        {
            table.row(vec![
                entries.to_string(),
                format!("{:.0}%", threshold * 100.0),
                f3(ms(marker0(stats))),
                stalls(stats).to_string(),
                f3(stalls(stats) as f64 / max_stall as f64),
            ]);
        }
        vec![table]
    },
};

/// Figure 21: runtime when source buffers are overwritten after a lazy
/// copy, varying the number of BPQ entries.
///
/// Paper shape: 1 entry serialises the source writes badly; 2 entries are
/// ~35% faster; returns diminish — 16 entries gain only ~2% over 8
/// (Table I picks 8).
const FIG21: Figure = Figure {
    name: "fig21",
    tables: &["fig21"],
    jobs: |_| jobs(grid(FIG21_SIZES, &FIG21_BPQS), |&(size, bpq)| fig21_job(size, bpq)),
    report: |_, results| {
        let mut table = Table::new(
            "fig21",
            "source-overwrite runtime normalised to BPQ=1, per buffer size",
            &["buffer", "bpq1", "bpq2", "bpq4", "bpq8", "bpq16"],
        );
        for (row, &size) in results.chunks(FIG21_BPQS.len()).zip(&FIG21_SIZES) {
            let lats: Vec<u64> = row.iter().map(marker0).collect();
            table.row(fig21_row(size, &lats));
        }
        vec![table]
    },
};

/// Thread counts of the Fig. 22 sweep.
const FIG22_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Figure 22: MVCC throughput with (MC)², normalised to the baseline,
/// varying the number of CTT entries freed in parallel per memory
/// controller and the number of executing threads.
///
/// Paper shape: at low thread counts parallel freeing does not matter (the
/// CTT never fills); at 8 threads serial freeing stalls and parallelism
/// restores the speedup.
const FIG22: Figure = Figure {
    name: "fig22",
    tables: &["fig22"],
    // Per thread count: the baseline (no engine), then (MC)² freeing 1, 2,
    // 4 and 8 CTT entries in parallel per controller.
    jobs: |_| {
        let frees = [None, Some(1), Some(2), Some(4), Some(8)];
        jobs(grid(FIG22_THREADS, &frees), |&(threads, free)| {
            let wcfg = MvccConfig {
                tuples: 16,
                tuple_size: 8192,
                txns: 32,
                update_frac: 0.125,
                update_ratio: 1.0,
                kind: UpdateKind::Rmw,
                ..MvccConfig::default()
            };
            let mech = match free {
                Some(_) => CopyMech::McSquare { threshold: 0 },
                None => CopyMech::Native,
            };
            // A CTT small relative to the copy burst so freeing throughput
            // matters (the paper's 2,048 entries against its full-size
            // workload, scaled to our transaction volume).
            let mc2 = free.map(|f| McSquareConfig {
                ctt_entries: 64,
                parallel_free: f,
                ..McSquareConfig::default()
            });
            let progs = mvcc_multithread(mech, &wcfg, threads, &mut AddrSpace::dram_3gb());
            Job::multi_core(mc2, progs)
        })
    },
    report: |_, results| {
        let mut table = Table::new(
            "fig22",
            "MVCC throughput with (MC)^2 normalised to baseline, by threads x parallel frees",
            &["threads", "free1", "free2", "free4", "free8"],
        );
        for (runs, &threads) in results.chunks(5).zip(&FIG22_THREADS) {
            let base = elapsed_cycles(&runs[0], threads) as f64;
            let mut row = vec![threads.to_string()];
            // Normalised throughput = baseline time / lazy time.
            row.extend(runs[1..].iter().map(|s| f3(base / elapsed_cycles(s, threads) as f64)));
            table.row(row);
        }
        vec![table]
    },
};

/// The memory-technology sweep's Fig. 10 copy sizes and Fig. 12
/// destination fractions and copy size.
fn memtech_axes(smoke: bool) -> (Vec<u64>, Vec<f64>, u64) {
    if smoke {
        (vec![1 << 10, 4 << 10], vec![0.0, 1.0], 64 << 10)
    } else {
        let sizes = vec![1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
        (sizes, vec![0.0, 0.25, 0.5, 0.75, 1.0], 4 << 20)
    }
}

/// Memory-technology sensitivity sweep: the Fig. 10 copy-latency
/// microbenchmark and the Fig. 12 sequential destination-access
/// experiment on every [`MemTech`] (DDR4, DDR5, HBM2), with refresh
/// enabled. `--smoke` runs small sizes on all three backends.
const SWEEP_MEMTECH: Figure = Figure {
    name: "sweep_memtech",
    tables: &["sweep_memtech_fig10", "sweep_memtech_fig12"],
    jobs: |smoke| {
        let (sizes, fracs, seq_size) = memtech_axes(smoke);
        let mechs = [false, true];
        let mut all =
            jobs(grid(grid(MemTech::ALL, &sizes), &mechs), |&((tech, size), mcsquare)| {
                memtech_fig10_job(tech, mcsquare, size)
            });
        let seq = grid(grid(MemTech::ALL, &fracs), &mechs).into_iter().map(|p| (p, seq_size));
        all.extend(jobs(seq, |&(((tech, frac), mcsquare), seq_size)| {
            let mech = memtech_mech(mcsquare);
            let g = seq_access(mech.clone(), seq_size, frac, true, &mut AddrSpace::dram_3gb());
            let mc2 = mech.needs_engine().then(McSquareConfig::default);
            Job::single(memtech_cfg(tech), mc2, g.uops, g.pokes)
        }));
        all
    },
    report: |smoke, results| {
        let (sizes, fracs, _) = memtech_axes(smoke);
        let (r10, r12) = results.split_at(MemTech::ALL.len() * sizes.len() * 2);
        let mut t10 = Table::new(
            "sweep_memtech_fig10",
            "Fig. 10 copy latency across memory technologies, refresh enabled",
            &["tech", "size", "memcpy_ns", "mcsquare_ns", "speedup", "refreshes"],
        );
        for (&(tech, size), pair) in grid(MemTech::ALL, &sizes).iter().zip(r10.chunks(2)) {
            t10.row(memtech_fig10_row(tech, size, &pair[0], &pair[1]));
        }
        let mut t12 = Table::new(
            "sweep_memtech_fig12",
            "Fig. 12 sequential destination access across memory technologies: \
             (MC)^2 runtime normalised to native memcpy, refresh enabled",
            &["tech", "fraction", "memcpy_ns", "mcsquare_ns", "mcsquare_norm"],
        );
        for (&(tech, frac), pair) in grid(MemTech::ALL, &fracs).iter().zip(r12.chunks(2)) {
            let (base, mcs) = (marker0(&pair[0]), marker0(&pair[1]));
            t12.row(vec![
                tech.name().into(),
                format!("{:.0}%", frac * 100.0),
                f3(ns(base)),
                f3(ns(mcs)),
                f3(mcs as f64 / base as f64),
            ]);
        }
        vec![t10, t12]
    },
};

/// Copy sizes of the wide-writeback ablation.
const ABLATE_SIZES: [u64; 7] = [1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];

/// Ablation of the §V-A1 wide-writeback extension.
///
/// The paper calls `memcpy_lazy`'s per-line CLWB cost "a conservative
/// estimate" and proposes a wider writeback instruction (page
/// granularity) to remove the serialisation above 1 KB. This measures the
/// lazy copy latency with per-line CLWBs vs. one WBRANGE per page chunk.
const ABLATE_WBRANGE: Figure = Figure {
    name: "ablate_wbrange",
    tables: &["ablate_wbrange"],
    jobs: |_| {
        jobs(grid(ABLATE_SIZES, &[false, true]), |&(size, wide_writeback)| {
            let mut space = AddrSpace::dram_3gb();
            let src = space.alloc_page(size.max(4096));
            let dst = space.alloc_page(size.max(4096));
            let mut uops = Vec::new();
            marker(&mut uops, 0);
            let lazy = LazyOpts { wide_writeback, ..LazyOpts::default() };
            uops.extend(memcpy_lazy_uops(uops.len() as u64, dst, src, size, &lazy));
            marker(&mut uops, 1);
            let mut pokes = Pokes::default();
            pokes.add(src, pattern(size as usize, 3));
            Job::single(
                SystemConfig::table1_one_core(),
                Some(McSquareConfig::default()),
                uops,
                pokes,
            )
        })
    },
    report: |_, results| {
        let mut table = Table::new(
            "ablate_wbrange",
            "memcpy_lazy latency (ns): per-line CLWB vs the wide-writeback extension",
            &["size", "clwb_per_line_ns", "wbrange_ns", "speedup"],
        );
        for (pair, &size) in results.chunks(2).zip(&ABLATE_SIZES) {
            let (a, b) = (marker0(&pair[0]), marker0(&pair[1]));
            table.row(vec![fmt_size(size), f3(ns(a)), f3(ns(b)), f3(a as f64 / b as f64)]);
        }
        vec![table]
    },
};

/// The fault sweep's copy size and severities (multiples of the mild
/// plan).
fn fault_axes(smoke: bool) -> (u64, Vec<f64>) {
    if smoke {
        (16 << 10, vec![0.0, 1.0, 4.0])
    } else {
        (256 << 10, vec![0.0, 0.1, 0.5, 1.0, 2.0, 4.0])
    }
}

/// The mild plan with its per-event rates scaled by `severity`
/// (0 = fault-free).
fn fault_plan_at(severity: f64) -> FaultPlan {
    if severity <= 0.0 {
        return FaultPlan::none();
    }
    let m = FaultPlan::mild(0xFA17);
    let scale = |rate: f64| (rate * severity).min(1.0);
    FaultPlan {
        seed: 0xFA17,
        ecc_correctable_rate: scale(m.ecc_correctable_rate),
        ecc_uncorrectable_rate: scale(m.ecc_uncorrectable_rate),
        link_jitter_rate: scale(m.link_jitter_rate),
        link_dup_rate: scale(m.link_dup_rate),
        mc_stall_rate: scale(m.mc_stall_rate),
        ctt_flush_rate: scale(m.ctt_flush_rate),
        ctt_drop_rate: scale(m.ctt_drop_rate),
        ..m
    }
}

/// Availability / graceful-degradation sweep: how much does a faulty
/// memory system slow down `memcpy` versus the (MC)² lazy copy?
///
/// For each severity step the [`FaultPlan::mild`] plan is scaled (ECC
/// correctable/uncorrectable rates, link jitter/duplication, controller
/// stalls, forced CTT flushes, dropped-entry repairs), and a copy plus a
/// full destination read-back (the `frac = 1.0` Fig. 12 shape) runs on
/// both mechanisms. That exercises the whole degradation surface: ECC
/// retries and poisoned reads on the reconstruction path, BPQ/CTT fault
/// repairs, link faults on the bounce traffic. Faults degrade timing
/// only; the simulator's invariants and the chaos harness check the data.
/// `--smoke` runs one small size.
const FAULT_SWEEP: Figure = Figure {
    name: "fault_sweep",
    tables: &["fault_sweep"],
    jobs: |smoke| {
        let (size, severities) = fault_axes(smoke);
        let mechs = [CopyMech::Native, CopyMech::McSquare { threshold: 0 }];
        jobs(grid(severities.into_iter().map(|s| (s, size)), &mechs), |((s, size), mech)| {
            let g = seq_access(mech.clone(), *size, 1.0, true, &mut AddrSpace::dram_3gb());
            let mc2 = mech.needs_engine().then(McSquareConfig::default);
            let cfg = SystemConfig { fault: fault_plan_at(*s), ..SystemConfig::table1_one_core() };
            Job::single(cfg, mc2, g.uops, g.pokes)
        })
    },
    report: |smoke, results| {
        let (size, severities) = fault_axes(smoke);
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
        let (base_memcpy, base_mcs) = (marker0(&results[0]), marker0(&results[1]));
        for (severity, pair) in severities.into_iter().zip(results.chunks(2)) {
            let (lb, lm) = (marker0(&pair[0]), marker0(&pair[1]));
            t.row(vec![
                format!("{severity:.1}x"),
                fmt_size(size),
                f3(ns(lb)),
                f3(ns(lm)),
                f3(lb as f64 / base_memcpy as f64),
                f3(lm as f64 / base_mcs as f64),
                pair[0].fault_events().to_string(),
                pair[1].fault_events().to_string(),
            ]);
        }
        vec![t]
    },
};

/// The Mess sweep's scale.
fn mess_scale(smoke: bool) -> Scale {
    if smoke {
        Scale::smoke()
    } else {
        Scale::full()
    }
}

/// Bandwidth–latency ("Mess"-style) curves per memory technology: probe
/// chase latency vs. injected copy load, memcpy vs. (MC)² (workload in
/// [`crate::mess`]). `--smoke` runs smaller buffers and a shorter burst
/// ladder through the same code paths.
const MESS_CURVES: Figure = Figure {
    name: "mess_curves",
    tables: &["mess_curves"],
    jobs: |smoke| {
        let points = mess::points(&mess_scale(smoke)).into_iter().map(|p| (p, smoke));
        jobs(points, |(p, smoke)| mess::job_for(p, &mess_scale(*smoke)))
    },
    report: |smoke, results| {
        let sc = mess_scale(smoke);
        let mut table = Table::new(
            "mess_curves",
            "bandwidth-latency curves: probe chase latency vs injected copy load, \
             per memory technology, memcpy vs (MC)^2",
            &["tech", "mode", "burst", "bw_gbps", "lat_ns", "mc_read_ns"],
        );
        for (p, stats) in mess::points(&sc).iter().zip(results) {
            table.row(mess::row_for(p, &sc, stats));
        }
        vec![table]
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_tables_are_the_committed_result_files() {
        let declared: Vec<&str> = FIGURES.iter().flat_map(|f| f.tables.iter().copied()).collect();
        let unique: BTreeSet<&str> = declared.iter().copied().collect();
        assert_eq!(unique.len(), declared.len(), "a table name is declared twice: {declared:?}");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("read results/")
            .filter_map(|e| {
                let name = e.expect("dir entry").file_name().into_string().ok()?;
                // `<table>.tsv`; traced runs may leave `<base>.jobN.*.tsv` too.
                Some(name.strip_suffix(".tsv").filter(|t| !t.contains('.'))?.to_string())
            })
            .collect();
        let declared: BTreeSet<String> = unique.iter().map(|t| t.to_string()).collect();
        assert_eq!(declared, committed, "registry tables vs results/*.tsv");
    }

    #[test]
    fn every_simulated_figure_has_jobs() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "a figure name is registered twice");
        for f in FIGURES {
            for smoke in [false, true] {
                // Table I is a configuration dump; every other figure
                // simulates.
                assert_eq!((f.jobs)(smoke).is_empty(), f.name == "table1", "{} jobs", f.name);
            }
        }
    }

    #[test]
    fn select_keeps_registry_order_and_rejects_unknown_names() {
        let only =
            |names: &[&str]| select(&names.iter().map(|n| n.to_string()).collect::<Vec<_>>());
        assert_eq!(only(&[]).expect("all").len(), FIGURES.len());
        let picked: Vec<&str> = only(&["table1", "fig10", "mess_curves"])
            .expect("known")
            .iter()
            .map(|f| f.name)
            .collect();
        assert_eq!(picked, ["mess_curves", "fig10", "table1"]);
        let err = only(&["fig10", "fig99"]).err().expect("fig99 is unknown");
        assert!(err.contains("\"fig99\"") && err.contains("fig02_03_04"), "{err}");
    }
}
