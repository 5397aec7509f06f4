//! Shared construction of Table I, the Fig. 10 and Fig. 12 sweeps, and
//! the Fig. 10 rows of the memory-technology sweep.
//!
//! The figure binaries and the byte-identity regression test
//! (`tests/trace_identity.rs`) must agree exactly on how each point is
//! simulated and how each row is formatted — any drift would make the
//! test compare different experiments. Both therefore build jobs and rows
//! through this module.

use crate::{f3, fmt_size, marker0, ns, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::stats::RunStats;
use mcs_workloads::micro::{copy_latency, seq_access};
use mcs_workloads::CopyMech;
use mcsquare::ctt::ENTRY_BYTES;
use mcsquare::McSquareConfig;

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
        cfg.l1.prefetch = false;
        cfg.llc.prefetch = false;
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
