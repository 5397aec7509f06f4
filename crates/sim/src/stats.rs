//! Simulation statistics.
//!
//! Counters are organised the way the paper reports them: cycles are
//! attributed to a [`crate::uop::StatTag`] (memcpy vs. application vs.
//! kernel work), and stall cycles are further attributed to the resource
//! being waited on. This is what regenerates Figs. 2, 3, 11 and 20b.

use crate::uop::StatTag;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Why a core made no forward progress in a cycle.
#[derive(Copy, Clone, PartialEq, Eq, Debug, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StallReason {
    /// Head of ROB is a load waiting for memory.
    LoadMiss,
    /// Dispatch blocked: all CLWB writeback slots are in flight.
    ClwbSlots,
    /// Dispatch blocked: all MCLAZY slots are in flight (includes the
    /// memory controller back-pressuring acks because the CTT is full).
    MclazySlots,
    /// Fence draining: waiting for stores / CLWBs / MCLAZYs to complete.
    Fence,
    /// Store buffer full.
    StoreBuffer,
    /// ROB full.
    RobFull,
    /// Program supplied no uop (dependency stall, e.g. pointer chasing).
    Frontend,
}

impl StallReason {
    /// Stable lowercase name, used in TSV output and trace lanes.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::LoadMiss => "load_miss",
            StallReason::ClwbSlots => "clwb_slots",
            StallReason::MclazySlots => "mclazy_slots",
            StallReason::Fence => "fence",
            StallReason::StoreBuffer => "store_buffer",
            StallReason::RobFull => "rob_full",
            StallReason::Frontend => "frontend",
        }
    }
}

/// Per-core statistics.
#[derive(Clone, Default, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Total cycles this core was live (first fetch to completion).
    pub cycles: u64,
    /// Retired uops.
    pub retired: u64,
    /// Retired loads / stores.
    pub loads: u64,
    pub stores: u64,
    /// Cycles attributed to each tag (by ROB-head tag; idle cycles inherit
    /// the last observed tag so totals add up).
    pub cycles_by_tag: BTreeMap<StatTag, u64>,
    /// Cycles with zero retires while waiting on memory, per tag.
    pub mem_stall_by_tag: BTreeMap<StatTag, u64>,
    /// Zero-retire cycles broken down by reason.
    pub stalls: BTreeMap<StallReason, u64>,
    /// Total zero-retire cycles. Each stalled cycle is attributed to
    /// exactly one [`StallReason`], so `stalled_cycles ==
    /// stalls.values().sum()` always (see [`CoreStats::check_stall_accounting`]).
    pub stalled_cycles: u64,
    /// Cycles in which at least one load miss was outstanding, per tag
    /// (the paper's "Mem miss cycles", Fig. 3).
    pub mem_busy_by_tag: BTreeMap<StatTag, u64>,
    /// Loads that completed having missed the L1 (serviced by LLC or
    /// beyond), and loads that went all the way to memory.
    pub l1_miss_loads: u64,
    pub mem_loads: u64,
    /// Retire timestamps of `Marker` uops, in retire order: (marker id,
    /// cycle). The RDTSC-style probe used for per-operation latency.
    pub markers: Vec<(u32, u64)>,
}

impl CoreStats {
    /// Total cycles attributed to `tag`.
    pub fn tag_cycles(&self, tag: StatTag) -> u64 {
        self.cycles_by_tag.get(&tag).copied().unwrap_or(0)
    }

    /// Total memory-stall cycles attributed to `tag`.
    pub fn tag_mem_stalls(&self, tag: StatTag) -> u64 {
        self.mem_stall_by_tag.get(&tag).copied().unwrap_or(0)
    }

    /// Record `n` stall cycles with one reason. Keeps the
    /// `stalled_cycles == Σ stalls` ledger intact.
    pub fn bump_stall_n(&mut self, r: StallReason, n: u64) {
        if n == 0 {
            return;
        }
        *self.stalls.entry(r).or_insert(0) += n;
        self.stalled_cycles += n;
    }

    /// Sum of the per-reason stall histogram.
    pub fn total_stalls(&self) -> u64 {
        self.stalls.values().sum()
    }

    /// Verify the stall-attribution invariant: every stalled cycle is
    /// attributed to exactly one reason, and a core cannot stall for more
    /// cycles than it ran.
    pub fn check_stall_accounting(&self) -> Result<(), String> {
        let sum = self.total_stalls();
        if sum != self.stalled_cycles {
            return Err(format!(
                "stall histogram sums to {sum} but stalled_cycles is {}",
                self.stalled_cycles
            ));
        }
        if self.stalled_cycles > self.cycles {
            return Err(format!(
                "stalled_cycles {} exceeds total cycles {}",
                self.stalled_cycles, self.cycles
            ));
        }
        Ok(())
    }
}

/// Per-cache statistics.
#[derive(Clone, Default, Debug, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub prefetches_issued: u64,
    pub prefetch_hits: u64,
    pub invalidations: u64,
}

impl CacheStats {
    /// Miss ratio over all demand accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Per-memory-controller statistics.
#[derive(Clone, Default, Debug, PartialEq, Serialize, Deserialize)]
pub struct McStats {
    pub reads: u64,
    pub writes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    /// All-bank refresh windows the channel has performed (0 when the
    /// backend runs with refresh disabled).
    pub refreshes: u64,
    /// Reads serviced by WPQ forwarding.
    pub wpq_forwards: u64,
    /// Cycles the input port was blocked by engine back-pressure
    /// (CTT-full / BPQ-full stalls; Fig. 20b).
    pub input_stall_cycles: u64,
    /// Engine-generated DRAM reads/writes (lazy copies, drains).
    pub engine_reads: u64,
    pub engine_writes: u64,
    /// Correctable ECC errors observed on DRAM accesses (each triggered a
    /// bounded retry-with-backoff; injected, see [`crate::fault`]).
    pub ecc_corrected: u64,
    /// Re-read attempts spent correcting ECC errors.
    pub ecc_retries: u64,
    /// Uncorrectable ECC errors: the line was poisoned.
    pub ecc_uncorrectable: u64,
    /// Demand/engine reads that returned poisoned data.
    pub poisoned_reads: u64,
    /// Transient controller stall windows tripped by injected faults.
    pub fault_stalls: u64,
    /// Cycles the input port was blocked inside injected stall windows.
    pub fault_stall_cycles: u64,
    /// Sum of enqueue→completion latencies (cycles) over all DRAM-serviced
    /// demand reads, and their count. WPQ-forwarded reads never reach DRAM
    /// and are excluded. Together these give the mean loaded read latency
    /// the LLC observes — the y-axis of a bandwidth–latency (Mess) curve.
    pub demand_read_lat_sum: u64,
    /// Number of DRAM-serviced demand reads behind `demand_read_lat_sum`.
    pub demand_reads_done: u64,
}

impl McStats {
    /// Sum of this controller's fault/degradation counters; 0 on a clean
    /// (empty fault-plan) run, which keeps summary output byte-identical.
    /// The copy engine's repairs are counted by the engine alone (see
    /// [`RunStats::fault_events`]).
    pub fn fault_events(&self) -> u64 {
        self.ecc_corrected
            + self.ecc_retries
            + self.ecc_uncorrectable
            + self.poisoned_reads
            + self.fault_stalls
    }
}

/// What the run loop paid to simulate the machine: always-on counters
/// of executed and skipped cycles and of phase executions per layer.
/// They describe the scheduler, not the simulated machine, so they differ
/// between [`crate::SchedMode`]s that produce identical machine statistics.
#[derive(Clone, Copy, Default, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Cycles the run loop executed (at least one phase considered).
    pub executed_cycles: u64,
    /// Executed cycles the run loop entered. The event-driven loop jumps
    /// over executed cycles in which no component is due and accounts
    /// them without entering them; the other schedulers enter every
    /// executed cycle, so there this equals `executed_cycles`.
    pub visited_cycles: u64,
    /// Cycles jumped over by whole-machine idle skip-ahead.
    /// `executed_cycles + skipped_cycles` equals [`RunStats::cycles`].
    pub skipped_cycles: u64,
    /// Core phase executions, summed over cores.
    pub core_execs: u64,
    /// L1 phase executions, summed over L1s.
    pub l1_execs: u64,
    /// LLC phase executions.
    pub llc_execs: u64,
    /// Memory-controller phase executions, summed over controllers.
    pub mc_execs: u64,
}

/// Statistics of one full run.
#[derive(Clone, Default, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Simulated cycles until all programs finished (and queues drained).
    pub cycles: u64,
    pub cores: Vec<CoreStats>,
    pub l1: Vec<CacheStats>,
    pub llc: CacheStats,
    pub mcs: Vec<McStats>,
    /// Engine counters (name → value), e.g. CTT inserts, bounces, drains.
    pub engine: BTreeMap<String, u64>,
    /// Scheduler counters: the simulator's cost, not the machine's.
    pub sched: SchedStats,
}

impl RunStats {
    /// Sum of a per-tag cycle counter across cores.
    pub fn total_tag_cycles(&self, tag: StatTag) -> u64 {
        self.cores.iter().map(|c| c.tag_cycles(tag)).sum()
    }

    /// Total CTT-full input stall cycles across controllers (Fig. 20b).
    pub fn mc_input_stalls(&self) -> u64 {
        self.mcs.iter().map(|m| m.input_stall_cycles).sum()
    }

    /// Engine counter by name (0 when absent).
    pub fn engine_counter(&self, name: &str) -> u64 {
        self.engine.get(name).copied().unwrap_or(0)
    }

    /// Every fault event of the run: each controller's
    /// [`McStats::fault_events`] plus the copy engine's forced CTT flushes
    /// and dropped-entry repairs (eager re-copies).
    pub fn fault_events(&self) -> u64 {
        self.mcs.iter().map(McStats::fault_events).sum::<u64>()
            + self.engine_counter("forced_flushes")
            + self.engine_counter("eager_fallbacks")
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.sched;
        writeln!(
            f,
            "cycles: {} (executed={} visited={} skipped={}; execs core={} l1={} llc={} mc={})",
            self.cycles,
            s.executed_cycles,
            s.visited_cycles,
            s.skipped_cycles,
            s.core_execs,
            s.l1_execs,
            s.llc_execs,
            s.mc_execs
        )?;
        for (i, c) in self.cores.iter().enumerate() {
            writeln!(
                f,
                "  core{i}: retired={} loads={} stores={} l1miss={} memloads={}",
                c.retired, c.loads, c.stores, c.l1_miss_loads, c.mem_loads
            )?;
        }
        writeln!(
            f,
            "  llc: hits={} misses={} (mr={:.3})",
            self.llc.hits,
            self.llc.misses,
            self.llc.miss_ratio()
        )?;
        for (i, m) in self.mcs.iter().enumerate() {
            writeln!(
                f,
                "  mc{i}: rd={} wr={} rowhit={} rowmiss={} rowconf={} refresh={} stalls={}",
                m.reads,
                m.writes,
                m.row_hits,
                m.row_misses,
                m.row_conflicts,
                m.refreshes,
                m.input_stall_cycles
            )?;
            if m.fault_events() > 0 {
                writeln!(
                    f,
                    "  mc{i}.faults: ecc_corr={} ecc_retry={} ecc_uncorr={} \
poisoned_rd={} stalls={}/{}cy",
                    m.ecc_corrected,
                    m.ecc_retries,
                    m.ecc_uncorrectable,
                    m.poisoned_reads,
                    m.fault_stalls,
                    m.fault_stall_cycles
                )?;
            }
        }
        for (k, v) in &self.engine {
            writeln!(f, "  engine.{k}: {v}")?;
        }
        Ok(())
    }
}

/// Latency percentile summary over a sample set (used by the
/// per-operation latency figures).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    pub min: u64,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
    pub mean: f64,
}

/// Summarise a latency sample (cycles). Returns `None` for an empty set.
pub fn summarize_latencies(samples: &[u64]) -> Option<LatencySummary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let pct = |p: f64| v[(((v.len() - 1) as f64) * p).round() as usize];
    Some(LatencySummary {
        min: v[0],
        p50: pct(0.50),
        p99: pct(0.99),
        max: *v.last().expect("nonempty"),
        mean: v.iter().sum::<u64>() as f64 / v.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_data() {
        let s = summarize_latencies(&[10, 20, 30, 40, 1000]).unwrap();
        assert_eq!(s.min, 10);
        assert_eq!(s.p50, 30);
        assert_eq!(s.max, 1000);
        assert_eq!(s.p99, 1000);
        assert!((s.mean - 220.0).abs() < 1e-9);
        assert!(summarize_latencies(&[]).is_none());
    }

    #[test]
    fn miss_ratio_handles_zero() {
        let cs = CacheStats::default();
        assert_eq!(cs.miss_ratio(), 0.0);
    }

    #[test]
    fn fault_events_counts_controllers_and_engine_repairs_once() {
        let mut rs = RunStats::default();
        assert_eq!(rs.fault_events(), 0, "a clean run has no fault events");
        rs.mcs.push(McStats {
            ecc_corrected: 1,
            ecc_retries: 2,
            ecc_uncorrectable: 4,
            poisoned_reads: 8,
            fault_stalls: 16,
            fault_stall_cycles: 1000,
            ..McStats::default()
        });
        rs.mcs.push(McStats { ecc_corrected: 32, ..McStats::default() });
        rs.engine.insert("forced_flushes".into(), 64);
        rs.engine.insert("eager_fallbacks".into(), 128);
        rs.engine.insert("dropped_entries".into(), 999);
        assert_eq!(rs.fault_events(), 255);
    }

    #[test]
    fn display_is_nonempty() {
        let rs = RunStats::default();
        assert!(!format!("{rs}").is_empty());
    }

    #[test]
    fn display_reports_scheduler_counters_on_the_summary_line() {
        let rs = RunStats {
            cycles: 10,
            sched: SchedStats {
                executed_cycles: 7,
                visited_cycles: 4,
                skipped_cycles: 3,
                core_execs: 5,
                l1_execs: 4,
                llc_execs: 2,
                mc_execs: 6,
            },
            ..RunStats::default()
        };
        let s = format!("{rs}");
        let first = s.lines().next().expect("summary line");
        assert_eq!(
            first,
            "cycles: 10 (executed=7 visited=4 skipped=3; execs core=5 l1=4 llc=2 mc=6)"
        );
    }

    #[test]
    fn display_reports_full_row_buffer_breakdown() {
        let mut rs = RunStats::default();
        rs.mcs.push(McStats {
            row_hits: 3,
            row_misses: 2,
            row_conflicts: 1,
            refreshes: 4,
            ..McStats::default()
        });
        let s = format!("{rs}");
        assert!(s.contains("rowhit=3"), "{s}");
        assert!(s.contains("rowmiss=2"), "{s}");
        assert!(s.contains("rowconf=1"), "{s}");
        assert!(s.contains("refresh=4"), "{s}");
    }

    #[test]
    fn fault_counters_print_only_when_nonzero() {
        let mut rs = RunStats::default();
        rs.mcs.push(McStats::default());
        let clean = format!("{rs}");
        assert!(!clean.contains("faults"), "clean run must not print fault line: {clean}");
        rs.mcs[0].ecc_corrected = 2;
        rs.mcs[0].ecc_retries = 4;
        rs.mcs[0].poisoned_reads = 1;
        let s = format!("{rs}");
        assert!(s.contains("ecc_corr=2"), "{s}");
        assert!(s.contains("ecc_retry=4"), "{s}");
        assert!(s.contains("poisoned_rd=1"), "{s}");
    }

    #[test]
    fn engine_counter_defaults_to_zero() {
        let mut rs = RunStats::default();
        assert_eq!(rs.engine_counter("ctt_inserts"), 0);
        rs.engine.insert("ctt_inserts".into(), 5);
        assert_eq!(rs.engine_counter("ctt_inserts"), 5);
    }
}
