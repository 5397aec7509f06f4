//! Simulation configuration.
//!
//! [`SystemConfig::table1`] reproduces the paper's Table I: 8 CPUs at 4 GHz,
//! 64 KB private L1s with stride prefetchers, a shared 2 MB LLC, two DDR4
//! channels, a 2048-entry CTT (0.79 ns lookup) and an 8-entry BPQ. All
//! latency parameters are expressed in CPU cycles at 4 GHz (1 cycle =
//! 0.25 ns).

use serde::{Deserialize, Serialize};

/// CPU core model parameters.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Reorder-buffer capacity (in-flight uops).
    pub rob_size: usize,
    /// Uops dispatched per cycle.
    pub dispatch_width: usize,
    /// Uops retired per cycle.
    pub retire_width: usize,
    /// Load-queue capacity (outstanding loads).
    pub lq_size: usize,
    /// Store-buffer capacity (retired stores not yet in the cache).
    pub sb_size: usize,
    /// Maximum outstanding CLWB writebacks. This is the resource whose
    /// exhaustion serialises `memcpy_lazy`'s writebacks above 1 KB (Fig. 11:
    /// 1 KB = 16 cachelines).
    pub max_clwb: usize,
    /// Maximum outstanding MCLAZY packets (they proceed in parallel like
    /// CLFLUSHOPT, §III-C).
    pub max_mclazy: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            rob_size: 224,
            dispatch_width: 4,
            retire_width: 4,
            lq_size: 32,
            sb_size: 56,
            max_clwb: 16,
            max_mclazy: 8,
        }
    }
}

/// Parameters of one cache level.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access (hit) latency in cycles.
    pub hit_latency: u64,
    /// Miss-status-holding registers: outstanding misses.
    pub mshrs: usize,
    /// Stride prefetcher degree: lines fetched ahead once a stride locks
    /// on (Table I: both levels use one); 0 turns the prefetcher off.
    pub prefetch_degree: usize,
}

impl CacheConfig {
    /// Number of sets implied by size/ways and the 64B line.
    pub fn sets(&self) -> usize {
        (self.size_bytes / crate::addr::CACHELINE) as usize / self.ways
    }
}

/// Memory technology behind one channel: selects the canonical timing and
/// geometry ([`DramConfig::for_tech`]) the [`crate::dram`] channel model is
/// built from.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MemTech {
    /// DDR4-2400 single 64-bit bus per channel (the Table I baseline).
    Ddr4,
    /// DDR5-4800 sub-channel: bank groups with tCCD_L/tCCD_S CAS spacing,
    /// smaller rows, two sub-channels per DIMM (so more system channels).
    Ddr5,
    /// HBM2-style channel: independent narrow pseudo-channels, short
    /// bursts, small rows, low capacity per channel.
    Hbm2,
}

impl MemTech {
    /// Every supported technology, for sweeps.
    pub const ALL: [MemTech; 3] = [MemTech::Ddr4, MemTech::Ddr5, MemTech::Hbm2];

    /// Short lowercase name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            MemTech::Ddr4 => "ddr4",
            MemTech::Ddr5 => "ddr5",
            MemTech::Hbm2 => "hbm2",
        }
    }

    /// Channels a Table I-class system of this technology exposes: 2 DDR4
    /// channels; the same two DIMM slots give 4 DDR5 sub-channels; one
    /// HBM2 stack gives 8 channels.
    pub fn default_channels(self) -> usize {
        match self {
            MemTech::Ddr4 => 2,
            MemTech::Ddr5 => 4,
            MemTech::Hbm2 => 8,
        }
    }
}

/// DRAM timing and geometry for one channel, expressed in CPU cycles.
///
/// Defaults approximate DDR4-2400 at a 4 GHz CPU clock: tRCD = tRP = tCL ≈
/// 13.75 ns ≈ 55 cycles, 64B burst ≈ 3.33 ns ≈ 13 cycles (19.2 GB/s per
/// channel). See [`DramConfig::for_tech`] for the other technologies.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Technology this configuration describes; the channel model reads
    /// only the geometry and timing fields below.
    pub tech: MemTech,
    /// Banks per channel (per pseudo-channel for HBM).
    pub banks: usize,
    /// Bank groups the banks divide into (DDR5; 1 = no grouping).
    pub bank_groups: usize,
    /// Pseudo-channels per channel (HBM; 1 = a single shared bus).
    pub pseudo_channels: usize,
    /// Row size in bytes (per bank).
    pub row_bytes: u64,
    /// Activate-to-CAS delay (row miss adder), cycles.
    pub t_rcd: u64,
    /// Precharge delay (row conflict adder), cycles.
    pub t_rp: u64,
    /// CAS latency, cycles.
    pub t_cl: u64,
    /// Data-burst occupancy of one bus per 64B access, cycles. This is
    /// the per-bus bandwidth cap.
    pub t_burst: u64,
    /// Same-bank-group CAS-to-CAS spacing (DDR5 tCCD_L), cycles; only
    /// consulted when `bank_groups > 1`.
    pub t_ccd_l: u64,
    /// All-bank refresh interval, cycles; 0 disables refresh (the
    /// behaviour-preserving default — see [`DramConfig::with_refresh`]).
    pub t_refi: u64,
    /// All-bank refresh duration, cycles (banks blocked, rows closed).
    pub t_rfc: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            tech: MemTech::Ddr4,
            banks: 16,
            bank_groups: 1,
            pseudo_channels: 1,
            row_bytes: 8192,
            t_rcd: 55,
            t_rp: 55,
            t_cl: 55,
            t_burst: 13,
            t_ccd_l: 0,
            t_refi: 0,
            t_rfc: 1400,
        }
    }
}

impl DramConfig {
    /// The canonical timing for `tech`:
    ///
    /// * **DDR4-2400** — the Table I baseline (identical to [`Default`]).
    /// * **DDR5-4800 sub-channel** — 32 banks in 8 groups, 2 KB rows (the
    ///   32-bit sub-channel fetches half a module row), tRCD/tRP/tCL ≈
    ///   16 ns ≈ 64 cycles, BL16 burst ≈ 3.33 ns ≈ 13 cycles, tCCD_L ≈
    ///   5 ns ≈ 20 cycles, tRFC ≈ 295 ns ≈ 1180 cycles.
    /// * **HBM2E-style channel** — 2 pseudo-channels of 16 banks each,
    ///   1 KB rows, tRCD/tRP/tCL ≈ 14 ns ≈ 56 cycles, 64B over a 64-bit
    ///   pseudo-channel bus at 3.6 Gb/s ≈ 2.2 ns ≈ 9 cycles, tRFC ≈
    ///   260 ns ≈ 1040 cycles.
    pub fn for_tech(tech: MemTech) -> DramConfig {
        match tech {
            MemTech::Ddr4 => DramConfig::default(),
            MemTech::Ddr5 => DramConfig {
                tech: MemTech::Ddr5,
                banks: 32,
                bank_groups: 8,
                pseudo_channels: 1,
                row_bytes: 2048,
                t_rcd: 64,
                t_rp: 64,
                t_cl: 64,
                t_burst: 13,
                t_ccd_l: 20,
                t_refi: 0,
                t_rfc: 1180,
            },
            MemTech::Hbm2 => DramConfig {
                tech: MemTech::Hbm2,
                banks: 16,
                bank_groups: 1,
                pseudo_channels: 2,
                row_bytes: 1024,
                t_rcd: 56,
                t_rp: 56,
                t_cl: 56,
                t_burst: 9,
                t_ccd_l: 0,
                t_refi: 0,
                t_rfc: 1040,
            },
        }
    }

    /// Enable all-bank refresh at the technology's canonical interval:
    /// tREFI = 7.8 µs ≈ 31200 cycles for DDR4; DDR5 and HBM2 refresh
    /// twice as often (3.9 µs ≈ 15600 cycles) with shorter tRFC.
    pub fn with_refresh(mut self) -> DramConfig {
        self.t_refi = match self.tech {
            MemTech::Ddr4 => 31_200,
            MemTech::Ddr5 | MemTech::Hbm2 => 15_600,
        };
        self
    }
}

/// Memory-controller queueing parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct McConfig {
    /// Read pending queue capacity.
    pub rpq_cap: usize,
    /// Write pending queue capacity.
    pub wpq_cap: usize,
    /// Drain writes once WPQ occupancy exceeds this fraction.
    pub wpq_drain_hi: f64,
    /// Stop draining once occupancy falls below this fraction.
    pub wpq_drain_lo: f64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig { rpq_cap: 32, wpq_cap: 64, wpq_drain_hi: 0.7, wpq_drain_lo: 0.3 }
    }
}

/// Interconnect latencies (one-way, cycles).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Core ↔ L1.
    pub core_l1: u64,
    /// L1 ↔ LLC.
    pub l1_llc: u64,
    /// Into the LLC or a memory controller (the memory interconnect hop;
    /// MC ↔ MC bounces share a controller's one inbound FIFO).
    pub llc_mc: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { core_l1: 1, l1_llc: 12, llc_mc: 40 }
    }
}

/// Full system configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of CPU cores (each runs one program).
    pub cores: usize,
    /// Core model.
    pub core: CoreConfig,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Shared last-level cache (the paper's "Shared L2").
    pub llc: CacheConfig,
    /// Number of memory channels / controllers.
    pub channels: usize,
    /// DRAM timing per channel.
    pub dram: DramConfig,
    /// Memory-controller queues.
    pub mc: McConfig,
    /// Link latencies.
    pub links: LinkConfig,
    /// Fault-injection plan (empty = inject nothing, the default).
    #[serde(default)]
    pub fault: crate::fault::FaultPlan,
}

impl SystemConfig {
    /// The paper's Table I configuration: refresh off, no fault injection.
    pub fn table1() -> SystemConfig {
        SystemConfig {
            cores: 8,
            core: CoreConfig::default(),
            l1: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 8,
                hit_latency: 4,
                // Fill buffers + superqueue: enough outstanding misses to
                // cover the DRAM round trip at streaming bandwidth.
                mshrs: 24,
                prefetch_degree: 8,
            },
            llc: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                hit_latency: 35,
                mshrs: 48,
                prefetch_degree: 8,
            },
            channels: 2,
            dram: DramConfig::for_tech(MemTech::Ddr4),
            mc: McConfig { rpq_cap: 48, ..McConfig::default() },
            links: LinkConfig::default(),
            fault: crate::fault::FaultPlan::none(),
        }
    }

    /// A single-core variant of Table I (most microbenchmarks are
    /// single-threaded).
    pub fn table1_one_core() -> SystemConfig {
        SystemConfig { cores: 1, ..SystemConfig::table1() }
    }

    /// Start building a configuration from Table I: override the memory
    /// technology, refresh, core count, or fault plan, then [`build`].
    ///
    /// [`build`]: SystemConfigBuilder::build
    ///
    /// ```
    /// use mcs_sim::config::{MemTech, SystemConfig};
    /// let cfg = SystemConfig::builder().tech(MemTech::Hbm2).refresh(true).build();
    /// assert_eq!(cfg.channels, 8);
    /// assert!(cfg.dram.t_refi > 0);
    /// ```
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder { cfg: SystemConfig::table1() }
    }

    /// A tiny configuration for fast unit tests: small caches so evictions
    /// and misses occur quickly, short latencies so tests run in few cycles.
    /// Refresh is off; tests that want it set `dram.t_refi` (500 cycles
    /// fits several refresh windows into a short run).
    pub fn tiny() -> SystemConfig {
        SystemConfig {
            cores: 1,
            core: CoreConfig {
                rob_size: 16,
                dispatch_width: 2,
                retire_width: 2,
                lq_size: 4,
                sb_size: 4,
                max_clwb: 4,
                max_mclazy: 2,
            },
            l1: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                hit_latency: 1,
                mshrs: 4,
                prefetch_degree: 0,
            },
            llc: CacheConfig {
                size_bytes: 4096,
                ways: 4,
                hit_latency: 4,
                mshrs: 8,
                prefetch_degree: 0,
            },
            channels: 2,
            dram: DramConfig {
                banks: 4,
                row_bytes: 1024,
                t_rcd: 6,
                t_rp: 6,
                t_cl: 6,
                t_burst: 2,
                t_rfc: 60,
                ..DramConfig::default()
            },
            mc: McConfig { rpq_cap: 8, wpq_cap: 8, wpq_drain_hi: 0.7, wpq_drain_lo: 0.2 },
            links: LinkConfig { core_l1: 1, l1_llc: 2, llc_mc: 4 },
            fault: crate::fault::FaultPlan::none(),
        }
    }

    /// Approximate total memory bandwidth in bytes per cycle (all
    /// channels, counting every independent pseudo-channel bus).
    pub fn peak_bw_bytes_per_cycle(&self) -> f64 {
        (self.channels * self.dram.pseudo_channels) as f64 * crate::addr::CACHELINE as f64
            / self.dram.t_burst as f64
    }
}

/// Builder for [`SystemConfig`]: see [`SystemConfig::builder`].
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Replace the starting configuration (default: Table I).
    pub fn base(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Number of CPU cores.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.cores = n;
        self
    }

    /// Swap the memory technology: canonical [`DramConfig`] timing for
    /// `tech` plus its channel count ([`MemTech::default_channels`]),
    /// refresh off.
    pub fn tech(mut self, tech: MemTech) -> Self {
        self.cfg.channels = tech.default_channels();
        self.cfg.dram = DramConfig::for_tech(tech);
        self
    }

    /// Enable refresh at the current technology's canonical interval, or
    /// disable it.
    pub fn refresh(mut self, on: bool) -> Self {
        if on {
            self.cfg.dram = self.cfg.dram.with_refresh();
        } else {
            self.cfg.dram.t_refi = 0;
        }
        self
    }

    /// Install a fault-injection plan.
    pub fn fault(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.cfg.fault = plan;
        self
    }

    /// Finish building.
    pub fn build(self) -> SystemConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = SystemConfig::table1();
        assert_eq!(c.cores, 8);
        assert_eq!(c.l1.size_bytes, 64 * 1024);
        assert_eq!(c.llc.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.channels, 2);
        assert!(c.l1.prefetch_degree > 0 && c.llc.prefetch_degree > 0);
    }

    #[test]
    fn cache_geometry() {
        let c = SystemConfig::table1();
        assert_eq!(c.l1.sets(), 128); // 64KB / 64B / 8 ways
        assert_eq!(c.llc.sets(), 2048); // 2MB / 64B / 16 ways
    }

    #[test]
    fn bandwidth_is_plausible() {
        let c = SystemConfig::table1();
        // 2 channels * 64B / 13cy * 4GHz ≈ 39 GB/s
        let bw_gbs = c.peak_bw_bytes_per_cycle() * 4.0;
        assert!(bw_gbs > 30.0 && bw_gbs < 50.0, "bw {bw_gbs}");
    }

    #[test]
    fn configs_are_serializable() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<SystemConfig>();
        assert_serde::<DramConfig>();
        assert_serde::<CoreConfig>();
        assert_serde::<MemTech>();
    }

    #[test]
    fn builder_swaps_timing_and_channels() {
        let c = SystemConfig::builder().tech(MemTech::Ddr5).build();
        assert_eq!(c.dram.tech, MemTech::Ddr5);
        assert_eq!(c.channels, 4);
        assert!(c.dram.bank_groups > 1 && c.dram.t_ccd_l > c.dram.t_burst);
        let h = SystemConfig::builder().tech(MemTech::Hbm2).build();
        assert_eq!(h.channels, 8);
        assert!(h.dram.pseudo_channels > 1);
        // Round-tripping back to DDR4 restores the baseline machine.
        let back = SystemConfig::builder().base(h).tech(MemTech::Ddr4).build();
        assert_eq!(back.dram, DramConfig::for_tech(MemTech::Ddr4));
        assert_eq!(back.channels, 2);
    }

    #[test]
    fn builder_sets_cores_and_fault() {
        let c = SystemConfig::builder()
            .cores(2)
            .fault(crate::fault::FaultPlan::mild(7))
            .build();
        assert_eq!(c.cores, 2);
        assert!(!c.fault.is_empty());
    }

    #[test]
    fn peak_bandwidth_orders_technologies() {
        let bw = |t: MemTech| {
            SystemConfig::builder().tech(t).build().peak_bw_bytes_per_cycle()
        };
        let (d4, d5, hbm) = (bw(MemTech::Ddr4), bw(MemTech::Ddr5), bw(MemTech::Hbm2));
        assert!(d4 < d5 && d5 < hbm, "bw ordering: {d4} {d5} {hbm}");
    }
}
