//! Property-based timing checks for the DRAM channel.
//!
//! For random request streams against the channel [`dram::build`] makes
//! from each technology's geometry (DDR4, DDR5 bank groups, HBM2
//! pseudo-channels):
//!
//! * **causality** — the completion cycle is strictly after the request
//!   cycle (data cannot arrive before it was asked for);
//! * **bus exclusivity** — the data bus is never double-booked:
//!   completions on the same bus (same pseudo-channel, for HBM) are
//!   spaced at least `tBURST` apart;
//! * **monotonicity** — issuing the same request *later* from the same
//!   channel state never yields an *earlier* completion;
//! * **exact ready times** — `bank_ready_at` and `bus_ready_at`, the wake
//!   times the event-driven scheduler sleeps a controller until, are the
//!   first cycles at which `probe(..).0` and `bus_ready` hold.

use mcs_sim::addr::PhysAddr;
use mcs_sim::config::{DramConfig, MemTech};
use mcs_sim::dram::{self, DramBackend};
use proptest::prelude::*;

/// A request stream: (cycles since previous request, line index).
fn stream_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..200, 0u64..512), 1..40)
}

fn ddr4_cfg() -> DramConfig {
    DramConfig {
        banks: 4,
        row_bytes: 1024,
        t_rcd: 10,
        t_rp: 10,
        t_cl: 10,
        t_burst: 4,
        t_refi: 700,
        t_rfc: 50,
        ..DramConfig::for_tech(MemTech::Ddr4)
    }
}

fn ddr5_cfg() -> DramConfig {
    DramConfig {
        banks: 8,
        bank_groups: 4,
        row_bytes: 1024,
        t_rcd: 10,
        t_rp: 10,
        t_cl: 10,
        t_burst: 4,
        t_ccd_l: 9,
        t_refi: 700,
        t_rfc: 50,
        ..DramConfig::for_tech(MemTech::Ddr5)
    }
}

fn hbm_cfg() -> DramConfig {
    DramConfig {
        banks: 4,
        pseudo_channels: 2,
        row_bytes: 512,
        t_rcd: 10,
        t_rp: 10,
        t_cl: 10,
        t_burst: 4,
        t_refi: 700,
        t_rfc: 50,
        ..DramConfig::for_tech(MemTech::Hbm2)
    }
}

/// The three geometries under test, each with a 4-cycle burst.
fn configs() -> [DramConfig; 3] {
    [ddr4_cfg(), ddr5_cfg(), hbm_cfg()]
}

/// The burst every config above uses.
const T_BURST: u64 = 4;

/// A channel built from `cfg` on a two-channel system.
fn channel(cfg: &DramConfig) -> DramBackend {
    dram::build(cfg, 2)
}

/// Drive `stream` through a fresh channel, checking causality and bus
/// exclusivity along the way.
fn check_stream(mut dram: DramBackend, stream: &[(u64, u64)]) -> Result<(), TestCaseError> {
    let mut now = 0u64;
    // Per-bus completion times, for the exclusivity check.
    let mut completions: Vec<(usize, u64)> = Vec::new();
    for &(gap, line) in stream {
        now += gap;
        let addr = PhysAddr(line * 64);
        dram.sync(now);
        let (done, _) = dram.access(now, addr);
        prop_assert!(done > now, "completion {done} not after request cycle {now}");
        completions.push((dram.bus_of(addr), done));
    }
    let buses = completions.iter().map(|c| c.0).max().unwrap_or(0) + 1;
    for bus in 0..buses {
        let mut on_bus: Vec<u64> =
            completions.iter().filter(|c| c.0 == bus).map(|c| c.1).collect();
        on_bus.sort_unstable();
        for w in on_bus.windows(2) {
            prop_assert!(
                w[1] >= w[0] + T_BURST,
                "bus {bus} double-booked: completions at {} and {} closer than tBURST {T_BURST}",
                w[0],
                w[1]
            );
        }
    }
    Ok(())
}

/// After a random warm-up, issuing the same request at `t` vs. `t + delay`
/// (from clones of the same state) must not complete earlier.
fn check_monotonic(
    mut dram: DramBackend,
    warmup: &[(u64, u64)],
    line: u64,
    delay: u64,
) -> Result<(), TestCaseError> {
    let mut now = 0u64;
    for &(gap, l) in warmup {
        now += gap;
        dram.sync(now);
        let _ = dram.access(now, PhysAddr(l * 64));
    }
    let addr = PhysAddr(line * 64);
    let mut early = dram.clone();
    let mut late = dram;
    early.sync(now);
    let (done_early, _) = early.access(now, addr);
    late.sync(now + delay);
    let (done_late, _) = late.access(now + delay, addr);
    prop_assert!(
        done_late >= done_early,
        "issuing at {now}+{delay} completed at {done_late}, earlier than {done_early} at {now}"
    );
    Ok(())
}

/// After a random warm-up, the bank- and bus-ready cycles a channel
/// reports must be exact: each predicate is false at every earlier cycle
/// and true at the reported one.
fn check_ready_at(
    cfg: &DramConfig,
    warmup: &[(u64, u64)],
    line: u64,
) -> Result<(), TestCaseError> {
    let mut dram = channel(cfg);
    let mut now = 0u64;
    for &(gap, l) in warmup {
        now += gap;
        dram.sync(now);
        let _ = dram.access(now, PhysAddr(l * 64));
    }
    let addr = PhysAddr(line * 64);
    let bank_at = dram.bank_ready_at(addr);
    for t in 0..bank_at {
        prop_assert!(!dram.probe(t, addr).0, "bank ready at {t}, before reported {bank_at}");
    }
    prop_assert!(dram.probe(bank_at, addr).0, "bank not ready at reported {bank_at}");
    let bus_at = dram.bus_ready_at();
    for t in 0..bus_at {
        prop_assert!(!dram.bus_ready(t), "bus ready at {t}, before reported {bus_at}");
    }
    prop_assert!(dram.bus_ready(bus_at), "bus not ready at reported {bus_at}");
    Ok(())
}

proptest! {
    #[test]
    fn ddr4_stream_timing(stream in stream_strategy()) {
        check_stream(channel(&ddr4_cfg()), &stream)?;
    }

    #[test]
    fn ddr5_stream_timing(stream in stream_strategy()) {
        check_stream(channel(&ddr5_cfg()), &stream)?;
    }

    #[test]
    fn hbm_stream_timing(stream in stream_strategy()) {
        check_stream(channel(&hbm_cfg()), &stream)?;
    }

    #[test]
    fn ddr4_monotonic(warmup in stream_strategy(), line in 0u64..512, delay in 0u64..500) {
        check_monotonic(channel(&ddr4_cfg()), &warmup, line, delay)?;
    }

    #[test]
    fn ddr5_monotonic(warmup in stream_strategy(), line in 0u64..512, delay in 0u64..500) {
        check_monotonic(channel(&ddr5_cfg()), &warmup, line, delay)?;
    }

    #[test]
    fn hbm_monotonic(warmup in stream_strategy(), line in 0u64..512, delay in 0u64..500) {
        check_monotonic(channel(&hbm_cfg()), &warmup, line, delay)?;
    }

    #[test]
    fn ready_at_is_exact_on_every_backend(warmup in stream_strategy(), line in 0u64..512) {
        for cfg in configs() {
            check_ready_at(&cfg, &warmup, line)?;
        }
    }

    #[test]
    fn refresh_accounting_is_exact(stream in stream_strategy()) {
        // However the stream is paced (including skip-ahead-sized gaps),
        // the number of refresh windows applied equals the number of tREFI
        // boundaries crossed — no window is lost or double-counted.
        for cfg in configs() {
            let t_refi = cfg.t_refi;
            let mut dram = dram::build(&cfg, 1);
            let mut now = 0u64;
            for &(gap, line) in &stream {
                now += gap;
                dram.sync(now);
                let _ = dram.access(now, PhysAddr(line * 64));
            }
            prop_assert_eq!(dram.refreshes(), now / t_refi);
        }
    }
}
