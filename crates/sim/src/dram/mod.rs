//! The DRAM channel model.
//!
//! Each memory controller fronts one *channel*. A channel is
//! `pseudo_channels` independent data buses, each fronting `bank_groups`
//! bank groups of `banks / bank_groups` banks with open-row registers. The
//! three technologies of [`crate::config::MemTech`] are three geometries of
//! the same model:
//!
//! * DDR4 (the Table I baseline) — 1 bus × 1 group × 16 banks;
//! * DDR5 — 1 bus × 8 groups × 4 banks: consecutive CAS commands to the
//!   *same* group are spaced by `tCCD_L`, different groups only by the
//!   burst (`tCCD_S`);
//! * HBM2 — 2 pseudo-channel buses × 1 group × 16 banks.
//!
//! Accesses are row hits (tCL), row empties (tRCD + tCL) or row conflicts
//! (tRP + tRCD + tCL); every access occupies its bus for `tBURST` cycles,
//! the per-bus bandwidth cap. Bank-level parallelism lets latencies
//! overlap across banks, which is what gives memcpy its memory-level
//! parallelism until the ROB fills (§II-A).
//!
//! Address mapping: the cacheline index is striped across channels
//! ([`channel_of`]), then across pseudo-channels, then across bank groups;
//! the remaining channel-local lines fill a row, and rows stripe across the
//! banks of a group. Sequential buffers therefore alternate buses and
//! groups and enjoy high row-buffer locality, as on real hardware. Every
//! geometry count must be a power of two so that the decode is shifts and
//! masks; [`build`] rejects anything else.
//!
//! Refresh is modelled lazily: every `tREFI` cycles an all-bank refresh
//! window of `tRFC` cycles opens, closing every row and blocking every bank
//! and bus of the channel. Windows are applied by [`DramBackend::sync`],
//! which the controller calls once per tick before the read-only readiness
//! checks; `tREFI = 0` disables refresh entirely (the behaviour-preserving
//! default). Commands already in flight when a window opens complete.

use crate::addr::{PhysAddr, CACHELINE};
use crate::config::DramConfig;
use crate::Cycle;
use std::cell::Cell;

/// Which channel (memory controller) services a given line, with `channels`
/// total channels.
pub fn channel_of(addr: PhysAddr, channels: usize) -> usize {
    (addr.line() % channels as u64) as usize
}

/// Outcome of a DRAM access with respect to the row buffer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RowOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank was idle (no open row).
    Empty,
    /// Another row was open and had to be precharged.
    Conflict,
}

#[derive(Debug, Clone)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank can accept its next column command
    /// (CAS-to-CAS spacing; activations/precharges fold in as delays).
    next_cas: Cycle,
}

/// One independent data bus: the channel's only bus, or one
/// pseudo-channel's.
#[derive(Debug, Clone)]
struct Bus {
    /// Cycle at which the last booked burst has been transferred.
    free: Cycle,
    /// Last column command on this bus: (cycle, bank group). Consulted
    /// only with bank groups.
    last_cas: Option<(Cycle, usize)>,
}

/// Where an address lives inside the channel.
struct Loc {
    bus: usize,
    group: usize,
    /// Flat bank index: `(bus · groups + group) · banks_per_group + bank`.
    bank: usize,
    row: u64,
}

/// log2 of the geometry counts (see the module docs for the decode order).
#[derive(Debug, Clone)]
struct Shifts {
    channels: u32,
    pseudo_channels: u32,
    groups: u32,
    lines_per_row: u32,
    banks_per_group: u32,
}

/// Build the channel `cfg` describes; `channels` is the system-wide channel
/// count (for address mapping).
///
/// # Panics
///
/// If `channels`, `cfg.pseudo_channels`, `cfg.bank_groups`,
/// `cfg.banks / cfg.bank_groups` or `cfg.row_bytes` is not a power of two,
/// if `cfg.banks` does not divide into `cfg.bank_groups`, or if a row is
/// smaller than a cacheline.
pub fn build(cfg: &DramConfig, channels: usize) -> DramBackend {
    fn log2(n: u64, what: &str) -> u32 {
        assert!(n.is_power_of_two(), "DRAM geometry: {what} must be a power of two, got {n}");
        n.trailing_zeros()
    }
    assert!(
        cfg.bank_groups >= 1 && cfg.banks.is_multiple_of(cfg.bank_groups),
        "DRAM geometry: banks ({}) must divide evenly into bank_groups ({})",
        cfg.banks,
        cfg.bank_groups
    );
    assert!(
        cfg.row_bytes >= CACHELINE,
        "DRAM geometry: row_bytes ({}) must hold at least one cacheline",
        cfg.row_bytes
    );
    let shifts = Shifts {
        channels: log2(channels as u64, "channels"),
        pseudo_channels: log2(cfg.pseudo_channels as u64, "pseudo_channels"),
        groups: log2(cfg.bank_groups as u64, "bank_groups"),
        lines_per_row: log2(cfg.row_bytes, "row_bytes") - CACHELINE.trailing_zeros(),
        banks_per_group: log2((cfg.banks / cfg.bank_groups) as u64, "banks per bank group"),
    };
    let grouped = cfg.bank_groups > 1;
    DramBackend {
        banks: vec![Bank { open_row: None, next_cas: 0 }; cfg.pseudo_channels * cfg.banks],
        buses: vec![Bus { free: 0, last_cas: None }; cfg.pseudo_channels],
        bank_gap: if grouped { cfg.t_ccd_l.max(cfg.t_burst) } else { cfg.t_burst },
        grouped,
        refresh: RefreshTimer::new(cfg.t_refi, cfg.t_rfc),
        ready_cache: Cell::new(None),
        shifts,
        cfg: cfg.clone(),
    }
}

/// One DRAM channel: the timing contract between a memory controller and
/// its memory (request in → completion cycle out).
///
/// The controller calls [`Self::sync`] once per tick, *before* any of the
/// read-only readiness checks, so that elapsed refresh windows are
/// reflected in bank/bus state; the checks themselves stay `&self` and are
/// safe to call from scheduling closures.
#[derive(Debug, Clone)]
pub struct DramBackend {
    cfg: DramConfig,
    shifts: Shifts,
    /// Indexed by [`Loc::bank`].
    banks: Vec<Bank>,
    /// One per pseudo-channel.
    buses: Vec<Bus>,
    /// Bank groups present: CAS commands on a bus are spaced by tCCD_L
    /// within a group and by the burst across groups.
    grouped: bool,
    /// Spacing from a bank's CAS to its next one.
    bank_gap: Cycle,
    refresh: RefreshTimer,
    /// Memoised `next_ready` (min over per-bank `next_cas` and the buses):
    /// bank state only changes in `access`/`sync`, which clear this.
    ready_cache: Cell<Option<Cycle>>,
}

impl DramBackend {
    #[inline]
    fn locate(&self, addr: PhysAddr) -> Loc {
        let s = &self.shifts;
        let mask = |bits: u32| (1u64 << bits) - 1;
        let local = addr.line() >> s.channels;
        let bus = (local & mask(s.pseudo_channels)) as usize;
        let local = local >> s.pseudo_channels;
        let group = (local & mask(s.groups)) as usize;
        let rows = local >> s.groups >> s.lines_per_row;
        let bank = (rows & mask(s.banks_per_group)) as usize;
        let flat = (((bus << s.groups) | group) << s.banks_per_group) | bank;
        Loc { bus, group, bank: flat, row: rows >> s.banks_per_group }
    }

    /// Apply all state changes implied by time advancing to `now` (refresh
    /// windows that have opened). Idempotent; must be called before the
    /// readiness checks each tick.
    pub fn sync(&mut self, now: Cycle) {
        while let Some(end) = self.refresh.pop_due(now) {
            for b in &mut self.banks {
                b.open_row = None;
                b.next_cas = b.next_cas.max(end);
            }
            for bus in &mut self.buses {
                bus.free = bus.free.max(end);
            }
            self.ready_cache.set(None);
        }
    }

    /// `(bank_ready, is_row_hit)` for `addr` with a single address decode
    /// — the FR-FCFS queue scans need both per candidate.
    #[inline]
    pub fn probe(&self, now: Cycle, addr: PhysAddr) -> (bool, bool) {
        let loc = self.locate(addr);
        let b = &self.banks[loc.bank];
        (b.next_cas <= now, b.open_row == Some(loc.row))
    }

    /// Whether an access to `addr` would hit the open row right now.
    #[inline]
    pub fn is_row_hit(&self, addr: PhysAddr) -> bool {
        self.probe(0, addr).1
    }

    /// Whether the addressed bank can start a new access at `now`.
    #[inline]
    pub fn bank_ready(&self, now: Cycle, addr: PhysAddr) -> bool {
        self.probe(now, addr).0
    }

    /// Whether the controller may issue another column command at `now`:
    /// some bus may be booked up to one CAS latency ahead, so bursts
    /// pipeline behind in-flight accesses instead of serialising with their
    /// array latency. An access aimed at a busier bus queues behind it.
    #[inline]
    pub fn bus_ready(&self, now: Cycle) -> bool {
        self.buses.iter().any(|b| b.free <= now + self.cfg.t_cl)
    }

    /// First cycle at which `probe(now, addr).0` holds, given the current
    /// channel state (its exact inverse: false before, true from then on).
    #[inline]
    pub fn bank_ready_at(&self, addr: PhysAddr) -> Cycle {
        self.banks[self.locate(addr).bank].next_cas
    }

    /// First cycle at which [`Self::bus_ready`] holds, given the current
    /// channel state (its exact inverse).
    #[inline]
    pub fn bus_ready_at(&self) -> Cycle {
        self.buses.iter().map(|b| b.free.saturating_sub(self.cfg.t_cl)).min().unwrap_or(0)
    }

    /// Start an access at `now`. Returns the completion cycle (data fully
    /// transferred) and the row outcome.
    ///
    /// Callers should check [`Self::bank_ready`] and [`Self::bus_ready`]
    /// first; starting anyway simply queues behind the busy resource.
    pub fn access(&mut self, now: Cycle, addr: PhysAddr) -> (Cycle, RowOutcome) {
        self.sync(now);
        let loc = self.locate(addr);
        let t = &self.cfg;
        let bank = &mut self.banks[loc.bank];
        let bus = &mut self.buses[loc.bus];
        let earliest = now.max(bank.next_cas);
        let (outcome, mut cas) = match bank.open_row {
            Some(r) if r == loc.row => (RowOutcome::Hit, earliest),
            Some(_) => (RowOutcome::Conflict, earliest + t.t_rp + t.t_rcd),
            None => (RowOutcome::Empty, earliest + t.t_rcd),
        };
        if self.grouped {
            if let Some((last, group)) = bus.last_cas {
                cas = cas.max(last + if group == loc.group { t.t_ccd_l } else { t.t_burst });
            }
            bus.last_cas = Some((cas, loc.group));
        }
        bank.open_row = Some(loc.row);
        // Data appears tCL after the column command and must find the bus
        // free; bursts to the same open row pipeline at the bank's CAS
        // spacing.
        let done = (cas + t.t_cl).max(bus.free) + t.t_burst;
        bank.next_cas = cas + self.bank_gap;
        bus.free = done;
        self.ready_cache.set(None);
        (done, outcome)
    }

    /// Earliest cycle at which any bank or bus becomes ready (skip-ahead
    /// hint). Never overshoots: the channel may be ready earlier, not later.
    pub fn next_ready(&self) -> Cycle {
        if let Some(v) = self.ready_cache.get() {
            return v;
        }
        let banks = self.banks.iter().map(|b| b.next_cas);
        let v = banks.chain(self.buses.iter().map(|b| b.free)).min().unwrap_or(0);
        self.ready_cache.set(Some(v));
        v
    }

    /// First cycle at which a refresh window opens that [`Self::sync`] has
    /// not yet applied ([`Cycle::MAX`] when refresh is disabled) — wake-up
    /// hint for the event-driven scheduler's cached controller readiness.
    #[inline]
    pub fn refresh_next(&self) -> Cycle {
        self.refresh.next_due()
    }

    /// All-bank refresh windows applied so far (0 when refresh is off).
    pub fn refreshes(&self) -> u64 {
        self.refresh.count()
    }

    /// Index of the independent data bus `addr` is transferred on (its
    /// pseudo-channel). Completions on one bus are spaced at least a burst
    /// apart; different buses overlap freely.
    pub fn bus_of(&self, addr: PhysAddr) -> usize {
        self.locate(addr).bus
    }

    /// Flat index of the bank servicing `addr`, for diagnostics and trace
    /// lanes: `(pseudo_channel · groups + group) · banks_per_group + bank`.
    pub fn bank_of(&self, addr: PhysAddr) -> usize {
        self.locate(addr).bank
    }
}

/// Lazy all-bank refresh bookkeeping: a window of `t_rfc` cycles opens
/// every `t_refi` cycles; `t_refi == 0` disables it.
#[derive(Debug, Clone)]
struct RefreshTimer {
    t_refi: Cycle,
    t_rfc: Cycle,
    /// Start of the next unapplied window.
    next: Cycle,
    /// Windows applied so far.
    count: u64,
}

impl RefreshTimer {
    fn new(t_refi: Cycle, t_rfc: Cycle) -> RefreshTimer {
        RefreshTimer { t_refi, t_rfc, next: t_refi, count: 0 }
    }

    /// Pop the next window that has opened by `now`, returning the cycle
    /// at which it *ends* (all banks blocked until then, all rows closed).
    fn pop_due(&mut self, now: Cycle) -> Option<Cycle> {
        if self.t_refi == 0 || now < self.next {
            return None;
        }
        let end = self.next + self.t_rfc;
        self.next += self.t_refi;
        self.count += 1;
        Some(end)
    }

    /// Cycle at which the next unapplied window opens — the first `now`
    /// for which [`Self::pop_due`] returns a window ([`Cycle::MAX`] when
    /// refresh is disabled). Scheduling hint for the event-driven tick loop.
    fn next_due(&self) -> Cycle {
        if self.t_refi == 0 {
            Cycle::MAX
        } else {
            self.next
        }
    }

    fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemTech;

    /// DDR4 geometry: 1 bus × 1 group × 4 banks, 1 KB rows.
    fn ddr4() -> DramConfig {
        DramConfig {
            banks: 4,
            row_bytes: 1024,
            t_rcd: 10,
            t_rp: 10,
            t_cl: 10,
            t_burst: 2,
            ..DramConfig::default()
        }
    }

    /// DDR5 geometry: 1 bus × 4 groups × 2 banks, tCCD_L = 6.
    fn ddr5() -> DramConfig {
        DramConfig { banks: 8, bank_groups: 4, t_ccd_l: 6, ..ddr4() }
    }

    /// HBM2 geometry: 2 buses × 1 group × 4 banks, 512 B rows.
    fn hbm2() -> DramConfig {
        DramConfig { pseudo_channels: 2, row_bytes: 512, ..ddr4() }
    }

    #[test]
    fn channel_mapping_stripes_lines() {
        assert_eq!(channel_of(PhysAddr(0), 2), 0);
        assert_eq!(channel_of(PhysAddr(64), 2), 1);
        assert_eq!(channel_of(PhysAddr(128), 2), 0);
        assert_eq!(channel_of(PhysAddr(63), 2), 0);
    }

    #[test]
    fn refresh_timer_disabled_never_fires() {
        let mut r = RefreshTimer::new(0, 100);
        assert_eq!(r.pop_due(u64::MAX), None);
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn refresh_timer_yields_windows_in_order() {
        let mut r = RefreshTimer::new(100, 10);
        assert_eq!(r.pop_due(99), None);
        assert_eq!(r.pop_due(100), Some(110));
        assert_eq!(r.pop_due(100), None);
        // Jumping far ahead drains one window per call (catch-up loop).
        assert_eq!(r.pop_due(350), Some(210));
        assert_eq!(r.pop_due(350), Some(310));
        assert_eq!(r.pop_due(350), None);
        assert_eq!(r.count(), 3);
    }

    #[test]
    fn builds_every_canonical_tech() {
        for tech in MemTech::ALL {
            let d = build(&DramConfig::for_tech(tech), tech.default_channels());
            assert_eq!(d.refreshes(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "must be a power of two")]
    fn rejects_non_power_of_two_geometry() {
        build(&DramConfig { banks: 12, ..ddr4() }, 1);
    }

    #[test]
    #[should_panic(expected = "must divide evenly into bank_groups")]
    fn rejects_banks_not_divisible_by_groups() {
        build(&DramConfig { banks: 6, bank_groups: 4, ..ddr4() }, 1);
    }

    // --- DDR4 geometry ----------------------------------------------------

    #[test]
    fn first_access_is_row_empty() {
        let mut d = build(&ddr4(), 1);
        let (done, out) = d.access(0, PhysAddr(0));
        assert_eq!(out, RowOutcome::Empty);
        assert_eq!(done, 10 + 10 + 2); // tRCD + tCL + tBURST
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut d = build(&ddr4(), 1);
        let (done1, _) = d.access(0, PhysAddr(0));
        assert!(d.is_row_hit(PhysAddr(64)));
        let (done2, out) = d.access(done1, PhysAddr(64));
        assert_eq!(out, RowOutcome::Hit);
        assert_eq!(done2, done1 + 10 + 2); // tCL + tBURST
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut d = build(&ddr4(), 1);
        let (done1, _) = d.access(0, PhysAddr(0));
        // Same bank, next row: row_bytes*banks past addr 0.
        let (_, out) = d.access(done1, PhysAddr(1024 * 4));
        assert_eq!(out, RowOutcome::Conflict);
    }

    #[test]
    fn banks_overlap_but_bus_serialises_bursts() {
        let mut d = build(&ddr4(), 1);
        // Two accesses to different banks issued at the same time: their
        // array latencies overlap, the bursts serialise on the data bus.
        let (done_a, _) = d.access(0, PhysAddr(0));
        let (done_b, _) = d.access(0, PhysAddr(1024)); // next bank
        assert_eq!(done_a, 22);
        assert_eq!(done_b, 24); // burst queued right behind
    }

    #[test]
    fn sequential_lines_stay_in_row_across_two_channels() {
        let d = build(&ddr4(), 2);
        // lines 0,2,4.. live on channel 0; all map to row 0 bank 0 until
        // 1024 bytes of local lines are consumed.
        let (a, b) = (d.locate(PhysAddr(0)), d.locate(PhysAddr(128)));
        assert_eq!((a.bank, a.row), (b.bank, b.row));
    }

    #[test]
    fn bus_throughput_caps_bandwidth() {
        let mut d = build(&ddr4(), 1);
        // Saturate with row hits in one row: per-access spacing = tBURST.
        let (mut last, _) = d.access(0, PhysAddr(0));
        for i in 1..8u64 {
            let (done, out) = d.access(0, PhysAddr(i * 64));
            assert_eq!(out, RowOutcome::Hit);
            assert_eq!(done, last + 2);
            last = done;
        }
    }

    #[test]
    fn refresh_closes_rows_and_blocks_the_bank() {
        let mut d = build(&DramConfig { t_refi: 100, t_rfc: 40, ..ddr4() }, 1);
        let (_, out) = d.access(0, PhysAddr(0));
        assert_eq!(out, RowOutcome::Empty);
        assert!(d.is_row_hit(PhysAddr(64)));
        // Cross the tREFI boundary: the open row is gone and the bank is
        // blocked until the window ends at 140.
        d.sync(100);
        assert!(!d.is_row_hit(PhysAddr(64)));
        assert!(!d.bank_ready(100, PhysAddr(64)));
        assert!(d.bank_ready(140, PhysAddr(64)));
        assert_eq!(d.refreshes(), 1);
        // The re-access is a row empty (refresh precharged), not a hit.
        let (done, out) = d.access(140, PhysAddr(64));
        assert_eq!(out, RowOutcome::Empty);
        assert_eq!(done, 140 + 10 + 10 + 2);
    }

    #[test]
    fn without_bank_groups_a_hit_does_not_wait_for_another_banks_cas() {
        let mut d = build(&ddr4(), 1);
        let _ = d.access(0, PhysAddr(0)); // bank 0, row 0
        let _ = d.access(0, PhysAddr(1024)); // bank 1, row 0
        // Bank 0, row 1: CAS at 30 + tRP + tRCD = 50.
        assert_eq!(d.access(30, PhysAddr(4 * 1024)).1, RowOutcome::Conflict);
        // Bank 1 row hit: CAS at 30, not behind the conflict's CAS at 50.
        assert_eq!(d.access(30, PhysAddr(1024 + 64)).1, RowOutcome::Hit);
        assert_eq!(d.bank_ready_at(PhysAddr(1024)), 30 + 2);
    }

    #[test]
    fn refresh_disabled_matches_original_timing() {
        // t_refi = 0 (the default): sync is a no-op at any time.
        let mut a = build(&ddr4(), 1);
        let mut b = build(&ddr4(), 1);
        b.sync(1_000_000);
        let (da, _) = a.access(1_000_000, PhysAddr(0));
        let (db, _) = b.access(1_000_000, PhysAddr(0));
        assert_eq!(da, db);
        assert_eq!(b.refreshes(), 0);
    }

    // --- DDR5 geometry: bank groups ---------------------------------------

    #[test]
    fn consecutive_lines_alternate_groups_and_pay_only_the_burst() {
        let mut d = build(&ddr5(), 1);
        // Line 0 → group 0, line 1 → group 1: spacing = tBURST, exactly
        // like two DDR4 banks.
        let (done0, _) = d.access(0, PhysAddr(0));
        let (done1, _) = d.access(0, PhysAddr(64));
        assert_eq!(done0, 22);
        assert_eq!(done1, 24);
    }

    #[test]
    fn same_group_back_to_back_pays_tccd_l() {
        let mut d = build(&ddr5(), 1);
        // Lines 0 and 4 both map to group 0 (4 groups), same bank and row.
        let (done0, _) = d.access(0, PhysAddr(0));
        let (done4, out) = d.access(0, PhysAddr(4 * 64));
        assert_eq!(done0, 22);
        assert_eq!(out, RowOutcome::Hit);
        // CAS slips from 10 to 10 + tCCD_L = 16; data at max(26, 22) = 26.
        assert_eq!(done4, 28);
    }

    #[test]
    fn a_stream_reopens_rows_in_every_group_then_hits() {
        let mut d = build(&ddr5(), 1);
        let mut now = 0;
        let mut outcomes = Vec::new();
        for i in 0..8u64 {
            let (done, out) = d.access(now, PhysAddr(i * 64));
            outcomes.push(out);
            now = done;
        }
        // First touch of each of the 4 groups activates; the second pass
        // over the groups row-hits.
        assert!(outcomes[..4].iter().all(|o| *o == RowOutcome::Empty));
        assert!(outcomes[4..].iter().all(|o| *o == RowOutcome::Hit));
    }

    #[test]
    fn refresh_applies_to_all_groups() {
        let mut d = build(&DramConfig { t_refi: 50, t_rfc: 20, ..ddr5() }, 1);
        let _ = d.access(0, PhysAddr(0));
        d.sync(50);
        assert_eq!(d.refreshes(), 1);
        assert!(!d.is_row_hit(PhysAddr(0)));
        assert!(!d.bank_ready(50, PhysAddr(0)));
        assert!(d.bank_ready(70, PhysAddr(0)));
    }

    // --- HBM2 geometry: pseudo-channels -----------------------------------

    #[test]
    fn lines_stripe_across_pseudo_channels() {
        let d = build(&hbm2(), 1);
        assert_eq!(d.bus_of(PhysAddr(0)), 0);
        assert_eq!(d.bus_of(PhysAddr(64)), 1);
        assert_eq!(d.bus_of(PhysAddr(128)), 0);
    }

    #[test]
    fn pseudo_channel_buses_overlap_completely() {
        let mut d = build(&hbm2(), 1);
        // Two lines on different pseudo-channels issued together: both
        // complete at tRCD + tCL + tBURST — no shared-bus serialisation.
        let (done0, o0) = d.access(0, PhysAddr(0));
        let (done1, o1) = d.access(0, PhysAddr(64));
        assert_eq!(o0, RowOutcome::Empty);
        assert_eq!(o1, RowOutcome::Empty);
        assert_eq!(done0, 22);
        assert_eq!(done1, 22);
    }

    #[test]
    fn within_one_pseudo_channel_the_bus_serialises() {
        let mut d = build(&hbm2(), 1);
        // Lines 0 and 2 are both on pseudo-channel 0, same row.
        let (done0, _) = d.access(0, PhysAddr(0));
        let (done2, out) = d.access(0, PhysAddr(128));
        assert_eq!(out, RowOutcome::Hit);
        assert_eq!(done0, 22);
        assert_eq!(done2, 24);
    }

    #[test]
    fn small_rows_conflict_sooner() {
        let mut d = build(&hbm2(), 1);
        // Pseudo-channel 0, bank 0 holds rows of 512 B = 8 lines; with 2
        // pseudo-channels and 4 banks, the same bank's next row starts
        // 2*8*4 = 64 lines later.
        let (done, _) = d.access(0, PhysAddr(0));
        let (_, out) = d.access(done, PhysAddr(64 * 64));
        assert_eq!(out, RowOutcome::Conflict);
    }

    #[test]
    fn refresh_blocks_every_pseudo_channel() {
        let mut d = build(&DramConfig { t_refi: 50, t_rfc: 20, ..hbm2() }, 1);
        let _ = d.access(0, PhysAddr(0));
        let _ = d.access(0, PhysAddr(64));
        d.sync(50);
        assert_eq!(d.refreshes(), 1);
        assert!(!d.bank_ready(50, PhysAddr(0)));
        assert!(!d.bank_ready(50, PhysAddr(64)));
        assert!(d.bank_ready(70, PhysAddr(0)));
    }
}
