//! Composable memory-backend subsystem.
//!
//! Each memory controller fronts one *channel* of some memory technology.
//! The controller's FR-FCFS scheduler only needs a small contract from the
//! technology model — row-hit prediction, bank/bus readiness, and an
//! `access` that books the resources and returns the completion cycle —
//! captured by the [`DramModel`] trait. Three backends implement it:
//!
//! * [`ddr4::Ddr4Channel`] — the Table I baseline: one 64-bit bus, banks
//!   with open-row registers, optional tREFI/tRFC all-bank refresh;
//! * [`ddr5::Ddr5Channel`] — DDR4 plus bank groups: consecutive CAS
//!   commands to the *same* group must be spaced by `tCCD_L`, different
//!   groups only by `tCCD_S` (= the burst), and rows are smaller;
//! * [`hbm::HbmChannel`] — an HBM2-style channel split into independent
//!   pseudo-channels, each with its own narrow bus and bank array.
//!
//! Which backend a [`DramConfig`] describes is selected by
//! [`crate::config::MemTech`]; [`build`] is the factory the system wiring
//! uses. Address mapping (line-interleaved channels) is shared: the
//! cacheline index is first striped across channels, then within a channel
//! consecutive lines fill a row, rows stripe across banks. Sequential
//! buffers therefore enjoy high row-buffer locality, as on real hardware.
//!
//! Refresh is modelled lazily: every `tREFI` cycles an all-bank refresh
//! window of `tRFC` cycles opens, closing every row and blocking every
//! bank and bus of the channel. Windows are applied by [`DramModel::sync`],
//! which the controller calls once per tick before the read-only readiness
//! checks; `tREFI = 0` disables refresh entirely (the behaviour-preserving
//! default).

pub mod ddr4;
pub mod ddr5;
pub mod hbm;

pub use ddr4::Ddr4Channel;
pub use ddr5::Ddr5Channel;
pub use hbm::HbmChannel;

use crate::addr::PhysAddr;
use crate::config::{DramConfig, MemTech};
use crate::Cycle;

/// Which channel (memory controller) services a given line, with `channels`
/// total channels.
pub fn channel_of(addr: PhysAddr, channels: usize) -> usize {
    (addr.line().0 % channels as u64) as usize
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

/// Timing contract between a memory controller and one channel of some
/// memory technology (request in → completion cycle out).
///
/// The controller calls [`DramModel::sync`] once per tick, *before* any of
/// the read-only readiness checks, so that elapsed refresh windows are
/// reflected in bank/bus state; the checks themselves stay `&self` and are
/// safe to call from scheduling closures.
pub trait DramModel: std::fmt::Debug + Send {
    /// Apply all state changes implied by time advancing to `now` (refresh
    /// windows that have opened). Idempotent; must be called before the
    /// readiness checks each tick.
    fn sync(&mut self, now: Cycle);

    /// Whether an access to `addr` would hit the open row right now.
    fn is_row_hit(&self, addr: PhysAddr) -> bool;

    /// Whether the addressed bank can start a new access at `now`.
    fn bank_ready(&self, now: Cycle, addr: PhysAddr) -> bool;

    /// Whether the controller may issue another column command at `now`:
    /// the data bus may be booked up to one CAS latency ahead, so bursts
    /// pipeline behind in-flight accesses instead of serialising with
    /// their array latency.
    fn bus_ready(&self, now: Cycle) -> bool;

    /// Start an access at `now`. Returns the completion cycle (data fully
    /// transferred) and the row outcome.
    ///
    /// Callers should check [`Self::bank_ready`] and [`Self::bus_ready`]
    /// first; starting anyway simply queues behind the busy resource.
    fn access(&mut self, now: Cycle, addr: PhysAddr) -> (Cycle, RowOutcome);

    /// Earliest cycle at which any bank becomes ready (skip-ahead hint).
    /// Must never overshoot: the channel may be ready earlier, not later.
    fn next_ready(&self) -> Cycle;

    /// All-bank refresh windows applied so far (0 when refresh is off).
    fn refreshes(&self) -> u64;

    /// Index of the independent data bus `addr` is transferred on (always
    /// 0 except for pseudo-channelled backends). Completions on one bus
    /// are spaced at least a burst apart; different buses overlap freely.
    fn bus_of(&self, _addr: PhysAddr) -> usize {
        0
    }

    /// Index of the bank servicing `addr`, for diagnostics and trace
    /// lanes (pseudo-channelled backends flatten: pc * banks + bank).
    /// Purely informational; scheduling goes through the readiness checks.
    fn bank_of(&self, _addr: PhysAddr) -> usize {
        0
    }
}

/// Build the backend selected by `cfg.tech`; `channels` is the system-wide
/// channel count (for address mapping).
pub fn build(cfg: &DramConfig, channels: usize) -> DramBackend {
    match cfg.tech {
        MemTech::Ddr4 => DramBackend::Ddr4(Ddr4Channel::new(cfg.clone(), channels)),
        MemTech::Ddr5 => DramBackend::Ddr5(Ddr5Channel::new(cfg.clone(), channels)),
        MemTech::Hbm2 => DramBackend::Hbm2(HbmChannel::new(cfg.clone(), channels)),
    }
}

/// Enum-dispatched channel backend: one variant per [`MemTech`].
///
/// The memory controller holds this instead of a `Box<dyn DramModel>` so
/// the per-cycle timing checks (`bank_ready`, `is_row_hit`, `bus_ready`)
/// that the FR-FCFS scheduler calls in a loop over its pending queues
/// compile to direct, inlinable calls. The trait is still implemented on
/// the enum, so code written against `DramModel` keeps working.
#[derive(Debug, Clone)]
pub enum DramBackend {
    Ddr4(Ddr4Channel),
    Ddr5(Ddr5Channel),
    Hbm2(HbmChannel),
}

macro_rules! each_backend {
    ($self:expr, $d:ident => $body:expr) => {
        match $self {
            DramBackend::Ddr4($d) => $body,
            DramBackend::Ddr5($d) => $body,
            DramBackend::Hbm2($d) => $body,
        }
    };
}

impl DramBackend {
    #[inline]
    pub fn sync(&mut self, now: Cycle) {
        each_backend!(self, d => d.sync(now));
    }

    #[inline]
    pub fn is_row_hit(&self, addr: PhysAddr) -> bool {
        each_backend!(self, d => d.is_row_hit(addr))
    }

    #[inline]
    pub fn bank_ready(&self, now: Cycle, addr: PhysAddr) -> bool {
        each_backend!(self, d => d.bank_ready(now, addr))
    }

    /// `(bank_ready, is_row_hit)` for `addr` with a single address decode
    /// — the FR-FCFS queue scans need both per candidate, and the decode
    /// (two divisions) dominates the check itself.
    #[inline]
    pub fn probe(&self, now: Cycle, addr: PhysAddr) -> (bool, bool) {
        each_backend!(self, d => d.probe(now, addr))
    }

    #[inline]
    pub fn bus_ready(&self, now: Cycle) -> bool {
        each_backend!(self, d => d.bus_ready(now))
    }

    /// First cycle at which `probe(now, addr).0` holds, given the current
    /// channel state (its exact inverse: false before, true from then on).
    #[inline]
    pub fn bank_ready_at(&self, addr: PhysAddr) -> Cycle {
        each_backend!(self, d => d.bank_ready_at(addr))
    }

    /// First cycle at which [`Self::bus_ready`] holds, given the current
    /// channel state (its exact inverse).
    #[inline]
    pub fn bus_ready_at(&self) -> Cycle {
        each_backend!(self, d => d.bus_ready_at())
    }

    #[inline]
    pub fn access(&mut self, now: Cycle, addr: PhysAddr) -> (Cycle, RowOutcome) {
        each_backend!(self, d => d.access(now, addr))
    }

    #[inline]
    pub fn next_ready(&self) -> Cycle {
        each_backend!(self, d => DramModel::next_ready(d))
    }

    #[inline]
    pub fn refreshes(&self) -> u64 {
        each_backend!(self, d => d.refreshes())
    }

    #[inline]
    pub fn bus_of(&self, addr: PhysAddr) -> usize {
        each_backend!(self, d => d.bus_of(addr))
    }

    #[inline]
    pub fn bank_of(&self, addr: PhysAddr) -> usize {
        each_backend!(self, d => d.bank_of(addr))
    }

    /// First cycle at which a refresh window opens that [`Self::sync`] has
    /// not yet applied ([`Cycle::MAX`] when refresh is disabled) — wake-up
    /// hint for the event-driven scheduler's cached controller readiness.
    #[inline]
    pub fn refresh_next(&self) -> Cycle {
        each_backend!(self, d => d.refresh_next())
    }
}

impl DramModel for DramBackend {
    fn sync(&mut self, now: Cycle) {
        DramBackend::sync(self, now);
    }
    fn is_row_hit(&self, addr: PhysAddr) -> bool {
        DramBackend::is_row_hit(self, addr)
    }
    fn bank_ready(&self, now: Cycle, addr: PhysAddr) -> bool {
        DramBackend::bank_ready(self, now, addr)
    }
    fn bus_ready(&self, now: Cycle) -> bool {
        DramBackend::bus_ready(self, now)
    }
    fn access(&mut self, now: Cycle, addr: PhysAddr) -> (Cycle, RowOutcome) {
        DramBackend::access(self, now, addr)
    }
    fn next_ready(&self) -> Cycle {
        DramBackend::next_ready(self)
    }
    fn refreshes(&self) -> u64 {
        DramBackend::refreshes(self)
    }
    fn bus_of(&self, addr: PhysAddr) -> usize {
        DramBackend::bus_of(self, addr)
    }
    fn bank_of(&self, addr: PhysAddr) -> usize {
        DramBackend::bank_of(self, addr)
    }
}

impl From<Ddr4Channel> for DramBackend {
    fn from(d: Ddr4Channel) -> DramBackend {
        DramBackend::Ddr4(d)
    }
}

impl From<Ddr5Channel> for DramBackend {
    fn from(d: Ddr5Channel) -> DramBackend {
        DramBackend::Ddr5(d)
    }
}

impl From<HbmChannel> for DramBackend {
    fn from(d: HbmChannel) -> DramBackend {
        DramBackend::Hbm2(d)
    }
}

/// Lazy all-bank refresh bookkeeping shared by the backends: a window of
/// `t_rfc` cycles opens every `t_refi` cycles; `t_refi == 0` disables it.
#[derive(Debug, Clone)]
pub(crate) struct RefreshTimer {
    t_refi: Cycle,
    t_rfc: Cycle,
    /// Start of the next unapplied window.
    next: Cycle,
    /// Windows applied so far.
    count: u64,
}

impl RefreshTimer {
    pub(crate) fn new(t_refi: Cycle, t_rfc: Cycle) -> RefreshTimer {
        RefreshTimer { t_refi, t_rfc, next: t_refi, count: 0 }
    }

    /// Pop the next window that has opened by `now`, returning the cycle
    /// at which it *ends* (all banks blocked until then, all rows closed).
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<Cycle> {
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
    pub(crate) fn next_due(&self) -> Cycle {
        if self.t_refi == 0 {
            Cycle::MAX
        } else {
            self.next
        }
    }

    pub(crate) fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn factory_builds_each_tech() {
        for tech in MemTech::ALL {
            let cfg = DramConfig { tech, ..DramConfig::default() };
            let d = build(&cfg, 2);
            assert_eq!(d.refreshes(), 0);
        }
    }
}
