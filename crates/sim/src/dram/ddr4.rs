//! DDR4-style channel: one shared 64-bit data bus, `banks` banks with
//! open-row registers, optional all-bank refresh.
//!
//! Accesses are classified as row hits (tCL), row misses/empty (tRCD +
//! tCL) or row conflicts (tRP + tRCD + tCL), and every access occupies the
//! shared per-channel data bus for `tBURST` cycles — the per-channel
//! bandwidth cap. Bank-level parallelism lets latencies overlap across
//! banks, which is what gives memcpy its memory-level parallelism until
//! the ROB fills (§II-A).
//!
//! With `t_refi > 0`, an all-bank refresh window of `t_rfc` cycles opens
//! every `t_refi` cycles: every row is closed (refresh implies precharge)
//! and every bank and the data bus are blocked until the window ends.
//! Commands already in flight when a window opens are allowed to complete
//! (the controller holds off *new* commands, as real controllers do around
//! a REF).

use super::{DramModel, RefreshTimer, RowOutcome};
use crate::addr::{PhysAddr, CACHELINE};
use crate::config::DramConfig;
use crate::Cycle;
use std::cell::Cell;

#[derive(Debug, Clone)]
pub(crate) struct Bank {
    pub(crate) open_row: Option<u64>,
    /// Earliest cycle the bank can accept its next column command
    /// (CAS-to-CAS spacing; activations/precharges fold in as delays).
    pub(crate) next_cas: Cycle,
}

/// One DDR4 channel.
#[derive(Debug, Clone)]
pub struct Ddr4Channel {
    cfg: DramConfig,
    channels: usize,
    banks: Vec<Bank>,
    bus_free: Cycle,
    refresh: RefreshTimer,
    /// Memoised `next_ready` (min over per-bank `next_cas` and the bus):
    /// bank state only changes in `access`/`sync`, which clear this.
    ready_cache: Cell<Option<Cycle>>,
}

impl Ddr4Channel {
    /// Create a channel; `channels` is the system-wide channel count (for
    /// address mapping).
    pub fn new(cfg: DramConfig, channels: usize) -> Ddr4Channel {
        let banks = vec![Bank { open_row: None, next_cas: 0 }; cfg.banks];
        let refresh = RefreshTimer::new(cfg.t_refi, cfg.t_rfc);
        Ddr4Channel { cfg, channels, banks, bus_free: 0, refresh, ready_cache: Cell::new(None) }
    }

    pub(crate) fn bank_row(&self, addr: PhysAddr) -> (usize, u64) {
        let local_line = addr.line().0 / self.channels as u64;
        let lines_per_row = self.cfg.row_bytes / CACHELINE;
        let bank = ((local_line / lines_per_row) % self.cfg.banks as u64) as usize;
        let row = local_line / lines_per_row / self.cfg.banks as u64;
        (bank, row)
    }

    /// `(bank_ready, is_row_hit)` with one address decode.
    #[inline]
    pub(crate) fn probe(&self, now: Cycle, addr: PhysAddr) -> (bool, bool) {
        let (bank, row) = self.bank_row(addr);
        let b = &self.banks[bank];
        (b.next_cas <= now, b.open_row == Some(row))
    }

    /// First cycle at which the addressed bank is ready: the inverse of
    /// `probe(..).0`.
    pub(crate) fn bank_ready_at(&self, addr: PhysAddr) -> Cycle {
        self.banks[self.bank_row(addr).0].next_cas
    }

    /// First cycle at which [`DramModel::bus_ready`] holds.
    pub(crate) fn bus_ready_at(&self) -> Cycle {
        self.bus_free.saturating_sub(self.cfg.t_cl)
    }

    pub(crate) fn refresh_next(&self) -> Cycle {
        self.refresh.next_due()
    }
}

impl DramModel for Ddr4Channel {
    fn sync(&mut self, now: Cycle) {
        while let Some(end) = self.refresh.pop_due(now) {
            for b in &mut self.banks {
                b.open_row = None;
                b.next_cas = b.next_cas.max(end);
            }
            self.bus_free = self.bus_free.max(end);
            self.ready_cache.set(None);
        }
    }

    fn is_row_hit(&self, addr: PhysAddr) -> bool {
        let (bank, row) = self.bank_row(addr);
        self.banks[bank].open_row == Some(row)
    }

    fn bank_ready(&self, now: Cycle, addr: PhysAddr) -> bool {
        let (bank, _) = self.bank_row(addr);
        self.banks[bank].next_cas <= now
    }

    fn bus_ready(&self, now: Cycle) -> bool {
        self.bus_free <= now + self.cfg.t_cl
    }

    fn access(&mut self, now: Cycle, addr: PhysAddr) -> (Cycle, RowOutcome) {
        self.sync(now);
        let (bank_idx, row) = self.bank_row(addr);
        let bank = &mut self.banks[bank_idx];
        let earliest = now.max(bank.next_cas);
        let (outcome, cas) = match bank.open_row {
            Some(r) if r == row => (RowOutcome::Hit, earliest),
            Some(_) => (RowOutcome::Conflict, earliest + self.cfg.t_rp + self.cfg.t_rcd),
            None => (RowOutcome::Empty, earliest + self.cfg.t_rcd),
        };
        bank.open_row = Some(row);
        // Data appears tCL after the column command and must find the
        // shared data bus free; bursts to the same open row pipeline at
        // tBURST (CAS-to-CAS) spacing.
        let data_start = (cas + self.cfg.t_cl).max(self.bus_free);
        let done = data_start + self.cfg.t_burst;
        bank.next_cas = cas + self.cfg.t_burst;
        self.bus_free = done;
        self.ready_cache.set(None);
        (done, outcome)
    }

    fn next_ready(&self) -> Cycle {
        if let Some(v) = self.ready_cache.get() {
            return v;
        }
        let v = self.banks.iter().map(|b| b.next_cas).min().unwrap_or(0).min(self.bus_free);
        self.ready_cache.set(Some(v));
        v
    }

    fn refreshes(&self) -> u64 {
        self.refresh.count()
    }

    fn bank_of(&self, addr: PhysAddr) -> usize {
        self.bank_row(addr).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
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

    #[test]
    fn first_access_is_row_empty() {
        let mut d = Ddr4Channel::new(cfg(), 1);
        let (done, out) = d.access(0, PhysAddr(0));
        assert_eq!(out, RowOutcome::Empty);
        assert_eq!(done, 10 + 10 + 2); // tRCD + tCL + tBURST
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut d = Ddr4Channel::new(cfg(), 1);
        let (done1, _) = d.access(0, PhysAddr(0));
        assert!(d.is_row_hit(PhysAddr(64)));
        let (done2, out) = d.access(done1, PhysAddr(64));
        assert_eq!(out, RowOutcome::Hit);
        assert_eq!(done2, done1 + 10 + 2); // tCL + tBURST
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut d = Ddr4Channel::new(cfg(), 1);
        let (done1, _) = d.access(0, PhysAddr(0));
        // Same bank, next row: row_bytes*banks past addr 0.
        let other = PhysAddr(1024 * 4);
        let (_, out) = d.access(done1, other);
        assert_eq!(out, RowOutcome::Conflict);
    }

    #[test]
    fn banks_overlap_but_bus_serialises_bursts() {
        let mut d = Ddr4Channel::new(cfg(), 1);
        // Two accesses to different banks issued at the same time: their
        // array latencies overlap, the bursts serialise on the data bus.
        let a = PhysAddr(0);
        let b = PhysAddr(1024); // next bank
        let (done_a, _) = d.access(0, a);
        let (done_b, _) = d.access(0, b);
        assert_eq!(done_a, 22);
        assert_eq!(done_b, 24); // burst queued right behind
    }

    #[test]
    fn sequential_lines_stay_in_row_across_two_channels() {
        let d = Ddr4Channel::new(cfg(), 2);
        // lines 0,2,4.. live on channel 0; all map to row 0 bank 0 until
        // 1024 bytes of local lines are consumed.
        let (b0, r0) = d.bank_row(PhysAddr(0));
        let (b1, r1) = d.bank_row(PhysAddr(128));
        assert_eq!((b0, r0), (b1, r1));
    }

    #[test]
    fn bus_throughput_caps_bandwidth() {
        let mut d = Ddr4Channel::new(cfg(), 1);
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
        let mut d = Ddr4Channel::new(DramConfig { t_refi: 100, t_rfc: 40, ..cfg() }, 1);
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
    fn refresh_disabled_matches_original_timing() {
        // t_refi = 0 (the default): sync is a no-op at any time.
        let mut a = Ddr4Channel::new(cfg(), 1);
        let mut b = Ddr4Channel::new(cfg(), 1);
        b.sync(1_000_000);
        let (da, _) = a.access(1_000_000, PhysAddr(0));
        let (db, _) = b.access(1_000_000, PhysAddr(0));
        assert_eq!(da, db);
        assert_eq!(b.refreshes(), 0);
    }
}
