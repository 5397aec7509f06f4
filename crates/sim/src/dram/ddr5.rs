//! DDR5-style sub-channel: a DDR4-like bank array organised into *bank
//! groups*, with same-group vs. different-group CAS spacing.
//!
//! DDR5 doubles the burst length onto a half-width (32-bit) sub-channel,
//! so per-64B bus occupancy matches DDR4 — but back-to-back column
//! commands to banks in the *same* bank group must be spaced by `tCCD_L`
//! (the group's shared I/O circuitry needs time to turn around), while
//! different groups only need `tCCD_S`, which equals the burst and is
//! therefore already enforced by the data bus.
//!
//! Address mapping: real DDR5 controllers place the bank-group bits just
//! above the line offset, so consecutive cachelines alternate bank groups
//! and a sequential stream pays only `tCCD_S`; we do the same (the group
//! is the low bits of the channel-local line index, and each group then
//! fills rows exactly like a DDR4 bank). A pathological stride that stays
//! inside one group degrades to `tCCD_L` spacing, as on hardware. Rows
//! are smaller than DDR4's (the sub-channel fetches half a module row).
//!
//! Refresh follows the same all-bank tREFI/tRFC model as DDR4 (DDR5's
//! finer-grained same-bank refresh is deliberately not modelled; see
//! DESIGN.md).

use super::ddr4::Bank;
use super::{DramModel, RefreshTimer, RowOutcome};
use crate::addr::{PhysAddr, CACHELINE};
use crate::config::DramConfig;
use crate::Cycle;
use std::cell::Cell;

/// One DDR5 sub-channel.
#[derive(Debug, Clone)]
pub struct Ddr5Channel {
    cfg: DramConfig,
    channels: usize,
    banks: Vec<Bank>,
    bus_free: Cycle,
    /// Last column command issued on this channel: (cycle, bank group).
    last_cas: Option<(Cycle, usize)>,
    refresh: RefreshTimer,
    /// Memoised `next_ready`; cleared by `access`/`sync`.
    ready_cache: Cell<Option<Cycle>>,
}

impl Ddr5Channel {
    /// Create a sub-channel; `channels` is the system-wide channel count
    /// (for address mapping).
    pub fn new(cfg: DramConfig, channels: usize) -> Ddr5Channel {
        assert!(cfg.bank_groups >= 1, "DDR5 needs at least one bank group");
        assert!(cfg.banks.is_multiple_of(cfg.bank_groups), "banks must divide into bank groups");
        let banks = vec![Bank { open_row: None, next_cas: 0 }; cfg.banks];
        let refresh = RefreshTimer::new(cfg.t_refi, cfg.t_rfc);
        Ddr5Channel {
            cfg,
            channels,
            banks,
            bus_free: 0,
            last_cas: None,
            refresh,
            ready_cache: Cell::new(None),
        }
    }

    /// (bank index, row, bank group) for `addr`. Consecutive lines stripe
    /// across bank groups; within a group, lines fill rows and rows stripe
    /// across the group's banks, like DDR4.
    fn bank_row(&self, addr: PhysAddr) -> (usize, u64, usize) {
        let local_line = addr.line().0 / self.channels as u64;
        let groups = self.cfg.bank_groups as u64;
        let group = (local_line % groups) as usize;
        let gline = local_line / groups;
        let lines_per_row = self.cfg.row_bytes / CACHELINE;
        let banks_per_group = (self.cfg.banks / self.cfg.bank_groups) as u64;
        let bank_in_group = (gline / lines_per_row) % banks_per_group;
        let row = gline / lines_per_row / banks_per_group;
        let bank = group * banks_per_group as usize + bank_in_group as usize;
        (bank, row, group)
    }

    /// `(bank_ready, is_row_hit)` with one address decode.
    #[inline]
    pub(crate) fn probe(&self, now: Cycle, addr: PhysAddr) -> (bool, bool) {
        let (bank, row, _) = self.bank_row(addr);
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

impl DramModel for Ddr5Channel {
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
        let (bank, row, _) = self.bank_row(addr);
        self.banks[bank].open_row == Some(row)
    }

    fn bank_ready(&self, now: Cycle, addr: PhysAddr) -> bool {
        let (bank, _, _) = self.bank_row(addr);
        self.banks[bank].next_cas <= now
    }

    fn bus_ready(&self, now: Cycle) -> bool {
        self.bus_free <= now + self.cfg.t_cl
    }

    fn access(&mut self, now: Cycle, addr: PhysAddr) -> (Cycle, RowOutcome) {
        self.sync(now);
        let (bank_idx, row, group) = self.bank_row(addr);
        let bank = &mut self.banks[bank_idx];
        let earliest = now.max(bank.next_cas);
        let (outcome, mut cas) = match bank.open_row {
            Some(r) if r == row => (RowOutcome::Hit, earliest),
            Some(_) => (RowOutcome::Conflict, earliest + self.cfg.t_rp + self.cfg.t_rcd),
            None => (RowOutcome::Empty, earliest + self.cfg.t_rcd),
        };
        // CAS-to-CAS spacing: tCCD_L within a bank group, tCCD_S (= the
        // burst, enforced by the bus anyway) across groups.
        if let Some((last, last_group)) = self.last_cas {
            let gap = if last_group == group { self.cfg.t_ccd_l } else { self.cfg.t_burst };
            cas = cas.max(last + gap);
        }
        bank.open_row = Some(row);
        let data_start = (cas + self.cfg.t_cl).max(self.bus_free);
        let done = data_start + self.cfg.t_burst;
        bank.next_cas = cas + self.cfg.t_ccd_l.max(self.cfg.t_burst);
        self.bus_free = done;
        self.last_cas = Some((cas, group));
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
    use crate::config::MemTech;

    fn cfg() -> DramConfig {
        DramConfig {
            banks: 8,
            bank_groups: 4,
            row_bytes: 1024,
            t_rcd: 10,
            t_rp: 10,
            t_cl: 10,
            t_burst: 2,
            t_ccd_l: 6,
            t_refi: 0,
            ..DramConfig::for_tech(MemTech::Ddr5)
        }
    }

    #[test]
    fn consecutive_lines_alternate_groups_and_pay_only_the_burst() {
        let mut d = Ddr5Channel::new(cfg(), 1);
        // Line 0 → group 0, line 1 → group 1: spacing = tBURST, exactly
        // like two DDR4 banks.
        let (done0, _) = d.access(0, PhysAddr(0));
        let (done1, _) = d.access(0, PhysAddr(64));
        assert_eq!(done0, 22);
        assert_eq!(done1, 24);
    }

    #[test]
    fn same_group_back_to_back_pays_tccd_l() {
        let mut d = Ddr5Channel::new(cfg(), 1);
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
        let mut d = Ddr5Channel::new(cfg(), 1);
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
        let mut d = Ddr5Channel::new(DramConfig { t_refi: 50, t_rfc: 20, ..cfg() }, 1);
        let _ = d.access(0, PhysAddr(0));
        d.sync(50);
        assert_eq!(d.refreshes(), 1);
        assert!(!d.is_row_hit(PhysAddr(0)));
        assert!(!d.bank_ready(50, PhysAddr(0)));
        assert!(d.bank_ready(70, PhysAddr(0)));
    }
}
