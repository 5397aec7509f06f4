//! HBM2-style channel: several independent *pseudo-channels*, each a
//! narrow bank array with its own data bus.
//!
//! HBM trades per-bus speed for width: a stack exposes many channels and
//! each channel is split into pseudo-channels that share only the command
//! infrastructure, so a single (MC)-fronted channel here contains
//! `pseudo_channels` fully independent bus+bank arrays. Consecutive
//! cachelines stripe across pseudo-channels (on top of the system-wide
//! channel striping), which multiplies sequential bandwidth while each
//! individual access still sees ordinary row-buffer timing. Rows are
//! small (HBM pages are 1 KB per pseudo-channel), so capacity per open
//! row — and per channel — is low, and random traffic activates often.
//!
//! Refresh is all-bank per channel: one tREFI/tRFC window blocks every
//! pseudo-channel at once (HBM's per-bank refresh option is deliberately
//! not modelled; see DESIGN.md).

use super::ddr4::Bank;
use super::{DramModel, RefreshTimer, RowOutcome};
use crate::addr::{PhysAddr, CACHELINE};
use crate::config::DramConfig;
use crate::Cycle;
use std::cell::Cell;

/// One pseudo-channel: a private bus fronting a private bank array.
#[derive(Debug, Clone)]
struct PseudoChannel {
    banks: Vec<Bank>,
    bus_free: Cycle,
}

/// One HBM channel (a set of pseudo-channels).
#[derive(Debug, Clone)]
pub struct HbmChannel {
    cfg: DramConfig,
    channels: usize,
    pcs: Vec<PseudoChannel>,
    refresh: RefreshTimer,
    /// Memoised `next_ready`; cleared by `access`/`sync`.
    ready_cache: Cell<Option<Cycle>>,
}

impl HbmChannel {
    /// Create a channel; `channels` is the system-wide channel count (for
    /// address mapping).
    pub fn new(cfg: DramConfig, channels: usize) -> HbmChannel {
        assert!(cfg.pseudo_channels >= 1, "HBM needs at least one pseudo-channel");
        let pcs = (0..cfg.pseudo_channels)
            .map(|_| PseudoChannel {
                banks: vec![Bank { open_row: None, next_cas: 0 }; cfg.banks],
                bus_free: 0,
            })
            .collect();
        let refresh = RefreshTimer::new(cfg.t_refi, cfg.t_rfc);
        HbmChannel { cfg, channels, pcs, refresh, ready_cache: Cell::new(None) }
    }

    /// (pseudo-channel, bank, row) for `addr`: lines stripe across
    /// pseudo-channels, then fill rows within one, like a DDR4 channel.
    fn locate(&self, addr: PhysAddr) -> (usize, usize, u64) {
        let local_line = addr.line().0 / self.channels as u64;
        let pc = (local_line % self.cfg.pseudo_channels as u64) as usize;
        let pcline = local_line / self.cfg.pseudo_channels as u64;
        let lines_per_row = self.cfg.row_bytes / CACHELINE;
        let bank = ((pcline / lines_per_row) % self.cfg.banks as u64) as usize;
        let row = pcline / lines_per_row / self.cfg.banks as u64;
        (pc, bank, row)
    }

    /// `(bank_ready, is_row_hit)` with one address decode.
    #[inline]
    pub(crate) fn probe(&self, now: Cycle, addr: PhysAddr) -> (bool, bool) {
        let (pc, bank, row) = self.locate(addr);
        let b = &self.pcs[pc].banks[bank];
        (b.next_cas <= now, b.open_row == Some(row))
    }

    /// First cycle at which the addressed bank is ready: the inverse of
    /// `probe(..).0`.
    pub(crate) fn bank_ready_at(&self, addr: PhysAddr) -> Cycle {
        let (pc, bank, _) = self.locate(addr);
        self.pcs[pc].banks[bank].next_cas
    }

    /// First cycle at which [`DramModel::bus_ready`] holds: the earliest
    /// any pseudo-channel bus can take another column command.
    pub(crate) fn bus_ready_at(&self) -> Cycle {
        self.pcs.iter().map(|pc| pc.bus_free.saturating_sub(self.cfg.t_cl)).min().unwrap_or(0)
    }

    pub(crate) fn refresh_next(&self) -> Cycle {
        self.refresh.next_due()
    }
}

impl DramModel for HbmChannel {
    fn sync(&mut self, now: Cycle) {
        while let Some(end) = self.refresh.pop_due(now) {
            for pc in &mut self.pcs {
                for b in &mut pc.banks {
                    b.open_row = None;
                    b.next_cas = b.next_cas.max(end);
                }
                pc.bus_free = pc.bus_free.max(end);
            }
            self.ready_cache.set(None);
        }
    }

    fn is_row_hit(&self, addr: PhysAddr) -> bool {
        let (pc, bank, row) = self.locate(addr);
        self.pcs[pc].banks[bank].open_row == Some(row)
    }

    fn bank_ready(&self, now: Cycle, addr: PhysAddr) -> bool {
        let (pc, bank, _) = self.locate(addr);
        self.pcs[pc].banks[bank].next_cas <= now
    }

    fn bus_ready(&self, now: Cycle) -> bool {
        // Some pseudo-channel can take a column command; an access aimed
        // at a busier one simply queues behind it.
        self.pcs.iter().any(|pc| pc.bus_free <= now + self.cfg.t_cl)
    }

    fn access(&mut self, now: Cycle, addr: PhysAddr) -> (Cycle, RowOutcome) {
        self.sync(now);
        let (pci, bank_idx, row) = self.locate(addr);
        let pc = &mut self.pcs[pci];
        let bank = &mut pc.banks[bank_idx];
        let earliest = now.max(bank.next_cas);
        let (outcome, cas) = match bank.open_row {
            Some(r) if r == row => (RowOutcome::Hit, earliest),
            Some(_) => (RowOutcome::Conflict, earliest + self.cfg.t_rp + self.cfg.t_rcd),
            None => (RowOutcome::Empty, earliest + self.cfg.t_rcd),
        };
        bank.open_row = Some(row);
        let data_start = (cas + self.cfg.t_cl).max(pc.bus_free);
        let done = data_start + self.cfg.t_burst;
        bank.next_cas = cas + self.cfg.t_burst;
        pc.bus_free = done;
        self.ready_cache.set(None);
        (done, outcome)
    }

    fn next_ready(&self) -> Cycle {
        if let Some(v) = self.ready_cache.get() {
            return v;
        }
        let v = self
            .pcs
            .iter()
            .flat_map(|pc| {
                pc.banks.iter().map(|b| b.next_cas).chain(std::iter::once(pc.bus_free))
            })
            .min()
            .unwrap_or(0);
        self.ready_cache.set(Some(v));
        v
    }

    fn refreshes(&self) -> u64 {
        self.refresh.count()
    }

    fn bus_of(&self, addr: PhysAddr) -> usize {
        self.locate(addr).0
    }

    fn bank_of(&self, addr: PhysAddr) -> usize {
        let (pc, bank, _) = self.locate(addr);
        pc * self.cfg.banks + bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemTech;

    fn cfg() -> DramConfig {
        DramConfig {
            banks: 4,
            row_bytes: 512,
            pseudo_channels: 2,
            t_rcd: 10,
            t_rp: 10,
            t_cl: 10,
            t_burst: 2,
            t_refi: 0,
            ..DramConfig::for_tech(MemTech::Hbm2)
        }
    }

    #[test]
    fn lines_stripe_across_pseudo_channels() {
        let d = HbmChannel::new(cfg(), 1);
        assert_eq!(d.bus_of(PhysAddr(0)), 0);
        assert_eq!(d.bus_of(PhysAddr(64)), 1);
        assert_eq!(d.bus_of(PhysAddr(128)), 0);
    }

    #[test]
    fn pseudo_channel_buses_overlap_completely() {
        let mut d = HbmChannel::new(cfg(), 1);
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
        let mut d = HbmChannel::new(cfg(), 1);
        // Lines 0 and 2 are both on pseudo-channel 0, same row.
        let (done0, _) = d.access(0, PhysAddr(0));
        let (done2, out) = d.access(0, PhysAddr(128));
        assert_eq!(out, RowOutcome::Hit);
        assert_eq!(done0, 22);
        assert_eq!(done2, 24);
    }

    #[test]
    fn small_rows_conflict_sooner() {
        let mut d = HbmChannel::new(cfg(), 1);
        // Pseudo-channel 0, bank 0 holds rows of 512 B = 8 lines; with 2
        // pseudo-channels and 4 banks, the same bank's next row starts
        // 2*8*4 = 64 lines later.
        let (done, _) = d.access(0, PhysAddr(0));
        let (_, out) = d.access(done, PhysAddr(64 * 64));
        assert_eq!(out, RowOutcome::Conflict);
    }

    #[test]
    fn refresh_blocks_every_pseudo_channel() {
        let mut d = HbmChannel::new(DramConfig { t_refi: 50, t_rfc: 20, ..cfg() }, 1);
        let _ = d.access(0, PhysAddr(0));
        let _ = d.access(0, PhysAddr(64));
        d.sync(50);
        assert_eq!(d.refreshes(), 1);
        assert!(!d.bank_ready(50, PhysAddr(0)));
        assert!(!d.bank_ready(50, PhysAddr(64)));
        assert!(d.bank_ready(70, PhysAddr(0)));
    }
}
