//! The `Program` trait: how workloads drive a simulated core.
//!
//! A program is a uop generator. The core pulls uops through
//! [`Program::fetch`] and notifies the program of completed loads through
//! [`Program::on_load_complete`], which is what makes dependent access
//! patterns (the pointer chase of Fig. 13, fault handling in `mcs-os`)
//! expressible: the program returns [`Fetch::Stall`] until the value it
//! needs has arrived.

use crate::uop::{Uop, UopId};

/// Result of asking a program for its next uop.
#[derive(Debug)]
pub enum Fetch {
    /// Dispatch this uop. The core assigns it the [`UopId`] passed as
    /// `next_id` to [`Program::fetch`].
    Uop(Uop),
    /// No uop available this cycle (dependency not yet satisfied); ask
    /// again later.
    Stall,
    /// The program has finished.
    Done,
}

/// A workload running on one core.
///
/// Programs see uop ids: `fetch` is told the id that will be assigned to
/// the uop it returns, and `on_load_complete` reports results by id.
///
/// Programs are `Send` so whole systems can be constructed and run on
/// worker threads during benchmark sweeps.
///
/// Contract for [`Fetch::Stall`]: once `fetch` stalls, its answer may only
/// change after an `on_load_complete` delivery — the core's idle
/// skip-ahead relies on this.
pub trait Program: Send {
    /// Produce the next uop, to be assigned id `next_id`.
    fn fetch(&mut self, next_id: UopId) -> Fetch;

    /// A previously fetched load (id `id`) completed with `data`.
    fn on_load_complete(&mut self, id: UopId, data: &[u8]) {
        let _ = (id, data);
    }
}

/// A program that replays a fixed uop sequence (no data dependencies).
#[derive(Debug)]
pub struct FixedProgram {
    uops: std::vec::IntoIter<Uop>,
}

impl FixedProgram {
    /// Wrap a pre-generated uop list.
    pub fn new(uops: Vec<Uop>) -> FixedProgram {
        FixedProgram { uops: uops.into_iter() }
    }
}

impl Program for FixedProgram {
    fn fetch(&mut self, _next_id: UopId) -> Fetch {
        match self.uops.next() {
            Some(u) => Fetch::Uop(u),
            None => Fetch::Done,
        }
    }
}

/// An empty program (for cores that should stay idle).
#[derive(Debug, Default)]
pub struct IdleProgram;

impl Program for IdleProgram {
    fn fetch(&mut self, _next_id: UopId) -> Fetch {
        Fetch::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::uop::{StatTag, UopKind};

    fn ld(a: u64) -> Uop {
        Uop::new(UopKind::Load { addr: PhysAddr(a), size: 8 }, StatTag::App)
    }

    #[test]
    fn fixed_program_replays_and_ends() {
        let mut p = FixedProgram::new(vec![ld(0), ld(64)]);
        assert!(matches!(p.fetch(0), Fetch::Uop(_)));
        assert!(matches!(p.fetch(1), Fetch::Uop(_)));
        assert!(matches!(p.fetch(2), Fetch::Done));
        assert!(matches!(p.fetch(3), Fetch::Done));
    }

    #[test]
    fn idle_program_is_done() {
        assert!(matches!(IdleProgram.fetch(0), Fetch::Done));
    }
}
