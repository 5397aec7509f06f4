//! # mcs-chaos — chaos/soak harness for the (MC)² reproduction
//!
//! Randomized workloads (lazy copies, stores, loads over a slotted arena)
//! run against the full simulated machine under a seeded
//! [`FaultPlan`] — ECC errors, link jitter/duplication, controller
//! stalls, forced CTT flushes, dropped CTT entries — and are then
//! **differentially checked** against the eager-memory oracle
//! ([`mcs_check::oracle::EagerMem`]): after the run drains, every byte of
//! the simulator's materialized memory image
//! ([`System::peek_materialized`]) must equal what eager copies would have
//! produced. Faults may degrade timing; they must never change data.
//!
//! Everything is deterministic: a [`ChaosCase`] is fully described by its
//! seed, so any failure replays exactly. When a case fails, [`shrink`]
//! reduces it to a minimal reproduction — first zeroing fault-plan knobs
//! that are not needed to reproduce, then dropping workload ops — so the
//! reported case is the smallest (plan, workload) pair that still fails.
//!
//! Hangs are converted into structured [`SimError::Livelock`] values by
//! the simulator's liveness watchdog ([`System::run_with_watchdog`]),
//! carrying per-controller queue depths and per-core pipeline snapshots.
//!
//! The harness's teeth are verified with deliberately broken engines
//! ([`ChaosMutation`]): a mutant that drops CTT metadata without the
//! eager-re-copy repair must be caught by the differential check and
//! shrunk to a minimal schedule.

use mcs_check::oracle::EagerMem;
use mcs_sim::addr::PhysAddr;
use mcs_sim::config::SystemConfig;
use mcs_sim::fault::{FaultPlan, FaultStream};
use mcs_sim::program::FixedProgram;
use mcs_sim::system::{SimError, System};
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};
use mcsquare::config::McSquareConfig;
pub use mcsquare::engine::ChaosMutation;
use mcsquare::engine::McSquareEngine;
use mcsquare::software::{memcpy_lazy_uops, LazyOpts};

/// Arena base address. The arena is divided into [`SLOTS`] slots of
/// [`SLOT_SIZE`] bytes; copies always use two *distinct* slots, which
/// guarantees the non-overlap precondition of `memcpy_lazy`.
pub const ARENA: u64 = 0x10_0000;
/// Number of arena slots.
pub const SLOTS: u64 = 16;
/// Bytes per slot.
pub const SLOT_SIZE: u64 = 4096;

/// Cycle budget per chaos run.
const RUN_BUDGET: u64 = 50_000_000;
/// Liveness-watchdog window (executed ticks without progress).
const WATCHDOG_WINDOW: u64 = 200_000;

/// One operation of a chaos workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosOp {
    /// `memcpy_lazy(dst, src, size)` — dst line-aligned, size a multiple
    /// of the cacheline, src arbitrarily aligned, slots distinct.
    Copy { dst: u64, src: u64, size: u64 },
    /// Store `len` bytes (a deterministic pattern from `seed`) at `addr`;
    /// never crosses a cacheline boundary.
    Store { addr: u64, len: u8, seed: u8 },
    /// Load `len` bytes at `addr`; never crosses a cacheline boundary.
    Load { addr: u64, len: u8 },
}

/// A fully described chaos run: seed, fault plan, and workload.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosCase {
    /// Seed the case was generated from (also seeds the plan).
    pub seed: u64,
    /// What faults are injected during the run.
    pub plan: FaultPlan,
    /// The workload, executed in order with fences between ops.
    pub ops: Vec<ChaosOp>,
}

/// Why a chaos run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosFailure {
    /// The materialized memory image diverged from the eager oracle.
    Mismatch {
        /// First diverging byte address.
        addr: u64,
        /// Oracle's byte.
        want: u8,
        /// Simulator's byte.
        got: u8,
    },
    /// The simulation itself failed (timeout or livelock).
    Sim(SimError),
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosFailure::Mismatch { addr, want, got } => write!(
                f,
                "memory diverged from the eager oracle at {addr:#x}: want {want:#04x}, got {got:#04x}"
            ),
            ChaosFailure::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

/// What a successful chaos run observed (used by determinism checks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Every fault event of the run ([`RunStats::fault_events`]).
    ///
    /// [`RunStats::fault_events`]: mcs_sim::stats::RunStats::fault_events
    pub fault_events: u64,
    /// Final materialized arena image.
    pub image: Vec<u8>,
}

/// The deterministic byte pattern stores write and pokes initialize with.
fn pattern_byte(seed: u8, i: u64) -> u8 {
    (i.wrapping_mul(131).wrapping_add(seed as u64) % 251) as u8
}

/// Generate a reproducible random case: `n_ops` operations under the
/// [`FaultPlan::mild`] plan for `seed`.
pub fn gen_case(seed: u64, n_ops: usize) -> ChaosCase {
    let mut rng = FaultStream::new(seed, 0xC4A05, 0);
    let mut ops = Vec::with_capacity(n_ops);
    for i in 0..n_ops {
        match rng.pick(4) {
            // Copies are half the mix: they are what the machinery under
            // test is for.
            0 | 1 => {
                let dslot = rng.pick(SLOTS);
                let mut sslot = rng.pick(SLOTS);
                if sslot == dslot {
                    sslot = (sslot + 1) % SLOTS;
                }
                let lines = 1 + rng.pick(16); // 64 B .. 1 KB
                let size = lines * 64;
                let dst = ARENA + dslot * SLOT_SIZE + rng.pick(SLOT_SIZE / 64 - lines + 1) * 64;
                let src = ARENA + sslot * SLOT_SIZE + rng.pick(SLOT_SIZE - size + 1);
                ops.push(ChaosOp::Copy { dst, src, size });
            }
            2 => {
                let line = ARENA + rng.pick(SLOTS * SLOT_SIZE / 64) * 64;
                let off = rng.pick(64);
                let len = 1 + rng.pick(64 - off);
                ops.push(ChaosOp::Store {
                    addr: line + off,
                    len: len as u8,
                    seed: (seed as u8).wrapping_add(i as u8),
                });
            }
            _ => {
                let line = ARENA + rng.pick(SLOTS * SLOT_SIZE / 64) * 64;
                let off = rng.pick(64);
                let len = 1 + rng.pick(64 - off);
                ops.push(ChaosOp::Load { addr: line + off, len: len as u8 });
            }
        }
    }
    ChaosCase { seed, plan: FaultPlan::mild(seed), ops }
}

fn fence() -> Uop {
    Uop::new(UopKind::Mfence, StatTag::App)
}

/// Lower a case's ops to the simulated program. A fence after every op
/// pins program order, so the eager oracle's sequential replay is the
/// correct specification.
fn build_uops(ops: &[ChaosOp]) -> Vec<Uop> {
    let mut uops = Vec::new();
    for op in ops {
        match op {
            ChaosOp::Copy { dst, src, size } => {
                uops.extend(memcpy_lazy_uops(
                    uops.len() as u64,
                    PhysAddr(*dst),
                    PhysAddr(*src),
                    *size,
                    &LazyOpts::default(),
                ));
            }
            ChaosOp::Store { addr, len, seed } => {
                let bytes: Vec<u8> =
                    (0..*len as u64).map(|i| pattern_byte(*seed, i)).collect();
                uops.push(Uop::new(
                    UopKind::Store {
                        addr: PhysAddr(*addr),
                        size: *len,
                        data: StoreData::Imm(bytes),
                        nontemporal: false,
                    },
                    StatTag::App,
                ));
            }
            ChaosOp::Load { addr, len } => {
                uops.push(Uop::new(
                    UopKind::Load { addr: PhysAddr(*addr), size: *len },
                    StatTag::App,
                ));
            }
        }
        uops.push(fence());
    }
    uops
}

/// Replay the case on the eager oracle: the specification of what memory
/// must contain afterwards.
fn oracle_image(case: &ChaosCase) -> EagerMem {
    let mut mem = EagerMem::new();
    let init: Vec<u8> =
        (0..SLOTS * SLOT_SIZE).map(|i| pattern_byte(case.seed as u8, i)).collect();
    mem.write(ARENA, &init);
    for op in &case.ops {
        match op {
            ChaosOp::Copy { dst, src, size } => mem.copy(*dst, *src, *size),
            ChaosOp::Store { addr, len, seed } => {
                let bytes: Vec<u8> =
                    (0..*len as u64).map(|i| pattern_byte(*seed, i)).collect();
                mem.write(*addr, &bytes);
            }
            ChaosOp::Load { .. } => {}
        }
    }
    mem
}

/// Run one chaos case to quiescence and differentially check the final
/// memory image against the eager oracle. `mutation` arms a deliberately
/// broken engine (tests of the harness itself); production callers pass
/// [`ChaosMutation::None`].
///
/// # Errors
/// [`ChaosFailure::Sim`] if the run times out or livelocks,
/// [`ChaosFailure::Mismatch`] at the first diverging byte.
pub fn run_case(case: &ChaosCase, mutation: ChaosMutation) -> Result<ChaosReport, ChaosFailure> {
    let mut cfg = SystemConfig::tiny();
    cfg.fault = case.plan.clone();
    let mut engine = McSquareEngine::with_faults(McSquareConfig::tiny(), cfg.channels, &cfg.fault);
    engine.set_chaos_mutation(mutation);
    let uops = build_uops(&case.ops);
    let mut sys =
        System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(engine));
    let init: Vec<u8> =
        (0..SLOTS * SLOT_SIZE).map(|i| pattern_byte(case.seed as u8, i)).collect();
    sys.poke(PhysAddr(ARENA), &init);

    let stats = sys
        .run_with_watchdog(RUN_BUDGET, WATCHDOG_WINDOW)
        .map_err(ChaosFailure::Sim)?;

    let want = oracle_image(case).read(ARENA, (SLOTS * SLOT_SIZE) as usize);
    let got = sys.peek_materialized(PhysAddr(ARENA), (SLOTS * SLOT_SIZE) as usize);
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if w != g {
            return Err(ChaosFailure::Mismatch { addr: ARENA + i as u64, want: *w, got: *g });
        }
    }
    Ok(ChaosReport {
        cycles: stats.cycles,
        fault_events: stats.fault_events(),
        image: got,
    })
}

/// Shrink a failing case to a minimal reproduction: first zero each
/// fault-plan knob that is not needed to keep the case failing, then
/// greedily drop workload ops. The returned case still fails under
/// `mutation` (greedy, so minimal with respect to single-element
/// removals, not globally minimal).
pub fn shrink(case: &ChaosCase, mutation: ChaosMutation) -> ChaosCase {
    let fails = |c: &ChaosCase| run_case(c, mutation).is_err();
    debug_assert!(fails(case), "shrink of a passing case");
    let mut cur = case.clone();

    // Knob-zeroing: each rate in turn; keep the zero if it still fails.
    let knobs: [fn(&mut FaultPlan); 7] = [
        |p| p.ecc_correctable_rate = 0.0,
        |p| p.ecc_uncorrectable_rate = 0.0,
        |p| p.link_jitter_rate = 0.0,
        |p| p.link_dup_rate = 0.0,
        |p| p.mc_stall_rate = 0.0,
        |p| p.ctt_flush_rate = 0.0,
        |p| p.ctt_drop_rate = 0.0,
    ];
    for zero in knobs {
        let mut probe = cur.clone();
        zero(&mut probe.plan);
        if fails(&probe) {
            cur = probe;
        }
    }

    // Op removal, rescanning until a fixpoint (removing one op can make
    // another removable).
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.ops.len() {
            let mut probe = cur.clone();
            probe.ops.remove(i);
            if fails(&probe) {
                cur = probe;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_case_is_deterministic_and_well_formed() {
        let a = gen_case(3, 12);
        let b = gen_case(3, 12);
        assert_eq!(a, b);
        assert_eq!(a.ops.len(), 12);
        for op in &a.ops {
            match op {
                ChaosOp::Copy { dst, src, size } => {
                    assert_eq!(dst % 64, 0, "dst line-aligned");
                    assert_eq!(size % 64, 0, "size line-multiple");
                    assert!(*size > 0);
                    // Non-overlap (memcpy precondition).
                    assert!(dst + size <= *src || src + size <= *dst);
                }
                ChaosOp::Store { addr, len, .. } | ChaosOp::Load { addr, len } => {
                    assert!(*len >= 1);
                    assert!(addr % 64 + *len as u64 <= 64, "within one line");
                }
            }
        }
    }

    #[test]
    fn oracle_replay_applies_copies_eagerly() {
        let case = ChaosCase {
            seed: 0,
            plan: FaultPlan::none(),
            ops: vec![
                ChaosOp::Store { addr: ARENA, len: 4, seed: 9 },
                ChaosOp::Copy { dst: ARENA + SLOT_SIZE, src: ARENA, size: 64 },
                ChaosOp::Store { addr: ARENA, len: 4, seed: 200 },
            ],
        };
        let mem = oracle_image(&case);
        let copied = mem.read(ARENA + SLOT_SIZE, 4);
        let expect: Vec<u8> = (0..4).map(|i| pattern_byte(9, i)).collect();
        assert_eq!(copied, expect, "copy snapshots before the later store");
    }
}
