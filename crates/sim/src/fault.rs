//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes *what can go wrong* in a run: correctable and
//! uncorrectable ECC errors at the DRAM channels, extra delay / duplicated
//! packets on the memory interconnect, transient memory-controller input
//! stalls, and (interpreted by the `mcsquare` engine) forced CTT flushes
//! and dropped CTT entries. Every decision is drawn from a [`FaultStream`]
//! — a SplitMix64 counter seeded from `(plan.seed, domain, lane)` — and is
//! consumed once per *event* (per DRAM access, per accepted packet, per
//! interconnect send, per CTT insert), never per cycle. That makes fault
//! schedules:
//!
//! * **deterministic**: the same seed and plan produce the same faults,
//!   stats, and final memory image on every run;
//! * **fast-forward safe**: the simulator's idle skip-ahead elides cycles,
//!   not events, so the schedule is identical with skipping on or off.
//!
//! An empty plan (all rates zero — the default) compiles down to a `None`
//! fault state everywhere and injects nothing, so committed results are
//! byte-identical to a build without this module.

use crate::Cycle;
use serde::{Deserialize, Serialize};

/// Stream-domain tags: decorrelate the per-subsystem decision streams so
/// e.g. raising the ECC rate does not reshuffle the link-fault schedule.
pub mod domain {
    /// ECC decisions at a memory controller's DRAM channel.
    pub const ECC: u64 = 0x1;
    /// Transient input stalls at a memory controller.
    pub const MC_STALL: u64 = 0x2;
    /// Extra delay on interconnect sends.
    pub const LINK_JITTER: u64 = 0x3;
    /// Packet duplication on interconnect sends.
    pub const LINK_DUP: u64 = 0x4;
    /// Forced CTT flushes (copy engine).
    pub const CTT_FLUSH: u64 = 0x5;
    /// Dropped CTT entries (copy engine).
    pub const CTT_DROP: u64 = 0x6;
    /// Victim selection for dropped entries (copy engine).
    pub const CTT_PICK: u64 = 0x7;
}

/// What faults to inject, and how hard. All `*_rate` fields are per-event
/// probabilities in `[0, 1]`; a rate of `0` disables that fault class.
/// [`FaultPlan::none`] (== `Default`) injects nothing at zero cost.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultPlan {
    /// Root seed of every decision stream.
    pub seed: u64,
    /// Probability that a DRAM access suffers a correctable ECC error.
    /// Each error is retried (re-read) with exponential backoff latency.
    pub ecc_correctable_rate: f64,
    /// Probability that a DRAM read suffers an uncorrectable error: the
    /// line is poisoned and demand reads of it return poisoned responses
    /// until the line is rewritten.
    pub ecc_uncorrectable_rate: f64,
    /// Bounded retries per correctable error (re-reads stop early when a
    /// retry comes back clean).
    pub ecc_max_retries: u32,
    /// Latency added by the first retry; each further retry doubles it.
    pub ecc_penalty: Cycle,
    /// Probability that an interconnect send is delayed by
    /// `link_jitter_cycles` extra cycles.
    pub link_jitter_rate: f64,
    /// Extra delay per jittered send.
    pub link_jitter_cycles: Cycle,
    /// Probability that an idempotent interconnect packet (unacked write,
    /// `Mcfree`, `MclazyAck`) is delivered twice.
    pub link_dup_rate: f64,
    /// Probability that accepting an input packet trips a transient
    /// controller stall (RPQ/WPQ intake and DRAM scheduling pause).
    pub mc_stall_rate: f64,
    /// Length of one transient controller stall.
    pub mc_stall_cycles: Cycle,
    /// Probability (per CTT insert) that the engine is forced to flush an
    /// entry eagerly even below the drain threshold.
    pub ctt_flush_rate: f64,
    /// Probability (per CTT insert) that a tracked line's CTT metadata is
    /// dropped; the engine detects the loss and repairs it by eager
    /// re-copy.
    pub ctt_drop_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: inject nothing (all hooks compile to no-ops).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            ecc_correctable_rate: 0.0,
            ecc_uncorrectable_rate: 0.0,
            ecc_max_retries: 0,
            ecc_penalty: 0,
            link_jitter_rate: 0.0,
            link_jitter_cycles: 0,
            link_dup_rate: 0.0,
            mc_stall_rate: 0.0,
            mc_stall_cycles: 0,
            ctt_flush_rate: 0.0,
            ctt_drop_rate: 0.0,
        }
    }

    /// A mild every-fault-class plan for adversarial test passes: low
    /// enough rates that workloads still make brisk progress, high enough
    /// that every degradation path fires in a few thousand events.
    pub fn mild(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ecc_correctable_rate: 0.01,
            ecc_uncorrectable_rate: 0.002,
            ecc_max_retries: 2,
            ecc_penalty: 20,
            link_jitter_rate: 0.05,
            link_jitter_cycles: 3,
            link_dup_rate: 0.02,
            mc_stall_rate: 0.005,
            mc_stall_cycles: 30,
            ctt_flush_rate: 0.05,
            ctt_drop_rate: 0.02,
        }
    }

    /// Whether the plan injects nothing (every rate is zero).
    pub fn is_empty(&self) -> bool {
        self.ecc_correctable_rate <= 0.0
            && self.ecc_uncorrectable_rate <= 0.0
            && self.link_jitter_rate <= 0.0
            && self.link_dup_rate <= 0.0
            && self.mc_stall_rate <= 0.0
            && self.ctt_flush_rate <= 0.0
            && self.ctt_drop_rate <= 0.0
    }

    /// A decision stream for `domain` (see [`domain`]) at `lane` (e.g. the
    /// memory-controller index), derived from this plan's seed.
    pub fn stream(&self, dom: u64, lane: u64) -> FaultStream {
        FaultStream::new(self.seed, dom, lane)
    }
}

/// A deterministic decision stream: SplitMix64 over a seed derived from
/// `(seed, domain, lane)`. Self-contained so fault schedules do not depend
/// on (or perturb) any other randomness in the process.
#[derive(Clone, Debug)]
pub struct FaultStream {
    state: u64,
}

impl FaultStream {
    /// Create the stream for `(seed, domain, lane)`.
    pub fn new(seed: u64, dom: u64, lane: u64) -> FaultStream {
        let mut s = FaultStream {
            state: seed
                ^ dom.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ lane.wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ 0x94D0_49BB_1331_11EB,
        };
        // Burn one output so trivially related seeds decorrelate.
        s.next_u64();
        s
    }

    /// Next raw 64-bit draw (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bernoulli draw: true with probability `rate`. A rate `<= 0` returns
    /// false *without consuming the stream* (the empty-plan fast path); any
    /// positive rate consumes exactly one draw.
    pub fn roll(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let draw = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        draw < rate
    }

    /// Uniform draw in `0..n` (0 when `n == 0`).
    pub fn pick(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default_and_injects_nothing() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert_eq!(p, FaultPlan::none());
        let mut s = p.stream(domain::ECC, 0);
        let before = s.state;
        assert!(!s.roll(p.ecc_correctable_rate));
        assert_eq!(s.state, before, "zero rate must not consume the stream");
    }

    #[test]
    fn mild_plan_is_nonempty() {
        assert!(!FaultPlan::mild(1).is_empty());
    }

    #[test]
    fn streams_are_deterministic_and_domain_separated() {
        let p = FaultPlan::mild(42);
        let a: Vec<u64> = {
            let mut s = p.stream(domain::ECC, 0);
            (0..8).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = p.stream(domain::ECC, 0);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, b, "same (seed, domain, lane) ⇒ same stream");
        let mut c = p.stream(domain::ECC, 1);
        let mut d = p.stream(domain::LINK_DUP, 0);
        assert_ne!(a[0], c.next_u64(), "lanes decorrelate");
        assert_ne!(a[0], d.next_u64(), "domains decorrelate");
    }

    #[test]
    fn roll_extremes() {
        let mut s = FaultStream::new(1, 2, 3);
        for _ in 0..64 {
            assert!(s.roll(1.0));
            assert!(!s.roll(0.0));
        }
    }

    #[test]
    fn roll_rate_is_approximately_honoured() {
        let mut s = FaultStream::new(9, domain::MC_STALL, 0);
        let hits = (0..10_000).filter(|_| s.roll(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "rate 0.25 gave {hits}/10000");
    }

    #[test]
    fn pick_stays_in_range() {
        let mut s = FaultStream::new(5, domain::CTT_PICK, 0);
        for _ in 0..100 {
            assert!(s.pick(7) < 7);
        }
        assert_eq!(s.pick(0), 0);
    }

    #[test]
    fn plan_serializes() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<FaultPlan>();
    }
}
