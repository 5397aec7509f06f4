//! Runtime invariant checking (the `check-invariants` feature).
//!
//! This module is the dynamic half of the verification layer (the static
//! half is the `mcs-check` bounded model checker). When the feature is
//! enabled, [`crate::system::System`] owns a [`Checker`] that observes
//! every packet placed on the memory interconnect and periodically audits
//! global state; any violation panics with a description of the broken
//! invariant. With the feature disabled none of this code exists and the
//! simulator is byte-for-byte identical to an unchecked build.
//!
//! What is checked:
//!
//! * **Packet conservation** — every `ReadReq` is answered by exactly one
//!   `ReadResp` with the same packet id; every acked write gets exactly
//!   one `WriteAck`; every `BounceRead` gets exactly one `BounceResp`
//!   carrying the same [`crate::packet::BounceInfo`]; every `MCLAZY`
//!   broadcast is eventually acknowledged. At quiescence no request may
//!   remain unanswered (catches dropped-packet deadlocks early, with the
//!   offending id rather than a timeout).
//! * **Coherence** (performed by `System`, see
//!   `System::validate_invariants`) — at most one L1 holds a line in M;
//!   an L1 in M implies the directory agrees or a transaction is in
//!   flight; inclusion holds against the LLC.
//! * **Stats sanity** — core/LLC/MC counters never decrease, and stall
//!   attribution is exact ([`crate::stats::CoreStats::check_stall_accounting`]).

use crate::packet::{MemCmd, Packet};
use crate::hash::{FastMap, FastSet};

/// Key identifying one bounce round-trip. `BounceRead` and `BounceResp`
/// carry packet id 0 but the same `BounceInfo`, so conservation is
/// tracked on the info tuple: (reply_to, token, src, dest_off, len).
type BounceKey = (usize, u64, u64, u32, u32);

/// Ledgers for in-flight request/response pairs on the interconnect.
#[derive(Debug, Default)]
pub struct Checker {
    /// `ReadReq` ids awaiting a `ReadResp`.
    reads: FastSet<u64>,
    /// `needs_ack` write ids awaiting a `WriteAck`.
    write_acks: FastSet<u64>,
    /// Every `Mclazy` broadcast id ever seen (acks must refer to one).
    mclazy_known: FastSet<u64>,
    /// `Mclazy` ids not yet acknowledged. A broadcast is one logical
    /// request even though the LLC sends one copy per channel, and some
    /// engines (e.g. the baseline `NullEngine`) ack more than once — the
    /// LLC ignores duplicates — so this is a set, not a multiset.
    mclazy_unacked: FastSet<u64>,
    /// Outstanding bounce round-trips (multiset: identical fragments can
    /// be in flight for different reconstructions).
    bounces: FastMap<BounceKey, u32>,
    /// Monotonicity snapshots: per-core (cycles, retired, stalled).
    pub core_snap: Vec<(u64, u64, u64)>,
    /// (llc hits+misses, total MC reads+writes).
    pub mem_snap: (u64, u64),
}

fn bounce_key(info: &crate::packet::BounceInfo) -> BounceKey {
    (info.reply_to, info.token, info.src.0, info.dest_off, info.len)
}

impl Checker {
    /// Observe a packet being placed on the interconnect.
    ///
    /// # Panics
    /// Panics when a response has no matching outstanding request, or a
    /// request id is reused while still in flight.
    pub fn observe_send(&mut self, pkt: &Packet) {
        match &pkt.cmd {
            MemCmd::ReadReq => {
                assert!(
                    self.reads.insert(pkt.id),
                    "invariant violation (packet conservation): \
                     ReadReq id {} reused while still in flight ({pkt:?})",
                    pkt.id
                );
            }
            MemCmd::ReadResp => {
                assert!(
                    self.reads.remove(&pkt.id),
                    "invariant violation (packet conservation): \
                     ReadResp id {} without an outstanding ReadReq ({pkt:?})",
                    pkt.id
                );
            }
            MemCmd::WriteReq | MemCmd::LazyDestWrite if pkt.needs_ack => {
                assert!(
                    self.write_acks.insert(pkt.id),
                    "invariant violation (packet conservation): \
                     acked-write id {} reused while still in flight ({pkt:?})",
                    pkt.id
                );
            }
            MemCmd::WriteAck => {
                assert!(
                    self.write_acks.remove(&pkt.id),
                    "invariant violation (packet conservation): \
                     WriteAck id {} without an outstanding acked write ({pkt:?})",
                    pkt.id
                );
            }
            MemCmd::Mclazy(_) => {
                self.mclazy_known.insert(pkt.id);
                self.mclazy_unacked.insert(pkt.id);
            }
            MemCmd::MclazyAck => {
                assert!(
                    self.mclazy_known.contains(&pkt.id),
                    "invariant violation (packet conservation): \
                     MclazyAck id {} for an unknown MCLAZY broadcast ({pkt:?})",
                    pkt.id
                );
                self.mclazy_unacked.remove(&pkt.id);
            }
            MemCmd::BounceRead(info) => {
                *self.bounces.entry(bounce_key(info)).or_insert(0) += 1;
            }
            MemCmd::BounceResp(info) => {
                let key = bounce_key(info);
                match self.bounces.get_mut(&key) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        if *n == 0 {
                            self.bounces.remove(&key);
                        }
                    }
                    _ => panic!(
                        "invariant violation (packet conservation): \
                         BounceResp without an outstanding BounceRead ({pkt:?})"
                    ),
                }
            }
            // Fire-and-forget commands and unacked writes have no
            // conservation obligation.
            MemCmd::Mcfree(_) | MemCmd::WriteReq | MemCmd::LazyDestWrite => {}
        }
    }

    /// Assert all ledgers are empty — called once the system is quiescent,
    /// when any remaining entry is a dropped packet.
    ///
    /// # Panics
    /// Panics naming the leaked request(s).
    pub fn assert_quiescent(&self) {
        assert!(
            self.reads.is_empty(),
            "invariant violation (packet conservation): \
             {} ReadReq(s) never answered at quiescence: {:?}",
            self.reads.len(),
            self.reads
        );
        assert!(
            self.write_acks.is_empty(),
            "invariant violation (packet conservation): \
             {} acked write(s) never acknowledged at quiescence: {:?}",
            self.write_acks.len(),
            self.write_acks
        );
        assert!(
            self.mclazy_unacked.is_empty(),
            "invariant violation (packet conservation): \
             {} MCLAZY broadcast(s) never acknowledged at quiescence: {:?}",
            self.mclazy_unacked.len(),
            self.mclazy_unacked
        );
        assert!(
            self.bounces.is_empty(),
            "invariant violation (packet conservation): \
             {} bounce read(s) never answered at quiescence: {:?}",
            self.bounces.len(),
            self.bounces
        );
    }
}
