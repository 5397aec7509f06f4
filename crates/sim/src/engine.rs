//! The copy-engine hook: where (MC)² plugs into the memory controller.
//!
//! The simulator defines the *mechanism* — a [`CopyEngine`] sees every
//! packet arriving at every memory controller before normal processing, can
//! issue its own DRAM reads and writes, send packets across the memory
//! interconnect, and apply back-pressure — and the `mcsquare` crate supplies
//! the *policy* (the Copy Tracking Table and Bounce Pending Queue of §III).
//!
//! A single engine instance serves all memory controllers; the `mcid`
//! argument says which controller is calling. This models the paper's
//! broadcast-synchronized per-MC CTTs as one logical table (the broadcast
//! latency is part of the packet latencies on the interconnect).

use crate::addr::PhysAddr;
use crate::data::{LineData, SparseMem};
use crate::packet::Packet;
use crate::Cycle;

/// What the engine decided about an arriving packet.
#[derive(Debug)]
pub enum Verdict {
    /// Not interesting: let the memory controller handle it normally.
    Pass(Packet),
    /// The engine consumed the packet (it will produce any responses
    /// itself).
    Consumed,
    /// The engine cannot accept the packet right now (CTT or BPQ full):
    /// the controller re-queues it at the head of its input and retries,
    /// blocking everything behind it. This is the §III-A back-pressure
    /// whose stalls Fig. 20b counts.
    Retry(Packet),
    /// Refused like [`Verdict::Retry`], and the refusal is a pure function
    /// of engine state: asked again before the engine's state changes, the
    /// engine would refuse again, with no effect but its own retry
    /// counters. The controller queues the packet as for `Retry` and may
    /// stop re-asking until [`CopyEngine::needs_tick`] reports a change;
    /// the re-asks it skipped go to [`CopyEngine::on_waits_elided`].
    Wait(Packet),
}

/// Side-effect collector handed to the engine on every call.
///
/// The memory controller drains these after the call returns: DRAM reads
/// are entered into the read pending queue tagged as engine reads (the
/// result comes back via [`CopyEngine::on_dram_read`]); DRAM writes enter
/// the write pending queue; packets are sent onto the memory interconnect.
#[derive(Debug, Default)]
pub struct EngineIo {
    /// (tag, line address) — reads to this controller's own channel.
    pub dram_reads: Vec<(u64, PhysAddr)>,
    /// (line address, data, poisoned) — writes to this controller's own
    /// channel. A poisoned write marks the line as carrying data derived
    /// from an uncorrectable ECC error (materialize-or-poison).
    pub dram_writes: Vec<(PhysAddr, LineData, bool)>,
    /// Packets to put on the interconnect (routed by `Packet::dest`),
    /// with an extra delay beyond the base interconnect latency.
    pub sends: Vec<(Packet, Cycle)>,
    /// Occupancy of this controller's write pending queue at call time,
    /// as (len, capacity) — the §III-B2 75% bandwidth-contention check.
    pub wpq: (usize, usize),
}

impl EngineIo {
    /// Fractional WPQ occupancy in `[0, 1]`.
    pub fn wpq_frac(&self) -> f64 {
        if self.wpq.1 == 0 {
            0.0
        } else {
            self.wpq.0 as f64 / self.wpq.1 as f64
        }
    }

    /// Issue a tagged read of the line containing `addr` on this channel.
    pub fn dram_read(&mut self, tag: u64, addr: PhysAddr) {
        self.dram_reads.push((tag, addr.line_base()));
    }

    /// Issue a write of the line containing `addr` on this channel. A
    /// `poisoned` write carries data derived from an uncorrectable ECC
    /// error: the controller will mark the line poisoned on commit.
    pub fn dram_write(&mut self, addr: PhysAddr, data: LineData, poisoned: bool) {
        self.dram_writes.push((addr.line_base(), data, poisoned));
    }

    /// Send a packet on the interconnect after the base link latency.
    pub fn send(&mut self, pkt: Packet) {
        self.sends.push((pkt, 0));
    }

    /// Send a packet with additional delay (e.g. the CTT lookup latency
    /// added to a bounced read).
    pub fn send_after(&mut self, pkt: Packet, extra: Cycle) {
        self.sends.push((pkt, extra));
    }
}

/// A lazy-copy engine plugged into the memory controllers.
pub trait CopyEngine: std::fmt::Debug {
    /// A packet arrived at controller `mcid`. Called before normal RPQ/WPQ
    /// processing.
    fn on_arrive(&mut self, now: Cycle, mcid: usize, pkt: Packet, io: &mut EngineIo) -> Verdict;

    /// A DRAM read issued through [`EngineIo::dram_read`] completed.
    /// `poisoned` is true when the line suffered an uncorrectable ECC
    /// error: the engine must materialize-or-poison anything derived from
    /// this data.
    #[allow(clippy::too_many_arguments)]
    fn on_dram_read(
        &mut self,
        now: Cycle,
        mcid: usize,
        tag: u64,
        addr: PhysAddr,
        data: LineData,
        poisoned: bool,
        io: &mut EngineIo,
    );

    /// Called on every cycle a controller executes, before it takes input,
    /// for background work (asynchronous CTT draining, BPQ release).
    fn tick(&mut self, now: Cycle, mcid: usize, io: &mut EngineIo) {
        let _ = (now, mcid, io);
    }

    /// Whether controller `mcid` could see anything new from the engine
    /// if it ran now: its [`CopyEngine::tick`] could do work, or a packet
    /// it was last told to [`Verdict::Wait`] on could now be accepted. The
    /// event-driven scheduler elides a controller's tick only when this is
    /// false, so the default errs towards `true`; an engine should return
    /// false once its state has not changed since that controller's last
    /// `tick`, since the same state gives the same (empty) answers.
    fn needs_tick(&self, mcid: usize) -> bool {
        let _ = mcid;
        true
    }

    /// Account `cycles` consecutive cycles, the first at `now`, on which
    /// controller `mcid` did not re-ask [`CopyEngine::on_arrive`] about
    /// `pkt`, last answered with [`Verdict::Wait`], because the engine's
    /// state had not changed. The default re-asks once per cycle and
    /// checks that each answer is `Wait` again, so it is exact for any
    /// engine, including a wrapper that forwards only `on_arrive`; an
    /// engine whose `Wait` path only counts can override it with the
    /// count.
    ///
    /// # Panics
    /// Panics if a re-ask is not answered with `Wait`: the refusal was not
    /// a pure function of engine state.
    fn on_waits_elided(&mut self, now: Cycle, cycles: u64, mcid: usize, pkt: &Packet) {
        for k in 0..cycles {
            let mut io = EngineIo::default();
            let verdict = self.on_arrive(now + k, mcid, pkt.clone(), &mut io);
            assert!(
                matches!(verdict, Verdict::Wait(_)),
                "an elided wait at controller {mcid}, cycle {}, was answered {verdict:?}",
                now + k
            );
        }
    }

    /// True while the engine has in-flight work; keeps the simulation
    /// alive during quiescence detection.
    fn busy(&self) -> bool {
        false
    }

    /// Counters to merge into [`crate::stats::RunStats::engine`].
    fn counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// The engine's materialized view of `line`, if it tracks one: the
    /// line's bytes as a demand read would observe them, with any lazily
    /// tracked fragments overlaid on `mem`'s backing data. `None` when the
    /// engine does not track the line (memory is authoritative). Used by
    /// differential checkers to compare the machine's logical memory image
    /// against an eager oracle without perturbing simulation state.
    fn peek_line(&self, mem: &SparseMem, line: PhysAddr) -> Option<LineData> {
        let _ = (mem, line);
        None
    }

    /// Check the engine's internal invariants (called periodically by the
    /// system's runtime checker). Returns a description of the first
    /// violated invariant, if any.
    #[cfg(feature = "check-invariants")]
    fn validate(&mut self, now: Cycle) -> Result<(), String> {
        let _ = now;
        Ok(())
    }

    /// Lines the engine is currently reconstructing from DRAM (the
    /// destination lines of in-flight recons). While a reconstruction is
    /// in flight no core may hold a dirty copy of the line — the engine's
    /// write would race the cache's writeback.
    #[cfg(feature = "check-invariants")]
    fn reconstructing_lines(&self) -> Vec<PhysAddr> {
        Vec::new()
    }
}

/// The no-op engine: an unmodified memory controller (the baseline).
///
/// `MCLAZY` packets are acknowledged and otherwise ignored; baseline
/// programs never issue them, and acknowledging keeps a misdirected
/// program from deadlocking (the data would simply not be copied).
#[derive(Debug, Default)]
pub struct NullEngine;

impl CopyEngine for NullEngine {
    fn on_arrive(&mut self, _now: Cycle, _mcid: usize, pkt: Packet, io: &mut EngineIo) -> Verdict {
        use crate::packet::MemCmd;
        match pkt.cmd {
            MemCmd::Mclazy(_) => {
                io.send(pkt.make_mclazy_ack());
                Verdict::Consumed
            }
            MemCmd::Mcfree(_) => Verdict::Consumed,
            _ => Verdict::Pass(pkt),
        }
    }

    fn on_dram_read(
        &mut self,
        _now: Cycle,
        _mcid: usize,
        _tag: u64,
        _addr: PhysAddr,
        _data: LineData,
        _poisoned: bool,
        _io: &mut EngineIo,
    ) {
        unreachable!("NullEngine never issues DRAM reads");
    }

    fn needs_tick(&self, _mcid: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MemCmd, Node};

    #[test]
    fn null_engine_passes_reads_and_writes() {
        let mut e = NullEngine;
        let mut io = EngineIo::default();
        let p = Packet::read(PhysAddr(0x40), Node::Mc(0));
        match e.on_arrive(0, 0, p, &mut io) {
            Verdict::Pass(p) => assert_eq!(p.cmd, MemCmd::ReadReq),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn null_engine_acks_mclazy() {
        let mut e = NullEngine;
        let mut io = EngineIo::default();
        let desc = crate::packet::LazyDesc { dst: PhysAddr(0), src: PhysAddr(64), size: 64 };
        let mclazy = Packet::new(MemCmd::Mclazy(desc), PhysAddr(0), Node::Mc(0));
        let p = Packet { id: 7, core: Some(0), ..mclazy };
        match e.on_arrive(0, 0, p, &mut io) {
            Verdict::Consumed => {}
            other => panic!("expected consumed, got {other:?}"),
        }
        assert_eq!(io.sends.len(), 1);
        assert_eq!(io.sends[0].0.cmd, MemCmd::MclazyAck);
        assert_eq!(io.sends[0].0.id, 7);
    }

    #[test]
    fn wpq_frac_computation() {
        let mut io = EngineIo { wpq: (3, 4), ..Default::default() };
        assert!((io.wpq_frac() - 0.75).abs() < 1e-9);
        io.wpq = (0, 0);
        assert_eq!(io.wpq_frac(), 0.0);
    }
}
