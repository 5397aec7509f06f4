//! Timing decorators around the two trait objects a [`System`] accepts.
//!
//! [`TimedEngine`] wraps any [`CopyEngine`] (including `NullEngine` on
//! baseline jobs) and [`TimedProgram`] wraps each core's [`Program`]. Both
//! forward every trait method — the defaulted ones too, so the simulator
//! sees exactly the behaviour of the wrapped object — and add up call
//! counts and host nanoseconds in plain fields. The totals move into a
//! shared [`Tally`] when the decorator is dropped (with its `System`), so
//! the hot path does no atomic or locked work.
//!
//! [`System`]: mcs_sim::System

use mcs_sim::addr::PhysAddr;
use mcs_sim::data::{LineData, SparseMem};
use mcs_sim::engine::{CopyEngine, EngineIo, Verdict};
use mcs_sim::packet::Packet;
use mcs_sim::program::{Fetch, Program};
use mcs_sim::uop::UopId;
use mcs_sim::Cycle;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Call counts and summed host time of one decorated layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    /// Calls of any trait method.
    pub calls: u64,
    /// `CopyEngine::tick` calls (one per memory-controller execution).
    pub ticks: u64,
    /// Host nanoseconds spent inside the wrapped object.
    pub nanos: u64,
}

impl Tally {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.ticks += other.ticks;
        self.nanos += other.nanos;
    }
}

/// Run `f`, charging one call and its host time to `tally`.
fn timed<R>(tally: &Cell<Tally>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let mut t = tally.get();
    t.nanos += t0.elapsed().as_nanos() as u64;
    t.calls += 1;
    tally.set(t);
    r
}

/// Where decorators deposit their totals when dropped.
pub type SharedTally = Arc<Mutex<Tally>>;

fn flush(local: &Tally, shared: &SharedTally) {
    // Never panic in Drop: a poisoned lock still holds valid totals.
    let mut t = shared.lock().unwrap_or_else(|e| e.into_inner());
    t.add(local);
}

/// A [`CopyEngine`] that times every call into the engine it wraps.
#[derive(Debug)]
pub struct TimedEngine {
    inner: Box<dyn CopyEngine>,
    local: Cell<Tally>,
    shared: SharedTally,
}

impl TimedEngine {
    /// Wrap `inner`; totals land in `shared` on drop.
    pub fn new(inner: Box<dyn CopyEngine>, shared: SharedTally) -> TimedEngine {
        TimedEngine {
            inner,
            local: Cell::new(Tally::default()),
            shared,
        }
    }
}

impl Drop for TimedEngine {
    fn drop(&mut self) {
        flush(&self.local.get(), &self.shared);
    }
}

impl CopyEngine for TimedEngine {
    fn on_arrive(&mut self, now: Cycle, mcid: usize, pkt: Packet, io: &mut EngineIo) -> Verdict {
        let inner = &mut self.inner;
        timed(&self.local, || inner.on_arrive(now, mcid, pkt, io))
    }

    fn on_dram_read(
        &mut self,
        now: Cycle,
        mcid: usize,
        tag: u64,
        addr: PhysAddr,
        data: LineData,
        poisoned: bool,
        io: &mut EngineIo,
    ) {
        let inner = &mut self.inner;
        timed(&self.local, || {
            inner.on_dram_read(now, mcid, tag, addr, data, poisoned, io)
        })
    }

    fn tick(&mut self, now: Cycle, mcid: usize, io: &mut EngineIo) {
        let mut t = self.local.get();
        t.ticks += 1;
        self.local.set(t);
        let inner = &mut self.inner;
        timed(&self.local, || inner.tick(now, mcid, io))
    }

    fn needs_tick(&self, mcid: usize) -> bool {
        timed(&self.local, || self.inner.needs_tick(mcid))
    }

    fn busy(&self) -> bool {
        timed(&self.local, || self.inner.busy())
    }

    fn counters(&self) -> Vec<(String, u64)> {
        timed(&self.local, || self.inner.counters())
    }

    fn peek_line(&self, mem: &SparseMem, line: PhysAddr) -> Option<LineData> {
        timed(&self.local, || self.inner.peek_line(mem, line))
    }

    #[cfg(feature = "check-invariants")]
    fn validate(&mut self, now: Cycle) -> Result<(), String> {
        let inner = &mut self.inner;
        timed(&self.local, || inner.validate(now))
    }

    #[cfg(feature = "check-invariants")]
    fn reconstructing_lines(&self) -> Vec<PhysAddr> {
        timed(&self.local, || self.inner.reconstructing_lines())
    }
}

/// A [`Program`] that times every call into the program it wraps.
pub struct TimedProgram {
    inner: Box<dyn Program>,
    local: Cell<Tally>,
    shared: SharedTally,
}

impl TimedProgram {
    /// Wrap `inner`; totals land in `shared` on drop.
    pub fn new(inner: Box<dyn Program>, shared: SharedTally) -> TimedProgram {
        TimedProgram {
            inner,
            local: Cell::new(Tally::default()),
            shared,
        }
    }
}

impl Drop for TimedProgram {
    fn drop(&mut self) {
        flush(&self.local.get(), &self.shared);
    }
}

impl Program for TimedProgram {
    fn fetch(&mut self, next_id: UopId) -> Fetch {
        let inner = &mut self.inner;
        timed(&self.local, || inner.fetch(next_id))
    }

    fn on_load_complete(&mut self, id: UopId, data: &[u8]) {
        let inner = &mut self.inner;
        timed(&self.local, || inner.on_load_complete(id, data))
    }
}
