//! The Fig. 9 state-transition diagram as a test suite.
//!
//! The paper proves memory consistency by walking a six-state diagram for
//! a destination cacheline D backed (possibly misaligned) by source
//! cachelines S1 and S2. Each test below drives the full simulated machine
//! through one of the labelled transitions and checks the observable
//! behaviour the paper ascribes to that state.

use mcs_sim::addr::PhysAddr;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::FixedProgram;
use mcs_sim::system::System;
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};
use mcsquare::config::McSquareConfig;
use mcsquare::engine::McSquareEngine;
use mcsquare::software::{memcpy_lazy_uops, LazyOpts};

const SIZE: u64 = 128; // D spans two lines; misaligned source spans three

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| ((i as u64 * 131 + seed as u64) % 251) as u8).collect()
}

struct Rig {
    src: PhysAddr,
    dst: PhysAddr,
    uops: Vec<Uop>,
}

impl Rig {
    /// State 1 → 2: issue the prospective copy (misaligned: every D line
    /// depends on two source lines, states 5/6 apply).
    fn new(misaligned: bool) -> Rig {
        let src_base = PhysAddr(0x100000);
        let src = if misaligned { src_base.add(20) } else { src_base };
        let dst = PhysAddr(0x200000);
        let uops = memcpy_lazy_uops(0, dst, src, SIZE, &LazyOpts::default());
        Rig { src, dst, uops }
    }

    fn store(&mut self, addr: PhysAddr, val: u8, len: u8) {
        self.uops.push(Uop::new(
            UopKind::Store { addr, size: len, data: StoreData::Splat(val), nontemporal: false },
            StatTag::App,
        ));
    }

    fn clwb(&mut self, addr: PhysAddr) {
        self.uops.push(Uop::new(UopKind::Clwb { addr }, StatTag::App));
    }

    fn fence(&mut self) {
        self.uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    }

    fn load(&mut self, addr: PhysAddr, len: u8) {
        self.uops.push(Uop::new(UopKind::Load { addr, size: len }, StatTag::App));
    }

    fn run(self) -> (System, mcs_sim::stats::RunStats) {
        let cfg = SystemConfig::tiny();
        let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
        let mut sys =
            System::with_engine(cfg, vec![Box::new(FixedProgram::new(self.uops))], Box::new(e));
        sys.poke(self.src, &pattern(SIZE as usize, 42));
        let stats = sys.run(100_000_000).expect("finishes");
        (sys, stats)
    }
}

#[test]
fn state2_read_source_has_no_impact() {
    // State 2: "reading S1 or S2 has no impact".
    let mut r = Rig::new(true);
    let (src, dst) = (r.src, r.dst);
    for i in 0..3 {
        // Line-safe 8B reads within the (misaligned) source buffer.
        r.load(src.add(i * 32), 8);
    }
    r.fence();
    for i in 0..(SIZE / 64) {
        r.load(dst.add(i * 64), 64);
    }
    let (sys, st) = r.run();
    assert_eq!(sys.peek_materialized(dst, SIZE as usize), pattern(SIZE as usize, 42));
    assert_eq!(st.engine_counter("recon_src_flush"), 0, "source reads trigger nothing");
}

#[test]
fn state2_write_to_d_returns_to_state1() {
    // State 2 → 1: "writing to D removes the entry from the CTT".
    let mut r = Rig::new(false);
    let dst = r.dst;
    r.store(dst, 0xEE, 64);
    r.clwb(dst);
    r.fence();
    let (sys, st) = r.run();
    // First line: the fresh write; second line: still the lazy copy.
    assert_eq!(sys.peek_materialized(dst, 64), vec![0xEE; 64]);
    assert!(st.engine_counter("ctt_inserts") >= 1);
    let _ = sys;
}

#[test]
fn state2_second_copy_to_d_stays_in_state2() {
    // State 2 loop: "performing another prospective copy with destination
    // D retains the same state, entry modified to the new source".
    let mut r = Rig::new(false);
    let dst = r.dst;
    let src2 = PhysAddr(0x300000);
    let more = memcpy_lazy_uops(r.uops.len() as u64, dst, src2, SIZE, &LazyOpts::default());
    r.uops.extend(more);
    for i in 0..(SIZE / 64) {
        r.load(dst.add(i * 64), 64);
    }
    let (mut sys, _) = {
        // src2 needs its own initialisation.
        let cfg = SystemConfig::tiny();
        let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
        let mut sys =
            System::with_engine(cfg, vec![Box::new(FixedProgram::new(r.uops))], Box::new(e));
        sys.poke(r.src, &pattern(SIZE as usize, 42));
        sys.poke(src2, &pattern(SIZE as usize, 99));
        let st = sys.run(100_000_000).expect("finishes");
        (sys, st)
    };
    assert_eq!(
        sys.peek_materialized(dst, SIZE as usize),
        pattern(SIZE as usize, 99),
        "latest source wins"
    );
    let _ = &mut sys;
}

#[test]
fn states_3_4_write_si_bounces_then_writes_back() {
    // States 2 → 3 → 4 → 1: a write to Si is held in the BPQ, a bounce
    // writes D, then Si reaches memory.
    let mut r = Rig::new(false);
    let (src, dst) = (r.src, r.dst);
    r.store(src, 0x77, 64);
    r.clwb(src);
    r.fence();
    for i in 0..(SIZE / 64) {
        r.load(dst.add(i * 64), 64);
    }
    r.fence();
    let (sys, st) = r.run();
    // D observes the PRE-write source (the copy point precedes the write).
    assert_eq!(sys.peek_materialized(dst, SIZE as usize), pattern(SIZE as usize, 42));
    // Si observes the new data after BPQ release.
    assert_eq!(sys.peek_materialized(src, 64), vec![0x77; 64]);
    assert!(st.engine_counter("recon_src_flush") >= 1, "{st}");
}

#[test]
fn states_5_6_misaligned_write_both_sources() {
    // States 5/6: misaligned D depends on S1 and S2; writes to BOTH are
    // held and D still reconstructs from pre-write data.
    let mut r = Rig::new(true);
    let (src, dst) = (r.src, r.dst);
    // Write both source lines (line bases of the misaligned buffer).
    let s1 = src.line_base();
    let s2 = s1.add(64);
    r.store(s1, 0x11, 64);
    r.store(s2, 0x22, 64);
    r.clwb(s1);
    r.clwb(s2);
    r.fence();
    for i in 0..(SIZE / 64) {
        r.load(dst.add(i * 64), 64);
    }
    r.fence();
    let (sys, st) = r.run();
    let want = pattern(SIZE as usize, 42);
    assert_eq!(sys.peek_materialized(dst, SIZE as usize), want, "pre-write data preserved");
    assert_eq!(sys.peek_materialized(s1, 64), vec![0x11; 64]);
    assert_eq!(sys.peek_materialized(s2, 64), vec![0x22; 64]);
    assert!(st.engine_counter("recon_src_flush") >= 1);
}

#[test]
fn bpq_merges_repeated_writes_to_same_source_line() {
    // Fig. 9 state 3: "reads and writes to Si are merged and serviced
    // directly from the BPQ".
    let mut r = Rig::new(false);
    let (src, dst) = (r.src, r.dst);
    r.store(src, 0x01, 64);
    r.clwb(src);
    r.store(src, 0x02, 64);
    r.clwb(src);
    r.fence();
    r.load(src, 8);
    r.fence();
    for i in 0..(SIZE / 64) {
        r.load(dst.add(i * 64), 64);
    }
    r.fence();
    let (sys, _) = r.run();
    assert_eq!(sys.peek_materialized(src, 8), vec![0x02; 8], "newest write wins");
    assert_eq!(sys.peek_materialized(dst, SIZE as usize), pattern(SIZE as usize, 42));
}
