//! Microbenchmark workloads: Figs. 10–13 and 21.
//!
//! * [`copy_latency`] — copy latency vs. size for the four mechanisms of
//!   Fig. 10 (native, touched, zIO, (MC)²);
//! * [`lazy_overhead_parts`] — the Fig. 11 breakdown: CLWB writebacks vs.
//!   the MCLAZY packet send;
//! * [`seq_access`] — copy 4 MB, then stream over a fraction of the
//!   destination (Fig. 12), with aligned/misaligned variants;
//! * [`PointerChaseProgram`] — the Fig. 13 random (dependent) access
//!   pattern;
//! * [`src_write_stress`] — overwrite a lazily copied source and flush,
//!   bringing BPQ back-pressure into the critical path (Fig. 21).

use crate::common::{fence, marker, pattern, read_region, Copier, CopyMech, Pokes};
use mcs_sim::addr::{PhysAddr, CACHELINE};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::program::{Fetch, Program};
use mcs_sim::uop::{StatTag, Uop, UopId, UopKind};
use mcsquare::software::{memcpy_lazy_uops, LazyOpts};

/// A generated single-core workload: the uop stream plus the memory
/// initialisation it expects.
#[derive(Debug)]
pub struct Generated {
    /// The program.
    pub uops: Vec<Uop>,
    /// Initial memory contents.
    pub pokes: Pokes,
    /// Buffers of interest (dst, src) for validation.
    pub dst: PhysAddr,
    /// Source buffer base.
    pub src: PhysAddr,
}

/// Fig. 10: one timed copy of `size` bytes with mechanism `mech`.
/// `touch_first` adds the source-warming pass ("Touched memcpy"). The
/// timed section is bracketed by markers 0/1.
pub fn copy_latency(
    mech: CopyMech,
    size: u64,
    touch_first: bool,
    space: &mut AddrSpace,
) -> Generated {
    let src = space.alloc_page(size.max(4096));
    let dst = space.alloc_page(size.max(4096));
    let mut uops = Vec::new();
    let mut copier = Copier::new(mech);
    if touch_first {
        uops.extend(mcs_baselines::touched::touch_uops(src, size, StatTag::App));
        fence(&mut uops, StatTag::App);
    }
    marker(&mut uops, 0);
    copier.copy(&mut uops, dst, src, size);
    marker(&mut uops, 1);
    let mut pokes = Pokes::default();
    pokes.add(src, pattern(size as usize, 3));
    Generated { uops, pokes, dst, src }
}

/// Fig. 11: the two overhead components of `memcpy_lazy`, measured by
/// running the wrapper with only one component active. Returns
/// (writeback-only uops, packet-only uops), each bracketed by markers.
pub fn lazy_overhead_parts(size: u64, space: &mut AddrSpace) -> (Generated, Generated) {
    let mk = |clwb: bool, space: &mut AddrSpace| {
        let src = space.alloc_page(size.max(4096));
        let dst = space.alloc_page(size.max(4096));
        let mut uops = Vec::new();
        marker(&mut uops, 0);
        if clwb {
            // CLWB component: the writebacks plus the ordering fence.
            for line in mcs_sim::addr::lines_of(src, size) {
                uops.push(Uop::new(UopKind::Clwb { addr: line }, StatTag::Memcpy));
            }
            fence(&mut uops, StatTag::Memcpy);
        } else {
            // Packet component: the MCLAZY sends without CLWBs.
            let opts = LazyOpts { clwb_sources: false, ..LazyOpts::default() };
            uops.extend(memcpy_lazy_uops(uops.len() as u64, dst, src, size, &opts));
        }
        marker(&mut uops, 1);
        let mut pokes = Pokes::default();
        pokes.add(src, pattern(size as usize, 5));
        Generated { uops, pokes, dst, src }
    };
    (mk(true, space), mk(false, space))
}

/// Fig. 12: copy `size` bytes then sequentially read the first
/// `accessed_frac` of the destination. `misalign` offsets the source by 20
/// bytes so every destination line needs two bounces. The timed section
/// (markers 0/1) covers the copy *and* the accesses, matching the paper's
/// "runtime" metric.
pub fn seq_access(
    mech: CopyMech,
    size: u64,
    accessed_frac: f64,
    misalign: bool,
    space: &mut AddrSpace,
) -> Generated {
    let src_base = space.alloc_page(size + 4096);
    let src = if misalign { src_base.add(20) } else { src_base };
    let dst = space.alloc_page(size);
    let mut uops = Vec::new();
    let mut copier = Copier::new(mech);
    marker(&mut uops, 0);
    copier.copy(&mut uops, dst, src, size);
    let read_bytes = ((size as f64 * accessed_frac) as u64) / CACHELINE * CACHELINE;
    if read_bytes > 0 {
        copier.before_access(&mut uops, dst, read_bytes);
        read_region(&mut uops, dst, read_bytes, StatTag::App);
    }
    fence(&mut uops, StatTag::App);
    marker(&mut uops, 1);
    let mut pokes = Pokes::default();
    pokes.add(src, pattern(size as usize, 11));
    Generated { uops, pokes, dst, src }
}

/// Fig. 13's dependent-access phase: a pointer chase where each 64B
/// element's first 8 bytes hold the *byte offset* of the next element.
/// Dependent loads defeat both prefetching and memory-level parallelism,
/// putting the full (possibly bounced) memory latency on the critical
/// path.
pub struct PointerChaseProgram {
    prologue: std::vec::IntoIter<Uop>,
    base: PhysAddr,
    next_off: Option<u64>,
    steps_left: u64,
    waiting: Option<UopId>,
    zio_fault_uops: Vec<Uop>,
    epilogue: Vec<Uop>,
    epilogue_emitted: bool,
    zio: Option<mcs_baselines::zio::Zio>,
}

impl std::fmt::Debug for PointerChaseProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PointerChaseProgram({} steps left)", self.steps_left)
    }
}

impl PointerChaseProgram {
    /// Build the Fig. 13 workload: copy `size` bytes with `mech`, then
    /// chase `steps` pointers through the destination. Returns the
    /// program plus the pokes (which include the permutation).
    ///
    /// Elements are 8 bytes (the paper chases array indices, so each
    /// cacheline holds eight elements and is revisited over the walk —
    /// which is what makes the post-bounce writeback optimisation matter:
    /// without it every revisit of an evicted line bounces again). The
    /// permutation is a single random cycle over all elements, so any
    /// prefix of the walk visits distinct elements ("every index is
    /// unique", §V-A2).
    pub fn build(
        mech: CopyMech,
        size: u64,
        steps: u64,
        misalign: bool,
        seed: u64,
        space: &mut AddrSpace,
    ) -> (PointerChaseProgram, Pokes, PhysAddr) {
        use rand::seq::SliceRandom;
        let src_base = space.alloc_page(size + 4096);
        let src = if misalign { src_base.add(20) } else { src_base };
        let dst = space.alloc_page(size);
        let n = size / 8;
        // Random cycle: visit order = shuffled elements linked circularly.
        let mut order: Vec<u64> = (0..n).collect();
        let mut r = crate::dist::rng(seed);
        order.shuffle(&mut r);
        let mut image = pattern(size as usize, 17);
        for w in 0..n {
            let cur = order[w as usize];
            let nxt = order[((w + 1) % n) as usize];
            image[(cur * 8) as usize..(cur * 8 + 8) as usize]
                .copy_from_slice(&(nxt * 8).to_le_bytes());
        }
        let mut pokes = Pokes::default();
        pokes.add(src, image);

        let is_zio = matches!(mech, CopyMech::Zio);
        let mut copier = Copier::new(mech);
        let mut prologue = Vec::new();
        marker(&mut prologue, 0);
        copier.copy(&mut prologue, dst, src, size);
        fence(&mut prologue, StatTag::App);
        // For zIO the chase faults page by page; carry the runtime along.
        let zio = if is_zio {
            let mut z = mcs_baselines::zio::Zio::with_defaults();
            let mut tmp = Vec::new();
            // Rebuild prologue under a private zio so fault state is ours.
            marker(&mut tmp, 0);
            let mut fix = z.access_fixups(tmp.len() as u64, src, size);
            tmp.append(&mut fix);
            let mut cp = z.memcpy_uops(tmp.len() as u64, dst, src, size);
            tmp.append(&mut cp);
            fence(&mut tmp, StatTag::App);
            prologue = tmp;
            Some(z)
        } else {
            None
        };

        let mut epilogue = Vec::new();
        marker(&mut epilogue, 1);
        let start = order[0] * CACHELINE;
        (
            PointerChaseProgram {
                prologue: prologue.into_iter(),
                base: dst,
                next_off: Some(start),
                steps_left: steps,
                waiting: None,
                zio_fault_uops: Vec::new(),
                epilogue,
                epilogue_emitted: false,
                zio,
            },
            pokes,
            dst,
        )
    }
}

impl Program for PointerChaseProgram {
    fn fetch(&mut self, next_id: UopId) -> Fetch {
        if let Some(u) = self.prologue.next() {
            return Fetch::Uop(u);
        }
        if !self.zio_fault_uops.is_empty() {
            return Fetch::Uop(self.zio_fault_uops.remove(0));
        }
        if self.waiting.is_some() {
            return Fetch::Stall;
        }
        if self.steps_left == 0 {
            if self.epilogue_emitted {
                return Fetch::Done;
            }
            if let Some(u) = if self.epilogue.is_empty() {
                None
            } else {
                Some(self.epilogue.remove(0))
            } {
                if self.epilogue.is_empty() {
                    self.epilogue_emitted = true;
                }
                return Fetch::Uop(u);
            }
            self.epilogue_emitted = true;
            return Fetch::Done;
        }
        let off = self.next_off.take().expect("address ready");
        let addr = self.base.add(off);
        // zIO: fault the page in before touching it.
        if let Some(z) = self.zio.as_mut() {
            let fix = z.access_fixups(next_id, addr, 8);
            if !fix.is_empty() {
                self.next_off = Some(off);
                self.zio_fault_uops = fix;
                return Fetch::Uop(self.zio_fault_uops.remove(0));
            }
        }
        self.steps_left -= 1;
        self.waiting = Some(next_id);
        Fetch::Uop(Uop::new(UopKind::Load { addr, size: 8 }, StatTag::App))
    }

    fn on_load_complete(&mut self, id: UopId, data: &[u8]) {
        if self.waiting == Some(id) {
            self.waiting = None;
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[..8]);
            self.next_off = Some(u64::from_le_bytes(b));
        }
    }
}

/// Fig. 21: lazily copy `size` bytes, then overwrite the source and flush
/// each overwritten line, fencing at the end — the flush pushes the source
/// writes to the controller where the BPQ must absorb them.
pub fn src_write_stress(size: u64, space: &mut AddrSpace) -> Generated {
    let src = space.alloc_page(size);
    let dst = space.alloc_page(size);
    let mut uops = Vec::new();
    uops.extend(memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default()));
    marker(&mut uops, 0);
    for line in mcs_sim::addr::lines_of(src, size) {
        uops.push(Uop::new(
            UopKind::Store {
                addr: line,
                size: 64,
                data: mcs_sim::uop::StoreData::Splat(0xD1),
                nontemporal: false,
            },
            StatTag::App,
        ));
        uops.push(Uop::new(UopKind::Clwb { addr: line }, StatTag::App));
    }
    fence(&mut uops, StatTag::App);
    marker(&mut uops, 1);
    let mut pokes = Pokes::default();
    pokes.add(src, pattern(size as usize, 23));
    Generated { uops, pokes, dst, src }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sim::config::SystemConfig;
    use mcs_sim::program::FixedProgram;
    use mcs_sim::system::System;
    use mcsquare::{McSquareConfig, McSquareEngine};

    fn run_fixed(g: Generated, lazy: bool) -> (System, mcs_sim::stats::RunStats) {
        let cfg = SystemConfig::tiny();
        let mut sys = if lazy {
            let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
            System::with_engine(cfg, vec![Box::new(FixedProgram::new(g.uops))], Box::new(e))
        } else {
            System::new(cfg, vec![Box::new(FixedProgram::new(g.uops))])
        };
        g.pokes.apply(&mut sys);
        let st = sys.run(50_000_000).expect("finishes");
        (sys, st)
    }

    #[test]
    fn copy_latency_markers_bracket_work() {
        let mut space = AddrSpace::new(PhysAddr(1 << 20), 1 << 28);
        let g = copy_latency(CopyMech::Native, 1024, false, &mut space);
        let (_, st) = run_fixed(g, false);
        let lats = crate::common::marker_latencies(&st.cores[0]);
        assert_eq!(lats.len(), 1);
        assert!(lats[0] > 0);
    }

    #[test]
    fn touched_copy_is_faster_than_cold() {
        let mut space = AddrSpace::new(PhysAddr(1 << 20), 1 << 28);
        let cold = copy_latency(CopyMech::Native, 2048, false, &mut space);
        let warm = copy_latency(CopyMech::Native, 2048, true, &mut space);
        let (_, c) = run_fixed(cold, false);
        let (_, w) = run_fixed(warm, false);
        let lc = crate::common::marker_latencies(&c.cores[0])[0];
        let lw = crate::common::marker_latencies(&w.cores[0])[0];
        assert!(lw < lc, "cached source must copy faster ({lw} !< {lc})");
    }

    #[test]
    fn seq_access_reads_correct_data() {
        let mut space = AddrSpace::new(PhysAddr(1 << 20), 1 << 28);
        let g = seq_access(CopyMech::mcsquare_1k(), 8192, 1.0, true, &mut space);
        let (dst, want) = (g.dst, pattern(8192, 11));
        let (sys, _) = run_fixed(g, true);
        assert_eq!(sys.peek_materialized(dst, 8192), want);
    }

    #[test]
    fn pointer_chase_visits_all_when_full_fraction() {
        let mut space = AddrSpace::new(PhysAddr(1 << 20), 1 << 28);
        let size = 4096u64;
        let steps = size / 8;
        let (prog, pokes, dst) =
            PointerChaseProgram::build(CopyMech::Native, size, steps, false, 9, &mut space);
        let cfg = SystemConfig::tiny();
        let mut sys = System::new(cfg, vec![Box::new(prog)]);
        pokes.apply(&mut sys);
        let st = sys.run(50_000_000).expect("finishes");
        assert_eq!(st.cores[0].loads as u64, steps + size / 64 /* copy loads */);
        let _ = dst;
    }

    #[test]
    fn pointer_chase_lazy_matches_native_loads() {
        let mut space = AddrSpace::new(PhysAddr(1 << 20), 1 << 28);
        let size = 2048u64;
        let (prog, pokes, _) = PointerChaseProgram::build(
            CopyMech::mcsquare_1k(),
            size,
            size / 8,
            true,
            5,
            &mut space,
        );
        let cfg = SystemConfig::tiny();
        let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
        let mut sys = System::with_engine(cfg, vec![Box::new(prog)], Box::new(e));
        pokes.apply(&mut sys);
        let st = sys.run(50_000_000).expect("finishes — chase resolved through bounces");
        assert!(st.cycles > 0);
    }

    #[test]
    fn src_write_stress_preserves_copy() {
        let mut space = AddrSpace::new(PhysAddr(1 << 20), 1 << 28);
        let g = src_write_stress(512, &mut space);
        let (dst, src) = (g.dst, g.src);
        let (sys, _) = run_fixed(g, true);
        assert_eq!(sys.peek_materialized(dst, 512), pattern(512, 23), "copy sees pre-write data");
        assert_eq!(sys.peek_materialized(src, 64), vec![0xD1; 64], "source overwritten");
    }

    #[test]
    fn overhead_parts_both_nonzero() {
        let mut space = AddrSpace::new(PhysAddr(1 << 20), 1 << 28);
        let (wb, pk) = lazy_overhead_parts(1024, &mut space);
        let (_, sw) = run_fixed(wb, true);
        let (_, sp) = run_fixed(pk, true);
        let lw = crate::common::marker_latencies(&sw.cores[0])[0];
        let lp = crate::common::marker_latencies(&sp.cores[0])[0];
        assert!(lw > 0 && lp > 0);
    }
}
