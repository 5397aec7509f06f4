//! Shared machinery for the bandwidth–latency ("Mess"-style) curves.
//!
//! A probe core runs a dependent pointer chase through a DRAM-resident
//! buffer — one load in flight at a time, so its per-step latency is the
//! *loaded* memory latency. Background cores inject copy traffic at a
//! controlled rate: each chases its own pacer pointer chain and emits a
//! burst of `burst` copy line operations per chase step, so the injected
//! bandwidth scales with the burst size. The copies run either as native
//! memcpy (64 B load + store per line) or through (MC)² (MCLAZY, then
//! reads of the lazy destination).
//!
//! The `mess_curves` figure ([`crate::figs::FIGURES`]), the scheduler
//! tests and the `perfbench` host-speed benchmark all build their points
//! here, so they simulate the same jobs and format the same rows.

use crate::{f3, marker0, ns, Job, CYCLES_PER_NS};
use mcs_sim::addr::{PhysAddr, CACHELINE};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::program::{Fetch, Program};
use mcs_sim::stats::RunStats;
use mcs_sim::uop::{StatTag, StoreData, Uop, UopId, UopKind};
use mcs_workloads::Pokes;
use mcsquare::McSquareConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Build a pointer-chase chain over `bytes` at `buf`: each 64 B line's
/// first 8 bytes hold the absolute address of the next line in a
/// Fisher–Yates-shuffled single cycle. Returns the first address.
pub fn chase_chain(buf: PhysAddr, bytes: u64, seed: u64, pokes: &mut Pokes) -> u64 {
    let lines = (bytes / CACHELINE) as usize;
    let mut order: Vec<usize> = (0..lines).collect();
    let mut rng = seed | 1;
    for i in (1..lines).rev() {
        // xorshift64: deterministic, no external dependency.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        order.swap(i, (rng % (i as u64 + 1)) as usize);
    }
    let mut image = vec![0u8; bytes as usize];
    for k in 0..lines {
        let here = order[k] * CACHELINE as usize;
        let next = buf.0 + (order[(k + 1) % lines] as u64) * CACHELINE;
        image[here..here + 8].copy_from_slice(&next.to_le_bytes());
    }
    pokes.add(buf, image);
    buf.0 + (order[0] as u64) * CACHELINE
}

/// Dependent pointer-chase probe: exactly one load in flight at a time,
/// so the marker-bracketed span divided by the step count is the loaded
/// round-trip latency. Sets `stop` when done so the background load
/// generators wind down with it.
struct ChaseProgram {
    stop: Arc<AtomicBool>,
    cur: u64,
    steps_left: u64,
    pending: Option<UopId>,
    state: u8,
}

impl Program for ChaseProgram {
    fn fetch(&mut self, next_id: UopId) -> Fetch {
        match self.state {
            0 => {
                self.state = 1;
                Fetch::Uop(Uop::new(UopKind::Marker { id: 0 }, StatTag::App))
            }
            1 => {
                if self.pending.is_some() {
                    return Fetch::Stall;
                }
                if self.steps_left == 0 {
                    self.state = 2;
                    self.stop.store(true, Ordering::Relaxed);
                    return Fetch::Uop(Uop::new(UopKind::Marker { id: 1 }, StatTag::App));
                }
                self.steps_left -= 1;
                self.pending = Some(next_id);
                Fetch::Uop(Uop::new(
                    UopKind::Load { addr: PhysAddr(self.cur), size: 8 },
                    StatTag::App,
                ))
            }
            _ => Fetch::Done,
        }
    }

    fn on_load_complete(&mut self, id: UopId, data: &[u8]) {
        if self.pending == Some(id) {
            self.pending = None;
            self.cur = u64::from_le_bytes(data[..8].try_into().expect("8B pointer load"));
        }
    }
}

/// Paced background copy traffic. Each round dispatches one dependent
/// pacer-chase load plus a burst of `burst` copy line operations, then
/// stalls until the pacer load returns: the injected rate is
/// `burst` line-ops per memory round trip, so the burst size is the load
/// knob. Copy passes rotate over a pool of (src, dst) buffer pairs and
/// loop until the probe raises `stop`.
struct PacedCopyProgram {
    stop: Arc<AtomicBool>,
    lazy: bool,
    pairs: Vec<(u64, u64)>,
    lines: u64,
    burst: u32,
    pair: usize,
    line: u64,
    pacer_cur: u64,
    pending: Option<UopId>,
    queue: VecDeque<Uop>,
}

impl PacedCopyProgram {
    fn refill_burst(&mut self) {
        for _ in 0..self.burst {
            let (src, dst) = self.pairs[self.pair];
            if self.lazy && self.line == 0 {
                self.queue.push_back(Uop::new(
                    UopKind::Mclazy {
                        dst: PhysAddr(dst),
                        src: PhysAddr(src),
                        size: self.lines * CACHELINE,
                    },
                    StatTag::Memcpy,
                ));
            }
            let off = self.line * CACHELINE;
            if self.lazy {
                self.queue.push_back(Uop::new(
                    UopKind::Load { addr: PhysAddr(dst + off), size: 8 },
                    StatTag::App,
                ));
            } else {
                self.queue.push_back(Uop::new(
                    UopKind::Load { addr: PhysAddr(src + off), size: 64 },
                    StatTag::Memcpy,
                ));
                self.queue.push_back(Uop::new(
                    UopKind::Store {
                        addr: PhysAddr(dst + off),
                        size: 64,
                        data: StoreData::Splat(0xab),
                        nontemporal: false,
                    },
                    StatTag::Memcpy,
                ));
            }
            self.line += 1;
            if self.line == self.lines {
                self.line = 0;
                self.pair = (self.pair + 1) % self.pairs.len();
            }
        }
    }
}

impl Program for PacedCopyProgram {
    fn fetch(&mut self, next_id: UopId) -> Fetch {
        if let Some(u) = self.queue.pop_front() {
            return Fetch::Uop(u);
        }
        if self.pending.is_some() {
            return Fetch::Stall;
        }
        if self.stop.load(Ordering::Relaxed) {
            return Fetch::Done;
        }
        // New round: the pacer load goes out first, the burst streams
        // behind it while it is in flight.
        self.refill_burst();
        self.pending = Some(next_id);
        Fetch::Uop(Uop::new(
            UopKind::Load { addr: PhysAddr(self.pacer_cur), size: 8 },
            StatTag::App,
        ))
    }

    fn on_load_complete(&mut self, id: UopId, data: &[u8]) {
        if self.pending == Some(id) {
            self.pending = None;
            self.pacer_cur = u64::from_le_bytes(data[..8].try_into().expect("8B pointer load"));
        }
    }
}

/// Sweep dimensions of one curve point.
#[derive(Clone)]
pub struct Point {
    /// Memory technology under test.
    pub tech: MemTech,
    /// Copies through (MC)² (`true`) or native memcpy (`false`).
    pub lazy: bool,
    /// Copy line-ops injected per background-core memory round trip.
    pub burst: u32,
}

/// Workload sizing of a sweep.
pub struct Scale {
    /// Probe pointer-chase buffer size.
    pub chase_bytes: u64,
    /// Probe chase steps (latency sample count).
    pub steps: u64,
    /// Background copy cores.
    pub bg_cores: usize,
    /// Bytes per copy buffer.
    pub pair_bytes: u64,
    /// (src, dst) buffer pairs rotated per background core.
    pub pairs_per_core: usize,
    /// Burst-size ladder swept per (tech, mode).
    pub bursts: Vec<u32>,
}

impl Scale {
    /// The seconds-long CI variant (`--smoke`).
    pub fn smoke() -> Scale {
        Scale {
            chase_bytes: 4 << 20,
            steps: 1_500,
            bg_cores: 2,
            pair_bytes: 256 << 10,
            pairs_per_core: 2,
            bursts: vec![0, 4, 32],
        }
    }

    /// The full committed-results variant.
    pub fn full() -> Scale {
        Scale {
            chase_bytes: 8 << 20,
            steps: 10_000,
            bg_cores: 4,
            pair_bytes: 512 << 10,
            pairs_per_core: 4,
            bursts: vec![0, 1, 2, 4, 8, 16, 32, 64, 128],
        }
    }
}

/// The full sweep grid for `scale`: every technology × mode × burst.
pub fn points(scale: &Scale) -> Vec<Point> {
    MemTech::ALL
        .iter()
        .flat_map(|&tech| {
            [false, true].into_iter().flat_map({
                let bursts = scale.bursts.clone();
                move |lazy| {
                    bursts.clone().into_iter().map(move |burst| Point { tech, lazy, burst })
                }
            })
        })
        .collect()
}

/// Build the simulation job for one curve point.
pub fn job_for(p: &Point, sc: &Scale) -> Job {
    let mut space = AddrSpace::dram_3gb();
    let mut pokes = Pokes::default();
    let stop = Arc::new(AtomicBool::new(false));
    let chase_buf = space.alloc_page(sc.chase_bytes);
    let start = chase_chain(chase_buf, sc.chase_bytes, 0x9e37_79b9, &mut pokes);
    let probe = ChaseProgram {
        stop: stop.clone(),
        cur: start,
        steps_left: sc.steps,
        pending: None,
        state: 0,
    };
    let mut programs: Vec<Box<dyn Program>> = vec![Box::new(probe)];
    let lines = sc.pair_bytes / CACHELINE;
    for b in 0..sc.bg_cores {
        let pacer_buf = space.alloc_page(sc.chase_bytes / 2);
        let pacer_cur =
            chase_chain(pacer_buf, sc.chase_bytes / 2, 0xc2b2_ae35 + b as u64, &mut pokes);
        let pairs: Vec<(u64, u64)> = (0..sc.pairs_per_core)
            .map(|_| (space.alloc_page(sc.pair_bytes).0, space.alloc_page(sc.pair_bytes).0))
            .collect();
        programs.push(Box::new(PacedCopyProgram {
            stop: stop.clone(),
            lazy: p.lazy,
            pairs,
            lines,
            burst: p.burst,
            pair: 0,
            line: 0,
            pacer_cur,
            pending: None,
            queue: VecDeque::new(),
        }));
    }
    let mut cfg = SystemConfig::builder().tech(p.tech).build();
    cfg.cores = programs.len();
    Job {
        cfg,
        mc2: p.lazy.then(McSquareConfig::default),
        programs,
        pokes,
        max_cycles: 40_000_000_000,
    }
}

fn total_accesses(stats: &RunStats) -> u64 {
    stats
        .mcs
        .iter()
        .map(|m| m.reads + m.writes + m.engine_reads + m.engine_writes)
        .sum()
}

/// Format one TSV data row exactly as the `mess_curves` figure emits it,
/// so callers can byte-compare re-simulated rows against the committed
/// file.
pub fn row_for(p: &Point, sc: &Scale, stats: &RunStats) -> Vec<String> {
    let bytes = total_accesses(stats) * CACHELINE;
    let bw_gbps = bytes as f64 * CYCLES_PER_NS / stats.cycles as f64;
    let lat_ns = ns(marker0(stats)) / sc.steps as f64;
    let mc = stats
        .mcs
        .iter()
        .fold((0u64, 0u64), |a, m| (a.0 + m.demand_read_lat_sum, a.1 + m.demand_reads_done));
    let mc_read_ns = mc.0.checked_div(mc.1).map_or(0.0, ns);
    vec![
        p.tech.name().into(),
        if p.lazy { "mcsquare" } else { "memcpy" }.into(),
        p.burst.to_string(),
        f3(bw_gbps),
        f3(lat_ns),
        f3(mc_read_ns),
    ]
}
