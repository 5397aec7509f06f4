//! The benchmark's workloads: each is a fixed list of simulation jobs
//! built with the repository's public constructors, plus what each job's
//! output is checked against.
//!
//! The sizes are chosen so that one pass over a workload's jobs takes a
//! few seconds on one host thread, which lets a run repeat every job
//! several times and report medians (see README.md).

use mcs_bench::figs::{fig10_job, fig10_mechs, fig12_job, fig12_variants, FIG10_SIZES, FIG12_SIZE};
use mcs_bench::mess::{chase_chain, job_for, Point, Scale};
use mcs_bench::Job;
use mcs_sim::addr::PhysAddr;
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::{MemTech, SystemConfig};
use mcs_sim::program::{FixedProgram, Program};
use mcs_workloads::micro::src_write_stress;
use mcs_workloads::mvcc::{mvcc_multithread, MvccConfig, UpdateKind};
use mcs_workloads::{CopyMech, Pokes};
use mcsquare::McSquareConfig;

/// The `--seed` whose inputs are the ones the committed figures used.
pub const DEFAULT_SEED: u64 = 0;
/// A second seed whose outputs are pinned but was never used for tuning.
pub const HELD_OUT_SEED: u64 = 1;

/// Fig. 12 destination fractions run by `lazy_read`: only the full
/// stream, where every destination line goes through the engine's read
/// path. Each fraction needs its own memcpy baseline, which costs as much
/// host time as the three (MC)² jobs together, so more fractions would not
/// fit a short pass.
pub const LAZY_READ_FRACS: [f64; 1] = [1.0];
/// Fig. 16 update fractions run by `lazy_write` (8 threads).
pub const LAZY_WRITE_FRACS: [f64; 3] = [0.0625, 0.25, 1.0];
/// Fig. 21 buffer size and BPQ sizes run by `lazy_write`.
pub const FIG21_SIZE: u64 = 256 << 10;
/// BPQ entries of the Fig. 21 jobs; the first is the normalisation base.
pub const FIG21_BPQS: [usize; 2] = [1, 2];
/// Mess injection point: past the knee of every committed curve.
pub const MESS_BURST: u32 = 16;
/// Probe chase steps per Mess job (the committed curves use 10,000).
pub const MESS_STEPS: u64 = 1_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 10 copy-latency grid: one core stalls on memory.
    CopyLat,
    /// Fig. 12 lazy copy then streaming destination reads.
    LazyRead,
    /// Fig. 16 8-thread MVCC plus Fig. 21 source overwrites.
    LazyWrite,
    /// Mess bandwidth–latency points at saturating injection.
    MessBw,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 4] = [
        Workload::CopyLat,
        Workload::LazyRead,
        Workload::LazyWrite,
        Workload::MessBw,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CopyLat => "copy_lat",
            Workload::LazyRead => "lazy_read",
            Workload::LazyWrite => "lazy_write",
            Workload::MessBw => "mess_bw",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether `--seed` changes this workload's inputs.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::LazyWrite | Workload::MessBw)
    }

    /// The workload's jobs for `seed`, in run order. Jobs that others are
    /// normalised against come first.
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        match self {
            Workload::CopyLat => copy_lat(),
            Workload::LazyRead => lazy_read(),
            Workload::LazyWrite => lazy_write(seed),
            Workload::MessBw => mess_bw(seed),
        }
    }
}

/// What a job's output is checked against.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Cell `col` (1-based) of the `results/fig10.tsv` row for `size`.
    Fig10 { size: u64, col: usize },
    /// Cell `col` of the `results/fig12.tsv` row for `frac`, normalised to
    /// the memcpy job (`col == 1`) of the same fraction.
    Fig12 { frac: f64, col: usize },
    /// An 8-thread Fig. 16 job; checked by its pinned digest (the
    /// committed `results/fig16.tsv` predates the current simulator). The
    /// lazy job's memory image is compared with its eager twin's.
    Fig16 { frac: f64, lazy: bool },
    /// The `bpq<n>` cell of the `results/fig21.tsv` row, normalised to the
    /// first BPQ size.
    Fig21 { bpq: usize },
    /// A Mess point; (MC)² must reach more bandwidth than memcpy on the
    /// same technology, as in every committed curve.
    Mess { tech: MemTech, lazy: bool },
}

/// Bytes a job's final (materialised) memory image must hold.
#[derive(Debug, Clone)]
pub enum Image {
    /// `[addr, addr + len)` must equal `common::pattern(len, seed)`, the
    /// bytes the generator poked into the copy source.
    Pattern { addr: PhysAddr, len: u64, seed: u8 },
    /// `[addr, addr + len)` is hashed line by line and compared with a
    /// twin job's.
    Twin(PhysAddr, u64),
}

/// One simulation job of a workload.
pub struct Spec {
    /// Stable key, used for pinned references.
    pub name: String,
    /// Output check.
    pub kind: Kind,
    /// Memory-image check, made once per job per run.
    pub image: Option<Image>,
    gen: Box<dyn Fn() -> Job>,
}

impl Spec {
    /// Generate the job's inputs (uops, memory initialisation, config).
    /// Refresh and fault injection are forced off, so the benchmark never
    /// depends on process-wide options.
    pub fn generate(&self) -> Job {
        let mut job = (self.gen)();
        job.cfg.dram.t_refi = 0;
        job.cfg.fault = mcs_sim::fault::FaultPlan::none();
        job
    }
}

fn copy_lat() -> Vec<Spec> {
    let mut out = Vec::new();
    for (col, (name, mech, touch)) in fig10_mechs().into_iter().enumerate() {
        for size in FIG10_SIZES {
            // Mirror `copy_latency`'s two allocations to find the buffers.
            let mut space = AddrSpace::dram_3gb();
            space.alloc_page(size.max(4096));
            let dst = space.alloc_page(size.max(4096));
            // zIO elides the copy by remapping pages, so only the others
            // leave the source bytes in the destination.
            let image = (name != "zio").then_some(Image::Pattern {
                addr: dst,
                len: size,
                seed: 3,
            });
            let mech2 = mech.clone();
            out.push(Spec {
                name: format!("fig10/{name}/{size}"),
                kind: Kind::Fig10 { size, col: col + 1 },
                image,
                gen: Box::new(move || fig10_job(&mech2, size, touch)),
            });
        }
    }
    out
}

fn lazy_read() -> Vec<Spec> {
    let variants: Vec<(usize, _)> = fig12_variants()
        .into_iter()
        .enumerate()
        .filter(|(_, v)| v.name != "zio")
        .collect();
    let mut out = Vec::new();
    for frac in LAZY_READ_FRACS {
        for (i, v) in &variants {
            let mut space = AddrSpace::dram_3gb();
            space.alloc_page(FIG12_SIZE + 4096);
            let dst = space.alloc_page(FIG12_SIZE);
            let v2 = v.clone();
            out.push(Spec {
                name: format!("fig12/{}/{}", v.name, frac),
                kind: Kind::Fig12 { frac, col: i + 1 },
                image: Some(Image::Pattern {
                    addr: dst,
                    len: FIG12_SIZE,
                    seed: 11,
                }),
                gen: Box::new(move || fig12_job(&v2, frac)),
            });
        }
    }
    out
}

/// The MVCC key-stream seed of the `part`-th Fig. 16 fraction for `seed`
/// (the committed Fig. 16 used the default one throughout). Each fraction
/// draws its own stream: how many transactions update is random, and the
/// busiest of eight threads sets a job's length, so independent streams
/// keep a pass's total work from swinging with one draw.
fn mvcc_seed(seed: u64, part: usize) -> u64 {
    let base = MvccConfig::default().seed;
    if seed == DEFAULT_SEED {
        base
    } else {
        base ^ mix(seed ^ ((part as u64) << 40))
    }
}

/// The Fig. 16 8-thread job, built exactly as the `fig16` binary does.
fn fig16_job(frac: f64, lazy: bool, seed: u64, part: usize) -> Job {
    let mut space = AddrSpace::dram_3gb();
    let wcfg = MvccConfig {
        tuples: 32,
        tuple_size: 8192,
        txns: 48,
        kind: UpdateKind::Rmw,
        update_frac: frac,
        seed: mvcc_seed(seed, part),
        ..MvccConfig::default()
    };
    let mech = if lazy {
        CopyMech::McSquare { threshold: 0 }
    } else {
        CopyMech::Native
    };
    let progs = mvcc_multithread(mech, &wcfg, 8, &mut space);
    let mut cfg = SystemConfig::table1();
    cfg.cores = 8;
    let mut pokes = Pokes::default();
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    for (u, p) in progs {
        programs.push(Box::new(FixedProgram::new(u)));
        pokes.0.extend(p.0);
    }
    Job {
        cfg,
        mc2: lazy.then(McSquareConfig::default),
        programs,
        pokes,
        max_cycles: 40_000_000_000,
    }
}

/// Bytes the Fig. 16 job allocates from the start of simulated DRAM.
fn fig16_footprint() -> u64 {
    let mut space = AddrSpace::dram_3gb();
    let before = space.remaining();
    let wcfg = MvccConfig {
        tuples: 32,
        tuple_size: 8192,
        txns: 1,
        ..MvccConfig::default()
    };
    mvcc_multithread(CopyMech::Native, &wcfg, 8, &mut space);
    before - space.remaining()
}

fn lazy_write(seed: u64) -> Vec<Spec> {
    let base = AddrSpace::dram_3gb().alloc_page(0);
    let footprint = fig16_footprint();
    let mut out = Vec::new();
    for (part, frac) in LAZY_WRITE_FRACS.into_iter().enumerate() {
        for lazy in [false, true] {
            out.push(Spec {
                name: format!("fig16/{}/{frac}", if lazy { "mcsquare" } else { "memcpy" }),
                kind: Kind::Fig16 { frac, lazy },
                image: Some(Image::Twin(base, footprint)),
                gen: Box::new(move || fig16_job(frac, lazy, seed, part)),
            });
        }
    }
    for bpq in FIG21_BPQS {
        let mut space = AddrSpace::dram_3gb();
        space.alloc_page(FIG21_SIZE);
        let dst = space.alloc_page(FIG21_SIZE);
        out.push(Spec {
            name: format!("fig21/{FIG21_SIZE}/bpq{bpq}"),
            kind: Kind::Fig21 { bpq },
            image: Some(Image::Pattern {
                addr: dst,
                len: FIG21_SIZE,
                seed: 23,
            }),
            gen: Box::new(move || {
                let mut space = AddrSpace::dram_3gb();
                let g = src_write_stress(FIG21_SIZE, &mut space);
                let mc2 = McSquareConfig {
                    bpq_entries: bpq,
                    ..McSquareConfig::default()
                };
                Job::single(SystemConfig::table1_one_core(), Some(mc2), g.uops, g.pokes)
            }),
        });
    }
    out
}

/// The reduced Mess scale: full-scale buffers and cores, fewer probe steps.
pub fn mess_scale() -> Scale {
    Scale {
        steps: MESS_STEPS,
        bursts: vec![MESS_BURST],
        ..Scale::full()
    }
}

/// A Mess job whose probe and pacer chase permutations come from `seed`.
/// At the default seed it is exactly `mess::job_for`'s job; otherwise each
/// chain image is replaced by another single-cycle permutation over the
/// same lines, so every program's start pointer stays valid.
fn mess_job(tech: MemTech, lazy: bool, seed: u64) -> Job {
    let sc = mess_scale();
    let mut job = job_for(
        &Point {
            tech,
            lazy,
            burst: MESS_BURST,
        },
        &sc,
    );
    if seed == DEFAULT_SEED {
        return job;
    }
    // Mirror `job_for`'s allocation order to locate the chase buffers.
    let mut space = AddrSpace::dram_3gb();
    let mut chains = vec![(space.alloc_page(sc.chase_bytes), sc.chase_bytes)];
    for _ in 0..sc.bg_cores {
        chains.push((space.alloc_page(sc.chase_bytes / 2), sc.chase_bytes / 2));
        for _ in 0..sc.pairs_per_core * 2 {
            space.alloc_page(sc.pair_bytes);
        }
    }
    for (i, (buf, bytes)) in chains.into_iter().enumerate() {
        let mut fresh = Pokes::default();
        chase_chain(buf, bytes, mix(seed ^ ((i as u64) << 32)), &mut fresh);
        let image = fresh.0.pop().expect("chase_chain pokes one image").1;
        let slot = job
            .pokes
            .0
            .iter_mut()
            .find(|(a, b)| *a == buf && b.len() == image.len())
            .expect("job_for pokes each chase buffer once");
        slot.1 = image;
    }
    job
}

fn mess_bw(seed: u64) -> Vec<Spec> {
    let mut out = Vec::new();
    for tech in MemTech::ALL {
        for lazy in [false, true] {
            out.push(Spec {
                name: format!(
                    "mess/{}/{}",
                    tech.name(),
                    if lazy { "mcsquare" } else { "memcpy" }
                ),
                kind: Kind::Mess { tech, lazy },
                image: None,
                gen: Box::new(move || mess_job(tech, lazy, seed)),
            });
        }
    }
    out
}

/// SplitMix64 finaliser: spreads a small seed over 64 bits.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
