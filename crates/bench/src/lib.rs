//! # mcs-bench — benchmark harness for the (MC)² evaluation
//!
//! Provides the plumbing every figure binary shares: building and running
//! simulated systems (optionally with the (MC)² engine), parallel
//! parameter sweeps, and tab-separated result tables written to stdout and
//! `results/figXX.tsv`, mirroring the paper artifact's output layout.

use mcs_sim::config::SystemConfig;
use mcs_sim::fault::FaultPlan;
use mcs_sim::program::{FixedProgram, Program};
use mcs_sim::stats::RunStats;
use mcs_sim::system::{SchedMode, System};
use mcs_sim::uop::Uop;
use mcs_sim::Cycle;
use mcs_workloads::Pokes;
use mcsquare::{McSquareConfig, McSquareEngine};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod figs;
pub mod mess;

/// CPU frequency of the Table I machine (cycles per nanosecond).
pub const CYCLES_PER_NS: f64 = 4.0;

/// Convert cycles to nanoseconds at 4 GHz.
pub fn ns(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_NS
}

/// Convert cycles to milliseconds at 4 GHz.
pub fn ms(cycles: u64) -> f64 {
    ns(cycles) / 1e6
}

/// One simulation job: a system configuration, per-core programs, memory
/// initialisation, and an optional (MC)² engine configuration.
pub struct Job {
    /// System configuration.
    pub cfg: SystemConfig,
    /// Engine configuration; `None` = baseline machine.
    pub mc2: Option<McSquareConfig>,
    /// One program per core (padded with idle programs if short).
    pub programs: Vec<Box<dyn Program>>,
    /// Memory initialisation.
    pub pokes: Pokes,
    /// Cycle budget.
    pub max_cycles: Cycle,
}

impl Job {
    /// Single-core job from a uop list.
    pub fn single(
        cfg: SystemConfig,
        mc2: Option<McSquareConfig>,
        uops: Vec<Uop>,
        pokes: Pokes,
    ) -> Job {
        Job {
            cfg,
            mc2,
            programs: vec![Box::new(FixedProgram::new(uops))],
            pokes,
            max_cycles: 20_000_000_000,
        }
    }

    /// Run to completion under `opts`: `refresh` enables DRAM refresh at
    /// the technology's canonical interval, `fault` arms its plan when the
    /// job's own plan is empty, `sched` selects the tick scheduler, and
    /// `trace` (with the `trace` feature) writes the job's trace outputs.
    /// With [`BenchOpts::default`] the job runs exactly as configured.
    ///
    /// # Panics
    /// Panics if the simulation exceeds the cycle budget (a bug, not a
    /// measurement).
    pub fn run(mut self, opts: &BenchOpts) -> RunStats {
        let _ = wall_start();
        let mut cfg = self.cfg;
        if opts.refresh {
            cfg.dram = cfg.dram.with_refresh();
        }
        if !opts.fault.is_empty() && cfg.fault.is_empty() {
            cfg.fault = opts.fault.clone();
        }
        while self.programs.len() < cfg.cores {
            self.programs.push(Box::new(mcs_sim::program::IdleProgram));
        }
        cfg.cores = self.programs.len();
        let mut sys = match &self.mc2 {
            Some(m) => {
                // Arm the engine-level fault classes too when the config
                // carries a fault plan (with an empty plan this is
                // identical to `McSquareEngine::new`).
                let engine = McSquareEngine::with_faults(m.clone(), cfg.channels, &cfg.fault);
                System::with_engine(cfg, self.programs, Box::new(engine))
            }
            None => System::new(cfg, self.programs),
        };
        self.pokes.apply(&mut sys);
        sys.set_sched_mode(opts.sched);
        #[cfg(feature = "trace")]
        if opts.trace.is_some() {
            mcs_trace::arm(mcs_trace::TraceConfig::default());
        }
        let stats = match sys.run(self.max_cycles) {
            Ok(stats) => stats,
            Err(e) => panic!("simulation stuck: {e}\n{}", sys.debug_dump()),
        };
        SIM_CYCLES.fetch_add(stats.cycles, Ordering::Relaxed);
        #[cfg(feature = "trace")]
        if let Some(base) = &opts.trace {
            if let Some(sink) = mcs_trace::take() {
                write_trace_outputs(base, &sink);
            }
        }
        stats
    }
}

/// Cumulative simulated cycles across every [`Job::run`] of this process.
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Cumulative simulated cycles across every [`Job::run`] so far — the
/// numerator of the throughput figure. `perf_smoke` samples this around
/// each benchmark to attribute cycles per bench.
pub fn sim_cycles() -> u64 {
    SIM_CYCLES.load(Ordering::Relaxed)
}

fn wall_start() -> &'static Instant {
    static WALL_START: OnceLock<Instant> = OnceLock::new();
    WALL_START.get_or_init(Instant::now)
}

/// Print the simulator's throughput — simulated cycles per wall-clock
/// second since the first job started — to stderr (so TSV output on
/// stdout stays clean). Every figure binary calls this as its last step.
pub fn print_sim_throughput() {
    let cycles = SIM_CYCLES.load(Ordering::Relaxed);
    let wall = wall_start().elapsed().as_secs_f64();
    if cycles == 0 || wall <= 0.0 {
        return;
    }
    eprintln!(
        "# simulated {:.3} Gcycles in {:.1} s wall ({:.1} Mcycles/s)",
        cycles as f64 / 1e9,
        wall,
        cycles as f64 / wall / 1e6,
    );
}

/// Write the armed trace sink's three consumer outputs next to `base`
/// (the `--trace=<base>` path): a Perfetto-loadable Chrome trace, the
/// epoch-sampled time series, and the per-class latency histograms. Each
/// job of a sweep gets its own numbered file set.
#[cfg(feature = "trace")]
fn write_trace_outputs(base: &str, sink: &mcs_trace::TraceSink) {
    static JOB_SEQ: AtomicU64 = AtomicU64::new(0);
    let stem = format!("{base}.job{}", JOB_SEQ.fetch_add(1, Ordering::Relaxed));
    write_or_panic(
        Path::new(&format!("{stem}.trace.json")),
        &mcs_trace::chrome::to_chrome_json(sink, CYCLES_PER_NS),
    );
    write_or_panic(Path::new(&format!("{stem}.series.tsv")), &sink.series.to_tsv(CYCLES_PER_NS));
    write_or_panic(Path::new(&format!("{stem}.hist.tsv")), &sink.hists.to_tsv());
    eprintln!(
        "# trace: wrote {stem}.{{trace.json,series.tsv,hist.tsv}} ({} events buffered, {} dropped)",
        sink.ring.len(),
        sink.ring.dropped(),
    );
}

/// Worker threads [`par_run`] runs at once: the host's available
/// parallelism, or 4 if it cannot be queried.
pub fn par_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Run a set of independent jobs under `opts` in parallel (one OS thread
/// each, capped at [`par_threads`]), preserving order.
pub fn par_run<T, F>(opts: &BenchOpts, points: Vec<T>, f: F) -> Vec<(T, RunStats)>
where
    T: Send + Clone,
    F: Fn(&T) -> Job + Sync,
{
    let max_par = par_threads();
    let mut out: Vec<Option<(T, RunStats)>> = (0..points.len()).map(|_| None).collect();
    let mut idx = 0;
    while idx < points.len() {
        let chunk_end = (idx + max_par).min(points.len());
        let chunk: Vec<(usize, T)> =
            (idx..chunk_end).map(|i| (i, points[i].clone())).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = chunk
                .into_iter()
                .map(|(i, p)| {
                    let f = &f;
                    s.spawn(move || {
                        let stats = f(&p).run(opts);
                        (i, p, stats)
                    })
                })
                .collect();
            for h in handles {
                let (i, p, stats) = h.join().expect("sweep worker panicked");
                out[i] = Some((p, stats));
            }
        });
        idx = chunk_end;
    }
    out.into_iter().map(|o| o.expect("filled")).collect()
}

/// A result table, printed as TSV and saved under `results/`.
#[derive(Debug, Clone)]
pub struct Table {
    /// Output name, e.g. "fig10".
    pub name: String,
    /// Free-text caption echoed as a `#` comment.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: &str, caption: &str, headers: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            caption: caption.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as TSV.
    pub fn render(&self) -> String {
        let mut s = format!("# {} — {}\n", self.name, self.caption);
        s.push_str(&self.headers.join("\t"));
        s.push('\n');
        for r in &self.rows {
            s.push_str(&r.join("\t"));
            s.push('\n');
        }
        s
    }

    /// Print to stdout and save to `results/<name>.tsv`.
    pub fn emit(&self) {
        let text = self.render();
        print!("{text}");
        let dir = Path::new("results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            panic!("cannot create {}: {e}", dir.display());
        }
        write_or_panic(&dir.join(format!("{}.tsv", self.name)), &text);
    }
}

/// Write a result file, panicking with its path on failure: a figure run
/// that cannot write its output must not exit 0 and leave a stale file.
fn write_or_panic(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        panic!("cannot write {}: {e}", path.display());
    }
}

/// The committed `results/<file>` of this source tree.
pub fn committed_tsv(file: &str) -> String {
    let path = format!("{}/../../results/{}", env!("CARGO_MANIFEST_DIR"), file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The data row of the committed `results/<file>` whose first `key.len()`
/// columns equal `key`.
pub fn committed_row(file: &str, key: &[&str]) -> String {
    committed_tsv(file)
        .lines()
        .find(|l| !l.starts_with('#') && l.split('\t').take(key.len()).eq(key.iter().copied()))
        .unwrap_or_else(|| panic!("no row keyed {key:?} in {file}"))
        .to_string()
}

/// Marker-0 latency of core 0: the bracketed section every single-core
/// figure measures.
///
/// # Panics
/// Panics if core 0 recorded no marker pair.
pub fn marker0(stats: &RunStats) -> u64 {
    mcs_workloads::common::marker_latencies(&stats.cores[0])[0]
}

/// Elapsed cycles of a multi-core run: the slowest of the first `cores`
/// cores' bracketed sections, falling back to the total run length when
/// no core recorded markers.
pub fn elapsed_cycles(stats: &RunStats, cores: usize) -> u64 {
    stats
        .cores
        .iter()
        .take(cores)
        .map(|c| mcs_workloads::common::marker_latencies(c).first().copied().unwrap_or(0))
        .max()
        .filter(|&m| m > 0)
        .unwrap_or(stats.cycles)
}

/// Transaction throughput in kOps/s at the Table I clock, over the
/// slowest core's bracketed section (Figs. 16–17).
pub fn throughput_kops(stats: &RunStats, txns_per_core: usize, cores: usize) -> f64 {
    let cycles = elapsed_cycles(stats, cores);
    (txns_per_core * cores) as f64 / (cycles as f64 / (CYCLES_PER_NS * 1e9)) / 1e3
}

/// Options shared by every figure binary, parsed from the command line.
/// Every binary calls [`BenchOpts::parse`] first thing in `main` and
/// passes the result to each [`Job::run`] (usually through [`par_run`]).
///
/// Recognised flags: `--smoke`, `--refresh`, `--faults`, `--trace=PATH`,
/// `--sched=tick|conservative|event`. Unknown arguments are ignored
/// (binaries may define their own).
#[derive(Clone, Debug, Default)]
pub struct BenchOpts {
    /// `--smoke`: the seconds-long CI variant of a sweep.
    pub smoke: bool,
    /// `--refresh`: enable DRAM refresh at each technology's canonical
    /// interval (off by default so published numbers are reproduced).
    pub refresh: bool,
    /// `--faults`: the mild every-class fault plan, armed on jobs that do
    /// not carry a plan of their own (empty = inject nothing).
    pub fault: FaultPlan,
    /// `--trace=PATH`: arm event tracing around each job and write
    /// `<PATH>.jobN.trace.json` plus companion series/histogram TSVs; see
    /// DESIGN.md, "Observability layer". Ignored when the `trace` feature
    /// is off.
    pub trace: Option<String>,
    /// `--sched=`: how the run loop advances simulated time.
    pub sched: SchedMode,
}

impl BenchOpts {
    /// Parse the process arguments.
    pub fn parse() -> BenchOpts {
        BenchOpts::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit argument list.
    ///
    /// # Panics
    /// Panics on an unknown `--sched=` mode.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> BenchOpts {
        let mut opts = BenchOpts::default();
        for a in args {
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--refresh" => opts.refresh = true,
                "--faults" => opts.fault = FaultPlan::mild(0xFA17),
                s if s.starts_with("--trace=") => {
                    let p = &s["--trace=".len()..];
                    opts.trace = (!p.is_empty()).then(|| p.to_string());
                }
                s if s.starts_with("--sched=") => {
                    opts.sched = match &s["--sched=".len()..] {
                        "tick" => SchedMode::TickByTick,
                        "conservative" => SchedMode::Conservative,
                        "event" => SchedMode::EventDriven,
                        other => panic!("unknown --sched mode {other:?} (tick|conservative|event)"),
                    };
                }
                _ => {} // binaries may define their own arguments
            }
        }
        opts
    }
}

/// Format a byte size the way the figures label their axes.
pub fn fmt_size(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 20 => format!("{}MB", b >> 20),
        b if b >= 1 << 10 => format!("{}KB", b >> 10),
        b => format!("{b}B"),
    }
}

/// Format a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sim::addr::PhysAddr;
    use mcs_sim::uop::{StatTag, UopKind};

    #[test]
    fn single_job_runs() {
        let uops = vec![Uop::new(
            UopKind::Load { addr: PhysAddr(0x1000), size: 8 },
            StatTag::App,
        )];
        let stats = Job::single(SystemConfig::tiny(), None, uops, Pokes::default())
            .run(&BenchOpts::default());
        assert_eq!(stats.cores[0].loads, 1);
    }

    #[test]
    fn par_run_preserves_order() {
        let points: Vec<u64> = (1..=6).collect();
        let results = par_run(&BenchOpts::default(), points.clone(), |&n| {
            let uops: Vec<Uop> = (0..n)
                .map(|i| {
                    Uop::new(
                        UopKind::Load { addr: PhysAddr(0x1000 + i * 64), size: 8 },
                        StatTag::App,
                    )
                })
                .collect();
            Job::single(SystemConfig::tiny(), None, uops, Pokes::default())
        });
        for (i, (p, st)) in results.iter().enumerate() {
            assert_eq!(*p, points[i]);
            assert_eq!(st.cores[0].loads, *p);
        }
    }

    /// A 256 KB memcpy on the pure one-core Table I machine: about 120k
    /// cycles, so it spans several DDR4 refresh intervals.
    fn copy_job() -> Job {
        let mut space = mcs_sim::alloc::AddrSpace::dram_3gb();
        let g = mcs_workloads::micro::copy_latency(
            mcs_workloads::CopyMech::Native,
            256 << 10,
            false,
            &mut space,
        );
        Job::single(SystemConfig::table1_one_core(), None, g.uops, g.pokes)
    }

    fn args(flags: &[&str]) -> BenchOpts {
        BenchOpts::from_args(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn from_args_parses_every_flag() {
        let o = args(&["--smoke", "--refresh", "--faults", "--trace=out/t", "--sched=tick"]);
        assert!(o.smoke && o.refresh);
        assert_eq!(o.fault, FaultPlan::mild(0xFA17));
        assert_eq!(o.trace.as_deref(), Some("out/t"));
        assert_eq!(o.sched, SchedMode::TickByTick);
        assert_eq!(args(&["--sched=conservative"]).sched, SchedMode::Conservative);
        assert_eq!(args(&["--sched=event"]).sched, SchedMode::EventDriven);
        assert_eq!(args(&["--trace="]).trace, None);
    }

    #[test]
    fn from_args_ignores_unknown_arguments() {
        let o = args(&["--size=4096", "positional", "--watchdog=100"]);
        assert!(!o.smoke && !o.refresh && o.fault.is_empty() && o.trace.is_none());
        assert_eq!(o.sched, SchedMode::EventDriven);
    }

    #[test]
    #[should_panic(expected = "unknown --sched mode")]
    fn from_args_rejects_bad_sched() {
        args(&["--sched=fast"]);
    }

    #[test]
    fn refresh_option_enables_refresh() {
        let opts = BenchOpts { refresh: true, ..BenchOpts::default() };
        let stats = copy_job().run(&opts);
        assert!(stats.mcs.iter().map(|m| m.refreshes).sum::<u64>() > 0);
    }

    #[test]
    fn fault_option_arms_the_plan() {
        let opts = BenchOpts { fault: FaultPlan::mild(0xFA17), ..BenchOpts::default() };
        let stats = copy_job().run(&opts);
        assert!(stats.mcs.iter().map(|m| m.fault_events()).sum::<u64>() > 0);
    }

    #[test]
    fn default_options_run_the_job_as_configured() {
        let via_job = copy_job().run(&BenchOpts::default());
        let job = copy_job();
        assert_eq!(job.cfg.dram.t_refi, 0);
        assert!(job.cfg.fault.is_empty());
        let mut sys = System::new(job.cfg, job.programs);
        job.pokes.apply(&mut sys);
        assert_eq!(via_job, sys.run(job.max_cycles).expect("the copy finishes"));
    }

    #[test]
    fn table_rendering() {
        let mut t = Table::new("test", "a caption", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("# test — a caption"));
        assert!(s.contains("a\tb"));
        assert!(s.contains("1\t2"));
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(64), "64B");
        assert_eq!(fmt_size(2048), "2KB");
        assert_eq!(fmt_size(4 << 20), "4MB");
    }

    #[test]
    fn unit_conversions() {
        assert!((ns(4000) - 1000.0).abs() < 1e-9);
        assert!((ms(4_000_000) - 1.0).abs() < 1e-9);
    }
}
