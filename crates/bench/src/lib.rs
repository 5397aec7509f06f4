//! # mcs-bench — benchmark harness for the (MC)² evaluation
//!
//! Provides the plumbing every figure shares: building and running
//! simulated systems (optionally with the (MC)² engine), one parallel
//! work queue, and tab-separated result tables written to stdout and
//! `results/figXX.tsv`, mirroring the paper artifact's output layout.
//! [`figs::FIGURES`] describes each figure as data; the `reproduce`
//! binary runs them.

use mcs_sim::config::SystemConfig;
use mcs_sim::program::{FixedProgram, Program};
use mcs_sim::stats::RunStats;
use mcs_sim::system::{SchedMode, System};
use mcs_sim::uop::Uop;
use mcs_sim::Cycle;
use mcs_workloads::Pokes;
use mcsquare::{McSquareConfig, McSquareEngine};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// Multi-core job on the Table I machine with one core per
    /// `(uops, pokes)` program, the pokes merged in core order.
    pub fn multi_core(mc2: Option<McSquareConfig>, progs: Vec<(Vec<Uop>, Pokes)>) -> Job {
        let cfg = SystemConfig { cores: progs.len(), ..SystemConfig::table1() };
        let mut pokes = Pokes::default();
        let mut programs: Vec<Box<dyn Program>> = Vec::with_capacity(progs.len());
        for (uops, p) in progs {
            programs.push(Box::new(FixedProgram::new(uops)));
            pokes.0.extend(p.0);
        }
        Job { cfg, mc2, programs, pokes, max_cycles: 40_000_000_000 }
    }

    /// Run to completion as it is configured, under `opts`: `sched`
    /// selects the tick scheduler, and `trace` (with the `trace` feature)
    /// writes the job's trace outputs, numbered 0.
    ///
    /// # Panics
    /// Panics if the simulation exceeds the cycle budget (a bug, not a
    /// measurement).
    pub fn run(self, opts: &BenchOpts) -> RunStats {
        self.run_numbered(opts, 0)
    }

    /// [`Job::run`] as job number `seq`, which names its trace files.
    fn run_numbered(mut self, opts: &BenchOpts, seq: usize) -> RunStats {
        #[cfg(not(feature = "trace"))]
        let _ = seq;
        let mut cfg = self.cfg;
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
        #[cfg(feature = "trace")]
        if let Some(base) = &opts.trace {
            if let Some(sink) = mcs_trace::take() {
                write_trace_outputs(base, seq, &sink);
            }
        }
        stats
    }
}

/// Write the armed trace sink's three consumer outputs next to `base`
/// (the `--trace=<base>` path): a Perfetto-loadable Chrome trace, the
/// epoch-sampled time series, and the per-class latency histograms. Each
/// job of a sweep gets its own file set, numbered `seq`.
#[cfg(feature = "trace")]
fn write_trace_outputs(base: &str, seq: usize, sink: &mcs_trace::TraceSink) {
    let stem = format!("{base}.job{seq}");
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

/// A simulation job not yet built: a worker calls it when it takes the
/// job, so a queue holds about one built job per worker at a time.
pub type JobFn = Box<dyn Fn() -> Job + Send + Sync>;

/// One finished job of a [`par_run`] queue.
pub struct Ran {
    /// The job's statistics.
    pub stats: RunStats,
    /// When a worker took the job (before building it).
    pub start: Instant,
    /// When the job finished.
    pub end: Instant,
}

/// Build and run `jobs` under `opts` in parallel, returning their
/// results in input order. [`par_threads`] workers share one queue: each
/// takes the next job index from an atomic counter as soon as it is free,
/// so a long job never holds the other workers at a barrier. Traced jobs
/// are numbered by their index in `jobs`, whichever worker runs them.
pub fn par_run(opts: &BenchOpts, jobs: &[JobFn]) -> Vec<Ran> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<Ran>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..par_threads().min(jobs.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(build) = jobs.get(i) else { break done };
                        let start = Instant::now();
                        let stats = build().run_numbered(opts, i);
                        done.push((i, Ran { stats, start, end: Instant::now() }));
                    }
                })
            })
            .collect();
        for w in workers {
            for (i, ran) in w.join().expect("sweep worker panicked") {
                out[i] = Some(ran);
            }
        }
    });
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
    /// `#` lines printed after the table on stdout but not saved.
    pub footer: Vec<String>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: &str, caption: &str, headers: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            caption: caption.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            footer: Vec::new(),
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

    /// Print to stdout, footer included, and save to
    /// `results/<name>.tsv` when `save`.
    pub fn emit(&self, save: bool) {
        let text = self.render();
        print!("{text}");
        for line in &self.footer {
            println!("{line}");
        }
        if !save {
            return;
        }
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

/// Options of a `reproduce` run, parsed from its command line and passed
/// to each [`Job::run`] (usually through [`par_run`]).
///
/// Recognised flags: `--only FIGS`, `--smoke`, `--trace=PATH`,
/// `--sched=tick|conservative|event`.
#[derive(Clone, Debug, Default)]
pub struct BenchOpts {
    /// `--only FIGS`: the comma-separated figures to run, by
    /// [`figs::Figure::name`]; empty runs every figure.
    pub only: Vec<String>,
    /// `--smoke`: the seconds-long CI variant of a sweep. Its tables go to
    /// stdout only, so the committed full-scale files stay as they are.
    pub smoke: bool,
    /// `--trace=PATH`: arm event tracing around each job and write
    /// `<PATH>.jobN.trace.json` plus companion series/histogram TSVs,
    /// where `N` is the job's index in its [`par_run`] queue;
    /// see DESIGN.md, "Observability layer". Ignored when the `trace`
    /// feature is off.
    pub trace: Option<String>,
    /// `--sched=`: how the run loop advances simulated time.
    pub sched: SchedMode,
}

/// The flags [`BenchOpts::from_args`] accepts, as its errors list them.
const USAGE: &str = "--only FIGS, --smoke, --trace=PATH, --sched=tick|conservative|event";

impl BenchOpts {
    /// Parse from an explicit argument list.
    ///
    /// # Errors
    /// An unknown argument, an unknown `--sched=` mode or an `--only`
    /// without figures; the message names the valid choices.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<BenchOpts, String> {
        let mut opts = BenchOpts::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--only" => {
                    let list = args.next().unwrap_or_default();
                    opts.only = list.split(',').filter(|f| !f.is_empty()).map(String::from).collect();
                    if opts.only.is_empty() {
                        return Err("--only needs a comma-separated list of figures".into());
                    }
                }
                s if s.starts_with("--trace=") => {
                    let p = &s["--trace=".len()..];
                    opts.trace = (!p.is_empty()).then(|| p.to_string());
                }
                s if s.starts_with("--sched=") => {
                    opts.sched = match &s["--sched=".len()..] {
                        "tick" => SchedMode::TickByTick,
                        "conservative" => SchedMode::Conservative,
                        "event" => SchedMode::EventDriven,
                        other => {
                            return Err(format!(
                                "unknown --sched mode {other:?} (tick|conservative|event)"
                            ))
                        }
                    };
                }
                other => return Err(format!("unknown argument {other:?}; valid: {USAGE}")),
            }
        }
        Ok(opts)
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

    /// A tiny-machine job loading `n` lines.
    fn loads(n: u64) -> Job {
        let load =
            |i| Uop::new(UopKind::Load { addr: PhysAddr(0x1000 + i * 64), size: 8 }, StatTag::App);
        Job::single(SystemConfig::tiny(), None, (0..n).map(load).collect(), Pokes::default())
    }

    #[test]
    fn single_job_runs() {
        assert_eq!(loads(1).run(&BenchOpts::default()).cores[0].loads, 1);
    }

    /// Run one job per point, each loading `n` lines, and check that the
    /// results come back in input order.
    fn assert_par_run_in_order(points: Vec<u64>) {
        let jobs: Vec<JobFn> = points.iter().map(|&n| -> JobFn { Box::new(move || loads(n)) }).collect();
        let results = par_run(&BenchOpts::default(), &jobs);
        assert_eq!(results.iter().map(|r| r.stats.cores[0].loads).collect::<Vec<_>>(), points);
    }

    #[test]
    fn par_run_preserves_order() {
        assert_par_run_in_order((1..=6).collect());
    }

    #[test]
    fn par_run_preserves_order_when_the_first_job_is_longest() {
        // The first job runs far longer than the rest, so the other
        // workers finish every later job before it.
        assert_par_run_in_order(vec![4_000, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// A 256 KB memcpy on the pure one-core Table I machine (about 120k
    /// cycles).
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

    fn parse(flags: &[&str]) -> Result<BenchOpts, String> {
        BenchOpts::from_args(flags.iter().map(|f| f.to_string()))
    }

    fn args(flags: &[&str]) -> BenchOpts {
        parse(flags).expect("valid arguments")
    }

    #[test]
    fn from_args_parses_every_flag() {
        let o = args(&["--smoke", "--trace=out/t", "--sched=tick"]);
        assert!(o.smoke && o.only.is_empty());
        assert_eq!(o.trace.as_deref(), Some("out/t"));
        assert_eq!(o.sched, SchedMode::TickByTick);
        assert_eq!(args(&["--sched=conservative"]).sched, SchedMode::Conservative);
        assert_eq!(args(&["--sched=event"]).sched, SchedMode::EventDriven);
        assert_eq!(args(&["--trace="]).trace, None);
        assert_eq!(args(&["--only", "fig10,fig21"]).only, ["fig10", "fig21"]);
    }

    #[test]
    fn from_args_rejects_unknown_arguments() {
        for bad in [&["--smok"][..], &["positional"], &["--size=4096", "--smoke"]] {
            let err = parse(bad).expect_err("an unknown argument must be rejected");
            assert!(err.contains(bad[0]) && err.contains("--smoke"), "{err}");
        }
        let err = parse(&["--only"]).expect_err("--only without figures");
        assert!(err.contains("--only"), "{err}");
    }

    #[test]
    fn from_args_rejects_bad_sched() {
        let err = parse(&["--sched=fast"]).expect_err("an unknown mode must be rejected");
        assert!(err.contains("unknown --sched mode"), "{err}");
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
