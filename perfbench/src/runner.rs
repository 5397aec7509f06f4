//! Running one job on a fresh machine: generate, build, run, and read
//! back what the checks need. Each phase is timed separately, so set-up
//! never counts as run time.

use crate::decor::{SharedTally, Tally, TimedEngine, TimedProgram};
use crate::workloads::{Image, Spec};
use mcs_sim::engine::{CopyEngine, NullEngine};
use mcs_sim::program::{IdleProgram, Program};
use mcs_sim::stats::RunStats;
use mcs_sim::System;
use mcsquare::McSquareEngine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One execution of one job.
#[derive(Debug)]
pub struct JobRun {
    /// The run's statistics, or why it failed (timeout or panic).
    pub stats: Result<RunStats, String>,
    /// Host seconds generating the workload (uops, pokes, config).
    pub gen_s: f64,
    /// Host seconds constructing the `System` and applying the pokes.
    pub build_s: f64,
    /// Host seconds inside `System::run`.
    pub run_s: f64,
    /// Memory controllers of the machine.
    pub channels: usize,
    /// Engine decorator totals (traced runs only).
    pub engine: Tally,
    /// Program decorator totals, summed over cores (traced runs only).
    pub program: Tally,
    /// Outcome of a [`Image::Pattern`] check, when one was made.
    pub image_ok: Option<Result<(), String>>,
    /// Per-line FNV-1a hashes of an [`Image::Twin`] range, when read.
    pub image_lines: Option<Vec<u64>>,
}

/// Wall-clock spans (workload → job → gen/build/run) kept in memory and
/// written out when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// (id, parent, name, start ns, end ns).
    pub list: Vec<(usize, Option<usize>, String, u64, u64)>,
}

impl Spans {
    /// Start a span clock at the current instant.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span from `start` to now; returns its id.
    pub fn record(&mut self, name: &str, parent: Option<usize>, start: Instant) -> usize {
        let (s, e) = (self.ns(start), self.ns(Instant::now()));
        self.list
            .push((self.list.len(), parent, name.to_string(), s, e));
        self.list.len() - 1
    }

    /// Extend span `id` to end now.
    pub fn close(&mut self, id: usize) {
        self.list[id].4 = self.ns(Instant::now());
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .list
            .iter()
            .map(|(id, parent, name, s, e)| {
                let parent = parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{name}\", \
                     \"start_ns\": {s}, \"end_ns\": {e}}}"
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Run `spec` once on a fresh machine. `traced` wraps the engine and every
/// program in the timing decorators; `check_image` reads back the job's
/// memory-image range after the run; `spans` (with the parent span)
/// records the job's phases.
pub fn run_job(
    spec: &Spec,
    traced: bool,
    check_image: bool,
    spans: Option<(&mut Spans, usize)>,
) -> JobRun {
    let mut spans = spans;
    let job_span = spans
        .as_mut()
        .map(|(s, parent)| s.record(&spec.name, Some(*parent), Instant::now()));
    let mut phase = |name: &str, t0: Instant| {
        if let (Some((s, _)), Some(job)) = (spans.as_mut(), job_span) {
            s.record(name, Some(job), t0);
        }
        t0.elapsed().as_secs_f64()
    };

    let t0 = Instant::now();
    let mut job = spec.generate();
    let gen_s = phase("gen", t0);

    let t0 = Instant::now();
    let engine_tally = SharedTally::default();
    let program_tally = SharedTally::default();
    let mut cfg = job.cfg.clone();
    while job.programs.len() < cfg.cores {
        job.programs.push(Box::new(IdleProgram));
    }
    cfg.cores = job.programs.len();
    let channels = cfg.channels;
    let mut engine: Box<dyn CopyEngine> = match &job.mc2 {
        Some(m) => Box::new(McSquareEngine::new(m.clone(), channels)),
        None => Box::new(NullEngine),
    };
    let mut programs = std::mem::take(&mut job.programs);
    if traced {
        engine = Box::new(TimedEngine::new(engine, engine_tally.clone()));
        programs = programs
            .into_iter()
            .map(|p| Box::new(TimedProgram::new(p, program_tally.clone())) as Box<dyn Program>)
            .collect();
    }
    let mut sys = System::with_engine(cfg, programs, engine);
    job.pokes.apply(&mut sys);
    drop(job.pokes);
    let build_s = phase("build", t0);

    let t0 = Instant::now();
    let max_cycles = job.max_cycles;
    let stats = match catch_unwind(AssertUnwindSafe(|| sys.run(max_cycles))) {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err(e)) => Err(format!("simulation stuck: {e}")),
        Err(_) => Err("simulation panicked".to_string()),
    };
    let run_s = phase("run", t0);

    let mut image_ok = None;
    let mut image_lines = None;
    if check_image && stats.is_ok() {
        match &spec.image {
            Some(Image::Pattern { addr, len, seed }) => {
                let got = sys.peek_materialized(*addr, *len as usize);
                let want = mcs_workloads::common::pattern(*len as usize, *seed);
                image_ok = Some(match got.iter().zip(&want).position(|(g, w)| g != w) {
                    None => Ok(()),
                    Some(i) => Err(format!("image differs at {:#x}", addr.0 + i as u64)),
                });
            }
            Some(Image::Twin(addr, len)) => {
                let image = sys.peek_materialized(*addr, *len as usize);
                image_lines = Some(image.chunks(64).map(fnv1a).collect());
            }
            None => {}
        }
    }
    // Dropping the machine drops the decorators, which flush their totals.
    drop(sys);
    if let (Some((s, _)), Some(job)) = (spans.as_mut(), job_span) {
        s.close(job);
    }
    let read = |t: &SharedTally| *t.lock().expect("decorators never panic holding the tally");
    JobRun {
        stats,
        gen_s,
        build_s,
        run_s,
        channels,
        engine: read(&engine_tally),
        program: read(&program_tally),
        image_ok,
        image_lines,
    }
}
