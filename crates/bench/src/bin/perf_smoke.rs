//! Simulator-throughput benchmark for CI: re-simulate a pinned subset of
//! the committed figures and report simulated Mcycles per wall-clock
//! second, per bench, as hand-rolled JSON in
//! `BENCH_sim_throughput.json`. Jobs run under `par_run`, so the JSON
//! also records how it measured: the worker `threads` at the top level
//! and, per bench, the scheduler counters of `RunStats::sched` summed
//! over the bench's runs: executed, visited (entered by the run loop)
//! and skipped cycles, and the phase executions per layer (`core_execs`,
//! `l1_execs`, `llc_execs`, `mc_execs`), which show the work the sleep
//! verdicts and the agenda elide. The
//! top-level `peak_rss_mb` is the process's peak resident set size
//! (`VmHWM` in `/proc/self/status`, `null` where that file is missing),
//! so a memory regression in the simulator's data structures shows too.
//!
//! Two properties are checked at once:
//!
//! * **Speed** — the JSON numbers are the regression-tracking signal for
//!   the event-driven scheduler and devirtualised DRAM fast paths; CI
//!   archives them per commit.
//! * **Fidelity** — every re-simulated TSV row must be byte-identical to
//!   the committed `results/` file it came from. A performance "win"
//!   that perturbs results is a bug, and this binary exits non-zero on
//!   the first drifted row.
//!
//! The workload is deliberately the same code path the figure binaries
//! use (`figs::fig10_job`, `mess::job_for` at the full committed scale),
//! so the measured throughput is the real harness throughput, not a
//! synthetic kernel.

use mcs_bench::figs::{fig10_job, fig10_mechs, fig10_row, FIG10_SIZES};
use mcs_bench::mess::{job_for, Point, Scale};
use mcs_bench::{committed_row, marker0, BenchOpts};
use mcs_sim::config::MemTech;
use mcs_sim::stats::{RunStats, SchedStats};
use std::time::Instant;

/// One bench's measurement.
struct Sample {
    name: &'static str,
    mcycles: f64,
    wall_s: f64,
    /// Scheduler counters, summed over the bench's runs.
    sched: SchedStats,
}

impl Sample {
    fn throughput(&self) -> f64 {
        if self.wall_s > 0.0 { self.mcycles / self.wall_s } else { 0.0 }
    }
}

/// Measure `run` as one bench: wall time around it, simulated cycles
/// from the harness's cumulative counter, scheduler counters from the
/// runs it returns.
fn measure<T>(
    name: &'static str,
    run: impl FnOnce() -> Vec<(T, RunStats)>,
) -> (Sample, Vec<(T, RunStats)>) {
    let cycles0 = mcs_bench::sim_cycles();
    let t0 = Instant::now();
    let results = run();
    let sample = Sample {
        name,
        mcycles: (mcs_bench::sim_cycles() - cycles0) as f64 / 1e6,
        wall_s: t0.elapsed().as_secs_f64(),
        sched: results.iter().fold(SchedStats::default(), |a, (_, s)| {
            let b = &s.sched;
            SchedStats {
                executed_cycles: a.executed_cycles + b.executed_cycles,
                visited_cycles: a.visited_cycles + b.visited_cycles,
                skipped_cycles: a.skipped_cycles + b.skipped_cycles,
                core_execs: a.core_execs + b.core_execs,
                l1_execs: a.l1_execs + b.l1_execs,
                llc_execs: a.llc_execs + b.llc_execs,
                mc_execs: a.mc_execs + b.mc_execs,
            }
        }),
    };
    (sample, results)
}

fn check_row(file: &str, key: &[&str], got: &str, drift: &mut u32) {
    let want = committed_row(file, key);
    if got != want {
        eprintln!("# DRIFT in {file} row {key:?}:\n#   committed: {want}\n#   simulated: {got}");
        *drift += 1;
    }
}

fn bench_fig10(opts: &BenchOpts, drift: &mut u32) -> Sample {
    let mechs = fig10_mechs();
    let points: Vec<(usize, u64)> = mechs
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| FIG10_SIZES.iter().map(move |&s| (mi, s)))
        .collect();
    let mechs_ref = &mechs;
    let (sample, results) = measure("fig10", || {
        mcs_bench::par_run(opts, points, |&(mi, size)| {
            let (_, mech, touch) = &mechs_ref[mi];
            fig10_job(mech, size, *touch)
        })
    });
    for (si, &size) in FIG10_SIZES.iter().enumerate() {
        let lats: Vec<u64> = (0..mechs.len())
            .map(|mi| marker0(&results[mi * FIG10_SIZES.len() + si].1))
            .collect();
        let row = fig10_row(size, &lats).join("\t");
        check_row("fig10.tsv", &[row.split('\t').next().unwrap()], &row, drift);
    }
    sample
}

fn bench_mess(opts: &BenchOpts, drift: &mut u32) -> Sample {
    // Full committed scale, pinned burst subset: the committed
    // `mess_curves.tsv` rows for these points must reproduce exactly.
    let sc = Scale::full();
    let points: Vec<Point> = MemTech::ALL
        .iter()
        .flat_map(|&tech| {
            [false, true]
                .into_iter()
                .map(move |lazy| Point { tech, lazy, burst: 4 })
        })
        .collect();
    let sc_ref = &sc;
    let (sample, results) =
        measure("mess_curves", || mcs_bench::par_run(opts, points, |p| job_for(p, sc_ref)));
    for (p, stats) in &results {
        let row = mcs_bench::mess::row_for(p, &sc, stats).join("\t");
        let mode = if p.lazy { "mcsquare" } else { "memcpy" };
        let burst = p.burst.to_string();
        check_row("mess_curves.tsv", &[p.tech.name(), mode, &burst], &row, drift);
    }
    sample
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the host
/// reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kb.split_whitespace().next()?.parse::<f64>().ok()? / 1024.0)
}

fn main() {
    let opts = BenchOpts::parse();
    let mut drift = 0u32;
    let samples = vec![bench_fig10(&opts, &mut drift), bench_mess(&opts, &mut drift)];

    let mut json =
        format!("{{\n  \"threads\": {},\n  \"benches\": [\n", mcs_bench::par_threads());
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mcycles\": {:.3}, \"wall_s\": {:.3}, \
             \"mcycles_per_s\": {:.3}, \"executed_cycles\": {}, \"visited_cycles\": {}, \
             \"skipped_cycles\": {}, \"core_execs\": {}, \"l1_execs\": {}, \"llc_execs\": {}, \
             \"mc_execs\": {}}}{}\n",
            s.name,
            s.mcycles,
            s.wall_s,
            s.throughput(),
            s.sched.executed_cycles,
            s.sched.visited_cycles,
            s.sched.skipped_cycles,
            s.sched.core_execs,
            s.sched.l1_execs,
            s.sched.llc_execs,
            s.sched.mc_execs,
            if i + 1 < samples.len() { "," } else { "" },
        ));
    }
    let tot_mc: f64 = samples.iter().map(|s| s.mcycles).sum();
    let tot_wall: f64 = samples.iter().map(|s| s.wall_s).sum();
    json.push_str(&format!(
        "  ],\n  \"total\": {{\"mcycles\": {:.3}, \"wall_s\": {:.3}, \
         \"mcycles_per_s\": {:.3}}},\n  \"peak_rss_mb\": {},\n  \"rows_drifted\": {}\n}}\n",
        tot_mc,
        tot_wall,
        if tot_wall > 0.0 { tot_mc / tot_wall } else { 0.0 },
        peak_rss_mb().map_or("null".to_string(), |mb| format!("{mb:.1}")),
        drift,
    ));
    std::fs::write("BENCH_sim_throughput.json", &json).expect("write BENCH_sim_throughput.json");
    eprint!("{json}");

    for s in &samples {
        eprintln!(
            "# perf_smoke {}: {:.1} Mcycles in {:.2} s = {:.2} Mcycles/s",
            s.name,
            s.mcycles,
            s.wall_s,
            s.throughput(),
        );
    }
    if drift > 0 {
        eprintln!("# perf_smoke: {drift} row(s) drifted from committed results");
        std::process::exit(1);
    }
}
