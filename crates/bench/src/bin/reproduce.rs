//! Reproduce the evaluation's tables and figures:
//!
//! ```text
//! reproduce [--only FIG,FIG,…] [--smoke] [--refresh] [--faults]
//!           [--trace=PATH] [--sched=tick|conservative|event]
//! ```
//!
//! Every selected figure of [`mcs_bench::figs::FIGURES`] (all of them by
//! default) puts its jobs on one shared work queue, in registry order.
//! When the queue is done, each figure's tables are printed as TSV on
//! stdout and saved as `results/<table>.tsv`; with `--smoke` they are
//! printed only, so the committed full-scale files stay as they are.
//!
//! Host speed goes to `BENCH_sim_throughput.json`: per figure, its jobs'
//! simulated Mcycles, the wall time from its first job's start to its
//! last job's end, the summed per-job seconds, and its jobs' summed
//! `RunStats::sched` counters; at the top level, the worker `threads`,
//! the whole queue's totals and the process's peak resident set size
//! (`VmHWM`, `null` where `/proc/self/status` is missing). Unknown
//! arguments and figure names exit with status 2.

use mcs_bench::{figs, par_run, par_threads, BenchOpts, JobFn, Ran};
use mcs_sim::stats::RunStats;
use std::time::Instant;

/// `x` per second of `secs`, 0 when no time passed.
fn per_s(x: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        x / secs
    } else {
        0.0
    }
}

/// Summarise one figure's runs on stderr; returns its Mcycles, its
/// summed job-seconds and its JSON entry.
fn summary(name: &str, runs: &[Ran]) -> (f64, f64, String) {
    let mcycles = runs.iter().map(|r| r.stats.cycles).sum::<u64>() as f64 / 1e6;
    let job_s: f64 = runs.iter().map(|r| (r.end - r.start).as_secs_f64()).sum();
    let span = runs.iter().map(|r| r.start).min().zip(runs.iter().map(|r| r.end).max());
    let wall_s = span.map_or(0.0, |(first, last)| (last - first).as_secs_f64());
    let rate = per_s(mcycles, wall_s);
    if !runs.is_empty() {
        eprintln!(
            "# {name}: {} jobs, {mcycles:.1} Mcycles in {wall_s:.1} s wall ({rate:.1} Mcycles/s), \
             {job_s:.1} job-s",
            runs.len()
        );
    }
    let sum = |f: fn(&RunStats) -> u64| runs.iter().map(|r| f(&r.stats)).sum::<u64>();
    let json = format!(
        "{{\"name\": \"{name}\", \"jobs\": {}, \"mcycles\": {mcycles:.3}, \"wall_s\": {wall_s:.3}, \
         \"job_s\": {job_s:.3}, \"mcycles_per_s\": {rate:.3}, \"executed_cycles\": {}, \
         \"visited_cycles\": {}, \"skipped_cycles\": {}, \"core_execs\": {}, \"l1_execs\": {}, \
         \"llc_execs\": {}, \"mc_execs\": {}}}",
        runs.len(),
        sum(|s| s.sched.executed_cycles),
        sum(|s| s.sched.visited_cycles),
        sum(|s| s.sched.skipped_cycles),
        sum(|s| s.sched.core_execs),
        sum(|s| s.sched.l1_execs),
        sum(|s| s.sched.llc_execs),
        sum(|s| s.sched.mc_execs),
    );
    (mcycles, job_s, json)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the host
/// reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kb.split_whitespace().next()?.parse::<f64>().ok()? / 1024.0)
}

fn main() {
    let parsed = BenchOpts::from_args(std::env::args().skip(1))
        .and_then(|opts| Ok((figs::select(&opts.only)?, opts)));
    let (figures, opts) = parsed.unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(2);
    });

    let per_figure: Vec<Vec<JobFn>> = figures.iter().map(|f| (f.jobs)(opts.smoke)).collect();
    let counts: Vec<usize> = per_figure.iter().map(Vec::len).collect();
    let t0 = Instant::now();
    let mut runs =
        par_run(&opts, &per_figure.into_iter().flatten().collect::<Vec<_>>()).into_iter();
    let wall_s = t0.elapsed().as_secs_f64();

    let (mut mcycles, mut job_s, mut entries) = (0.0, 0.0, Vec::new());
    for (f, n) in figures.iter().zip(counts) {
        let mine: Vec<Ran> = runs.by_ref().take(n).collect();
        let (mc, js, json) = summary(f.name, &mine);
        (mcycles, job_s) = (mcycles + mc, job_s + js);
        entries.push(format!("    {json}"));
        let stats: Vec<RunStats> = mine.into_iter().map(|r| r.stats).collect();
        let tables = (f.report)(opts.smoke, &stats);
        let names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, f.tables, "{} wrote other tables than it declares", f.name);
        for t in &tables {
            t.emit(!opts.smoke);
        }
    }

    let threads = par_threads();
    let idle = 100.0 * (1.0 - per_s(job_s, wall_s * threads as f64));
    eprintln!(
        "# total: {mcycles:.1} Mcycles in {wall_s:.1} s wall on {threads} threads, \
         {job_s:.1} job-s ({idle:.0}% of the threads' time idle)"
    );
    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"figures\": [\n{}\n  ],\n  \"total\": {{\"mcycles\": \
         {mcycles:.3}, \"wall_s\": {wall_s:.3}, \"job_s\": {job_s:.3}, \"mcycles_per_s\": \
         {:.3}}},\n  \"peak_rss_mb\": {}\n}}\n",
        entries.join(",\n"),
        per_s(mcycles, wall_s),
        peak_rss_mb().map_or("null".to_string(), |mb| format!("{mb:.1}")),
    );
    std::fs::write("BENCH_sim_throughput.json", json).expect("write BENCH_sim_throughput.json");
}
