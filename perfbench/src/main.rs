//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload's jobs on this thread, pass after pass, for about
//! `--seconds`, with units of the yardstick (a fixed reference load) in
//! between; checks every job's output; prints each metric with its unit,
//! then one JSON result line. Time metrics are in reference-host seconds:
//! host seconds scaled by how fast the yardstick ran meanwhile. `--trace 1`
//! splits the time between an untraced and a decorated section and prints
//! the per-layer metrics. `--pin` prints every job's digest for `refs.tsv`
//! instead.

use mcs_sim::config::MemTech;
use mcs_sim::stats::RunStats;
use perfbench::check::{check_pass, digest, image_mismatches, pinned, pinned_digest};
use perfbench::drivers;
use perfbench::host::{self, Noise};
use perfbench::runner::{run_job, JobRun, Spans};
use perfbench::workloads::{Spec, Workload};
use perfbench::yardstick::{Yardstick, NOMINAL_UNIT_S};
use std::process::exit;
use std::time::Instant;

/// Passes every section makes at least.
const MIN_PASSES: usize = 3;
/// Yardstick host time per second of simulator run time.
const YARD_SHARE: f64 = 0.3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--pin]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    exit(2)
}

fn parse_num<T: std::str::FromStr>(flag: &str, val: &str) -> T {
    val.parse()
        .unwrap_or_else(|_| usage(&format!("bad value {val:?} for {flag}")))
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: Workload::CopyLat,
        seed: 0,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            a.pin = true;
            continue;
        }
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => a.seed = parse_num(&flag, &val),
            "--seconds" => a.seconds = parse_num(&flag, &val),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    a.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    a
}

/// Exit unless this process runs exactly one thread: the benchmark's
/// numbers are one-thread numbers.
fn require_one_thread() {
    if host::threads() != Some(1) {
        eprintln!("perfbench: more than one thread is running; refusing to measure");
        exit(1);
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One timed section: whole passes over `specs`, at least [`MIN_PASSES`],
/// then more while another pass is expected to end within `budget_s`.
struct Section {
    passes: Vec<Vec<JobRun>>,
    /// Reference-host seconds per host second over the section:
    /// [`NOMINAL_UNIT_S`] ÷ the yardstick's mean seconds per unit.
    scale: f64,
    /// Yardstick units run during the section.
    yard_units: u64,
}

impl Section {
    fn run(
        specs: &[Spec],
        traced: bool,
        budget_s: f64,
        spans: &mut Option<Spans>,
        label: &str,
        yard: &mut Yardstick,
    ) -> Section {
        yard.take();
        let t0 = Instant::now();
        let section_span = spans.as_mut().map(|sp| sp.record(label, None, t0));
        let mut passes = Vec::new();
        loop {
            let elapsed = t0.elapsed().as_secs_f64();
            let per_pass = if passes.is_empty() {
                0.0
            } else {
                elapsed / passes.len() as f64
            };
            if passes.len() >= MIN_PASSES && elapsed + per_pass > budget_s {
                break;
            }
            let first = passes.is_empty();
            let pass: Vec<JobRun> = specs
                .iter()
                .map(|s| {
                    let run = run_job(s, traced, first, spans.as_mut().zip(section_span));
                    require_one_thread();
                    let t_yard = Instant::now();
                    yard.pay(run.run_s, YARD_SHARE);
                    if let (Some(sp), Some(id)) = (spans.as_mut(), section_span) {
                        sp.record("yardstick", Some(id), t_yard);
                    }
                    run
                })
                .collect();
            passes.push(pass);
        }
        if let (Some(sp), Some(id)) = (spans.as_mut(), section_span) {
            sp.close(id);
        }
        let (yard_units, yard_s) = yard.take();
        Section {
            passes,
            scale: ratio(NOMINAL_UNIT_S * yard_units as f64, yard_s),
            yard_units,
        }
    }

    /// Host seconds of one pass's `System::run` calls, averaged over the
    /// whole section.
    fn raw_run_s(&self) -> f64 {
        self.all().map(|r| r.run_s).sum::<f64>() / self.passes.len() as f64
    }

    /// [`Section::raw_run_s`] in reference-host seconds.
    fn run_s(&self) -> f64 {
        self.raw_run_s() * self.scale
    }

    /// Median over passes of a pass's summed per-job seconds, in
    /// reference-host seconds.
    fn per_pass(&self, f: impl Fn(&JobRun) -> f64) -> f64 {
        median(self.passes.iter().map(|p| p.iter().map(&f).sum()).collect()) * self.scale
    }

    fn all(&self) -> impl Iterator<Item = &JobRun> {
        self.passes.iter().flatten()
    }

    /// Statistics of the first pass (every pass simulates the same).
    fn stats(&self) -> Vec<&RunStats> {
        self.passes[0]
            .iter()
            .filter_map(|r| r.stats.as_ref().ok())
            .collect()
    }
}

/// Count failed job executions in `sec`, printing why each failed. A job
/// fails on a wrong output, a digest that differs from the pinned one (or,
/// unpinned, from its first execution), or a failed run.
fn count_failures(a: &Args, specs: &[Spec], sec: &Section, first: &mut Vec<Option<u64>>) -> u64 {
    let refs = pinned();
    let mut failed = 0;
    for pass in &sec.passes {
        let verdicts = check_pass(specs, pass);
        for (j, (run, verdict)) in pass.iter().zip(verdicts).enumerate() {
            let d = run.stats.as_ref().ok().map(digest);
            if first.len() <= j {
                first.push(d);
            }
            let want = pinned_digest(&refs, a.workload, a.seed, &specs[j].name).or(first[j]);
            let verdict = verdict.and_then(|()| match (d, want) {
                (Some(d), Some(w)) if d != w => Err(format!("digest {d:016x}, expected {w:016x}")),
                _ => Ok(()),
            });
            if let Err(e) = verdict {
                eprintln!("perfbench: FAIL {}: {e}", specs[j].name);
                failed += 1;
            }
        }
    }
    failed
}

fn sum<'a>(stats: &[&'a RunStats], f: impl Fn(&'a RunStats) -> u64) -> u64 {
    stats.iter().map(|s| f(s)).sum()
}

/// Exact per-layer counts of one pass, from `RunStats`.
fn layer_counts(stats: &[&RunStats]) -> Vec<(&'static str, f64, &'static str)> {
    let cycles = sum(stats, |s| s.cycles) as f64;
    let core_cycles = sum(stats, |s| s.cores.iter().map(|c| c.cycles).sum()) as f64;
    let retired = sum(stats, |s| s.cores.iter().map(|c| c.retired).sum()) as f64;
    let mem_stall = sum(stats, |s| {
        s.cores
            .iter()
            .flat_map(|c| c.mem_stall_by_tag.values())
            .sum()
    }) as f64;
    let l1 =
        |f: fn(&mcs_sim::stats::CacheStats) -> u64| sum(stats, |s| s.l1.iter().map(f).sum()) as f64;
    let l1_acc = l1(|c| c.hits + c.misses);
    let llc_acc = sum(stats, |s| s.llc.hits + s.llc.misses) as f64;
    let mc =
        |f: fn(&mcs_sim::stats::McStats) -> u64| sum(stats, |s| s.mcs.iter().map(f).sum()) as f64;
    let dram = mc(|m| m.row_hits + m.row_misses + m.row_conflicts);
    let eng = |k: &'static str| sum(stats, |s| s.engine_counter(k)) as f64;
    vec![
        ("sim.cycles", cycles, "cycles"),
        ("core.retired_uops", retired, "count"),
        ("core.ipc", ratio(retired, core_cycles), "uops/cycle"),
        (
            "core.mem_stall_frac",
            ratio(mem_stall, core_cycles),
            "fraction",
        ),
        ("l1.accesses", l1_acc, "count"),
        ("l1.miss_ratio", ratio(l1(|c| c.misses), l1_acc), "fraction"),
        ("l1.prefetch_hits", l1(|c| c.prefetch_hits), "count"),
        ("llc.accesses", llc_acc, "count"),
        (
            "llc.miss_ratio",
            ratio(sum(stats, |s| s.llc.misses) as f64, llc_acc),
            "fraction",
        ),
        (
            "llc.writebacks",
            sum(stats, |s| s.llc.writebacks) as f64,
            "count",
        ),
        (
            "llc.invalidations",
            sum(stats, |s| s.llc.invalidations) as f64,
            "count",
        ),
        (
            "mc.requests",
            mc(|m| m.reads + m.writes + m.engine_reads + m.engine_writes),
            "count",
        ),
        (
            "mc.row_hit_ratio",
            ratio(mc(|m| m.row_hits), dram),
            "fraction",
        ),
        (
            "mc.read_lat_ns",
            ratio(mc(|m| m.demand_read_lat_sum), mc(|m| m.demand_reads_done))
                / mcs_bench::CYCLES_PER_NS,
            "ns",
        ),
        (
            "mc.input_stall_cycles",
            mc(|m| m.input_stall_cycles),
            "cycles",
        ),
        ("dram.accesses", dram, "count"),
        ("engine.ctt_inserts", eng("ctt_inserts"), "count"),
        ("engine.bounces_sent", eng("bounces_sent"), "count"),
        ("engine.recon_demand", eng("recon_demand"), "count"),
        ("engine.recon_src_flush", eng("recon_src_flush"), "count"),
        ("engine.lazy_dest_writes", eng("lazy_dest_writes"), "count"),
        ("engine.bpq_full_retries", eng("bpq_full_retries"), "count"),
        ("engine.drained_entries", eng("drained_entries"), "count"),
    ]
}

fn json_metrics(m: &[(String, f64, &str)]) -> String {
    let items: Vec<String> = m
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let a = parse_args();
    require_one_thread();
    let specs = a.workload.specs(a.seed);

    if a.pin {
        let seed = if a.workload.seeded() {
            a.seed.to_string()
        } else {
            "*".to_string()
        };
        for s in &specs {
            let run = run_job(s, false, false, None);
            match &run.stats {
                Ok(st) => {
                    println!(
                        "{}\t{seed}\t{}\t{:016x}",
                        a.workload.name(),
                        s.name,
                        digest(st)
                    );
                    eprintln!("# {}: {} cycles in {:.3} s", s.name, st.cycles, run.run_s);
                }
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", s.name);
                    exit(1);
                }
            }
        }
        return;
    }

    // Untimed warm-up: bring the yardstick to its steady state, page in the
    // code and let the allocator grow.
    let mut yard = Yardstick::new();
    run_job(&specs[specs.len() / 2], false, false, None);

    let noise0 = Noise::sample();
    let mut spans = a.trace.then(Spans::new);
    let plain_budget = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let plain = Section::run(
        &specs,
        false,
        plain_budget,
        &mut spans,
        a.workload.name(),
        &mut yard,
    );
    let traced_label = format!("{} (traced)", a.workload.name());
    let traced = a.trace.then(|| {
        Section::run(
            &specs,
            true,
            a.seconds / 2.0,
            &mut spans,
            &traced_label,
            &mut yard,
        )
    });
    let (steal_frac, runq_wait_s) = Noise::sample().since(&noise0);

    let mut first = Vec::new();
    let mut failed = count_failures(&a, &specs, &plain, &mut first);
    let mut attempted = plain.all().count() as u64;
    if let Some(t) = &traced {
        failed += count_failures(&a, &specs, t, &mut first);
        attempted += t.all().count() as u64;
        // Decorated runs must simulate exactly what undecorated runs do.
        for (j, run) in t.passes[0].iter().enumerate() {
            if run.stats.as_ref().ok() != plain.passes[0][j].stats.as_ref().ok() {
                eprintln!(
                    "perfbench: FAIL {}: decorated run differs from undecorated",
                    specs[j].name
                );
                failed += 1;
            }
        }
    }

    let run_s = plain.run_s();
    let cycles: u64 = plain.stats().iter().map(|s| s.cycles).sum();
    let mut metrics: Vec<(String, f64, &str)> = vec![
        (
            "sim_mcycles_per_s".into(),
            ratio(cycles as f64 / 1e6, run_s),
            "Mcycles/s",
        ),
        ("run_s".into(), run_s, "s"),
        (
            "setup_s".into(),
            plain.per_pass(|r| r.gen_s + r.build_s),
            "s",
        ),
        (
            "peak_rss_mb".into(),
            host::peak_rss_mb().unwrap_or(0.0),
            "MB",
        ),
        (
            "jobs_passed_frac".into(),
            1.0 - ratio(failed as f64, attempted as f64),
            "fraction",
        ),
    ];
    let pass_s: Vec<String> = plain
        .passes
        .iter()
        .map(|p| format!("{:.3}", p.iter().map(|r| r.run_s).sum::<f64>()))
        .collect();
    println!("# pass run host seconds: {}", pass_s.join(" "));
    println!(
        "# yardstick: {} units at {:.3} ms each ({:.3} nominal); scale {:.4}",
        plain.yard_units,
        NOMINAL_UNIT_S * 1e3 / plain.scale,
        NOMINAL_UNIT_S * 1e3,
        plain.scale
    );
    println!(
        "# {} seed {}: {} jobs x {} passes; steal {:.4}; runq wait {:.3} s",
        a.workload.name(),
        a.seed,
        specs.len(),
        plain.passes.len(),
        steal_frac,
        runq_wait_s
    );

    let mut mismatched = 0;
    for (i, lines) in image_mismatches(&specs, &plain.passes[0]) {
        mismatched += lines;
        if lines > 0 {
            println!(
                "# KNOWN DEFECT {}: {lines} lines of the lazy image differ from the eager twin's",
                specs[i].name
            );
        }
    }

    let mut layer: Vec<(String, f64, &str)> = layer_counts(&plain.stats())
        .into_iter()
        .map(|(k, v, u)| (k.to_string(), v, u))
        .collect();
    layer.push((
        "check.lazy_image_mismatch_lines".into(),
        mismatched as f64,
        "count",
    ));
    layer.push(("harness.steal_frac".into(), steal_frac, "fraction"));
    layer.push(("harness.host_scale".into(), plain.scale, "ratio"));
    layer.push(("harness.raw_run_s".into(), plain.raw_run_s(), "s"));
    layer.push(("harness.runq_wait_s".into(), runq_wait_s, "s"));
    if let Some(t) = &traced {
        let t_run = t.raw_run_s() * t.passes.len() as f64;
        let eng_ns: f64 = t.all().map(|r| r.engine.nanos as f64).sum();
        let prog_ns: f64 = t.all().map(|r| r.program.nanos as f64).sum();
        let p0 = &t.passes[0];
        let mc_execs: f64 = p0.iter().map(|r| r.engine.ticks as f64).sum();
        let mc_slots: f64 = p0
            .iter()
            .filter_map(|r| {
                r.stats
                    .as_ref()
                    .ok()
                    .map(|s| (s.cycles * r.channels as u64) as f64)
            })
            .sum();
        let (ctt_ins, ctt_look) = drivers::ctt_ns();
        layer.extend([
            ("sched.mc_execs".into(), mc_execs, "count"),
            (
                "sched.mc_exec_frac".into(),
                ratio(mc_execs, mc_slots),
                "fraction",
            ),
            (
                "program.calls".into(),
                p0.iter().map(|r| r.program.calls as f64).sum(),
                "count",
            ),
            (
                "program.host_frac".into(),
                ratio(prog_ns / 1e9, t_run),
                "fraction",
            ),
            (
                "engine.calls".into(),
                p0.iter().map(|r| r.engine.calls as f64).sum(),
                "count",
            ),
            (
                "engine.host_frac".into(),
                ratio(eng_ns / 1e9, t_run),
                "fraction",
            ),
            ("setup.gen_s".into(), plain.per_pass(|r| r.gen_s), "s"),
            ("setup.build_s".into(), plain.per_pass(|r| r.build_s), "s"),
            (
                "trace.overhead_frac".into(),
                ratio(t.run_s(), run_s) - 1.0,
                "fraction",
            ),
            ("mc.ns_per_req".into(), drivers::mc_ns_per_req(), "ns"),
            ("ctt.ns_per_insert".into(), ctt_ins, "ns"),
            ("ctt.ns_per_lookup".into(), ctt_look, "ns"),
        ]);
        for tech in MemTech::ALL {
            layer.push((
                format!("dram.{}.ns_per_access", tech.name()),
                drivers::dram_ns_per_access(tech),
                "ns",
            ));
        }
        if let Some(sp) = &spans {
            let dir = std::path::Path::new(
                &std::env::var("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()),
            )
            .join("perfbench");
            let path = dir.join(format!("spans-{}-{}.json", a.workload.name(), a.seed));
            match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, sp.to_json())) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: could not write spans: {e}"),
            }
        }
    }

    for (k, v, u) in metrics.iter().chain(&layer) {
        println!("{k} = {v:.6} {u}");
    }
    if a.trace {
        metrics = layer;
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if !correct {
        exit(1);
    }
}
