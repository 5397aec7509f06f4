//! Traced jobs name their files by their index in the `par_run` queue,
//! not by the order they finished: a sweep whose first job is its longest
//! must write that job's files as job 0, and each job's files must equal
//! those of the same job run on its own.
#![cfg(feature = "trace")]

use mcs_bench::{par_run, BenchOpts, Job, JobFn};
use mcs_sim::config::SystemConfig;
use mcs_sim::uop::{StatTag, Uop, UopKind};
use mcs_sim::PhysAddr;
use mcs_workloads::Pokes;
use std::path::{Path, PathBuf};

/// A one-core job streaming `lines` loads; lengths differ per job, so
/// their trace files differ too.
fn loads(lines: u64) -> Job {
    let uops = (0..lines)
        .map(|i| Uop::new(UopKind::Load { addr: PhysAddr(0x10_0000 + i * 64), size: 8 }, StatTag::App))
        .collect();
    Job::single(SystemConfig::tiny(), None, uops, Pokes::default())
}

fn traced(dir: &Path) -> BenchOpts {
    std::fs::create_dir_all(dir).expect("create trace dir");
    BenchOpts { trace: Some(dir.join("t").display().to_string()), ..BenchOpts::default() }
}

/// The series TSVs under `dir`, in job-number order; the numbers must
/// run from 0 without a gap.
fn series_in_order(dir: &Path) -> Vec<String> {
    let mut files: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .expect("read trace dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            let n = name.strip_prefix("t.job")?.strip_suffix(".series.tsv")?.parse().ok()?;
            Some((n, p))
        })
        .collect();
    files.sort();
    for (k, (n, _)) in files.iter().enumerate() {
        assert_eq!(*n, k as u64, "job numbers in {dir:?} do not count from 0");
    }
    files.iter().map(|(_, p)| std::fs::read_to_string(p).expect("read")).collect()
}

#[test]
fn par_run_numbers_trace_files_by_queue_index() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_numbering");
    let _ = std::fs::remove_dir_all(&root);
    // The first job is the longest, so other workers finish theirs first.
    let sizes = [6_000u64, 40, 80, 120, 160];
    let mut want = Vec::new();
    for (k, &n) in sizes.iter().enumerate() {
        let dir = root.join(format!("alone{k}"));
        loads(n).run(&traced(&dir));
        want.extend(series_in_order(&dir));
    }
    assert_eq!(want.len(), sizes.len());
    for sweep in ["a", "b"] {
        let dir = root.join(sweep);
        let jobs: Vec<JobFn> = sizes.iter().map(|&n| -> JobFn { Box::new(move || loads(n)) }).collect();
        par_run(&traced(&dir), &jobs);
        let got = series_in_order(&dir);
        assert!(got == want, "sweep {sweep}: a job's trace files took another job's number");
    }
}
