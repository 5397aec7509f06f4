//! Traced jobs name their files by the order they were issued, not the
//! order they finished: a `par_run` sweep whose first job is its longest
//! must write that job's files under the sweep's first number, exactly as
//! running the same jobs one after another does.
#![cfg(feature = "trace")]

use mcs_bench::{par_run, BenchOpts, Job};
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

/// The series TSVs under `dir`, in job-number order, with the first
/// number; the numbers must be consecutive.
fn series_in_order(dir: &Path) -> (u64, Vec<String>) {
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
    let first = files.first().expect("trace files written").0;
    for (k, (n, _)) in files.iter().enumerate() {
        assert_eq!(*n, first + k as u64, "job numbers in {dir:?} are not consecutive");
    }
    (first, files.iter().map(|(_, p)| std::fs::read_to_string(p).expect("read")).collect())
}

#[test]
fn par_run_numbers_trace_files_in_input_order() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_numbering");
    let _ = std::fs::remove_dir_all(&root);
    // The first job is the longest, so other workers finish theirs first.
    let sizes = vec![6_000u64, 40, 80, 120, 160];
    let serial = traced(&root.join("serial"));
    for &n in &sizes {
        loads(n).run(&serial);
    }
    let (_, want) = series_in_order(&root.join("serial"));
    assert_eq!(want.len(), sizes.len());
    for sweep in ["a", "b"] {
        let dir = root.join(sweep);
        par_run(&traced(&dir), sizes.clone(), |&n| loads(n));
        let (_, got) = series_in_order(&dir);
        assert!(got == want, "sweep {sweep}: a job's trace files took another job's number");
    }
}
