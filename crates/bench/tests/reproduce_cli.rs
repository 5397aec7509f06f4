//! The `reproduce` command line: a `--smoke` run prints its tables but
//! leaves `results/` as it was, and a mistyped flag or figure name exits
//! non-zero, naming the valid choices, before anything runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run `reproduce` with `args` in a fresh directory named `name`.
fn reproduce(name: &str, args: &[&str], seed: &[&str]) -> (PathBuf, Output) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("results")).expect("create results/");
    for table in seed {
        std::fs::write(dir.join(format!("results/{table}.tsv")), "full-scale\n").expect("seed");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run reproduce");
    (dir, out)
}

/// The number of files under `dir/results`.
fn result_files(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("results")).expect("read results/").count()
}

#[test]
fn smoke_runs_leave_results_untouched() {
    let seed = ["mess_curves", "sweep_memtech_fig10", "fault_sweep"];
    let only = ["--only", "fault_sweep,sweep_memtech,mess_curves", "--smoke"];
    let (dir, out) = reproduce("reproduce_smoke", &only, &seed);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for table in ["mess_curves", "sweep_memtech_fig10", "sweep_memtech_fig12", "fault_sweep"] {
        assert!(stdout.contains(&format!("# {table} — ")), "{table} was not printed");
    }
    assert_eq!(result_files(&dir), seed.len(), "a smoke run added files to results/");
    for t in seed {
        let text = std::fs::read_to_string(dir.join(format!("results/{t}.tsv"))).expect("read");
        assert_eq!(text, "full-scale\n", "a smoke run rewrote results/{t}.tsv");
    }
}

#[test]
fn bad_arguments_exit_non_zero_and_name_the_choices() {
    for (args, named, choice) in [
        (&["--smok"][..], "--smok", "--smoke"),
        (&["--only", "fig10,fig99"], "fig99", "mess_curves"),
        (&["--only"], "--only", "comma-separated"),
    ] {
        let (dir, out) = reproduce("reproduce_bad_args", args, &[]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(named) && err.contains(choice), "{args:?}: {err}");
        assert!(out.stdout.is_empty() && result_files(&dir) == 0, "{args:?} ran something");
        assert!(!dir.join("BENCH_sim_throughput.json").exists(), "{args:?} ran something");
    }
}
