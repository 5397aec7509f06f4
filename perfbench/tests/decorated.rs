//! The timing decorators must be invisible to the simulation: a decorated
//! run yields exactly the undecorated run's statistics, for one job of
//! every workload (baseline and (MC)² engines, one and eight cores).

use perfbench::check::{pinned, pinned_digest};
use perfbench::runner::run_job;
use perfbench::workloads::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// A short job of each workload that exercises the workload's engine path.
const JOBS: [(Workload, &str); 4] = [
    (Workload::CopyLat, "fig10/mcsquare/65536"),
    (Workload::LazyRead, "fig12/mcsquare_aligned/1"),
    (Workload::LazyWrite, "fig21/262144/bpq2"),
    (Workload::MessBw, "mess/hbm2/memcpy"),
];

#[test]
fn decorated_runs_simulate_identically() {
    for (w, name) in JOBS {
        let specs = w.specs(DEFAULT_SEED);
        let spec = specs.iter().find(|s| s.name == name).expect("job exists");
        let plain = run_job(spec, false, false, None);
        let traced = run_job(spec, true, false, None);
        let (a, b) = (
            plain.stats.expect("plain run"),
            traced.stats.expect("traced run"),
        );
        assert_eq!(a, b, "{name}: decorated run differs");
        assert!(
            traced.program.calls > 0 && traced.engine.ticks > 0,
            "{name}: decorators saw no calls"
        );
        assert_eq!(
            plain.engine.calls, 0,
            "{name}: undecorated run must not be timed"
        );
    }
}

#[test]
fn seeded_workloads_pin_default_and_held_out_seeds() {
    let refs = pinned();
    for w in Workload::ALL {
        let seeds: &[u64] = if w.seeded() {
            &[DEFAULT_SEED, HELD_OUT_SEED]
        } else {
            &[DEFAULT_SEED]
        };
        for &seed in seeds {
            for spec in w.specs(seed) {
                assert!(
                    pinned_digest(&refs, w, seed, &spec.name).is_some(),
                    "{} seed {seed}: {} has no pinned digest",
                    w.name(),
                    spec.name
                );
            }
        }
    }
}
