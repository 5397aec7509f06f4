//! Host-side diagnostics from procfs: thread count, peak RSS, CPU steal
//! and run-queue wait. They tell a run slowed by a contended host apart
//! from a slow program.

use std::fs;

fn status_field(key: &str) -> Option<u64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Threads of this process.
pub fn threads() -> Option<u64> {
    status_field("Threads:")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Aggregate CPU time counters of the host: (steal, total), in ticks.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let steal = *v.get(7)?;
    Some((steal, v.iter().take(8).sum()))
}

/// Nanoseconds this thread has spent runnable but waiting for a CPU.
pub fn runq_wait_ns() -> Option<u64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Steal and run-queue readings at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noise {
    steal: (u64, u64),
    runq_ns: u64,
}

impl Noise {
    /// Read the counters now (zeros where procfs lacks them).
    pub fn sample() -> Noise {
        Noise {
            steal: cpu_steal().unwrap_or((0, 0)),
            runq_ns: runq_wait_ns().unwrap_or(0),
        }
    }

    /// (steal fraction of all host CPU time, run-queue wait seconds)
    /// between `earlier` and `self`.
    pub fn since(&self, earlier: &Noise) -> (f64, f64) {
        let steal = self.steal.0.saturating_sub(earlier.steal.0);
        let total = self.steal.1.saturating_sub(earlier.steal.1);
        let frac = if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        };
        (
            frac,
            self.runq_ns.saturating_sub(earlier.runq_ns) as f64 / 1e9,
        )
    }
}
