//! Table I: dump the simulated configuration used throughout the
//! evaluation, alongside the (MC)² hardware parameters (CTT/BPQ sizes and
//! the CACTI-derived CTT figures quoted from the paper).

use mcs_bench::Table;
use mcs_sim::config::SystemConfig;
use mcsquare::ctt::ENTRY_BYTES;
use mcsquare::McSquareConfig;

fn main() {
    let c = SystemConfig::table1();
    let m = McSquareConfig::default();
    let mut t = Table::new("table1", "simulated configuration", &["parameter", "value"]);
    let mut kv = |k: &str, v: String| t.row(vec![k.to_string(), v]);
    kv("CPUs", c.cores.to_string());
    kv("Clock speed", "4 GHz".into());
    kv("Private L1 cache", format!("{} KB/CPU, stride prefetcher", c.l1.size_bytes >> 10));
    kv("Shared L2 cache", format!("{} MB, stride prefetcher", c.llc.size_bytes >> 20));
    kv("DRAM size", "3 GB (sparse)".into());
    kv("DRAM channels", c.channels.to_string());
    kv("DRAM config", "DDR4-like bank/row-buffer timing".into());
    kv("BPQ size", format!("{} entries", m.bpq_entries));
    kv("CTT entries", m.ctt_entries.to_string());
    kv("CTT latency", format!("{} cycles ({} ns)", c.ctt_latency, c.ctt_latency as f64 / 4.0));
    kv("CTT SRAM", format!("{} KB", m.ctt_entries as u64 * ENTRY_BYTES / 1024));
    kv("CTT area (paper, CACTI 7.0 @22nm)", "0.14 mm^2".into());
    kv("CTT bank leakage (paper)", "33.8 mW".into());
    kv("Drain threshold", format!("{:.0}%", m.drain_threshold * 100.0));
    kv("WPQ writeback-reject watermark", format!("{:.0}%", m.wpq_reject_frac * 100.0));
    t.emit();
    mcs_bench::print_sim_throughput();
}
