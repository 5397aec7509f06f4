//! Byte-identity regression: with the `trace` feature off (the default
//! test build), re-simulating Fig. 10 / Fig. 12 points and the DDR5 / HBM2
//! Fig. 10 points of the memory-technology sweep through the shared
//! [`mcs_bench::figs`] constructors must reproduce the committed
//! `results/*.tsv` rows *byte for byte*. This is the acceptance criterion
//! for the observability layer being zero-cost when disabled: if any
//! instrumentation leaks timing into the trace-off build, these rows
//! drift and the comparison fails. The memory-technology rows also pin
//! the bank-group and pseudo-channel geometries of the DRAM channel, with
//! refresh on. `results/table1.tsv` is pinned whole, so a configuration
//! default cannot change without the committed table changing with it.
//!
//! (When built `--features trace` with no `--trace=` option, the same
//! comparison proves the armed-capable build is also timing-identical.)

use mcs_bench::figs::{
    fig10_job, fig10_mechs, fig10_row, fig12_job, fig12_row, fig12_variants, memtech_fig10_job,
    memtech_fig10_row, table1,
};
use mcs_bench::{committed_row, committed_tsv, marker0, BenchOpts};
use mcs_sim::config::MemTech;

#[test]
fn table1_byte_identical_to_committed_tsv() {
    assert_eq!(table1().render(), committed_tsv("table1.tsv"));
}

#[test]
fn fig10_rows_byte_identical_to_committed_tsv() {
    for size in [1u64 << 10, 64 << 10] {
        let lats: Vec<u64> = fig10_mechs()
            .iter()
            .map(|(_, mech, touch)| {
                marker0(&fig10_job(mech, size, *touch).run(&BenchOpts::default()))
            })
            .collect();
        let row = fig10_row(size, &lats).join("\t");
        assert_eq!(
            row,
            committed_row("fig10.tsv", &[row.split('\t').next().unwrap()]),
            "fig10 row for size {size} drifted from the committed TSV"
        );
    }
}

#[test]
fn fig12_row_byte_identical_to_committed_tsv() {
    let frac = 0.0;
    let lats: Vec<u64> = fig12_variants()
        .iter()
        .map(|v| marker0(&fig12_job(v, frac).run(&BenchOpts::default())))
        .collect();
    let row = fig12_row(frac, &lats).join("\t");
    assert_eq!(
        row,
        committed_row("fig12.tsv", &["0%"]),
        "fig12 0% row drifted from the committed TSV"
    );
}

#[test]
fn memtech_fig10_rows_byte_identical_to_committed_tsv() {
    // 256 KB is the smallest size at which refresh fires on both
    // technologies (4 windows on DDR5, 8 on HBM2). Refresh is on, as in
    // the sweep.
    for tech in [MemTech::Ddr5, MemTech::Hbm2] {
        for size in [1u64 << 10, 256 << 10] {
            let [memcpy, mcs] = [false, true]
                .map(|mcsquare| memtech_fig10_job(tech, mcsquare, size).run(&BenchOpts::default()));
            let row = memtech_fig10_row(tech, size, &memcpy, &mcs).join("\t");
            let key: Vec<&str> = row.split('\t').take(2).collect();
            assert_eq!(
                row,
                committed_row("sweep_memtech_fig10.tsv", &key),
                "sweep_memtech_fig10 row {key:?} drifted from the committed TSV"
            );
        }
    }
}
