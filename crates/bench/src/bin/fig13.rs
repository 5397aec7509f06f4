//! Figure 13: random (pointer-chase) destination access after a copy.
//!
//! Series: native, zIO, (MC)², (MC)² `Aligned`, (MC)² [No writeback].
//! Paper shape: dependent accesses put the full bounce latency on the
//! critical path. With the post-bounce writeback, (MC)² stays ~0.92× of
//! memcpy; without it every re-access bounces twice and degrades to
//! ~1.6×; zIO spikes to ~2.1× at small fractions (fault per page) and
//! recovers toward 1.3×.

use mcs_bench::{marker0, f3, Job, Table};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_workloads::micro::PointerChaseProgram;
use mcs_workloads::CopyMech;
use mcsquare::McSquareConfig;

const SIZE: u64 = 4 << 20; // the paper's 4 MB (must exceed the LLC)

#[derive(Clone)]
struct Variant {
    name: &'static str,
    mech: CopyMech,
    misalign: bool,
    writeback: bool,
}

fn main() {
    let opts = mcs_bench::BenchOpts::parse();
    let variants = vec![
        Variant { name: "memcpy", mech: CopyMech::Native, misalign: true, writeback: true },
        Variant { name: "zio", mech: CopyMech::Zio, misalign: true, writeback: true },
        Variant {
            name: "mcsquare",
            mech: CopyMech::McSquare { threshold: 0 },
            misalign: true,
            writeback: true,
        },
        Variant {
            name: "mcsquare_aligned",
            mech: CopyMech::McSquare { threshold: 0 },
            misalign: false,
            writeback: true,
        },
        Variant {
            name: "mcsquare_nowb",
            mech: CopyMech::McSquare { threshold: 0 },
            misalign: true,
            writeback: false,
        },
    ];
    let fracs = [0.125, 0.25, 0.5, 0.75, 1.0];
    let elements = SIZE / 8;

    let points: Vec<(usize, f64)> = (0..variants.len())
        .flat_map(|v| fracs.iter().map(move |&f| (v, f)))
        .collect();
    let vs = &variants;
    let results = mcs_bench::par_run(&opts, points, |&(vi, frac)| {
        let v = &vs[vi];
        let mut space = AddrSpace::dram_3gb();
        let steps = ((elements as f64) * frac) as u64;
        let (prog, pokes, _) =
            PointerChaseProgram::build(v.mech.clone(), SIZE, steps, v.misalign, 1234, &mut space);
        let mc2 = v.mech.needs_engine().then(|| McSquareConfig {
            writeback_after_bounce: v.writeback,
            ..McSquareConfig::default()
        });
        Job {
            cfg: SystemConfig::table1_one_core(),
            mc2,
            programs: vec![Box::new(prog)],
            pokes,
            max_cycles: 20_000_000_000,
        }
    });

    let mut headers: Vec<String> = vec!["fraction".into()];
    headers.extend(vs.iter().map(|v| format!("{}_norm", v.name)));
    let mut table = Table::new(
        "fig13",
        "random (pointer-chase) destination access: runtime normalised to native memcpy",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (fi, &frac) in fracs.iter().enumerate() {
        let base = marker0(&results[fi].1) as f64;
        let mut row = vec![format!("{:.1}%", frac * 100.0)];
        for vi in 0..vs.len() {
            let t = marker0(&results[vi * fracs.len() + fi].1) as f64;
            row.push(f3(t / base));
        }
        table.row(row);
    }
    table.emit();
    mcs_bench::print_sim_throughput();
}
