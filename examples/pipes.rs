//! Pipe example (§V-B, Fig. 19): stream data through a kernel pipe with
//! eager vs. lazy kernel copies and compare throughput.
//!
//! Run with: `cargo run --release --example pipes`

use mcs_os::{CopyMode, OsCosts, Pipe};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::FixedProgram;
use mcs_sim::system::System;
use mcs_sim::uop::{StatTag, Uop, UopKind};
use mcsquare::{McSquareConfig, McSquareEngine};

fn run(mode: CopyMode, transfer: u64, rounds: usize) -> (f64, bool) {
    let mut space = AddrSpace::dram_3gb();
    let kbuf = space.alloc_page(64 * 1024);
    let dst = space.alloc_page(transfer);
    let mut pipe = Pipe::new(kbuf, 64 * 1024, OsCosts::default());

    let mut uops = Vec::new();
    let mut pokes: Vec<(mcs_sim::addr::PhysAddr, Vec<u8>)> = Vec::new();
    uops.push(Uop::new(UopKind::Marker { id: 0 }, StatTag::App));
    for r in 0..rounds {
        let src = space.alloc_page(transfer);
        let data: Vec<u8> = (0..transfer).map(|i| ((i + r as u64) % 251) as u8).collect();
        pokes.push((src, data));
        let (w, n) = pipe.write_uops(uops.len() as u64, src, transfer, mode);
        assert_eq!(n, transfer);
        uops.extend(w);
        let (rd, m) = pipe.read_uops(uops.len() as u64, dst, transfer, mode);
        assert_eq!(m, transfer);
        uops.extend(rd);
        uops.push(Uop::new(UopKind::Load { addr: dst, size: 8 }, StatTag::App));
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    uops.push(Uop::new(UopKind::Marker { id: 1 }, StatTag::App));

    let cfg = SystemConfig::table1_one_core();
    let mut sys = match mode {
        CopyMode::Lazy => {
            let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
            System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(e))
        }
        CopyMode::Eager => System::new(cfg, vec![Box::new(FixedProgram::new(uops))]),
    };
    let last = pokes.last().cloned();
    for (a, b) in &pokes {
        sys.poke(*a, b);
    }
    let stats = sys.run(20_000_000_000).expect("finishes");
    let lat = mcs_workloads::common::marker_latencies(&stats.cores[0])[0];
    let bytes = transfer * rounds as u64;
    let bpk = bytes as f64 / (lat as f64 / 1000.0);
    // The consumer's buffer holds the final round's payload.
    let ok = last
        .map(|(_, d)| sys.peek_materialized(dst, 16) == d[..16].to_vec())
        .unwrap_or(false);
    (bpk, ok)
}

fn main() {
    println!("kernel pipe transfers, 16 rounds per point\n");
    println!("{:>9} {:>16} {:>16} {:>7}", "transfer", "native (B/kcy)", "(MC)^2 (B/kcy)", "ratio");
    for transfer in [1u64 << 10, 4 << 10, 16 << 10] {
        let (n, ok1) = run(CopyMode::Eager, transfer, 16);
        let (l, ok2) = run(CopyMode::Lazy, transfer, 16);
        assert!(ok1 && ok2, "payload integrity");
        println!("{:>8}K {:>16.1} {:>16.1} {:>6.2}x", transfer >> 10, n, l, l / n);
    }
    println!("\ndata verified: the consumer sees exactly what the producer sent,");
    println!("even though the lazy kernel never copied it through the CPU.");
}
