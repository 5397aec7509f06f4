//! Quickstart: build a Table I machine with the (MC)² engine, perform a
//! lazy memcpy, touch the destination, and inspect what actually moved.
//!
//! Run with: `cargo run --release --example quickstart`

use mcs_sim::alloc::AddrSpace;
use mcs_sim::config::SystemConfig;
use mcs_sim::program::FixedProgram;
use mcs_sim::system::System;
use mcs_sim::uop::{StatTag, Uop, UopKind};
use mcsquare::software::{memcpy_lazy_uops, LazyOpts};
use mcsquare::{McSquareConfig, McSquareEngine};

fn main() {
    // Carve two 64 KB buffers out of the simulated DRAM.
    let mut space = AddrSpace::dram_3gb();
    let size = 64 * 1024u64;
    let src = space.alloc_page(size);
    let dst = space.alloc_page(size);

    // The program: memcpy_lazy(dst, src, 64 KB), then read back the first
    // quarter of the destination.
    let mut uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
    for i in 0..(size / 4 / 64) {
        uops.push(Uop::new(
            UopKind::Load { addr: dst.add(i * 64), size: 64 },
            StatTag::App,
        ));
    }

    // A Table I machine with the (MC)² engine plugged into its memory
    // controllers.
    let cfg = SystemConfig::table1_one_core();
    let engine = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
    let mut sys = System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(engine));

    // Initialise the source with a recognisable pattern.
    let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    sys.poke(src, &data);

    let stats = sys.run(1_000_000_000).expect("program finishes");

    println!("ran {} cycles ({:.1} µs at 4 GHz)", stats.cycles, stats.cycles as f64 / 4000.0);
    println!("CTT inserts:            {}", stats.engine_counter("ctt_inserts"));
    println!("demand reconstructions: {}", stats.engine_counter("recon_demand"));
    println!("destination writebacks: {}", stats.engine_counter("dest_writebacks"));
    println!("entries still tracked:  {}", stats.engine_counter("ctt_live_entries"));
    println!(
        "DRAM reads: {}   (an eager copy would have read {} lines up front)",
        stats.mcs.iter().map(|m| m.reads).sum::<u64>(),
        size / 64
    );

    // Only the accessed quarter was ever copied; the rest stays tracked.
    let copied = sys.peek_materialized(dst, (size / 4) as usize);
    assert_eq!(copied, data[..(size / 4) as usize], "accessed data matches the source");
    println!("accessed quarter verified — data appears exactly as if copied eagerly");
}
