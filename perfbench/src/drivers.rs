//! Isolated layer drivers (traced mode only): host nanoseconds per call of
//! one layer, measured outside the full machine so a change to that layer
//! shows without the rest of the simulator around it.

use mcs_sim::addr::PhysAddr;
use mcs_sim::config::{DramConfig, MemTech, SystemConfig};
use mcs_sim::data::SparseMem;
use mcs_sim::dram::{self, DramBackend};
use mcs_sim::engine::NullEngine;
use mcs_sim::link::DelayQueue;
use mcs_sim::mc::MemCtrl;
use mcs_sim::packet::{MemCmd, Node, Packet};
use mcsquare::ctt::CttError;
use mcsquare::Ctt;
use std::hint::black_box;
use std::time::Instant;

/// DRAM accesses per stream per technology.
const DRAM_ACCESSES: u64 = 400_000;
/// Copies inserted per CTT round, and rounds.
const CTT_COPIES: u64 = 512;
const CTT_ROUNDS: u64 = 40;
/// Read requests completed by the memory-controller driver.
const MC_REQUESTS: u64 = 100_000;

fn per_call_ns(t0: Instant, calls: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Addresses on channel 0, in line order.
fn channel0_lines(channels: usize) -> impl Iterator<Item = PhysAddr> {
    (0u64..).map(move |i| PhysAddr(i * 64 * channels as u64))
}

/// Host ns per `DramBackend::access` for `tech`, over a row-hit stream and
/// a row-conflict stream (mean of the two). The streams are found by
/// probing the backend, so they follow its address mapping.
pub fn dram_ns_per_access(tech: MemTech) -> f64 {
    let cfg = SystemConfig::builder().tech(tech).build();
    let fresh = || dram::build(&no_refresh(&cfg), cfg.channels);
    let mut probe = fresh();
    let first = PhysAddr(0);
    probe.access(0, first);
    // Lines that hit the row `first` opened, and one that conflicts with it.
    let hits: Vec<PhysAddr> = channel0_lines(cfg.channels)
        .take(4096)
        .filter(|&a| probe.is_row_hit(a))
        .take(16)
        .collect();
    let conflict = channel0_lines(cfg.channels)
        .take(1 << 20)
        .find(|&a| probe.bank_of(a) == probe.bank_of(first) && !probe.is_row_hit(a))
        .expect("some line conflicts with the first row");

    let drive = |d: &mut DramBackend, addrs: &[PhysAddr]| {
        let mut now = 0;
        let t0 = Instant::now();
        for i in 0..DRAM_ACCESSES {
            let (done, outcome) = d.access(now, addrs[i as usize % addrs.len()]);
            black_box(outcome);
            now = done;
        }
        per_call_ns(t0, DRAM_ACCESSES)
    };
    let hit_ns = drive(&mut fresh(), &hits);
    let conflict_ns = drive(&mut fresh(), &[first, conflict]);
    (hit_ns + conflict_ns) / 2.0
}

/// The configuration's channel timing with refresh off.
fn no_refresh(cfg: &SystemConfig) -> DramConfig {
    DramConfig {
        t_refi: 0,
        ..cfg.dram.clone()
    }
}

/// Host ns per `Ctt::try_insert` and per `Ctt::lookup_line`, on a
/// fragmenting pattern: misaligned 4 KB copies whose destinations are then
/// punched with 64 B writes (`remove_dst`), so lookups see split entries.
pub fn ctt_ns() -> (f64, f64) {
    let (mut insert_ns, mut lookup_ns) = (0u64, 0u64);
    let mut lookups = 0u64;
    for round in 0..CTT_ROUNDS {
        let mut ctt = Ctt::new(4096);
        let dst0 = 1u64 << 30;
        let src0 = 2u64 << 30;
        let t0 = Instant::now();
        for i in 0..CTT_COPIES {
            let dst = PhysAddr(dst0 + i * 8192);
            let src = PhysAddr(src0 + i * 8192 + 20 + (round % 4) * 8);
            match ctt.try_insert(dst, src, 4096) {
                Ok(()) | Err(CttError::Full) => {}
                Err(e) => panic!("fragmenting pattern never overlaps sources: {e}"),
            }
        }
        insert_ns += t0.elapsed().as_nanos() as u64;
        for i in 0..CTT_COPIES {
            ctt.remove_dst(PhysAddr(dst0 + i * 8192 + 64 * (1 + i % 60)), 64);
        }
        let t0 = Instant::now();
        for i in 0..CTT_COPIES * 64 {
            black_box(ctt.lookup_line(PhysAddr(dst0 + (i / 64) * 8192 + (i % 64) * 64)));
            lookups += 1;
        }
        lookup_ns += t0.elapsed().as_nanos() as u64;
    }
    (
        insert_ns as f64 / (CTT_COPIES * CTT_ROUNDS) as f64,
        lookup_ns as f64 / lookups as f64,
    )
}

/// Host ns per completed read request of one `MemCtrl` with `NullEngine`
/// on Table I DDR4, fed through a `DelayQueue` with the read queue kept
/// full. Row-buffer locality is mixed: 8 sequential lines per random jump.
pub fn mc_ns_per_req() -> f64 {
    let cfg = SystemConfig::table1();
    let dram_cfg = no_refresh(&cfg);
    let mut mc = MemCtrl::new(0, cfg.mc.clone(), dram::build(&dram_cfg, cfg.channels));
    let mut input: DelayQueue<Packet> = DelayQueue::new(1);
    let mut engine = NullEngine;
    let mut mem = SparseMem::new();
    let mut out = Vec::new();
    let lines: Vec<PhysAddr> = channel0_lines(cfg.channels).take(1 << 16).collect();
    let (mut rng, mut cursor) = (0x2545_f491_4f6c_dd1du64, 0usize);
    let (mut sent, mut done, mut now) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    while done < MC_REQUESTS {
        while sent - done < cfg.mc.rpq_cap as u64 && input.len() < 4 {
            if sent % 8 == 0 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                cursor = (rng % lines.len() as u64) as usize;
            }
            input.push(now, Packet::read(lines[cursor % lines.len()], Node::Mc(0)));
            cursor += 1;
            sent += 1;
        }
        mc.tick(now, &mut input, &mut engine, &mut mem, &mut out);
        done += out
            .drain(..)
            .filter(|(p, _)| p.cmd == MemCmd::ReadResp)
            .count() as u64;
        now += 1;
    }
    per_call_ns(t0, done)
}
