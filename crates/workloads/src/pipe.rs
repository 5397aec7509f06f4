//! Pipe transfer workload (Fig. 19) — user-kernel buffer copies.
//!
//! A producer writes `transfer`-byte chunks into a pipe and a consumer
//! reads them back, through the `mcs-os` pipe model, with the kernel
//! copies either eager (`copy_from_user`/`copy_to_user`) or lazy (the
//! paper's modified `pipe_write`/`pipe_read`). The figure reports
//! throughput in bytes per kilocycle; for small transfers the syscall cost
//! dominates, for large ones the copy does — which is where the lazy path
//! roughly doubles throughput.

use crate::common::{marker, pattern, Pokes};
use mcs_os::{CopyMode, OsCosts, Pipe};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::uop::{StatTag, Uop, UopKind};

/// Pipe workload parameters.
#[derive(Clone, Debug)]
pub struct PipeConfig {
    /// Bytes per transfer (the sweep axis: 1 KB – 16 KB).
    pub transfer: u64,
    /// Number of write+read round trips.
    pub rounds: usize,
    /// Kernel copy implementation.
    pub mode: CopyMode,
    /// Pipe buffer capacity (Linux default: 64 KB).
    pub capacity: u64,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig { transfer: 4096, rounds: 16, mode: CopyMode::Eager, capacity: 64 * 1024 }
    }
}

/// Build the transfer loop. Markers 0/1 bracket all rounds; total bytes
/// moved = `transfer × rounds` (each direction).
pub fn pipe_program(cfg: &PipeConfig, space: &mut AddrSpace) -> (Vec<Uop>, Pokes, u64) {
    let kbuf = space.alloc_page(cfg.capacity);
    let dst = space.alloc_page(cfg.transfer);
    let mut pipe = Pipe::new(kbuf, cfg.capacity, OsCosts::default());

    let mut pokes = Pokes::default();

    let mut uops = Vec::new();
    marker(&mut uops, 0);
    for r in 0..cfg.rounds {
        // A producer streams fresh data every round (the realistic case:
        // each send(2) carries new payload, cold to the cache).
        let src = space.alloc_page(cfg.transfer);
        pokes.add(src, pattern(cfg.transfer as usize, (31 + r % 100) as u8));
        let (w, n) = pipe.write_uops(uops.len() as u64, src, cfg.transfer, cfg.mode);
        assert_eq!(n, cfg.transfer, "transfer fits the pipe");
        uops.extend(w);
        let (rd, m) = pipe.read_uops(uops.len() as u64, dst, cfg.transfer, cfg.mode);
        assert_eq!(m, cfg.transfer);
        uops.extend(rd);
        // The consumer touches the first line of what it read (header
        // inspection), keeping the read path honest.
        uops.push(Uop::new(UopKind::Load { addr: dst, size: 8 }, StatTag::App));
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    marker(&mut uops, 1);
    (uops, pokes, cfg.transfer * cfg.rounds as u64)
}

/// Throughput in bytes per kilocycle given the marker-bracketed cycles.
pub fn throughput_bytes_per_kcycle(bytes: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        bytes as f64 / (cycles as f64 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sim::addr::PhysAddr;
    use crate::common::marker_latencies;
    use mcs_sim::config::SystemConfig;
    use mcs_sim::program::FixedProgram;
    use mcs_sim::system::System;
    use mcsquare::{McSquareConfig, McSquareEngine};

    fn run(mode: CopyMode, transfer: u64) -> (f64, Vec<u8>, PhysAddr) {
        let mut space = AddrSpace::new(PhysAddr(1 << 20), 1 << 28);
        let cfgw = PipeConfig { transfer, rounds: 4, mode, ..PipeConfig::default() };
        // dst is the third allocation; recompute it for verification.
        let (uops, pokes, bytes) = pipe_program(&cfgw, &mut space);
        let cfg = SystemConfig::tiny();
        let mut sys = match mode {
            CopyMode::Lazy => {
                let e = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
                System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(e))
            }
            CopyMode::Eager => System::new(cfg, vec![Box::new(FixedProgram::new(uops))]),
        };
        pokes.apply(&mut sys);
        let st = sys.run(500_000_000).expect("finishes");
        let cyc = marker_latencies(&st.cores[0])[0];
        let dst = PhysAddr((1 << 20) + cfgw.capacity + transfer.max(4096));
        (throughput_bytes_per_kcycle(bytes, cyc), sys.peek_materialized(dst, 16), dst)
    }

    #[test]
    fn eager_and_lazy_complete_and_move_data() {
        let (te, de, _) = run(CopyMode::Eager, 2048);
        let (tl, dl, _) = run(CopyMode::Lazy, 2048);
        assert!(te > 0.0 && tl > 0.0);
        // Both deliver the source bytes to the consumer.
        let want = pattern(16, 31);
        assert_eq!(de, want);
        assert_eq!(dl, want);
    }

    #[test]
    fn throughput_metric_sane() {
        assert_eq!(throughput_bytes_per_kcycle(1000, 0), 0.0);
        assert!((throughput_bytes_per_kcycle(64_000, 1_000) - 64_000.0).abs() < 1e-9);
    }
}
