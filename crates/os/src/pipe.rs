//! Kernel pipe model (§V-B "User-kernel buffer copies", Fig. 19).
//!
//! A pipe is a kernel ring buffer; `write(2)` copies user bytes into it
//! and `read(2)` copies them out. The paper modifies `pipe_write` and
//! `pipe_read` to use lazy copies instead: the syscall cost stays, the
//! copy becomes an `MCLAZY`. Transfers therefore involve two copies
//! (user→kernel, kernel→user), both replaceable by the lazy path.

use crate::costs::{serialized_cost, OsCosts};
use crate::CopyMode;
use mcs_sim::addr::PhysAddr;
use mcs_sim::uop::{StatTag, Uop};
use mcsquare::software::{memcpy_eager_uops, memcpy_lazy_uops, LazyOpts};

/// A kernel pipe with a physically contiguous ring buffer.
#[derive(Debug)]
pub struct Pipe {
    buf: PhysAddr,
    capacity: u64,
    head: u64, // next write offset
    tail: u64, // next read offset
    used: u64,
    costs: OsCosts,
    /// Bytes transferred through the pipe (stats).
    pub bytes_moved: u64,
}

impl Pipe {
    /// Create a pipe over a `capacity`-byte kernel buffer at `buf`
    /// (capacity must be a power of two, like Linux's 64 KB default).
    pub fn new(buf: PhysAddr, capacity: u64, costs: OsCosts) -> Pipe {
        assert!(capacity.is_power_of_two());
        Pipe { buf, capacity, head: 0, tail: 0, used: 0, costs, bytes_moved: 0 }
    }

    /// Free space in the buffer.
    pub fn free_space(&self) -> u64 {
        self.capacity - self.used
    }

    /// Bytes available to read.
    pub fn available(&self) -> u64 {
        self.used
    }

    fn copy(
        base_id: u64,
        dst: PhysAddr,
        src: PhysAddr,
        len: u64,
        mode: CopyMode,
    ) -> Vec<Uop> {
        match mode {
            CopyMode::Eager => memcpy_eager_uops(base_id, dst, src, len, StatTag::Kernel),
            CopyMode::Lazy => memcpy_lazy_uops(
                base_id,
                dst,
                src,
                len,
                &LazyOpts { tag: StatTag::Kernel, ..LazyOpts::default() },
            ),
        }
    }

    /// `write(fd, src, len)`: syscall cost + copy into the ring buffer.
    /// Returns the kernel uops and the bytes accepted (bounded by free
    /// space; like `O_NONBLOCK`, never blocks).
    pub fn write_uops(
        &mut self,
        base_id: u64,
        src: PhysAddr,
        len: u64,
        mode: CopyMode,
    ) -> (Vec<Uop>, u64) {
        let mut uops = Vec::new();
        serialized_cost(&mut uops, self.costs.syscall, StatTag::Kernel);
        let mut moved = 0;
        let take = len.min(self.free_space());
        while moved < take {
            let off = (self.head + moved) & (self.capacity - 1);
            let run = (take - moved).min(self.capacity - off);
            uops.extend(Self::copy(
                base_id + uops.len() as u64,
                self.buf.add(off),
                src.add(moved),
                run,
                mode,
            ));
            moved += run;
        }
        self.head = (self.head + moved) & (self.capacity - 1);
        self.used += moved;
        self.bytes_moved += moved;
        (uops, moved)
    }

    /// `read(fd, dst, len)`: syscall cost + copy out of the ring buffer.
    pub fn read_uops(
        &mut self,
        base_id: u64,
        dst: PhysAddr,
        len: u64,
        mode: CopyMode,
    ) -> (Vec<Uop>, u64) {
        let mut uops = Vec::new();
        serialized_cost(&mut uops, self.costs.syscall, StatTag::Kernel);
        let mut moved = 0;
        let take = len.min(self.available());
        while moved < take {
            let off = (self.tail + moved) & (self.capacity - 1);
            let run = (take - moved).min(self.capacity - off);
            uops.extend(Self::copy(
                base_id + uops.len() as u64,
                dst.add(moved),
                self.buf.add(off),
                run,
                mode,
            ));
            moved += run;
        }
        self.tail = (self.tail + moved) & (self.capacity - 1);
        self.used -= moved;
        (uops, moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sim::uop::UopKind;

    fn pipe() -> Pipe {
        Pipe::new(PhysAddr(0x100000), 4096, OsCosts::free())
    }

    #[test]
    fn write_then_read_tracks_occupancy() {
        let mut p = pipe();
        let (w, n) = p.write_uops(0, PhysAddr(0x200000), 1000, CopyMode::Eager);
        assert_eq!(n, 1000);
        assert!(w.len() > 1);
        assert_eq!(p.available(), 1000);
        let (_, m) = p.read_uops(0, PhysAddr(0x300000), 1000, CopyMode::Eager);
        assert_eq!(m, 1000);
        assert_eq!(p.available(), 0);
    }

    #[test]
    fn write_bounded_by_capacity() {
        let mut p = pipe();
        let (_, n) = p.write_uops(0, PhysAddr(0x200000), 10_000, CopyMode::Eager);
        assert_eq!(n, 4096);
        let (_, n2) = p.write_uops(0, PhysAddr(0x200000), 10, CopyMode::Eager);
        assert_eq!(n2, 0, "full pipe accepts nothing");
    }

    #[test]
    fn ring_wraps_without_crossing() {
        let mut p = pipe();
        p.write_uops(0, PhysAddr(0x200000), 3000, CopyMode::Eager);
        p.read_uops(0, PhysAddr(0x300000), 3000, CopyMode::Eager);
        // head = tail = 3000; a 2000-byte write wraps.
        let (uops, n) = p.write_uops(0, PhysAddr(0x200000), 2000, CopyMode::Eager);
        assert_eq!(n, 2000);
        // All stores must land inside the buffer.
        for u in &uops {
            if let UopKind::Store { addr, .. } = u.kind {
                assert!(addr.0 >= 0x100000 && addr.0 < 0x100000 + 4096);
            }
        }
    }

    #[test]
    fn lazy_mode_emits_mclazy() {
        let mut p = pipe();
        let (uops, _) = p.write_uops(0, PhysAddr(0x200000), 2048, CopyMode::Lazy);
        assert!(uops.iter().any(|u| matches!(u.kind, UopKind::Mclazy { .. })));
        assert!(matches!(uops[0].kind, UopKind::PipelineFlush), "syscall entry serialises");
    }

    #[test]
    fn read_bounded_by_available() {
        let mut p = pipe();
        p.write_uops(0, PhysAddr(0x200000), 100, CopyMode::Eager);
        let (_, n) = p.read_uops(0, PhysAddr(0x300000), 500, CopyMode::Eager);
        assert_eq!(n, 100);
    }
}
