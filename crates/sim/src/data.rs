//! Functional data: cacheline payloads and a sparse memory image.
//!
//! The simulator moves real bytes, not just timing tokens. Every read
//! response, cache fill, writeback, and bounce carries a [`LineData`], and
//! each system owns one [`SparseMem`] representing DRAM contents. This is
//! what lets the test suite prove the paper's central claim — "at all times,
//! data appears to the program as if it had been copied eagerly" — rather
//! than just measure cycles.

use crate::addr::{PhysAddr, CACHELINE};
use crate::hash::FastMap;
use std::fmt;

/// The contents of one 64-byte cacheline.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct LineData(pub [u8; CACHELINE as usize]);

impl LineData {
    /// A line of all-zero bytes (the contents of untouched memory).
    pub const ZERO: LineData = LineData([0; CACHELINE as usize]);

    /// Construct a line where every byte holds `b`.
    pub fn splat(b: u8) -> LineData {
        LineData([b; CACHELINE as usize])
    }

    /// Copy `src` into this line starting at byte `off`.
    ///
    /// # Panics
    /// Panics if `off + src.len()` exceeds the line size.
    pub fn write(&mut self, off: usize, src: &[u8]) {
        self.0[off..off + src.len()].copy_from_slice(src);
    }

    /// Read `len` bytes starting at byte `off`.
    ///
    /// # Panics
    /// Panics if `off + len` exceeds the line size.
    pub fn read(&self, off: usize, len: usize) -> &[u8] {
        &self.0[off..off + len]
    }
}

impl Default for LineData {
    fn default() -> Self {
        LineData::ZERO
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print first 8 bytes; full dumps are unreadable in test output.
        write!(
            f,
            "LineData[{:02x} {:02x} {:02x} {:02x} {:02x} {:02x} {:02x} {:02x} ..]",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5], self.0[6], self.0[7]
        )
    }
}

/// A sparse byte-addressable memory image, keyed by cacheline.
///
/// Unbacked lines read as zero, matching an OS that hands out zeroed pages.
/// `SparseMem` is purely functional — all timing lives in the DRAM model.
#[derive(Default, Clone)]
pub struct SparseMem {
    lines: FastMap<u64, LineData>,
}

impl SparseMem {
    /// Create an empty (all-zero) memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read the full line containing `addr` (which need not be aligned).
    pub fn read_line(&self, addr: PhysAddr) -> LineData {
        self.lines
            .get(&addr.line_base().0)
            .copied()
            .unwrap_or(LineData::ZERO)
    }

    /// Overwrite the full line containing `addr`.
    pub fn write_line(&mut self, addr: PhysAddr, data: LineData) {
        self.lines.insert(addr.line_base().0, data);
    }

    /// Read `len` bytes starting at `addr`, crossing lines as needed.
    pub fn read_bytes(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        let mut rem = len;
        while rem > 0 {
            let off = a.line_off() as usize;
            let take = rem.min(CACHELINE as usize - off);
            let line = self.read_line(a);
            out.extend_from_slice(line.read(off, take));
            a = a.add(take as u64);
            rem -= take;
        }
        out
    }

    /// Write `bytes` starting at `addr`, crossing lines as needed.
    pub fn write_bytes(&mut self, addr: PhysAddr, bytes: &[u8]) {
        let mut a = addr;
        let mut src = bytes;
        while !src.is_empty() {
            let off = a.line_off() as usize;
            let take = src.len().min(CACHELINE as usize - off);
            let mut line = self.read_line(a);
            line.write(off, &src[..take]);
            self.write_line(a, line);
            a = a.add(take as u64);
            src = &src[take..];
        }
    }
}

impl fmt::Debug for SparseMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseMem({} lines backed)", self.lines.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = SparseMem::new();
        assert_eq!(m.read_line(PhysAddr(0x1000)), LineData::ZERO);
        assert_eq!(m.read_bytes(PhysAddr(12345), 10), vec![0u8; 10]);
    }

    #[test]
    fn roundtrip_within_line() {
        let mut m = SparseMem::new();
        m.write_bytes(PhysAddr(0x100), &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(PhysAddr(0x100), 4), vec![1, 2, 3, 4]);
        assert_eq!(m.read_bytes(PhysAddr(0x0fe), 8), vec![0, 0, 1, 2, 3, 4, 0, 0]);
    }

    #[test]
    fn roundtrip_across_lines() {
        let mut m = SparseMem::new();
        let data: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        m.write_bytes(PhysAddr(0x1f0), &data); // misaligned, crosses 4 lines
        assert_eq!(m.read_bytes(PhysAddr(0x1f0), 200), data);
    }

    #[test]
    fn line_write_and_splat() {
        let mut m = SparseMem::new();
        m.write_line(PhysAddr(0x247), LineData::splat(0xab)); // unaligned addr ok
        assert_eq!(m.read_line(PhysAddr(0x240)), LineData::splat(0xab));
        assert_eq!(m.read_bytes(PhysAddr(0x23f), 2), vec![0, 0xab]);
    }

    #[test]
    fn partial_line_update_preserves_rest() {
        let mut m = SparseMem::new();
        m.write_line(PhysAddr(0x0), LineData::splat(7));
        m.write_bytes(PhysAddr(0x8), &[9, 9]);
        let line = m.read_line(PhysAddr(0x0));
        assert_eq!(line.read(7, 4), &[7, 9, 9, 7]);
    }
}
