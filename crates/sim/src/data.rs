//! Functional data: cacheline payloads and a sparse memory image.
//!
//! The simulator moves real bytes, not just timing tokens. Every read
//! response, cache fill, writeback, and bounce carries a [`LineData`],
//! every load result and store value a [`Bytes`], and each system owns one
//! [`SparseMem`] representing DRAM contents. This is
//! what lets the test suite prove the paper's central claim — "at all times,
//! data appears to the program as if it had been copied eagerly" — rather
//! than just measure cycles.

use crate::addr::{PhysAddr, CACHELINE, PAGE_4K};
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

/// An access value of at most one cacheline (a load result or a store's
/// data), held inline so that passing it between the core, the store
/// buffer and the L1 copies bytes instead of allocating.
#[derive(Copy, Clone)]
pub struct Bytes {
    len: u8,
    buf: [u8; CACHELINE as usize],
}

impl Bytes {
    /// A copy of `src`.
    ///
    /// # Panics
    /// Panics if `src` is longer than a cacheline.
    pub fn new(src: &[u8]) -> Bytes {
        let mut b = Bytes { len: src.len() as u8, buf: [0; CACHELINE as usize] };
        b.buf[..src.len()].copy_from_slice(src);
        b
    }

    /// `len` bytes, each holding `v`.
    ///
    /// # Panics
    /// Panics if `len` exceeds a cacheline.
    pub fn splat(v: u8, len: usize) -> Bytes {
        assert!(len <= CACHELINE as usize, "{len} bytes exceed a cacheline");
        let mut b = Bytes { len: len as u8, buf: [0; CACHELINE as usize] };
        b.buf[..len].fill(v);
        b
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes{:?}", &**self)
    }
}

/// Bytes per page of the memory image: the base page size, so one map
/// lookup serves a run of up to 64 lines.
const PAGE: u64 = PAGE_4K;
/// Lines per page of the memory image.
const PAGE_LINES: usize = (PAGE / CACHELINE) as usize;
/// One page of the memory image, as its 64 lines.
type Page = [[u8; CACHELINE as usize]; PAGE_LINES];

/// A sparse byte-addressable memory image, stored as 4 KB pages of lines.
///
/// Writing any byte of a page backs the whole page with zeros first, so
/// unbacked pages and the never-written bytes of backed pages both read
/// as zero, matching an OS that hands out zeroed pages. The map holds one
/// boxed page per touched page, keyed by page number: a line access
/// hashes once and indexes a line within the page, a byte run copies up to
/// a page at a time, and growing the map moves pointers, not page bytes.
/// `SparseMem` is purely functional — all timing lives in the DRAM model.
#[derive(Default, Clone)]
pub struct SparseMem {
    pages: FastMap<u64, Box<Page>>,
}

/// Index within its page of the line containing `addr`.
#[inline]
fn page_line(addr: PhysAddr) -> usize {
    (addr.page_off(PAGE) / CACHELINE) as usize
}

impl SparseMem {
    /// Create an empty (all-zero) memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// The page containing `addr`, if any byte of it was ever written.
    #[inline]
    fn page(&self, addr: PhysAddr) -> Option<&Page> {
        self.pages.get(&(addr.0 / PAGE)).map(|p| &**p)
    }

    /// The page containing `addr`, backed with zeros if it was not yet.
    #[inline]
    fn page_mut(&mut self, addr: PhysAddr) -> &mut Page {
        self.pages
            .entry(addr.0 / PAGE)
            .or_insert_with(|| Box::new([[0; CACHELINE as usize]; PAGE_LINES]))
    }

    /// Read the full line containing `addr` (which need not be aligned).
    pub fn read_line(&self, addr: PhysAddr) -> LineData {
        self.page(addr)
            .map_or(LineData::ZERO, |p| LineData(p[page_line(addr)]))
    }

    /// Overwrite the full line containing `addr`.
    pub fn write_line(&mut self, addr: PhysAddr, data: LineData) {
        self.page_mut(addr)[page_line(addr)] = data.0;
    }

    /// Read `len` bytes starting at `addr`, crossing pages as needed.
    pub fn read_bytes(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        while out.len() < len {
            let off = a.page_off(PAGE) as usize;
            let take = (len - out.len()).min(PAGE as usize - off);
            match self.page(a) {
                Some(p) => out.extend_from_slice(&p.as_flattened()[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
            a = a.add(take as u64);
        }
        out
    }

    /// Write `bytes` starting at `addr`, crossing pages as needed.
    pub fn write_bytes(&mut self, addr: PhysAddr, bytes: &[u8]) {
        let mut a = addr;
        let mut src = bytes;
        while !src.is_empty() {
            let off = a.page_off(PAGE) as usize;
            let take = src.len().min(PAGE as usize - off);
            self.page_mut(a).as_flattened_mut()[off..off + take].copy_from_slice(&src[..take]);
            a = a.add(take as u64);
            src = &src[take..];
        }
    }
}

impl fmt::Debug for SparseMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseMem({} pages backed)", self.pages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_hold_up_to_one_line_inline() {
        let empty = Bytes::new(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty, Bytes::splat(9, 0));

        let one = Bytes::new(&[7]);
        assert_eq!((one.len(), one[0]), (1, 7));
        assert_ne!(one, Bytes::new(&[7, 0]), "length is part of the value");

        let src: Vec<u8> = (0..64).collect();
        let full = Bytes::new(&src);
        assert_eq!(full, *src.as_slice());
        assert_eq!(&full[60..], &[60, 61, 62, 63]);
        assert_eq!(Bytes::splat(0xab, 3), *[0xab; 3].as_slice());

        assert_eq!(format!("{:?}", Bytes::new(&[1, 2, 255])), "Bytes[1, 2, 255]");
    }

    #[test]
    #[should_panic]
    fn bytes_reject_more_than_a_line() {
        let _ = Bytes::new(&[0; 65]);
    }

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
    fn line_write_backs_its_page_with_zeros() {
        let mut m = SparseMem::new();
        m.write_line(PhysAddr(0x3040), LineData::splat(5));
        assert_eq!(format!("{m:?}"), "SparseMem(1 pages backed)");
        assert_eq!(m.read_line(PhysAddr(0x3000)), LineData::ZERO);
        assert_eq!(m.read_line(PhysAddr(0x3fc0)), LineData::ZERO);
        assert_eq!(m.read_bytes(PhysAddr(0x303f), 3), vec![0, 5, 5]);
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
