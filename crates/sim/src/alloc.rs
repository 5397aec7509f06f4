//! A bump allocator over simulated physical memory.
//!
//! Workloads use this to carve buffers out of the 3 GB simulated DRAM.
//! There is no free — experiments allocate once and run — but the allocator
//! supports alignment and deliberate misalignment (several experiments
//! purposely misalign source and destination, §V-A2).

use crate::addr::{PhysAddr, CACHELINE, PAGE_2M, PAGE_4K};

/// A bump allocator over a contiguous physical range.
#[derive(Debug, Clone)]
pub struct AddrSpace {
    next: u64,
    end: u64,
}

impl AddrSpace {
    /// Allocate over `[base, base + size)`.
    pub fn new(base: PhysAddr, size: u64) -> AddrSpace {
        AddrSpace { next: base.0, end: base.0 + size }
    }

    /// An address space matching the paper's 3 GB DRAM, skipping the first
    /// 1 MB (so address 0 never aliases a buffer).
    pub fn dram_3gb() -> AddrSpace {
        AddrSpace::new(PhysAddr(1 << 20), 3 * (1 << 30) - (1 << 20))
    }

    /// Allocate `size` bytes aligned to `align` (a power of two).
    ///
    /// # Panics
    /// Panics if the space is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> PhysAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        assert!(base + size <= self.end, "simulated address space exhausted");
        self.next = base + size;
        PhysAddr(base)
    }

    /// Allocate cacheline-aligned.
    pub fn alloc_lines(&mut self, size: u64) -> PhysAddr {
        self.alloc(size, CACHELINE)
    }

    /// Allocate 4 KB-page-aligned.
    pub fn alloc_page(&mut self, size: u64) -> PhysAddr {
        self.alloc(size, PAGE_4K)
    }

    /// Allocate 2 MB-hugepage-aligned.
    pub fn alloc_hugepage(&mut self, size: u64) -> PhysAddr {
        self.alloc(size, PAGE_2M)
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> u64 {
        self.end - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut s = AddrSpace::new(PhysAddr(100), 1 << 20);
        let a = s.alloc(10, 64);
        assert!(a.is_aligned(64));
        let b = s.alloc(10, 4096);
        assert!(b.is_aligned(4096));
        assert!(b.0 > a.0);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut s = AddrSpace::new(PhysAddr(0), 1 << 20);
        let a = s.alloc(100, 64);
        let b = s.alloc(100, 64);
        assert!(b.0 >= a.0 + 100);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut s = AddrSpace::new(PhysAddr(0), 128);
        let _ = s.alloc(256, 64);
    }

    #[test]
    fn dram_3gb_has_room() {
        let mut s = AddrSpace::dram_3gb();
        assert!(s.remaining() > 2 * (1 << 30));
        let a = s.alloc_hugepage(PAGE_2M);
        assert!(a.is_aligned(PAGE_2M));
    }
}
