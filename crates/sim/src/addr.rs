//! Physical addresses and cacheline/page arithmetic.
//!
//! The simulator deals exclusively in physical addresses, like the paper's
//! memory controller ((MC)² "deals with only physical addresses", §III-E).
//! Virtual memory, where needed, is modelled by the `mcs-os` crate on top.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of a cacheline in bytes. Fixed at 64, typical of x86 systems and the
/// granularity the paper assumes throughout.
pub const CACHELINE: u64 = 64;
/// Size of a base (small) page in bytes.
pub const PAGE_4K: u64 = 4096;
/// Size of a huge page in bytes (2 MiB) — also the maximum size a single
/// 21-bit CTT entry can track.
pub const PAGE_2M: u64 = 2 * 1024 * 1024;

/// A physical byte address.
///
/// Wraps a `u64`; the paper tracks 52-bit physical addresses, the upper
/// limit most systems support. Arithmetic helpers below never mask to 52
/// bits — the simulator simply never allocates beyond that.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Base address of the cacheline containing this address.
    #[inline]
    pub fn line_base(self) -> PhysAddr {
        PhysAddr(self.0 & !(CACHELINE - 1))
    }

    /// Byte offset of this address within its cacheline.
    #[inline]
    pub fn line_off(self) -> u64 {
        self.0 & (CACHELINE - 1)
    }

    /// The cacheline index (address divided by the line size).
    #[inline]
    pub fn line(self) -> u64 {
        self.0 / CACHELINE
    }

    /// Base address of the page of size `page` containing this address.
    ///
    /// # Panics
    /// Panics (in debug builds) if `page` is not a power of two.
    #[inline]
    pub fn page_base(self, page: u64) -> PhysAddr {
        debug_assert!(page.is_power_of_two());
        PhysAddr(self.0 & !(page - 1))
    }

    /// Byte offset within the page of size `page`.
    #[inline]
    pub fn page_off(self, page: u64) -> u64 {
        debug_assert!(page.is_power_of_two());
        self.0 & (page - 1)
    }

    /// Whether this address is aligned to `align` bytes.
    #[inline]
    pub fn is_aligned(self, align: u64) -> bool {
        debug_assert!(align.is_power_of_two());
        self.0 & (align - 1) == 0
    }

    /// Number of bytes needed to advance this address to the next `align`
    /// boundary (0 if already aligned). This is the paper's `ALIGN_REM`
    /// macro from the Fig. 8 pseudocode.
    #[inline]
    pub fn align_rem(self, align: u64) -> u64 {
        debug_assert!(align.is_power_of_two());
        (align - (self.0 & (align - 1))) & (align - 1)
    }

    /// Address `bytes` past this one.
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: `a.add(n)` reads as pointer math
    pub fn add(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// Iterate over the cachelines overlapping the byte range
/// `[start, start + len)`. Yields the line base addresses in order.
///
/// ```
/// use mcs_sim::addr::{lines_of, PhysAddr};
/// let v: Vec<_> = lines_of(PhysAddr(100), 64).collect();
/// assert_eq!(v, vec![PhysAddr(64), PhysAddr(128)]);
/// ```
pub fn lines_of(start: PhysAddr, len: u64) -> impl Iterator<Item = PhysAddr> {
    let first = start.line_base().0;
    let last = if len == 0 {
        first
    } else {
        PhysAddr(start.0 + len - 1).line_base().0 + CACHELINE
    };
    (first..last).step_by(CACHELINE as usize).map(PhysAddr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_base_and_offset() {
        let a = PhysAddr(0x1234);
        assert_eq!(a.line_base(), PhysAddr(0x1200));
        assert_eq!(a.line_off(), 0x34);
        assert_eq!(a.line(), 0x1200 / 64);
    }

    #[test]
    fn page_arithmetic() {
        let a = PhysAddr(PAGE_4K * 3 + 17);
        assert_eq!(a.page_base(PAGE_4K), PhysAddr(PAGE_4K * 3));
        assert_eq!(a.page_off(PAGE_4K), 17);
        assert_eq!(a.page_base(PAGE_2M), PhysAddr(0));
    }

    #[test]
    fn align_rem_matches_paper_macro() {
        // ALIGN_REM(dest, CL_SIZE) = bytes to add to reach alignment.
        assert_eq!(PhysAddr(0x40).align_rem(64), 0);
        assert_eq!(PhysAddr(0x41).align_rem(64), 63);
        assert_eq!(PhysAddr(0x7f).align_rem(64), 1);
        for off in 0..128u64 {
            let a = PhysAddr(0x1000 + off);
            let r = a.align_rem(64);
            assert!(a.add(r).is_aligned(64));
            assert!(r < 64);
        }
    }

    #[test]
    fn lines_of_ranges() {
        assert_eq!(lines_of(PhysAddr(0), 0).count(), 0);
        assert_eq!(lines_of(PhysAddr(0), 1).count(), 1);
        assert_eq!(lines_of(PhysAddr(0), 64).count(), 1);
        assert_eq!(lines_of(PhysAddr(0), 65).count(), 2);
        assert_eq!(lines_of(PhysAddr(63), 2).count(), 2);
        let v: Vec<_> = lines_of(PhysAddr(130), 190).collect();
        assert_eq!(v, vec![PhysAddr(128), PhysAddr(192), PhysAddr(256)]);
    }

    #[test]
    fn alignment_checks() {
        assert!(PhysAddr(0).is_aligned(64));
        assert!(PhysAddr(4096).is_aligned(4096));
        assert!(!PhysAddr(4097).is_aligned(4096));
    }
}
