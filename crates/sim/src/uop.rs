//! Micro-operations: the instruction vocabulary programs feed to cores.
//!
//! This is deliberately a memory-centric ISA: the paper's experiments are
//! entirely memory-bound, so non-memory work is abstracted as
//! [`UopKind::Compute`] with a cycle cost. The two new instructions the
//! paper introduces, `MCLAZY` and `MCFREE` (§III-C), are first-class uops.

use crate::addr::{PhysAddr, CACHELINE};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Attribution tag used by the statistics machinery: which logical activity
/// a uop belongs to. Regenerates the paper's "cycles spent in memcpy"
/// accounting (Figs. 2–3).
#[derive(
    Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize, Default,
)]
pub enum StatTag {
    /// Application work.
    #[default]
    App,
    /// Inside a memcpy / memcpy_lazy call.
    Memcpy,
    /// Kernel work (fault handlers, syscalls, pipe copies).
    Kernel,
}

/// Identifier of a uop within one core's program (assigned by the core at
/// dispatch, monotonically increasing).
pub type UopId = u64;

/// Where a store's bytes come from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreData {
    /// Immediate bytes (length = store size).
    Imm(Vec<u8>),
    /// Every stored byte is this value.
    Splat(u8),
    /// Bytes produced by a previous load of this program: the load
    /// identified by the program-order index returned from
    /// [`crate::program::Program::fetch`] (its [`UopId`]), starting at
    /// `offset` within that load's result.
    FromLoad {
        /// Uop id of the producing load.
        load: UopId,
        /// Byte offset within the load result.
        offset: u8,
    },
}

/// A micro-operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UopKind {
    /// Load `size` bytes from `addr`. Must not cross a cacheline boundary.
    Load {
        /// Physical address.
        addr: PhysAddr,
        /// Access size in bytes (1..=64).
        size: u8,
    },
    /// Store `size` bytes to `addr`. Must not cross a cacheline boundary.
    Store {
        /// Physical address.
        addr: PhysAddr,
        /// Access size in bytes (1..=64).
        size: u8,
        /// Data source.
        data: StoreData,
        /// Non-temporal: bypass the caches and write straight to memory
        /// (no read-for-ownership; used by the Fig. 17 variant).
        nontemporal: bool,
    },
    /// Write back the (possibly dirty) line containing `addr` to memory,
    /// keeping it cached clean — the CLWB instruction the software wrapper
    /// issues per source line (§IV).
    Clwb {
        /// Any address within the target line.
        addr: PhysAddr,
    },
    /// Write back every dirty line in `[addr, addr+size)` to memory in one
    /// instruction — the wider writeback operation §V-A1 proposes to
    /// remove `memcpy_lazy`'s per-line CLWB serialisation ("a wider
    /// writeback operation could be provided, for example operating at a
    /// page granularity").
    WbRange {
        /// Range start (any alignment).
        addr: PhysAddr,
        /// Range size in bytes.
        size: u64,
    },
    /// The paper's MCLAZY instruction: request a prospective copy.
    Mclazy {
        /// Destination (must be cacheline aligned).
        dst: PhysAddr,
        /// Source (any alignment; must not overlap the destination).
        src: PhysAddr,
        /// Bytes to copy (must be a multiple of the cacheline size).
        size: u64,
    },
    /// The paper's MCFREE instruction: hint that a buffer is dead.
    Mcfree {
        /// Start of the freed buffer.
        addr: PhysAddr,
        /// Size in bytes.
        size: u64,
    },
    /// Full memory fence: later uops wait until all earlier memory effects
    /// (stores, CLWBs, MCLAZYs, NT stores) are complete.
    Mfence,
    /// Non-memory work occupying the pipeline for `cycles` cycles.
    Compute {
        /// Cost in cycles.
        cycles: u32,
    },
    /// Timestamp marker: records the retire cycle under `id` in the core
    /// statistics (the RDTSC-style instrumentation the paper uses for
    /// per-operation latencies, Figs. 15 and 18). Free of cost.
    Marker {
        /// Marker identifier reported in [`crate::stats::CoreStats::markers`].
        id: u32,
    },
    /// Pipeline serialisation point: later uops do not dispatch until this
    /// uop retires from an otherwise-empty pipeline with memory drained —
    /// the behaviour of privilege transitions (syscall/trap entry and
    /// exit) and other serialising instructions. Used by the kernel cost
    /// model so syscall and fault costs do not overlap surrounding work.
    PipelineFlush,
}

/// A tagged micro-operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Uop {
    /// Operation.
    pub kind: UopKind,
    /// Statistics attribution.
    pub tag: StatTag,
}

impl Uop {
    /// Construct a uop.
    pub fn new(kind: UopKind, tag: StatTag) -> Uop {
        Uop { kind, tag }
    }

    /// Validate structural constraints (alignment, sizes, MCLAZY source
    /// and destination disjoint). Programs are expected to produce valid
    /// uops; the core asserts this in debug builds.
    ///
    /// # Errors
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match &self.kind {
            UopKind::Load { addr, size } => check_access(*addr, *size),
            UopKind::Store { addr, size, data, .. } => {
                check_access(*addr, *size)?;
                if let StoreData::Imm(b) = data {
                    if b.len() != *size as usize {
                        return Err(format!(
                            "store imm length {} != size {}",
                            b.len(),
                            size
                        ));
                    }
                }
                Ok(())
            }
            UopKind::Mclazy { dst, src, size } => {
                if !dst.is_aligned(CACHELINE) {
                    return Err(format!("MCLAZY dst {dst} not cacheline aligned"));
                }
                if *size == 0 || *size % CACHELINE != 0 {
                    return Err(format!("MCLAZY size {size} not a multiple of 64"));
                }
                if src.0 < dst.0.saturating_add(*size) && dst.0 < src.0.saturating_add(*size) {
                    return Err(format!("MCLAZY src {src} overlaps dst {dst} ({size}B)"));
                }
                Ok(())
            }
            UopKind::Mcfree { size, .. } => {
                if *size == 0 {
                    return Err("MCFREE size 0".into());
                }
                Ok(())
            }
            UopKind::WbRange { size, .. } => {
                if *size == 0 || *size > crate::addr::PAGE_2M {
                    return Err(format!("WBRANGE size {size} out of range"));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

fn check_access(addr: PhysAddr, size: u8) -> Result<(), String> {
    if size == 0 || size as u64 > CACHELINE {
        return Err(format!("access size {size} out of range"));
    }
    if addr.line_off() + size as u64 > CACHELINE {
        return Err(format!("access at {addr} size {size} crosses a cacheline"));
    }
    Ok(())
}

impl fmt::Display for Uop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            UopKind::Load { addr, size } => write!(f, "ld {size}B @{addr}"),
            UopKind::Store { addr, size, nontemporal, .. } => {
                write!(f, "st{} {size}B @{addr}", if *nontemporal { ".nt" } else { "" })
            }
            UopKind::Clwb { addr } => write!(f, "clwb @{addr}"),
            UopKind::WbRange { addr, size } => write!(f, "wbrange {size}B @{addr}"),
            UopKind::Mclazy { dst, src, size } => {
                write!(f, "mclazy {size}B {src} -> {dst}")
            }
            UopKind::Mcfree { addr, size } => write!(f, "mcfree {size}B @{addr}"),
            UopKind::Mfence => write!(f, "mfence"),
            UopKind::Compute { cycles } => write!(f, "compute {cycles}cy"),
            UopKind::Marker { id } => write!(f, "marker #{id}"),
            UopKind::PipelineFlush => write!(f, "pipeline-flush"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_load() {
        let u = Uop::new(UopKind::Load { addr: PhysAddr(0x40), size: 64 }, StatTag::App);
        assert!(u.validate().is_ok());
    }

    #[test]
    fn load_crossing_line_rejected() {
        let u = Uop::new(UopKind::Load { addr: PhysAddr(0x41), size: 64 }, StatTag::App);
        assert!(u.validate().is_err());
        let u = Uop::new(UopKind::Load { addr: PhysAddr(0x7f), size: 2 }, StatTag::App);
        assert!(u.validate().is_err());
    }

    #[test]
    fn mclazy_alignment_rules() {
        let ok = Uop::new(
            UopKind::Mclazy { dst: PhysAddr(0x1000), src: PhysAddr(0x2003), size: 128 },
            StatTag::Memcpy,
        );
        assert!(ok.validate().is_ok(), "source may be misaligned");
        let bad_dst = Uop::new(
            UopKind::Mclazy { dst: PhysAddr(0x1001), src: PhysAddr(0x2000), size: 128 },
            StatTag::Memcpy,
        );
        assert!(bad_dst.validate().is_err());
        let bad_size = Uop::new(
            UopKind::Mclazy { dst: PhysAddr(0x1000), src: PhysAddr(0x2000), size: 100 },
            StatTag::Memcpy,
        );
        assert!(bad_size.validate().is_err());
        let overlap = Uop::new(
            UopKind::Mclazy { dst: PhysAddr(0x1000), src: PhysAddr(0x1040), size: 256 },
            StatTag::Memcpy,
        );
        assert!(overlap.validate().is_err(), "source must not overlap the destination");
    }

    #[test]
    fn store_imm_length_checked() {
        let u = Uop::new(
            UopKind::Store {
                addr: PhysAddr(0),
                size: 4,
                data: StoreData::Imm(vec![1, 2, 3]),
                nontemporal: false,
            },
            StatTag::App,
        );
        assert!(u.validate().is_err());
    }

    #[test]
    fn display_formats() {
        let u = Uop::new(UopKind::Load { addr: PhysAddr(0x40), size: 8 }, StatTag::App);
        assert_eq!(format!("{u}"), "ld 8B @0x40");
    }
}
