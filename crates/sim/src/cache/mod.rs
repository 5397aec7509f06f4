//! Cache hierarchy: private L1s and a shared, inclusive LLC with an MSI
//! directory, plus the message vocabulary between levels.
//!
//! The protocol is deliberately compact (MSI, blocking per-line
//! transactions at the LLC) but captures everything the paper's evaluation
//! exercises: read-for-ownership on store misses (the effect Fig. 17
//! hinges on), writebacks, CLWB, non-temporal stores, invalidation of
//! destination buffers on MCLAZY (reduced cache pollution, §III-F), and
//! stride prefetching (which hides bounce latency in Fig. 12).

pub mod array;
pub mod l1;
pub mod llc;
pub mod prefetch;

use crate::addr::PhysAddr;
use crate::data::{Bytes, LineData};
use crate::packet::LazyDesc;
use crate::uop::UopId;

/// Which level ultimately serviced a load (for the Fig. 3 accounting).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ServiceLevel {
    /// L1 hit.
    L1,
    /// Served by the LLC.
    Llc,
    /// Went to memory (or was reconstructed by the copy engine).
    Mem,
}

/// Requests from a core to its L1.
#[derive(Clone, Debug)]
pub enum CoreToL1 {
    /// Load `size` bytes at `addr` (within one line).
    Load { id: UopId, addr: PhysAddr, size: u8 },
    /// Store `data` at `addr`.
    Store { id: UopId, addr: PhysAddr, data: Bytes, nontemporal: bool },
    /// Write back the line containing `addr` if dirty, keep it cached clean.
    Clwb { id: UopId, addr: PhysAddr },
    /// Write back every dirty line in the range (§V-A1's wide writeback).
    WbRange { id: UopId, addr: PhysAddr, size: u64 },
    /// Forward an MCLAZY operation toward the memory controllers.
    Mclazy { id: UopId, desc: LazyDesc },
    /// Forward an MCFREE hint.
    Mcfree { addr: PhysAddr, size: u64 },
}

/// Responses from an L1 to its core.
#[derive(Clone, Debug)]
pub enum L1ToCore {
    /// Load result.
    LoadDone { id: UopId, data: Bytes, level: ServiceLevel },
    /// Store globally performed (line owned and written).
    StoreDone { id: UopId },
    /// CLWB writeback accepted downstream.
    ClwbDone { id: UopId },
    /// MCLAZY accepted by the memory controller (CTT insertion done).
    MclazyDone { id: UopId },
    /// Non-temporal store accepted downstream.
    NtDone { id: UopId },
}

/// Requests from an L1 to the LLC.
#[derive(Clone, Debug)]
pub enum L1ToLlc {
    /// Read for sharing.
    GetS { line: PhysAddr, core: usize, prefetch: bool },
    /// Read for ownership (store intent).
    GetM { line: PhysAddr, core: usize },
    /// Dirty writeback on L1 eviction.
    PutM { line: PhysAddr, data: LineData, core: usize },
    /// CLWB: data present if the L1 copy was dirty.
    Clwb { line: PhysAddr, data: Option<LineData>, id: UopId, core: usize },
    /// Wide writeback: the L1's dirty lines within the range ride along.
    WbRange { addr: PhysAddr, size: u64, dirty: Vec<(PhysAddr, LineData)>, id: UopId, core: usize },
    /// Non-temporal full-line store.
    NtWrite { line: PhysAddr, data: LineData, id: UopId, core: usize },
    /// MCLAZY en route to the memory controllers.
    Mclazy { desc: LazyDesc, id: UopId, core: usize },
    /// MCFREE en route to the memory controllers.
    Mcfree { addr: PhysAddr, size: u64 },
    /// Response to a `Recall` or an `Inval`: data if the line was dirty.
    RecallAck { line: PhysAddr, data: Option<LineData>, core: usize },
}

/// Messages from the LLC to an L1.
#[derive(Clone, Debug)]
pub enum LlcToL1 {
    /// Data grant: `excl` distinguishes GetM (M) from GetS (S) responses.
    Data { line: PhysAddr, data: LineData, excl: bool, level: ServiceLevel },
    /// Drop the line (acked with a `RecallAck`, carrying data if dirty).
    Inval { line: PhysAddr },
    /// Downgrade to shared, returning data if dirty (`inval == false`), or
    /// drop entirely (`inval == true`). Always acked.
    Recall { line: PhysAddr, inval: bool },
    /// CLWB completion.
    ClwbAck { id: UopId },
    /// NT store completion.
    NtAck { id: UopId },
    /// MCLAZY completion (CTT insertion acknowledged).
    MclazyAck { id: UopId },
}
