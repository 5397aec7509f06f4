//! Memory-system packets: the vocabulary spoken on the interconnect between
//! the LLC and the memory controllers, and between memory controllers.
//!
//! The baseline machine only uses `ReadReq`/`ReadResp`/`WriteReq` plus the
//! ack for MCLAZY insertion. The remaining commands (`BounceRead`,
//! `BounceResp`, `LazyDestWrite`, `Mclazy`, `Mcfree`) are the (MC)²
//! extensions of §III; the simulator defines the vocabulary and the
//! `mcsquare` crate implements their semantics through the
//! [`crate::engine::CopyEngine`] hook.

use crate::addr::PhysAddr;
use crate::data::LineData;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Routing target of a packet on the memory interconnect.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// The shared last-level cache (which forwards responses up to cores).
    Llc,
    /// Memory controller `i`.
    Mc(usize),
}

/// Monotonic packet-id source, unique within a process. Ids only need to be
/// unique per outstanding request; a global counter is the simplest way.
static NEXT_PACKET_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh packet id.
pub fn fresh_id() -> u64 {
    NEXT_PACKET_ID.fetch_add(1, Ordering::Relaxed)
}

/// Descriptor of a lazy-copy operation as carried by an `MCLAZY` packet:
/// destination, source, and size in bytes.
///
/// Per §III-C the destination must be cacheline aligned and the size a
/// multiple of the cacheline size; the source may be arbitrarily aligned.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LazyDesc {
    /// Destination physical address (cacheline aligned).
    pub dst: PhysAddr,
    /// Source physical address (any alignment).
    pub src: PhysAddr,
    /// Copy size in bytes (multiple of the cacheline size).
    pub size: u64,
}

/// Descriptor carried by an `MCFREE` packet: a buffer whose tracked copies
/// can be dropped.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FreeDesc {
    /// Start of the freed buffer.
    pub addr: PhysAddr,
    /// Size of the freed buffer in bytes.
    pub size: u64,
}

/// A bounce request: "read `len` source bytes at `src` on behalf of the
/// reconstruction of destination line `dest_line`".
///
/// `token` identifies the reconstruction in flight at the requesting MC so
/// the fragments can be reassembled; `dest_off` says where in the
/// destination line the fragment lands.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BounceInfo {
    /// MC that is reconstructing the destination line and awaits the fragment.
    pub reply_to: usize,
    /// Reassembly token at the requesting MC.
    pub token: u64,
    /// Source address of the fragment.
    pub src: PhysAddr,
    /// Length of the fragment in bytes (1..=64).
    pub len: u32,
    /// Offset within the destination line where the fragment belongs.
    pub dest_off: u32,
}

/// Packet command.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemCmd {
    /// Read one full cacheline (LLC → MC). Answered with `ReadResp`.
    ReadReq,
    /// Cacheline data response (MC → LLC).
    ReadResp,
    /// Posted full-line write (LLC → MC): writeback, CLWB data, or NT store.
    WriteReq,
    /// Lazy-copy request (LLC → MC, §III-B1 step 3). Answered with
    /// `MclazyAck` once inserted in the CTT.
    Mclazy(LazyDesc),
    /// Ack that an MCLAZY packet was accepted by the memory controller.
    MclazyAck,
    /// Free hint (LLC → MC, fire-and-forget).
    Mcfree(FreeDesc),
    /// MC → MC: fetch a source fragment for a destination-line
    /// reconstruction (§III-B2 "read from destination", step 2).
    BounceRead(BounceInfo),
    /// MC → MC: fragment data coming back.
    BounceResp(BounceInfo),
    /// MC → MC: write a fully reconstructed destination line to the MC that
    /// owns it (the write leg of a lazy copy; always accepted).
    LazyDestWrite,
    /// MC → LLC: a `WriteReq` with `needs_ack` was accepted into a write
    /// pending queue (or the BPQ). Used to make CLWB completion reflect
    /// controller acceptance, so BPQ back-pressure reaches the core.
    WriteAck,
}

impl MemCmd {
    /// True for commands that carry a data payload.
    pub fn has_data(&self) -> bool {
        matches!(
            self,
            MemCmd::ReadResp | MemCmd::WriteReq | MemCmd::BounceResp(_) | MemCmd::LazyDestWrite
        )
    }
}

/// A packet on the memory interconnect.
#[derive(Clone)]
pub struct Packet {
    /// Request/response matching id.
    pub id: u64,
    /// Command.
    pub cmd: MemCmd,
    /// Address the command operates on (line-aligned for line ops).
    pub addr: PhysAddr,
    /// Data payload for commands where [`MemCmd::has_data`] holds.
    pub data: Option<LineData>,
    /// Routing target.
    pub dest: Node,
    /// True for prefetcher-generated reads (they fill caches but nobody
    /// stalls on them).
    pub is_prefetch: bool,
    /// Core that ultimately caused this packet, when known (for stats and
    /// for routing acks back up).
    pub core: Option<usize>,
    /// For `WriteReq`: request a `WriteAck` once the write is accepted by
    /// the memory controller (used by CLWB).
    pub needs_ack: bool,
    /// Data payload is poisoned: it was produced from a DRAM line that
    /// suffered an uncorrectable ECC error (see [`crate::fault`]). Poison
    /// is metadata — the functional bytes are still simulated — and it
    /// propagates with the data: poisoned reads, poisoned reconstructed
    /// destination writes.
    pub poisoned: bool,
}

impl Packet {
    /// Construct a read request for the line containing `addr`.
    pub fn read(addr: PhysAddr, dest: Node) -> Packet {
        Packet {
            id: fresh_id(),
            cmd: MemCmd::ReadReq,
            addr: addr.line_base(),
            data: None,
            dest,
            is_prefetch: false,
            core: None,
            needs_ack: false,
            poisoned: false,
        }
    }

    /// Construct a posted full-line write.
    pub fn write(addr: PhysAddr, data: LineData, dest: Node) -> Packet {
        Packet {
            id: fresh_id(),
            cmd: MemCmd::WriteReq,
            addr: addr.line_base(),
            data: Some(data),
            dest,
            is_prefetch: false,
            core: None,
            needs_ack: false,
            poisoned: false,
        }
    }

    /// Build the response to this read request with the given payload.
    ///
    /// # Panics
    /// Panics if `self` is not a `ReadReq`.
    pub fn make_read_resp(&self, data: LineData) -> Packet {
        assert_eq!(self.cmd, MemCmd::ReadReq, "make_read_resp on non-read");
        Packet {
            id: self.id,
            cmd: MemCmd::ReadResp,
            addr: self.addr,
            data: Some(data),
            dest: Node::Llc,
            is_prefetch: self.is_prefetch,
            core: self.core,
            needs_ack: false,
            poisoned: false,
        }
    }

    /// Build the `MclazyAck` for this MCLAZY broadcast copy.
    ///
    /// # Panics
    /// Panics if `self` is not an `Mclazy` command.
    pub fn make_mclazy_ack(&self) -> Packet {
        assert!(matches!(self.cmd, MemCmd::Mclazy(_)), "make_mclazy_ack on non-MCLAZY");
        Packet {
            id: self.id,
            cmd: MemCmd::MclazyAck,
            addr: self.addr,
            data: None,
            dest: Node::Llc,
            is_prefetch: false,
            core: self.core,
            needs_ack: false,
            poisoned: false,
        }
    }

    /// Build the `WriteAck` for this write request.
    ///
    /// # Panics
    /// Panics if `self` is not a write command.
    pub fn make_write_ack(&self) -> Packet {
        assert!(
            matches!(self.cmd, MemCmd::WriteReq | MemCmd::LazyDestWrite),
            "make_write_ack on non-write"
        );
        Packet {
            id: self.id,
            cmd: MemCmd::WriteAck,
            addr: self.addr,
            data: None,
            dest: Node::Llc,
            is_prefetch: false,
            core: self.core,
            needs_ack: false,
            poisoned: false,
        }
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Packet#{}{{{:?} @{:?} -> {:?}{}{}{}}}",
            self.id,
            self.cmd,
            self.addr,
            self.dest,
            if self.is_prefetch { " pf" } else { "" },
            if self.data.is_some() { " +data" } else { "" },
            if self.poisoned { " poison" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_unique() {
        let a = fresh_id();
        let b = fresh_id();
        assert_ne!(a, b);
    }

    #[test]
    fn read_req_aligns_address() {
        let p = Packet::read(PhysAddr(0x1039), Node::Mc(0));
        assert_eq!(p.addr, PhysAddr(0x1000));
        assert_eq!(p.cmd, MemCmd::ReadReq);
        assert!(p.data.is_none());
    }

    #[test]
    fn read_resp_preserves_id_and_routes_to_llc() {
        let req = Packet::read(PhysAddr(0x40), Node::Mc(1));
        let resp = req.make_read_resp(LineData::splat(3));
        assert_eq!(resp.id, req.id);
        assert_eq!(resp.dest, Node::Llc);
        assert_eq!(resp.data, Some(LineData::splat(3)));
    }

    #[test]
    #[should_panic(expected = "non-read")]
    fn read_resp_from_write_panics() {
        let w = Packet::write(PhysAddr(0), LineData::ZERO, Node::Mc(0));
        let _ = w.make_read_resp(LineData::ZERO);
    }

    #[test]
    fn has_data_classification() {
        assert!(!MemCmd::ReadReq.has_data());
        assert!(MemCmd::ReadResp.has_data());
        assert!(MemCmd::WriteReq.has_data());
        assert!(MemCmd::LazyDestWrite.has_data());
        assert!(!MemCmd::MclazyAck.has_data());
    }
}
