//! # mcs-sim — cycle-level memory-hierarchy simulator
//!
//! This crate is the substrate of the (MC)² reproduction: it plays the role
//! that the gem5 full-system simulator plays in the paper. It models, at
//! CPU-cycle granularity, the parts of the machine the paper's evaluation
//! depends on:
//!
//! * program-driven out-of-order-style CPU cores with a reorder buffer,
//!   load/store queues, a store buffer, fences, non-temporal stores, and
//!   dependent (pointer-chasing) loads ([`core`]);
//! * private L1 caches and a shared, inclusive last-level cache with an MSI
//!   directory and stride prefetchers ([`cache`]);
//! * a memory interconnect: plain FIFO [`link`]s into the LLC and into
//!   each memory controller, owned by [`system::System`];
//! * per-channel memory controllers with read/write pending queues and
//!   FR-FCFS-style scheduling ([`mc`]);
//! * one parameterised DRAM channel model ([`dram`]): bank/row-buffer
//!   timing over pseudo-channel buses × bank groups × banks, which covers
//!   DDR4, DDR5 (bank groups) and HBM2 (pseudo-channels), with optional
//!   tREFI/tRFC refresh; [`config::MemTech`] picks the canonical timing.
//!
//! The memory controller exposes a [`engine::CopyEngine`] hook. The
//! `mcsquare` crate plugs the paper's Copy Tracking Table and Bounce Pending
//! Queue in through that hook; with the default [`engine::NullEngine`] the
//! system behaves like an unmodified machine and serves as the baseline.
//!
//! Data is modelled functionally end to end: cachelines carry real bytes
//! through caches, queues, and DRAM, so tests can assert that a lazy copy is
//! indistinguishable from an eager one at every load.
//!
//! ```
//! use mcs_sim::{config::SystemConfig, system::System, program::FixedProgram};
//! use mcs_sim::uop::{Uop, UopKind, StatTag};
//!
//! let cfg = SystemConfig::table1_one_core(); // Table I, single core
//! let prog = FixedProgram::new(vec![Uop::new(
//!     UopKind::Load { addr: mcs_sim::addr::PhysAddr(0x1000), size: 8 },
//!     StatTag::App,
//! )]);
//! let mut sys = System::new(cfg, vec![Box::new(prog)]);
//! let stats = sys.run(1_000_000).expect("program finishes");
//! assert!(stats.cycles > 0);
//! ```

pub mod addr;
pub mod alloc;
pub mod cache;
#[cfg(feature = "check-invariants")]
pub mod check;
pub mod config;
pub mod core;
pub mod data;
pub mod dram;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod link;
pub mod mc;
pub mod packet;
pub mod program;
pub mod stats;
pub mod system;
pub mod uop;

/// A point in simulated time, measured in CPU clock cycles.
pub type Cycle = u64;

pub use addr::{PhysAddr, CACHELINE};
pub use config::SystemConfig;
pub use data::{LineData, SparseMem};
pub use system::{SchedMode, System};
