//! # mcsquare — (MC)²: Lazy MemCopy at the Memory Controller
//!
//! A from-scratch implementation of the system described in *"(MC)²: Lazy
//! MemCopy at the Memory Controller"* (Kamath & Peter, ISCA 2024), built
//! on the [`mcs_sim`] cycle-level memory-system simulator.
//!
//! (MC)² makes `memcpy` lazy: instead of moving bytes, the CPU's new
//! `MCLAZY` instruction registers a *prospective copy* in a Copy Tracking
//! Table (CTT) at the memory controllers. The copy executes only when and
//! where it is needed — when a destination line is read (the controller
//! *bounces* the read to the source), when a source line is written (the
//! write waits in a Bounce Pending Queue while the copy completes), or in
//! the background when the table fills. To the program, data always looks
//! as if it had been copied eagerly.
//!
//! The crate mirrors the paper's structure:
//!
//! * [`ctt`] — the Copy Tracking Table (§III-A1): destination-disjoint
//!   entries, chain collapsing, merging, capacity and drain policy.
//! * [`bpq`] — the Bounce Pending Queue (§III-A2).
//! * [`engine`] — the memory-controller extension (§III-B): the four
//!   tracked-access cases, bounce reconstruction (including two-bounce
//!   misaligned copies), the post-bounce destination writeback with its
//!   75%-WPQ contention guard, and asynchronous parallel entry freeing.
//! * [`software`] — `memcpy_lazy` (Fig. 8), which emits the `MCLAZY` /
//!   `MCFREE` instructions (§III-C), and the interposer policy (§III-D).
//!   Their operand rules are checked by [`mcs_sim::uop::Uop::validate`].
//! * [`ranges`] — byte-range interval machinery the CTT is built on.
//! * [`config`] — the §V-C sensitivity-study knobs.
//!
//! ## Quick start
//!
//! ```
//! use mcs_sim::{config::SystemConfig, system::System, program::FixedProgram};
//! use mcs_sim::addr::PhysAddr;
//! use mcsquare::{engine::McSquareEngine, config::McSquareConfig, software};
//!
//! let cfg = SystemConfig::table1_one_core();
//! let engine = McSquareEngine::new(McSquareConfig::default(), cfg.channels);
//!
//! // A program that lazily copies 4 KB and fences.
//! let (dst, src) = (PhysAddr(0x10_0000), PhysAddr(0x20_0000));
//! let uops = software::memcpy_lazy_uops(0, dst, src, 4096, &Default::default());
//! let mut sys = System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))],
//!                                   Box::new(engine));
//! sys.poke(src, &vec![0xab; 4096]);
//! sys.run(10_000_000).expect("finishes");
//! // The copy happened lazily; memory converges to the eager result.
//! ```

pub mod bpq;
pub mod config;
pub mod ctt;
pub mod engine;
pub mod ranges;
pub mod software;

pub use config::McSquareConfig;
pub use ctt::Ctt;
pub use engine::McSquareEngine;
