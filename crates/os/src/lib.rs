//! # mcs-os — kernel model substrate
//!
//! The (MC)² paper's kernel experiments (§V-B) run on a modified Linux
//! 5.7: huge-page copy-on-write faults served by `MCLAZY` (Fig. 18) and
//! pipes whose `pipe_read`/`pipe_write` use lazy copies (Fig. 19). This
//! crate is the model of those kernel facilities that the reproduction
//! runs on:
//!
//! * [`vm`] — page tables, `fork`, copy-on-write fault handling at 4 KB
//!   and 2 MB granularity (eager or MCLAZY copy modes), frame reference
//!   counting;
//! * [`pipe`] — a kernel pipe ring buffer with eager or lazy copies;
//! * [`costs`] — trap/syscall/TLB cycle charges.
//!
//! Kernel activity is expressed as uop sequences tagged
//! [`mcs_sim::uop::StatTag::Kernel`], spliced into the faulting program's
//! instruction stream exactly where the trap would occur — fault plans are
//! synchronous in program order, like the real handler.

pub mod costs;
pub mod pipe;
pub mod vm;

pub use costs::OsCosts;
pub use pipe::Pipe;
pub use vm::{Kernel, PageSize, VirtAddr, Vm};

/// Which copy implementation the kernel uses, for pipe transfers and for
/// copy-on-write faults (§V-B) alike.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CopyMode {
    /// The unmodified kernel: `copy_from_user` / `copy_to_user`, and an
    /// eager `copy_user_huge_page` on a COW fault.
    Eager,
    /// The paper's kernel: lazy copies at the controller. On a COW fault
    /// the hardware writes back dirty source lines during the MCLAZY
    /// snoop, so the kernel issues no per-line CLWBs there.
    Lazy,
}
