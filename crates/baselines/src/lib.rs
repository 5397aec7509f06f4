//! # mcs-baselines — the copy mechanisms the paper compares against
//!
//! Plain eager `memcpy`, the baseline of every figure, needs no model of
//! its own: workloads emit it with [`mcsquare::software::memcpy_eager_uops`].
//!
//! * [`touched`] — the "Touched memcpy" variant of Fig. 10: the source is
//!   loaded into the cache before the copy is measured.
//! * [`zio`] — a model of zIO (Stamler et al., OSDI '22): transparent copy
//!   elision by unmapping destination pages and copying on first access
//!   via page faults, with the page-size floor and TLB-shootdown costs
//!   that shape its Fig. 10/12/13 behaviour.

pub mod touched;
pub mod zio;

pub use zio::{Zio, ZioCosts};
