//! One-thread host-speed benchmark of the (MC)² simulator.
//!
//! The benchmark measures the simulator from outside: it builds jobs with
//! the repository's public constructors, runs each on a fresh [`System`],
//! reads [`RunStats`], and checks every job's output. See README.md for
//! the workloads, the metrics and how to run it.
//!
//! [`System`]: mcs_sim::System
//! [`RunStats`]: mcs_sim::stats::RunStats

pub mod check;
pub mod decor;
pub mod drivers;
pub mod host;
pub mod runner;
pub mod workloads;
pub mod yardstick;
