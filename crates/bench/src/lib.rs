//! # pardfs-bench
//!
//! The experiment harness that regenerates every quantitative claim of the
//! paper (see the README's experiment index for what each table measures,
//! and its performance index for the recorded `BENCH_E*.json` baselines).
//! Each experiment is a function returning a printable table; the
//! `experiments` binary prints them. The end-to-end benchmark of the served
//! stack is `perfbench/`, a package of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod gate;
pub mod table;

pub use driver::{drive, DriveSummary};
pub use experiments::*;
pub use gate::{GateComparison, GateRecord, GateReport};
pub use table::{BenchRecord, Table};
