//! Experiment harness for the MaxK-GNN reproduction.
//!
//! Each table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see the crate map in `docs/ARCHITECTURE.md`); this
//! library holds the shared machinery:
//!
//! * [`report`] — markdown/CSV table emission;
//! * [`timing`] — repeated-measurement wall-clock helpers;
//! * [`kernels`] — one-call CPU and simulated-GPU kernel measurements for
//!   a graph at a given `(dim, k)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod epoch_model;
pub mod kernels;
pub mod report;
pub mod timing;

pub use args::Args;
pub use kernels::{measure_cpu_kernels, CpuKernelTimings};
pub use report::Table;
pub use timing::time_secs;
