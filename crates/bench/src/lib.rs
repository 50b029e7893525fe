//! # qgtc-bench
//!
//! The benchmark harness that regenerates every table and figure of the QGTC paper's
//! evaluation section (see the workspace README for the experiment index).
//!
//! Each experiment is a library function in [`experiments`] returning structured
//! rows, so the same code backs two consumers:
//!
//! * the report binaries (`cargo run -p qgtc-bench --release --bin fig7a`, …) which
//!   print the paper-style table plus CSV;
//! * the unit tests, which assert the qualitative shape (who wins, how trends
//!   move) on scaled-down configurations.
//!
//! Absolute numbers come from the analytic device model, not hardware; see the
//! workspace README's "Reproducing the paper's figures and tables" for the
//! experiment index and its "Limitations vs the real system" for the scaling
//! caveats.

pub mod benchjson;
pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::Table;
