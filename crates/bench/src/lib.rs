//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `expNN`-style module produces the rows/series of one paper table or
//! figure and prints them alongside the paper-reported values where
//! available. The `repro` binary dispatches to them by name; `repro all`
//! runs the full sweep (used to fill `EXPERIMENTS.md`).

pub mod analyze;
pub mod experiments;
pub mod fault_plan;
pub mod harness;
pub mod launch;
pub mod ledger;
pub mod perf;
pub mod recovery;
pub mod sentry;
pub mod simulate_cli;
pub mod table;
pub mod timeline;
