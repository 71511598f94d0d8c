//! # sweep
//!
//! A Monte-Carlo design-space sweep harness over [`cluster_sim`].
//!
//! The paper (§5) tunes the tile height `V` experimentally, one curve at
//! a time, on one machine, one grid and one iteration space. This crate
//! industrialises that methodology: a **seeded generator** enumerates
//! points of the configuration space
//!
//! ```text
//! machine preset × communication scale × measured transfer curve
//!   × heterogeneous node speeds × processor grid × iteration space
//!   (divisible and boundary-clipped) × tile height V × schedule
//!   (blocking / overlapping) × duplex × topology
//! ```
//!
//! a **worker pool** runs one full cluster simulation per point (each
//! point isolated behind `catch_unwind`, so one degenerate config cannot
//! abort a batch), and the results land in a **columnar CSV** plus a
//! **JSON summary** with percentile aggregates per named slice.
//!
//! Every row also carries the [`tiling_core::closed_form`] prediction
//! for its point and the relative error against the simulated makespan —
//! the sweep is exactly the instrument that measures where the paper's
//! affine model stops being faithful (measured piecewise transfer
//! curves, heterogeneous fleets, shared buses).
//!
//! Determinism is load-bearing: the same sweep seed produces the same
//! configs, the same per-config seeds, and — because the simulator is
//! deterministic — byte-identical CSV output regardless of worker count
//! or thread scheduling. CI gates on an exact re-run comparison.
//!
//! * [`config`] — axes, seeded generation, the paper's §5 experiment
//!   table and the Figs. 9–12 named slices built from it.
//! * [`run`] — the panic-isolating parallel executor, and [`run::best`],
//!   each schedule's optimum over a set of rows.
//! * [`output`] — CSV schema and the JSON percentile summary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod output;
pub mod run;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::config::{generate, MachinePreset, Mix64, Schedule, SweepConfig, SweepSpec};
    pub use crate::output::{csv_header, summary_json, to_csv};
    pub use crate::run::{run_sweep, RowStatus, SweepOutcome, SweepRow};
}
