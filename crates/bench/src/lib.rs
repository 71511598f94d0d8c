//! # bench
//!
//! The benchmark harness that regenerates every figure and table of the
//! IPPS 2001 paper from the simulated cluster (see the `paper` binary).
//!
//! * [`experiments`] — the three §5 experiments, the V-sweep driver and
//!   the Fig. 12 table computation.
//! * [`report`] — CSV / markdown / ASCII-plot rendering.
//! * [`gantt`] — the Fig. 1 / Fig. 2 schedule visualizations.
//! * [`ablation`] — the Fig. 3 overlap-level ablation.
//! * [`configs`] — the shipped decompositions, latency models and plan
//!   requests shared by every `paper` subcommand.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod configs;
pub mod experiments;
pub mod gantt;
pub mod report;
pub mod scaling;
pub mod sensitivity;
