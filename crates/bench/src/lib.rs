//! # bench
//!
//! The benchmark harness that regenerates every figure and table of the
//! IPPS 2001 paper from the simulated cluster (see the `paper` binary).
//!
//! Every simulator study is a batch of `sweep` configs run by
//! `sweep::run::run_sweep`, whose `evaluate` is the one place a point
//! becomes a simulated makespan.
//!
//! * [`experiments`] — the V-ladder driver over the §5 experiments
//!   (`sweep::config`'s table), each schedule's optimum, and the Fig. 12
//!   table computation.
//! * [`report`] — CSV / markdown / ASCII-plot rendering.
//! * [`gantt`] — the Fig. 1 / Fig. 2 schedule visualizations.
//! * [`ablation`] — the Fig. 3 overlap-level ablation and the
//!   switch-vs-hub topology study.
//! * [`sensitivity`] — the optima against communication cost and
//!   network generation.
//! * [`scaling`] — strong scaling over processor grids.
//! * [`configs`] — the shipped decompositions, latency models and plan
//!   requests shared by every `paper` subcommand.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ablation;
pub mod configs;
pub mod experiments;
pub mod gantt;
pub mod report;
pub mod scaling;
pub mod sensitivity;
