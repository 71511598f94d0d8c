//! # cluster-sim
//!
//! A deterministic discrete-event simulator of a message-passing cluster,
//! built as the experimental substrate for reproducing
//!
//! > Goumas, Sotiropoulos, Koziris, *Minimizing Completion Time for Loop
//! > Tiling with Computation and Communication Overlapping*, IPPS 2001.
//!
//! The paper's measurements ran on 16 Pentium-III nodes with MPICH over
//! FastEthernet. This crate replaces that hardware with a simulator that
//! charges exactly the costs of the paper's timing model (§4, Fig. 4/5):
//! CPU-side MPI buffer fills (`A₁`, `A₃`), computation (`A₂`),
//! kernel-buffer copies (`B₂`, `B₃`) and wire time (`B₁`, `B₄`) on
//! separate NIC/DMA lanes, with configurable half/full-duplex behaviour.
//!
//! * [`program`] — per-rank op programs (`MPI_Send/Recv/Isend/Irecv/Wait`).
//! * [`engine`] — the event-driven interpreter.
//! * [`builders`] — unroll a tiled loop nest ([`tiling_core`]) into the
//!   paper's `ProcB` (blocking) and `ProcNB` (overlapping) programs.
//! * [`trace`] — activity traces, Gantt charts.
//! * [`stats`] — per-rank CPU totals and utilization; the engine keeps
//!   the totals as it runs, so they do not need the trace.
//!
//! ```
//! use cluster_sim::prelude::*;
//! use tiling_core::prelude::*;
//!
//! // A miniature of the paper's experiment i: 4×4 processor grid,
//! // one tile column per processor, grain chosen so computation can
//! // hide the communication.
//! let problem = ClusterProblem::with_longest_mapping(
//!     Tiling::rectangular(&[2, 2, 64]),
//!     DependenceSet::paper_3d(),
//!     IterationSpace::from_extents(&[8, 8, 1024]),
//! ).unwrap();
//! let machine = MachineParams::paper_cluster();
//! let cfg = SimConfig::new(machine).with_trace(false);
//! let blocking = simulate(cfg, problem.blocking_programs(&machine)).unwrap();
//! let overlap = simulate(cfg, problem.overlapping_programs(&machine)).unwrap();
//! assert!(overlap.makespan < blocking.makespan);
//! // No trace was recorded; the utilization figures are there anyway.
//! assert!(overlap.trace.intervals().is_empty());
//! let busy = summarize(&overlap).unwrap();
//! assert!(busy.mean_compute_fraction > summarize(&blocking).unwrap().mean_compute_fraction);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builders;
pub mod engine;
pub mod program;
pub mod pseudocode;
pub mod stats;
pub mod time;
pub mod trace;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::builders::{BuildError, ClusterProblem};
    pub use crate::engine::{
        simulate, simulate_heterogeneous, Engine, NetworkTopology, SimConfig, SimError, SimResult,
    };
    pub use crate::program::{Op, Program, Rank, ReqId};
    pub use crate::pseudocode::{render_program, render_rank_listings};
    pub use crate::stats::{rank_stats, stats_markdown, summarize, CpuTotals, RankStats, Summary};
    pub use crate::time::{SimTime, TimeError};
    pub use crate::trace::{Activity, Interval, Trace};
}
