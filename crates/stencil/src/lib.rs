//! # stencil
//!
//! The workloads of the IPPS 2001 loop-tiling paper, executed for real:
//! dense grids ([`grid`]), wavefront kernels ([`kernel`]), sequential
//! references ([`seq`]) and one distributed tiled executor for both the
//! non-overlapping (§3) and overlapping (§4) schedules, running on the
//! `msgpass` threaded backend with injected wire latency ([`dist3d`]).
//! It runs the §5 block layout in n dimensions: a 2-D strip (Example 1)
//! is a block with a unit `i`-axis ([`decomp::Decomp2D::block`]). The
//! §5 pipeline loop is written once, by the simulator's program
//! emitter: a compiled plan keeps every rank's `ProcB`/`ProcNB` program
//! as pre-flight proved it, and [`engine`] interprets it over the
//! block's [`engine::TileOps`]. [`decomp`] holds the decomposition
//! arithmetic and typed validation errors; [`dist3d::Decomp3D`] is the
//! one description of the layout that pre-flight analyses and the
//! executor runs. Every run goes through a [`plan::Compiled3D`] plan:
//! compile once, then run it any number of times ([`plan`]), or do
//! both in one call ([`dist3d::run_dist3d_with`]).
//!
//! Kernels (all single-assignment wavefront recurrences, so distributed
//! results are exactly reproducible):
//!
//! | kernel | dims | recurrence |
//! |---|---|---|
//! | [`kernel::Paper3D`] | 3 | the paper's `√A(i−1)+√A(j−1)+√A(k−1)` |
//! | [`kernel::Relax3D`] | 3 | damped smoothing `ω/3·(…)` |
//! | [`kernel::LongestPath3D`] | 3 | max-plus lattice paths |
//! | [`kernel::Fused3D`] | 3 | FMA smoothing `wa·A(i−1)+wa·A(j−1)+wc·A(k−1)` |
//! | [`kernel::Example1`] | 2 | the §3 Example 1 sum (damped) |
//! | [`kernel::Alignment2D`] | 2 | LCS-style sequence alignment DP |
//! | [`kernel::Smooth2D`] | 2 | axis-dependence Gauss–Seidel sweep |
//!
//! Every kernel is a [`kernel::Kernel3D`] — the 2-D ones read their
//! `(1,1)` dependence as the block's diagonal e₂+e₃ — and the executor
//! is generic over it and over any [`msgpass::comm::Communicator`].
//!
//! ```
//! use stencil::prelude::*;
//! use msgpass::thread_backend::{LatencyModel, WorldConfig};
//!
//! let d = Decomp3D { nx: 4, ny: 4, nz: 16, pi: 2, pj: 2, v: 4, boundary: 1.0 };
//! let plan = Compiled3D::compile(d, ExecMode::Overlapping).unwrap();
//! let cfg = WorldConfig::new(LatencyModel::zero());
//! let (dist, _, _) = run3d_with(Paper3D, &plan, &cfg).unwrap();
//! assert_eq!(dist.max_abs_diff(&run_paper3d_seq(4, 4, 16, 1.0)), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod decomp;
pub mod dist3d;
pub mod engine;
pub mod grid;
pub mod halo;
pub mod kernel;
pub mod plan;
pub mod preflight;
pub mod proto;
pub mod seq;

/// The strip cases, under the module name the strip executor had.
#[cfg(test)]
#[path = "strip_cases.rs"]
mod dist2d;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::decomp::{Decomp2D, DecompError};
    pub use crate::dist3d::{run_dist3d_with, try_run_rank3d_plan, Decomp3D, ExecMode};
    pub use crate::engine::{
        run_rank, EngineError, NoopObserver, Phase, PhaseLog, StepObserver, TileOps, TraceObserver,
    };
    pub use crate::grid::{Grid2D, Grid3D};
    pub use crate::kernel::{
        Alignment2D, Example1, Fused3D, Kernel3D, LongestPath3D, Paper3D, Relax3D, Smooth2D,
    };
    pub use crate::plan::{
        replay_programs, run3d_observed_with, run3d_on_world, run3d_on_world_observed, run3d_with,
        Compiled3D, TraceMismatch,
    };
    pub use crate::preflight::check_plan3d;
    pub use crate::seq::{
        max_abs_diff_from_seq3d, measure_t_c_paper3d, run_example1_seq, run_paper3d_seq, run_seq2d,
        run_seq3d,
    };
}
