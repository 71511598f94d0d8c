//! # tiling-core
//!
//! Loop tiling (supernode transformation) with overlapping and
//! non-overlapping tile schedules — a from-scratch implementation of
//!
//! > G. Goumas, A. Sotiropoulos, N. Koziris, *Minimizing Completion Time
//! > for Loop Tiling with Computation and Communication Overlapping*,
//! > IPPS 2001.
//!
//! The crate models perfectly nested loops with uniform dependences
//! ([`loopnest`], [`space`], [`dependence`]), partitions their iteration
//! spaces into rectangular supernodes/tiles ([`tiling`]: one per-axis
//! rule, in exact integers), prices computation and
//! communication per tile ([`cost`], [`machine`]), and schedules the
//! tiled space with one [`schedule::TileSchedule`] whose
//! [`schedule::StepStrategy`] picks the paper's schedule: the classical
//! non-overlapping hyperplane schedule (eq. 3 of the paper) or the
//! pipelined, communication-overlapping one (eq. 4/5), the optimal
//! UET-UCT grid-graph schedule of the paper's reference \[1\]. The
//! strategy alone sets `Π`, the lag a dependence edge needs, the plane
//! count `P(g)` and the price of a step; it is the crate's one schedule
//! model, and the `analyzer` crate's pre-flight asks it for legality.
//!
//! [`tile_graph`] materializes tile DAGs for validation, [`mapping`]
//! assigns tiles to processors and computes per-neighbor message
//! volumes, [`optimize`] sweeps tile sizes/shapes, and [`closed_form`]
//! gives the optimal tile height without a sweep. [`parse`] reads nests
//! written in the paper's notation.
//!
//! Like the paper, the crate takes the legality of the tiling as given:
//! there is no skewing or other unimodular transform, so a nest with a
//! negative dependence component is for the caller to reject.
//!
//! ## Quick start
//!
//! ```
//! use tiling_core::prelude::*;
//!
//! // Example 1 of the paper: 10000×1000 loop, D = {(1,1),(1,0),(0,1)}.
//! let nest = LoopNest::example_1();
//! let deps = nest.dependences().unwrap();
//! let tiling = Tiling::rectangular(&[10, 10]);
//! assert!(tiling.is_legal(&deps));
//!
//! let machine = MachineParams::example_1();
//! let [nonoverlap, overlap] = [StepStrategy::Blocking, StepStrategy::Overlap].map(|s| {
//!     TileSchedule::with_mapping(s, 2, 0)
//!         .analyze(&tiling, &deps, nest.space(), &machine, OverlapMode::DuplexDma)
//! });
//!
//! // Π = (1,1) against Π = (1,2), and eq. 3's A + B against eq. 4's
//! // max(A, B): the overlapping schedule wins, 0.24 s vs 0.40 s.
//! assert_eq!(nonoverlap.schedule_length, 1099);
//! assert_eq!(overlap.schedule_length, 1198);
//! assert!(overlap.total_secs() < nonoverlap.total_secs());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod closed_form;
pub mod cost;
pub mod dependence;
pub mod loopnest;
pub mod machine;
pub mod mapping;
pub mod optimize;
pub mod parse;
pub mod schedule;
pub mod space;
pub mod tile_graph;
pub mod tiling;

/// Convenient re-exports of the main types.
pub mod prelude {
    pub use crate::closed_form::{optimal_v, overlap_optimal_v, ClosedForm};
    pub use crate::cost::{v_comm_mapped, v_comm_per_dimension, v_comm_total, v_comp};
    pub use crate::dependence::{Dependence, DependenceSet};
    pub use crate::loopnest::{Access, ArrayId, LoopNest, Statement};
    pub use crate::machine::{
        AffineCost, CostCurveError, KernelTier, MachineParams, NodeSpeeds, PiecewiseCost,
        SpeedError,
    };
    pub use crate::mapping::{neighbor_messages, NeighborMessage, ProcessorMapping};
    pub use crate::optimize::{
        best, best_rectangular_plan, sweep_tile_height, SweepPoint, TilingPlan,
    };
    pub use crate::parse::{parse_loop_nest, ParseError};
    pub use crate::schedule::{OverlapMode, ScheduleReport, StepPlan, StepStrategy, TileSchedule};
    pub use crate::space::{IterationSpace, Point};
    pub use crate::tile_graph::TileGraph;
    pub use crate::tiling::{Tiling, TilingError};
}
