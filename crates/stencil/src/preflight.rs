//! Pre-flight static analysis of the stencil decompositions.
//!
//! [`crate::dist2d::Decomp2D`] and [`Decomp3D`] are themselves the `analyzer` crate's
//! `RankTopology`, so this module only pairs a layout with its mode's
//! schedule and runs the full analysis: schedule legality against the
//! kernel's dependence set, symbolic send/receive matching, and
//! deadlock detection — *before any rank thread spawns*. Compiling a
//! plan ([`crate::plan::Compiled::compile`]) analyses it exactly once
//! and keeps the per-rank programs the analysis proved, which the
//! executors then run, so every shipped configuration goes through it
//! when `bench::configs`' test compiles them.
//!
//! The check is allocation-frugal by construction (every collection in
//! the analyzer is pre-sized, and the layouts answer by inline
//! arithmetic), so the zero-allocation steady-state assertions of
//! `tests/zero_alloc.rs` hold with pre-flight enabled — the check costs
//! a constant number of allocations per *run*, not per step.

use crate::decomp::Layout;
use crate::dist3d::Decomp3D;
use crate::engine::{EngineError, ExecMode};
use analyzer::{analyze, AnalysisReport};
use cluster_sim::program::Program;
use tiling_core::schedule::{NonOverlapSchedule, OverlapSchedule};

/// The schedule vector `Π` the mode's schedule type mandates — the
/// same construction [`ExecMode::step_plan`] projects from.
fn mode_pi(mode: ExecMode, dims: usize, mapping_dim: usize) -> Vec<i64> {
    match mode {
        ExecMode::Blocking => NonOverlapSchedule::with_mapping(dims, mapping_dim)
            .schedule()
            .pi()
            .to_vec(),
        ExecMode::Overlapping => OverlapSchedule::with_mapping(dims, mapping_dim).pi(),
    }
}

/// Statically analyze the plan `mode` will execute over `layout`: the
/// report and every rank's program it proved. The decomposition must
/// already be validated.
pub(crate) fn analyze_plan<L: Layout>(
    layout: &L,
    mode: ExecMode,
) -> Result<(AnalysisReport, Vec<Program>), EngineError> {
    analyze(
        layout,
        &layout.step_plan(mode),
        &mode_pi(mode, L::DIMS, L::MAPPING_DIM),
        L::MAPPING_DIM,
        &L::dependences(),
    )
    .map_err(EngineError::from)
}

/// The pre-flight report of the plan `mode` will execute over `layout`.
pub fn check_plan<L: Layout>(layout: &L, mode: ExecMode) -> Result<AnalysisReport, EngineError> {
    analyze_plan(layout, mode).map(|(report, _)| report)
}

/// [`check_plan`] for the 3-D block layout.
pub fn check_plan3d(d: &Decomp3D, mode: ExecMode) -> Result<AnalysisReport, EngineError> {
    check_plan(d, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist2d::Decomp2D;

    /// A 2×2 processor grid, 4 steps deep.
    fn two_by_two() -> Decomp3D {
        Decomp3D {
            nx: 8,
            ny: 8,
            nz: 32,
            pi: 2,
            pj: 2,
            v: 8,
            boundary: 1.0,
        }
    }

    #[test]
    fn shipped_2d_plans_are_clean() {
        let d = Decomp2D {
            nx: 40,
            ny: 12,
            ranks: 4,
            v: 10,
            boundary: 1.0,
        };
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let report = check_plan(&d, mode).expect("shipped layout analyzes clean");
            assert_eq!(report.ranks, 4);
            assert_eq!(report.steps, 4);
            // 3 interior channels × 4 steps.
            assert_eq!(report.messages, 12);
        }
    }

    #[test]
    fn shipped_3d_plans_are_clean() {
        let d = two_by_two();
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let report = check_plan3d(&d, mode).expect("shipped layout analyzes clean");
            assert_eq!(report.ranks, 4);
            assert_eq!(report.steps, 4);
            // 4 directed interior faces × 4 steps.
            assert_eq!(report.messages, 16);
        }
    }

    #[test]
    fn overlap_makespan_matches_eq4() {
        // 2×2 grid: deepest rank is 2 hops from the origin; eq. 4 gives
        // 2·2 + steps time hyperplanes.
        let d = two_by_two();
        let o = check_plan3d(&d, ExecMode::Overlapping).expect("clean");
        assert_eq!(o.logical_makespan, 2 * 2 + 4);
        let b = check_plan3d(&d, ExecMode::Blocking).expect("clean");
        assert_eq!(b.logical_makespan, 2 + 4);
    }
}
