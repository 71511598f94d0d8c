//! Pre-flight static analysis of the block decomposition.
//!
//! [`Decomp3D`] — of a 3-D block, or of a 2-D strip as its unit-axis
//! block — is itself the `analyzer` crate's `RankTopology`, so this
//! module only pairs the layout with its mode's step plan and mapping
//! dimension and runs the full analysis: legality of the mode's tile
//! schedule (`TileSchedule`) against the kernels' dependence set
//! ([`Decomp3D::dependences`]), symbolic send/receive matching, and
//! deadlock detection — *before any rank thread spawns*. Compiling a
//! plan ([`crate::plan::Compiled3D::compile`]) analyses it exactly once
//! and keeps the per-rank programs the analysis proved, which the
//! executors then run, so every shipped configuration goes through it
//! when `bench::configs`' test compiles them.
//!
//! The check is allocation-frugal by construction (every collection in
//! the analyzer is pre-sized, and the layouts answer by inline
//! arithmetic), so the zero-allocation steady-state assertions of
//! `tests/zero_alloc.rs` hold with pre-flight enabled — the check costs
//! a constant number of allocations per *run*, not per step.

use crate::dist3d::Decomp3D;
use crate::engine::{EngineError, ExecMode};
use analyzer::{analyze, AnalysisReport};
use cluster_sim::program::Program;

/// Statically analyze the plan `mode` will execute over `d`: the
/// report and every rank's program it proved. The decomposition must
/// already be validated.
pub(crate) fn analyze_plan(
    d: &Decomp3D,
    mode: ExecMode,
) -> Result<(AnalysisReport, Vec<Program>), EngineError> {
    analyze(
        d,
        &d.step_plan(mode),
        Decomp3D::MAPPING_DIM,
        &Decomp3D::dependences(),
    )
    .map_err(EngineError::from)
}

/// The pre-flight report of the plan `mode` will execute over `d`.
pub fn check_plan3d(d: &Decomp3D, mode: ExecMode) -> Result<AnalysisReport, EngineError> {
    analyze_plan(d, mode).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp2D;
    use tiling_core::schedule::TileSchedule;

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
            let report = check_plan3d(&d.block(), mode).expect("shipped layout analyzes clean");
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
    fn every_dependence_advances_under_both_schedules() {
        // Π·d for e₁, e₂, e₃ and the diagonal e₂+e₃: Π = [1, 1, 1]
        // blocking, [2, 2, 1] overlapping.
        for (mode, want) in [
            (ExecMode::Blocking, [1, 1, 1, 2]),
            (ExecMode::Overlapping, [2, 2, 1, 3]),
        ] {
            let deps = Decomp3D::dependences();
            let pi =
                TileSchedule::with_mapping(mode.strategy(), deps.dims(), Decomp3D::MAPPING_DIM)
                    .pi();
            let dots: Vec<i64> = deps.iter().map(|d| d.dot(&pi)).collect();
            assert_eq!(dots, want, "{mode:?}");
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
