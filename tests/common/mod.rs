//! Shared by the root integration tests: compile a decomposition, run
//! it on a fresh thread-backend world, and compare the gathered grid
//! with the sequential reference — distributed runs must be **bitwise**
//! equal to it (each cell is written once from final neighbor values,
//! so float non-associativity cannot creep in).
#![allow(dead_code)] // each test binary uses its own subset

use overlap_tiling::prelude::*;

/// Outcome of a verification run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VerifyReport {
    /// Maximum absolute difference (0.0 for a pass).
    pub max_abs_diff: f32,
    /// Wall-clock seconds of the distributed run.
    pub elapsed_secs: f64,
}

impl VerifyReport {
    /// True iff the distributed run is bitwise identical.
    pub fn passed(&self) -> bool {
        self.max_abs_diff == 0.0
    }
}

/// Verify the paper's 3-D kernel over `d` in the given mode.
pub fn verify_paper3d(
    d: Decomp3D,
    latency: LatencyModel,
    mode: ExecMode,
) -> Result<VerifyReport, EngineError> {
    let plan = Compiled3D::compile(d, mode)?;
    let (dist, elapsed, _) = run3d_with(Paper3D, &plan, &WorldConfig::new(latency))?;
    Ok(VerifyReport {
        max_abs_diff: dist.max_abs_diff(&run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary)),
        elapsed_secs: elapsed.as_secs_f64(),
    })
}

/// Verify the Example 1 kernel over the strips `d` (run as their
/// unit-axis block) in the given mode.
pub fn verify_example1(
    d: Decomp2D,
    latency: LatencyModel,
    mode: ExecMode,
) -> Result<VerifyReport, EngineError> {
    let plan = Compiled3D::compile(d.block(), mode)?;
    let (dist, elapsed, _) = run3d_with(Example1, &plan, &WorldConfig::new(latency))?;
    Ok(VerifyReport {
        max_abs_diff: Grid2D::from_block(&dist)
            .max_abs_diff(&run_example1_seq(d.nx, d.ny, d.boundary)),
        elapsed_secs: elapsed.as_secs_f64(),
    })
}
