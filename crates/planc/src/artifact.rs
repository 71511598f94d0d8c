//! [`PlanArtifact`]: the immutable, analyzer-approved output of plan
//! compilation.
//!
//! An artifact bundles everything an execution needs and nothing it
//! has to re-derive: the sealed [`Compiled3D`] (a strip's is its
//! unit-axis block), which carries the validated decomposition, the
//! per-rank programs the executor interprets and the pre-flight
//! [`AnalysisReport`] that proved them; the resolved tile height, the
//! closed-form time prediction, and the [`PlanKey`] identifying it in
//! the cache. Executing an artifact never re-validates, re-optimizes
//! or re-analyzes — pre-flight ran exactly once, at compile time.

use crate::cache::PlanKey;
use crate::spec::{KernelName, PlanRequest};
use crate::worlds::WorldPool;
use analyzer::AnalysisReport;
use msgpass::fault::FaultStats;
use msgpass::thread_backend::{LatencyModel, WorldConfig};
use std::time::Duration;
use stencil::engine::{EngineError, ExecMode};
use stencil::grid::{Grid2D, Grid3D};
use stencil::kernel::{Example1, Fused3D, LongestPath3D, Paper3D, Relax3D, Smooth2D};
use stencil::plan::{self, Compiled3D};
use stencil::seq::{follows_recurrence, max_abs_diff_from_seq3d};
use tiling_core::machine::KernelTier;

/// Call the generic `$f(kernel, args…)` with the kernel value `$name`
/// stands for — the one dispatch from [`KernelName`] to the generic
/// runners.
macro_rules! kernel {
    ($name:expr, $f:path $(, $arg:expr)*) => {
        match $name {
            KernelName::Paper3D => $f(Paper3D $(, $arg)*),
            KernelName::Relax3D => $f(Relax3D::default() $(, $arg)*),
            KernelName::Fused3D => $f(Fused3D::default() $(, $arg)*),
            KernelName::LongestPath3D => $f(LongestPath3D $(, $arg)*),
            KernelName::Example1 => $f(Example1 $(, $arg)*),
            KernelName::Smooth2D => $f(Smooth2D::default() $(, $arg)*),
        }
    };
}

/// Execution options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Verify the distributed result against the sequential reference
    /// (bitwise for [`KernelTier::Bitwise`], epsilon-bounded for
    /// [`KernelTier::Fast`]).
    pub verify: bool,
}

/// The result grid of an execution.
#[derive(Clone, Debug)]
pub enum GridResult {
    /// 2-D output: the strip, transposed out of its unit-axis block.
    Dim2(Grid2D),
    /// 3-D output.
    Dim3(Grid3D),
}

impl GridResult {
    /// The 3-D grid, if this was a 3-D plan.
    pub fn dim3(&self) -> Option<&Grid3D> {
        match self {
            GridResult::Dim3(g) => Some(g),
            GridResult::Dim2(_) => None,
        }
    }
}

/// What one execution of an artifact produced.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The result grid.
    pub grid: GridResult,
    /// Wall-clock time of the parallel region.
    pub elapsed: Duration,
    /// Grid cells computed per second of parallel region.
    pub cells_per_sec: f64,
    /// `Some(ok)` when [`ExecOptions::verify`] was set.
    pub verified: Option<bool>,
    /// Per-rank fault counters.
    pub faults: Vec<FaultStats>,
}

/// A compiled, analyzer-approved, immutable plan. See the module docs.
#[derive(Clone, Debug)]
pub struct PlanArtifact {
    pub(crate) key: PlanKey,
    pub(crate) request: PlanRequest,
    pub(crate) v: usize,
    pub(crate) compiled: Compiled3D,
    pub(crate) report: AnalysisReport,
    pub(crate) predicted_us: Option<f64>,
}

impl PlanArtifact {
    /// The cache key derived from the compilation inputs.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// The request this artifact was compiled from.
    pub fn request(&self) -> &PlanRequest {
        &self.request
    }

    /// The resolved tile height (explicit or closed-form `V*`).
    pub fn v(&self) -> usize {
        self.v
    }

    /// The compiled block plan, if this is a 3-D artifact (a strip's
    /// unit-axis block is how it runs, not what it returns).
    pub fn compiled3(&self) -> Option<&Compiled3D> {
        (!self.is_strip()).then_some(&self.compiled)
    }

    /// Whether this is a 2-D strip plan, whose results are a [`Grid2D`].
    fn is_strip(&self) -> bool {
        self.request.kernel.dims() == 2
    }

    /// The pre-flight static-analysis report (compiled exactly once).
    pub fn report(&self) -> &AnalysisReport {
        &self.report
    }

    /// The plan's logical makespan (analyzer step count).
    pub fn logical_makespan(&self) -> i64 {
        self.report.logical_makespan
    }

    /// Pipeline steps per rank.
    pub fn steps(&self) -> usize {
        self.compiled.decomp().steps()
    }

    /// World size the plan executes on.
    pub fn ranks(&self) -> usize {
        self.compiled.ranks()
    }

    /// The schedule mode the plan was compiled for.
    pub fn mode(&self) -> ExecMode {
        self.request.mode
    }

    /// Closed-form predicted total time at the resolved height (µs),
    /// when the machine model admits one.
    pub fn predicted_us(&self) -> Option<f64> {
        self.predicted_us
    }

    /// Total grid cells one execution computes.
    pub fn cells(&self) -> usize {
        let d = self.compiled.decomp();
        d.nx * d.ny * d.nz
    }

    /// The world configuration the artifact was compiled for: zero
    /// injected latency, the request's transport and tier, pre-flight
    /// skipped (it already ran at compile time).
    pub fn world_config(&self) -> WorldConfig {
        self.stamp(WorldConfig::new(LatencyModel::zero()))
    }

    /// Stamp the plan-owned fields onto a caller-supplied base config
    /// (latency, faults, reliability and pinning stay the caller's):
    /// the transport and tier come from the compilation inputs, and the
    /// per-run pre-flight is off because it already ran at compile time.
    pub fn stamp(&self, base: WorldConfig) -> WorldConfig {
        let mut cfg = base;
        cfg.transport = self.request.transport;
        cfg.kernel_tier = self.request.tier;
        cfg.skip_preflight = true;
        cfg
    }

    /// Execute on a fresh world with the artifact's own configuration.
    pub fn execute(&self, opts: ExecOptions) -> Result<ExecOutcome, EngineError> {
        self.execute_with(&self.world_config(), opts)
    }

    /// Execute on a fresh world built from `base` with the plan-owned
    /// fields stamped over it (see [`PlanArtifact::stamp`]) — how the
    /// chaos harness runs a compiled plan under faults and injected
    /// latency.
    pub fn execute_with(
        &self,
        base: &WorldConfig,
        opts: ExecOptions,
    ) -> Result<ExecOutcome, EngineError> {
        let (cfg, kernel) = (self.stamp(base.clone()), self.request.kernel);
        let (grid, elapsed, faults) = kernel!(kernel, plan::run3d_with, &self.compiled, &cfg)?;
        Ok(self.outcome(grid, elapsed, faults, opts))
    }

    /// Execute on a warm world checked out of `pool`. The world is
    /// returned to the pool only on success — an errored world may hold
    /// undrained messages and is discarded.
    pub fn execute_pooled(
        &self,
        pool: &WorldPool,
        opts: ExecOptions,
    ) -> Result<ExecOutcome, EngineError> {
        let (c, cfg) = (&self.compiled, self.world_config());
        let mut world = pool.checkout(&cfg, c.ranks());
        let (kernel, tier) = (self.request.kernel, self.request.tier);
        // On error the world is dropped, not checked in: it may hold
        // undrained state.
        let (grid, elapsed, faults) = kernel!(kernel, plan::run3d_on_world, c, tier, &mut world)?;
        pool.checkin(&cfg, world);
        Ok(self.outcome(grid, elapsed, faults, opts))
    }

    /// Whether `block` is the sequential reference of the artifact's
    /// kernel over its grid: bit for bit on the pinned tier, judged cell
    /// by cell ([`follows_recurrence`]); within 1e-4 on fast math, whose
    /// contract is a distance that per-cell residuals do not bound.
    fn matches_reference(&self, block: &Grid3D) -> bool {
        let kernel = self.request.kernel;
        match self.request.tier {
            KernelTier::Bitwise => kernel!(kernel, follows_recurrence, block),
            KernelTier::Fast => kernel!(kernel, max_abs_diff_from_seq3d, block) <= 1e-4,
        }
    }

    /// The outcome of a run whose block grid is `grid`, verified as the
    /// block: a strip's comes back as the strip, by one transpose.
    fn outcome(
        &self,
        grid: Grid3D,
        elapsed: Duration,
        faults: Vec<FaultStats>,
        opts: ExecOptions,
    ) -> ExecOutcome {
        let verified = opts.verify.then(|| self.matches_reference(&grid));
        let grid = match self.is_strip() {
            true => GridResult::Dim2(Grid2D::from_block(&grid)),
            false => GridResult::Dim3(grid),
        };
        ExecOutcome {
            cells_per_sec: self.cells() as f64 / elapsed.as_secs_f64().max(1e-12),
            grid,
            elapsed,
            verified,
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;

    /// A verified run is `Some(true)` on its untouched block and
    /// `Some(false)` once one cell of it is off, on both tiers, for a
    /// 3-D plan and for a strip (verified as its unit-axis block).
    #[test]
    fn verified_is_false_when_one_cell_of_the_block_is_off() {
        let verify = ExecOptions { verify: true };
        let grid3 = PlanRequest::grid3(8, 8, 64, 2, 2).with_v(16);
        let strip = PlanRequest::strip2(40, 12, 4).with_v(12);
        for req in [grid3, strip] {
            for tier in [KernelTier::Bitwise, KernelTier::Fast] {
                let art = compile(&req.clone().with_tier(tier)).expect("compiles");
                let (kernel, cfg) = (art.request.kernel, art.world_config());
                let run = kernel!(kernel, plan::run3d_with, &art.compiled, &cfg);
                let (block, elapsed, faults) = run.expect("runs");
                let verdict = |g| art.outcome(g, elapsed, faults.clone(), verify).verified;
                let (i, j, k) = (block.nx() - 1, block.ny() / 2, block.nz() / 2);
                let mut off = block.clone();
                off.set(i, j, k, block.get(i as i64, j as i64, k as i64) + 0.5);
                assert_eq!(verdict(block), Some(true), "{tier:?} {:?}", req.workload);
                assert_eq!(verdict(off), Some(false), "{tier:?} {:?}", req.workload);
            }
        }
    }
}
