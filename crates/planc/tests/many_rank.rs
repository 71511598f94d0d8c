//! A 4×4 thread world: the plan is compiled once (the analyzer
//! pre-flight runs there, at full size, and nowhere else), stamped onto
//! a zero-latency world and verified against the sequential sweep —
//! bitwise on the pinned tier, within 1e-4 on the fast one.

use msgpass::thread_backend::{LatencyModel, WorldConfig};
use planc::{ExecOptions, PlanRequest};
use stencil::kernel::KernelTier;

#[test]
fn sixteen_ranks_match_the_sequential_sweep_on_both_tiers() {
    let seq = stencil::seq::run_paper3d_seq(16, 16, 256, 1.0);
    let base = WorldConfig::new(LatencyModel::zero());
    for (tier, tolerance) in [(KernelTier::Bitwise, 0.0), (KernelTier::Fast, 1e-4)] {
        let req = PlanRequest::grid3(16, 16, 256, 4, 4)
            .with_v(16)
            .with_tier(tier);
        let art = planc::compile(&req).expect("the 4x4 plan passes pre-flight");
        assert_eq!((art.ranks(), art.steps()), (16, 16));
        let out = art
            .execute_with(&base, ExecOptions::default())
            .expect("fault-free world");
        let err = out.grid.dim3().expect("3-D plan").max_abs_diff(&seq);
        assert!(
            err <= tolerance,
            "{tier:?}: max |Δ| {err:e} > {tolerance:e}"
        );
    }
}
