//! Property tests pinning the pipelined-rank engine: on random shapes
//! (including partial last tiles, `V > extent`, and single-rank worlds),
//! every (dimensionality × strategy) combination must be **bitwise**
//! identical to the sequential reference.

use msgpass::thread_backend::{LatencyModel, WorldConfig};
use proptest::prelude::*;
use stencil::decomp::Decomp2D;
use stencil::dist3d::{run_dist3d_with, Decomp3D, ExecMode};
use stencil::grid::Grid2D;
use stencil::kernel::{Example1, Paper3D};
use stencil::seq::{run_example1_seq, run_paper3d_seq};

proptest! {
    // Thread-spawning tests: keep the case count modest. Each case
    // covers both strategies, so every combo gets the full case budget.
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// 3-D × {Blocking, Overlap} against the sequential reference.
    #[test]
    fn engine_3d_matches_sequential(
        pi in 1usize..=2,
        pj in 1usize..=2,
        bx in 1usize..=3,
        by in 1usize..=3,
        nz in 3usize..=30,
        v in 1usize..=11, // regularly a partial last tile or V > nz
        boundary in 0.0f32..3.0,
    ) {
        let d = Decomp3D { nx: pi * bx, ny: pj * by, nz, pi, pj, v, boundary };
        let seq = run_paper3d_seq(d.nx, d.ny, d.nz, d.boundary);
        let cfg = WorldConfig::new(LatencyModel::zero());
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let (engine, _, _) = run_dist3d_with(Paper3D, d, &cfg, mode).expect("valid decomp");
            prop_assert_eq!(engine.max_abs_diff(&seq), 0.0, "vs sequential {:?}", mode);
        }
    }

    /// 2-D strips (as unit-axis blocks) × {Blocking, Overlap} against
    /// the sequential reference.
    #[test]
    fn engine_2d_matches_sequential(
        ranks in 1usize..=4,
        by in 1usize..=4,
        nx in 3usize..=40,
        v in 1usize..=9,
        boundary in 0.0f32..3.0,
    ) {
        let d = Decomp2D { nx, ny: ranks * by, ranks, v, boundary };
        let seq = run_example1_seq(d.nx, d.ny, d.boundary);
        let cfg = WorldConfig::new(LatencyModel::zero());
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let (block, _, _) = run_dist3d_with(Example1, d.block(), &cfg, mode).expect("valid decomp");
            let engine = Grid2D::from_block(&block);
            prop_assert_eq!(engine.max_abs_diff(&seq), 0.0, "vs sequential {:?}", mode);
        }
    }

    /// Injected latency changes the engine's timing, never its results.
    #[test]
    fn engine_results_are_latency_invariant(
        v in 1usize..=6,
        startup in 0.0f64..250.0,
        overlap in any::<bool>(),
    ) {
        let d = Decomp3D { nx: 4, ny: 4, nz: 14, pi: 2, pj: 2, v, boundary: 1.0 };
        let mode = if overlap { ExecMode::Overlapping } else { ExecMode::Blocking };
        let lat = LatencyModel { startup_us: startup, per_byte_us: 0.02 };
        let run = |lat| run_dist3d_with(Paper3D, d, &WorldConfig::new(lat), mode).expect("valid decomp");
        let (with_lat, _, _) = run(lat);
        let (without, _, _) = run(LatencyModel::zero());
        prop_assert_eq!(with_lat.max_abs_diff(&without), 0.0);
    }
}
