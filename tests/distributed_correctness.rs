//! Property-based correctness of the real distributed executors: for
//! randomized decompositions, tile heights and boundary values, both
//! execution modes must be **bitwise** identical to the sequential
//! reference, with and without injected latency.

mod common;

use common::{verify_example1, verify_paper3d};
use msgpass::thread_backend::{LatencyModel, WorldConfig};
use proptest::prelude::*;
use stencil::prelude::*;

fn zero_latency() -> WorldConfig {
    WorldConfig::new(LatencyModel::zero())
}

proptest! {
    // Thread-spawning tests: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dist3d_bitwise_matches_sequential(
        pi in 1usize..=2,
        pj in 1usize..=2,
        bx in 1usize..=3,
        by in 1usize..=3,
        nz in 4usize..=40,
        v in 1usize..=12,
        boundary in 0.0f32..4.0,
        overlap in any::<bool>(),
    ) {
        let d = Decomp3D {
            nx: pi * bx,
            ny: pj * by,
            nz,
            pi,
            pj,
            v,
            boundary,
        };
        let mode = if overlap { ExecMode::Overlapping } else { ExecMode::Blocking };
        let rep = verify_paper3d(d, LatencyModel::zero(), mode).expect("valid decomposition");
        prop_assert!(rep.passed(), "max diff {}", rep.max_abs_diff);
    }

    #[test]
    fn dist2d_bitwise_matches_sequential(
        ranks in 1usize..=4,
        by in 1usize..=4,
        nx in 4usize..=48,
        v in 1usize..=10,
        boundary in 0.0f32..4.0,
        overlap in any::<bool>(),
    ) {
        let d = Decomp2D {
            nx,
            ny: ranks * by,
            ranks,
            v,
            boundary,
        };
        let mode = if overlap { ExecMode::Overlapping } else { ExecMode::Blocking };
        let rep = verify_example1(d, LatencyModel::zero(), mode).expect("valid decomposition");
        prop_assert!(rep.passed(), "max diff {}", rep.max_abs_diff);
    }

    /// Latency affects timing only, never values.
    #[test]
    fn latency_never_changes_results(
        v in 1usize..=8,
        startup in 0.0f64..300.0,
    ) {
        let d = Decomp3D {
            nx: 4,
            ny: 4,
            nz: 16,
            pi: 2,
            pj: 2,
            v,
            boundary: 1.0,
        };
        let lat = LatencyModel { startup_us: startup, per_byte_us: 0.01 };
        let rep = verify_paper3d(d, lat, ExecMode::Overlapping).expect("valid decomposition");
        prop_assert!(rep.passed());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The generic executors are bitwise-correct for *every* kernel, not
    /// just the paper's: randomized decompositions over the relaxation
    /// and longest-path 3-D kernels and the alignment/smoothing 2-D
    /// kernels.
    #[test]
    fn generic_kernels_bitwise_correct(
        pi in 1usize..=2,
        bx in 1usize..=3,
        nz in 4usize..=24,
        v in 1usize..=8,
        omega in 0.1f32..1.0,
        overlap in proptest::bool::ANY,
    ) {
        use stencil::kernel::{LongestPath3D, Relax3D};
        use stencil::seq::run_seq3d;
        let d = Decomp3D {
            nx: pi * bx,
            ny: 2,
            nz,
            pi,
            pj: 2,
            v,
            boundary: 1.0,
        };
        let mode = if overlap { ExecMode::Overlapping } else { ExecMode::Blocking };
        let k = Relax3D { omega };
        let (dist, _, _) = run_dist3d_with(k, d, &zero_latency(), mode).expect("valid decomp");
        let seq = run_seq3d(k, d.nx, d.ny, d.nz, d.boundary);
        prop_assert_eq!(dist.max_abs_diff(&seq), 0.0);

        let (dist, _, _) = run_dist3d_with(LongestPath3D, d, &zero_latency(), mode)
            .expect("valid decomp");
        let seq = run_seq3d(LongestPath3D, d.nx, d.ny, d.nz, d.boundary);
        prop_assert_eq!(dist.max_abs_diff(&seq), 0.0);
    }

    #[test]
    fn generic_2d_kernels_bitwise_correct(
        ranks in 1usize..=3,
        by in 1usize..=3,
        nx in 4usize..=32,
        v in 1usize..=6,
        alphabet in 1u32..=5,
        overlap in proptest::bool::ANY,
    ) {
        use stencil::kernel::{Alignment2D, Smooth2D};
        use stencil::seq::run_seq2d;
        let d = Decomp2D {
            nx,
            ny: ranks * by,
            ranks,
            v,
            boundary: 2.0,
        };
        let mode = if overlap { ExecMode::Overlapping } else { ExecMode::Blocking };
        let k = Alignment2D { alphabet };
        let (dist, _, _) = run_dist2d_with(k, d, &zero_latency(), mode).expect("valid decomp");
        let seq = run_seq2d(k, d.nx, d.ny, d.boundary);
        prop_assert_eq!(dist.max_abs_diff(&seq), 0.0);

        let k = Smooth2D::default();
        let (dist, _, _) = run_dist2d_with(k, d, &zero_latency(), mode).expect("valid decomp");
        let seq = run_seq2d(k, d.nx, d.ny, d.boundary);
        prop_assert_eq!(dist.max_abs_diff(&seq), 0.0);
    }
}

/// Both modes agree with each other exactly (transitively via seq, but
/// asserted directly here on a non-trivial shape).
#[test]
fn modes_agree_with_each_other() {
    let d = Decomp3D {
        nx: 6,
        ny: 4,
        nz: 33,
        pi: 3,
        pj: 2,
        v: 7,
        boundary: 1.5,
    };
    let run = |mode| run_dist3d_with(Paper3D, d, &zero_latency(), mode).expect("valid decomp");
    let (a, _, _) = run(ExecMode::Blocking);
    let (b, _, _) = run(ExecMode::Overlapping);
    assert_eq!(a.max_abs_diff(&b), 0.0);
}

/// All values remain finite over long pipelines (the damped Example 1
/// kernel and the √ kernel are both stable).
#[test]
fn long_pipeline_stays_finite() {
    let d = Decomp2D {
        nx: 512,
        ny: 8,
        ranks: 4,
        v: 32,
        boundary: 1.0,
    };
    let (g, _, _) =
        run_dist2d_with(Example1, d, &zero_latency(), ExecMode::Overlapping).expect("valid decomp");
    assert!(g.data().iter().all(|x| x.is_finite()));
}
