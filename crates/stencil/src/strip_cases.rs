//! The 2-D strip cases (Example 1, §3) on the one executor: every strip
//! runs as its unit-axis block ([`Decomp2D::block`]), bitwise equal to
//! the 2-D sequential reference, with the programs, reports and step
//! counts the strip executor it replaced was analysed with.

mod tests {
    use crate::decomp::{Decomp2D, DecompError};
    use crate::dist3d::{run_dist3d_with, ExecMode};
    use crate::engine::EngineError;
    use crate::grid::Grid2D;
    use crate::kernel::{Alignment2D, Example1, Kernel3D, Smooth2D};
    use crate::plan::Compiled3D;
    use crate::preflight::analyze_plan;
    use crate::proto::DIR_J;
    use crate::seq::{run_example1_seq, run_seq2d};
    use analyzer::RankTopology;
    use msgpass::thread_backend::{LatencyModel, WorldConfig};

    /// One-shot run of the strip on a zero-latency world, as a strip.
    fn run<K: Kernel3D>(kernel: K, d: Decomp2D, mode: ExecMode) -> Result<Grid2D, EngineError> {
        let cfg = WorldConfig::new(LatencyModel::zero());
        run_dist3d_with(kernel, d.block(), &cfg, mode).map(|(grid, _, _)| Grid2D::from_block(&grid))
    }

    fn check(d: Decomp2D, mode: ExecMode) {
        let dist = run(Example1, d, mode).expect("valid decomp");
        let seq = run_example1_seq(d.nx, d.ny, d.boundary);
        assert_eq!(dist.max_abs_diff(&seq), 0.0, "{mode:?} {d:?}");
    }

    const fn strip(nx: usize, ny: usize, ranks: usize, v: usize, boundary: f32) -> Decomp2D {
        Decomp2D {
            nx,
            ny,
            ranks,
            v,
            boundary,
        }
    }

    #[test]
    fn blocking_matches_sequential() {
        check(strip(40, 12, 4, 10, 4.0), ExecMode::Blocking);
    }

    #[test]
    fn overlap_matches_sequential() {
        check(strip(40, 12, 4, 10, 4.0), ExecMode::Overlapping);
    }

    #[test]
    fn overlap_partial_last_tile() {
        check(strip(37, 9, 3, 8, 1.0), ExecMode::Overlapping);
    }

    #[test]
    fn single_rank() {
        check(strip(16, 8, 1, 4, 2.0), ExecMode::Blocking);
    }

    #[test]
    fn fine_grain_v1() {
        check(strip(10, 6, 2, 1, 3.0), ExecMode::Overlapping);
    }

    #[test]
    fn wide_strips() {
        check(strip(24, 30, 5, 6, 1.0), ExecMode::Blocking);
    }

    #[test]
    fn unit_width_strips() {
        // by == 1: every pencil's j−1 neighbour and diagonal are off the
        // block, and the face column is also the first column.
        check(strip(12, 3, 3, 5, 2.0), ExecMode::Overlapping);
    }

    #[test]
    fn generic_2d_kernels_match_sequential() {
        let d = strip(25, 12, 3, 6, 1.0);
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let k = Alignment2D { alphabet: 3 };
            let dist = run(k, d, mode).expect("valid decomp");
            let seq = run_seq2d(k, d.nx, d.ny, d.boundary);
            assert_eq!(dist.max_abs_diff(&seq), 0.0, "Alignment2D {mode:?}");

            let k = Smooth2D::default();
            let dist = run(k, d, mode).expect("valid decomp");
            let seq = run_seq2d(k, d.nx, d.ny, d.boundary);
            assert_eq!(dist.max_abs_diff(&seq), 0.0, "Smooth2D {mode:?}");
        }
    }

    #[test]
    fn invalid_decomps_are_errors_not_panics() {
        let bad_div = strip(10, 10, 3, 2, 0.0);
        assert_eq!(
            bad_div.block().validate(),
            Err(DecompError::NotDivisible {
                axis: "ny",
                extent: 10,
                parts: 3
            })
        );
        assert!(run(Example1, bad_div, ExecMode::Blocking).is_err());
        let bad_v = Decomp2D { v: 0, ..bad_div };
        assert_eq!(
            bad_v.block().validate(),
            Err(DecompError::EmptyDecomposition)
        );
        // No compile path seals either: V = 0 must not divide by zero on
        // the way to its error, and an indivisible grid must not
        // silently run as a smaller one.
        assert_eq!(bad_v.steps(), 0);
        for compile in [Compiled3D::compile, Compiled3D::compile_unchecked] {
            let rejected = |bad: Decomp2D| compile(bad.block(), ExecMode::Blocking).unwrap_err();
            assert_eq!(rejected(bad_v), DecompError::EmptyDecomposition.into());
            assert_eq!(
                rejected(bad_div),
                bad_div.block().validate().unwrap_err().into()
            );
        }
    }

    #[test]
    fn diagonal_dependence_exercised() {
        // A boundary of 1.0 with multiple strips: if the diagonal seed
        // were mishandled, column j = by (first column of rank 1) would
        // differ from sequential. Use an asymmetric size to make index
        // bugs visible.
        check(strip(13, 4, 2, 3, 1.0), ExecMode::Overlapping);
    }

    #[test]
    fn executor_reads_the_layout_preflight_analyses() {
        // The unit-axis block is the strips' chain: no i-face peer, the
        // j-face from rank r to r + 1 under DIR_J, a tile of one column.
        for ranks in [6, 4] {
            let b = strip(23, 2 * ranks, ranks, 5, 1.0).block(); // partial last tile
            assert_eq!((b.ranks(), b.wire_dir(1)), (ranks, DIR_J));
            for rank in 0..ranks {
                let peers = |dir| (b.upstream(rank, dir), b.downstream(rank, dir));
                let next = (rank + 1 < ranks).then_some(rank + 1);
                assert_eq!(
                    [peers(0), peers(1)],
                    [(None, None), (rank.checked_sub(1), next)]
                );
                let lens: Vec<usize> = (0..5).map(|k| b.face_len(rank, 1, k)).collect();
                assert_eq!(lens, [5, 5, 5, 5, 3]);
            }
        }
    }

    /// What the strip executor's compile produced for these strips:
    /// `(strips, mode, FNV-1a of every rank's program ops, [ranks,
    /// steps, events, messages, logical makespan] of the pre-flight
    /// report)`.
    #[rustfmt::skip]
    const RECORDED_STRIPS: [(Decomp2D, ExecMode, u64, [i64; 5]); 16] = {
        use ExecMode::{Blocking, Overlapping};
        [
            (strip(40, 12, 4, 10, 4.0), Blocking, 0xc97a753e43ffc8f9, [4, 4, 40, 12, 7]),
            (strip(40, 12, 4, 10, 4.0), Overlapping, 0x4c0d164bc4368291, [4, 4, 64, 12, 10]),
            (strip(37, 9, 3, 8, 1.0), Blocking, 0x352f259c17975852, [3, 5, 35, 10, 7]),
            (strip(37, 9, 3, 8, 1.0), Overlapping, 0x4e40de5eb136543a, [3, 5, 55, 10, 9]),
            (strip(16, 8, 1, 4, 2.0), Blocking, 0xaf341fec12852d2b, [1, 4, 4, 0, 4]),
            (strip(16, 8, 1, 4, 2.0), Overlapping, 0xaf341fec12852d2b, [1, 4, 4, 0, 4]),
            (strip(10, 6, 2, 1, 3.0), Blocking, 0x12362539a65800da, [2, 10, 40, 10, 11]),
            (strip(10, 6, 2, 1, 3.0), Overlapping, 0x58b2c9d458d2c262, [2, 10, 60, 10, 12]),
            (strip(24, 30, 5, 6, 1.0), Blocking, 0x22dcf3b3aa159f0b, [5, 4, 52, 16, 8]),
            (strip(24, 30, 5, 6, 1.0), Overlapping, 0xf40108e334fe48d3, [5, 4, 84, 16, 12]),
            (strip(12, 3, 3, 5, 2.0), Blocking, 0xc1a0ef05579e8103, [3, 3, 21, 6, 5]),
            (strip(12, 3, 3, 5, 2.0), Overlapping, 0xb3c40e815252b04d, [3, 3, 33, 6, 7]),
            (strip(25, 12, 3, 6, 1.0), Blocking, 0x697259008bb71ab6, [3, 5, 35, 10, 7]),
            (strip(25, 12, 3, 6, 1.0), Overlapping, 0x6b3e483e619d9826, [3, 5, 55, 10, 9]),
            (strip(13, 4, 2, 3, 1.0), Blocking, 0x21b275cc4d47324c, [2, 5, 20, 5, 6]),
            (strip(13, 4, 2, 3, 1.0), Overlapping, 0x25c7c9fe50804668, [2, 5, 30, 5, 7]),
        ]
    };

    #[test]
    fn unit_axis_plans_are_the_recorded_strip_plans() {
        let fnv = |h: u64, text: String| {
            let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            text.as_bytes().iter().fold(h, step)
        };
        for (d, mode, ops, report) in RECORDED_STRIPS {
            let at = format!("{d:?} {mode:?}");
            let (proved, programs) = analyze_plan(&d.block(), mode).expect("clean plan");
            let mut h = 0xcbf2_9ce4_8422_2325;
            for (rank, program) in programs.iter().enumerate() {
                h = fnv(h, format!("rank {rank}:"));
                h = program.ops().fold(h, |h, op| fnv(h, format!("{op:?};")));
            }
            assert_eq!(h, ops, "{at}");
            let c = Compiled3D::compile(d.block(), mode).expect("clean plan");
            let r = c.report().expect("compile analyzes");
            assert_eq!(*r, proved, "{at}");
            let got = [r.ranks, r.steps, r.events, r.messages].map(|n| n as i64);
            assert_eq!(
                [got[0], got[1], got[2], got[3], r.logical_makespan],
                report,
                "{at}"
            );
            assert_eq!(d.steps(), r.steps, "{at}");
        }
    }
}
