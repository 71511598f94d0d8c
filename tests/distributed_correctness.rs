//! Property-based correctness of the real distributed executors: for
//! randomized decompositions, tile heights and boundary values, both
//! execution modes must be **bitwise** identical to the sequential
//! reference, with and without injected latency.

mod common;

use common::{verify_example1, verify_paper3d};
use msgpass::thread_backend::{build_world_with, LatencyModel, World, WorldConfig};
use proptest::prelude::*;
use stencil::kernel::KernelTier;
use stencil::prelude::*;
use stencil::seq::run_seq2d;

fn zero_latency() -> WorldConfig {
    WorldConfig::new(LatencyModel::zero())
}

/// Run the strips `d` as their unit-axis block on a fresh zero-latency
/// world; the strip grid.
fn run_strip<K: Kernel3D>(kernel: K, d: Decomp2D, mode: ExecMode) -> Grid2D {
    let (block, _, _) = run_dist3d_with(kernel, d.block(), &zero_latency(), mode).expect("valid");
    Grid2D::from_block(&block)
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
        nz in 3usize..=40,
        v in 1usize..=12, // regularly a partial last tile or V > nz
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
        nx in 3usize..=48,
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

    /// Latency affects timing only, never values, under either schedule.
    #[test]
    fn latency_never_changes_results(
        v in 1usize..=8,
        startup in 0.0f64..300.0,
        overlap in any::<bool>(),
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
        let mode = if overlap { ExecMode::Overlapping } else { ExecMode::Blocking };
        let rep = verify_paper3d(d, lat, mode).expect("valid decomposition");
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
        let d = Decomp2D {
            nx,
            ny: ranks * by,
            ranks,
            v,
            boundary: 2.0,
        };
        let mode = if overlap { ExecMode::Overlapping } else { ExecMode::Blocking };
        let k = Alignment2D { alphabet };
        let seq = run_seq2d(k, d.nx, d.ny, d.boundary);
        prop_assert_eq!(run_strip(k, d, mode).max_abs_diff(&seq), 0.0);

        let k = Smooth2D::default();
        let seq = run_seq2d(k, d.nx, d.ny, d.boundary);
        prop_assert_eq!(run_strip(k, d, mode).max_abs_diff(&seq), 0.0);
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
    let g = run_strip(Example1, d, ExecMode::Overlapping);
    assert!(g.data().iter().all(|x| x.is_finite()));
}

/// Both modes on a fresh world per run and on the prebuilt `world`,
/// bitwise against `stencil::seq`. A result takes the unfilled storage
/// of a dropped grid of its size, so the last result is set to a NaN of
/// its own payload — cells and the sweep's padding — and dropped
/// until the warm run gets its storage back (tests in parallel may take
/// or free it first). The warm run must rewrite every float of it: its
/// storage is the fresh run's bit for bit (a caller may hash `data()`;
/// the benchmark does), and finite (a debug build starts unfilled
/// storage as NaN).
fn check_fresh_and_warm<K: Kernel3D>(kernel: K, d: Decomp3D, world: &mut World<f32>) {
    let seq = run_seq3d(kernel, d.nx, d.ny, d.nz, d.boundary);
    let bits = |g: &Grid3D| g.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        let plan = Compiled3D::compile(d, mode).expect("clean plan");
        let (mut poisoned, _, _) = run3d_with(kernel, &plan, &zero_latency()).expect("fresh world");
        assert_eq!(poisoned.max_abs_diff(&seq), 0.0, "fresh, {mode:?}, {d:?}");
        let fresh = bits(&poisoned);
        for attempt in 0.. {
            assert!(attempt < 100, "NaN storage never reused: {mode:?} {d:?}");
            poisoned.fill(f32::from_bits(f32::NAN.to_bits() ^ 0x5a5));
            let storage = poisoned.data().as_ptr();
            drop(poisoned);
            let (warm, _, _) =
                run3d_on_world(kernel, &plan, KernelTier::Bitwise, world).expect("warm world");
            assert_eq!(warm.max_abs_diff(&seq), 0.0, "warm world, {mode:?}, {d:?}");
            if warm.data().as_ptr() == storage {
                assert!(bits(&warm) == fresh, "warm storage, {mode:?}, {d:?}");
                assert!(warm.data().iter().all(|x| x.is_finite()), "{mode:?}, {d:?}");
                break;
            }
            poisoned = warm;
        }
    }
}

/// A block whose tile height and last tile are not a multiple of the
/// sweep's four lanes, on two ranks, and its strip as a unit-axis block
/// (whose groups hold one pencil each): every run rewrites the same
/// storage, and the strip comes back as the 2-D reference.
#[test]
fn partial_lane_blocks_rewrite_the_same_storage() {
    let mut world = build_world_with::<f32>(2, &zero_latency());
    let block = Decomp3D {
        nx: 6,
        ny: 5,
        nz: 23,
        pi: 2,
        pj: 1,
        v: 6,
        boundary: 1.25,
    };
    check_fresh_and_warm(Paper3D, block, &mut world);
    let strips = Decomp2D {
        nx: 23,
        ny: 6,
        ranks: 2,
        v: 6,
        boundary: 1.5,
    };
    check_fresh_and_warm(Example1, strips.block(), &mut world);
    let seq = run_seq2d(Example1, strips.nx, strips.ny, strips.boundary);
    for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
        assert_eq!(run_strip(Example1, strips, mode), seq, "{mode:?}");
    }
}

/// The result grid is the ranks' storage: every rank computes straight
/// into its own pencils of the output, so a pencil dealt to the wrong
/// rank or left unwritten differs from the sequential reference. Every
/// processor-grid shape, mode and two kernels, with a partial last tile
/// — on a fresh world per run, and on one prebuilt world per rank count
/// reused for all of its cases.
#[test]
fn every_pencil_is_written_by_its_owner_on_fresh_and_reused_worlds() {
    let shapes = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)];
    for ranks in [1, 2, 4, 6] {
        let mut world = build_world_with::<f32>(ranks, &zero_latency());
        for (pi, pj) in shapes.into_iter().filter(|(pi, pj)| pi * pj == ranks) {
            let d = Decomp3D {
                nx: 3 * pi,
                ny: 2 * pj,
                nz: 19,
                pi,
                pj,
                v: 4, // 19 % 4 ≠ 0: the last tile is partial
                boundary: 1.25,
            };
            check_fresh_and_warm(Paper3D, d, &mut world);
            check_fresh_and_warm(Relax3D::default(), d, &mut world);
        }
    }
}

/// A strip plan is a block plan with a unit i-axis: fresh, and on one
/// warm world that runs it for every 2-D kernel and mode in turn.
#[test]
fn strip_plans_run_on_fresh_and_warm_worlds() {
    let strips = Decomp2D {
        nx: 37,
        ny: 9,
        ranks: 3,
        v: 8, // partial last tile
        boundary: 1.5,
    };
    let mut world = build_world_with::<f32>(strips.ranks, &zero_latency());
    let d = strips.block();
    check_fresh_and_warm(Example1, d, &mut world);
    check_fresh_and_warm(Alignment2D { alphabet: 1 }, d, &mut world);
    check_fresh_and_warm(Alignment2D { alphabet: 4 }, d, &mut world);
    check_fresh_and_warm(Smooth2D::default(), d, &mut world);
}

/// A rank consumes its pencils tile by tile from the bottom and deals
/// each window out in the order of a walk compiled per tile length, so
/// the shapes to get wrong are those where the windows, the chunking or
/// the walk change under it: a last tile cut into fewer chunks than the
/// full one (3 → 1) or into more (7 → 12), single-cell tiles, one tile
/// taller than the grid, blocks one pencil wide. Bitwise on the pinned
/// tier; on the fast tier, bit-identical to what the per-tile carve
/// this walk replaced computed (checksums recorded at that commit).
#[test]
fn consumed_pencils_are_bitwise_on_edge_shapes_and_the_fast_tier_has_not_moved() {
    // (nx, ny, nz, V, checksum of the Fused3D fast-tier grid) on 2×2 ranks.
    let shapes = [
        (4, 4, 180, 80, Some(0xa3c0_9823_a5cf_4511u64)),
        (4, 4, 769, 385, None),
        (4, 4, 7, 1, None),
        (4, 4, 5, 9, None),
        (2, 6, 37, 8, Some(0xa804_e37c_3e92_664a)),
        (6, 2, 37, 8, Some(0xd90a_b304_fb5a_adce)),
    ];
    let mut world = build_world_with::<f32>(4, &zero_latency());
    for (nx, ny, nz, v, fast_checksum) in shapes {
        let d = Decomp3D {
            nx,
            ny,
            nz,
            pi: 2,
            pj: 2,
            v,
            boundary: 1.25,
        };
        check_fresh_and_warm(Paper3D, d, &mut world);
        check_fresh_and_warm(Relax3D::default(), d, &mut world);
        // Neither contracts nor decays: a stale `k − 1` seed shows.
        check_fresh_and_warm(LongestPath3D, d, &mut world);
        let Some(want) = fast_checksum else { continue };
        let fnv = |h: u64, x: f32| (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3);
        let fast = zero_latency().with_kernel_tier(KernelTier::Fast);
        for mode in [ExecMode::Blocking, ExecMode::Overlapping] {
            let plan = Compiled3D::compile(d, mode).expect("clean plan");
            let kernel = Fused3D::default();
            let (fresh, _, _) = run3d_with(kernel, &plan, &fast).expect("fresh world");
            let (warm, _, _) =
                run3d_on_world(kernel, &plan, KernelTier::Fast, &mut world).expect("warm world");
            for grid in [fresh, warm] {
                // Cells in (i, j, k) order, whatever the layout.
                let got = grid.cells().fold(0xcbf2_9ce4_8422_2325, fnv);
                assert_eq!(got, want, "fast tier, {mode:?}, {d:?}");
            }
        }
    }
}
