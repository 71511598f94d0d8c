//! Sequential reference executors.
//!
//! These run the kernels in the original (untiled) lexicographic loop
//! order on one core. The distributed executors must produce bitwise
//! identical grids.
//!
//! What "verified" means depends on the kernel tier. On the pinned
//! (bitwise) tier a result is certified by [`follows_recurrence`]:
//! every cell is the bits of `eval` on its own upstream neighbours.
//! That is the reference by induction over the sequential order: the
//! dependences `{e₁, e₂, e₃, e₂+e₃}` are lexicographically positive, so
//! the first cell where a grid and the reference differ reads only
//! cells where they agree, and its `eval` gives the reference's bits,
//! not the grid's. On the fast tier the contract is a distance, which
//! per-cell residuals do not bound, so [`max_abs_diff_from_seq3d`]
//! replays the recurrence.

use crate::grid::{self, Grid2D, Grid3D};
use crate::kernel::{Example1, Kernel3D, Paper3D, LANES};

/// Run any 3-D wavefront kernel sequentially; returns the final grid.
pub fn run_seq3d<K: Kernel3D>(kernel: K, nx: usize, ny: usize, nz: usize, boundary: f32) -> Grid3D {
    let mut g = Grid3D::new(nx, ny, nz, 0.0, boundary);
    // A new grid is row-major, `k` fastest.
    let a = g.data_mut();
    let ext = |n: usize| 0..n as i64;
    let at = |i: i64, j: i64, k: i64| ((i * ny as i64 + j) * nz as i64 + k) as usize;
    let get = |a: &[f32], i: i64, j: i64, k: i64| match i >= 0 && j >= 0 && k >= 0 {
        true => a[at(i, j, k)],
        false => boundary,
    };
    for i in ext(nx) {
        for j in ext(ny) {
            for k in ext(nz) {
                let (im1, jm1, km1) = (
                    get(a, i - 1, j, k),
                    get(a, i, j - 1, k),
                    get(a, i, j, k - 1),
                );
                a[at(i, j, k)] = kernel.eval(i, j, k, im1, jm1, km1, get(a, i, j - 1, k - 1));
            }
        }
    }
    g
}

/// Pencils of one `i`-plane the verifier walks together.
const W: usize = 8;

/// `grid.max_abs_diff(&run_seq3d(kernel, ..))` over `grid`'s shape and
/// boundary, without materialising the reference: the same
/// cell-by-cell [`Kernel3D::eval`] recurrence needs only the `i`-plane
/// being computed and the one before it, and each finished plane is
/// compared with `grid`'s pencils (by [`Grid3D::max_abs_diff`]'s rule)
/// before it is overwritten. Verifying a result this way holds one
/// grid, not two.
///
/// A plane is swept `W` pencils at a time on the time `t = j + k`:
/// pencil `j0 + m` runs `m` cells behind pencil `j0 + m − 1`, so its
/// `(i, j − 1, k)` input is one step old and its `(i, j − 1, k − 1)`
/// diagonal two, the `W` `k`-chains of a step
/// are independent and the compiler vectorises them (the fill and drain
/// triangles, a last block of fewer than `W` pencils and `nz < W` go
/// cell by cell). Every cell is still one `eval` on the reference's
/// inputs, so the result is bit-identical. Nothing but
/// [`Kernel3D::eval`] is called: never the executors' kernels it judges.
pub fn max_abs_diff_from_seq3d<K: Kernel3D>(kernel: K, grid: &Grid3D) -> f32 {
    let (ny, nz, b) = (grid.ny(), grid.nz(), grid.boundary());
    // Planes of ny + 1 pencils: pencil 0 stays the boundary splat, the
    // `j − 1` neighbor of `j = 0`, and the plane before `i = 0` is all
    // boundary.
    let mut prev = vec![b; (ny + 1) * nz];
    let (mut cur, mut got) = (prev.clone(), vec![0.0; nz]);
    let mut worst = 0.0f32;
    for i in 0..grid.nx() as i64 {
        for j0 in (0..ny).step_by(W) {
            let w = W.min(ny - j0);
            let (done, block) = cur.split_at_mut((j0 + 1) * nz);
            // Lane m walks pencil j0 + m: `above` holds its `i − 1`
            // inputs, `left` is the finished pencil before lane 0, and a
            // lane's `j − 1` input is the cell lane m − 1 wrote at t − 1,
            // still in its carry; its diagonal is the cell lane m − 1
            // wrote at t − 2, kept in `older` (the boundary until then).
            let (left, above) = (&done[j0 * nz..], &prev[(j0 + 1) * nz..]);
            let by_cell = |t: usize, [carry, older]: &mut [[f32; W]; 2], block: &mut [f32]| {
                let before = *carry;
                // Highest lane first: lane m reads lane m − 1's carry
                // before this step overwrites it.
                for m in ((t + 1).saturating_sub(nz)..w.min(t + 1)).rev() {
                    let (jm1, diag) = match m {
                        0 => (left[t], if t == 0 { b } else { left[t - 1] }),
                        _ => (carry[m - 1], older[m - 1]),
                    };
                    let (j, k) = ((j0 + m) as i64, (t - m) as i64);
                    let im1 = above[m * nz + t - m];
                    carry[m] = kernel.eval(i, j, k, im1, jm1, carry[m], diag);
                    block[m * nz + t - m] = carry[m];
                }
                *older = before;
            };
            // The steps with all W lanes in flight; without any, the
            // fill triangle runs to the end.
            let (last, steady) = (nz + w - 1, w == W && nz >= W);
            let full = if steady { W - 1..nz } else { last..last };
            let mut chains = [[b; W]; 2];
            for t in 0..full.start {
                by_cell(t, &mut chains, block);
            }
            if !full.is_empty() {
                let n = full.len();
                let ins: [&[f32]; W] = std::array::from_fn(|m| &above[m * nz + W - 1 - m..][..n]);
                let mut rows = block.chunks_exact_mut(nz);
                #[allow(clippy::expect_used)] // LINT: a full block has W pencils
                let mut outs: [&mut [f32]; W] = std::array::from_fn(|m| {
                    &mut rows.next().expect("a full block has W pencils")[W - 1 - m..][..n]
                });
                let (lefts, left_diags) = (&left[W - 1..][..n], &left[W - 2..][..n]);
                let [mut carry, mut older] = chains;
                for s in 0..n {
                    let t = W - 1 + s;
                    let jm1: [f32; W] =
                        std::array::from_fn(|m| if m == 0 { lefts[s] } else { carry[m - 1] });
                    let diag: [f32; W] =
                        std::array::from_fn(|m| if m == 0 { left_diags[s] } else { older[m - 1] });
                    let im1: [f32; W] = std::array::from_fn(|m| ins[m][s]);
                    let next = std::array::from_fn(|m| {
                        let (j, k) = ((j0 + m) as i64, (t - m) as i64);
                        kernel.eval(i, j, k, im1[m], jm1[m], carry[m], diag[m])
                    });
                    (older, carry) = (carry, next);
                    for (out, &v) in outs.iter_mut().zip(&carry) {
                        out[s] = v;
                    }
                }
                chains = [carry, older];
            }
            for t in full.end..last {
                by_cell(t, &mut chains, block);
            }
        }
        for (j, want) in cur[nz..].chunks_exact(nz).enumerate() {
            grid.read_pencil(i as usize, j, 0, &mut got);
            let diff = grid::max_abs_diff(want.iter().copied(), got.iter().copied());
            worst = worst.max(diff);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    worst
}

/// Whether `grid` is, bit for bit, `run_seq3d(kernel, ..)` over its
/// shape and boundary, judged without running the recurrence: every
/// cell must be the bits of [`Kernel3D::eval`] on its *own* upstream
/// neighbours in `grid` (the boundary outside it, for `k = 0` and the
/// `i = 0` / `j = 0` edges), which the module docs show is the
/// reference.
///
/// No cell waits for another's result, so a pencil is one loop of
/// independent `eval`s whose mismatches are OR-ed together, which the
/// compiler vectorises. The grid is read in slabs of [`SLAB`] cells of
/// every pencil, gathered through the grid's layout with the cell below
/// in front (the boundary below `k = 0`), [`LANES`] `i`-planes at a
/// time: a distributed result interleaves the four pencils of a row
/// group, `(i0 + l, j)` of such a block, so their run is read once for
/// all four. Nothing but [`Kernel3D::eval`] is called:
/// never the executors' kernels it judges.
pub fn follows_recurrence<K: Kernel3D>(kernel: K, grid: &Grid3D) -> bool {
    let (nx, ny, nz, b) = (grid.nx(), grid.ny(), grid.nz(), grid.boundary());
    // A slab row: the cell below the slab, then the slab. The plane
    // before a block of LANES planes, then the block's planes.
    let h = 1 + SLAB.min(nz);
    let edge = vec![b; h];
    let (mut planes, mut miss) = (vec![vec![b; ny * h]; 1 + LANES], false);
    for k0 in (0..nz).step_by(SLAB) {
        let n = SLAB.min(nz - k0);
        // The first slab has no cell below it: its rows keep the
        // boundary there.
        let (from, at) = if k0 == 0 { (0, 1) } else { (k0 - 1, 0) };
        planes[0].fill(b);
        for i0 in (0..nx).step_by(LANES) {
            let w = LANES.min(nx - i0);
            // By row: a distributed result keeps the pencils
            // `(i0 + l, j)` of one as the lanes of one run.
            for j in 0..ny {
                if let [_, p0, p1, p2, p3] = &mut planes[..] {
                    let rows = [p0, p1, p2, p3].map(|plane| &mut plane[j * h..][at..=n]);
                    if w == LANES && grid.read_lanes((i0, j), from, rows) {
                        continue;
                    }
                }
                for l in 0..w {
                    let row = &mut planes[1 + l][j * h..][at..=n];
                    grid.read_pencil(i0 + l, j, from, row);
                }
            }
            for l in 0..w {
                let (above, plane) = (&planes[l], &planes[l + 1]);
                let (i, mut left) = ((i0 + l) as i64, &edge[..]);
                for ((j, own), up) in (0i64..)
                    .zip(plane.chunks_exact(h))
                    .zip(above.chunks_exact(h))
                {
                    let (cells, km1, im1) = (&own[1..][..n], &own[..n], &up[1..][..n]);
                    let (jm1, diag) = (&left[1..][..n], &left[..n]);
                    for k in 0..n {
                        let v = kernel.eval(i, j, (k0 + k) as i64, im1[k], jm1[k], km1[k], diag[k]);
                        miss |= v.to_bits() != cells[k].to_bits();
                    }
                    left = own;
                }
            }
            planes.swap(0, w);
        }
    }
    !miss
}

/// Cells of every pencil [`follows_recurrence`] checks in one pass.
const SLAB: usize = 512;

/// Run a 2-D wavefront kernel sequentially over an `nx × ny` strip
/// space, in its own row-major order: cell `(i, j)` is the kernel's
/// block cell `(0, j, i)`, whose `i−1` neighbour is outside the block
/// (see [`crate::kernel`]).
pub fn run_seq2d<K: Kernel3D>(kernel: K, nx: usize, ny: usize, boundary: f32) -> Grid2D {
    let mut g = Grid2D::new(nx, ny, 0.0, boundary);
    for i in 0..nx {
        for j in 0..ny {
            let (gi, gj) = (i as i64, j as i64);
            let (north, west, diag) = (g.get(gi - 1, gj), g.get(gi, gj - 1), g.get(gi - 1, gj - 1));
            g.set(i, j, kernel.eval(0, gj, gi, boundary, west, north, diag));
        }
    }
    g
}

/// Run the paper's 3-D kernel sequentially on an `nx × ny × nz` grid
/// with the given boundary value; returns the final grid.
pub fn run_paper3d_seq(nx: usize, ny: usize, nz: usize, boundary: f32) -> Grid3D {
    run_seq3d(Paper3D, nx, ny, nz, boundary)
}

/// Run the Example 1 kernel sequentially on an `nx × ny` grid.
pub fn run_example1_seq(nx: usize, ny: usize, boundary: f32) -> Grid2D {
    run_seq2d(Example1, nx, ny, boundary)
}

/// Measure `t_c` the way the paper did (§5): run a batch of kernel
/// iterations on one core and divide wall time by the iteration count.
/// Returns microseconds per iteration.
pub fn measure_t_c_paper3d(iterations: usize) -> f64 {
    assert!(iterations > 0);
    let n = (iterations as f64).cbrt().ceil() as usize;
    let start = std::time::Instant::now();
    let g = run_paper3d_seq(n, n, n, 1.0);
    let elapsed = start.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(g.get(0, 0, 0));
    elapsed / (n * n * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Alignment2D, Fused3D, LongestPath3D, Relax3D, Smooth2D};
    use proptest::prelude::*;

    /// On a correct grid, on one with a cell moved and on one with a
    /// NaN in it, the rolling comparison says what the whole-grid one
    /// does (same bits: 0, a distance, or ∞).
    fn rolling_diff_matches<K: Kernel3D>(k: K, shape: (usize, usize, usize), b: f32, at: usize) {
        let (nx, ny, nz) = shape;
        let reference = run_seq3d(k, nx, ny, nz, b);
        let (i, j, z) = (at / (ny * nz), at / nz % ny, at % nz);
        let mut g = reference.clone();
        for wrong in [
            None,
            Some(g.get(i as i64, j as i64, z as i64) + 0.75),
            Some(f32::NAN),
        ] {
            if let Some(v) = wrong {
                g.set(i, j, z, v);
            }
            let want = g.max_abs_diff(&reference);
            let got = max_abs_diff_from_seq3d(k, &g);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{shape:?} cell {at} = {wrong:?}"
            );
            assert_eq!(got == 0.0, wrong.is_none());
        }
    }

    proptest! {
        // ny up to 20 and nz up to 40: full 8-pencil blocks, a ragged
        // last block and nz < 8 all occur.
        #[test]
        fn rolling_planes_compare_like_the_whole_reference(
            shape in (1usize..=3, 1usize..=20, 1usize..=40),
            boundary in 0.0f32..4.0,
            cell in 0usize..3 * 20 * 40,
        ) {
            let at = cell % (shape.0 * shape.1 * shape.2);
            rolling_diff_matches(Paper3D, shape, boundary, at);
            rolling_diff_matches(Relax3D::default(), shape, boundary, at);
            rolling_diff_matches(LongestPath3D, shape, boundary, at);
            rolling_diff_matches(Fused3D::default(), shape, boundary, at);
            rolling_diff_matches(Example1, shape, boundary, at);
            rolling_diff_matches(Alignment2D { alphabet: 2 }, shape, boundary, at);
        }
    }

    /// `follows_recurrence` passes a grid exactly when its bits are
    /// `run_seq3d`'s: the reference itself, and the reference with one
    /// cell shifted, NaN, one ULP off or of flipped sign (so ±0.0 on a
    /// zero-boundary grid, which `max_abs_diff` reads as equal).
    fn certifies_only_the_reference<K: Kernel3D>(
        k: K,
        shape: (usize, usize, usize),
        b: f32,
        at: usize,
    ) {
        let (nx, ny, nz) = shape;
        let reference = run_seq3d(k, nx, ny, nz, b);
        let bits = |g: &Grid3D| g.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (i, j, z) = (at / (ny * nz), at / nz % ny, at % nz);
        let v = reference.get(i as i64, j as i64, z as i64);
        for wrong in [v, v + 0.75, f32::NAN, f32::from_bits(v.to_bits() ^ 1), -v] {
            let mut g = reference.clone();
            g.set(i, j, z, wrong);
            let want = bits(&g) == bits(&reference);
            let got = follows_recurrence(k, &g);
            assert_eq!(got, want, "{shape:?} boundary {b} cell {at} = {wrong:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // Unit and ragged extents on every axis; a zero boundary a
        // third of the time.
        #[test]
        fn a_grid_follows_the_recurrence_iff_it_is_the_reference(
            shape in (1usize..=3, 1usize..=9, 1usize..=17),
            boundary in prop_oneof![Just(0.0f32), -2.0f32..4.0, 0.0f32..4.0],
            cell in 0usize..3 * 9 * 17,
        ) {
            let at = cell % (shape.0 * shape.1 * shape.2);
            certifies_only_the_reference(Paper3D, shape, boundary, at);
            certifies_only_the_reference(Relax3D::default(), shape, boundary, at);
            certifies_only_the_reference(LongestPath3D, shape, boundary, at);
            certifies_only_the_reference(Fused3D::default(), shape, boundary, at);
            certifies_only_the_reference(Example1, shape, boundary, at);
            certifies_only_the_reference(Alignment2D { alphabet: 2 }, shape, boundary, at);
            certifies_only_the_reference(Smooth2D::default(), shape, boundary, at);
        }
    }

    /// A distributed result, in the sweep's layout, is checked through
    /// it: its cells pass, and any one cell off fails — on the edges of
    /// a block, of a lane group (four lanes read as one run, or fewer)
    /// and of a slab.
    #[test]
    fn a_distributed_result_is_checked_through_its_layout() {
        use crate::dist3d::{run_dist3d_with, Decomp3D, ExecMode};
        use msgpass::thread_backend::{LatencyModel, WorldConfig};
        let d = Decomp3D {
            nx: 9,
            ny: 10,
            nz: 2 * SLAB + 7,
            pi: 1,
            pj: 2,
            v: 100,
            boundary: 1.5,
        };
        let cfg = WorldConfig::new(LatencyModel::zero());
        let (grid, _, _) = run_dist3d_with(Paper3D, d, &cfg, ExecMode::Overlapping).expect("valid");
        assert!(follows_recurrence(Paper3D, &grid));
        let last = d.nz - 1;
        let cells = [
            (0, 0, 0),
            (3, 2, SLAB - 1),
            (2, 7, SLAB),
            (5, 6, last),
            (8, 9, last),
        ];
        for (i, j, k) in cells {
            let mut off = grid.clone();
            off.set(i, j, k, grid.get(i as i64, j as i64, k as i64) + 0.25);
            assert!(!follows_recurrence(Paper3D, &off), "({i}, {j}, {k})");
        }
    }

    #[test]
    fn paper3d_small_values() {
        // Boundary 1.0: A(0,0,0) = 3·√1 = 3.
        let g = run_paper3d_seq(2, 2, 2, 1.0);
        assert_eq!(g.get(0, 0, 0), 3.0);
        // A(0,0,1) = √1 + √1 + √3.
        assert_eq!(g.get(0, 0, 1), 2.0 + 3.0f32.sqrt());
    }

    #[test]
    fn paper3d_zero_boundary_is_all_zero() {
        let g = run_paper3d_seq(3, 3, 3, 0.0);
        assert!(g.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn example1_small_values() {
        // Boundary 4.0: A(0,0) = 0.25·(4+4+4) = 3.
        let g = run_example1_seq(2, 2, 4.0);
        assert_eq!(g.get(0, 0), 3.0);
        assert_eq!(g.get(0, 1), 2.75);
        assert_eq!(g.get(1, 1), 0.25 * (3.0 + 2.75 + 2.75));
    }

    #[test]
    fn values_stay_finite() {
        let g = run_paper3d_seq(8, 8, 32, 1.0);
        assert!(g.data().iter().all(|x| x.is_finite()));
        let g2 = run_example1_seq(64, 64, 1.0);
        assert!(g2.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn t_c_measurement_positive() {
        let t = measure_t_c_paper3d(1000);
        assert!(t > 0.0 && t < 1e4, "t_c = {t} µs");
    }

    #[test]
    fn relax3d_contracts_towards_zero() {
        let g = run_seq3d(Relax3D::default(), 4, 4, 32, 1.0);
        // Deep in the sweep the value has decayed well below boundary.
        assert!(g.get(3, 3, 31) < 1.0);
        assert!(g.data().iter().all(|x| x.is_finite() && *x >= 0.0));
    }

    #[test]
    fn longest_path_is_monotone_along_axes() {
        let g = run_seq3d(LongestPath3D, 4, 4, 8, 0.0);
        // Path scores never decrease along k (each step adds ≥ 0).
        for k in 1..8 {
            assert!(g.get(3, 3, k) >= g.get(3, 3, k - 1));
        }
    }

    #[test]
    fn alignment_scores_are_plausible_lcs() {
        // With alphabet 1, every cell matches: score = min(i, j) + 1
        // (classical LCS of identical sequences).
        let g = run_seq2d(Alignment2D { alphabet: 1 }, 6, 9, 0.0);
        for i in 0..6i64 {
            for j in 0..9i64 {
                assert_eq!(g.get(i, j), (i.min(j) + 1) as f32, "({i},{j})");
            }
        }
    }

    #[test]
    fn a_strip_is_its_unit_axis_block() {
        for (nx, ny) in [(1, 1), (7, 3), (20, 9)] {
            let block = |k| Grid2D::from_block(&run_seq3d(k, 1, ny, nx, 1.5));
            let want = run_example1_seq(nx, ny, 1.5);
            assert_eq!(block(Example1), want, "{nx}x{ny}");
        }
    }

    #[test]
    fn smooth2d_decays() {
        let g = run_seq2d(Smooth2D::default(), 16, 16, 1.0);
        assert!(g.get(15, 15) < g.get(0, 0));
    }
}
