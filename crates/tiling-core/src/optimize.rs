//! Tile-size and tile-shape optimization.
//!
//! The paper tunes the grain `g` experimentally (§5): for a fixed tile
//! cross-section it sweeps the *tile height* `V` (the size along the
//! processor-mapping dimension) and picks the `V` minimizing completion
//! time, separately for the overlapping and non-overlapping schedules.
//! This module provides that sweep over the *analytical* cost models
//! (the simulator-driven sweep lives in the bench harness) plus a
//! communication-minimal rectangular shape search for a given volume
//! (the Boulet et al. / Xue result specialized to rectangular tiles).

use crate::dependence::DependenceSet;
use crate::machine::MachineParams;
use crate::schedule::{OverlapMode, StepStrategy, TileSchedule};
use crate::space::IterationSpace;
use crate::tiling::Tiling;

/// One row of a tile-height sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Tile height `V` along the mapping dimension.
    pub v: i64,
    /// Tile volume `g`.
    pub g: i64,
    times: Times,
}

impl SweepPoint {
    /// Predicted completion time (µs) under `strategy`.
    pub fn total_us(&self, strategy: StepStrategy) -> f64 {
        self.times.of(strategy)
    }
}

/// Predicted completion times (µs) of one tiling, one per strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Times([f64; 2]);

impl Times {
    /// The times of `tiling` under both strategies.
    fn of_tiling(
        tiling: &Tiling,
        deps: &DependenceSet,
        space: &IterationSpace,
        machine: &MachineParams,
        mapping_dim: usize,
        mode: OverlapMode,
    ) -> Self {
        Times(STRATEGIES.map(|strategy| {
            TileSchedule::with_mapping(strategy, space.dims(), mapping_dim)
                .analyze(tiling, deps, space, machine, mode)
                .total_us
        }))
    }

    fn of(&self, strategy: StepStrategy) -> f64 {
        match strategy {
            StepStrategy::Blocking => self.0[0],
            StepStrategy::Overlap => self.0[1],
        }
    }
}

/// Both strategies, in the order [`Times`] holds them.
const STRATEGIES: [StepStrategy; 2] = [StepStrategy::Blocking, StepStrategy::Overlap];

/// Sweep the tile height `V` for a paper-style rectangular tiling: the
/// cross-section sides are fixed (one tile column per processor) and `V`
/// ranges over `heights`. Returns one [`SweepPoint`] per height.
///
/// `mapping_dim` is the dimension `V` extends along (the paper's `k`).
pub fn sweep_tile_height(
    space: &IterationSpace,
    deps: &DependenceSet,
    machine: &MachineParams,
    cross_section: &[i64],
    mapping_dim: usize,
    heights: &[i64],
    mode: OverlapMode,
) -> Vec<SweepPoint> {
    assert_eq!(cross_section.len() + 1, space.dims(), "cross-section arity");
    let mut out = Vec::with_capacity(heights.len());
    for &v in heights {
        assert!(v > 0, "tile height must be positive");
        let mut sides = Vec::with_capacity(space.dims());
        let mut ci = 0;
        for d in 0..space.dims() {
            if d == mapping_dim {
                sides.push(v);
            } else {
                sides.push(cross_section[ci]);
                ci += 1;
            }
        }
        let tiling = Tiling::rectangular(&sides);
        let times = Times::of_tiling(&tiling, deps, space, machine, mapping_dim, mode);
        out.push(SweepPoint {
            v,
            g: tiling.volume(),
            times,
        });
    }
    out
}

/// The sweep point with the minimum completion time under `strategy`
/// (the first of equal ones).
pub fn best(points: &[SweepPoint], strategy: StepStrategy) -> Option<&SweepPoint> {
    let us = |p: &SweepPoint| p.total_us(strategy);
    points.iter().min_by(|a, b| us(a).total_cmp(&us(b)))
}

/// Divisor-based candidate heights for a sweep: all divisors of
/// `extent / min_tiles` style ranges are overkill; the paper sweeps V
/// from `lo` to `extent / procs`. This helper returns a geometric-ish
/// ladder of heights in `[lo, hi]`, always including both endpoints.
pub fn height_ladder(lo: i64, hi: i64, steps: usize) -> Vec<i64> {
    assert!(lo >= 1 && hi >= lo && steps >= 2, "bad ladder parameters");
    let mut out = Vec::with_capacity(steps);
    let ratio = (hi as f64 / lo as f64).powf(1.0 / (steps - 1) as f64);
    let mut prev = 0;
    for i in 0..steps {
        let v = ((lo as f64) * ratio.powi(i as i32)).round() as i64;
        let v = v.clamp(lo, hi);
        if v != prev {
            out.push(v);
            prev = v;
        }
    }
    if out.last() != Some(&hi) {
        out.push(hi);
    }
    out
}

/// Enumerate all ordered factorizations of `volume` into `dims` positive
/// factors (rectangular tile shapes of a given volume).
pub fn rectangular_shapes(volume: i64, dims: usize) -> Vec<Vec<i64>> {
    assert!(volume > 0 && dims > 0);
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(dims);
    fn rec(rem: i64, dims_left: usize, cur: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        if dims_left == 1 {
            cur.push(rem);
            out.push(cur.clone());
            cur.pop();
            return;
        }
        let mut f = 1;
        while f <= rem {
            if rem % f == 0 {
                cur.push(f);
                rec(rem / f, dims_left - 1, cur, out);
                cur.pop();
            }
            f += 1;
        }
    }
    rec(volume, dims, &mut cur, &mut out);
    out
}

/// Find the rectangular tile shape of exactly `volume` points minimizing
/// the mapped communication volume (formula (2)) for the given
/// dependences and mapping dimension. Ties break towards the shape with
/// the largest extent along the mapping dimension (fewer messages).
pub fn min_comm_rectangular_shape(
    volume: i64,
    deps: &DependenceSet,
    mapping_dim: usize,
) -> Option<(Vec<i64>, i64)> {
    let dims = deps.dims();
    let mut best: Option<(Vec<i64>, i64)> = None;
    for shape in rectangular_shapes(volume, dims) {
        let tiling = Tiling::rectangular(&shape);
        if !tiling.is_legal(deps) {
            continue;
        }
        let comm = crate::cost::v_comm_mapped(&tiling, deps, mapping_dim);
        let better = match &best {
            None => true,
            Some((bs, bc)) => comm < *bc || (comm == *bc && shape[mapping_dim] > bs[mapping_dim]),
        };
        if better {
            best = Some((shape, comm));
        }
    }
    best
}

/// A tiling recommendation produced by [`best_rectangular_plan`].
#[derive(Clone, Debug)]
pub struct TilingPlan {
    /// The chosen tile sides.
    pub sides: Vec<i64>,
    times: Times,
}

impl TilingPlan {
    /// Predicted completion time (µs) of the chosen shape under
    /// `strategy`.
    pub fn total_us(&self, strategy: StepStrategy) -> f64 {
        self.times.of(strategy)
    }
}

/// The Hodzic–Shang planning step (§3): given a tile *volume* `g`
/// (e.g. from `g = c·t_s/t_c`), choose the rectangular tile *shape*
/// minimizing the predicted **total completion time** — not the per-tile
/// communication alone, which would degenerate to needle-shaped tiles
/// that explode the hyperplane count. Shapes that cannot contain the
/// dependences are skipped. Returns `None` if no shape of volume `g`
/// is feasible.
///
/// The paper's Example 1 chooses square 10×10 tiles at `g = 100`; this
/// procedure recovers that choice from the cost model.
pub fn best_rectangular_plan(
    space: &IterationSpace,
    deps: &DependenceSet,
    machine: &MachineParams,
    g: i64,
    mapping_dim: usize,
    mode: OverlapMode,
) -> Option<TilingPlan> {
    let mut best: Option<TilingPlan> = None;
    for sides in rectangular_shapes(g, space.dims()) {
        if sides
            .iter()
            .zip(space.extents().iter())
            .any(|(&s, &e)| s > e)
        {
            continue;
        }
        let tiling = Tiling::rectangular(&sides);
        if !tiling.contains_dependences(deps) {
            continue;
        }
        let times = Times::of_tiling(&tiling, deps, space, machine, mapping_dim, mode);
        let blocking = |t: &Times| t.of(StepStrategy::Blocking);
        if best
            .as_ref()
            .is_none_or(|b| blocking(&times) < blocking(&b.times))
        {
            best = Some(TilingPlan { sides, times });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_setup() -> (IterationSpace, DependenceSet, MachineParams) {
        (
            IterationSpace::from_extents(&[16, 16, 16384]),
            DependenceSet::paper_3d(),
            MachineParams::paper_cluster(),
        )
    }

    #[test]
    fn sweep_runs_and_is_u_shaped_for_overlap() {
        let (space, deps, machine) = paper_setup();
        let heights: Vec<i64> = vec![4, 16, 64, 256, 1024, 4096];
        let pts = sweep_tile_height(
            &space,
            &deps,
            &machine,
            &[4, 4],
            2,
            &heights,
            OverlapMode::Serialized,
        );
        assert_eq!(pts.len(), heights.len());
        // Extremes are worse than the middle (U shape).
        let ov = |p: &SweepPoint| p.total_us(StepStrategy::Overlap);
        let best = best(&pts, StepStrategy::Overlap).unwrap();
        assert!(best.v > 4 && best.v < 4096, "best at V={}", best.v);
        assert!(ov(&pts[0]) > ov(best));
        assert!(ov(pts.last().unwrap()) > ov(best));
    }

    #[test]
    fn overlap_beats_nonoverlap_at_their_respective_optima() {
        let (space, deps, machine) = paper_setup();
        let heights = height_ladder(4, 4096, 40);
        let pts = sweep_tile_height(
            &space,
            &deps,
            &machine,
            &[4, 4],
            2,
            &heights,
            OverlapMode::Serialized,
        );
        let [bn, bo] = STRATEGIES.map(|s| best(&pts, s).unwrap().total_us(s));
        assert!(bo < bn, "overlap {bo} vs nonoverlap {bn}");
    }

    #[test]
    fn height_ladder_endpoints_and_monotonic() {
        let l = height_ladder(4, 4096, 12);
        assert_eq!(*l.first().unwrap(), 4);
        assert_eq!(*l.last().unwrap(), 4096);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn height_ladder_degenerate_range() {
        let l = height_ladder(5, 5, 4);
        assert_eq!(l, vec![5]);
    }

    #[test]
    fn rectangular_shapes_cover_all_factorizations() {
        let shapes = rectangular_shapes(12, 2);
        assert_eq!(shapes.len(), 6); // (1,12),(2,6),(3,4),(4,3),(6,2),(12,1)
        assert!(shapes.contains(&vec![3, 4]));
        for s in &shapes {
            assert_eq!(s.iter().product::<i64>(), 12);
        }
    }

    #[test]
    fn min_comm_shape_prefers_square_for_symmetric_deps() {
        // For D = {e1, e2} and mapping along 0, comm = volume/side_1 ·
        // (dep across dim 1)… minimizing means maximizing side 1:
        // shape (1, 100) has zero crossings of dim-1? No: comm along
        // dim 1 = det·h_2·e2 = side_0 · 1. Minimizing side_0 ⇒ (1,100).
        let deps = DependenceSet::units(2);
        let (shape, comm) = min_comm_rectangular_shape(100, &deps, 0).unwrap();
        assert_eq!(shape, vec![1, 100]);
        assert_eq!(comm, 1);
    }

    #[test]
    fn min_comm_shape_square_when_both_dims_cost() {
        // Mapping along dim 0 but deps {e2} only: any shape has comm =
        // side_0; best is side_0 = 1. With deps {e1,e2} and *no* mapping
        // exclusion we'd want square — emulate by measuring total comm.
        let deps = DependenceSet::units(2);
        let mut best: Option<(Vec<i64>, i64)> = None;
        for shape in rectangular_shapes(36, 2) {
            let t = Tiling::rectangular(&shape);
            let c = crate::cost::v_comm_total(&t, &deps);
            if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                best = Some((shape, c));
            }
        }
        // Total (unmapped) comm of shape (a,b): a + b; minimized at 6×6.
        assert_eq!(best.unwrap().0, vec![6, 6]);
    }

    #[test]
    fn plan_example_1_beats_paper_square_tiles() {
        // Example 1: g = c·t_s/t_c = 100. The paper "optimally" chooses
        // square 10×10 tiles (0.4 s), but exhaustive shape search under
        // its own cost model (eq. 3) finds 25×4 at ~0.30 s: the flatter
        // tile trades a little communication volume for 450 fewer
        // hyperplanes. The square heuristic from [4] optimizes relative
        // sides against dependences, not the boundary-aware total time.
        let machine = MachineParams::example_1();
        let deps = DependenceSet::example_1();
        let space = IterationSpace::from_extents(&[10_000, 1_000]);
        let g = crate::schedule::nonoverlap::optimal_g_hodzic_shang(&machine, 1) as i64;
        assert_eq!(g, 100);
        let plan = best_rectangular_plan(&space, &deps, &machine, g, 0, OverlapMode::DuplexDma)
            .expect("feasible shapes exist");
        // Strictly better than the paper's square choice…
        assert!(
            plan.total_us(StepStrategy::Blocking) < 400_036.0,
            "{plan:?}"
        );
        // …and needle shapes were correctly rejected by total time.
        assert!(plan.sides.iter().all(|&s| s >= 2), "{plan:?}");
        // The square itself evaluates to exactly the paper's number.
        let square = Tiling::rectangular(&[10, 10]);
        let times = Times::of_tiling(&square, &deps, &space, &machine, 0, OverlapMode::DuplexDma);
        assert!((times.of(StepStrategy::Blocking) - 400_036.0).abs() < 1.0);
    }

    #[test]
    fn plan_skips_shapes_that_cannot_contain_deps() {
        // Volume 4 with deps (1,1): 1×4 and 4×1 can't contain the
        // diagonal; only 2×2 qualifies.
        let machine = MachineParams::example_1();
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 1]]);
        let space = IterationSpace::from_extents(&[16, 16]);
        let plan = best_rectangular_plan(&space, &deps, &machine, 4, 0, OverlapMode::Serialized)
            .expect("2×2 feasible");
        assert_eq!(plan.sides, vec![2, 2]);
    }

    #[test]
    fn plan_none_when_infeasible() {
        // Volume 2 cannot contain (1,1) in any orientation.
        let machine = MachineParams::example_1();
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 1]]);
        let space = IterationSpace::from_extents(&[16, 16]);
        assert!(
            best_rectangular_plan(&space, &deps, &machine, 2, 0, OverlapMode::Serialized).is_none()
        );
    }

    #[test]
    fn sweep_g_scales_with_v() {
        let (space, deps, machine) = paper_setup();
        let pts = sweep_tile_height(
            &space,
            &deps,
            &machine,
            &[4, 4],
            2,
            &[10, 20],
            OverlapMode::Serialized,
        );
        assert_eq!(pts[0].g, 160);
        assert_eq!(pts[1].g, 320);
    }
}
