//! Closed-form optimal tile height — the paper's §6 open problem.
//!
//! The paper tunes `g` experimentally and notes: *"What remains open is
//! an analytical expression for `A_i(g)` and `B_i(g)` so that we can
//! calculate `g_optimal` from the parallel architecture's internal
//! characteristics (`t_c`, `t_t`) and MPI internal communication
//! latencies."* With the affine buffer-fill model
//! (`T_fill(bytes) = base + slope·bytes`) that this library calibrates
//! from the paper's measurements, the expression exists:
//!
//! For a paper-style layout (fixed tile cross-section, height `V` along
//! the mapping dimension, messages affine in `V`), both schedules' total
//! time has the form
//!
//! ```text
//! T(V) = (γ + K/V) · (α + β·V)
//!      = γα + Kβ + γβ·V + Kα/V,
//! ```
//!
//! where `γ` is the cross-section contribution to the number of
//! hyperplanes, `K/V` the pipeline depth, `α` the V-independent per-step
//! cost (startup/posting bases) and `β` the per-V-unit per-step cost
//! (computation plus per-byte copies). Setting `T′(V) = 0`:
//!
//! ```text
//! V* = √( K·α / (γ·β) ).
//! ```
//!
//! [`optimal_v`] extracts `(γ, K, α, β)` for a [`StepStrategy`] — `γ`
//! from its cross coefficient, `α + β·V` from its step price — and
//! returns `V*` together with the model prediction, so `g_optimal =
//! cross_section · V*` is computed purely from machine parameters — no
//! sweep.

use crate::dependence::DependenceSet;
use crate::machine::MachineParams;
use crate::mapping::{neighbor_messages, ProcessorMapping};
use crate::schedule::StepStrategy;
use crate::space::IterationSpace;
use crate::tiling::Tiling;

/// The fitted per-step cost model `α + β·V` plus the plane model
/// `γ + K/V`, and the resulting optimum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClosedForm {
    /// V-independent per-step cost (µs).
    pub alpha: f64,
    /// Per-V-unit per-step cost (µs).
    pub beta: f64,
    /// Cross-section plane contribution (hyperplanes).
    pub gamma: f64,
    /// Extent along the mapping dimension (pipeline volume).
    pub k_extent: f64,
    /// The real-valued optimal tile height `V* = √(K·α/(γ·β))`.
    pub v_star: f64,
}

impl ClosedForm {
    /// Predicted total time at height `v` (µs): `(γ + K/v)(α + β·v)`.
    pub fn predict_us(&self, v: f64) -> f64 {
        assert!(v > 0.0, "tile height must be positive");
        (self.gamma + self.k_extent / v) * (self.alpha + self.beta * v)
    }

    /// Predicted total time at the optimum (µs).
    pub fn optimum_us(&self) -> f64 {
        self.predict_us(self.v_star.max(1.0))
    }

    /// The best *integer* height among `⌊V*⌋` and `⌈V*⌉` (clamped ≥ 1).
    pub fn v_star_integer(&self) -> i64 {
        let lo = (self.v_star.floor().max(1.0)) as i64;
        let hi = lo + 1;
        if self.predict_us(lo as f64) <= self.predict_us(hi as f64) {
            lo
        } else {
            hi
        }
    }

    /// The integer optimum clamped to a legal height `[1, extent]` —
    /// what a plan can actually run with.
    pub fn v_star_clamped(&self, extent: usize) -> usize {
        let v = self.v_star_integer().max(1) as usize;
        v.min(extent.max(1))
    }

    /// Predicted total time at *integer* height `v` with the discrete
    /// step count `⌈K/v⌉` (µs). The continuous model smooths the
    /// staircase away; at small step counts the partial last tile makes
    /// the two disagree, which is exactly where a measured-feedback
    /// tuner can beat `V*`.
    pub fn predict_us_discrete(&self, v: usize) -> f64 {
        assert!(v > 0, "tile height must be positive");
        let steps = (self.k_extent / v as f64).ceil();
        (self.gamma + steps) * (self.alpha + self.beta * v as f64)
    }

    /// Candidate tile heights around the optimum: a geometric ladder
    /// `V*/4 … 4·V*` plus, for each step count the ladder reaches, the
    /// smallest height achieving it (`⌈K/s⌉`). The step-aligned heights
    /// eliminate the partial last tile the continuous formula ignores.
    /// All heights are clamped to `[1, extent]`, sorted, deduplicated.
    pub fn v_ladder(&self, extent: usize) -> Vec<usize> {
        let extent = extent.max(1);
        let vs = self.v_star_integer().max(1) as f64;
        let mut out: Vec<usize> = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0]
            .iter()
            .map(|f| ((vs * f).round().max(1.0) as usize).min(extent))
            .collect();
        let k = (self.k_extent.max(1.0)) as usize;
        for v in out.clone() {
            let s = k.div_ceil(v);
            for s in [s.saturating_sub(1).max(1), s, s + 1] {
                out.push(k.div_ceil(s).clamp(1, extent));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Fit the affine per-step message cost at two sample heights: returns
/// the per-neighbor-message byte model summed over messages,
/// `(bytes₀, bytes_per_v)` with `bytes(V) = bytes₀ + bytes_per_v·V`
/// per message list. A sample tile whose volume (the product of its
/// sides) overflows `i64` has no byte model: one NaN message,
/// which makes `V*` and every prediction of the closed forms NaN.
fn message_byte_model(
    deps: &DependenceSet,
    machine: &MachineParams,
    cross_section: &[i64],
    mapping_dim: usize,
) -> Vec<(f64, f64)> {
    // Sample heights large enough to contain any dependence component.
    let (v1, v2) = (64, 128);
    let volume = |v: i64| {
        cross_section
            .iter()
            .try_fold(v, |p: i64, &s| p.checked_mul(s))
    };
    if volume(v2).is_none() {
        return vec![(f64::NAN, f64::NAN)];
    }
    let dims = cross_section.len() + 1;
    let build = |v: i64| {
        let mut sides = Vec::with_capacity(dims);
        let mut ci = 0;
        for d in 0..dims {
            if d == mapping_dim {
                sides.push(v);
            } else {
                sides.push(cross_section[ci]);
                ci += 1;
            }
        }
        Tiling::rectangular(&sides)
    };
    let mapping = ProcessorMapping::along(dims, mapping_dim);
    let m1 = neighbor_messages(&build(v1), deps, &mapping);
    let m2 = neighbor_messages(&build(v2), deps, &mapping);
    assert_eq!(
        m1.len(),
        m2.len(),
        "message structure must not change with V"
    );
    let b = f64::from(machine.bytes_per_elem);
    m1.iter()
        .zip(&m2)
        .map(|(a, c)| {
            assert_eq!(a.processor_offset, c.processor_offset);
            let slope = (c.volume_points - a.volume_points) as f64 / (v2 - v1) as f64;
            let base = a.volume_points as f64 - slope * v1 as f64;
            (base * b, slope * b)
        })
        .collect()
}

/// Plane-model constants `(γ, K)` for a schedule whose cross-section
/// hyperplane coefficient is `coeff` on a paper-style layout.
fn plane_model(
    space: &IterationSpace,
    cross_section: &[i64],
    mapping_dim: usize,
    coeff: f64,
) -> (f64, f64) {
    let mut gamma = 1.0; // the +1 of the makespan
    let mut ci = 0;
    for d in 0..space.dims() {
        if d == mapping_dim {
            continue;
        }
        let tiles = (space.extent(d) as f64 / cross_section[ci] as f64).ceil();
        gamma += coeff * (tiles - 1.0);
        ci += 1;
    }
    // ceil(K/V) ≈ K/V (continuous model); the −1 +1 of the mapping
    // dimension cancels into K/V.
    (gamma, space.extent(mapping_dim) as f64)
}

/// Closed-form optimum under `strategy`. The per-step cost `α + β·V` is
/// the lane that paces the step: the whole serialized step under
/// Blocking (eq. 3, a byte-dependent startup `T_fill_MPI +
/// T_fill_kernel` per side plus the wire), the CPU lane under Overlap
/// (eq. 5, case 1 — the paper's measured regime). `cross_section` are
/// the tile sides in the non-mapping dimensions (one tile column per
/// processor).
pub fn optimal_v(
    strategy: StepStrategy,
    space: &IterationSpace,
    deps: &DependenceSet,
    machine: &MachineParams,
    cross_section: &[i64],
    mapping_dim: usize,
) -> ClosedForm {
    let msgs = message_byte_model(deps, machine, cross_section, mapping_dim);
    let mut alpha = 0.0;
    let mut beta = 0.0;
    for &(b0, b1) in &msgs {
        let (a, b) = strategy.message_terms(machine, b0, b1);
        alpha += a;
        beta += b;
    }
    // Plus the computation c·t_c·V, c the cross-section point count.
    let cross_points: i64 = cross_section.iter().product();
    beta += cross_points as f64 * machine.t_c_us;
    let coeff = strategy.cross_coeff() as f64;
    let (gamma, k_extent) = plane_model(space, cross_section, mapping_dim, coeff);
    let v_star = (k_extent * alpha / (gamma * beta)).sqrt();
    ClosedForm {
        alpha,
        beta,
        gamma,
        k_extent,
        v_star,
    }
}

/// [`optimal_v`] under [`StepStrategy::Overlap`].
pub fn overlap_optimal_v(
    space: &IterationSpace,
    deps: &DependenceSet,
    machine: &MachineParams,
    cross_section: &[i64],
    mapping_dim: usize,
) -> ClosedForm {
    optimal_v(
        StepStrategy::Overlap,
        space,
        deps,
        machine,
        cross_section,
        mapping_dim,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::{best, sweep_tile_height};
    use crate::schedule::OverlapMode;

    fn paper_setup() -> (IterationSpace, DependenceSet, MachineParams) {
        (
            IterationSpace::from_extents(&[16, 16, 16384]),
            DependenceSet::paper_3d(),
            MachineParams::paper_cluster(),
        )
    }

    #[test]
    fn a_cross_section_too_large_to_tile_has_no_closed_form() {
        let (space, deps, machine) = paper_setup();
        let cross = [1 << 28, 1 << 29]; // × 128 overflows i64
        let undefined = |cf: ClosedForm| cf.v_star.is_nan() && cf.predict_us(4.0).is_nan();
        for strategy in [StepStrategy::Blocking, StepStrategy::Overlap] {
            assert!(undefined(optimal_v(
                strategy, &space, &deps, &machine, &cross, 2
            )));
        }
    }

    #[test]
    fn overlap_closed_form_matches_sweep_minimum() {
        let (space, deps, machine) = paper_setup();
        let cf = overlap_optimal_v(&space, &deps, &machine, &[4, 4], 2);
        // Dense sweep around the prediction.
        let heights: Vec<i64> = (1..=60).map(|i| i * 10).collect();
        let pts = sweep_tile_height(
            &space,
            &deps,
            &machine,
            &[4, 4],
            2,
            &heights,
            OverlapMode::Serialized,
        );
        let ov = StepStrategy::Overlap;
        let best = best(&pts, ov).unwrap();
        // The valley is flat around the optimum and the sweep model
        // carries a ⌈K/V⌉ staircase the continuous formula smooths over,
        // so compare *times*, not heights: running at the closed-form V
        // must be within a couple percent of the sweep's best.
        let at_cf = sweep_tile_height(
            &space,
            &deps,
            &machine,
            &[4, 4],
            2,
            &[cf.v_star_integer()],
            OverlapMode::Serialized,
        )[0]
        .total_us(ov);
        let best_us = best.total_us(ov);
        assert!(
            (at_cf - best_us) / best_us < 0.03,
            "time at closed-form V {at_cf} vs sweep best {best_us}"
        );
        // The height itself lands in the right neighborhood.
        assert!(
            (cf.v_star - best.v as f64).abs() / best.v as f64 <= 0.35,
            "closed form {} vs sweep {}",
            cf.v_star,
            best.v
        );
        // And the continuous prediction is close to the analytic model.
        assert!(
            (cf.optimum_us() - best_us).abs() / best_us < 0.05,
            "{} vs {best_us}",
            cf.optimum_us()
        );
    }

    #[test]
    fn nonoverlap_closed_form_matches_sweep_minimum() {
        let (space, deps, machine) = paper_setup();
        let cf = optimal_v(StepStrategy::Blocking, &space, &deps, &machine, &[4, 4], 2);
        let heights: Vec<i64> = (1..=80).map(|i| i * 10).collect();
        let pts = sweep_tile_height(
            &space,
            &deps,
            &machine,
            &[4, 4],
            2,
            &heights,
            OverlapMode::Serialized,
        );
        let blocking = StepStrategy::Blocking;
        let best = best(&pts, blocking).unwrap();
        let at_cf = sweep_tile_height(
            &space,
            &deps,
            &machine,
            &[4, 4],
            2,
            &[cf.v_star_integer()],
            OverlapMode::Serialized,
        )[0]
        .total_us(blocking);
        let best_us = best.total_us(blocking);
        assert!(
            (at_cf - best_us) / best_us < 0.03,
            "time at closed-form V {at_cf} vs sweep best {best_us}"
        );
        assert!(
            (cf.v_star - best.v as f64).abs() / best.v as f64 <= 0.35,
            "closed form {} vs sweep {}",
            cf.v_star,
            best.v
        );
    }

    #[test]
    fn v_star_integer_brackets_continuous() {
        let (space, deps, machine) = paper_setup();
        let cf = overlap_optimal_v(&space, &deps, &machine, &[4, 4], 2);
        let vi = cf.v_star_integer();
        assert!((vi as f64 - cf.v_star).abs() <= 1.0);
        // Integer choice is no worse than its neighbors.
        assert!(cf.predict_us(vi as f64) <= cf.predict_us((vi + 1) as f64));
        if vi > 1 {
            assert!(cf.predict_us(vi as f64) <= cf.predict_us((vi - 1) as f64));
        }
    }

    #[test]
    fn predict_is_u_shaped() {
        let (space, deps, machine) = paper_setup();
        let cf = overlap_optimal_v(&space, &deps, &machine, &[4, 4], 2);
        let at = |v: f64| cf.predict_us(v);
        assert!(at(cf.v_star) < at(cf.v_star / 8.0));
        assert!(at(cf.v_star) < at(cf.v_star * 8.0));
    }

    #[test]
    fn overlap_optimum_below_nonoverlap_optimum() {
        // The §6 goal realized: both optima from machine constants only,
        // and the overlap one wins (the paper's thesis).
        let (space, deps, machine) = paper_setup();
        let ov = overlap_optimal_v(&space, &deps, &machine, &[4, 4], 2);
        let no = optimal_v(StepStrategy::Blocking, &space, &deps, &machine, &[4, 4], 2);
        assert!(ov.optimum_us() < no.optimum_us());
    }

    #[test]
    fn free_communication_pushes_v_to_minimum() {
        // With α = 0 the formula gives V* = 0: the finest grain (most
        // parallelism) is optimal when startup is free.
        let space = IterationSpace::from_extents(&[16, 16, 1024]);
        let deps = DependenceSet::paper_3d();
        let machine = MachineParams::free_communication(1.0);
        let cf = overlap_optimal_v(&space, &deps, &machine, &[4, 4], 2);
        assert_eq!(cf.v_star, 0.0);
        assert_eq!(cf.v_star_integer(), 1);
    }

    #[test]
    fn v_star_clamped_stays_in_range() {
        let (space, deps, machine) = paper_setup();
        let cf = overlap_optimal_v(&space, &deps, &machine, &[4, 4], 2);
        // V* for the paper setup is a few hundred; a shallow pipeline
        // must clamp it down to the extent, never above.
        assert!(cf.v_star_integer() > 8);
        assert_eq!(cf.v_star_clamped(8), 8);
        assert_eq!(cf.v_star_clamped(1), 1);
        // Free communication drives V* to 0; the clamp floors it at 1.
        let free = MachineParams::free_communication(1.0);
        let cf0 = overlap_optimal_v(&space, &deps, &free, &[4, 4], 2);
        assert_eq!(cf0.v_star_clamped(16384), 1);
        // Degenerate extent 0 still yields a legal height.
        assert_eq!(cf.v_star_clamped(0), 1);
    }

    #[test]
    fn discrete_prediction_tracks_partial_tile_remainder() {
        let (space, deps, machine) = paper_setup();
        let cf = overlap_optimal_v(&space, &deps, &machine, &[4, 4], 2);
        // Where V divides K the staircase and the smooth model agree.
        let v_even = 128;
        assert_eq!(16384 % v_even, 0);
        let smooth = cf.predict_us(v_even as f64);
        let stair = cf.predict_us_discrete(v_even);
        assert!((smooth - stair).abs() / smooth < 1e-12);
        // A height just above an even divisor pays a whole extra step
        // for a sliver of work: the discrete model is strictly above the
        // smooth one there.
        let v_odd = 129;
        assert!(cf.predict_us_discrete(v_odd) > cf.predict_us(v_odd as f64));
        // And the discrete model sees the penalty the smooth one hides:
        // at few steps, rounding V up to the step-aligned height wins.
        let k = 16384usize;
        let s = k.div_ceil(v_odd); // 127 steps, last one nearly empty
        let aligned = k.div_ceil(s);
        assert!(cf.predict_us_discrete(aligned) < cf.predict_us_discrete(v_odd));
    }

    #[test]
    fn degenerate_single_rank_grid_is_finite() {
        // A 1×1 processor grid (cross-section = whole plane) has no
        // neighbors to pay for; the closed form must stay finite and
        // the ladder legal.
        let space = IterationSpace::from_extents(&[16, 16, 1024]);
        let deps = DependenceSet::paper_3d();
        let machine = MachineParams::paper_cluster();
        let cf = overlap_optimal_v(&space, &deps, &machine, &[16, 16], 2);
        assert!(cf.gamma >= 1.0);
        assert!(cf.beta > 0.0);
        assert!(cf.v_star.is_finite());
        let v = cf.v_star_clamped(1024);
        assert!((1..=1024).contains(&v));
        assert!(cf.predict_us_discrete(v).is_finite());
        for v in cf.v_ladder(1024) {
            assert!((1..=1024).contains(&v));
        }
    }

    #[test]
    fn ladder_brackets_the_optimum_and_dedups() {
        let (space, deps, machine) = paper_setup();
        let cf = overlap_optimal_v(&space, &deps, &machine, &[4, 4], 2);
        let ladder = cf.v_ladder(16384);
        let vi = cf.v_star_integer() as usize;
        assert!(ladder.contains(&vi));
        assert!(ladder.iter().any(|&v| v < vi));
        assert!(ladder.iter().any(|&v| v > vi));
        let mut sorted = ladder.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ladder, sorted, "ladder must be sorted and unique");
        // A tight extent clamps every rung.
        assert!(cf.v_ladder(4).iter().all(|&v| (1..=4).contains(&v)));
    }

    #[test]
    fn experiment_iii_smaller_v_than_i() {
        // Larger cross-sections shift the optimum to smaller V (the
        // 444 → 164 pattern between experiments i and iii).
        let deps = DependenceSet::paper_3d();
        let machine = MachineParams::paper_cluster();
        let cf_i = overlap_optimal_v(
            &IterationSpace::from_extents(&[16, 16, 16384]),
            &deps,
            &machine,
            &[4, 4],
            2,
        );
        let cf_iii = overlap_optimal_v(
            &IterationSpace::from_extents(&[32, 32, 4096]),
            &deps,
            &machine,
            &[8, 8],
            2,
        );
        assert!(cf_iii.v_star < cf_i.v_star);
    }
}
