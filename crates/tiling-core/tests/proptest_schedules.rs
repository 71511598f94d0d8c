//! Crate-level property tests of the schedule layer: the tile
//! schedule's legality verdict against the tile graph's edge-by-edge
//! oracle, overlap-schedule validity on randomized tiled spaces, and
//! the closed form against the schedule's report.

use proptest::prelude::*;
use tiling_core::prelude::*;
use tiling_core::tile_graph::TileGraph;

/// Strategy: 2 or 3 dimensions with one to four dependences of
/// components −2..=2 — zero and negative components, and the zero
/// vector, included.
fn dims_and_deps() -> impl Strategy<Value = (usize, Vec<Vec<i64>>)> {
    (2usize..=3).prop_flat_map(|dims| {
        let dep = prop::collection::vec(-2i64..=2, dims);
        (Just(dims), prop::collection::vec(dep, 1..=4))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `is_valid_for` — the verdict pre-flight reports — holds exactly
    /// when every edge of the tile graph advances its lag, under both
    /// strategies and every mapping dimension. The space spans
    /// `max |d_k| + 1` tiles per axis, so each dependence is an edge of
    /// the graph; the rejecting direction is what the analyzer's typed
    /// schedule errors rest on.
    #[test]
    fn validity_agrees_with_tile_graph((dims, deps) in dims_and_deps()) {
        let set = DependenceSet::from_vectors(dims, deps.clone());
        let extents: Vec<i64> = (0..dims)
            .map(|k| deps.iter().map(|d| d[k].abs()).max().unwrap_or(0) + 1)
            .collect();
        let ts = IterationSpace::from_extents(&extents);
        let g = TileGraph::build(&ts, &set);
        for strategy in [StepStrategy::Blocking, StepStrategy::Overlap] {
            for mapping_dim in 0..dims {
                let s = TileSchedule::with_mapping(strategy, dims, mapping_dim);
                let oracle = g.validate_times(|t| s.time_of(t, &ts), |d| s.lag(d));
                prop_assert_eq!(
                    s.is_valid_for(&set),
                    oracle.is_ok(),
                    "{:?} along {} on {:?}: {:?}", strategy, mapping_dim, deps, oracle
                );
            }
        }
    }

    /// The overlap schedule is valid (per the tile graph's lag rules)
    /// for every tiled space derived from random rectangular tilings of
    /// random spaces with diagonal-ish dependence sets.
    #[test]
    fn overlap_valid_on_random_tiled_spaces(
        sides in prop::collection::vec(2i64..=4, 3..=3),
        mults in prop::collection::vec(1i64..=3, 3..=3),
    ) {
        let tiling = Tiling::rectangular(&sides);
        let deps = DependenceSet::from_vectors(
            3,
            vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1], vec![1, 1, 0]],
        );
        prop_assume!(tiling.contains_dependences(&deps));
        let extents: Vec<i64> = sides.iter().zip(&mults).map(|(&s, &m)| s * m).collect();
        let space = IterationSpace::from_extents(&extents);
        let ts = tiling.tiled_space(&space);
        let tile_deps = tiling.tile_dependences(&deps);
        let sched = TileSchedule::new(StepStrategy::Overlap, &ts);
        prop_assert!(sched.is_valid_for(&tile_deps));
        let g = TileGraph::build(&ts, &tile_deps);
        g.validate_times(|t| sched.time_of(t, &ts), |d| sched.lag(d))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// Closed-form predictions are positive, finite and U-shaped around
    /// V* for random affine machines, and at a random height the
    /// closed form's `α + β·V` prices a step as the schedule's report
    /// does: its step under Blocking, its CPU lane under Overlap (eq. 4,
    /// case 1).
    #[test]
    fn closed_form_well_behaved(
        base in 5.0f64..500.0,
        slope in 0.001f64..0.2,
        t_c in 0.05f64..5.0,
        height in 1i64..=4096,
    ) {
        use tiling_core::machine::AffineCost;
        let machine = MachineParams {
            t_c_us: t_c,
            t_s_us: base * 1.5,
            t_t_us_per_byte: 0.05,
            bytes_per_elem: 4,
            fill_mpi_buffer: AffineCost { base_us: base, per_byte_us: slope },
            fill_kernel_buffer: AffineCost { base_us: base / 2.0, per_byte_us: slope / 2.0 },
            transfer_curve: None,
        };
        let space = IterationSpace::from_extents(&[16, 16, 8192]);
        let deps = DependenceSet::paper_3d();
        let cf = overlap_optimal_v(&space, &deps, &machine, &[4, 4], 2);
        prop_assert!(cf.v_star.is_finite() && cf.v_star > 0.0);
        let at = |v: f64| cf.predict_us(v);
        let v = cf.v_star;
        prop_assert!(at(v) <= at(v * 4.0) + 1e-6);
        prop_assert!(at(v) <= at((v / 4.0).max(0.25)) + 1e-6);
        // And the non-overlap optimum exists too.
        let nf = optimal_v(StepStrategy::Blocking, &space, &deps, &machine, &[4, 4], 2);
        prop_assert!(nf.v_star.is_finite() && nf.v_star > 0.0);
        let tiling = Tiling::rectangular(&[4, 4, height]);
        for (strategy, cf) in [(StepStrategy::Blocking, nf), (StepStrategy::Overlap, cf)] {
            let r = TileSchedule::with_mapping(strategy, 3, 2).analyze(
                &tiling,
                &deps,
                &space,
                &machine,
                OverlapMode::Serialized,
            );
            let priced = match strategy {
                StepStrategy::Blocking => r.step_us,
                StepStrategy::Overlap => r.a_us,
            };
            let closed = cf.alpha + cf.beta * height as f64;
            prop_assert!(
                (closed - priced).abs() <= 1e-9 * priced,
                "{:?} at V = {}: closed form {} vs report {}", strategy, height, closed, priced
            );
        }
    }
}
