//! Crate-level property tests of the schedule layer: brute-force
//! point-order oracles for linear schedules, overlap-schedule validity
//! on randomized tiled spaces, and optimal-schedule search soundness.

use proptest::prelude::*;
use tiling_core::prelude::*;
use tiling_core::schedule::optimal_linear_schedule;
use tiling_core::tile_graph::TileGraph;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `optimal_linear_schedule` returns a valid schedule whose makespan
    /// no enumerated candidate beats (soundness of the search), checked
    /// against an independent re-enumeration.
    #[test]
    fn optimal_search_is_sound(
        extents in prop::collection::vec(2i64..=5, 2..=2),
        dep_choice in 0usize..3,
    ) {
        let deps = match dep_choice {
            0 => DependenceSet::units(2),
            1 => DependenceSet::example_1(),
            _ => DependenceSet::from_vectors(2, vec![vec![1, -1], vec![0, 1]]),
        };
        let space = IterationSpace::from_extents(&extents);
        let Some(best) = optimal_linear_schedule(&space, &deps, 2) else {
            // Nothing valid in range — acceptable only for the skewed set.
            prop_assert_eq!(dep_choice, 2);
            return Ok(());
        };
        prop_assert!(best.is_valid(&deps));
        let best_ms = best.makespan(&space, &deps);
        // Independent scan of the same candidate set.
        for a in -2i64..=2 {
            for b in -2i64..=2 {
                if a == 0 && b == 0 {
                    continue;
                }
                let cand = LinearSchedule::new(vec![a, b]);
                if cand.is_valid(&deps) {
                    prop_assert!(cand.makespan(&space, &deps) >= best_ms);
                }
            }
        }
    }

    /// Every valid linear schedule orders dependent points, verified by
    /// full enumeration.
    #[test]
    fn valid_schedules_order_points(
        pi in prop::collection::vec(-2i64..=3, 2..=2),
        extents in prop::collection::vec(2i64..=5, 2..=2),
    ) {
        prop_assume!(pi.iter().any(|&c| c != 0));
        let sched = LinearSchedule::new(pi);
        let deps = DependenceSet::example_1();
        prop_assume!(sched.is_valid(&deps));
        let space = IterationSpace::from_extents(&extents);
        for j in space.points() {
            for d in deps.iter() {
                let succ: Vec<i64> =
                    j.iter().zip(d.components()).map(|(&a, &b)| a + b).collect();
                if space.contains(&succ) {
                    prop_assert!(
                        sched.time_of(&succ, &space, &deps)
                            > sched.time_of(&j, &space, &deps)
                    );
                }
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
