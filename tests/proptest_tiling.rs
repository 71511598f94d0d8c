//! Property-based tests of the tiling core: the supernode transform is
//! a bijection, legality implies an acyclic tile graph, the closed-form
//! communication formulas agree with brute-force counting, and the
//! schedule-length formulas equal the tile DAG's critical path.

use proptest::prelude::*;
use tiling_core::prelude::*;
use tiling_core::tile_graph::TileGraph;

/// Strategy: a 2-D or 3-D rectangular tiling with sides 1..=6.
fn rect_tiling() -> impl Strategy<Value = Tiling> {
    prop::collection::vec(1i64..=6, 2..=3).prop_map(|sides| Tiling::rectangular(&sides))
}

/// Strategy: a point within ±30 per coordinate, matching dims.
fn point(dims: usize) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-30i64..=30, dims)
}

/// Strategy: a non-negative dependence set contained in sides ≥ its
/// components (built against a given tiling).
fn contained_deps(sides: Vec<i64>) -> impl Strategy<Value = DependenceSet> {
    let dims = sides.len();
    let one = prop::collection::vec(0i64..=2, dims).prop_filter("non-zero & contained", {
        let sides = sides.clone();
        move |v| {
            v.iter().any(|&x| x > 0)
                && v[0] >= 0
                && v.iter().zip(&sides).all(|(&x, &s)| x >= 0 && x < s)
        }
    });
    prop::collection::vec(one, 1..=3).prop_map(move |vs| {
        let mut set = DependenceSet::new(dims);
        let mut seen = std::collections::BTreeSet::new();
        for v in vs {
            if seen.insert(v.clone()) {
                set.push(Dependence::new(v));
            }
        }
        set
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// r(j) = (tile, offset) reconstructs j, and the offset is in the
    /// fundamental domain.
    #[test]
    fn transform_is_bijective(t in rect_tiling(), j in point(3)) {
        let j = &j[..t.dims()];
        let (tile, off) = t.transform(j);
        prop_assert_eq!(t.reconstruct(&tile, &off), j.to_vec());
        // Offset within the origin tile.
        let sides = t.rectangular_sides().unwrap();
        for (o, s) in off.iter().zip(sides) {
            prop_assert!(*o >= 0 && o < s, "offset {:?}", off);
        }
        // And the tile coordinates match an independent floor-div.
        for d in 0..t.dims() {
            prop_assert_eq!(tile[d], j[d].div_euclid(sides[d]));
        }
    }

    /// Points of a tiled space are partitioned exactly by tiles.
    #[test]
    fn tiles_partition_space(
        sides in prop::collection::vec(1i64..=4, 2..=2),
        extents in prop::collection::vec(1i64..=9, 2..=2),
    ) {
        let t = Tiling::rectangular(&sides);
        let space = IterationSpace::from_extents(&extents);
        let ts = t.tiled_space(&space);
        let mut count = 0u64;
        for tile in ts.points() {
            for j in t.points_in_tile(&tile, &space) {
                prop_assert_eq!(t.tile_of(&j), tile.clone());
                count += 1;
            }
        }
        prop_assert_eq!(count, space.volume());
    }

    /// Formula (1) always equals brute-force boundary counting.
    #[test]
    fn v_comm_formula_equals_bruteforce(
        sides in prop::collection::vec(2i64..=5, 2..=2),
    ) {
        // Deps must be legal (≥ 0) and contained.
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 0], vec![0, 1], vec![1, 1]]);
        let t = Tiling::rectangular(&sides);
        prop_assume!(t.contains_dependences(&deps));
        let brute = tiling_core::cost::v_comm_total_bruteforce(&t, &deps);
        prop_assert_eq!(
            v_comm_total(&t, &deps),
            Rational::from_int(brute as i128)
        );
    }

    /// A legal tiling's tile graph is acyclic, and both schedules are
    /// valid for it under their respective lag rules.
    #[test]
    fn legal_tiling_gives_acyclic_valid_schedules(
        sides in prop::collection::vec(2i64..=4, 2..=3),
        extents_mul in prop::collection::vec(1i64..=4, 2..=3),
    ) {
        prop_assume!(sides.len() == extents_mul.len());
        let t = Tiling::rectangular(&sides);
        let dims = sides.len();
        let deps = DependenceSet::units(dims);
        prop_assert!(t.is_legal(&deps));
        let extents: Vec<i64> = sides.iter().zip(&extents_mul).map(|(&s, &m)| s * m).collect();
        let space = IterationSpace::from_extents(&extents);
        let ts = t.tiled_space(&space);
        let tile_deps = t.tile_dependences(&deps);
        let g = TileGraph::build(&ts, &tile_deps);
        prop_assert!(g.topological_order().is_some());

        let no = NonOverlapSchedule::new(&ts);
        g.validate_times(|tile| no.time_of(tile, &ts), TileGraph::unit_lag)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;

        let ov = OverlapSchedule::new(&ts);
        let lag = TileGraph::overlap_lag(ov.mapping());
        g.validate_times(|tile| ov.time_of(tile, &ts), lag)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// Closed-form schedule lengths equal the DAG critical path for unit
    /// tile dependences (i.e. both schedules are optimal for their lag
    /// model — the UET / UET-UCT results).
    #[test]
    fn schedule_lengths_equal_critical_path(
        extents in prop::collection::vec(1i64..=6, 2..=3),
    ) {
        let dims = extents.len();
        let ts = IterationSpace::from_extents(&extents);
        let tile_deps = DependenceSet::units(dims);
        let g = TileGraph::build(&ts, &tile_deps);

        let no = NonOverlapSchedule::new(&ts);
        prop_assert_eq!(g.critical_path(TileGraph::unit_lag), no.schedule_length(&ts));

        let ov = OverlapSchedule::new(&ts);
        let lag = TileGraph::overlap_lag(ov.mapping());
        prop_assert_eq!(g.critical_path(lag), ov.schedule_length(&ts));
    }

    /// Mapping along the longest dimension minimizes the overlap
    /// schedule length (the space-schedule optimality of reference [1]).
    #[test]
    fn longest_dimension_mapping_is_optimal(
        extents in prop::collection::vec(1i64..=8, 2..=4),
    ) {
        let dims = extents.len();
        let ts = IterationSpace::from_extents(&extents);
        let lengths: Vec<i64> = (0..dims)
            .map(|d| OverlapSchedule::with_mapping(dims, d).schedule_length(&ts))
            .collect();
        let best = *lengths.iter().min().unwrap();
        let chosen = OverlapSchedule::new(&ts).schedule_length(&ts);
        prop_assert_eq!(chosen, best);
    }

    /// Tile dependence sets from the fast path always match the generic
    /// enumeration for legal contained dependences.
    #[test]
    fn tile_deps_fast_path_sound(
        sides in prop::collection::vec(2i64..=5, 2..=2),
    ) {
        let t = Tiling::rectangular(&sides.clone());
        let strat_result = contained_deps(sides);
        // Use a fixed dependence set derived from sides (deterministic
        // in this test body); the strategy above is exercised in the
        // next test.
        drop(strat_result);
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 1], vec![1, 0]]);
        prop_assume!(t.contains_dependences(&deps));
        prop_assert_eq!(t.tile_dependences(&deps), t.tile_dependences_generic(&deps));
    }

    /// Same fast-path/generic agreement, with generated dependences.
    #[test]
    fn tile_deps_fast_path_sound_generated(
        (sides, deps) in prop::collection::vec(3i64..=5, 2..=2)
            .prop_flat_map(|sides| {
                let s2 = sides.clone();
                (Just(sides), contained_deps(s2))
            })
    ) {
        let t = Tiling::rectangular(&sides);
        prop_assume!(t.is_legal(&deps));
        prop_assume!(t.contains_dependences(&deps));
        prop_assert_eq!(t.tile_dependences(&deps), t.tile_dependences_generic(&deps));
    }

    /// Per-neighbor message volumes (fast rectangular path) equal exact
    /// fundamental-domain counting, for random shapes and contained
    /// dependence sets.
    #[test]
    fn neighbor_volumes_match_bruteforce(
        (sides, deps) in prop::collection::vec(3i64..=5, 2..=2)
            .prop_flat_map(|sides| {
                let s2 = sides.clone();
                (Just(sides), contained_deps(s2))
            }),
        mapping_dim in 0usize..2,
    ) {
        use tiling_core::mapping::{neighbor_messages, ProcessorMapping};
        let tiling = Tiling::rectangular(&sides);
        prop_assume!(tiling.is_legal(&deps));
        prop_assume!(tiling.contains_dependences(&deps));
        let mapping = ProcessorMapping::along(2, mapping_dim);
        let fast = neighbor_messages(&tiling, &deps, &mapping);
        // Brute force via the fundamental domain.
        let mut by_proc: std::collections::BTreeMap<Vec<i64>, i64> = Default::default();
        for d in deps.iter() {
            for j0 in tiling.fundamental_domain() {
                let shifted: Vec<i64> = j0
                    .iter()
                    .zip(d.components())
                    .map(|(&a, &b)| a + b)
                    .collect();
                let s = tiling.tile_of(&shifted);
                if s.iter().all(|&x| x == 0) {
                    continue;
                }
                let proc = mapping.processor_of(&s);
                if proc.iter().all(|&x| x == 0) {
                    continue;
                }
                *by_proc.entry(proc).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(fast.len(), by_proc.len());
        for m in &fast {
            prop_assert_eq!(
                by_proc.get(&m.processor_offset).copied(),
                Some(m.volume_points),
                "offset {:?}",
                m.processor_offset
            );
        }
    }

    /// Linear schedules respect dependences whenever Π·d > 0 for all d.
    #[test]
    fn valid_linear_schedule_orders_dependences(
        pi in prop::collection::vec(1i64..=3, 2..=2),
        extents in prop::collection::vec(2i64..=6, 2..=2),
    ) {
        let sched = LinearSchedule::new(pi);
        let space = IterationSpace::from_extents(&extents);
        let deps = DependenceSet::example_1();
        prop_assume!(sched.is_valid(&deps));
        for j in space.points() {
            for d in deps.iter() {
                let succ: Vec<i64> = j.iter().zip(d.components()).map(|(&a, &b)| a + b).collect();
                if space.contains(&succ) {
                    prop_assert!(
                        sched.time_of(&succ, &space, &deps) > sched.time_of(&j, &space, &deps)
                    );
                }
            }
        }
    }
}
