//! Property-based tests of the tiling core: the supernode transform is
//! a bijection, the per-axis rule agrees with enumerating a tile's box,
//! legality implies an acyclic tile graph, the closed-form communication
//! formulas agree with brute-force counting, and the schedule-length
//! formulas equal the tile DAG's critical path.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
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

/// Strategy: sides 1..=5 in 2 or 3 dimensions with one to three
/// dependences of components −3..=6.
fn sides_and_deps() -> impl Strategy<Value = (Vec<i64>, Vec<Vec<i64>>)> {
    prop::collection::vec(1i64..=5, 2..=3).prop_flat_map(|sides| {
        let dep = prop::collection::vec(-3i64..=6, sides.len());
        (Just(sides), prop::collection::vec(dep, 1..=3))
    })
}

/// The tile dependences and per-processor message volumes of `deps`
/// under `sides`, by walking every point of the origin tile's box:
/// a point `j` sends to tile `⌊(j + d) / s⌋` when that is not the
/// origin, and to the processor of that tile (mapping dimension
/// dropped) when that is not the origin either.
fn box_enumeration(
    sides: &[i64],
    deps: &[Vec<i64>],
    mapping_dim: usize,
) -> (BTreeSet<Vec<i64>>, BTreeMap<Vec<i64>, i64>) {
    let dims = sides.len();
    let origin_tile = IterationSpace::new(vec![0; dims], sides.iter().map(|s| s - 1).collect());
    let mut tile_deps = BTreeSet::new();
    let mut by_proc = BTreeMap::new();
    for d in deps {
        for j0 in origin_tile.points() {
            let t: Vec<i64> = (0..dims)
                .map(|i| (j0[i] + d[i]).div_euclid(sides[i]))
                .collect();
            if t.iter().all(|&c| c == 0) {
                continue;
            }
            let proc: Vec<i64> = (0..dims)
                .filter(|&i| i != mapping_dim)
                .map(|i| t[i])
                .collect();
            if proc.iter().any(|&c| c != 0) {
                *by_proc.entry(proc).or_insert(0) += 1;
            }
            tile_deps.insert(t);
        }
    }
    (tile_deps, by_proc)
}

/// `tiling.tile_dependences(set)` as a set of component vectors.
fn tile_deps(tiling: &Tiling, set: &DependenceSet) -> BTreeSet<Vec<i64>> {
    tiling
        .tile_dependences(set)
        .iter()
        .map(|d| d.components().to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// r(j) = (tile, offset) with offset `j − s·tile` reconstructs j,
    /// and the offset lies in the origin tile.
    #[test]
    fn transform_is_bijective(t in rect_tiling(), j in point(3)) {
        let j = &j[..t.dims()];
        let tile = t.tile_of(j);
        for d in 0..t.dims() {
            let (s, off) = (t.sides()[d], j[d] - t.sides()[d] * tile[d]);
            prop_assert!(off >= 0 && off < s, "offset {} of side {}", off, s);
            // And the tile coordinate matches an independent floor-div.
            prop_assert_eq!(tile[d], (j[d] as f64 / s as f64).floor() as i64);
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
        // Every point lies in a tile of the tiled space, and every tile
        // of it holds at least one point.
        let mut per_tile: BTreeMap<Vec<i64>, u64> = BTreeMap::new();
        for j in space.points() {
            *per_tile.entry(t.tile_of(&j)).or_insert(0) += 1;
        }
        prop_assert!(per_tile.keys().cloned().eq(ts.points()));
        prop_assert_eq!(per_tile.values().sum::<u64>(), space.volume());
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
        prop_assert_eq!(v_comm_total(&t, &deps), brute);
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

        for strategy in [StepStrategy::Blocking, StepStrategy::Overlap] {
            let s = TileSchedule::new(strategy, &ts);
            g.validate_times(|tile| s.time_of(tile, &ts), |d| s.lag(d))
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        }
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

        for strategy in [StepStrategy::Blocking, StepStrategy::Overlap] {
            let s = TileSchedule::new(strategy, &ts);
            prop_assert_eq!(g.critical_path(|d| s.lag(d)), s.schedule_length(&ts));
        }
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
            .map(|d| TileSchedule::with_mapping(StepStrategy::Overlap, dims, d).schedule_length(&ts))
            .collect();
        let best = *lengths.iter().min().unwrap();
        let chosen = TileSchedule::new(StepStrategy::Overlap, &ts).schedule_length(&ts);
        prop_assert_eq!(chosen, best);
    }

    /// `tile_dependences` (one per-axis rule, no slower path beside it)
    /// equals walking the origin tile's box, on the paper's fixed 2-D
    /// set {(1,1), (1,0)}, side-1 axes included.
    #[test]
    fn tile_deps_fast_path_sound(sides in prop::collection::vec(1i64..=5, 2..=2)) {
        let deps = vec![vec![1, 1], vec![1, 0]];
        let set = DependenceSet::from_vectors(2, deps.clone());
        let (want, _) = box_enumeration(&sides, &deps, 0);
        prop_assert_eq!(tile_deps(&Tiling::rectangular(&sides), &set), want);
    }

    /// The same agreement with generated dependences: uncontained and
    /// negative components included.
    #[test]
    fn tile_deps_fast_path_sound_generated((sides, deps) in sides_and_deps()) {
        let set = DependenceSet::from_vectors(sides.len(), deps.clone());
        let (want, _) = box_enumeration(&sides, &deps, 0);
        prop_assert_eq!(tile_deps(&Tiling::rectangular(&sides), &set), want);
    }

    /// Per-neighbor message volumes equal counting the origin tile's
    /// box point by point, for every mapping dimension.
    #[test]
    fn neighbor_volumes_match_bruteforce(
        (sides, deps) in sides_and_deps(),
        mapping_dim in 0usize..3,
    ) {
        use tiling_core::mapping::{neighbor_messages, ProcessorMapping};
        let dims = sides.len();
        let mapping_dim = mapping_dim % dims;
        let mapping = ProcessorMapping::along(dims, mapping_dim);
        let set = DependenceSet::from_vectors(dims, deps.clone());
        let (_, want) = box_enumeration(&sides, &deps, mapping_dim);
        let msgs: BTreeMap<Vec<i64>, i64> =
            neighbor_messages(&Tiling::rectangular(&sides), &set, &mapping)
                .into_iter()
                .map(|m| (m.processor_offset, m.volume_points))
                .collect();
        prop_assert_eq!(msgs, want);
    }
}
