//! Processor mapping of tiles (§4, §5).
//!
//! The paper assigns all tiles along the dimension with the **largest
//! tiled-space extent** to the same processor (the optimal space schedule
//! for UET-UCT grid graphs, \[1\]). A processor is therefore identified by
//! the tile coordinates with the mapping dimension projected out; in the
//! experiments the 16×16 (or 32×32) `i×j` cross-section is folded onto a
//! 4×4 processor grid by choosing the tile cross-section `4×4` (or `8×8`),
//! one tile column per processor.
//!
//! This module also computes the *messages* a tile exchanges per time
//! step: tile dependences grouped by destination processor, with exact
//! per-neighbor data volumes (needed for the overlap cost model, where
//! the number of startups `A₁`/`A₃` counts *messages*, not dependences).

use crate::dependence::DependenceSet;
use crate::space::{IterationSpace, Point};
use crate::tiling::Tiling;
use std::collections::BTreeMap;

/// Mapping of tiles to processors along one dimension.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProcessorMapping {
    mapping_dim: usize,
    dims: usize,
}

impl ProcessorMapping {
    /// Map along an explicit dimension.
    pub fn along(dims: usize, mapping_dim: usize) -> Self {
        assert!(mapping_dim < dims, "mapping dimension out of range");
        ProcessorMapping { mapping_dim, dims }
    }

    /// The paper's rule: map along the tiled space's longest dimension.
    pub fn by_longest_dimension(tiled_space: &IterationSpace) -> Self {
        ProcessorMapping {
            mapping_dim: tiled_space.longest_dimension(),
            dims: tiled_space.dims(),
        }
    }

    /// The dimension all of whose tiles share a processor.
    pub fn mapping_dim(&self) -> usize {
        self.mapping_dim
    }

    /// Arity of the tile space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The processor coordinates of a tile: its coordinates with the
    /// mapping dimension removed.
    pub fn processor_of(&self, tile: &[i64]) -> Point {
        assert_eq!(tile.len(), self.dims, "tile arity mismatch");
        tile.iter()
            .enumerate()
            .filter_map(|(d, &c)| (d != self.mapping_dim).then_some(c))
            .collect()
    }

    /// Number of processors used for a tiled space: the product of the
    /// extents of the non-mapping dimensions.
    pub fn processor_count(&self, tiled_space: &IterationSpace) -> u64 {
        assert_eq!(tiled_space.dims(), self.dims, "space arity mismatch");
        (0..self.dims)
            .filter(|&d| d != self.mapping_dim)
            .map(|d| tiled_space.extent(d) as u64)
            .product()
    }

    /// The processor-space extents (cross-section of the tiled space).
    pub fn processor_grid(&self, tiled_space: &IterationSpace) -> Vec<i64> {
        (0..self.dims)
            .filter(|&d| d != self.mapping_dim)
            .map(|d| tiled_space.extent(d))
            .collect()
    }

    /// Flatten processor coordinates to a rank in row-major order over the
    /// cross-section of `tiled_space`.
    pub fn rank_of(&self, tile: &[i64], tiled_space: &IterationSpace) -> usize {
        let proc = self.processor_of(tile);
        let lowers: Vec<i64> = (0..self.dims)
            .filter(|&d| d != self.mapping_dim)
            .map(|d| tiled_space.lower()[d])
            .collect();
        let grid = self.processor_grid(tiled_space);
        let mut rank = 0usize;
        for (i, (&c, (&l, &e))) in proc.iter().zip(lowers.iter().zip(&grid)).enumerate() {
            let local = c - l;
            assert!(
                local >= 0 && local < e,
                "tile outside space in proc dim {i}"
            );
            rank = rank * e as usize + local as usize;
        }
        rank
    }
}

/// A message a tile sends to one neighboring processor each time step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NeighborMessage {
    /// Offset of the destination processor in processor coordinates
    /// (tile-space offset with the mapping dimension removed; non-zero).
    pub processor_offset: Vec<i64>,
    /// Exact number of iteration-point values carried per tile execution.
    pub volume_points: i64,
}

/// Compute the per-neighbor messages of a tile under a mapping: tile
/// dependences whose destination lies on another processor, grouped by
/// destination processor, with exact data volumes.
///
/// The volume dependence `d` sends to tile offset `t` is the per-axis
/// rule's `Π_i n_i(t_i)` (see [`crate::tiling`]); for contained
/// non-negative dependences that is `Π_i (t_i = 1 ? d_i : side_i − d_i)`
/// (points close enough to each crossed face, far enough from the
/// others).
///
/// # Panics
/// Panics if a processor's summed volume overflows `i64`.
pub fn neighbor_messages(
    tiling: &Tiling,
    deps: &DependenceSet,
    mapping: &ProcessorMapping,
) -> Vec<NeighborMessage> {
    let n = tiling.dims();
    assert_eq!(deps.dims(), n, "dependence arity mismatch");
    assert_eq!(mapping.dims(), n, "mapping arity mismatch");
    let mut by_proc: BTreeMap<Vec<i64>, i64> = BTreeMap::new();
    for d in deps.iter() {
        for (t, points) in tiling.destinations(d.components()) {
            let proc = mapping.processor_of(&t);
            if proc.iter().all(|&x| x == 0) {
                continue; // same processor: free
            }
            let sum = by_proc.entry(proc).or_insert(0);
            *sum = sum
                .checked_add(points)
                .unwrap_or_else(|| panic!("message volume overflows i64"));
        }
    }
    by_proc
        .into_iter()
        .map(|(processor_offset, volume_points)| NeighborMessage {
            processor_offset,
            volume_points,
        })
        .collect()
}

/// Total cross-processor communication volume per tile (should equal
/// formula (2) of §2.4 for axis-aligned unit-style dependence structures;
/// for diagonal dependences it is the *exact* count, whereas formula (2)
/// may double-count corner points crossing two faces at once).
pub fn total_message_volume(messages: &[NeighborMessage]) -> i64 {
    messages.iter().map(|m| m.volume_points).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;

    #[test]
    fn processor_of_drops_mapping_dim() {
        let m = ProcessorMapping::along(3, 2);
        assert_eq!(m.processor_of(&[3, 5, 7]), vec![3, 5]);
        let m0 = ProcessorMapping::along(3, 0);
        assert_eq!(m0.processor_of(&[3, 5, 7]), vec![5, 7]);
    }

    #[test]
    fn by_longest_dimension_picks_k_for_paper_spaces() {
        let tiling = Tiling::rectangular(&[4, 4, 444]);
        let space = IterationSpace::from_extents(&[16, 16, 16384]);
        let ts = tiling.tiled_space(&space);
        let m = ProcessorMapping::by_longest_dimension(&ts);
        assert_eq!(m.mapping_dim(), 2);
        assert_eq!(m.processor_count(&ts), 16);
        assert_eq!(m.processor_grid(&ts), vec![4, 4]);
    }

    #[test]
    fn rank_is_row_major_and_bijective() {
        let tiling = Tiling::rectangular(&[4, 4, 32]);
        let space = IterationSpace::from_extents(&[16, 16, 256]);
        let ts = tiling.tiled_space(&space); // 4×4×8 tiles ⇒ map along k
        let m = ProcessorMapping::by_longest_dimension(&ts);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..4 {
            for j in 0..4 {
                let r = m.rank_of(&[i, j, 0], &ts);
                assert!(seen.insert(r));
                assert!(r < 16);
                // Tiles along k share the rank.
                assert_eq!(m.rank_of(&[i, j, 3], &ts), r);
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn paper_3d_messages() {
        // Tile 4×4×444, mapping along k: two neighbors (1,0) and (0,1),
        // each carrying 4·444 = 1776 points.
        let tiling = Tiling::rectangular(&[4, 4, 444]);
        let deps = DependenceSet::paper_3d();
        let m = ProcessorMapping::along(3, 2);
        let msgs = neighbor_messages(&tiling, &deps, &m);
        assert_eq!(msgs.len(), 2);
        for msg in &msgs {
            assert_eq!(msg.volume_points, 1776);
        }
        let offs: Vec<_> = msgs.iter().map(|m| m.processor_offset.clone()).collect();
        assert!(offs.contains(&vec![0, 1]));
        assert!(offs.contains(&vec![1, 0]));
    }

    #[test]
    fn example_1_single_neighbor_with_volume_20() {
        // §3 Example 1: 10×10 tiles, mapping along i1 ⇒ one neighbor
        // carrying V_comm = 20 points (both (0,1) and (1,1) contribute).
        let tiling = Tiling::rectangular(&[10, 10]);
        let deps = DependenceSet::example_1();
        let m = ProcessorMapping::along(2, 0);
        let msgs = neighbor_messages(&tiling, &deps, &m);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].processor_offset, vec![1]);
        assert_eq!(msgs[0].volume_points, 20);
        assert_eq!(
            total_message_volume(&msgs),
            cost::v_comm_mapped(&tiling, &deps, 0)
        );
    }

    #[test]
    fn fast_path_matches_enumeration() {
        // Reference oracle: walk the origin tile's box point by point.
        let tiling = Tiling::rectangular(&[5, 4]);
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 1], vec![2, 0], vec![0, 3]]);
        let m = ProcessorMapping::along(2, 0);
        let origin_tile = IterationSpace::new(vec![0, 0], vec![4, 3]);
        let mut by_proc: BTreeMap<Vec<i64>, i64> = BTreeMap::new();
        for d in deps.iter() {
            for j0 in origin_tile.points() {
                let shifted: Vec<i64> = j0
                    .iter()
                    .zip(d.components())
                    .map(|(&a, &b)| a + b)
                    .collect();
                let proc = m.processor_of(&tiling.tile_of(&shifted));
                if proc.iter().any(|&x| x != 0) {
                    *by_proc.entry(proc).or_insert(0) += 1;
                }
            }
        }
        let brute: Vec<NeighborMessage> = by_proc
            .into_iter()
            .map(|(processor_offset, volume_points)| NeighborMessage {
                processor_offset,
                volume_points,
            })
            .collect();
        assert_eq!(neighbor_messages(&tiling, &deps, &m), brute);
    }

    #[test]
    fn side_one_tiles_are_not_enumerated() {
        // 2⁴⁷ points per tile: the i-face of a side-1 tile is the whole
        // tile, the j-face its 128-high column.
        let tiling = Tiling::rectangular(&[1, 1 << 40, 128]);
        let deps = DependenceSet::paper_3d();
        let tile_deps = tiling.tile_dependences(&deps);
        let got: Vec<&[i64]> = tile_deps.iter().map(|d| d.components()).collect();
        assert_eq!(got, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]);
        let m = ProcessorMapping::along(3, 2);
        let msgs = neighbor_messages(&tiling, &deps, &m);
        let want = vec![
            NeighborMessage {
                processor_offset: vec![0, 1],
                volume_points: 128,
            },
            NeighborMessage {
                processor_offset: vec![1, 0],
                volume_points: 1 << 47,
            },
        ];
        assert_eq!(msgs, want);
    }

    #[test]
    fn same_processor_dependences_are_free() {
        // Only dependence along the mapping dimension ⇒ no messages.
        let tiling = Tiling::rectangular(&[4, 4]);
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 0]]);
        let m = ProcessorMapping::along(2, 0);
        assert!(neighbor_messages(&tiling, &deps, &m).is_empty());
    }

    #[test]
    fn diagonal_dep_exact_volume_not_double_counted() {
        // d = (1,1), tile 10×10, mapping along nothing relevant: both
        // dims cross-processor (mapping along a third dim is impossible
        // in 2-D, so map along dim 0 and check neighbor (1) volume).
        // Exact volume to processor +1 (j-direction): 9 (face) + 1
        // (corner) + … see mapping docs. Formula (2) would also give 20
        // here; exact per-neighbor sum must equal it for this structure.
        let tiling = Tiling::rectangular(&[10, 10]);
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 1]]);
        let m = ProcessorMapping::along(2, 0);
        let msgs = neighbor_messages(&tiling, &deps, &m);
        assert_eq!(msgs.len(), 1);
        // (0,1) realization: 9 points; (1,1): 1 point ⇒ 10 total.
        assert_eq!(msgs[0].volume_points, 10);
    }

    #[test]
    fn processor_count_excludes_mapping_dim() {
        let m = ProcessorMapping::along(3, 1);
        let ts = IterationSpace::from_extents(&[3, 100, 5]);
        assert_eq!(m.processor_count(&ts), 15);
        assert_eq!(m.processor_grid(&ts), vec![3, 5]);
    }
}
