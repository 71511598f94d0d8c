//! The supernode (tiling) transformation (§2.3), for rectangular tiles.
//!
//! The paper defines a tiling through its side matrix `P` and `H = P⁻¹`
//! and prices it in those terms; its experiments, and everything this
//! crate compiles, simulates or runs, use axis-aligned boxes:
//! `P = diag(s)`, `H = diag(1/s)`. A [`Tiling`] is therefore its side
//! vector `s`, and the transform works axis by axis: index point `j`
//! lies in tile `⌊j / s⌋` (componentwise, rounding towards −∞). Legality
//! `HD ≥ 0` (Irigoin & Triolet, Ramanujam & Sadayappan) is `d ≥ 0`, and
//! the paper's containment assumption `⌊HD⌋ = 0` — every dependence fits
//! inside one tile, so tiles talk only to their nearest neighbours — is
//! `0 ≤ d_i < s_i`.
//!
//! **The per-axis rule.** Where a dependence `d` takes the points of a
//! tile splits axis by axis. For side `s` and component `d` (any
//! integer), let `q = d.div_euclid(s)` and `r = d.rem_euclid(s)`: `s − r`
//! of the tile's offsets along that axis land in tile offset `q` and `r`
//! land in `q + 1`. So `Π_i n_i(t_i)` points of the tile send to tile
//! offset `t`, at most `2ⁿ` offsets receive any, and the tile dependence
//! set and per-neighbour message volumes follow without visiting a
//! single point — contained, uncontained and negative dependences alike.

use crate::dependence::{Dependence, DependenceSet};
use crate::space::{IterationSpace, Point};
use std::collections::BTreeSet;
use std::fmt;

/// Errors applying a tiling to a dependence set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TilingError {
    /// The tiling violates `HD ≥ 0` for the given dependence set.
    Illegal {
        /// Index of the offending dependence vector in the set.
        dep_index: usize,
    },
    /// A dependence does not fit within a single tile (`⌊Hd⌋ ≠ 0`).
    DependenceNotContained {
        /// Index of the offending dependence vector in the set.
        dep_index: usize,
    },
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::Illegal { dep_index } => {
                write!(f, "tiling violates HD ≥ 0 for dependence #{dep_index}")
            }
            TilingError::DependenceNotContained { dep_index } => {
                write!(f, "dependence #{dep_index} does not fit inside a tile")
            }
        }
    }
}

impl std::error::Error for TilingError {}

/// Axis-aligned rectangular tiles: the side vector `s` of `P = diag(s)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Tiling {
    sides: Vec<i64>,
    /// `Π s_i`, checked once at construction.
    volume: i64,
}

impl Tiling {
    /// Axis-aligned rectangular tiles with the given (positive) sides.
    ///
    /// # Panics
    /// Panics if any side is not positive, or if the tile volume
    /// `Π s_i` overflows `i64`.
    pub fn rectangular(sides: &[i64]) -> Self {
        assert!(sides.iter().all(|&s| s > 0), "tile sides must be positive");
        let volume = (sides.iter())
            .try_fold(1i64, |v, &s| v.checked_mul(s))
            .unwrap_or_else(|| panic!("tile volume of {sides:?} overflows i64"));
        Tiling {
            sides: sides.to_vec(),
            volume,
        }
    }

    /// Dimensionality `n`.
    pub fn dims(&self) -> usize {
        self.sides.len()
    }

    /// The tile sides `s` (the diagonal of `P`).
    pub fn sides(&self) -> &[i64] {
        &self.sides
    }

    /// Tile volume `g = Π s_i` — the computation cost `V_comp` of one
    /// tile in iteration points (§2.4).
    pub fn volume(&self) -> i64 {
        self.volume
    }

    /// Tile coordinates `⌊Hj⌋ = ⌊j / s⌋` of index point `j`.
    pub fn tile_of(&self, j: &[i64]) -> Point {
        j.iter()
            .zip(&self.sides)
            .map(|(&x, &s)| x.div_euclid(s))
            .collect()
    }

    /// Legality: `HD ≥ 0` (§2.3). Tiles are atomic and deadlock-free iff
    /// every dependence has non-negative components in tile coordinates;
    /// for a box that is `d ≥ 0`.
    pub fn is_legal(&self, deps: &DependenceSet) -> bool {
        self.check_legal(deps).is_ok()
    }

    /// Like [`Self::is_legal`] but reporting the first offending vector.
    pub fn check_legal(&self, deps: &DependenceSet) -> Result<(), TilingError> {
        match deps
            .iter()
            .position(|d| d.components().iter().any(|&c| c < 0))
        {
            Some(dep_index) => Err(TilingError::Illegal { dep_index }),
            None => Ok(()),
        }
    }

    /// The paper's containment assumption: `⌊Hd⌋ = 0` for every `d ∈ D`
    /// (every dependence vector fits strictly inside one tile), so `D^S`
    /// has only 0/1 entries.
    pub fn contains_dependences(&self, deps: &DependenceSet) -> bool {
        self.check_contains(deps).is_ok()
    }

    /// Like [`Self::contains_dependences`] with error detail.
    pub fn check_contains(&self, deps: &DependenceSet) -> Result<(), TilingError> {
        self.check_legal(deps)?;
        let spills = |d: &Dependence| d.components().iter().zip(&self.sides).any(|(c, s)| c >= s);
        match deps.iter().position(spills) {
            Some(dep_index) => Err(TilingError::DependenceNotContained { dep_index }),
            None => Ok(()),
        }
    }

    /// The per-axis rule (module docs): every tile offset `t` that
    /// dependence `d` carries some of a tile's points to, `t = 0` (flow
    /// inside the tile) included, with the number of points `Π_i n_i(t_i)`.
    /// Only offsets with a positive count are listed — at most `2ⁿ`. A
    /// count is at most the tile volume, so no product overflows.
    pub(crate) fn destinations(&self, d: &[i64]) -> Vec<(Point, i64)> {
        assert_eq!(d.len(), self.dims(), "dependence arity mismatch");
        let mut out = vec![(Vec::with_capacity(self.dims()), 1)];
        for (&c, &s) in d.iter().zip(&self.sides) {
            let (q, r) = (c.div_euclid(s), c.rem_euclid(s));
            let mut next = Vec::with_capacity(2 * out.len());
            for (mut t, n) in out {
                if r > 0 {
                    let mut over = t.clone();
                    over.push(q + 1);
                    next.push((over, n * r));
                }
                t.push(q);
                next.push((t, n * (s - r)));
            }
            out = next;
        }
        out
    }

    /// The tile dependence set `D^S` (§2.3):
    /// `D^S = { ⌊H(j0 + d)⌋ : d ∈ D, j0 in the origin tile }`, with the
    /// zero vector (tile-internal flow) removed and duplicates merged —
    /// the offsets the per-axis rule gives a positive count.
    ///
    /// Under the containment assumption the result has only 0/1 entries.
    pub fn tile_dependences(&self, deps: &DependenceSet) -> DependenceSet {
        let out: BTreeSet<Point> = (deps.iter())
            .flat_map(|d| self.destinations(d.components()))
            .map(|(t, _)| t)
            .filter(|t| t.iter().any(|&c| c != 0))
            .collect();
        DependenceSet::from_vectors(self.dims(), out.into_iter().collect())
    }

    /// The tiled space `J^S = { ⌊Hj⌋ : j ∈ J^n }`: the tiles of a
    /// rectangular iteration space, the last along an axis possibly
    /// partial.
    pub fn tiled_space(&self, space: &IterationSpace) -> IterationSpace {
        assert_eq!(space.dims(), self.dims(), "space arity mismatch");
        IterationSpace::new(self.tile_of(space.lower()), self.tile_of(space.upper()))
    }
}

impl fmt::Debug for Tiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tiling(rect {:?})", self.sides)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_is_det_p() {
        assert_eq!(Tiling::rectangular(&[10, 10]).volume(), 100);
        assert_eq!(Tiling::rectangular(&[4, 4, 444]).volume(), 7104);
        assert_eq!(Tiling::rectangular(&[1, 1 << 40, 128]).volume(), 1 << 47);
    }

    #[test]
    #[should_panic(expected = "overflows i64")]
    fn volume_overflow_panics() {
        Tiling::rectangular(&[1 << 32, 1 << 32]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_side_panics() {
        Tiling::rectangular(&[4, 0]);
    }

    #[test]
    fn tile_of_rectangular() {
        let t = Tiling::rectangular(&[10, 10]);
        assert_eq!(t.tile_of(&[0, 0]), vec![0, 0]);
        assert_eq!(t.tile_of(&[9, 9]), vec![0, 0]);
        assert_eq!(t.tile_of(&[10, 9]), vec![1, 0]);
        assert_eq!(t.tile_of(&[25, 37]), vec![2, 3]);
        // Negative coordinates floor towards −∞.
        assert_eq!(t.tile_of(&[-1, 0]), vec![-1, 0]);
        assert_eq!(t.tile_of(&[-10, -11]), vec![-1, -2]);
    }

    #[test]
    fn transform_roundtrip_rectangular() {
        // r(j) = (⌊j / s⌋, j − s·⌊j / s⌋): the offset lies in the origin tile.
        let t = Tiling::rectangular(&[7, 5]);
        for j in IterationSpace::new(vec![-12, -12], vec![12, 12]).points() {
            let tile = t.tile_of(&j);
            let off: Point = (0..2).map(|d| j[d] - t.sides()[d] * tile[d]).collect();
            assert!(off[0] >= 0 && off[0] < 7, "offset {off:?}");
            assert!(off[1] >= 0 && off[1] < 5, "offset {off:?}");
        }
    }

    #[test]
    fn legality_rectangular_nonnegative_deps() {
        let t = Tiling::rectangular(&[10, 10]);
        assert!(t.is_legal(&DependenceSet::example_1()));
        // A negative dependence component is illegal for axis tiles.
        let bad = DependenceSet::from_vectors(2, vec![vec![1, 0], vec![1, -1]]);
        assert_eq!(
            t.check_legal(&bad),
            Err(TilingError::Illegal { dep_index: 1 })
        );
    }

    #[test]
    fn containment() {
        let t = Tiling::rectangular(&[10, 10]);
        assert!(t.contains_dependences(&DependenceSet::example_1()));
        let big = DependenceSet::from_vectors(2, vec![vec![10, 0]]);
        assert_eq!(
            t.check_contains(&big),
            Err(TilingError::DependenceNotContained { dep_index: 0 })
        );
    }

    #[test]
    fn tile_dependences_example_1() {
        let t = Tiling::rectangular(&[10, 10]);
        let ds = t.tile_dependences(&DependenceSet::example_1());
        // D = {(1,1),(1,0),(0,1)} ⇒ D^S = {(0,1),(1,0),(1,1)}.
        let vecs: Vec<_> = ds.iter().map(|d| d.components().to_vec()).collect();
        assert_eq!(vecs.len(), 3);
        assert!(vecs.contains(&vec![1, 0]));
        assert!(vecs.contains(&vec![0, 1]));
        assert!(vecs.contains(&vec![1, 1]));
    }

    #[test]
    fn tile_dependences_unit_deps() {
        // Paper's 3-D kernel: D = {e1,e2,e3} ⇒ D^S = {e1,e2,e3}.
        let t = Tiling::rectangular(&[4, 4, 444]);
        let ds = t.tile_dependences(&DependenceSet::paper_3d());
        let got: BTreeSet<&[i64]> = ds.iter().map(|d| d.components()).collect();
        let units = DependenceSet::units(3);
        assert_eq!(got, units.iter().map(|d| d.components()).collect());
    }

    #[test]
    fn tile_dependences_fast_path_matches_generic() {
        // The per-axis rule against the generic walk: every point of
        // the origin tile's box, shifted by every dependence, lands in
        // the tile it names — kept where that is not the origin tile.
        let t = Tiling::rectangular(&[4, 3]);
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 1], vec![2, 0], vec![0, 1]]);
        let mut generic = BTreeSet::new();
        for d in deps.iter() {
            for j in IterationSpace::new(vec![0, 0], vec![3, 2]).points() {
                let shifted: Point = j.iter().zip(d.components()).map(|(a, b)| a + b).collect();
                let tile = t.tile_of(&shifted);
                if tile != [0, 0] {
                    generic.insert(tile);
                }
            }
        }
        let fast: BTreeSet<Point> = t
            .tile_dependences(&deps)
            .iter()
            .map(|d| d.components().to_vec())
            .collect();
        assert_eq!(fast, generic);
    }

    #[test]
    fn per_axis_rule_splits_each_component() {
        // Side 4: d = 6 sends 2 offsets to tile +1 and 2 to tile +2;
        // d = −1 sends 1 to tile −1 and 3 stay; side 1 moves all by d.
        let t = Tiling::rectangular(&[4, 4, 1]);
        let mut got = t.destinations(&[6, -1, 2]);
        got.sort();
        let want = vec![
            (vec![1, -1, 2], 2),
            (vec![1, 0, 2], 6),
            (vec![2, -1, 2], 2),
            (vec![2, 0, 2], 6),
        ];
        assert_eq!(got, want);
        assert_eq!(got.iter().map(|(_, n)| n).sum::<i64>(), t.volume());
    }

    #[test]
    fn tiled_space_rectangular_exact() {
        // 10000×1000 space with 10×10 tiles ⇒ 1000×100 tiles (Example 1).
        let t = Tiling::rectangular(&[10, 10]);
        let s = IterationSpace::from_extents(&[10_000, 1_000]);
        let ts = t.tiled_space(&s);
        assert_eq!(ts.lower(), &[0, 0]);
        assert_eq!(ts.upper(), &[999, 99]);
    }

    #[test]
    fn tiled_space_with_partial_tiles() {
        // Extent 11 with side 4 ⇒ tiles 0,1,2 (last one partial).
        let t = Tiling::rectangular(&[4]);
        let s = IterationSpace::from_extents(&[11]);
        let ts = t.tiled_space(&s);
        assert_eq!(ts.upper(), &[2]);
        assert_eq!(s.points().filter(|j| t.tile_of(j) == [2]).count(), 3);
    }

    #[test]
    fn error_display() {
        assert!(TilingError::Illegal { dep_index: 2 }
            .to_string()
            .contains("#2"));
    }
}
