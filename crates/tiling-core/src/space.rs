//! Rectangular iteration spaces `J^n` (§2.2 of the paper).
//!
//! The paper's algorithm model restricts iteration sets to multidimensional
//! rectangles: `J^n = { j | l_i ≤ j_i ≤ u_i }` with constant integer bounds.
//! [`IterationSpace`] captures exactly that, plus iteration utilities used
//! by the brute-force oracles in tests (full point enumeration) and by the
//! tiled-space construction.

use std::fmt;

/// A point of an `n`-dimensional integer space.
pub type Point = Vec<i64>;

/// A rectangular (parallelepiped) iteration space with inclusive bounds.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IterationSpace {
    lower: Vec<i64>,
    upper: Vec<i64>,
}

impl IterationSpace {
    /// Create a space from inclusive lower and upper bounds.
    ///
    /// # Panics
    /// Panics if the bound vectors differ in length, are empty, or if any
    /// `lower[i] > upper[i]` (empty spaces are not representable — the
    /// paper's loops always execute at least one iteration per dimension).
    pub fn new(lower: Vec<i64>, upper: Vec<i64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bound arity mismatch");
        assert!(!lower.is_empty(), "iteration space must have ≥ 1 dimension");
        for (i, (&l, &u)) in lower.iter().zip(&upper).enumerate() {
            assert!(l <= u, "empty extent in dimension {i}: {l} > {u}");
        }
        IterationSpace { lower, upper }
    }

    /// A space `[0, extent_i - 1]` in every dimension — the common case for
    /// loops normalized to start at zero.
    ///
    /// # Panics
    /// Panics if any extent is zero or negative.
    pub fn from_extents(extents: &[i64]) -> Self {
        let lower = vec![0; extents.len()];
        let upper = extents
            .iter()
            .map(|&e| {
                assert!(e > 0, "extent must be positive");
                e - 1
            })
            .collect();
        IterationSpace::new(lower, upper)
    }

    /// Dimensionality `n`.
    pub fn dims(&self) -> usize {
        self.lower.len()
    }

    /// Inclusive lower bounds `l`.
    pub fn lower(&self) -> &[i64] {
        &self.lower
    }

    /// Inclusive upper bounds `u`.
    pub fn upper(&self) -> &[i64] {
        &self.upper
    }

    /// Extent (number of points) along dimension `d`.
    pub fn extent(&self, d: usize) -> i64 {
        self.upper[d] - self.lower[d] + 1
    }

    /// All extents.
    pub fn extents(&self) -> Vec<i64> {
        (0..self.dims()).map(|d| self.extent(d)).collect()
    }

    /// Total number of points (`Π extents`), saturating at `u64::MAX`.
    pub fn volume(&self) -> u64 {
        self.extents()
            .iter()
            .fold(1u64, |acc, &e| acc.saturating_mul(e as u64))
    }

    /// The dimension with the largest extent — the paper maps all tiles
    /// along this dimension to the same processor (§4). Ties resolve to the
    /// lowest index, matching the paper's choice of the k axis only because
    /// its extent strictly dominates in all three experiments.
    pub fn longest_dimension(&self) -> usize {
        let mut best = 0;
        for d in 1..self.dims() {
            if self.extent(d) > self.extent(best) {
                best = d;
            }
        }
        best
    }

    /// True iff `p` lies inside the space.
    pub fn contains(&self, p: &[i64]) -> bool {
        p.len() == self.dims()
            && p.iter()
                .zip(self.lower.iter().zip(&self.upper))
                .all(|(&x, (&l, &u))| l <= x && x <= u)
    }

    /// Lexicographic iterator over every point. Intended for tests and
    /// small oracles — real executions go through tiles, never points.
    pub fn points(&self) -> PointIter {
        PointIter {
            space: self.clone(),
            next: Some(self.lower.clone()),
        }
    }
}

impl fmt::Debug for IterationSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J^{}{{", self.dims())?;
        for d in 0..self.dims() {
            if d > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}..={}", self.lower[d], self.upper[d])?;
        }
        write!(f, "}}")
    }
}

/// Lexicographic point iterator (last dimension fastest).
pub struct PointIter {
    space: IterationSpace,
    next: Option<Point>,
}

impl Iterator for PointIter {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let cur = self.next.take()?;
        // Advance like an odometer from the last dimension.
        let mut succ = cur.clone();
        let mut d = self.space.dims();
        loop {
            if d == 0 {
                self.next = None;
                break;
            }
            d -= 1;
            if succ[d] < self.space.upper[d] {
                succ[d] += 1;
                self.next = Some(succ);
                break;
            }
            succ[d] = self.space.lower[d];
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_extents_zero_based() {
        let s = IterationSpace::from_extents(&[3, 5]);
        assert_eq!(s.lower(), &[0, 0]);
        assert_eq!(s.upper(), &[2, 4]);
        assert_eq!(s.volume(), 15);
    }

    #[test]
    fn explicit_bounds() {
        let s = IterationSpace::new(vec![-2, 1], vec![2, 1]);
        assert_eq!(s.extent(0), 5);
        assert_eq!(s.extent(1), 1);
        assert_eq!(s.volume(), 5);
    }

    #[test]
    #[should_panic(expected = "empty extent")]
    fn empty_extent_panics() {
        let _ = IterationSpace::new(vec![3], vec![2]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let _ = IterationSpace::new(vec![0, 0], vec![5]);
    }

    #[test]
    fn longest_dimension_paper_experiments() {
        // All three spaces in §5 map along k (dimension 2).
        assert_eq!(
            IterationSpace::from_extents(&[16, 16, 16384]).longest_dimension(),
            2
        );
        assert_eq!(
            IterationSpace::from_extents(&[16, 16, 32768]).longest_dimension(),
            2
        );
        assert_eq!(
            IterationSpace::from_extents(&[32, 32, 4096]).longest_dimension(),
            2
        );
    }

    #[test]
    fn longest_dimension_tie_breaks_low() {
        assert_eq!(IterationSpace::from_extents(&[7, 7]).longest_dimension(), 0);
    }

    #[test]
    fn contains() {
        let s = IterationSpace::from_extents(&[4, 4]);
        assert!(s.contains(&[0, 0]));
        assert!(s.contains(&[3, 3]));
        assert!(!s.contains(&[4, 0]));
        assert!(!s.contains(&[0, -1]));
        assert!(!s.contains(&[0]));
    }

    #[test]
    fn points_enumerates_lexicographically() {
        let s = IterationSpace::from_extents(&[2, 3]);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn points_count_matches_volume() {
        let s = IterationSpace::new(vec![-1, 2, 0], vec![1, 3, 1]);
        assert_eq!(s.points().count() as u64, s.volume());
    }

    #[test]
    fn single_point_space() {
        let s = IterationSpace::new(vec![5], vec![5]);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.points().collect::<Vec<_>>(), vec![vec![5]]);
    }

    #[test]
    fn debug_format() {
        let s = IterationSpace::from_extents(&[2, 3]);
        assert_eq!(format!("{s:?}"), "J^2{0..=1, 0..=2}");
    }
}
