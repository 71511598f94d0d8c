//! Uniform (constant) loop-carried dependence vectors (§2.2).
//!
//! The paper's model assumes every dependence is a constant vector
//! `d = (d_1, …, d_n)` independent of the iteration indices. A dependence
//! set `D` must be *lexicographically positive* for the original loop to
//! be sequentially valid, and the tiling assumption `⌊HD⌋ = 0` (§2.3)
//! additionally requires every vector to fit inside a single tile.

use std::fmt;

/// A single constant dependence vector.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Dependence(Vec<i64>);

impl Dependence {
    /// Create a dependence vector.
    ///
    /// # Panics
    /// Panics if empty.
    pub fn new(v: Vec<i64>) -> Self {
        assert!(!v.is_empty(), "dependence vector must be non-empty");
        Dependence(v)
    }

    /// Components of the vector.
    pub fn components(&self) -> &[i64] {
        &self.0
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Lexicographic positivity: the first non-zero component is > 0.
    /// The zero vector is *not* lexicographically positive.
    pub fn is_lex_positive(&self) -> bool {
        for &c in &self.0 {
            if c != 0 {
                return c > 0;
            }
        }
        false
    }

    /// Inner product with an integer vector (used by schedules: `Π·d`).
    pub fn dot(&self, w: &[i64]) -> i64 {
        assert_eq!(w.len(), self.dims(), "arity mismatch in dot product");
        self.0.iter().zip(w).map(|(&a, &b)| a * b).sum()
    }
}

impl fmt::Debug for Dependence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{:?}", self.0)
    }
}

impl From<Vec<i64>> for Dependence {
    fn from(v: Vec<i64>) -> Self {
        Dependence::new(v)
    }
}

/// The dependence set `D` of an algorithm — a collection of uniform
/// dependence vectors, all of the same arity.
#[derive(Clone, PartialEq, Eq)]
pub struct DependenceSet {
    dims: usize,
    vectors: Vec<Dependence>,
}

impl DependenceSet {
    /// Create a dependence set of arity `dims`. The set may start empty
    /// (a fully parallel loop nest) and be extended with [`Self::push`].
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dependence set needs ≥ 1 dimension");
        DependenceSet {
            dims,
            vectors: Vec::new(),
        }
    }

    /// Build from a list of vectors.
    ///
    /// # Panics
    /// Panics on arity mismatches.
    pub fn from_vectors(dims: usize, vectors: Vec<Vec<i64>>) -> Self {
        let mut s = DependenceSet::new(dims);
        for v in vectors {
            s.push(Dependence::new(v));
        }
        s
    }

    /// Add a vector.
    ///
    /// # Panics
    /// Panics if the vector's arity differs from the set's.
    pub fn push(&mut self, d: Dependence) {
        assert_eq!(d.dims(), self.dims, "dependence arity mismatch");
        self.vectors.push(d);
    }

    /// Dimensionality `n`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of dependence vectors `m`.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True iff the set has no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Iterate over the vectors.
    pub fn iter(&self) -> impl Iterator<Item = &Dependence> {
        self.vectors.iter()
    }

    /// The `i`-th vector.
    pub fn get(&self, i: usize) -> &Dependence {
        &self.vectors[i]
    }

    /// The unit dependence set `{e_1, …, e_n}` — the structure of a tiled
    /// space whose tiles fully contain the original dependences (§2.3).
    pub fn units(dims: usize) -> Self {
        let mut s = DependenceSet::new(dims);
        for i in 0..dims {
            let mut v = vec![0; dims];
            v[i] = 1;
            s.push(Dependence::new(v));
        }
        s
    }

    /// The dependence set of the paper's 3-D experimental kernel
    /// `A(i,j,k) = √A(i−1,j,k) + √A(i,j−1,k) + √A(i,j,k−1)`.
    pub fn paper_3d() -> Self {
        DependenceSet::from_vectors(3, vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]])
    }

    /// The dependence set of Example 1 (§3):
    /// `A(i1,i2) = A(i1−1,i2−1) + A(i1−1,i2) + A(i1,i2−1)`.
    pub fn example_1() -> Self {
        DependenceSet::from_vectors(2, vec![vec![1, 1], vec![1, 0], vec![0, 1]])
    }
}

impl fmt::Debug for DependenceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{:?}", self.vectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_positive() {
        assert!(Dependence::new(vec![1, -5]).is_lex_positive());
        assert!(Dependence::new(vec![0, 1]).is_lex_positive());
        assert!(!Dependence::new(vec![0, 0]).is_lex_positive());
        assert!(!Dependence::new(vec![-1, 3]).is_lex_positive());
        assert!(!Dependence::new(vec![0, -1]).is_lex_positive());
    }

    #[test]
    fn dot_product() {
        let d = Dependence::new(vec![1, 2, 3]);
        assert_eq!(d.dot(&[1, 1, 1]), 6);
        assert_eq!(d.dot(&[2, 0, -1]), -1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn dot_arity_mismatch() {
        Dependence::new(vec![1, 2]).dot(&[1]);
    }

    #[test]
    fn set_construction_and_queries() {
        let d = DependenceSet::example_1();
        assert_eq!(d.dims(), 2);
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(0).components(), &[1, 1]);
    }

    #[test]
    fn paper_3d_is_unit_basis() {
        let d = DependenceSet::paper_3d();
        assert_eq!(d.len(), 3);
        let u = DependenceSet::units(3);
        assert_eq!(d, u);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn push_arity_mismatch_panics() {
        let mut s = DependenceSet::new(2);
        s.push(Dependence::new(vec![1, 2, 3]));
    }

    #[test]
    fn units_structure() {
        let u = DependenceSet::units(4);
        assert_eq!(u.len(), 4);
        for (i, d) in u.iter().enumerate() {
            for (j, &c) in d.components().iter().enumerate() {
                assert_eq!(c, i64::from(i == j));
            }
        }
    }

    #[test]
    fn empty_set() {
        let d = DependenceSet::new(3);
        assert!(d.is_empty());
    }
}
