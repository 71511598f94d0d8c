//! The paper's algorithm model (§2.1): perfectly nested FOR-loops with
//! constant bounds and assignment statements over uniformly-indexed arrays.
//!
//! ```text
//! FOR i_1 = l_1 TO u_1 DO
//!   ...
//!   FOR i_n = l_n TO u_n DO
//!     AS_1(i) … AS_k(i)
//!   ENDFOR
//! ENDFOR
//! ```
//!
//! Each statement is `V_0[i] = E(V_1[i + c_1], …, V_l[i + c_l])` with
//! constant offsets `c_j`. A *flow* dependence arises from a read at offset
//! `c` (reading `V[i + c]`, written at iteration `i + c`): the dependence
//! vector is `−c` and must be lexicographically positive (i.e. reads look
//! strictly "backwards"). [`LoopNest::dependences`] extracts the set and
//! deduplicates it, exactly what a tiling front-end would feed the rest of
//! the library.

use crate::dependence::{Dependence, DependenceSet};
use crate::space::IterationSpace;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of an array variable (`V_0`, `V_1`, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArrayId(pub usize);

/// A uniform array access `V[i + offset]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Access {
    /// The array being accessed.
    pub array: ArrayId,
    /// Constant offset added to the iteration vector.
    pub offset: Vec<i64>,
}

impl Access {
    /// An access `array[i + offset]`.
    pub fn new(array: ArrayId, offset: Vec<i64>) -> Self {
        Access { array, offset }
    }

    /// The identity access `array[i]`.
    pub fn at(array: ArrayId, dims: usize) -> Self {
        Access {
            array,
            offset: vec![0; dims],
        }
    }
}

/// An assignment statement `write = E(reads…)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Statement {
    /// The output access `V_0[i + c_w]` (usually `c_w = 0`).
    pub write: Access,
    /// The input accesses `V_j[i + c_j]`.
    pub reads: Vec<Access>,
}

impl Statement {
    /// Create a statement.
    pub fn new(write: Access, reads: Vec<Access>) -> Self {
        Statement { write, reads }
    }
}

/// Errors produced while validating a loop nest.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LoopNestError {
    /// An access has an offset of the wrong arity.
    ArityMismatch {
        /// Expected arity (loop depth).
        expected: usize,
        /// Found arity.
        found: usize,
    },
    /// A dependence extracted from the accesses is not lexicographically
    /// positive, so the sequential loop would read a value not yet written.
    NotLexPositive(Vec<i64>),
}

impl fmt::Display for LoopNestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopNestError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "access arity {found} does not match loop depth {expected}"
                )
            }
            LoopNestError::NotLexPositive(v) => {
                write!(f, "dependence {v:?} is not lexicographically positive")
            }
        }
    }
}

impl std::error::Error for LoopNestError {}

/// A perfectly nested loop with constant bounds and a statement body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LoopNest {
    space: IterationSpace,
    statements: Vec<Statement>,
}

impl LoopNest {
    /// Create a loop nest; validates access arities against the loop depth.
    pub fn new(space: IterationSpace, statements: Vec<Statement>) -> Result<Self, LoopNestError> {
        let n = space.dims();
        for st in &statements {
            for acc in std::iter::once(&st.write).chain(&st.reads) {
                if acc.offset.len() != n {
                    return Err(LoopNestError::ArityMismatch {
                        expected: n,
                        found: acc.offset.len(),
                    });
                }
            }
        }
        Ok(LoopNest { space, statements })
    }

    /// The iteration space `J^n`.
    pub fn space(&self) -> &IterationSpace {
        &self.space
    }

    /// The statement body.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// Extract the uniform flow-dependence set.
    ///
    /// For a read `V[i + c]` of an array written as `V[i + w]` (same array,
    /// any statement), iteration `i` depends on iteration `i + c − w`; the
    /// dependence vector is `w − c`. Zero vectors (same-iteration flow, e.g.
    /// reading your own write) are dropped; duplicates are deduplicated.
    ///
    /// Returns an error if any extracted vector is not lexicographically
    /// positive — the loop as written would not be sequentially valid under
    /// the paper's model.
    pub fn dependences(&self) -> Result<DependenceSet, LoopNestError> {
        let n = self.space.dims();
        let mut seen: BTreeSet<Vec<i64>> = BTreeSet::new();
        for st in &self.statements {
            for read in &st.reads {
                // Match this read against every write of the same array.
                for wst in &self.statements {
                    if wst.write.array != read.array {
                        continue;
                    }
                    let d: Vec<i64> = (0..n)
                        .map(|k| wst.write.offset[k] - read.offset[k])
                        .collect();
                    if d.iter().all(|&x| x == 0) {
                        continue;
                    }
                    seen.insert(d);
                }
            }
        }
        let mut set = DependenceSet::new(n);
        for v in seen {
            let d = Dependence::new(v.clone());
            if !d.is_lex_positive() {
                return Err(LoopNestError::NotLexPositive(v));
            }
            set.push(d);
        }
        Ok(set)
    }

    /// Example 1 of the paper (§3): the 10000×1000 2-D loop
    /// `A(i1,i2) = A(i1−1,i2−1) + A(i1−1,i2) + A(i1,i2−1)`.
    #[allow(clippy::expect_used)] // LINT: fixed accesses of the right arity, all lex-positive
    pub fn example_1() -> Self {
        let a = ArrayId(0);
        let st = Statement::new(
            Access::at(a, 2),
            vec![
                Access::new(a, vec![-1, -1]),
                Access::new(a, vec![-1, 0]),
                Access::new(a, vec![0, -1]),
            ],
        );
        LoopNest::new(IterationSpace::from_extents(&[10_000, 1_000]), vec![st])
            .expect("example 1 is well-formed")
    }

    /// The paper's 3-D experimental kernel (§5) on a given space:
    /// `A(i,j,k) = √A(i−1,j,k) + √A(i,j−1,k) + √A(i,j,k−1)`.
    #[allow(clippy::expect_used)] // LINT: fixed accesses of the right arity, all lex-positive
    pub fn paper_3d(extents: &[i64; 3]) -> Self {
        let a = ArrayId(0);
        let st = Statement::new(
            Access::at(a, 3),
            vec![
                Access::new(a, vec![-1, 0, 0]),
                Access::new(a, vec![0, -1, 0]),
                Access::new(a, vec![0, 0, -1]),
            ],
        );
        LoopNest::new(IterationSpace::from_extents(extents), vec![st])
            .expect("paper 3-D kernel is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_1_dependences() {
        let nest = LoopNest::example_1();
        let d = nest.dependences().unwrap();
        assert_eq!(d.len(), 3);
        let vecs: Vec<_> = d.iter().map(|x| x.components().to_vec()).collect();
        assert!(vecs.contains(&vec![1, 1]));
        assert!(vecs.contains(&vec![1, 0]));
        assert!(vecs.contains(&vec![0, 1]));
    }

    #[test]
    fn paper_3d_dependences_are_units() {
        let nest = LoopNest::paper_3d(&[16, 16, 16384]);
        let d = nest.dependences().unwrap();
        let got: std::collections::BTreeSet<Vec<i64>> =
            d.iter().map(|x| x.components().to_vec()).collect();
        let want: std::collections::BTreeSet<Vec<i64>> = DependenceSet::units(3)
            .iter()
            .map(|x| x.components().to_vec())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn arity_validation() {
        let a = ArrayId(0);
        let st = Statement::new(Access::at(a, 3), vec![Access::new(a, vec![-1, 0])]);
        let err = LoopNest::new(IterationSpace::from_extents(&[4, 4, 4]), vec![st]).unwrap_err();
        assert_eq!(
            err,
            LoopNestError::ArityMismatch {
                expected: 3,
                found: 2
            }
        );
    }

    #[test]
    fn forward_read_rejected() {
        // Reading A(i+1, j) means a negative dependence (−1, 0): invalid.
        let a = ArrayId(0);
        let st = Statement::new(Access::at(a, 2), vec![Access::new(a, vec![1, 0])]);
        let nest = LoopNest::new(IterationSpace::from_extents(&[4, 4]), vec![st]).unwrap();
        assert!(matches!(
            nest.dependences(),
            Err(LoopNestError::NotLexPositive(_))
        ));
    }

    #[test]
    fn independent_arrays_no_dependence() {
        // B[i] = A[i-1]: reads a *different* array, so no flow dependence
        // on B; and A is never written, so none on A either.
        let a = ArrayId(0);
        let b = ArrayId(1);
        let st = Statement::new(Access::at(b, 1), vec![Access::new(a, vec![-1])]);
        let nest = LoopNest::new(IterationSpace::from_extents(&[10]), vec![st]).unwrap();
        assert!(nest.dependences().unwrap().is_empty());
    }

    #[test]
    fn duplicate_dependences_deduplicated() {
        // Two reads at the same offset give one dependence vector.
        let a = ArrayId(0);
        let st = Statement::new(
            Access::at(a, 2),
            vec![Access::new(a, vec![-1, 0]), Access::new(a, vec![-1, 0])],
        );
        let nest = LoopNest::new(IterationSpace::from_extents(&[4, 4]), vec![st]).unwrap();
        assert_eq!(nest.dependences().unwrap().len(), 1);
    }

    #[test]
    fn multi_statement_cross_dependences() {
        // AS1: X[i] = Y[i-2];  AS2: Y[i] = X[i-1].
        let x = ArrayId(0);
        let y = ArrayId(1);
        let st1 = Statement::new(Access::at(x, 1), vec![Access::new(y, vec![-2])]);
        let st2 = Statement::new(Access::at(y, 1), vec![Access::new(x, vec![-1])]);
        let nest = LoopNest::new(IterationSpace::from_extents(&[10]), vec![st1, st2]).unwrap();
        let d = nest.dependences().unwrap();
        let vecs: Vec<_> = d.iter().map(|v| v.components().to_vec()).collect();
        assert!(vecs.contains(&vec![2]));
        assert!(vecs.contains(&vec![1]));
    }

    #[test]
    fn same_iteration_flow_dropped() {
        // A[i] then read A[i]: zero vector must not appear.
        let a = ArrayId(0);
        let st = Statement::new(Access::at(a, 1), vec![Access::at(a, 1)]);
        let nest = LoopNest::new(IterationSpace::from_extents(&[5]), vec![st]).unwrap();
        assert!(nest.dependences().unwrap().is_empty());
    }

    #[test]
    fn error_display() {
        let e = LoopNestError::NotLexPositive(vec![-1, 0]);
        assert!(e.to_string().contains("lexicographically"));
    }
}
