//! Small dense integer and rational matrices.
//!
//! Tiling theory needs exact linear algebra on tiny square matrices
//! (`n` = loop-nest depth, almost always 2–4): the tile side matrix `P`
//! is integral, the tiling matrix `H = P⁻¹` is rational, determinants
//! give tile volumes (`V_comp = det P`, §2.4), and legality is the sign
//! condition `HD ≥ 0` on a rational matrix product.
//!
//! Everything here is exact: determinants use fraction-free Bareiss
//! elimination over `i128`, inverses go through the adjugate so the
//! result is an exact [`RatMatrix`].

use crate::rational::Rational;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `rows × cols` integer matrix.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IntMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IntMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix must be non-empty");
        IntMatrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = IntMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Build from a row-major nested slice.
    ///
    /// # Panics
    /// Panics if the rows are ragged or empty.
    pub fn from_rows(rows: &[&[i64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        IntMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build a square diagonal matrix from its diagonal entries.
    pub fn diagonal(diag: &[i64]) -> Self {
        let n = diag.len();
        let mut m = IntMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True iff the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The `i`-th row as a slice.
    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The `j`-th column as an owned vector.
    pub fn col(&self, j: usize) -> Vec<i64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> IntMatrix {
        let mut t = IntMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix × vector product.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        assert_eq!(self.cols, v.len(), "shape mismatch in mat-vec product");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Exact determinant by fraction-free Bareiss elimination over `i128`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn det(&self) -> i64 {
        assert!(self.is_square(), "determinant of non-square matrix");
        let n = self.rows;
        let mut a: Vec<i128> = self.data.iter().map(|&x| x as i128).collect();
        let idx = |i: usize, j: usize| i * n + j;
        let mut sign: i128 = 1;
        let mut prev: i128 = 1;
        for k in 0..n.saturating_sub(1) {
            if a[idx(k, k)] == 0 {
                // Pivot: find a row below with non-zero entry in column k.
                let Some(p) = (k + 1..n).find(|&r| a[idx(r, k)] != 0) else {
                    return 0;
                };
                for j in 0..n {
                    a.swap(idx(k, j), idx(p, j));
                }
                sign = -sign;
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let v = a[idx(i, j)] * a[idx(k, k)] - a[idx(i, k)] * a[idx(k, j)];
                    a[idx(i, j)] = v / prev;
                }
                a[idx(i, k)] = 0;
            }
            prev = a[idx(k, k)];
        }
        let d = sign * a[idx(n - 1, n - 1)];
        i64::try_from(d).expect("determinant overflows i64")
    }

    /// Minor: the matrix with row `i` and column `j` removed.
    fn minor(&self, i: usize, j: usize) -> IntMatrix {
        assert!(self.rows > 1 && self.cols > 1);
        let mut m = IntMatrix::zeros(self.rows - 1, self.cols - 1);
        let mut r = 0;
        for ri in 0..self.rows {
            if ri == i {
                continue;
            }
            let mut c = 0;
            for cj in 0..self.cols {
                if cj == j {
                    continue;
                }
                m[(r, c)] = self[(ri, cj)];
                c += 1;
            }
            r += 1;
        }
        m
    }

    /// Adjugate (classical adjoint): `adj(A)·A = det(A)·I`.
    pub fn adjugate(&self) -> IntMatrix {
        assert!(self.is_square(), "adjugate of non-square matrix");
        let n = self.rows;
        if n == 1 {
            return IntMatrix::identity(1);
        }
        let mut adj = IntMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let cof = self.minor(i, j).det();
                let sign = if (i + j) % 2 == 0 { 1 } else { -1 };
                // Adjugate is the *transpose* of the cofactor matrix.
                adj[(j, i)] = sign * cof;
            }
        }
        adj
    }

    /// Exact inverse as a rational matrix.
    ///
    /// # Panics
    /// Panics if the matrix is singular or non-square.
    pub fn inverse(&self) -> RatMatrix {
        let d = self.det();
        assert!(d != 0, "inverse of singular matrix");
        let adj = self.adjugate();
        let mut out = RatMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(i, j)] = Rational::new(adj[(i, j)] as i128, d as i128);
            }
        }
        out
    }

    /// True iff every entry is ≥ 0.
    pub fn is_nonnegative(&self) -> bool {
        self.data.iter().all(|&x| x >= 0)
    }
}

impl Index<(usize, usize)> for IntMatrix {
    type Output = i64;
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for IntMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for IntMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IntMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

/// A dense row-major matrix of exact [`Rational`] entries.
#[derive(Clone, PartialEq, Eq)]
pub struct RatMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

impl RatMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix must be non-empty");
        RatMatrix {
            rows,
            cols,
            data: vec![Rational::ZERO; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = RatMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Rational::ONE;
        }
        m
    }

    /// Build from a row-major nested slice of rationals.
    pub fn from_rows(rows: &[&[Rational]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        RatMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `i`-th row as a slice.
    pub fn row(&self, i: usize) -> &[Rational] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix × matrix product (with an integer matrix on the right).
    pub fn mul_int(&self, rhs: &IntMatrix) -> RatMatrix {
        assert_eq!(self.cols, rhs.rows(), "shape mismatch in matrix product");
        let mut out = RatMatrix::zeros(self.rows, rhs.cols());
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols() {
                    let add = a * Rational::from_int(rhs[(k, j)] as i128);
                    out[(i, j)] += add;
                }
            }
        }
        out
    }

    /// Matrix × rational matrix product.
    pub fn mul(&self, rhs: &RatMatrix) -> RatMatrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch in matrix product");
        let mut out = RatMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let add = a * rhs[(k, j)];
                    out[(i, j)] += add;
                }
            }
        }
        out
    }

    /// Matrix × integer vector product, giving exact rational coordinates.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<Rational> {
        assert_eq!(self.cols, v.len(), "shape mismatch in mat-vec product");
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v)
                    .fold(Rational::ZERO, |acc, (&a, &b)| {
                        acc + a * Rational::from_int(b as i128)
                    })
            })
            .collect()
    }

    /// Exact determinant (Laplace expansion on a common-denominator lift).
    pub fn det(&self) -> Rational {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        // Clear denominators: A = N / d where N integral (per-entry scaling
        // by the lcm of all denominators), then det A = det N / d^n.
        let mut l: i128 = 1;
        for r in &self.data {
            l = crate::rational::lcm(l, r.den());
        }
        let n = self.rows;
        let mut m = IntMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let r = self[(i, j)];
                let scaled = r.num() * (l / r.den());
                m[(i, j)] = i64::try_from(scaled).expect("entry overflows i64 after scaling");
            }
        }
        let dn = Rational::from_int(m.det() as i128);
        let mut denom = Rational::ONE;
        for _ in 0..n {
            denom = denom * Rational::from_int(l);
        }
        dn / denom
    }

    /// True iff every entry is ≥ 0. This is the tiling legality condition
    /// when applied to `H·D` (§2.3).
    pub fn is_nonnegative(&self) -> bool {
        self.data.iter().all(|r| !r.is_negative())
    }

    /// Element-wise floor, producing an integer matrix.
    pub fn floor(&self) -> IntMatrix {
        let mut out = IntMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(i, j)] = i64::try_from(self[(i, j)].floor()).expect("floor overflows i64");
            }
        }
        out
    }
}

impl Index<(usize, usize)> for RatMatrix {
    type Output = Rational;
    fn index(&self, (i, j): (usize, usize)) -> &Rational {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for RatMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Rational {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for RatMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RatMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let i3 = IntMatrix::identity(3);
        assert_eq!(i3.det(), 1);
        assert_eq!(i3.mul_vec(&[4, -5, 6]), vec![4, -5, 6]);
    }

    #[test]
    fn det_2x2() {
        let m = IntMatrix::from_rows(&[&[3, 1], &[2, 4]]);
        assert_eq!(m.det(), 10);
    }

    #[test]
    fn det_3x3() {
        let m = IntMatrix::from_rows(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 10]]);
        assert_eq!(m.det(), -3);
    }

    #[test]
    fn det_singular() {
        let m = IntMatrix::from_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(m.det(), 0);
    }

    #[test]
    fn det_with_zero_pivot_needs_row_swap() {
        let m = IntMatrix::from_rows(&[&[0, 1], &[1, 0]]);
        assert_eq!(m.det(), -1);
        let m = IntMatrix::from_rows(&[&[0, 0, 1], &[0, 1, 0], &[1, 0, 0]]);
        assert_eq!(m.det(), -1);
    }

    #[test]
    fn det_diagonal() {
        let m = IntMatrix::diagonal(&[10, 10, 444]);
        assert_eq!(m.det(), 44_400);
    }

    #[test]
    fn adjugate_identity_relation() {
        let m = IntMatrix::from_rows(&[&[2, 1, 0], &[1, 3, 1], &[0, 1, 2]]);
        let adj = m.adjugate();
        // adj(A)·A = det(A)·I, column by column.
        let d = m.det();
        for j in 0..3 {
            let mut e = vec![0; 3];
            e[j] = d;
            assert_eq!(adj.mul_vec(&m.col(j)), e);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let m = IntMatrix::from_rows(&[&[2, 1], &[1, 1]]);
        let inv = m.inverse();
        let prod = inv.mul_int(&m);
        assert_eq!(prod, RatMatrix::identity(2));
    }

    #[test]
    fn inverse_of_diagonal_tile_matrix() {
        // P = diag(10,10) ⇒ H = diag(1/10,1/10), the paper's Example 1 tiling.
        let p = IntMatrix::diagonal(&[10, 10]);
        let h = p.inverse();
        assert_eq!(h[(0, 0)], Rational::new(1, 10));
        assert_eq!(h[(1, 1)], Rational::new(1, 10));
        assert_eq!(h[(0, 1)], Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn inverse_singular_panics() {
        let m = IntMatrix::from_rows(&[&[1, 2], &[2, 4]]);
        let _ = m.inverse();
    }

    #[test]
    fn mul_vec_int() {
        let m = IntMatrix::from_rows(&[&[1, 2], &[3, 4]]);
        assert_eq!(m.mul_vec(&[5, 6]), vec![17, 39]);
    }

    #[test]
    fn mul_vec_rational_floor() {
        let p = IntMatrix::diagonal(&[10, 10]);
        let h = p.inverse();
        // Point (25, -3): tile coords = (⌊2.5⌋, ⌊-0.3⌋) = (2, -1).
        let hv = h.mul_vec(&[25, -3]);
        assert_eq!(hv[0].floor(), 2);
        assert_eq!(hv[1].floor(), -1);
    }

    #[test]
    fn transpose() {
        let m = IntMatrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(0, 1)], 4);
        assert_eq!(t[(2, 0)], 3);
    }

    #[test]
    fn rat_det() {
        let h = IntMatrix::from_rows(&[&[3, 1], &[1, 2]]).inverse();
        // det(H) = 1/det(P) = 1/5.
        assert_eq!(h.det(), Rational::new(1, 5));
    }

    #[test]
    fn rat_nonnegative() {
        let m = RatMatrix::from_rows(&[&[Rational::new(1, 2), Rational::ZERO]]);
        assert!(m.is_nonnegative());
        let m = RatMatrix::from_rows(&[&[Rational::new(-1, 2)]]);
        assert!(!m.is_nonnegative());
    }

    #[test]
    fn rat_floor_matrix() {
        let p = IntMatrix::diagonal(&[4, 4]);
        let h = p.inverse();
        let d = IntMatrix::from_rows(&[&[1, 1, 0], &[1, 0, 1]]); // columns are deps
        let hd = h.mul_int(&d);
        let f = hd.floor();
        // All deps smaller than the tile ⇒ ⌊HD⌋ = 0.
        assert_eq!(f, IntMatrix::zeros(2, 3));
    }

    #[test]
    fn row_col_access() {
        let m = IntMatrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(m.row(1), &[4, 5, 6]);
        assert_eq!(m.col(2), vec![3, 6]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = IntMatrix::identity(2);
        let _ = m[(2, 0)];
    }
}
