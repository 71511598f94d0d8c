//! Property-based tests of the exact arithmetic layer: rational field
//! laws and matrix algebra identities. These underpin every legality and
//! cost computation in the library, so they get their own adversarial
//! suite.

use proptest::prelude::*;
use tiling_core::matrix::IntMatrix;
use tiling_core::prelude::*;

fn rational() -> impl Strategy<Value = Rational> {
    (-1000i128..=1000, 1i128..=1000).prop_map(|(n, d)| Rational::new(n, d))
}

fn nonzero_rational() -> impl Strategy<Value = Rational> {
    rational().prop_filter("non-zero", |r| !r.is_zero())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rational_field_laws(a in rational(), b in rational(), c in rational()) {
        // Commutativity.
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        // Associativity.
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        // Distributivity.
        prop_assert_eq!(a * (b + c), a * b + a * c);
        // Identities and inverses.
        prop_assert_eq!(a + Rational::ZERO, a);
        prop_assert_eq!(a * Rational::ONE, a);
        prop_assert_eq!(a + (-a), Rational::ZERO);
    }

    #[test]
    fn rational_division_inverts_multiplication(a in rational(), b in nonzero_rational()) {
        prop_assert_eq!((a / b) * b, a);
        prop_assert_eq!(b * b.recip(), Rational::ONE);
    }

    #[test]
    fn rational_floor_sandwich(a in rational()) {
        let f = a.floor();
        prop_assert!(Rational::from_int(f) <= a);
        prop_assert!(a < Rational::from_int(f + 1));
    }

    #[test]
    fn rational_ordering_total_and_compatible(a in rational(), b in rational(), c in rational()) {
        // Trichotomy via Ord; addition preserves order.
        if a < b {
            prop_assert!(a + c < b + c);
        }
        // Multiplication by positive preserves order.
        if a < b && c > Rational::ZERO {
            prop_assert!(a * c < b * c);
        }
    }
}

fn small_matrix(n: usize) -> impl Strategy<Value = IntMatrix> {
    prop::collection::vec(-5i64..=5, n * n).prop_map(move |v| {
        let rows: Vec<&[i64]> = v.chunks(n).collect();
        IntMatrix::from_rows(&rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// det(AB) = det(A)·det(B) for 3×3.
    #[test]
    fn det_is_multiplicative(a in small_matrix(3), b in small_matrix(3)) {
        // Row j of (AB)ᵀ is A times column j of B; det((AB)ᵀ) = det(AB).
        let ab_t: Vec<Vec<i64>> = (0..3).map(|j| a.mul_vec(&b.col(j))).collect();
        let rows: Vec<&[i64]> = ab_t.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(IntMatrix::from_rows(&rows).det(), a.det() * b.det());
    }

    /// det(Aᵀ) = det(A).
    #[test]
    fn det_transpose_invariant(a in small_matrix(3)) {
        prop_assert_eq!(a.transpose().det(), a.det());
    }

    /// adj(A)·A = det(A)·I, column by column.
    #[test]
    fn adjugate_identity(a in small_matrix(3)) {
        let d = a.det();
        let adj = a.adjugate();
        for j in 0..3 {
            let col = adj.mul_vec(&a.col(j));
            for (i, &x) in col.iter().enumerate() {
                prop_assert_eq!(x, if i == j { d } else { 0 });
            }
        }
    }

    /// A⁻¹·A = I exactly (rational) for non-singular A.
    #[test]
    fn inverse_roundtrip(a in small_matrix(3)) {
        prop_assume!(a.det() != 0);
        let inv = a.inverse();
        prop_assert_eq!(inv.mul_int(&a), tiling_core::matrix::RatMatrix::identity(3));
    }

    /// Mat-vec distributes over vector addition.
    #[test]
    fn mul_vec_linear(a in small_matrix(3),
                      x in prop::collection::vec(-9i64..=9, 3),
                      y in prop::collection::vec(-9i64..=9, 3)) {
        let sum: Vec<i64> = x.iter().zip(&y).map(|(&p, &q)| p + q).collect();
        let ax = a.mul_vec(&x);
        let ay = a.mul_vec(&y);
        let asum = a.mul_vec(&sum);
        for i in 0..3 {
            prop_assert_eq!(asum[i], ax[i] + ay[i]);
        }
    }
}
