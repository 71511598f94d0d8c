//! Exact rational arithmetic.
//!
//! The tiling matrix `H` is the inverse of the integer side matrix `P`
//! (see §2.3 of the paper), and is in general *not* integral: for a square
//! tile of side 10, `H = diag(1/10, 1/10)`. Legality checks (`HD ≥ 0`),
//! tile-coordinate computation (`⌊Hj⌋`) and the communication-volume
//! formulas (1)–(2) all need exact arithmetic on these entries — floating
//! point would mis-round points lying exactly on tile boundaries.
//!
//! [`Rational`] is a reduced `num/den` pair over `i128`. Tiling matrices
//! for real loop nests have tiny entries (dimension ≤ 4, sides ≤ a few
//! thousand), so `i128` intermediates never overflow in practice; debug
//! builds still carry checked arithmetic through the usual operators.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Greatest common divisor (always non-negative).
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple (non-negative; `lcm(0, x) = 0`).
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        0
    } else {
        (a / gcd(a, b)).abs() * b.abs()
    }
}

/// An exact rational number `num/den`, always kept in lowest terms with
/// `den > 0`. Zero is represented canonically as `0/1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Create `num/den`, reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// The integer `n` as a rational.
    pub const fn from_int(n: i128) -> Self {
        Rational { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub const fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub const fn den(&self) -> i128 {
        self.den
    }

    /// True iff the value is zero.
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True iff the value is strictly negative.
    pub const fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Floor to the nearest integer towards −∞.
    ///
    /// This is the `⌊·⌋` used by the supernode transform `⌊Hj⌋`: it must
    /// round towards −∞ (not towards zero) so that tiles partition the
    /// index space correctly for negative coordinates too.
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Lossy conversion to `f64`, for reporting only.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n as i128)
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::from_int(n)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "division by zero rational");
        Rational::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(12, -18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(7, 13), 1);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(-4, 6), 12);
        assert_eq!(lcm(1, 1), 1);
    }

    #[test]
    fn construction_reduces() {
        let r = Rational::new(6, 8);
        assert_eq!(r.num(), 3);
        assert_eq!(r.den(), 4);
    }

    #[test]
    fn construction_normalizes_sign() {
        let r = Rational::new(3, -4);
        assert_eq!(r.num(), -3);
        assert_eq!(r.den(), 4);
        let r = Rational::new(-3, -4);
        assert_eq!(r.num(), 3);
        assert_eq!(r.den(), 4);
    }

    #[test]
    fn zero_is_canonical() {
        let r = Rational::new(0, -17);
        assert_eq!(r, Rational::ZERO);
        assert_eq!(r.den(), 1);
        assert!(r.is_zero());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn floor_rounds_towards_negative_infinity() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-1, 10).floor(), -1);
        assert_eq!(Rational::new(6, 3).floor(), 2);
        assert_eq!(Rational::ZERO.floor(), 0);
    }

    #[test]
    fn ordering_crosses_denominators() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 3) > Rational::new(-1, 2));
        assert!(Rational::new(2, 4) == Rational::new(1, 2));
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
        assert_eq!(Rational::new(-2, 3).recip(), Rational::new(-3, 2));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn predicates() {
        assert!(Rational::new(-1, 2).is_negative());
        assert!(!Rational::new(1, 2).is_negative());
        assert!(!Rational::new(1, 2).is_zero());
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 4).to_string(), "3/4");
        assert_eq!(Rational::from_int(-7).to_string(), "-7");
    }

    #[test]
    fn to_f64() {
        assert!((Rational::new(1, 4).to_f64() - 0.25).abs() < 1e-12);
    }
}
