//! Simulation time.
//!
//! Simulated time is kept in integer **nanoseconds** so the event queue
//! has a total order with no floating-point tie ambiguity; the paper's
//! quantities (µs, ms, s) convert losslessly at the boundaries.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Why a floating-point duration cannot become a [`SimTime`].
///
/// Before this type, `SimTime::from_us` silently **saturated** huge
/// inputs (`(us * 1_000.0) as u64` clamps at `u64::MAX`), so an
/// extreme sweep cost model produced a quietly-wrong makespan instead
/// of an error. The checked constructors below surface all three
/// failure modes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimeError {
    /// NaN or ±∞ microseconds.
    NonFinite(f64),
    /// Negative microseconds (durations are magnitudes).
    Negative(f64),
    /// The duration exceeds `u64::MAX` nanoseconds (~584 years).
    Overflow(f64),
}

impl fmt::Display for TimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeError::NonFinite(us) => write!(f, "non-finite duration: {us} µs"),
            TimeError::Negative(us) => write!(f, "negative duration: {us} µs"),
            TimeError::Overflow(us) => {
                write!(f, "duration overflows u64 nanoseconds: {us} µs")
            }
        }
    }
}

impl std::error::Error for TimeError {}

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time (`u64::MAX` nanoseconds).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Checked conversion from microseconds, rounding to nanoseconds.
    ///
    /// Rejects NaN/∞, negative values and anything whose nanosecond
    /// count does not fit in `u64` — the failure modes the panicking
    /// [`SimTime::from_us`] used to saturate or abort on.
    pub fn try_from_us(us: f64) -> Result<Self, TimeError> {
        if !us.is_finite() {
            return Err(TimeError::NonFinite(us));
        }
        if us < 0.0 {
            return Err(TimeError::Negative(us));
        }
        let ns = (us * 1_000.0).round();
        // `u64::MAX as f64` rounds up to 2^64; any finite f64 strictly
        // below it is exactly representable as a u64.
        if ns >= u64::MAX as f64 {
            return Err(TimeError::Overflow(us));
        }
        Ok(SimTime(ns as u64))
    }

    /// From (non-negative, finite) microseconds, rounding to nanoseconds.
    ///
    /// # Panics
    /// Panics on negative, NaN, non-finite or overflowing input; use
    /// [`SimTime::try_from_us`] where the input is untrusted.
    pub fn from_us(us: f64) -> Self {
        match Self::try_from_us(us) {
            Ok(t) => t,
            Err(e) => panic!("invalid duration: {e}"),
        }
    }

    /// Checked addition; `None` when the sum exceeds [`SimTime::MAX`].
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Nanoseconds since start.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Microseconds since start.
    pub fn as_us(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since start.
    pub fn as_secs(&self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<SimTime> for SimTime {
    type Output = SimTime;
    // LINT: `Add` has no error channel: a sum past `SimTime::MAX`
    // panics like `u64` overflow; fallible callers use `checked_add`.
    #[allow(clippy::expect_used)]
    fn add(self, rhs: SimTime) -> SimTime {
        self.checked_add(rhs).expect("sim time overflow")
    }
}

impl AddAssign<SimTime> for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimTime;
    // LINT: `Sub` has no error channel: a negative duration panics
    // like `u64` underflow.
    #[allow(clippy::expect_used)]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("negative sim duration"))
    }
}

fn fmt_human(t: &SimTime, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let us = t.as_us();
    if us >= 1_000_000.0 {
        write!(f, "{:.4}s", t.as_secs())
    } else if us >= 1_000.0 {
        write!(f, "{:.3}ms", us / 1_000.0)
    } else {
        write!(f, "{us:.3}µs")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_human(self, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_human(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_us(123.456);
        assert_eq!(t.as_nanos(), 123_456);
        assert!((t.as_us() - 123.456).abs() < 1e-9);
        assert!((t.as_secs() - 123.456e-6).abs() < 1e-15);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(40);
        assert_eq!(a + b, SimTime::from_nanos(140));
        assert_eq!(a - b, SimTime::from_nanos(60));
        assert_eq!(a.max(b), a);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_nanos(140));
    }

    #[test]
    #[should_panic(expected = "negative sim duration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_us_panics() {
        let _ = SimTime::from_us(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_nanos(5),
            SimTime::ZERO,
            SimTime::from_nanos(3),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_nanos(5));
    }

    #[test]
    fn checked_conversion_boundaries() {
        // Largest whole-µs value that still fits: u64::MAX ns ≈
        // 1.8446744e13 µs. One safe decade below converts cleanly...
        let big_ok = 1.0e12_f64;
        let t = SimTime::try_from_us(big_ok).expect("fits in u64 nanos");
        assert_eq!(t.as_nanos(), 1_000_000_000_000_000);
        // ...while anything at or past 2^64 ns errors instead of
        // saturating (the old `as u64` clamped to u64::MAX here).
        let over = (u64::MAX as f64) / 1_000.0 * 2.0;
        assert_eq!(SimTime::try_from_us(over), Err(TimeError::Overflow(over)));
        assert_eq!(
            SimTime::try_from_us(f64::INFINITY),
            Err(TimeError::NonFinite(f64::INFINITY))
        );
        assert_eq!(SimTime::try_from_us(-0.5), Err(TimeError::Negative(-0.5)));
        assert!(matches!(
            SimTime::try_from_us(f64::NAN),
            Err(TimeError::NonFinite(_))
        ));
        assert_eq!(SimTime::try_from_us(0.0), Ok(SimTime::ZERO));
    }

    #[test]
    fn checked_add_boundaries() {
        let almost = SimTime::from_nanos(u64::MAX - 1);
        let one = SimTime::from_nanos(1);
        assert_eq!(almost.checked_add(one), Some(SimTime::MAX));
        assert_eq!(SimTime::MAX.checked_add(one), None);
        assert_eq!(SimTime::MAX.checked_add(SimTime::ZERO), Some(SimTime::MAX));
    }

    #[test]
    #[should_panic(expected = "sim time overflow")]
    fn add_overflow_panics() {
        let _ = SimTime::MAX + SimTime::from_nanos(1);
    }

    #[test]
    #[should_panic(expected = "overflows u64 nanoseconds")]
    fn from_us_overflow_panics() {
        let _ = SimTime::from_us(1.0e18);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", SimTime::from_us(1.5)), "1.500µs");
        assert_eq!(format!("{}", SimTime::from_us(2500.0)), "2.500ms");
        assert_eq!(format!("{}", SimTime::from_us(3_000_000.0)), "3.0000s");
    }
}
