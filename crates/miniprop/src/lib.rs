//! # miniprop — offline property-testing facade
//!
//! A dependency-free stand-in for the subset of the [`proptest`] API this
//! workspace uses. The build environment has no network access to a crates
//! registry, so the workspace maps `proptest = { package = "miniprop" }`
//! onto this crate; the existing property-test suites compile unchanged.
//!
//! Supported surface:
//!
//! - `proptest! { #![proptest_config(..)] fn name(pat in strategy, ..) { .. } }`
//! - `prop_assert!`, `prop_assert_eq!`, `prop_assume!`, `prop_oneof!`
//! - integer / float range strategies, tuple strategies (arity 1–6),
//!   `Just`, `prop::collection::vec`, `any::<bool>()`, `proptest::bool::ANY`
//! - combinators `prop_map`, `prop_filter`, `prop_filter_map`, `prop_flat_map`
//! - `ProptestConfig::with_cases`, `TestCaseError::{fail, reject}`
//!
//! Generation is a deterministic SplitMix64 stream seeded from the test
//! name, so failures reproduce across runs. There is **no shrinking**: a
//! failing case panics with its seed and the assertion message.
//!
//! [`proptest`]: https://docs.rs/proptest

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod test_runner {
    //! Case driver: configuration, error type and the deterministic RNG.

    /// Run-time configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case was rejected (filter/`prop_assume!`); it does not count
        /// toward the required number of successes.
        Reject(String),
        /// The case failed an assertion; the whole test fails.
        Fail(String),
    }

    impl TestCaseError {
        /// A hard failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection (the runner retries with fresh randomness).
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
                TestCaseError::Fail(m) => write!(f, "failed: {m}"),
            }
        }
    }

    /// Result alias used by generated test bodies.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic SplitMix64 generator.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeded generator; the same seed replays the same case.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next 64 raw bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)` with 53 bits of precision.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `[0, n)`; returns 0 when `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Drive one `proptest!`-generated test: repeatedly generate inputs and
    /// run `case` until `cfg.cases` successes. Rejections retry (bounded);
    /// the first failure panics with the seed for reproduction.
    pub fn run(name: &str, cfg: &Config, mut case: impl FnMut(&mut TestRng) -> TestCaseResult) {
        let base = fnv1a(name.as_bytes()) ^ 0xD6E8_FEB8_6659_FD93;
        let mut successes: u32 = 0;
        let mut attempts: u64 = 0;
        let max_attempts = u64::from(cfg.cases) * 64 + 1024;
        while successes < cfg.cases && attempts < max_attempts {
            attempts += 1;
            let seed = base.wrapping_add(attempts.wrapping_mul(0xA076_1D64_78BD_642F));
            let mut rng = TestRng::new(seed);
            match case(&mut rng) {
                Ok(()) => successes += 1,
                Err(TestCaseError::Reject(_)) => continue,
                Err(TestCaseError::Fail(msg)) => panic!(
                    "proptest '{name}' failed after {successes} passing case(s) \
                     (seed {seed:#018x}): {msg}"
                ),
            }
        }
        if successes < cfg.cases {
            panic!(
                "proptest '{name}': too many rejected cases \
                 ({successes}/{} passed in {attempts} attempts)",
                cfg.cases
            );
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait plus the concrete strategies and combinators.

    use crate::test_runner::TestRng;

    /// Marker returned when a strategy (or filter) could not produce a value.
    #[derive(Debug, Clone, Copy)]
    pub struct Reject;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value, or reject the case.
        fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Reject>;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Keep only values for which `pred` holds (bounded retries).
        fn prop_filter<F>(self, _whence: impl Into<String>, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, pred }
        }

        /// Combined filter + map: keep `Some` results (bounded retries).
        fn prop_filter_map<O, F>(self, _whence: impl Into<String>, f: F) -> FilterMap<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> Option<O>,
        {
            FilterMap { inner: self, f }
        }

        /// Generate a value, then generate from the strategy it maps to.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> Result<T, Reject> {
            Ok(self.0.clone())
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> Result<O, Reject> {
            self.inner.generate(rng).map(&self.f)
        }
    }

    const FILTER_RETRIES: usize = 128;

    /// See [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        inner: S,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Result<S::Value, Reject> {
            for _ in 0..FILTER_RETRIES {
                if let Ok(v) = self.inner.generate(rng) {
                    if (self.pred)(&v) {
                        return Ok(v);
                    }
                }
            }
            Err(Reject)
        }
    }

    /// See [`Strategy::prop_filter_map`].
    #[derive(Debug, Clone)]
    pub struct FilterMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for FilterMap<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> Option<O>,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> Result<O, Reject> {
            for _ in 0..FILTER_RETRIES {
                if let Ok(v) = self.inner.generate(rng) {
                    if let Some(o) = (self.f)(v) {
                        return Ok(o);
                    }
                }
            }
            Err(Reject)
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> Result<S2::Value, Reject> {
            let first = self.inner.generate(rng)?;
            (self.f)(first).generate(rng)
        }
    }

    trait DynStrategy<V> {
        fn generate_dyn(&self, rng: &mut TestRng) -> Result<V, Reject>;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> Result<S::Value, Reject> {
            self.generate(rng)
        }
    }

    /// A type-erased strategy (see [`Strategy::boxed`]).
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> Result<V, Reject> {
            self.0.generate_dyn(rng)
        }
    }

    /// Uniform choice among boxed alternatives (used by `prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Build a union over a non-empty arm list.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> Result<V, Reject> {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> Result<$t, Reject> {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                    let off = u128::from(rng.next_u64()) % span;
                    Ok(((self.start as i128) + off as i128) as $t)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> Result<$t, Reject> {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty integer range strategy");
                    let span = (hi as i128).wrapping_sub(lo as i128) as u128 + 1;
                    let off = u128::from(rng.next_u64()) % span;
                    Ok(((lo as i128) + off as i128) as $t)
                }
            }
        )*};
    }

    int_range_strategies!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, usize);

    macro_rules! float_range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> Result<$t, Reject> {
                    assert!(self.start < self.end, "empty float range strategy");
                    let unit = rng.next_f64() as $t;
                    Ok(self.start + unit * (self.end - self.start))
                }
            }
        )*};
    }

    float_range_strategies!(f32, f64);

    macro_rules! tuple_strategies {
        ($($S:ident . $v:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Result<Self::Value, Reject> {
                    Ok(($(self.$v.generate(rng)?,)+))
                }
            }
        };
    }

    tuple_strategies!(A.0);
    tuple_strategies!(A.0, B.1);
    tuple_strategies!(A.0, B.1, C.2);
    tuple_strategies!(A.0, B.1, C.2, D.3);
    tuple_strategies!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategies!(A.0, B.1, C.2, D.3, E.4, F.5);
}

pub mod collection {
    //! `Vec` strategies.

    use crate::strategy::{Reject, Strategy};
    use crate::test_runner::TestRng;

    /// Types convertible into `[min, max]` length bounds.
    pub trait IntoSizeRange {
        /// The inclusive `(min, max)` length bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy producing `Vec`s of `element` with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Result<Vec<S::Value>, Reject> {
            let len = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.element.generate(rng)?);
            }
            Ok(out)
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` support for the handful of types the workspace uses.

    use crate::strategy::{Reject, Strategy};
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// The canonical strategy type.
        type Strategy: Strategy<Value = Self>;
        /// Build the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }

    /// Uniform `bool` strategy (also exposed as `proptest::bool::ANY`).
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> Result<bool, Reject> {
            Ok(rng.next_u64() & 1 == 1)
        }
    }

    impl Arbitrary for bool {
        type Strategy = BoolAny;
        fn arbitrary() -> BoolAny {
            BoolAny
        }
    }
}

pub mod bool {
    //! `proptest::bool` compatibility shim.

    /// Uniform `bool` strategy constant.
    pub const ANY: crate::arbitrary::BoolAny = crate::arbitrary::BoolAny;
}

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude`.

    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Declare deterministic property tests. Mirrors `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__miniprop_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__miniprop_tests! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __miniprop_tests {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            // LINT: the macro wraps the user body in a closure it
            // immediately calls so `return`/`?` inside behave.
            #[allow(clippy::redundant_closure_call)]
            $crate::test_runner::run(
                stringify!($name),
                &($cfg),
                |__miniprop_rng| {
                    $(
                        let $pat = match $crate::strategy::Strategy::generate(
                            &($strat),
                            __miniprop_rng,
                        ) {
                            ::std::result::Result::Ok(v) => v,
                            ::std::result::Result::Err(_) => {
                                return ::std::result::Result::Err(
                                    $crate::test_runner::TestCaseError::reject("strategy"),
                                )
                            }
                        };
                    )+
                    let __miniprop_res: $crate::test_runner::TestCaseResult = (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    __miniprop_res
                },
            );
        }
        $crate::__miniprop_tests! { ($cfg) $($rest)* }
    };
}

/// Fail the current case unless `cond` holds. Mirrors `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fail the current case unless `left == right`. Mirrors `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l,
                    __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)+),
                    __l,
                    __r
                ),
            ));
        }
    }};
}

/// Reject the current case unless `cond` holds. Mirrors `prop_assume!`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among strategies. Mirrors `proptest::prop_oneof!`.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::new(7);
        for _ in 0..1000 {
            let v = (-5i64..=5).generate(&mut rng).unwrap();
            assert!((-5..=5).contains(&v));
            let u = (3usize..9).generate(&mut rng).unwrap();
            assert!((3..9).contains(&u));
            let f = (1.0f64..50.0).generate(&mut rng).unwrap();
            assert!((1.0..50.0).contains(&f));
        }
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = crate::test_runner::TestRng::new(42);
        let mut b = crate::test_runner::TestRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_roundtrip(
            (x, y) in (0usize..10, 0usize..10),
            flip in any::<bool>(),
            v in prop::collection::vec(1i64..=4, 2..6),
        ) {
            prop_assume!(x + y < 18);
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| (1..=4).contains(&e)));
            let z = if flip { x } else { y };
            prop_assert_eq!(z + 1, z + 1, "z was {}", z);
        }

        #[test]
        fn oneof_and_combinators(
            n in prop_oneof![
                Just(0usize),
                (1usize..4).prop_map(|k| k * 10),
                (5usize..8).prop_filter("even", |k| k % 2 == 1),
            ],
        ) {
            prop_assert!(n == 0 || (10..40).contains(&n) || n == 5 || n == 7);
        }
    }
}
