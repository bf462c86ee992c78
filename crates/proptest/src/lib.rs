//! Offline shim for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment has no network access and no registry cache, so
//! the real crate cannot be resolved. This shim reimplements exactly the
//! subset of its API that the workspace's property tests use — range and
//! tuple strategies, `prop_map`/`prop_flat_map`, `Just`,
//! `collection::vec`, the `proptest!` macro with `proptest_config`, and
//! the `prop_assert!`/`prop_assert_eq!`/`prop_assume!` macros — with a
//! deterministic per-test RNG and no shrinking.
//!
//! Semantic differences from the real crate:
//!
//! * cases are generated from a fixed seed derived from the test name, so
//!   runs are reproducible (the real crate randomizes unless seeded);
//! * a failing case reports the offending input but is not shrunk;
//! * `prop_assume!` rejections retry with fresh inputs up to a bounded
//!   number of attempts.

#![warn(missing_docs)]

use std::fmt;
use std::ops::Range;

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

/// SplitMix64 generator used to drive all strategies.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// A generator seeded from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> TestRng {
        TestRng(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; bias is irrelevant at test-range sizes.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A recipe for generating values of type `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Derives a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { source: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.source.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(width) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Number of elements a [`vec()`] strategy generates: fixed or ranged.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy generating a `Vec` of values drawn from `element`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A strategy for `Vec`s of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.lo + rng.below((self.size.hi - self.size.lo) as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Test runner
// ---------------------------------------------------------------------------

/// Runner configuration and case driver.
pub mod test_runner {
    use super::{Strategy, TestRng};
    use std::fmt;

    /// Why a test case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is retried.
        Reject(String),
        /// An assertion failed; the test fails.
        Fail(String),
    }

    /// Outcome of one test case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Runner configuration (`#![proptest_config(...)]`).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of accepted cases to run per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// The default configuration with `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Drives one property test: generates inputs from `strategy` until
    /// `config.cases` cases have been accepted, panicking on the first
    /// failure with the offending input.
    #[expect(
        clippy::needless_pass_by_value,
        reason = "by-value `strategy` mirrors the upstream proptest signature"
    )]
    #[expect(
        clippy::panic,
        reason = "a failing property must fail the test that runs it"
    )]
    pub fn run<S, F>(config: &ProptestConfig, name: &str, strategy: S, body: F)
    where
        S: Strategy,
        S::Value: fmt::Debug,
        F: Fn(S::Value) -> TestCaseResult,
    {
        let mut rng = TestRng::new(fnv1a(name));
        let mut accepted = 0u32;
        let max_rejects = config.cases.saturating_mul(64).max(1024);
        let mut rejects = 0u32;
        while accepted < config.cases {
            let value = strategy.generate(&mut rng);
            let shown = format!("{value:?}");
            match body(value) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(why)) => {
                    rejects += 1;
                    assert!(
                        rejects <= max_rejects,
                        "{name}: too many prop_assume! rejections ({rejects}); last: {why}"
                    );
                }
                Err(TestCaseError::Fail(why)) => {
                    panic!("{name}: case #{accepted} failed: {why}\n    input: {shown}")
                }
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Reject(w) => write!(f, "rejected: {w}"),
                TestCaseError::Fail(w) => write!(f, "failed: {w}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests (shim of `proptest::proptest!`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(
            (<$crate::test_runner::ProptestConfig as ::std::default::Default>::default())
            $($rest)*
        );
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run(
                &config,
                stringify!($name),
                ($($strat,)+),
                |($($arg,)+)| -> $crate::test_runner::TestCaseResult {
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

/// Fails the current case when the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current case when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        match (&$a, &$b) {
            (left, right) => {
                $crate::prop_assert!(
                    *left == *right,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($a),
                    stringify!($b),
                    left,
                    right
                );
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (left, right) => {
                $crate::prop_assert!(*left == *right, $($fmt)+);
            }
        }
    };
}

/// Rejects the current case (retried with fresh inputs) when the
/// condition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_owned(),
            ));
        }
    };
}

/// The glob-importable surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{Just, Strategy};
}

impl fmt::Display for TestRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TestRng({:#x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::new(7);
        for _ in 0..1000 {
            let v = (-4i32..5).generate(&mut rng);
            assert!((-4..5).contains(&v));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = crate::TestRng::new(1);
        let s = crate::collection::vec(0u8..10, 3..6);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((3..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
        let fixed = crate::collection::vec(0u8..10, 4usize);
        assert_eq!(fixed.generate(&mut rng).len(), 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let s = (0u64..1000, -50i64..50).prop_map(|(a, b)| (a, b));
        let mut r1 = crate::TestRng::new(42);
        let mut r2 = crate::TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_surface_works(
            n in 2usize..7,
            xs in crate::collection::vec(-4i32..5, 1..5),
            f in 0.0f64..1.0,
        ) {
            prop_assume!(!xs.is_empty());
            prop_assert!((2..7).contains(&n));
            prop_assert!((0.0..1.0).contains(&f));
            prop_assert_eq!(xs.len(), xs.len());
        }

        #[test]
        fn flat_map_dependent_sizes(
            (n, xs) in (1usize..5).prop_flat_map(|n| {
                (crate::Just(n), crate::collection::vec(0i32..10, n))
            })
        ) {
            prop_assert_eq!(xs.len(), n);
        }
    }
}
