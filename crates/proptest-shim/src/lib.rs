//! Offline mini property-testing harness exposing the subset of the
//! `proptest` 1.x surface this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a small, deterministic replacement: the [`proptest!`] macro,
//! [`Strategy`] (ranges, tuples, `prop_map`), `collection::{vec,
//! btree_set}`, `bool::ANY`, [`ProptestConfig`] and the `prop_assert*`
//! macros. Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports its case index; cases are a
//!   pure function of the test name and index, so failures replay exactly
//!   by re-running the test.
//! * **Deterministic.** There is no persistence file or entropy source;
//!   CI and local runs see identical inputs.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Runner configuration (subset of `proptest::test_runner::Config`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A failed assertion inside a property body.
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Drives one `proptest!`-generated test: hands out one deterministic RNG
/// per case, derived from the test name so sibling tests decorrelate.
pub struct TestRunner {
    config: ProptestConfig,
    name_seed: u64,
}

impl TestRunner {
    pub fn new(config: ProptestConfig, name: &str) -> Self {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRunner {
            config,
            name_seed: h,
        }
    }

    pub fn cases(&self) -> u32 {
        self.config.cases
    }

    /// The seed of case `case`. XOR with a fixed word is a bijection, so
    /// every case of one runner gets its own seed (an OR with the
    /// constant would merge cases that differ only in the constant's bits
    /// 32 and 34).
    pub fn seed_for_case(&self, case: u32) -> u64 {
        self.name_seed ^ ((case as u64) << 32) ^ 0x5DEECE66D
    }

    pub fn rng_for_case(&self, case: u32) -> StdRng {
        StdRng::seed_from_u64(self.seed_for_case(case))
    }
}

/// A generator of random values (subset of `proptest::strategy::Strategy`;
/// generation only, no value trees).
pub trait Strategy {
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values (mirror of `Strategy::prop_map`).
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

pub mod collection {
    use super::*;

    /// `Vec` of `len ∈ size` elements (mirror of
    /// `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` targeting `len ∈ size` *distinct* elements (mirror of
    /// `proptest::collection::btree_set`). If the element domain is too
    /// small to reach the drawn size, the set is as large as achievable
    /// within a bounded number of draws (never fewer than 1 when
    /// `size.start >= 1` and the element strategy is non-empty).
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
            let target = self.size.generate(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 20 + 50 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod bool {
    use super::*;

    /// Either boolean with probability ½ (mirror of `proptest::bool::ANY`).
    pub const ANY: Any = Any;

    pub struct Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut StdRng) -> bool {
            rng.gen::<f64>() < 0.5
        }
    }
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Define property tests (subset of `proptest::proptest!`). Each `fn
/// name(arg in strategy, …) { body }` becomes a `#[test]` running
/// `config.cases` deterministic cases; the body may use `prop_assert*`
/// and `?` over [`TestCaseError`].
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let runner = $crate::TestRunner::new($cfg, stringify!($name));
                for case in 0..runner.cases() {
                    let mut rng = runner.rng_for_case(case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!(
                            "property `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            case,
                            runner.cases(),
                            e
                        );
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),*) $body
            )*
        }
    };
}

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRunner;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, f in -2.0f64..5.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..5.0).contains(&f), "f out of range: {}", f);
        }

        #[test]
        fn vec_sizes_respect_range(v in crate::collection::vec(0u32..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn btree_set_is_distinct_and_bounded(s in crate::collection::btree_set(0u32..100, 1..8)) {
            prop_assert!(!s.is_empty() && s.len() < 8);
        }

        #[test]
        fn prop_map_applies(y in (0u32..5).prop_map(|x| x * 2)) {
            prop_assert!(y % 2 == 0 && y < 10);
        }

        #[test]
        fn question_mark_propagates(b in crate::bool::ANY) {
            let r: Result<(), TestCaseError> = Ok(());
            r.map_err(|e: TestCaseError| TestCaseError::fail(format!("{e}")))?;
            prop_assert!(u8::from(b) <= 1);
        }
    }

    #[test]
    fn every_case_gets_its_own_seed() {
        let runner = TestRunner::new(ProptestConfig::with_cases(400), "t");
        let seeds: std::collections::HashSet<u64> = (0..runner.cases())
            .map(|c| runner.seed_for_case(c))
            .collect();
        assert_eq!(seeds.len(), 400);
        let draws: std::collections::HashSet<u64> = (0..runner.cases())
            .map(|c| (0u64..u64::MAX).generate(&mut runner.rng_for_case(c)))
            .collect();
        assert_eq!(draws.len(), 400);
    }

    #[test]
    fn cases_are_deterministic() {
        let runner = TestRunner::new(ProptestConfig::with_cases(4), "t");
        let a = (0u64..1000).generate(&mut runner.rng_for_case(0));
        let b = (0u64..1000).generate(&mut runner.rng_for_case(0));
        assert_eq!(a, b);
    }
}
