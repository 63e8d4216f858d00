//! Offline shim for the subset of the `proptest` API used by this
//! workspace: the [`proptest!`] macro, range / tuple / `Just` /
//! `collection::vec` strategies, `prop_map` / `prop_flat_map`,
//! `any::<T>()`, `ProptestConfig::with_cases`, and the `prop_assert*`
//! macros.
//!
//! Inputs are drawn from a deterministic per-test RNG (seeded from the
//! test's source location), so failures reproduce across runs. There is
//! no shrinking: a failing case panics with the drawn inputs' debug
//! representation via the underlying `assert!` message.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

pub use rand::SeedableRng as ShimSeedableRng;

/// Runner configuration (`with_cases` is all the workspace uses).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of values for property tests.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
);

/// Full-domain strategy for `any::<T>()`.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        rng.random_range(-1.0e9..1.0e9)
    }
}

pub struct AnyStrategy<T> {
    _marker: core::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the whole domain of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy { _marker: core::marker::PhantomData }
}

pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Acceptable size arguments for [`vec()`]: a fixed length or a
    /// half-open range of lengths.
    pub trait SizeRange {
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A vector of values from `element` with a length drawn from `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// Build the per-test RNG. Seeded by source location so each test gets
/// a stable, distinct stream.
pub fn test_rng(file: &str, line: u32, case: u32) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in file.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h = (h ^ line as u64).wrapping_mul(0x1000_0000_01b3);
    h = (h ^ case as u64).wrapping_mul(0x1000_0000_01b3);
    <StdRng as rand::SeedableRng>::seed_from_u64(h)
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

/// The test-harness macro. Mirrors proptest's surface syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u32..100, (a, b) in arb_pair()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            #[allow(clippy::redundant_closure_call)]
            for case in 0..config.cases {
                let mut rng =
                    $crate::test_rng(concat!(file!(), "::", stringify!($name)), line!(), case);
                let ( $($pat,)+ ) = (
                    $( $crate::Strategy::sample(&$strat, &mut rng), )+
                );
                $body
            }
        }
    )*};
}

pub mod prelude {
    /// `prop::collection::vec(...)`-style paths.
    pub use crate as prop;
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest,
        Arbitrary, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u32..17, y in -2i64..=2, f in 0.5f64..1.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2..=2).contains(&y));
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn vec_lengths(v in prop::collection::vec(0u32..10, 2..6), w in prop::collection::vec(0u32..10, 3)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert_eq!(w.len(), 3);
        }

        #[test]
        fn flat_map_dependent((n, xs) in (1u32..20).prop_flat_map(|n| (Just(n), prop::collection::vec(0..n, 0..30)))) {
            for x in xs {
                prop_assert!(x < n);
            }
        }
    }

    #[test]
    fn deterministic_per_case() {
        let a: u64 = {
            let mut rng = crate::test_rng("f", 1, 0);
            crate::Strategy::sample(&(0u64..1000), &mut rng)
        };
        let b: u64 = {
            let mut rng = crate::test_rng("f", 1, 0);
            crate::Strategy::sample(&(0u64..1000), &mut rng)
        };
        assert_eq!(a, b);
    }
}
