//! Offline stand-in for the part of `proptest` 1.x that this workspace's
//! tests call: `Strategy` with `prop_map` / `prop_flat_map`, integer
//! ranges, tuples, `Just`, `any::<int>()`, `".{m,n}"` strings,
//! `collection::{vec, btree_set}`, weighted `prop_oneof!`, `proptest!` with
//! an optional `#![proptest_config(ProptestConfig::with_cases(n))]`, and the
//! `prop_assert*` macros.
//!
//! The container has no registry, so `scripts/offline-env.sh` patches
//! `proptest` to this crate. Every test draws from a generator seeded by its
//! own name, so a failure repeats on the next run; there is **no
//! shrinking** — the failing inputs are printed as generated.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! The per-test configuration, generator and failure type.

    /// How many cases a `proptest!` test runs.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Cases generated per test.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// A failed `prop_assert*`.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// SplitMix64, seeded from the test's name.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        /// The generator every run of the test called `name` starts from.
        pub fn for_test(name: &str) -> Self {
            // FNV-1a over the name.
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for byte in name.bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(hash)
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, span)`; the modulo bias is irrelevant to test
        /// generation.
        pub fn below(&mut self, span: u64) -> u64 {
            assert!(span > 0, "cannot sample an empty range");
            self.next_u64() % span
        }
    }
}

pub mod strategy {
    //! Value generators and their combinators.

    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::sync::Arc;

    /// A generator of test inputs.
    pub trait Strategy {
        /// What it generates.
        type Value: Debug;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Generates `f(value)`.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Generates from the strategy `f(value)` builds.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { source: self, f }
        }

        /// Erases the strategy's type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// A type-erased, cloneable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always the same value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.source.generate(rng)).generate(rng)
        }
    }

    /// A weighted choice between strategies (what `prop_oneof!` builds).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// A choice picking each arm with probability ∝ its weight.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total = arms.iter().map(|&(w, _)| u64::from(w)).sum();
            assert!(total > 0, "prop_oneof! needs a positive total weight");
            Union { arms, total }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut roll = rng.below(self.total);
            for (weight, arm) in &self.arms {
                if roll < u64::from(*weight) {
                    return arm.generate(rng);
                }
                roll -= u64::from(*weight);
            }
            unreachable!("roll is below the total weight")
        }
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample an empty range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "cannot sample an empty range");
                    match u64::try_from(hi - lo + 1) {
                        Ok(span) => (lo + rng.below(span) as i128) as $t,
                        Err(_) => rng.next_u64() as $t,
                    }
                }
            }
            impl crate::arbitrary::Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategies {
        ($(($($s:ident $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }

    /// String patterns: one atom (`.` or a `[…]` class of characters and
    /// `a-z` ranges) followed by `{m,n}`, which is all the tests write.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (atom, repeat) = self
                .rsplit_once('{')
                .unwrap_or_else(|| panic!("unsupported pattern {self:?}"));
            let (min, max) = repeat
                .strip_suffix('}')
                .and_then(|r| r.split_once(','))
                .and_then(|(m, n)| Some((m.parse::<u64>().ok()?, n.parse::<u64>().ok()?)))
                .unwrap_or_else(|| panic!("unsupported repetition in {self:?}"));
            let alphabet: Vec<char> = if atom == "." {
                // Printable ASCII plus a few multi-byte characters.
                (' '..='~').chain(['é', 'ß', '→', '字']).collect()
            } else {
                let class: Vec<char> = atom
                    .strip_prefix('[')
                    .and_then(|a| a.strip_suffix(']'))
                    .unwrap_or_else(|| panic!("unsupported atom in {self:?}"))
                    .chars()
                    .collect();
                let mut out = Vec::new();
                let mut i = 0;
                while i < class.len() {
                    match (class.get(i + 1), class.get(i + 2)) {
                        (Some('-'), Some(&hi)) => {
                            out.extend(class[i]..=hi);
                            i += 3;
                        }
                        _ => {
                            out.push(class[i]);
                            i += 1;
                        }
                    }
                }
                out
            };
            let len = min + rng.below(max - min + 1);
            (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect()
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Debug {
        /// Draws one value over the whole type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy [`any`] returns.
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collections of generated elements.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;

    /// Element-count bounds (`lo..hi`).
    #[derive(Debug, Clone)]
    pub struct SizeRange(std::ops::Range<usize>);

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(range: std::ops::Range<usize>) -> Self {
            SizeRange(range)
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.0.generate(rng)
        }
    }

    /// See [`vec`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            let mut set = BTreeSet::new();
            // Bounded: a domain smaller than `len` yields a smaller set.
            for _ in 0..len.saturating_mul(16) {
                if set.len() >= len {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            set
        }
    }

    /// A `BTreeSet` of (up to) `size` distinct elements drawn from `element`.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! What `use proptest::prelude::*` brings into scope.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    pub mod prop {
        //! The `prop::collection::…` path.
        pub use crate::collection;
    }
}

/// Fails the case (returns `Err`) unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(format!(
                "{} at {}:{}",
                format_args!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Fails the case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "values differ")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{}: `{}` = {:?}, `{}` = {:?}",
            format_args!($($fmt)+),
            stringify!($left),
            left,
            stringify!($right),
            right
        );
    }};
}

/// Fails the case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_ne!($left, $right, "values are equal")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "{}: `{}` = `{}` = {:?}",
            format_args!($($fmt)+),
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// A choice between strategies of one value type, optionally weighted
/// (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight, $crate::strategy::Strategy::boxed($arm))),+
        ])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $arm),+]
    };
}

/// Declares `#[test]` functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                // Kept so a failure can regenerate (and print) its inputs
                // without formatting them on every passing case.
                let replay = rng.clone();
                $(let $arg = $crate::strategy::Strategy::generate(&$strategy, &mut rng);)+
                let outcome = (move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(error) = outcome {
                    let mut rng = replay;
                    let inputs: ::std::vec::Vec<::std::string::String> = vec![$(format!(
                        "{} = {:?}",
                        stringify!($arg),
                        $crate::strategy::Strategy::generate(&$strategy, &mut rng)
                    )),+];
                    panic!(
                        "{} failed at case {}: {}\ninputs (not shrunk):\n  {}",
                        stringify!($name),
                        case,
                        error,
                        inputs.join("\n  ")
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Put(u8, i64),
        Del(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (any::<u8>(), -5i64..5).prop_map(|(k, v)| Op::Put(k, v)),
            1 => (0usize..4).prop_map(Op::Del),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_values_respect_their_strategies(
            ops in prop::collection::vec(op(), 1..20),
            text in "[a-c]{0,5}",
            set in prop::collection::btree_set(0i64..50, 1..10),
            nested in (1usize..4).prop_flat_map(|n| prop::collection::vec(Just(n), n..n + 1)),
        ) {
            prop_assert!((1..20).contains(&ops.len()));
            for op in &ops {
                match *op {
                    Op::Put(_, v) => prop_assert!((-5..5).contains(&v)),
                    Op::Del(i) => prop_assert!(i < 4),
                }
            }
            prop_assert!(text.len() <= 5 && text.chars().all(|c| ('a'..='c').contains(&c)));
            prop_assert!(!set.is_empty() && set.len() < 10);
            prop_assert_eq!(nested.len(), nested[0]);
            prop_assert_ne!(nested.len(), 0);
        }
    }

    #[test]
    fn a_failing_case_panics_with_its_inputs() {
        proptest! {
            fn always_fails(x in 10u32..11) {
                prop_assert_eq!(x, 0);
            }
        }
        let panic = std::panic::catch_unwind(always_fails).expect_err("must fail");
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("x = 10"), "{message}");
    }
}
