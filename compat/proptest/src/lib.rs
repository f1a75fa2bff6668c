//! Offline stand-in for `proptest`.
//!
//! Implements the strategy combinators and macros this workspace's property
//! tests use — `proptest!`, `prop_compose!`, `prop_oneof!`, `any::<T>()`,
//! ranges, `Just`, tuples, `prop::collection::vec`, `prop::option::of`,
//! `prop::sample::Index`, and character-class string patterns — over a
//! deterministic per-test RNG. There is no shrinking and no failure
//! persistence: a failing case panics with the regular assertion message,
//! and the deterministic seeding (derived from the test's module path and
//! name) makes every failure reproducible by rerunning the same test.
//!
//! Case count defaults to 64 and can be overridden per test with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`.

#![warn(missing_docs)]

/// Test-runner configuration and the deterministic RNG.
pub mod test_runner {
    use rand::StdRng;

    /// Subset of proptest's configuration: the number of cases per test.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run for each property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// The generator driving value generation: the workspace's one
    /// seeded generator.
    pub type TestRng = StdRng;

    /// The generator for the named test: FNV-1a of the test's fully
    /// qualified name seeds it, so each property gets a stable, distinct
    /// stream.
    pub fn for_test(name: &str) -> TestRng {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(hash)
    }
}

/// The `Strategy` trait and core combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::SampleRange;

    /// A recipe for generating random values of one type.
    ///
    /// Unlike real proptest there is no value tree and no shrinking; a
    /// strategy simply produces a value from the deterministic RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }
    }

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;

        fn gen_value(&self, rng: &mut TestRng) -> V {
            (**self).gen_value(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    /// Strategy defined by a generation closure; backs `prop_compose!`.
    pub struct FnStrategy<F>(pub F);

    impl<T, F> Strategy for FnStrategy<F>
    where
        F: Fn(&mut TestRng) -> T,
    {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Weighted choice between boxed strategies; backs `prop_oneof!`.
    pub struct Union<V> {
        arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
        total: u32,
    }

    impl<V> Union<V> {
        /// Builds a union from `(weight, strategy)` arms.
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Self {
            let total = arms.iter().map(|(w, _)| *w).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn gen_value(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.gen_range(0..self.total);
            for (weight, arm) in &self.arms {
                if pick < *weight {
                    return arm.gen_value(rng);
                }
                pick -= weight;
            }
            unreachable!("weights sum to total")
        }
    }

    /// Boxes one `prop_oneof!` arm, unifying arm types behind a trait
    /// object.
    pub fn weighted_arm<S>(weight: u32, strategy: S) -> (u32, Box<dyn Strategy<Value = S::Value>>)
    where
        S: Strategy + 'static,
    {
        (weight, Box::new(strategy))
    }

    macro_rules! range_strategies {
        ($($range:ident),+) => {$(
            impl<T> Strategy for std::ops::$range<T>
            where
                Self: SampleRange<T> + Clone,
            {
                type Value = T;

                fn gen_value(&self, rng: &mut TestRng) -> T {
                    rng.gen_range(self.clone())
                }
            }
        )+};
    }

    range_strategies!(Range, RangeInclusive);

    macro_rules! tuple_strategies {
        ($(($($s:ident),+))+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                #[allow(non_snake_case, reason = "the type parameters double as binding names")]
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.gen_value(rng),)+)
                }
            }
        )+};
    }

    tuple_strategies! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    impl Strategy for &'static str {
        type Value = String;

        fn gen_value(&self, rng: &mut TestRng) -> String {
            crate::string::generate(self, rng)
        }
    }
}

/// Character-class string patterns (`"[a-z][a-z0-9-]{0,20}"` and the
/// like), the only regex subset the workspace uses.
pub mod string {
    use crate::test_runner::TestRng;

    struct Segment {
        chars: Vec<char>,
        min: usize,
        max: usize,
    }

    fn parse(pattern: &str) -> Vec<Segment> {
        let mut chars = pattern.chars().peekable();
        let mut segments = Vec::new();
        while let Some(c) = chars.next() {
            let class = match c {
                '[' => {
                    let mut class = Vec::new();
                    loop {
                        let mut entry = match chars.next() {
                            Some(']') => break,
                            Some('\\') => chars.next().expect("escape is followed by a char"),
                            Some(ch) => ch,
                            None => panic!("unterminated class in pattern {pattern:?}"),
                        };
                        if chars.peek() == Some(&'-') {
                            let mut look = chars.clone();
                            look.next();
                            if look.peek().is_some_and(|&next| next != ']') {
                                chars.next();
                                let hi = chars.next().expect("range has an upper bound");
                                while entry <= hi {
                                    class.push(entry);
                                    entry = char::from_u32(entry as u32 + 1)
                                        .expect("class ranges stay in valid chars");
                                }
                                continue;
                            }
                        }
                        class.push(entry);
                    }
                    assert!(!class.is_empty(), "empty class in pattern {pattern:?}");
                    class
                }
                '\\' => vec![chars.next().expect("escape is followed by a char")],
                other => vec![other],
            };
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                let mut spec = String::new();
                for ch in chars.by_ref() {
                    if ch == '}' {
                        break;
                    }
                    spec.push(ch);
                }
                match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.parse().expect("quantifier lower bound"),
                        hi.parse().expect("quantifier upper bound"),
                    ),
                    None => {
                        let n = spec.parse().expect("quantifier count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            segments.push(Segment {
                chars: class,
                min,
                max,
            });
        }
        segments
    }

    /// Generates one string matching `pattern`.
    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for seg in parse(pattern) {
            let count = rng.gen_range(seg.min..=seg.max);
            for _ in 0..count {
                out.push(seg.chars[rng.gen_range(0..seg.chars.len())]);
            }
        }
        out
    }
}

/// The `Arbitrary` trait and `any::<T>()`.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    /// Strategy over the full domain of `T`.
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    macro_rules! arbitrary {
        ($($t:ty => |$rng:ident| $draw:expr),+ $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value($rng: &mut TestRng) -> $t {
                    $draw
                }
            }
        )+};
    }

    // `bool`, `u8` and `u32` are cut from a word's high half; `[u8; 8]`
    // is one word in little-endian order.
    arbitrary! {
        bool => |rng| (rng.next_u64() >> 32) & 1 == 1,
        u8 => |rng| (rng.next_u64() >> 32) as u8,
        u32 => |rng| (rng.next_u64() >> 32) as u32,
        u64 => |rng| rng.next_u64(),
        [u8; 8] => |rng| rng.next_u64().to_le_bytes(),
    }
}

/// Collection, option, and sampling strategies under the familiar
/// `prop::` paths.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::ops::{Range, RangeInclusive};

        /// Inclusive length range for generated collections.
        #[derive(Debug, Clone)]
        pub struct SizeRange(RangeInclusive<usize>);

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.end > r.start, "empty collection size range");
                SizeRange(r.start..=r.end - 1)
            }
        }

        /// Strategy for `Vec<S::Value>` with length drawn from `size`.
        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        /// Generates vectors of values from `elem`.
        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.0.clone());
                (0..len).map(|_| self.elem.gen_value(rng)).collect()
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy for `Option<S::Value>`.
        pub struct OptionStrategy<S>(S);

        /// Generates `Some` three times out of four, `None` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn gen_value(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.gen_range(0u32..4) == 0 {
                    None
                } else {
                    Some(self.0.gen_value(rng))
                }
            }
        }
    }

    /// Sampling helpers.
    pub mod sample {
        use crate::arbitrary::Arbitrary;
        use crate::test_runner::TestRng;

        /// An index into a collection whose length is only known inside
        /// the test body.
        #[derive(Debug, Clone, Copy)]
        pub struct Index(u64);

        impl Index {
            /// Projects onto `0..len`. `len` must be positive.
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "Index::index requires a non-empty collection");
                (self.0 % len as u64) as usize
            }
        }

        impl Arbitrary for Index {
            fn arbitrary_value(rng: &mut TestRng) -> Self {
                Index(rng.next_u64())
            }
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Weighted (or unweighted) choice between strategies producing one value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::weighted_arm($weight as u32, $strat)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::weighted_arm(1u32, $strat)),+
        ])
    };
}

/// Declares a function returning a composed strategy.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($param:tt)*)
        ($($arg:ident in $strat:expr),+ $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($param)*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::FnStrategy(
                move |__rng: &mut $crate::test_runner::TestRng| {
                    $(let $arg = $crate::strategy::Strategy::gen_value(&($strat), __rng);)+
                    $body
                },
            )
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a test running the body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg = $crate::strategy::Strategy::gen_value(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::for_test;

    #[test]
    fn string_patterns_respect_class_and_length() {
        let mut rng = for_test("string_patterns");
        for _ in 0..200 {
            let s = crate::string::generate("[a-z][a-z0-9-]{0,20}", &mut rng);
            assert!((1..=21).contains(&s.len()));
            let mut chars = s.chars();
            assert!(chars.next().unwrap().is_ascii_lowercase());
            assert!(chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));

            let p = crate::string::generate("[ -~|=\\\\]{0,120}", &mut rng);
            assert!(p.len() <= 120);
            assert!(p.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn union_respects_weights_roughly() {
        let strat = prop_oneof![
            4 => (0u32..1).prop_map(|_| true),
            1 => (0u32..1).prop_map(|_| false),
        ];
        let mut rng = for_test("union_weights");
        let hits = (0..5_000)
            .filter(|_| Strategy::gen_value(&strat, &mut rng))
            .count();
        assert!((3_500..=4_500).contains(&hits), "got {hits}");
    }

    /// `any::<T>()` for every `T` the workspace draws, folded over 400
    /// rounds: the constant fixes how each type is cut from the stream.
    #[test]
    fn arbitrary_draws_are_pinned() {
        let mut rng = for_test("arbitrary_pin");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
        for _ in 0..400 {
            mix(any::<u8>().gen_value(&mut rng).into());
            mix(any::<bool>().gen_value(&mut rng).into());
            mix(any::<u32>().gen_value(&mut rng).into());
            mix(any::<u64>().gen_value(&mut rng));
            mix(u64::from_le_bytes(any::<[u8; 8]>().gen_value(&mut rng)));
            let index = any::<prop::sample::Index>().gen_value(&mut rng);
            mix(index.index(1_000) as u64);
            mix((0u8..=200).gen_value(&mut rng).into());
            mix((1.5f64..2.5).gen_value(&mut rng).to_bits());
        }
        assert_eq!(h, 0x7b1d_d7b7_f1fb_b15d);
    }

    prop_compose! {
        fn arb_pair()(x in 0u8..10, y in 0u8..10) -> (u8, u8) {
            (x, y)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline itself: ranges, tuples, options, vecs,
        /// compose, oneof, and Index all flow through generation.
        #[test]
        fn full_macro_surface(
            pair in arb_pair(),
            flag in any::<bool>(),
            opt in prop::option::of(1usize..4),
            bytes in prop::collection::vec(any::<u8>(), 0..16),
            pick in any::<prop::sample::Index>(),
            name in prop_oneof![Just("fixed".to_string()), "[a-z]{1,4}"],
        ) {
            prop_assert!(pair.0 < 10 && pair.1 < 10);
            prop_assert!(usize::from(flag) <= 1);
            if let Some(n) = opt {
                prop_assert!((1..4).contains(&n));
            }
            prop_assert!(bytes.len() < 16);
            prop_assert!(pick.index(7) < 7);
            prop_assert_ne!(name.len(), 0);
        }
    }
}
