//! Offline stand-in for the `proptest` property-testing crate.
//!
//! The build environment has no crates.io access, so this crate
//! reimplements the subset of proptest the workspace's property tests
//! use: the [`proptest!`] macro, integer-range / tuple / `&str`-regex /
//! collection strategies, `prop_map`, `prop_recursive`, [`prop_oneof!`],
//! and the `prop_assert*` macros. Differences from upstream:
//!
//! * **no shrinking** — a failing case panics with the generated inputs
//!   (printed by the assertion) rather than a minimized counterexample;
//! * **deterministic by construction** — case `i` of every test derives
//!   its RNG from `i`, so failures always reproduce;
//! * the `&str` strategy supports the character-class subset of regex the
//!   tests use (`[a-z]`, ranges, `&&[^…]` intersection, `{m,n}` repeats).
#![warn(missing_docs)]

use std::rc::Rc;

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

/// Deterministic SplitMix64 generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// An RNG for one numbered test case (deterministic per case).
    pub fn for_case(case: u32) -> Self {
        let mut r = TestRng {
            state: 0x5eed_0000_0000_0000u64 ^ u64::from(case).wrapping_mul(0x9e37_79b9),
        };
        r.next(); // decorrelate small seeds
        r
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

// ---------------------------------------------------------------------
// Strategy trait + combinators
// ---------------------------------------------------------------------

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a recursive strategy: `f` receives the strategy for the
    /// shallower levels and returns the strategy for one level deeper;
    /// applied `depth` times starting from `self` (the leaf strategy).
    /// The size-tuning parameters of upstream proptest are accepted and
    /// ignored.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let mut cur = self.boxed();
        for _ in 0..depth {
            cur = f(cur).boxed();
        }
        cur
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
    }
}

/// A type-erased strategy (cheaply clonable).
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// The result of [`Strategy::prop_map`].
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
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed alternatives (built by [`prop_oneof!`]).
pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].generate(rng)
    }
}

// Integer ranges are strategies.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128 as u64;
                (self.start as i128 + (rng.below(span) as i128)) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// Tuples of strategies are strategies.
macro_rules! impl_tuple_strategy {
    ($($s:ident/$v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                $(let $v = $s.generate(rng);)+
                ($($v,)+)
            }
        }
    };
}
impl_tuple_strategy!(A / a);
impl_tuple_strategy!(A / a, B / b);
impl_tuple_strategy!(A / a, B / b, C / c);
impl_tuple_strategy!(A / a, B / b, C / c, D / d);

// ---------------------------------------------------------------------
// &str regex-subset strategy
// ---------------------------------------------------------------------

/// Parses the supported regex subset: a sequence of units, each a literal
/// character or a `[...]` class (ranges, `&&[^...]` intersection),
/// optionally followed by `{m}` / `{m,n}`.
fn parse_pattern(pat: &str) -> Vec<(Vec<char>, usize, usize)> {
    let chars: Vec<char> = pat.chars().collect();
    let mut i = 0;
    let mut units = Vec::new();
    while i < chars.len() {
        let set = if chars[i] == '[' {
            parse_class(&chars, &mut i)
        } else {
            let c = chars[i];
            i += 1;
            vec![c]
        };
        let (min, max) = parse_quantifier(&chars, &mut i);
        units.push((set, min, max));
    }
    units
}

fn parse_quantifier(chars: &[char], i: &mut usize) -> (usize, usize) {
    if *i >= chars.len() || chars[*i] != '{' {
        return (1, 1);
    }
    *i += 1; // '{'
    let mut min = 0usize;
    while chars[*i].is_ascii_digit() {
        min = min * 10 + chars[*i].to_digit(10).unwrap() as usize;
        *i += 1;
    }
    let max = if chars[*i] == ',' {
        *i += 1;
        let mut m = 0usize;
        while chars[*i].is_ascii_digit() {
            m = m * 10 + chars[*i].to_digit(10).unwrap() as usize;
            *i += 1;
        }
        m
    } else {
        min
    };
    assert!(chars[*i] == '}', "unterminated quantifier in pattern");
    *i += 1;
    (min, max)
}

/// Parses one `[...]` class starting at `chars[*i] == '['`, returning the
/// sorted member set (over printable ASCII).
fn parse_class(chars: &[char], i: &mut usize) -> Vec<char> {
    *i += 1; // '['
    let negate = chars[*i] == '^';
    if negate {
        *i += 1;
    }
    let mut set: Vec<char> = Vec::new();
    loop {
        match chars[*i] {
            ']' => {
                *i += 1;
                break;
            }
            '&' if chars.get(*i + 1) == Some(&'&') => {
                *i += 2;
                assert!(chars[*i] == '[', "`&&` must be followed by a class");
                let other = parse_class(chars, i);
                set.retain(|c| other.contains(c));
            }
            c => {
                *i += 1;
                if chars.get(*i) == Some(&'-') && chars.get(*i + 1) != Some(&']') {
                    let hi = chars[*i + 1];
                    *i += 2;
                    for x in (c as u32)..=(hi as u32) {
                        if let Some(ch) = char::from_u32(x) {
                            set.push(ch);
                        }
                    }
                } else {
                    set.push(c);
                }
            }
        }
    }
    if negate {
        // Complement over printable ASCII (all patterns used are ASCII).
        set = (0x20u32..0x7f)
            .filter_map(char::from_u32)
            .filter(|c| !set.contains(c))
            .collect();
    }
    set.sort_unstable();
    set.dedup();
    set
}

impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for (set, min, max) in parse_pattern(self) {
            assert!(!set.is_empty(), "empty character class in `{self}`");
            let n = min + rng.below((max - min + 1) as u64) as usize;
            for _ in 0..n {
                out.push(set[rng.below(set.len() as u64) as usize]);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// How many elements a generated collection holds.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    /// A strategy yielding `Vec`s of `element` with a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let n = self.size.min + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------
// Config + macros
// ---------------------------------------------------------------------

/// Per-test configuration (only the case count is honored).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Declares property tests. Mirrors upstream syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn it_holds(x in 0usize..10, v in prop::collection::vec(0u8..5, 0..8)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                for __case in 0..config.cases {
                    let mut __rng = $crate::TestRng::for_case(__case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (no shrinking: panics).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (no shrinking: panics).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{BoxedStrategy, ProptestConfig, Strategy, TestRng};

    /// Namespaced strategy modules (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::for_case(0);
        for _ in 0..200 {
            let (a, b) = Strategy::generate(&(0usize..12, 3i64..9), &mut rng);
            assert!(a < 12);
            assert!((3..9).contains(&b));
        }
    }

    #[test]
    fn regex_subset_classes() {
        let mut rng = TestRng::for_case(1);
        for _ in 0..100 {
            let s = Strategy::generate(&"[a-z][a-z0-9]{0,6}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 7, "{s:?}");
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
            // Intersection-with-negation: printable ASCII minus <>&".
            let t = Strategy::generate(&"[ -~&&[^<>&\"]]{0,12}", &mut rng);
            assert!(
                t.chars()
                    .all(|c| (' '..='~').contains(&c) && !"<>&\"".contains(c)),
                "{t:?}"
            );
        }
    }

    #[test]
    fn vec_sizes_respect_spec() {
        let mut rng = TestRng::for_case(2);
        for _ in 0..50 {
            let v = Strategy::generate(&prop::collection::vec(0u8..5, 0..40), &mut rng);
            assert!(v.len() < 40);
            let exact = Strategy::generate(&prop::collection::vec(0u8..5, 19usize), &mut rng);
            assert_eq!(exact.len(), 19);
        }
    }

    #[test]
    fn oneof_map_and_recursive_compose() {
        #[derive(Debug)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(n) => {
                    assert!(*n < 10, "leaves come from the 0..10 strategy");
                    1
                }
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let leaf = (0u8..10).prop_map(Tree::Leaf);
        let strat = leaf.prop_recursive(3, 8, 2, |inner| {
            prop_oneof![
                (0u8..10).prop_map(Tree::Leaf),
                prop::collection::vec(inner, 1..3).prop_map(Tree::Node),
            ]
        });
        let mut rng = TestRng::for_case(3);
        for _ in 0..100 {
            let t = Strategy::generate(&strat, &mut rng);
            assert!(depth(&t) <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself: args bind, bodies run per case.
        #[test]
        fn macro_roundtrip(x in 0usize..10, pair in (0u8..4, 0u8..4)) {
            prop_assert!(x < 10);
            prop_assert_eq!(pair.0 < 4, true);
        }
    }
}
