//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment cannot reach a crates.io mirror, so the workspace
//! vendors the API subset its property tests use: the [`strategy::Strategy`]
//! trait with `prop_map` / `prop_flat_map` / `boxed`, range and tuple and
//! `Vec<Strategy>` strategies, [`arbitrary::any`], `prop::collection::{vec,
//! btree_set}`, `prop::sample::Index`, and the `proptest!` / `prop_assert*!` /
//! `prop_oneof!` macros.
//!
//! Differences from upstream: cases are generated from a seed derived
//! deterministically from the test's module path and name (reproducible
//! runs, no `PROPTEST_CASES` env handling), and failing cases are reported
//! without shrinking.

pub mod arbitrary;
pub mod collection;
mod macros;
pub mod sample;
pub mod strategy;
pub mod test_runner;

/// The glob-import surface mirrored from upstream `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace alias so `prop::collection::vec(..)` works as in upstream.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pairs() -> impl Strategy<Value = Vec<(u8, u64)>> {
        prop::collection::vec((any::<u8>(), 1u64..100), 1..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in 5usize..=5, z in 1u64..) {
            prop_assert!((3..17).contains(&x));
            prop_assert_eq!(y, 5);
            prop_assert!(z >= 1);
        }

        #[test]
        fn flat_map_respects_dependency(
            (len, v) in (1usize..8).prop_flat_map(|n| {
                (Just(n), prop::collection::vec(0u64..10, n..n + 1))
            }),
        ) {
            prop_assert_eq!(v.len(), len);
        }

        #[test]
        fn vec_of_strategies_is_elementwise(digits in vec![0u64..3, 5u64..6, 7u64..9]) {
            prop_assert!(digits[0] < 3);
            prop_assert_eq!(digits[1], 5);
            prop_assert!((7..9).contains(&digits[2]));
        }

        #[test]
        fn oneof_and_index(choice in prop_oneof![Just(1u32), Just(2)], ix in any::<prop::sample::Index>()) {
            prop_assert!(choice == 1 || choice == 2);
            prop_assert!(ix.index(7) < 7);
        }

        #[test]
        fn collections_sized(pairs in arb_pairs(), set in prop::collection::btree_set(any::<u16>(), 1..20)) {
            prop_assert!((1..10).contains(&pairs.len()));
            prop_assert!(!set.is_empty() && set.len() < 20);
        }
    }

    #[test]
    fn failure_is_reported() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(4))]
                #[allow(unused)]
                fn always_fails(x in 0u64..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        assert!(result.is_err());
    }
}
