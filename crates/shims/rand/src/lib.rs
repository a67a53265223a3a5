//! Minimal, dependency-free stand-in for the `rand` crate.
//!
//! The build environment has no network access to a crates.io mirror, so the
//! workspace vendors the small API subset it actually uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], [`Rng::random_range`] over integer and
//! `f64` ranges, and [`Rng::random_bool`]. The generator is SplitMix64 — not
//! the upstream ChaCha12, so seeded streams differ from real `rand`, but every
//! consumer in this workspace only relies on determinism for a fixed seed, not
//! on any particular stream.

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding support (the subset the workspace uses).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore + Sized {
    /// Samples a value uniformly from `range`. Panics on an empty range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`. Panics unless `0 ≤ p ≤ 1`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        unit_f64(self.next_u64()) < p
    }

    /// Samples any [`Fill`]-able value (integers and `bool`).
    fn random<T: Fill>(&mut self) -> T {
        T::fill(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Types that can be produced directly from random bits.
pub trait Fill {
    /// Draws one value from `rng`.
    fn fill<R: RngCore>(rng: &mut R) -> Self;
}

macro_rules! impl_fill_int {
    ($($t:ty),*) => {$(
        impl Fill for $t {
            fn fill<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_fill_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Fill for u128 {
    fn fill<R: RngCore>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Fill for bool {
    fn fill<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that [`Rng::random_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

fn unit_f64(bits: u64) -> f64 {
    // 53 high-quality mantissa bits -> [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = wide_below(rng, span);
                (self.start as i128 + offset as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let offset = wide_below(rng, span);
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}
impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform draw from `[0, span)` using 128-bit arithmetic (`span > 0`).
fn wide_below<R: RngCore>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    let word = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
    // Multiply-shift reduction: unbiased enough for simulation workloads.
    ((word % span) + (rng.next_u64() as u128 % span)) % span
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        lo + unit_f64(rng.next_u64()) * (hi - lo)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut rng = StdRng { state: seed };
            // Scramble once so nearby seeds diverge immediately.
            let _ = rng.next_u64();
            rng
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(
                a.random_range(0u64..1_000_000),
                b.random_range(0u64..1_000_000)
            );
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.random_range(3usize..=5);
            assert!((3..=5).contains(&w));
            let f = rng.random_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn single_value_inclusive_range() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(rng.random_range(9u64..=9), 9);
    }

    #[test]
    fn bool_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
        let heads = (0..10_000).filter(|_| rng.random_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn seeds_diverge() {
        let mut a = StdRng::seed_from_u64(0);
        let mut b = StdRng::seed_from_u64(1);
        let same = (0..64)
            .filter(|_| a.random_range(0u64..u64::MAX) == b.random_range(0u64..u64::MAX))
            .count();
        assert_eq!(same, 0);
    }
}
