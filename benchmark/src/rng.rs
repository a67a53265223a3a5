//! SplitMix64: the benchmark's only source of randomness, so that one
//! `--seed` fixes the data, the statement constants and the op order on
//! every host and toolchain.

/// A seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// The SplitMix64 output function, also used to mix result checksums.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for `seed` and a stream `tag` (one tag per purpose, so
    /// adding a consumer does not shift the others).
    pub fn new(seed: u64, tag: u64) -> Self {
        Rng(mix(seed ^ mix(tag.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for every
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A `usize` index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// True with probability `percent`/100.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}
