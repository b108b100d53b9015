//! Deterministic pseudo-random numbers: SplitMix64-seeded xoshiro256**.
//!
//! This is the workspace's only source of randomness. Every consumer
//! seeds explicitly, so every fault campaign, workload input, and
//! property-test case is reproducible from a single `u64` — exactly what
//! the AVF/MBU evaluation methodology requires.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded by expanding
//! the `u64` seed through SplitMix64 so that similar seeds still produce
//! decorrelated streams.

use std::ops::{Range, RangeInclusive};

/// One SplitMix64 step: used for seed expansion and derived stream seeds.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of sub-stream `stream` under `seed` — the substream
/// contract behind sharded Monte-Carlo campaigns: a parent seed plus a
/// shard index names one fixed RNG stream, independent of how many
/// threads execute the shards.
///
/// Both inputs pass through SplitMix64 mixing, so substreams are
/// decorrelated from each other *and* from the parent stream
/// (`derive_seed(s, 0) != s`), and adjacent `(seed, stream)` pairs never
/// collide in practice.
#[must_use]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed;
    let parent = splitmix64(&mut state);
    // A second mix keyed by the stream index; the odd multiplier keeps
    // stream -> state a bijection before the final scramble.
    let mut state = parent ^ stream.wrapping_mul(0xD2B7_4407_B1CE_6E93);
    splitmix64(&mut state)
}

/// Deterministic PRNG with the subset of the `rand` API this repo uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value of any primitive type (see [`Random`]).
    pub fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// A uniform value in `range` (`a..b` or `a..=b`, integers or `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits → the dyadic rationals k/2^53, never reaching 1.0.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `dest` with uniform bytes.
    pub fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Samples an index with probability proportional to `weights[i]` —
    /// the weighted categorical draw behind MBU-size sampling.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn gen_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted draw needs weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut u = self.gen_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        // Float round-off can exhaust the mass; the last positive bucket
        // absorbs it.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("total > 0 guarantees a positive bucket")
    }

    /// Uniform in `[0, n)` via Lemire's unbiased multiply-shift method.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn bounded_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "bounded_u64(0)");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// Types [`Rng::gen`] can produce uniformly over their whole domain
/// (`f64` over `[0, 1)`).
pub trait Random {
    /// Draws one value.
    fn random(rng: &mut Rng) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            fn random(rng: &mut Rng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*}
}

impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for u128 {
    fn random(rng: &mut Rng) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Random for bool {
    fn random(rng: &mut Rng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    fn random(rng: &mut Rng) -> Self {
        rng.gen_f64()
    }
}

impl Random for f32 {
    fn random(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Primitive integers the testkit can sample and shrink: lossless
/// round-trip through `i128` keeps the range arithmetic in one place.
pub trait Int: Copy + Ord + std::fmt::Debug {
    /// Widens losslessly.
    fn to_i128(self) -> i128;
    /// Narrows a value known to be in domain.
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> Self {
                v as $t
            }
        }
    )*}
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform in `[lo, hi]` (inclusive), any primitive integer type.
fn sample_int<T: Int>(rng: &mut Rng, lo: T, hi: T) -> T {
    assert!(lo <= hi, "empty range");
    let span = (hi.to_i128() - lo.to_i128()) as u128 + 1;
    if span > u128::from(u64::MAX) {
        // Only the full 64-bit domain reaches here: raw output is uniform.
        return T::from_i128(rng.next_u64() as i64 as i128);
    }
    T::from_i128(lo.to_i128() + i128::from(rng.bounded_u64(span as u64)))
}

/// Range shapes [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: Int> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut Rng) -> T {
        assert!(self.start < self.end, "empty range");
        sample_int(rng, self.start, T::from_i128(self.end.to_i128() - 1))
    }
}

impl<T: Int> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut Rng) -> T {
        sample_int(rng, *self.start(), *self.end())
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Guard the open upper bound against round-up.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let mut c = Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn zero_seed_is_not_a_degenerate_stream() {
        let mut r = Rng::seed_from_u64(0);
        let xs: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        assert!(xs.iter().any(|&x| x != 0));
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.gen_range(10u32..20);
            assert!((10..20).contains(&x));
            let y = r.gen_range(-800i32..=800);
            assert!((-800..=800).contains(&y));
            let f = r.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn single_point_inclusive_range_works() {
        let mut r = Rng::seed_from_u64(1);
        assert_eq!(r.gen_range(5u32..=5), 5);
    }

    #[test]
    fn full_width_inclusive_range_works() {
        let mut r = Rng::seed_from_u64(1);
        // span = 2^64 exercises the full-width fallback.
        let _: u64 = r.gen_range(0u64..=u64::MAX);
    }

    #[test]
    fn fill_covers_partial_chunks() {
        let mut r = Rng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn weighted_draw_matches_the_mbu_distribution() {
        // The paper's 40 nm MBU buckets: P(1)=62 %, P(2)=25 %, P(3)=6 %,
        // P(>3)=7 %.
        let weights = [0.62, 0.25, 0.06, 0.07];
        let mut r = Rng::seed_from_u64(13);
        let mut counts = [0u32; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[r.gen_weighted(&weights)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let p = f64::from(counts[i]) / f64::from(n);
            assert!((p - w).abs() < 0.01, "bucket {i}: {p} vs {w}");
        }
    }

    #[test]
    fn weighted_draw_skips_zero_buckets() {
        let mut r = Rng::seed_from_u64(17);
        for _ in 0..1_000 {
            let i = r.gen_weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    #[should_panic(expected = "all be zero")]
    fn weighted_draw_rejects_zero_mass() {
        let _ = Rng::seed_from_u64(1).gen_weighted(&[0.0, 0.0]);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_decorrelated() {
        // Same (seed, stream) -> same substream; different stream or
        // different parent -> different substream, and no substream
        // collides with the parent stream itself.
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
        assert_ne!(derive_seed(42, 3), derive_seed(42, 4));
        assert_ne!(derive_seed(42, 3), derive_seed(43, 3));
        assert_ne!(derive_seed(42, 0), 42);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..32u64 {
            for stream in 0..32u64 {
                assert!(seen.insert(derive_seed(seed, stream)), "{seed}/{stream}");
            }
        }
    }

    #[test]
    fn bounded_is_unbiased_at_small_n() {
        let mut r = Rng::seed_from_u64(19);
        let mut counts = [0u32; 3];
        for _ in 0..90_000 {
            counts[r.bounded_u64(3) as usize] += 1;
        }
        for &c in &counts {
            assert!((29_000..31_000).contains(&c), "bucket count {c}");
        }
    }
}
