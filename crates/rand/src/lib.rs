//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses (`SmallRng`, `SeedableRng::seed_from_u64`, `Rng::{gen,
//! gen_range, gen_bool}`).
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this path crate under the `rand` package name instead of the
//! real dependency. The generator is xoshiro256++ seeded through
//! SplitMix64 — the same algorithm family `rand 0.8` uses for
//! `SmallRng` on 64-bit targets — so quality and determinism are
//! equivalent; the exact streams are not guaranteed to match the
//! upstream crate and nothing in this workspace relies on them doing
//! so, only on seed-stable reproducibility.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Core trait: a source of uniformly distributed 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable from the "standard" distribution (`rng.gen::<T>()`).
pub trait StandardSample: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardSample for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased-enough uniform draw in `[0, span)` via 128-bit multiply.
#[inline]
fn mul_shift(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + mul_shift(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + mul_shift(rng, span + 1) as $t
            }
        }
    )*};
}
impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + mul_shift(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + ((u128::from(rng.next_u64()) * span) >> 64) as i128) as $t
            }
        }
    )*};
}
impl_range_int!(i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                self.start + <$t as StandardSample>::sample(rng) * (self.end - self.start)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a `T` from the standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Small, fast, deterministic generator (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(state: u64) -> Self {
        // SplitMix64 expansion, the canonical xoshiro seeding procedure.
        let mut sm = state;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }
}

impl RngCore for SmallRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    pub use crate::SmallRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_determines_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(1);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = r.gen_range(5u64..10);
            assert!((5..10).contains(&x));
            let y = r.gen_range(0u64..=3);
            assert!(y <= 3);
            let z = r.gen_range(-10i64..10);
            assert!((-10..10).contains(&z));
            let f = r.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn bool_draws_are_balanced() {
        let mut r = SmallRng::seed_from_u64(4);
        let trues = (0..10_000).filter(|_| r.gen::<bool>()).count();
        assert!((4700..5300).contains(&trues), "trues = {trues}");
    }
}
