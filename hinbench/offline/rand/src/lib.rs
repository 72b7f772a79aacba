//! Offline stand-in for `rand` 0.9: `StdRng::seed_from_u64`, `Rng::random`,
//! `Rng::random_range` and `WeightedIndex`, which is all `hin-datagen` and the
//! benchmark draw from. The generator is xoshiro256++ seeded through
//! splitmix64, so the streams differ from the published crate's ChaCha12; the
//! benchmark pins the graph this generator produces by hash.

pub mod distr;
pub mod rngs;

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A value that can be drawn uniformly over its whole domain (floats: [0, 1)).
pub trait Random {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Random for f64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A range a value can be drawn from uniformly.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)` without modulo bias (Lemire's multiply-shift with
/// rejection).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    assert!(span > 0, "cannot sample from an empty range");
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = (rng.next_u64() as u128) * (span as u128);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(below(rng, span)) as $t
            }
        }
    )*};
}

int_ranges!(u32, u64, usize);

pub trait Rng: RngCore {
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
