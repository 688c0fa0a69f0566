//! Offline stand-in for the part of `rand` 0.8 that the engine crates and
//! the benchmark use: `StdRng::seed_from_u64`, `Rng::gen_range` over
//! integer and float ranges, and `Rng::gen_bool`.
//!
//! The container has no registry, so `e2e/Cargo.toml` patches `rand` to
//! this crate. The stream is xoshiro256** seeded through SplitMix64 —
//! deterministic under a seed, which is all the benchmark relies on. It is
//! *not* the published crate's stream: numbers produced under this stub
//! compare only with numbers produced under this stub.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose whole stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value uniformly distributed over `range`.
    ///
    /// # Panics
    /// If the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// 53 random bits as a float in `[0, 1)`.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A range `gen_range` can sample from.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased integer in `[0, span)` by rejection (Lemire's widening
/// multiply would be faster; this is not on any measured path).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    assert!(span > 0, "cannot sample an empty range");
    let zone = u64::MAX - (u64::MAX % span + 1) % span;
    loop {
        let word = rng.next_u64();
        if word <= zone {
            return word % span;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard generator: xoshiro256**.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expands the seed; it never yields four zeros.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_bounds_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let mut differs = false;
        for _ in 0..1000 {
            let x = a.gen_range(1..=50i64);
            assert_eq!(x, b.gen_range(1..=50i64));
            differs |= x != c.gen_range(1..=50i64);
            assert!((1..=50).contains(&x));
            let f = a.gen_range(0.0..3.0);
            assert_eq!(f, b.gen_range(0.0..3.0));
            assert!((0.0..3.0).contains(&f));
            assert!(a.gen_range(0..7usize) < 7);
            b.gen_range(0..7usize);
            assert!(a.gen_range(b'a'..=b'z').is_ascii_lowercase());
            b.gen_range(b'a'..=b'z');
        }
        assert!(differs);
        let heads = (0..10_000).filter(|_| a.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&heads), "{heads}");
    }
}
