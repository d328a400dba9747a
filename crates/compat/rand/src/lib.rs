//! Offline stand-in for the `rand` crate.
//!
//! This workspace builds in environments with no access to a crates
//! registry, so the handful of `rand` APIs the workloads and tests use
//! ([`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and the
//! [`RngExt`] sampling methods) are provided by this small in-tree
//! crate instead. The generator is xoshiro256++ seeded through
//! SplitMix64 — deterministic across platforms, which is exactly what
//! the reproducibility tests require. Swap the `[workspace.dependencies]`
//! entry for the real `rand` when a registry is available.

#![forbid(unsafe_code)]

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded).
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
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
}

/// Types that can be drawn uniformly over their whole domain by
/// [`RngExt::random`].
pub trait Random {
    /// Draws one value from `rng`.
    fn random_from(rng: &mut impl RngCore) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            fn random_from(rng: &mut impl RngCore) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for bool {
    fn random_from(rng: &mut impl RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    fn random_from(rng: &mut impl RngCore) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types that [`RngExt::random_range`] can sample uniformly.
pub trait SampleUniform: Copy {
    /// Converts to the u64 sampling domain.
    fn to_u64(self) -> u64;
    /// Converts back from the u64 sampling domain.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_signed {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            // Order-preserving map into u64: offset by the sign bit.
            fn to_u64(self) -> u64 {
                (self as i64 as u64) ^ (1u64 << 63)
            }
            fn from_u64(v: u64) -> Self {
                (v ^ (1u64 << 63)) as i64 as $t
            }
        }
    )*};
}

impl_sample_uniform_signed!(i8, i16, i32, i64, isize);

/// Ranges accepted by [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Inclusive bounds `(lo, hi)` of the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn bounds(&self) -> (T, T);
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn bounds(&self) -> (T, T) {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "cannot sample from an empty range");
        (T::from_u64(lo), T::from_u64(hi - 1))
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn bounds(&self) -> (T, T) {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(lo <= hi, "cannot sample from an empty range");
        (T::from_u64(lo), T::from_u64(hi))
    }
}

/// Sampling helpers over any [`RngCore`] (the shape of `rand::Rng`).
pub trait RngExt: RngCore {
    /// Draws a uniformly distributed value over the type's whole domain.
    fn random<T: Random>(&mut self) -> T
    where
        Self: Sized,
    {
        T::random_from(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        let (lo, hi) = range.bounds();
        let (lo, hi) = (lo.to_u64(), hi.to_u64());
        let span = hi - lo + 1; // span == 0 means the full u64 domain
        let v = if span == 0 {
            self.next_u64()
        } else {
            // Widening-multiply range reduction (Lemire); the bias over a
            // 64-bit source is negligible for simulation workloads.
            ((self.next_u64() as u128 * span as u128) >> 64) as u64
        };
        T::from_u64(lo + v)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        f64::random_from(self) < p
    }
}

impl<R: RngCore> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn range_sampling_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.random_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = rng.random_range(5..=5u8);
            assert_eq!(w, 5);
        }
    }

    #[test]
    fn bool_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..1000).all(|_| !rng.random_bool(0.0)));
        assert!((0..1000).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.random_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {c}");
        }
    }
}
