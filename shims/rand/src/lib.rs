//! Workspace-local, dependency-free stand-in for the `rand` crate.
//!
//! The build container has no access to crates.io, so this shim provides the
//! small slice of the `rand 0.8` API the Hermit sources use: `StdRng` seeded
//! via [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] over integer and
//! float ranges, [`Rng::gen_bool`], and `seq::index::sample`.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — deterministic
//! across runs and platforms, which is exactly what the seeded workload
//! generators and experiments require. It is **not** cryptographically
//! secure and makes no claim of statistical equivalence with upstream
//! `StdRng` (seeds produce different streams than real `rand`).
#![warn(clippy::allow_attributes_without_reason)]

use std::ops::{Range, RangeInclusive};

/// Minimal core RNG interface: a source of uniform `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding interface; only `seed_from_u64` is provided.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing RNG extension trait, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Sample uniformly from a half-open (`lo..hi`) or inclusive
    /// (`lo..=hi`) range. Panics on an empty range, like upstream.
    fn gen_range<R>(&mut self, range: R) -> R::Output
    where
        R: SampleRange,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Map a `u64` to a uniform `f64` in `[0, 1)` using the high 53 bits.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges that can be sampled from; mirrors `rand::distributions::uniform`.
/// A single blanket impl over [`SampleUniform`] (like upstream) keeps type
/// inference working for bare literal ranges such as `-0.05..0.05`.
pub trait SampleRange {
    type Output;
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

impl<T: SampleUniform> SampleRange for Range<T> {
    type Output = T;

    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange for RangeInclusive<T> {
    type Output = T;

    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(rng, lo, hi, true)
    }
}

/// Types uniformly sampleable from a range.
pub trait SampleUniform: PartialOrd + Copy {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                if inclusive {
                    assert!(lo <= hi, "cannot sample empty range");
                } else {
                    assert!(lo < hi, "cannot sample empty range");
                }
                let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}

int_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                if inclusive {
                    assert!(lo <= hi, "cannot sample empty range");
                } else {
                    assert!(lo < hi, "cannot sample empty range");
                }
                let u = unit_f64(rng.next_u64()) as $t;
                let span = hi - lo;
                // `hi - lo` can overflow to inf for extreme bounds; the
                // convex-combination form stays finite.
                let v = if span.is_finite() { lo + span * u } else { lo * (1.0 - u) + hi * u };
                // Rounding can land exactly on `hi`; a half-open range must
                // exclude it (upstream rand guarantees this too).
                if !inclusive && v >= hi {
                    hi.next_down().max(lo)
                } else {
                    v.clamp(lo, hi)
                }
            }
        }
    )*};
}

float_sample_uniform!(f32, f64);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
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
            StdRng { s: [next(), next(), next(), next()] }
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

pub mod seq {
    pub mod index {
        use crate::{Rng, RngCore};
        use std::collections::HashMap;

        /// Result of [`sample`]; only `into_vec` is provided.
        #[derive(Debug, Clone)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }

            pub fn len(&self) -> usize {
                self.0.len()
            }

            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }
        }

        /// Draw `amount` distinct indices uniformly from `0..length` via a
        /// sparse partial Fisher-Yates shuffle (O(amount) space and time).
        pub fn sample<R: RngCore>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} indices from a population of {length}"
            );
            let mut swaps: HashMap<usize, usize> = HashMap::new();
            let mut out = Vec::with_capacity(amount);
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                let vj = *swaps.get(&j).unwrap_or(&j);
                let vi = *swaps.get(&i).unwrap_or(&i);
                out.push(vj);
                swaps.insert(j, vi);
            }
            IndexVec(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(-5i64..17);
            assert!((-5..17).contains(&v));
            let f = rng.gen_range(1.5f64..2.5);
            assert!((1.5..2.5).contains(&f));
            let g = rng.gen_range(-0.25f64..=0.25);
            assert!((-0.25..=0.25).contains(&g));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn index_sample_is_distinct() {
        let mut rng = StdRng::seed_from_u64(3);
        let idx = super::seq::index::sample(&mut rng, 1000, 100).into_vec();
        assert_eq!(idx.len(), 100);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "indices must be distinct");
        assert!(idx.iter().all(|&i| i < 1000));
    }
}
