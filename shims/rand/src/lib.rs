//! Workspace-local stand-in for the `rand` crate.
//!
//! The build container has no registry access, so the subset of `rand`'s
//! 0.8 API this workspace uses is vendored here: `rngs::StdRng`,
//! `SeedableRng::{seed_from_u64, from_seed}`, and `Rng::{gen, gen_range,
//! gen_bool}` over integer ranges and `f64`/`bool` draws.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — statistically
//! strong for simulation work and fully deterministic. Streams differ from
//! upstream `rand` (nothing in this workspace asserts upstream values; all
//! determinism tests compare the generator against itself).

use std::ops::{Range, RangeInclusive};

/// Deterministic pseudo-random generators.
pub mod rngs {
    /// The workspace's standard seeded RNG (xoshiro256**).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

pub use rngs::StdRng;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StdRng {
    #[inline]
    fn next_raw(&mut self) -> u64 {
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

/// Core entropy source: everything else derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
}

impl RngCore for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Seed type.
    type Seed;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64` via SplitMix64 expansion.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, word) in s.iter_mut().enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&seed[i * 8..i * 8 + 8]);
            *word = u64::from_le_bytes(bytes);
        }
        if s.iter().all(|&w| w == 0) {
            // xoshiro must not start at the all-zero state.
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        StdRng { s }
    }

    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

/// Types drawable uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Use a high bit; low bits of some generators are weaker.
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

/// Integer types uniformly samplable over a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`; `hi > lo`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`; `hi >= lo`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            // The draw is `next_u64() mod span`. The implemented types are
            // at most 64 bits wide, so every span fits in a u64 except the
            // full-width inclusive one, 2^64, where the draw is the raw
            // word itself.
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = hi as u64 - lo as u64;
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty inclusive range");
                let x = rng.next_u64();
                let r = match (hi as u64 - lo as u64).checked_add(1) {
                    Some(span) => x % span,
                    None => x,
                };
                lo.wrapping_add(r as $t)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

/// Range arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(rng, lo, hi)
    }
}

/// User-facing draws, auto-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of an inferred type.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws uniformly from `range`.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Draws `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: u64 = rng.gen_range(5..=5);
            assert_eq!(w, 5);
        }
    }

    /// `gen_range` against `lo + (next_u64() mod span)` computed in u128,
    /// on the same stream.
    #[test]
    fn gen_range_equals_the_u128_formula() {
        const DRAWS: usize = 100_000;
        let spans: [u128; 7] = [
            1,
            2,
            3,
            (1 << 32) - 1,
            (1 << 32) + 1,
            1 << 63,
            u64::MAX as u128 - 1,
        ];
        let check = |lo: u64, span: u128, inclusive: bool| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut raw = rng.clone();
            for _ in 0..DRAWS {
                let got: u64 = if inclusive {
                    rng.gen_range(lo..=(lo as u128 + span - 1) as u64)
                } else {
                    rng.gen_range(lo..(lo as u128 + span) as u64)
                };
                let want = (lo as u128 + raw.next_u64() as u128 % span) as u64;
                assert_eq!(got, want, "lo {lo} span {span} inclusive {inclusive}");
            }
        };
        for span in spans {
            let top = (u64::MAX as u128 - span) as u64;
            for lo in [0, 5.min(top), top] {
                check(lo, span, false);
                check(lo, span, true);
            }
        }
        check(0, 1 << 64, true);
    }

    #[test]
    fn unit_floats_cover_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            lo |= u < 0.1;
            hi |= u > 0.9;
        }
        assert!(lo && hi, "draws should spread across [0,1)");
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(3);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_000..6_000).contains(&trues), "{trues}");
    }
}
