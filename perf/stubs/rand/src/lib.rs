//! Offline stand-in for the subset of `rand` 0.10 that coded-curtain uses.
//!
//! The benchmark sandbox has no crate registry, so `perf/Cargo.toml`
//! patches `rand` to this crate. It is functional, not a no-op: `StdRng`
//! is xoshiro256++ seeded through splitmix64, ranges are drawn without
//! modulo bias worth the name (widening multiply), and `shuffle` /
//! `index::sample` are Fisher–Yates. Streams differ from the published
//! crate's ChaCha12, which no code in this repository depends on.

/// Core generator trait: a source of random words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dst: &mut [u8]) {
        let mut chunks = dst.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&w[..rest.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dst: &mut [u8]) {
        (**self).fill_bytes(dst)
    }
}

/// A type that can be drawn uniformly from a generator.
pub trait Random: Sized {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Random for f64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Uniform draw of `0..n` (`n > 0`) by widening multiply.
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(n)) >> 64) as u64
}

/// A range a value can be drawn from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u128::from(u64::MAX) {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f64::random(rng)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start() + (self.end() - self.start()) * f64::random(rng)
    }
}

/// A buffer `Rng::fill` can fill.
pub trait Fill {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

macro_rules! fill_int {
    ($($t:ty),*) => {$(
        impl Fill for [$t] {
            fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
                for x in self.iter_mut() {
                    *x = <$t>::random(rng);
                }
            }
        }
    )*};
}
fill_int!(u16, u32, u64, usize);

/// Convenience methods on every generator. The repository was written
/// against a stand-in in which `Rng` carries these methods and `RngExt` is a
/// second name for it (`use rand::{Rng, RngExt as _}` and a bare
/// `use rand::Rng` both occur), so the same shape is kept here.
pub trait Rng: RngCore {
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::random(self) < p
    }
    fn fill<T: Fill + ?Sized>(&mut self, dst: &mut T) {
        dst.fill_from(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub use Rng as RngExt;

/// A generator constructible from a seed.
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;
    fn from_seed(seed: Self::Seed) -> Self;
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let w = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut seed = Self::Seed::default();
        rng.fill_bytes(seed.as_mut());
        Self::from_seed(seed)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];
        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (w, c) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // The all-zero state is a fixed point of xoshiro.
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }
}

pub mod seq {
    use super::{below, RngCore};

    pub trait SliceRandom {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, below(rng, i as u64 + 1) as usize);
            }
        }
    }

    pub mod index {
        use super::super::{below, RngCore};

        /// `amount` distinct indices of `0..length`, in random order.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            pub fn len(&self) -> usize {
                self.0.len()
            }
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }
            pub fn index(&self, i: usize) -> usize {
                self.0[i]
            }
            pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
                self.0.iter().copied()
            }
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(amount <= length, "cannot sample more indices than exist");
            let mut all: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = i + below(rng, (length - i) as u64) as usize;
                all.swap(i, j);
            }
            all.truncate(amount);
            IndexVec(all)
        }
    }
}
