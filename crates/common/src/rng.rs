//! A small, dependency-free deterministic PRNG.
//!
//! The workspace needs reproducible randomness in three places — the
//! instance generators, the monotonicity falsifiers, and the transducer
//! simulator's adversarial schedulers — and nothing more. This module
//! provides exactly that: a seeded [xoshiro256++] generator with the
//! handful of sampling helpers the experiments use. Every experiment
//! records a single `u64` seed, and the same seed produces the same
//! stream on every platform and toolchain.
//!
//! [xoshiro256++]: https://prng.di.unimi.it/

/// A seeded pseudorandom generator (xoshiro256++ core, SplitMix64 seeding).
///
/// Not cryptographically secure; statistically solid for simulation and
/// property-test workloads, and `Copy`-cheap to fork.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn gen_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from an integer range (`start..end` or `start..=end`).
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniform `u64` below `bound` (rejection-free Lemire reduction).
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty range");
        // Widening multiply keeps the bias below 2^-64 — negligible for
        // simulation workloads and fully deterministic.
        (((self.gen_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` when the slice is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.bounded_u64(xs.len() as u64) as usize])
        }
    }
}

/// Integer ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw uniformly from the range. Panics when the range is empty.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.gen_u64() as $t;
                }
                (start as i128 + rng.bounded_u64(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(i64, u64, usize, u32, u8, i32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.gen_u64(), c.gen_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&y));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::seed_from_u64(2);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut xs: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn choose_from_slices() {
        let mut rng = Rng::seed_from_u64(4);
        assert_eq!(rng.choose::<u8>(&[]), None);
        let xs = [10, 20, 30];
        for _ in 0..50 {
            assert!(xs.contains(rng.choose(&xs).unwrap()));
        }
    }
}
