//! The workspace's one seeded generator.
//!
//! Every random draw in the simulation — each site of the synthetic
//! top-1M population, each link's jitter and loss, the Figure 6 RTT
//! samples, the serve daemon's query trace and every property-test case —
//! comes from one [`StdRng`]: xoshiro256++ seeded through [`splitmix64`].
//! The stateless derivations (fault plans, per-site seeds, population
//! permutations) call [`splitmix64`] and [`unit_f64`] directly, so the
//! mixing function and the word-to-unit-interval map exist once.
//!
//! Outputs are a pure function of the seed: campaigns replay bit for bit,
//! and `draws_are_pinned` fixes the stream.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// SplitMix64: one u64 in, one well-scrambled u64 out. It seeds
/// [`StdRng`] and is the stateless mixing function every fault and
/// population derivation is built from.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a word onto `[0, 1)` through its top 53 bits.
pub fn unit_f64(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256++, the deterministic generator behind every seeded draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// The generator whose state word `i` is
    /// `splitmix64(seed + i·0x9e3779b97f4a7c15)`. SplitMix64 is a
    /// bijection, so at most one word is zero and the state never is.
    pub fn seed_from_u64(seed: u64) -> StdRng {
        let word = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        StdRng {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// A uniform draw from `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} is outside [0, 1]");
        self.next_f64() < p
    }

    /// An exactly uniform draw from `[0, span)`: a 128-bit value from
    /// two words, high word first, rejected above the largest multiple
    /// of `span`.
    fn below(&mut self, span: u128) -> u128 {
        let zone = u128::MAX - (u128::MAX - span + 1) % span;
        loop {
            let v = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
            if v <= zone {
                return v % span;
            }
        }
    }
}

/// A range [`StdRng::gen_range`] can draw from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start as u128 + rng.below((self.end - self.start) as u128)) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample empty range");
                (start as u128 + rng.below((end - start) as u128 + 1)) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::StdRng;

    /// Every kind of draw the workspace makes, folded over 400 rounds on
    /// three seeds. The constants fix the stream: a change that moves
    /// any draw by one bit moves its seed's constant.
    #[test]
    fn draws_are_pinned() {
        let fold = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
            for _ in 0..400 {
                mix(rng.next_u64());
                mix(rng.gen_range(0u32..1_000).into());
                mix(rng.gen_range(200u32..=u32::MAX).into());
                mix(rng.gen_range(0u64..u64::MAX));
                mix(rng.gen_range(0u64..=u64::MAX));
                mix(rng.gen_range(3usize..17) as u64);
                mix(rng.gen_range(0usize..=8) as u64);
                mix(rng.gen_range(1e-9..1.0f64).to_bits());
                mix(rng.gen_bool(0.3).into());
                mix(rng.next_f64().to_bits());
            }
            h
        };
        assert_eq!(fold(0), 0xec99_03ea_b46e_6e8f);
        assert_eq!(fold(1), 0x2a93_b885_ea68_26f6);
        assert_eq!(fold(0x5eed), 0x4ba2_6dd6_e7a3_bc42);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(3u32..=5);
            assert!((3..=5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..=3_300).contains(&hits), "hits {hits}");
    }

    #[test]
    fn gen_float_unit_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1_000 {
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
    }
}
