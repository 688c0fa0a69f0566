//! The one random stream of the engine, the workload generators and the
//! simulations: xoshiro256** seeded through SplitMix64. Bit-compatible with
//! `e2e/stubs/rand`: `int` / `below` draw what its integer `gen_range` draws
//! over the same span, `unit() * t` what `gen_range(0.0..t)` draws.

/// A seeded xoshiro256** generator; its whole stream is fixed by the seed.
#[derive(Debug, Clone)]
pub struct Rng {
    s0: u64,
    s1: u64,
    s2: u64,
    s3: u64,
}

impl Rng {
    /// The stream of `seed`, which SplitMix64 expands into the four words.
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (s0, s1, s2, s3) = (next(), next(), next(), next());
        Rng { s0, s1, s2, s3 }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s1 << 17;
        self.s2 ^= self.s0;
        self.s3 ^= self.s1;
        self.s1 ^= self.s2;
        self.s0 ^= self.s3;
        self.s2 ^= t;
        self.s3 = self.s3.rotate_left(45);
        result
    }

    /// A uniform integer in `0..n`, unbiased by rejection. Panics if `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample an empty range");
        let zone = u64::MAX - (u64::MAX % n + 1) % n;
        let mut word = self.next_u64();
        while word > zone {
            word = self.next_u64();
        }
        word % n
    }

    /// A uniform integer in `lo..=hi` (not all of `i64`). Panics if `lo > hi`.
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "cannot sample an empty range");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64 + 1) as i64)
    }

    /// 53 random bits as a float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn same_seed_same_stream_and_bounds_hold() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let mut differs = false;
        for _ in 0..1000 {
            let x = a.int(1, 50);
            assert_eq!(x, b.int(1, 50));
            differs |= x != c.int(1, 50);
            assert!((1..=50).contains(&x));
            let f = a.unit() * 3.0;
            assert_eq!(f, b.unit() * 3.0);
            assert!((0.0..3.0).contains(&f));
            assert!(a.below(7) < 7);
            b.below(7);
            assert!((b'a' + a.below(26) as u8).is_ascii_lowercase());
            b.below(26);
        }
        assert!(differs);
        let heads = (0..10_000).filter(|_| a.chance(0.25)).count();
        assert!((2200..2800).contains(&heads), "{heads}");
    }

    /// Golden values recorded from the `rand` stand-in under
    /// `e2e/stubs/rand` (`StdRng::seed_from_u64`, `next_u64`,
    /// `gen_range(1..=50i64)`, `gen_range(0.0..1.0)`): an edit that changes
    /// a single draw fails here before any workload count moves.
    #[test]
    fn stream_matches_the_recorded_golden_values() {
        let words = |seed| {
            let mut rng = Rng::new(seed);
            [(); 4].map(|()| rng.next_u64())
        };
        assert_eq!(
            words(0),
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0,
                0x6aa5_94f1_262d_2d2c
            ]
        );
        assert_eq!(
            words(7),
            [
                0xb358_faf7_4ef9_765a,
                0x475c_3d96_4f48_2cd2,
                0xd6f1_d349_952c_7996,
                0xfb29_3873_1e80_7240
            ]
        );
        let mut rng = Rng::new(7);
        let ints: Vec<i64> = (0..20).map(|_| rng.int(1, 50)).collect();
        assert_eq!(
            ints,
            [45, 25, 39, 15, 15, 22, 17, 47, 9, 20, 4, 47, 48, 2, 31, 34, 26, 45, 16, 48]
        );
        let units: Vec<u64> = (0..5).map(|_| rng.unit().to_bits()).collect();
        assert_eq!(
            units,
            [
                0x3fc5_f14d_24bd_5874, // 0.17142643255164425
                0x3fe4_d7e9_2381_7b7e, // 0.6513562863800499
                0x3fe5_5bc6_d3a9_e9bd, // 0.6674532064492308
                0x3fd1_fd28_4e99_c362, // 0.2810765044769622
                0x3fe7_fccd_2afc_7ef8, // 0.7496095504356779
            ]
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_is_rejected() {
        Rng::new(0).int(2, 1);
    }
}
