//! Key distributions for data and query generation.

use aib_storage::Rng;

/// A distribution over integer keys.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Uniform over `lo..=hi` (the paper's data and query distribution).
    Uniform {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Hot-set: with probability `hot_prob` draw uniformly from the hot
    /// range, otherwise from the cold range. Models experiment 4's
    /// controlled partial-index hit rates.
    HotSet {
        /// Inclusive hot range.
        hot: (i64, i64),
        /// Probability of drawing from the hot range.
        hot_prob: f64,
        /// Inclusive cold range.
        cold: (i64, i64),
    },
}

impl KeyDist {
    /// Draws one key.
    pub fn sample(&self, rng: &mut Rng) -> i64 {
        match self {
            KeyDist::Uniform { lo, hi } => rng.int(*lo, *hi),
            KeyDist::HotSet {
                hot,
                hot_prob,
                cold,
            } => {
                let (lo, hi) = if rng.chance(*hot_prob) { *hot } else { *cold };
                rng.int(lo, hi)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_domain() {
        let mut rng = Rng::new(1);
        let d = KeyDist::Uniform { lo: 1, hi: 10 };
        let mut seen = [false; 11];
        for _ in 0..1000 {
            let k = d.sample(&mut rng);
            assert!((1..=10).contains(&k));
            seen[k as usize] = true;
        }
        assert!(seen[1..=10].iter().all(|&s| s), "all values appear");
    }

    #[test]
    fn hot_set_respects_probability() {
        let mut rng = Rng::new(4);
        let d = KeyDist::HotSet {
            hot: (1, 100),
            hot_prob: 0.8,
            cold: (101, 1000),
        };
        let mut hot = 0;
        for _ in 0..10_000 {
            let k = d.sample(&mut rng);
            if k <= 100 {
                hot += 1;
            } else {
                assert!((101..=1000).contains(&k));
            }
        }
        assert!((7700..8300).contains(&hot), "~80% hot, got {hot}");
    }
}
