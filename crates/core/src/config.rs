//! Tuning knobs of the Index Buffer and the Index Buffer Space, named after
//! the paper's parameters.

/// Per-Index-Buffer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// `P` — maximum number of table pages one partition covers (paper §IV;
    /// the experiments use `P = 10,000`).
    pub partition_pages: u32,
    /// `K` — length of the LRU-K access-interval history (paper Table II).
    pub history_k: usize,
}

impl Default for BufferConfig {
    fn default() -> Self {
        // The paper does not state its LRU-K depth. K = 8 makes the mean
        // access interval T_B stable enough that equally hot buffers stop
        // displacing each other spuriously and the published space dynamics
        // (Fig. 8) reproduce; shallow histories (K = 2) ping-pong. See
        // EXPERIMENTS.md "Fig. 8".
        BufferConfig {
            partition_pages: 10_000,
            history_k: 8,
        }
    }
}

impl BufferConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// If `partition_pages == 0` or `history_k == 0`.
    pub fn validate(&self) {
        assert!(
            self.partition_pages > 0,
            "P (partition_pages) must be positive"
        );
        assert!(self.history_k > 0, "K (history_k) must be positive");
    }
}

/// Index Buffer Space configuration.
#[derive(Debug, Clone, Copy)]
pub struct SpaceConfig {
    /// Byte cap for the Index Buffer Space component of the shared
    /// [`aib_storage::MemoryBudget`]. `None` = unlimited (paper
    /// experiment 1). The paper's entry bound `L` compiles down to bytes at
    /// [`aib_storage::DEFAULT_ENTRY_FOOTPRINT`] per entry — exact for the
    /// INTEGER key columns the paper evaluates — so experiment 3's
    /// `L = 800,000` entries is `Some(800_000 * DEFAULT_ENTRY_FOOTPRINT)`.
    pub max_bytes: Option<usize>,
    /// `I^MAX` — maximum pages newly indexed during one table scan
    /// (paper Algorithm 2; the experiments use 5,000 / 10,000).
    pub i_max: u32,
    /// Seed for the probabilistic stage-1 victim selection, making
    /// experiments reproducible.
    pub seed: u64,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            max_bytes: None,
            i_max: 5_000,
            seed: 0x5EED_1DE4,
        }
    }
}

impl SpaceConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// If `i_max == 0`.
    pub fn validate(&self) {
        assert!(self.i_max > 0, "I^MAX (i_max) must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_experiments() {
        let b = BufferConfig::default();
        assert_eq!(b.partition_pages, 10_000, "paper: P = 10,000");
        let s = SpaceConfig::default();
        assert_eq!(s.i_max, 5_000, "paper experiments 1-3: I^MAX = 5,000");
        assert_eq!(s.max_bytes, None, "experiment 1: unlimited space");
        b.validate();
        s.validate();
    }

    #[test]
    fn byte_cap_is_the_budget() {
        let bytes = SpaceConfig {
            max_bytes: Some(1 << 20),
            ..Default::default()
        };
        let space = crate::IndexBufferSpace::new(bytes);
        assert_eq!(space.budget().space_limit(), Some(1 << 20));
        bytes.validate();
    }

    #[test]
    #[should_panic(expected = "P (partition_pages)")]
    fn zero_p_rejected() {
        BufferConfig {
            partition_pages: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "K (history_k)")]
    fn zero_k_rejected() {
        BufferConfig {
            history_k: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "I^MAX")]
    fn zero_imax_rejected() {
        SpaceConfig {
            i_max: 0,
            ..Default::default()
        }
        .validate();
    }
}
