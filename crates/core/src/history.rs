//! LRU-K access-interval histories for Index Buffers — the paper's `H_B`
//! and Table II.
//!
//! Each Index Buffer `B` keeps the lengths of its `K` most recent *access
//! intervals*, measured in queries. The current (still open) interval is
//! `H_B[0]`. Table II defines the updates:
//!
//! | query outcome            | queried column's buffer `B`        | other buffers `B'` |
//! |--------------------------|------------------------------------|--------------------|
//! | partial index hit        | `H_B[0]++`                         | `H_B'[0]++`        |
//! | no partial index hit     | `shift(H_B, +1); H_B[0] = 0`       | `H_B'[0]++`        |
//!
//! A buffer is *used* only when the partial index misses; that closes the
//! open interval and starts a new one. Every other query just lengthens the
//! open interval of every buffer.
//!
//! The mean access interval `T_B = K⁻¹ · Σ H_B[i]` feeds the benefit model:
//! a frequently used buffer has a small `T_B` and thus valuable partitions.
//!
//! Interval bookkeeping is kept as LRU-K's use-timestamp history: with a
//! per-buffer query clock, `H_B[0]++` is one clock tick and
//! `shift(H_B, +1); H_B[0] = 0` records a use at the current tick — the
//! intervals are the gaps between the `K` retained timestamps.

use std::collections::VecDeque;

/// The LRU-K history `H_B` of one Index Buffer: the `K` most recent use
/// timestamps on a per-buffer query clock (Table II semantics).
#[derive(Debug, Clone)]
pub struct LruKHistory {
    k: usize,
    /// Retained use timestamps, most recent first.
    stamps: VecDeque<u64>,
    uses: u64,
    /// Queries elapsed, in this buffer's frame of reference.
    clock: u64,
}

impl LruKHistory {
    /// Creates an empty history of depth `k`.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "LRU-K requires k >= 1");
        LruKHistory {
            k,
            stamps: VecDeque::with_capacity(k),
            uses: 0,
            clock: 0,
        }
    }

    /// History depth `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// How many times this buffer has been used (partial-index misses on its
    /// column); not capped at `K`.
    pub fn uses(&self) -> u64 {
        self.uses
    }

    /// `H_B[0]++` — a query ran that did not use this buffer (Table II, all
    /// cases except "no hit on the queried column").
    pub fn tick(&mut self) {
        self.tick_n(1);
    }

    /// `shift(H_B, +1); H_B[0] = 0` — the buffer was used by this query
    /// (Table II, no-hit case for the queried column).
    pub fn record_use(&mut self) {
        self.record_use_n(1);
    }

    /// `n` consecutive [`tick`](Self::tick)s at once, in O(1). Used when
    /// draining deferred fast-path query events.
    pub fn tick_n(&mut self, n: u64) {
        // Before the first use there is no open interval; advancing the
        // clock is still harmless because intervals are timestamp gaps and
        // the first use anchors at whatever the clock then reads.
        self.clock += n;
    }

    /// `n` consecutive [`record_use`](Self::record_use)s at once, in
    /// O(min(n, K)). Used when draining deferred fast-path query events.
    pub fn record_use_n(&mut self, n: u64) {
        self.uses += n;
        for _ in 0..n.min(self.k as u64) {
            self.stamps.push_front(self.clock);
        }
        self.stamps.truncate(self.k);
    }

    /// The buffer's logical query clock (diagnostics / drain bookkeeping).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Mean access interval `T_B`, or `None` if the buffer was never used
    /// (infinite interval — such a buffer has zero benefit).
    ///
    /// The average divides by the number of *recorded* intervals (≤ K), so a
    /// buffer warms up fairly before its history fills; the interval sum
    /// telescopes to `clock - oldest`. Means are floored at 1.0: a buffer
    /// used on every query has `T_B = 1`, giving the maximum finite benefit
    /// rather than a division by zero.
    pub fn mean_interval(&self) -> Option<f64> {
        let oldest = *self.stamps.back()?;
        let mean = self.clock.saturating_sub(oldest) as f64 / self.stamps.len() as f64;
        Some(mean.max(1.0))
    }

    /// `T_B⁻¹` as a benefit factor: 0 for never-used buffers.
    pub fn use_frequency(&self) -> f64 {
        self.mean_interval().map_or(0.0, |t| 1.0 / t)
    }

    /// Raw intervals, most recent first (diagnostics / Table II harness):
    /// `clock - t_0, t_0 - t_1, …` for timestamps `t_0 ≥ t_1 ≥ …`.
    pub fn intervals(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.clock)
            .chain(self.stamps.iter().copied())
            .zip(self.stamps.iter().copied())
            .map(|(later, earlier)| later.saturating_sub(earlier))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unused_history_has_no_mean() {
        let mut h = LruKHistory::new(3);
        assert_eq!(h.mean_interval(), None);
        assert_eq!(h.use_frequency(), 0.0);
        // Ticks before first use do not create an interval.
        h.tick();
        h.tick();
        assert_eq!(h.mean_interval(), None);
        assert_eq!(h.uses(), 0);
    }

    #[test]
    fn table2_hit_case_lengthens_open_interval() {
        let mut h = LruKHistory::new(2);
        h.record_use(); // H = [0]
        h.tick(); // H = [1]
        h.tick(); // H = [2]
        assert_eq!(h.intervals().collect::<Vec<_>>(), vec![2]);
        assert_eq!(h.mean_interval(), Some(2.0));
    }

    #[test]
    fn table2_use_case_shifts_history() {
        let mut h = LruKHistory::new(2);
        h.record_use(); // [0]
        h.tick(); // [1]
        h.tick(); // [2]
        h.record_use(); // [0, 2]
        assert_eq!(h.intervals().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(h.mean_interval(), Some(1.0), "(0+2)/2 = 1");
        h.tick(); // [1, 2]
        assert_eq!(h.mean_interval(), Some(1.5));
        assert_eq!(h.uses(), 2);
    }

    #[test]
    fn history_depth_is_bounded_by_k() {
        let mut h = LruKHistory::new(2);
        for _ in 0..5 {
            h.record_use();
            h.tick();
        }
        assert_eq!(h.intervals().count(), 2);
        assert_eq!(h.intervals().collect::<Vec<_>>(), vec![1, 1]);
    }

    #[test]
    fn frequent_use_means_small_interval_high_frequency() {
        let mut hot = LruKHistory::new(4);
        let mut cold = LruKHistory::new(4);
        for i in 0..100 {
            if i % 2 == 0 {
                hot.record_use();
            } else {
                hot.tick();
            }
            if i % 20 == 0 {
                cold.record_use();
            } else {
                cold.tick();
            }
        }
        assert!(
            hot.use_frequency() > cold.use_frequency(),
            "hot {} vs cold {}",
            hot.use_frequency(),
            cold.use_frequency()
        );
    }

    #[test]
    fn mean_is_floored_at_one() {
        let mut h = LruKHistory::new(2);
        h.record_use();
        h.record_use(); // [0, 0]
        assert_eq!(h.mean_interval(), Some(1.0));
        assert_eq!(h.use_frequency(), 1.0);
    }

    #[test]
    fn ticks_before_first_use_do_not_skew_intervals() {
        // The timestamp reformulation must agree with the interval form even
        // when the clock ran before the first use.
        let mut h = LruKHistory::new(2);
        h.tick();
        h.tick();
        h.record_use(); // [0]
        h.tick(); // [1]
        assert_eq!(h.intervals().collect::<Vec<_>>(), vec![1]);
        assert_eq!(h.mean_interval(), Some(1.0));
    }

    #[test]
    fn batched_ops_match_looped_ops() {
        let mut batched = LruKHistory::new(3);
        batched.record_use();
        batched.tick_n(4);
        batched.record_use_n(2);
        let mut looped = LruKHistory::new(3);
        looped.record_use();
        for _ in 0..4 {
            looped.tick();
        }
        looped.record_use();
        looped.record_use();
        assert_eq!(batched.clock(), looped.clock());
        assert_eq!(batched.uses(), looped.uses());
        assert_eq!(
            batched.intervals().collect::<Vec<_>>(),
            looped.intervals().collect::<Vec<_>>()
        );
        assert_eq!(batched.mean_interval(), looped.mean_interval());
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        LruKHistory::new(0);
    }
}
