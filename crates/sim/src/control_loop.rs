//! The control-loop-delay simulation behind paper Fig. 1.
//!
//! "Queried is a single column of integer values. The simulated tuning
//! mechanism indexes a queried value if it has shown enough potential query
//! cost reduction during the last twenty queries. For simplicity ..., a
//! value is assumed to reach the threshold if it was queried at least six
//! times in the monitoring window. Entries are removed from the index based
//! on a least recently used strategy. The simulation runs for 500 queries.
//! Between query 200 and 300 the focus of the queries shifts from values
//! less 15 to values greater 15."
//!
//! The paper does not state the within-range query distribution. A uniform
//! draw over a 15-value range has an expected 20/15 ≈ 1.3 occurrences per
//! value in a 20-query window and can practically never reach 6, so the
//! stated parameters cannot reproduce the figure verbatim. We keep the
//! 6-occurrence threshold and LRU eviction but default to a 60-query
//! monitoring window (expected 4 occurrences per value; the Poisson tail
//! crosses 6 regularly), which yields exactly the published dynamics: the
//! indexed band builds up, lags the queried band through the shift, and the
//! hit rate collapses meanwhile. The deviation is recorded in
//! EXPERIMENTS.md.

use aib_engine::{OnlineTuner, TunerConfig};
use aib_storage::{Rng, Value};

/// Parameters of the Fig. 1 simulation.
#[derive(Debug, Clone)]
pub struct ControlLoopConfig {
    /// Total queries (paper: 500).
    pub queries: usize,
    /// Queried range before the shift (paper: values less than 15).
    pub low_range: (i64, i64),
    /// Queried range after the shift (paper: values greater than 15).
    pub high_range: (i64, i64),
    /// Shift window in query numbers (paper: 200..300).
    pub shift: (usize, usize),
    /// The tuning mechanism (paper: window 20, threshold 6, LRU).
    pub tuner: TunerConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ControlLoopConfig {
    fn default() -> Self {
        ControlLoopConfig {
            queries: 500,
            low_range: (1, 15),
            high_range: (16, 30),
            shift: (200, 300),
            tuner: TunerConfig {
                window: 60,
                threshold: 6,
                capacity: 15,
            },
            seed: 0xF161,
        }
    }
}

/// One query's outcome in the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlLoopRecord {
    /// Query number (0-based).
    pub seq: usize,
    /// Queried value.
    pub value: i64,
    /// Queried value range at this point of the schedule.
    pub queried_range: (i64, i64),
    /// Whether the partial index covered the value (a hit).
    pub hit: bool,
    /// Indexed value range after the query (`None` while empty).
    pub indexed_range: Option<(i64, i64)>,
    /// Number of indexed values after the query.
    pub indexed_count: usize,
}

/// The full simulation result.
#[derive(Debug, Clone)]
pub struct ControlLoopResult {
    /// Per-query records.
    pub records: Vec<ControlLoopRecord>,
}

impl ControlLoopResult {
    /// Hit rate over queries `[from, to)`.
    pub fn hit_rate(&self, from: usize, to: usize) -> f64 {
        let slice = self
            .records
            .get(from.min(self.records.len())..to.min(self.records.len()))
            .unwrap_or_default();
        if slice.is_empty() {
            return 0.0;
        }
        slice.iter().filter(|r| r.hit).count() as f64 / slice.len() as f64
    }

    /// First query from which the hit rate over the next `window` queries
    /// stays at or above `level` and the upper end of the indexed range has
    /// reached the post-shift range — a measure of when the tuner has
    /// re-adapted. (A few stale pre-shift values may linger under LRU, just
    /// as in the paper's figure, so full containment is not required.)
    pub fn adapted_after(
        &self,
        high_range: (i64, i64),
        level: f64,
        window: usize,
    ) -> Option<usize> {
        (0..self.records.len().saturating_sub(window)).find(|&q| {
            self.records
                .get(q)
                .is_some_and(|r| r.indexed_range.is_some_and(|(_, hi)| hi >= high_range.0))
                && self.hit_rate(q, q + window) >= level
        })
    }
}

/// The queried range at query `seq`: the bounds interpolate linearly across
/// the shift window.
pub fn queried_range(config: &ControlLoopConfig, seq: usize) -> (i64, i64) {
    let (s0, s1) = config.shift;
    let f = if seq < s0 {
        0.0
    } else if seq >= s1 {
        1.0
    } else {
        (seq - s0) as f64 / (s1 - s0) as f64
    };
    let lerp = |a: i64, b: i64| a + ((b - a) as f64 * f).round() as i64;
    (
        lerp(config.low_range.0, config.high_range.0),
        lerp(config.low_range.1, config.high_range.1),
    )
}

/// Runs the Fig. 1 simulation.
///
/// Each schedule phase — pre-shift, shift window, post-shift — draws from
/// its own RNG stream, seeded deterministically from `(seed, phase)`. An
/// extra or removed draw in one phase therefore cannot perturb the values a
/// later phase sees, so assertions anchored to a phase (tail tolerances,
/// adaptation points) are insensitive to upstream changes in draw count.
pub fn run(config: &ControlLoopConfig) -> ControlLoopResult {
    let phase_rng = |phase: u64| Rng::new(config.seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut phase = 0u64;
    let mut rng = phase_rng(phase);
    let mut tuner = OnlineTuner::new(config.tuner);
    let mut records = Vec::with_capacity(config.queries);
    for seq in 0..config.queries {
        let seq_phase = if seq < config.shift.0 {
            0
        } else if seq < config.shift.1 {
            1
        } else {
            2
        };
        if seq_phase != phase {
            phase = seq_phase;
            rng = phase_rng(phase);
        }
        let range = queried_range(config, seq);
        let value = rng.int(range.0, range.1.max(range.0));
        let v = Value::Int(value);
        let hit = tuner.is_covered(&v);
        tuner.observe(&v);
        let indexed: Vec<i64> = tuner.covered_values().filter_map(Value::as_int).collect();
        let indexed_range = match (indexed.iter().min(), indexed.iter().max()) {
            (Some(&lo), Some(&hi)) => Some((lo, hi)),
            _ => None,
        };
        records.push(ControlLoopRecord {
            seq,
            value,
            queried_range: range,
            hit,
            indexed_range,
            indexed_count: indexed.len(),
        });
    }
    ControlLoopResult { records }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_interpolates_across_shift() {
        let c = ControlLoopConfig::default();
        assert_eq!(queried_range(&c, 0), (1, 15));
        assert_eq!(queried_range(&c, 199), (1, 15));
        assert_eq!(queried_range(&c, 300), (16, 30));
        assert_eq!(queried_range(&c, 499), (16, 30));
        let mid = queried_range(&c, 250);
        assert!(mid.0 > 1 && mid.0 < 16);
        assert!(mid.1 > 15 && mid.1 < 31);
    }

    #[test]
    fn tuner_adapts_before_shift_and_readapts_after() {
        let result = run(&ControlLoopConfig::default());
        assert_eq!(result.records.len(), 500);
        // Warm phase: by query 150 the hot values are indexed and the hit
        // rate is substantial.
        let warm = result.hit_rate(100, 200);
        assert!(warm > 0.4, "pre-shift hit rate {warm}");
        // The shift collapses the hit rate (Fig. 1's double burden).
        let during = result.hit_rate(250, 320);
        assert!(
            during < warm - 0.15,
            "hit rate must drop during adaptation: warm {warm}, during {during}"
        );
        // Recovery by the end.
        let late = result.hit_rate(430, 500);
        assert!(late > 0.4, "post-adaptation hit rate {late}");
    }

    #[test]
    fn indexed_range_lags_queried_range() {
        let c = ControlLoopConfig::default();
        let result = run(&c);
        // At the end of the shift (query 300) the queried range is fully
        // high, but the index still contains low values: the control loop
        // delay.
        let r = &result.records[305];
        let (lo, _) = r.indexed_range.expect("index is populated");
        assert!(
            lo < c.high_range.0,
            "stale low values remain indexed right after the shift (lo={lo})"
        );
        // Eventually the index catches up: a re-adaptation point after the
        // shift began, i.e. a positive control-loop delay.
        let adapted = result
            .adapted_after(c.high_range, 0.7, 50)
            .expect("tuner must eventually adapt");
        assert!(
            adapted > c.shift.0,
            "adaptation completes only after the shift began: {adapted}"
        );
        // By the end, the indexed band has moved into the high range (a few
        // stale transition values may remain under LRU).
        let last = result.records.last().unwrap();
        let (_, hi) = last.indexed_range.unwrap();
        assert!(hi >= c.high_range.0);
        let inside = result.records[480..].iter().all(|r| {
            r.indexed_range
                .is_some_and(|(lo, _)| lo > c.low_range.1 - 5)
        });
        assert!(inside, "most stale low values evicted by the end");
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run(&ControlLoopConfig::default());
        let b = run(&ControlLoopConfig::default());
        assert_eq!(a.records, b.records);
    }
}
