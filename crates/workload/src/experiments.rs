//! Canned query workloads reproducing the paper's four experiments (§V).
//!
//! All experiments share the evaluation table of [`crate::datagen::TableSpec`]
//! and run 200 queries:
//!
//! * **Experiment 1/2** — 200 point queries on column `A`, uniformly over
//!   the *unindexed* values (the covered 10 % is never queried).
//! * **Experiment 3** — mix A:B:C = 1/2:1/3:1/6 flipping to 1/6:1/3:1/2 at
//!   query 100; all values unindexed.
//! * **Experiment 4** — fixed mix 1/2:1/3:1/6; column-A values are drawn so
//!   that 80 % fall into one 10 % chunk of the domain (`range_r1`) and 20 %
//!   into another (`range_r2`). The partial index on A covers `range_r1`
//!   for the first 100 queries and is redefined to `range_r2` afterwards —
//!   realising the paper's 80 % → 20 % hit-rate switch.
//!
//! Fig. 1's stream, [`fig1_queries`], is the one outside that table: 500
//! values of a single integer column whose focus shifts across queries
//! 200–300.

use aib_storage::Rng;

use crate::datagen::TableSpec;
use crate::distribution::KeyDist;
use crate::mix::QueryMix;

/// One point query of an experiment workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Queried column (`"A"`, `"B"`, or `"C"`).
    pub column: String,
    /// Queried key.
    pub value: i64,
}

/// Number of queries in every paper experiment.
pub const PAPER_QUERIES: usize = 200;

/// The switch point of experiments 3 and 4.
pub const SWITCH_AT: usize = 100;

/// Uniform distribution over the *uncovered* values of `spec`.
fn uncovered(spec: &TableSpec) -> KeyDist {
    let (_, hi) = spec.covered_range();
    KeyDist::Uniform {
        lo: hi + 1,
        hi: spec.domain,
    }
}

/// Experiment 1/2 workload: `n` uncovered point queries on column A.
pub fn experiment1_queries(spec: &TableSpec, n: usize, seed: u64) -> Vec<QuerySpec> {
    let mut rng = Rng::new(seed);
    let dist = uncovered(spec);
    (0..n)
        .map(|_| QuerySpec {
            column: "A".into(),
            value: dist.sample(&mut rng),
        })
        .collect()
}

/// Experiment 3 workload: shifting mix, all values uncovered.
pub fn experiment3_queries(spec: &TableSpec, n: usize, seed: u64) -> Vec<QuerySpec> {
    let mut rng = Rng::new(seed);
    let mix = QueryMix::experiment3();
    let dist = uncovered(spec);
    (0..n)
        .map(|seq| QuerySpec {
            column: mix.pick(seq, &mut rng).to_owned(),
            value: dist.sample(&mut rng),
        })
        .collect()
}

/// Experiment 4: the two candidate coverage ranges for column A.
/// `range_r1` is covered during the first phase, `range_r2` after the
/// switch; A-queries draw from `r1` with probability 0.8.
pub fn exp4_ranges(spec: &TableSpec) -> ((i64, i64), (i64, i64)) {
    let tenth = spec.domain / 10;
    ((1, tenth), (spec.domain - tenth + 1, spec.domain))
}

/// Experiment 4 workload: fixed mix; column-A values drawn 80/20 over the
/// two ranges of [`exp4_ranges`]; B and C uncovered uniform.
pub fn experiment4_queries(spec: &TableSpec, n: usize, seed: u64) -> Vec<QuerySpec> {
    let mut rng = Rng::new(seed);
    let mix = QueryMix::experiment4();
    let (r1, r2) = exp4_ranges(spec);
    let a_dist = KeyDist::HotSet {
        hot: r1,
        hot_prob: 0.8,
        cold: r2,
    };
    let other = uncovered(spec);
    (0..n)
        .map(|seq| {
            let column = mix.pick(seq, &mut rng).to_owned();
            let value = if column == "A" {
                a_dist.sample(&mut rng)
            } else {
                other.sample(&mut rng)
            };
            QuerySpec { column, value }
        })
        .collect()
}

/// Queries in the Fig. 1 stream (paper: 500).
pub const FIG1_QUERIES: usize = 500;

/// Fig. 1's queried values before the shift (paper: values less than 15).
pub const FIG1_LOW: (i64, i64) = (1, 15);

/// Fig. 1's queried values after the shift (paper: values greater than 15).
pub const FIG1_HIGH: (i64, i64) = (16, 30);

/// Fig. 1's shift window in query numbers (paper: 200..300).
pub const FIG1_SHIFT: (usize, usize) = (200, 300);

/// The queried range at query `seq` of the Fig. 1 stream: the bounds move
/// linearly from [`FIG1_LOW`] to [`FIG1_HIGH`] across [`FIG1_SHIFT`].
pub fn fig1_queried_range(seq: usize) -> (i64, i64) {
    let (s0, s1) = FIG1_SHIFT;
    let f = (seq.clamp(s0, s1) - s0) as f64 / (s1 - s0) as f64;
    let lerp = |a: i64, b: i64| a + ((b - a) as f64 * f).round() as i64;
    (lerp(FIG1_LOW.0, FIG1_HIGH.0), lerp(FIG1_LOW.1, FIG1_HIGH.1))
}

/// The Fig. 1 stream: [`FIG1_QUERIES`] values, each drawn uniformly from
/// [`fig1_queried_range`] of its query number.
///
/// The paper's tuner indexes a value queried at least six times in the
/// last twenty queries and evicts the least recently used one, but the
/// paper does not state the within-range distribution. A uniform draw
/// over a 15-value range has an expected 20/15 ≈ 1.3 occurrences per value
/// in a 20-query window and can practically never reach 6, so the stated
/// parameters cannot reproduce the figure verbatim. The tuner that follows
/// this stream keeps the 6-occurrence threshold and LRU eviction but
/// watches a 60-query window (expected 4 occurrences per value; the Poisson
/// tail crosses 6 regularly), which yields the published dynamics: the
/// indexed band builds up, lags the queried band through the shift, and the
/// hit rate collapses meanwhile.
///
/// Each phase — pre-shift, shift window, post-shift — draws from its own
/// stream, seeded from `(0xF161, phase)`, so an extra or removed draw in
/// one phase cannot perturb the values a later phase sees.
pub fn fig1_queries() -> Vec<i64> {
    [(0, FIG1_SHIFT.0), FIG1_SHIFT, (FIG1_SHIFT.1, FIG1_QUERIES)]
        .into_iter()
        .zip(0u64..)
        .flat_map(|((from, to), phase)| {
            let mut rng = Rng::new(0xF161 ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (from..to).map(move |seq| {
                let (lo, hi) = fig1_queried_range(seq);
                rng.int(lo, hi)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TableSpec {
        TableSpec::paper()
    }

    #[test]
    fn experiment1_only_column_a_uncovered_values() {
        let qs = experiment1_queries(&spec(), PAPER_QUERIES, 1);
        assert_eq!(qs.len(), 200);
        assert!(qs.iter().all(|q| q.column == "A"));
        assert!(qs.iter().all(|q| q.value > 5_000 && q.value <= 50_000));
    }

    #[test]
    fn experiment3_mix_flips() {
        let qs = experiment3_queries(&spec(), 20_000, 2);
        let count = |range: std::ops::Range<usize>, col: &str| {
            qs[range].iter().filter(|q| q.column == col).count()
        };
        // Large n to check frequencies; switch point scales with phase
        // definition (100), so index directly by phase via mix: the first
        // 100 are phase 1, rest phase 2.
        let a_phase2 = count(100..20_000, "A") as f64 / 19_900.0;
        assert!(a_phase2 < 0.25, "A drops to ~1/6 after switch: {a_phase2}");
        let c_phase2 = count(100..20_000, "C") as f64 / 19_900.0;
        assert!(c_phase2 > 0.4, "C rises to ~1/2 after switch: {c_phase2}");
        assert!(qs.iter().all(|q| q.value > 5_000));
    }

    #[test]
    fn experiment4_a_values_follow_8020() {
        let s = spec();
        let (r1, r2) = exp4_ranges(&s);
        assert_eq!(r1, (1, 5_000));
        assert_eq!(r2, (45_001, 50_000));
        let qs = experiment4_queries(&s, 20_000, 3);
        let a: Vec<&QuerySpec> = qs.iter().filter(|q| q.column == "A").collect();
        let in_r1 = a
            .iter()
            .filter(|q| q.value >= r1.0 && q.value <= r1.1)
            .count();
        let frac = in_r1 as f64 / a.len() as f64;
        assert!((0.77..0.83).contains(&frac), "80% in r1, got {frac}");
        let others: Vec<&QuerySpec> = qs.iter().filter(|q| q.column != "A").collect();
        assert!(others.iter().all(|q| q.value > 5_000));
    }

    #[test]
    fn schedule_interpolates_across_shift() {
        assert_eq!(fig1_queried_range(0), (1, 15));
        assert_eq!(fig1_queried_range(199), (1, 15));
        assert_eq!(fig1_queried_range(300), (16, 30));
        assert_eq!(fig1_queried_range(499), (16, 30));
        let mid = fig1_queried_range(250);
        assert!(mid.0 > 1 && mid.0 < 16);
        assert!(mid.1 > 15 && mid.1 < 31);
    }

    #[test]
    fn workloads_are_deterministic() {
        let s = spec();
        assert_eq!(
            experiment1_queries(&s, 50, 7),
            experiment1_queries(&s, 50, 7)
        );
        assert_eq!(
            experiment4_queries(&s, 50, 7),
            experiment4_queries(&s, 50, 7)
        );
        assert_ne!(
            experiment1_queries(&s, 50, 7),
            experiment1_queries(&s, 50, 8)
        );
    }
}
