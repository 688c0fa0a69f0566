//! The fully-indexed-pages simulation behind paper Fig. 3.
//!
//! "We have simulated different correlations between logical order and
//! physical order. The simulation started with a logically ordered set of
//! tuples (correlation equals 1) and gradually swapped randomly picked
//! tuples to decrease the correlation. In each step, we counted the number
//! of fully indexed pages. ... All scenarios are based on 100,000 tuples."
//!
//! A page is *fully indexed* iff every tuple on it is covered by the
//! partial index; only such pages can be skipped during a table scan
//! (paper §II). The paper's headline: with ≥10 tuples per page and
//! correlation ≤0.8, fewer than 5 % of pages remain fully indexed.

use aib_storage::Rng;

/// One Fig. 3 scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringScenario {
    /// Number of tuples (paper: 100,000).
    pub tuples: usize,
    /// Tuples per page.
    pub per_page: usize,
    /// Fraction of tuples covered by the partial index.
    pub coverage: f64,
}

impl ClusteringScenario {
    /// Human-readable label for harness output.
    pub fn label(&self) -> String {
        format!(
            "{} tuples/page, {:.0}% covered",
            self.per_page,
            self.coverage * 100.0
        )
    }
}

/// The six scenarios we plot (the paper does not list its exact six; these
/// bracket its described regime — see DESIGN.md §5).
pub fn paper_scenarios() -> Vec<ClusteringScenario> {
    let mut v = Vec::new();
    for &coverage in &[0.1, 0.3] {
        for &per_page in &[5, 10, 20] {
            v.push(ClusteringScenario {
                tuples: 100_000,
                per_page,
                coverage,
            });
        }
    }
    v
}

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringPoint {
    /// Spearman correlation between physical position and logical order.
    pub correlation: f64,
    /// Fraction of pages whose tuples are all covered.
    pub fully_indexed_share: f64,
    /// Cumulative swaps performed.
    pub swaps: u64,
}

/// The simulation state: tuple `t` has logical key `t`; `values[pos]` is the
/// key stored at physical position `pos`. Coverage is by smallest keys
/// (which keys are covered is irrelevant to the statistics; only the count
/// matters under random swapping).
struct Sim {
    values: Vec<u32>,
    covered_below: u32,
    per_page: usize,
}

impl Sim {
    fn new(s: &ClusteringScenario) -> Self {
        Sim {
            values: (0..s.tuples as u32).collect(),
            covered_below: (s.tuples as f64 * s.coverage).round() as u32,
            per_page: s.per_page,
        }
    }

    fn swap_random(&mut self, rng: &mut Rng) {
        let n = self.values.len() as u64;
        let (a, b) = (rng.below(n), rng.below(n));
        self.values.swap(a as usize, b as usize);
    }

    /// Share of pages where every tuple is covered by the partial index.
    fn fully_indexed_share(&self) -> f64 {
        let pages = self.values.chunks(self.per_page);
        let total = pages.len();
        let full = self
            .values
            .chunks(self.per_page)
            .filter(|page| page.iter().all(|&v| v < self.covered_below))
            .count();
        full as f64 / total as f64
    }

    /// Spearman rank correlation between physical position and key. Keys are
    /// a permutation of `0..n`, so ranks equal keys and Spearman reduces to
    /// Pearson over `(position, key)`.
    fn correlation(&self) -> f64 {
        let n = self.values.len() as f64;
        let mean = (n - 1.0) / 2.0;
        let mut cov = 0.0;
        let mut var = 0.0;
        for (pos, &v) in self.values.iter().enumerate() {
            let dp = pos as f64 - mean;
            let dv = v as f64 - mean;
            cov += dp * dv;
            var += dp * dp;
        }
        // Both marginals are uniform over 0..n, so var_p == var_v.
        cov / var
    }
}

/// Sweeps one scenario from correlation 1 towards 0, recording `points`
/// measurements. Swaps accumulate geometrically so the correlation axis is
/// well covered at both ends.
pub fn sweep(scenario: &ClusteringScenario, points: usize, seed: u64) -> Vec<ClusteringPoint> {
    assert!(points >= 2, "a sweep needs at least the two endpoints");
    let mut sim = Sim::new(scenario);
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(points);
    out.push(ClusteringPoint {
        correlation: sim.correlation(),
        fully_indexed_share: sim.fully_indexed_share(),
        swaps: 0,
    });
    // Total swaps ≈ 2n drives correlation to ~0. Geometric schedule.
    let total: u64 = 2 * scenario.tuples as u64;
    let mut done: u64 = 0;
    for i in 1..points {
        let target = ((total as f64) * ((i as f64 / (points - 1) as f64).powi(3))).round() as u64;
        while done < target.max(i as u64) {
            sim.swap_random(&mut rng);
            done += 1;
        }
        out.push(ClusteringPoint {
            correlation: sim.correlation(),
            fully_indexed_share: sim.fully_indexed_share(),
            swaps: done,
        });
    }
    out
}

/// Convenience: the share at (approximately) a target correlation, by linear
/// scan for the nearest measured point.
pub fn share_near_correlation(points: &[ClusteringPoint], target: f64) -> Option<ClusteringPoint> {
    points
        .iter()
        .min_by(|a, b| {
            (a.correlation - target)
                .abs()
                .total_cmp(&(b.correlation - target).abs())
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(per_page: usize, coverage: f64) -> ClusteringScenario {
        ClusteringScenario {
            tuples: 10_000,
            per_page,
            coverage,
        }
    }

    #[test]
    fn perfect_clustering_share_equals_coverage() {
        // Paper: "For perfectly clustered data, the fraction of fully
        // indexed pages corresponds to the number of tuples covered."
        let s = small(10, 0.1);
        let points = sweep(&s, 2, 1);
        let first = points[0];
        assert!((first.correlation - 1.0).abs() < 1e-9);
        assert!(
            (first.fully_indexed_share - 0.1).abs() < 0.01,
            "share at corr=1 is ~coverage: {}",
            first.fully_indexed_share
        );
    }

    #[test]
    fn share_drops_quickly_with_decorrelation() {
        // Paper: "for typical page sizes of 10 or more tuples and a
        // correlation of 0.8 or less, less than 5% of the pages remain
        // fully indexed."
        let s = small(10, 0.1);
        let points = sweep(&s, 40, 2);
        let p = share_near_correlation(&points, 0.8).unwrap();
        assert!(
            (p.correlation - 0.8).abs() < 0.1,
            "measured near 0.8: {}",
            p.correlation
        );
        assert!(
            p.fully_indexed_share < 0.05,
            "paper's <5% claim at corr 0.8: {}",
            p.fully_indexed_share
        );
    }

    #[test]
    fn larger_pages_mean_fewer_fully_indexed_pages() {
        let seed = 3;
        let share_at_half = |per_page| {
            let points = sweep(&small(per_page, 0.3), 40, seed);
            share_near_correlation(&points, 0.5)
                .unwrap()
                .fully_indexed_share
        };
        let s2 = share_at_half(2);
        let s20 = share_at_half(20);
        assert!(
            s2 > s20,
            "more tuples per page -> lower full-coverage probability ({s2} vs {s20})"
        );
    }

    #[test]
    fn correlation_decays_towards_zero() {
        let points = sweep(&small(10, 0.1), 30, 4);
        let last = points.last().unwrap();
        assert!(
            last.correlation < 0.1,
            "end of sweep near zero: {}",
            last.correlation
        );
        // Correlation is monotonically non-increasing in expectation; allow
        // small noise but require overall decay.
        assert!(points[0].correlation > points[points.len() / 2].correlation);
    }

    #[test]
    fn six_paper_scenarios() {
        let scenarios = paper_scenarios();
        assert_eq!(scenarios.len(), 6);
        assert!(scenarios.iter().all(|s| s.tuples == 100_000));
        assert_eq!(scenarios[0].label(), "5 tuples/page, 10% covered");
    }

    #[test]
    fn sweep_is_deterministic() {
        let s = small(10, 0.1);
        assert_eq!(sweep(&s, 10, 7), sweep(&s, 10, 7));
    }
}
