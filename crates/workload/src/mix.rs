//! Query mixes: weighted column choices with switch points — the shape of
//! the paper's experiments 3 and 4.

use aib_storage::Rng;

/// One phase of a query mix: relative weights per column.
#[derive(Debug, Clone)]
pub struct Phase {
    /// `(column_name, weight)`; weights need not sum to 1.
    pub weights: Vec<(String, f64)>,
    /// Number of queries this phase lasts (the last phase may be `None` =
    /// until the workload ends).
    pub queries: Option<usize>,
}

/// A multi-phase query mix.
#[derive(Debug, Clone)]
pub struct QueryMix {
    phases: Vec<Phase>,
}

impl QueryMix {
    /// Builds a mix from phases.
    ///
    /// # Panics
    /// If `phases` is empty, any phase has no positive weight, or a
    /// non-final phase has no length.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "mix needs at least one phase");
        for (i, p) in phases.iter().enumerate() {
            assert!(
                p.weights.iter().any(|&(_, w)| w > 0.0),
                "phase {i} needs a positive weight"
            );
            assert!(
                p.queries.is_some() || i == phases.len() - 1,
                "only the final phase may be open-ended"
            );
        }
        QueryMix { phases }
    }

    /// The paper's experiment 3 mix: A:B:C = 1/2:1/3:1/6 for 100 queries,
    /// then 1/6:1/3:1/2.
    pub fn experiment3() -> Self {
        QueryMix::new(vec![
            Phase {
                weights: vec![("A".into(), 3.0), ("B".into(), 2.0), ("C".into(), 1.0)],
                queries: Some(100),
            },
            Phase {
                weights: vec![("A".into(), 1.0), ("B".into(), 2.0), ("C".into(), 3.0)],
                queries: None,
            },
        ])
    }

    /// The paper's experiment 4 mix: fixed A:B:C = 1/2:1/3:1/6 throughout.
    pub fn experiment4() -> Self {
        QueryMix::new(vec![Phase {
            weights: vec![("A".into(), 3.0), ("B".into(), 2.0), ("C".into(), 1.0)],
            queries: None,
        }])
    }

    /// Picks the column for query number `seq` (0-based).
    pub fn pick(&self, seq: usize, rng: &mut Rng) -> &str {
        let mut at = seq;
        // `new` guarantees at least one phase and positive weights; the
        // empty fallbacks here are unreachable but panic-free.
        let Some(mut phase) = self.phases.last() else {
            return "";
        };
        for p in &self.phases {
            match p.queries {
                Some(q) if at >= q => at -= q,
                _ => {
                    phase = p;
                    break;
                }
            }
        }
        let total: f64 = phase.weights.iter().map(|&(_, w)| w).sum();
        let mut roll = rng.unit() * total;
        for (col, w) in &phase.weights {
            roll -= w;
            if roll <= 0.0 {
                return col;
            }
        }
        phase.weights.last().map_or("", |(col, _)| col.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn frequencies(mix: &QueryMix, from: usize, to: usize, seed: u64) -> HashMap<String, usize> {
        let mut rng = Rng::new(seed);
        let mut freq = HashMap::new();
        for seq in from..to {
            *freq.entry(mix.pick(seq, &mut rng).to_owned()).or_insert(0) += 1;
        }
        freq
    }

    #[test]
    fn experiment3_phase_shift() {
        // Same weights as experiment 3, with long phases so frequencies are
        // statistically checkable.
        let mix = QueryMix::new(vec![
            Phase {
                weights: vec![("A".into(), 3.0), ("B".into(), 2.0), ("C".into(), 1.0)],
                queries: Some(10_000),
            },
            Phase {
                weights: vec![("A".into(), 1.0), ("B".into(), 2.0), ("C".into(), 3.0)],
                queries: None,
            },
        ]);
        let p1 = frequencies(&mix, 0, 10_000, 1);
        // 1/2 : 1/3 : 1/6 within tolerance.
        assert!((4600..5400).contains(&p1["A"]), "A {}", p1["A"]);
        assert!((3000..3700).contains(&p1["B"]), "B {}", p1["B"]);
        assert!((1300..2000).contains(&p1["C"]), "C {}", p1["C"]);
        let p2 = frequencies(&mix, 10_000, 20_000, 2);
        assert!(
            (1300..2000).contains(&p2["A"]),
            "A flips to 1/6: {}",
            p2["A"]
        );
        assert!(
            (4600..5400).contains(&p2["C"]),
            "C flips to 1/2: {}",
            p2["C"]
        );
    }

    #[test]
    fn experiment3_switches_at_query_100() {
        let mix = QueryMix::experiment3();
        // Phase membership is deterministic even though picks are random:
        // compare long-run frequencies within each phase region.
        let p2 = frequencies(&mix, 100, 10_100, 5);
        assert!(
            p2["C"] > p2["A"],
            "after the switch C dominates A: C={} A={}",
            p2["C"],
            p2["A"]
        );
    }

    #[test]
    fn experiment4_mix_is_stationary() {
        let mix = QueryMix::experiment4();
        let p = frequencies(&mix, 500, 10_500, 3);
        assert!((4600..5400).contains(&p["A"]));
    }

    #[test]
    fn phase_boundary_is_exact() {
        let mix = QueryMix::new(vec![
            Phase {
                weights: vec![("X".into(), 1.0)],
                queries: Some(3),
            },
            Phase {
                weights: vec![("Y".into(), 1.0)],
                queries: None,
            },
        ]);
        let mut rng = Rng::new(0);
        let picks: Vec<&str> = (0..6).map(|s| mix.pick(s, &mut rng)).collect();
        assert_eq!(picks, vec!["X", "X", "X", "Y", "Y", "Y"]);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_mix_rejected() {
        QueryMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "only the final phase")]
    fn open_ended_middle_phase_rejected() {
        QueryMix::new(vec![
            Phase {
                weights: vec![("X".into(), 1.0)],
                queries: None,
            },
            Phase {
                weights: vec![("Y".into(), 1.0)],
                queries: None,
            },
        ]);
    }
}
