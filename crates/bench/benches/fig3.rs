//! Figure 3 — share of fully indexed pages under partial indexing, as the
//! correlation between physical and logical order decays.
//!
//! Paper setup: 100,000 tuples, starting logically ordered (correlation 1)
//! and swapping randomly picked tuples; six scenarios; at each step the
//! number of fully indexed pages is counted.
//!
//! Expected shape: at correlation 1 the share equals the covered fraction;
//! it drops off steeply, and "for typical page sizes of 10 or more tuples
//! and a correlation of 0.8 or less, less than 5 % of the pages remain
//! fully indexed".

use aib_bench::header;
use aib_workload::clustering::{paper_scenarios, share_near_correlation, sweep};

fn main() {
    header(
        "Figure 3: share of fully indexed pages vs. physical/logical correlation",
        "100,000 tuples; 6 scenarios (tuples/page x covered fraction); random swaps",
    );

    let scenarios = paper_scenarios();
    let mut sweeps = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        sweeps.push(sweep(s, 60, 0x3F + i as u64));
    }

    println!("scenario,correlation,fully_indexed_share,swaps");
    for (s, points) in scenarios.iter().zip(&sweeps) {
        for p in points {
            println!(
                "{},{:.4},{:.5},{}",
                s.label(),
                p.correlation,
                p.fully_indexed_share,
                p.swaps
            );
        }
    }

    // Shape summary.
    println!();
    for (s, points) in scenarios.iter().zip(&sweeps) {
        let at1 = points.first().unwrap();
        let at08 = share_near_correlation(points, 0.8).unwrap();
        println!(
            "# shape [{}]: share at corr=1 is {:.3} (coverage {:.1}); at corr≈0.8 it is {:.4}{}",
            s.label(),
            at1.fully_indexed_share,
            s.coverage,
            at08.fully_indexed_share,
            if s.per_page >= 10 && at08.fully_indexed_share < 0.05 {
                " -> <5%, the paper's headline regime"
            } else {
                ""
            }
        );
    }
}
