//! Figure 9 — Experiment 4: Index Buffer Management under varying
//! partial-index hit rates.
//!
//! Paper setup: fixed mix A:B:C = 1/2:1/3:1/6; queries on A hit the partial
//! index with probability 80 % during the first 100 queries and 20 %
//! afterwards (realised by switching the index definition at query 100);
//! `L = 800,000`, `I^MAX = 10,000`, `P = 10,000`.
//!
//! Expected shape: while A's partial index absorbs most A-queries, A's
//! buffer is rarely *used* (Table II) and the manager gives its space to B
//! and C despite A being queried most. After the switch, A's buffer is used
//! often, grows quickly, and B/C shrink.

use aib_bench::{build_eval_db, engine_config_for, header, scale, table_spec, timed, TABLE};
use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::Query;
use aib_index::Coverage;
use aib_storage::DEFAULT_ENTRY_FOOTPRINT;
use aib_workload::{exp4_ranges, experiment4_queries, PAPER_QUERIES, SWITCH_AT};

fn main() {
    let spec = table_spec();
    let queries = experiment4_queries(&spec, PAPER_QUERIES, 94);
    let l = scale(&spec, 800_000) as usize;
    let i_max = scale(&spec, 10_000) as u32;
    let p = scale(&spec, 10_000) as u32;
    let (r1, r2) = exp4_ranges(&spec);

    header(
        "Figure 9: three Index Buffers, varying partial-index hit rate on A",
        &format!(
            "rows={} L={} I_MAX={} P={} A-hit-rate 80% -> 20% at query {}",
            spec.rows, l, i_max, p, SWITCH_AT
        ),
    );

    let space = SpaceConfig {
        max_bytes: Some(l * DEFAULT_ENTRY_FOOTPRINT),
        i_max,
        seed: 9,
    };
    let buffer = BufferConfig {
        partition_pages: p,
        ..Default::default()
    };
    let db = timed("populate db (3 indexed columns)", || {
        build_eval_db(
            &spec,
            engine_config_for(&spec, space),
            Some(buffer),
            &["A", "B", "C"],
        )
    });
    // Phase 1: A's partial index covers r1 (hit rate 80% of A-queries). The
    // default build covers the bottom 10% == r1 already.
    assert_eq!(spec.covered_range(), r1);

    let mut recorder = aib_engine::WorkloadRecorder::new();
    let mut hits_a = [0usize; 2];
    let mut total_a = [0usize; 2];
    for (i, q) in queries.iter().enumerate() {
        if i == SWITCH_AT {
            // The paper: "we switched the definition of the partial index
            // after 100 queries" — now covering r2, so A-queries hit with
            // probability 20%.
            timed("redefine A's coverage", || {
                db.redefine_coverage(TABLE, "A", Coverage::IntRange { lo: r2.0, hi: r2.1 })
                    .unwrap()
            });
        }
        let outcome = db
            .execute(&Query::point(TABLE, &q.column, q.value))
            .unwrap();
        recorder.record(&outcome);
        let result = outcome.result;
        if q.column == "A" {
            let phase = usize::from(i >= SWITCH_AT);
            total_a[phase] += 1;
            if result.path == aib_engine::AccessPath::PartialIndex {
                hits_a[phase] += 1;
            }
        }
    }

    println!("query,column,entries_A,entries_B,entries_C,total");
    for (i, (r, q)) in recorder.records().iter().zip(&queries).enumerate() {
        let e = &r.buffer_entries;
        println!(
            "{},{},{},{},{},{}",
            i,
            q.column,
            e[0],
            e[1],
            e[2],
            e.iter().sum::<usize>()
        );
    }

    // Shape summary.
    println!(
        "\n# A-query hit rates: phase1 {:.0}% (target 80%), phase2 {:.0}% (target 20%)",
        100.0 * hits_a[0] as f64 / total_a[0].max(1) as f64,
        100.0 * hits_a[1] as f64 / total_a[1].max(1) as f64
    );
    let at = |i: usize| {
        recorder.records()[i.min(recorder.len() - 1)]
            .buffer_entries
            .clone()
    };
    let p1 = at(SWITCH_AT - 1);
    let p2 = at(recorder.len() - 1);
    println!(
        "# shape: end of phase 1 entries A/B/C = {:?} (paper: A gets less space than B despite more queries)",
        p1
    );
    println!(
        "# shape: end of phase 2 entries A/B/C = {:?} (paper: A grows quickly, B and C shrink)",
        p2
    );
}
