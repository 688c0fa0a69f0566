//! Figure 6 — Experiment 1: a single Index Buffer with unlimited space.
//!
//! Paper setup: queries on column A only, uncovered values, Index Buffer
//! Space unlimited, `I^MAX = 5,000`, `P = 10,000`, 200 queries. Reported
//! per query: runtime (simulated I/O time and wall time), Index Buffer
//! entries, pages skipped. Baselines: the same queries as plain table scans
//! (no buffer) and as full-index scans ("runtime without table scan").
//!
//! Expected shape (paper): the first couple of queries run slightly longer
//! than a plain scan (indexing overhead); execution time then drops below
//! scan level quickly and reaches index-scan level once all pages are
//! indexed ("after 20 queries" at the paper's page size; earlier here since
//! 8 KiB pages hold more tuples — see EXPERIMENTS.md).

use aib_bench::{
    build_eval_db, engine_config_for, header, mean_sim_us, run_workload, scale, table_spec, timed,
    TABLE,
};
use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{Database, Query, WorkloadRecorder};
use aib_index::{Coverage, IndexBackend};
use aib_workload::{experiment1_queries, PAPER_QUERIES};

fn main() {
    let spec = table_spec();
    let queries = experiment1_queries(&spec, PAPER_QUERIES, 61);
    let i_max = scale(&spec, 5_000) as u32;
    let space = SpaceConfig {
        max_bytes: None,
        i_max,
        seed: 6,
    };

    header(
        "Figure 6: single Index Buffer, unlimited space",
        &format!(
            "rows={} domain={} I_MAX={} P=10000 queries={}",
            spec.rows,
            spec.domain,
            i_max,
            queries.len()
        ),
    );

    // Buffered run.
    let mut db = timed("populate buffered db", || {
        build_eval_db(
            &spec,
            engine_config_for(&spec, space),
            Some(BufferConfig::default()),
            &["A"],
        )
    });
    let recorder = timed("run buffered workload", || run_workload(&mut db, &queries));

    // Plain-scan baseline: partial index without a buffer.
    let mut scan_db = timed("populate scan-baseline db", || {
        build_eval_db(&spec, engine_config_for(&spec, space), None, &["A"])
    });
    let scan_rec = timed("run scan baseline", || run_workload(&mut scan_db, &queries));

    // Index-scan baseline ("runtime without table scan"): a full secondary
    // index over the whole domain answers every query.
    let ix_db = timed("populate index-baseline db", || {
        let db = Database::new(engine_config_for(&spec, space));
        db.create_table(TABLE, spec.schema()).unwrap();
        for t in spec.tuples() {
            db.insert(TABLE, &t).unwrap();
        }
        db.create_partial_index(TABLE, "A", Coverage::All, IndexBackend::BTree, None)
            .unwrap();
        db
    });
    let ix_rec = timed("run index baseline", || {
        let mut rec = WorkloadRecorder::new();
        for q in &queries {
            rec.record(
                &ix_db
                    .execute(&Query::point(TABLE, &q.column, q.value))
                    .unwrap(),
            );
        }
        rec
    });

    println!(
        "query,buffered_sim_us,buffered_wall_us,scan_sim_us,scan_wall_us,index_sim_us,entries,pages_skipped,pages_read"
    );
    for i in 0..queries.len() {
        let b = &recorder.records()[i];
        let s = &scan_rec.records()[i];
        let x = &ix_rec.records()[i];
        println!(
            "{},{},{},{},{},{},{},{},{}",
            i,
            b.simulated_us(),
            b.wall.as_micros(),
            s.simulated_us(),
            s.wall.as_micros(),
            x.simulated_us(),
            b.buffer_entries.first().copied().unwrap_or(0),
            b.pages_skipped(),
            b.scan.as_ref().map_or(0, |s| s.pages_read),
        );
    }

    // Shape summary against the paper's claims. The first-query overhead is
    // in-memory insertion work, visible in wall time (simulated I/O is
    // identical to the plain scan by construction).
    let wall = |rec: &WorkloadRecorder, i: usize| rec.records()[i].wall.as_micros() as f64;
    println!(
        "\n# shape: first query buffered/scan wall time = {:.2}x (paper: slightly above 1)",
        wall(&recorder, 0) / wall(&scan_rec, 0)
    );
    let late_buf = mean_sim_us(&recorder, 150, 200);
    let late_scan = mean_sim_us(&scan_rec, 150, 200);
    let late_ix = mean_sim_us(&ix_rec, 150, 200);
    println!(
        "# shape: late queries buffered/scan = {:.4}x (paper: far below 1)",
        late_buf / late_scan
    );
    println!(
        "# shape: late buffered ({:.0}us) and index-scan ({:.0}us) are both <0.1% of the plain scan ({:.0}us) (paper: buffered reaches index-scan level)",
        late_buf, late_ix, late_scan
    );
    let total_pages = db.table(TABLE).unwrap().num_pages();
    let fully = recorder.records().last().unwrap().pages_skipped();
    println!("# shape: final skipped/total pages = {fully}/{total_pages}");
}
