//! Shape tests: the paper's headline experimental claims, asserted at a
//! reduced scale so they run in CI. These are the same computations the
//! `aib-bench` figure harnesses print, frozen into assertions — if a code
//! change breaks a published shape, a test fails, not just a plot.

use adaptive_index_buffer::core::{BufferConfig, SpaceConfig};
use adaptive_index_buffer::engine::{Database, EngineConfig, Query, WorkloadRecorder};
use adaptive_index_buffer::index::{Coverage, IndexBackend};
use adaptive_index_buffer::sim;
use adaptive_index_buffer::storage::{CostModel, DEFAULT_ENTRY_FOOTPRINT};
use adaptive_index_buffer::workload::{
    experiment1_queries, experiment3_queries, TableSpec, SWITCH_AT,
};

const ROWS: u64 = 30_000;

fn engine(space: SpaceConfig) -> EngineConfig {
    EngineConfig {
        pool_frames: 64, // ~1/17th of the ~1,080-page table: scans are disk-bound
        cost_model: CostModel::default(),
        space,
        ..Default::default()
    }
}

fn build(
    spec: &TableSpec,
    space: SpaceConfig,
    buffer: Option<BufferConfig>,
    cols: &[&str],
) -> Database {
    build_with(spec, engine(space), buffer, cols)
}

fn build_with(
    spec: &TableSpec,
    engine: EngineConfig,
    buffer: Option<BufferConfig>,
    cols: &[&str],
) -> Database {
    let db = Database::new(engine);
    db.create_table("eval", spec.schema()).unwrap();
    for t in spec.tuples() {
        db.insert("eval", &t).unwrap();
    }
    let (lo, hi) = spec.covered_range();
    for col in cols {
        db.create_partial_index(
            "eval",
            col,
            Coverage::IntRange { lo, hi },
            IndexBackend::BTree,
            buffer,
        )
        .unwrap();
    }
    db
}

fn run(
    db: &mut Database,
    queries: &[adaptive_index_buffer::workload::QuerySpec],
) -> WorkloadRecorder {
    let mut rec = WorkloadRecorder::new();
    for q in queries {
        rec.record(
            &db.execute(&Query::point("eval", &q.column, q.value))
                .unwrap(),
        );
    }
    rec
}

fn mean_sim(rec: &WorkloadRecorder, lo: usize, hi: usize) -> f64 {
    let r = &rec.records()[lo..hi.min(rec.len())];
    r.iter().map(|m| m.simulated_us()).sum::<u64>() as f64 / r.len() as f64
}

/// Fig. 6 shape: buffered query cost collapses below the plain-scan level
/// and buffer entries plateau at the uncovered-tuple count.
#[test]
fn fig6_shape_buffer_beats_scan_and_reaches_index_level() {
    let spec = TableSpec::scaled(ROWS, 0xDA7A);
    let queries = experiment1_queries(&spec, 40, 61);
    let i_max = (5_000 * ROWS / 500_000) as u32;
    let space = SpaceConfig {
        max_bytes: None,
        i_max,
        seed: 6,
    };

    let mut buffered = build(&spec, space, Some(BufferConfig::default()), &["A"]);
    let buf_rec = run(&mut buffered, &queries);
    let mut plain = build(&spec, space, None, &["A"]);
    let plain_rec = run(&mut plain, &queries);

    let scan_level = mean_sim(&plain_rec, 10, 40);
    assert!(scan_level > 0.0, "plain scans must cost I/O at this scale");
    // Early: buffered ≤ scan (same pages read, fewer every round).
    assert!(mean_sim(&buf_rec, 0, 2) <= scan_level * 1.05);
    // Late: buffered cost collapses (paper: reaches index-scan level).
    let late = mean_sim(&buf_rec, 30, 40);
    assert!(
        late < scan_level * 0.02,
        "late buffered cost {late} vs scan level {scan_level}"
    );
    // Entries plateau at the uncovered count (90% of rows).
    let final_entries = buf_rec.records().last().unwrap().buffer_entries[0] as f64;
    let uncovered = ROWS as f64 * 0.9;
    assert!(
        (final_entries - uncovered).abs() / uncovered < 0.02,
        "final entries {final_entries} vs expected {uncovered}"
    );
}

/// EXPERIMENTS "Measurement methodology": every figure regenerates
/// bit-identically. A Fig. 6-shaped run on a *default* engine — only the
/// pool (≈ 1/18th of the table, so every sweep evicts) and the space are set
/// — built and run twice yields the same per-query I/O and scan counts, and
/// its first query costs exactly the plain scan's simulated I/O (Fig. 6's
/// "by construction" row: same pages read, nothing skippable yet).
#[test]
fn fig6_run_is_deterministic_and_starts_at_scan_cost() {
    let spec = TableSpec::scaled(20_000, 0xDA7A);
    let queries = experiment1_queries(&spec, 30, 61);
    let space = SpaceConfig {
        max_bytes: None,
        // A fifth of Fig. 6's scaled I^MAX: two thirds of the queries sweep.
        i_max: 40,
        seed: 6,
    };
    let config = || EngineConfig {
        pool_frames: 40,
        space,
        ..Default::default()
    };
    let series = || {
        let mut db = build_with(&spec, config(), Some(BufferConfig::default()), &["A"]);
        let pages = db.table("eval").unwrap().num_pages() as usize;
        assert_eq!(pages / 40, 18, "pool ≈ 1/18th of {pages} pages");
        run(&mut db, &queries)
            .records()
            .iter()
            .map(|m| {
                let scan = m.scan.as_ref().expect("uncovered values scan");
                (
                    m.io.page_reads,
                    m.simulated_us(),
                    scan.pages_read,
                    scan.pages_skipped,
                    scan.pages_indexed,
                    scan.entries_added,
                    m.buffer_entries.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    let first = series();
    assert_eq!(first, series(), "two identical runs diverged");
    assert!(first[0].2 > first[29].2, "the buffer must be taking over");

    // Fig. 6's scan baseline: the same partial index with no buffer, so the
    // index build leaves both pools on the same footing.
    let mut plain = build_with(&spec, config(), None, &["A"]);
    let plain_rec = run(&mut plain, &queries[..1]);
    assert_eq!(
        first[0].1,
        plain_rec.records()[0].simulated_us(),
        "query 0 reads what the plain scan reads"
    );
}

/// Fig. 7 shape: larger I^MAX converges faster; tighter L leaves a higher
/// steady-state cost floor.
#[test]
fn fig7_shape_imax_and_space_bound() {
    let spec = TableSpec::scaled(ROWS, 0xDA7A);
    let queries = experiment1_queries(&spec, 60, 72);

    let early_cost = |i_max_paper: u64| {
        let i_max = (i_max_paper * ROWS / 500_000).max(1) as u32;
        let space = SpaceConfig {
            max_bytes: None,
            i_max,
            seed: 7,
        };
        let mut db = build(&spec, space, Some(BufferConfig::default()), &["A"]);
        let rec = run(&mut db, &queries);
        mean_sim(&rec, 2, 15)
    };
    let slow = early_cost(500);
    let medium = early_cost(1_000);
    let fast = early_cost(5_000);
    assert!(
        slow > medium && medium > fast,
        "I^MAX ordering: {slow} > {medium} > {fast}"
    );

    let floor = |l_paper: Option<u64>| {
        let max_bytes = l_paper.map(|l| (l * ROWS / 500_000) as usize * DEFAULT_ENTRY_FOOTPRINT);
        let i_max = (5_000 * ROWS / 500_000) as u32;
        let space = SpaceConfig {
            max_bytes,
            i_max,
            seed: 7,
        };
        let mut db = build(&spec, space, Some(BufferConfig::default()), &["A"]);
        let rec = run(&mut db, &queries);
        mean_sim(&rec, 40, 60)
    };
    let tight = floor(Some(100_000));
    let loose = floor(Some(450_000));
    let unlimited = floor(None);
    assert!(
        tight > loose,
        "tighter L -> higher floor: {tight} vs {loose}"
    );
    assert!(unlimited <= loose);
}

/// Fig. 8 shape: bounded space flips from A to C after the mix switch.
/// Run at 100 k rows — the racy equilibrium between the two busiest buffers
/// is noisy below that (see EXPERIMENTS.md, Fig. 8 deviation note).
///
/// What is asserted is the published claim, not one random stream: in
/// period 1 A and B share the space and C is sporadic; after the switch C
/// overtakes A, A collapses, and B + C fill the space. How the two busy
/// columns of a period split the space between them is *not* asserted — a
/// column's buffer stops growing once every uncovered tuple is in it (90 %
/// of the rows, 56 % of `L`), so whichever of the two completes first caps
/// the other at the remaining 44 %, and which one that is depends on the
/// query stream. A displacement rule that never evicts, or evicts without
/// regard to benefit, leaves C large in period 1 or A large in period 2 and
/// fails here.
#[test]
fn fig8_shape_allocation_flips_with_the_mix() {
    let rows: u64 = 100_000;
    let spec = TableSpec::scaled(rows, 0xDA7A);
    let queries = experiment3_queries(&spec, 200, 83);
    let l = (800_000 * rows / 500_000) as usize;
    let i_max = (5_000 * rows / 500_000) as u32;
    let p = (10_000 * rows / 500_000) as u32;
    let buffer = BufferConfig {
        partition_pages: p,
        ..Default::default()
    };
    for seed in [8, 1, 2] {
        let space = SpaceConfig {
            max_bytes: Some(l * DEFAULT_ENTRY_FOOTPRINT),
            i_max,
            seed,
        };
        let mut db = Database::new(EngineConfig {
            pool_frames: 200,
            cost_model: CostModel::default(),
            space,
            ..Default::default()
        });
        db.create_table("eval", spec.schema()).unwrap();
        for t in spec.tuples() {
            db.insert("eval", &t).unwrap();
        }
        let (lo, hi) = spec.covered_range();
        for col in ["A", "B", "C"] {
            db.create_partial_index(
                "eval",
                col,
                Coverage::IntRange { lo, hi },
                IndexBackend::BTree,
                Some(buffer),
            )
            .unwrap();
        }
        let rec = run(&mut db, &queries);

        let p1 = &rec.records()[SWITCH_AT - 1].buffer_entries;
        assert!(
            p1[0] * 5 > l * 2 && (p1[0] + p1[1]) * 20 > l * 19,
            "seed {seed}, period 1: A holds two fifths or more, A + B fill the space: {p1:?} of {l}"
        );
        assert!(
            p1[0] > 10 * p1[2].max(1),
            "seed {seed}, period 1: C is sporadic next to A: {p1:?}"
        );
        let p2 = &rec.records().last().unwrap().buffer_entries;
        assert!(
            p2[2] > p2[0] && p2[2] * 5 > l * 2,
            "seed {seed}, period 2: C overtakes A and holds two fifths or more: {p2:?} of {l}"
        );
        assert!(
            p2[0] * 10 < p1[0],
            "seed {seed}, period 2: A collapses: {p1:?} -> {p2:?}"
        );
        assert!(
            (p2[1] + p2[2]) * 20 > l * 19,
            "seed {seed}, period 2: B + C fill the space: {p2:?} of {l}"
        );
    }
}

/// Fig. 1 shape (simulation): hit rate collapses during the shift and the
/// indexed range lags the queried range.
#[test]
fn fig1_shape_control_loop_delay() {
    let config = sim::ControlLoopConfig::default();
    let result = sim::run_control_loop(&config);
    let warm = result.hit_rate(100, 200);
    let during = result.hit_rate(250, 320);
    let late = result.hit_rate(430, 500);
    assert!(
        warm > 0.4 && late > 0.4,
        "adapted phases: warm {warm}, late {late}"
    );
    assert!(
        during < warm - 0.15,
        "collapse during shift: {during} < {warm}"
    );
}

/// Fig. 3 shape (simulation): <5% fully indexed pages at correlation 0.8
/// with >=10 tuples per page and 10% coverage.
#[test]
fn fig3_shape_share_collapses_with_decorrelation() {
    let scenario = sim::ClusteringScenario {
        tuples: 20_000,
        per_page: 10,
        coverage: 0.1,
    };
    let points = sim::sweep(&scenario, 40, 2);
    assert!(
        (points[0].fully_indexed_share - 0.1).abs() < 0.02,
        "share at corr 1 = coverage"
    );
    let at08 = sim::share_near_correlation(&points, 0.8).unwrap();
    assert!(
        at08.fully_indexed_share < 0.05,
        "paper's <5% claim: {}",
        at08.fully_indexed_share
    );
}
