//! Shape tests: the paper's headline experimental claims, asserted at a
//! reduced scale so they run in CI. These are the same computations the
//! `aib-bench` figure harnesses print, frozen into assertions — if a code
//! change breaks a published shape, a test fails, not just a plot.

use std::sync::OnceLock;

use adaptive_index_buffer::core::{BufferConfig, SpaceConfig};
use adaptive_index_buffer::engine::{Database, EngineConfig};
use adaptive_index_buffer::storage::{CostModel, DEFAULT_ENTRY_FOOTPRINT};
use adaptive_index_buffer::workload::clustering;
use adaptive_index_buffer::workload::{
    experiment1_queries, experiment3_queries, fig1_queries, TableSpec, FIG1_HIGH, FIG1_LOW,
    FIG1_SHIFT, SWITCH_AT,
};
use aib_bench::{
    build_eval_db, engine_config_for, fig1_run, mean_sim_us, run_workload, Fig1Run, TABLE,
};

const ROWS: u64 = 30_000;

/// The harness's evaluation database, on its default engine for `spec`
/// (at `ROWS` a 64-frame pool, ~1/17th of the ~1,080-page table: scans are
/// disk-bound).
fn build(
    spec: &TableSpec,
    space: SpaceConfig,
    buffer: Option<BufferConfig>,
    cols: &[&str],
) -> Database {
    build_eval_db(spec, engine_config_for(spec, space), buffer, cols)
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
    let buf_rec = run_workload(&mut buffered, &queries);
    let mut plain = build(&spec, space, None, &["A"]);
    let plain_rec = run_workload(&mut plain, &queries);

    let scan_level = mean_sim_us(&plain_rec, 10, 40);
    assert!(scan_level > 0.0, "plain scans must cost I/O at this scale");
    // Early: buffered ≤ scan (same pages read, fewer every round).
    assert!(mean_sim_us(&buf_rec, 0, 2) <= scan_level * 1.05);
    // Late: buffered cost collapses (paper: reaches index-scan level).
    let late = mean_sim_us(&buf_rec, 30, 40);
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
        let mut db = build_eval_db(&spec, config(), Some(BufferConfig::default()), &["A"]);
        let pages = db.table(TABLE).unwrap().num_pages() as usize;
        assert_eq!(pages / 40, 18, "pool ≈ 1/18th of {pages} pages");
        run_workload(&mut db, &queries)
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
    let mut plain = build_eval_db(&spec, config(), None, &["A"]);
    let plain_rec = run_workload(&mut plain, &queries[..1]);
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
        let rec = run_workload(&mut db, &queries);
        mean_sim_us(&rec, 2, 15)
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
        let rec = run_workload(&mut db, &queries);
        mean_sim_us(&rec, 40, 60)
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
        let engine = EngineConfig {
            pool_frames: 200,
            cost_model: CostModel::default(),
            space,
            ..Default::default()
        };
        let mut db = build_eval_db(&spec, engine, Some(buffer), &["A", "B", "C"]);
        let rec = run_workload(&mut db, &queries);

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

/// Fig. 1 on the engine, tuner only (`[0]`) and tuner plus buffer (`[1]`),
/// run once for every Fig. 1 test.
fn fig1_arms() -> &'static [Fig1Run; 2] {
    static ARMS: OnceLock<[Fig1Run; 2]> = OnceLock::new();
    ARMS.get_or_init(|| [fig1_run(false), fig1_run(true)])
}

/// Fig. 1 shape, in both arms: hit rate collapses during the shift and
/// recovers; the buffer cuts the pages the shift reads.
#[test]
fn fig1_shape_control_loop_delay() {
    let [tuner, buffer] = fig1_arms();
    for run in [tuner, buffer] {
        let warm = run.recorder.hit_rate(100, 200);
        let during = run.recorder.hit_rate(250, 320);
        let late = run.recorder.hit_rate(430, 500);
        assert!(
            warm > 0.4 && late > 0.4,
            "adapted phases: warm {warm}, late {late}"
        );
        assert!(
            during < warm - 0.15,
            "collapse during shift: {during} < {warm}"
        );
    }
    let (plain, buffered) = (
        tuner.pages_read(FIG1_SHIFT.0, FIG1_SHIFT.1),
        buffer.pages_read(FIG1_SHIFT.0, FIG1_SHIFT.1),
    );
    assert!(
        buffered < plain,
        "the buffer bridges the delay: {buffered} vs {plain} pages"
    );
}

/// Fig. 1, in both arms: the tuner adapts to the low range before the
/// shift, loses it during the shift, and re-adapts to the high range after.
#[test]
fn fig1_tuner_adapts_before_shift_and_readapts_after() {
    for run in fig1_arms() {
        assert_eq!(run.recorder.records().len(), 500);
        // Warm phase: by query 150 the hot values are indexed and the hit
        // rate is substantial.
        let warm = run.recorder.hit_rate(100, 200);
        assert!(warm > 0.4, "pre-shift hit rate {warm}");
        // The shift collapses the hit rate (Fig. 1's double burden).
        let during = run.recorder.hit_rate(250, 320);
        assert!(
            during < warm - 0.15,
            "hit rate must drop during adaptation: warm {warm}, during {during}"
        );
        // Recovery by the end.
        let late = run.recorder.hit_rate(430, 500);
        assert!(late > 0.4, "post-adaptation hit rate {late}");
    }
}

/// Fig. 1's control-loop delay, in both arms: the indexed range lags the
/// queried range through the shift and catches up only after it began.
#[test]
fn fig1_indexed_range_lags_queried_range() {
    for run in fig1_arms() {
        // Right after the shift the queried range is fully high, but the
        // index still holds low values.
        let (lo, _) = run.indexed[305].0.expect("index is populated");
        assert!(
            lo < FIG1_HIGH.0,
            "stale low values remain indexed (lo={lo})"
        );
        let adapted = run.adapted_after(0.7, 50).expect("tuner must adapt");
        assert!(
            adapted > FIG1_SHIFT.0,
            "adaptation completes only after the shift began: {adapted}"
        );
        // By the end the indexed band has moved into the high range (a few
        // stale transition values may remain under LRU).
        let (_, hi) = run.indexed.last().unwrap().0.unwrap();
        assert!(hi >= FIG1_HIGH.0);
        assert!(
            run.indexed[480..]
                .iter()
                .all(|(band, _)| band.is_some_and(|(lo, _)| lo > FIG1_LOW.1 - 5)),
            "most stale low values evicted by the end"
        );
    }
}

/// Both arms draw Fig. 1 exactly as the control-loop simulator that drew it
/// before the engine did: the FNV-1a hash of the 500 `(value, hit,
/// indexed_lo, indexed_hi, indexed_count)` records (0 for an empty band),
/// as little-endian words, is the simulator's.
#[test]
fn fig1_records_match_the_simulator() {
    for (arm, run) in ["tuner", "tuner+buffer"].into_iter().zip(fig1_arms()) {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |w: u64| {
            for byte in w.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let values = fig1_queries();
        for (seq, &value) in values.iter().enumerate() {
            let (band, count) = run.indexed[seq];
            let (lo, hi) = band.unwrap_or((0, 0));
            for w in [value, i64::from(run.hit(seq)), lo, hi, count as i64] {
                word(w as u64);
            }
        }
        assert_eq!((values.len(), run.indexed.len()), (500, 500), "{arm}");
        assert_eq!(hash, 0x3249_aa61_8aa1_b8a7, "{arm}: Fig. 1 records");
    }
}

/// Fig. 3 shape (simulation): <5% fully indexed pages at correlation 0.8
/// with >=10 tuples per page and 10% coverage.
#[test]
fn fig3_shape_share_collapses_with_decorrelation() {
    let scenario = clustering::ClusteringScenario {
        tuples: 20_000,
        per_page: 10,
        coverage: 0.1,
    };
    let points = clustering::sweep(&scenario, 40, 2);
    assert!(
        (points[0].fully_indexed_share - 0.1).abs() < 0.02,
        "share at corr 1 = coverage"
    );
    let at08 = clustering::share_near_correlation(&points, 0.8).unwrap();
    assert!(
        at08.fully_indexed_share < 0.05,
        "paper's <5% claim: {}",
        at08.fully_indexed_share
    );
}
