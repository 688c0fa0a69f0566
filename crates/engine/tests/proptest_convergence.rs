//! Property test of the per-query sequential-equivalence contract
//! (DESIGN §6): whatever the workload, coverage fraction, number of
//! buffered columns and space budget, the shared read path — `execute`:
//! plans from the snapshot where it can, falls back to the write-locked
//! planner where it cannot, applies its staged insertions before
//! returning — must
//!
//! 1. return exactly the result set the sequential executor
//!    (`execute_sequential`: the same pipeline with every lock held)
//!    returns, query by query, with the same scan statistics; and
//! 2. leave the Index Buffer contents, every per-page `C[p]`, and the
//!    governor's `IndexSpace` charge identical to the sequential
//!    executor's.
//!
//! Extends the `proptest_space.rs` pattern (random setup → invariant
//! assertions vs first-principles recomputation) one layer up, to the
//! engine's executor.

use aib_core::{BufferConfig, ScanStats, SpaceConfig};
use aib_engine::{Database, EngineConfig, PlanSource, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Schema, Tuple, Value, DEFAULT_ENTRY_FOOTPRINT};
use proptest::prelude::*;

/// The buffered columns; `k2` holds `k`'s values in reverse row order.
const COLUMNS: [&str; 2] = ["k", "k2"];

/// One generated workload: a keyed table, a partial index per buffered
/// column covering a bottom fraction of the domain, and a probe sequence
/// mixing point and range queries over covered and uncovered keys.
#[derive(Debug, Clone)]
struct Workload {
    rows: i64,
    covered_pct: i64,
    /// Buffered columns (1 or 2) sharing the one bounded space; probes
    /// alternate between them, so with two the buffers displace each other.
    columns: usize,
    /// `None` = unlimited space; `Some(n)` = an entry cap (0 pins the
    /// buffer empty, a mid-size cap forces the planner's fail-closed
    /// fallback and displacement decisions).
    budget_entries: Option<usize>,
    probes: Vec<Probe>,
}

#[derive(Debug, Clone, Copy)]
enum Probe {
    Point(i64),
    Between(i64, i64),
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    let probe = prop_oneof![
        (1i64..400).prop_map(Probe::Point),
        (1i64..400, 1i64..80).prop_map(|(lo, w)| Probe::Between(lo, lo + w)),
    ];
    (
        150i64..400,
        0i64..=90,
        1usize..=2,
        prop_oneof![
            Just(None),
            Just(Some(0usize)),
            (20usize..200).prop_map(Some),
        ],
        prop::collection::vec(probe, 4..12),
    )
        .prop_map(
            |(rows, covered_pct, columns, budget_entries, probes)| Workload {
                rows,
                covered_pct,
                columns,
                budget_entries,
                probes,
            },
        )
}

/// What one query reports: its result count and its scan statistics.
type Answer = (usize, Option<ScanStats>);

/// Observable end state: every buffer's entry count and per-page `C[p]`,
/// and the governor's index-space byte charge.
#[derive(Debug, PartialEq, Eq)]
struct EndState {
    buffers: Vec<(usize, Vec<u32>)>,
    index_bytes: usize,
}

/// Runs the workload through `execute` or its sequential twin and returns
/// (per-query result counts and scan statistics, per-query plan sources,
/// end state).
fn run(w: &Workload, sequential: bool) -> (Vec<Answer>, Vec<PlanSource>, EndState) {
    let db = Database::new(EngineConfig {
        pool_frames: 256,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: w.budget_entries.map(|n| n * DEFAULT_ENTRY_FOOTPRINT),
            i_max: 1_000,
            seed: 11,
        },
        ..Default::default()
    });
    db.create_table(
        "t",
        Schema::new(vec![
            Column::int("k"),
            Column::int("k2"),
            Column::str("pad"),
        ]),
    )
    .unwrap();
    for i in 1..=w.rows {
        db.insert(
            "t",
            &Tuple::new(vec![
                Value::Int(i),
                Value::Int(w.rows + 1 - i),
                Value::from("p".repeat(48)),
            ]),
        )
        .unwrap();
    }
    let hi = w.covered_pct * w.rows / 100;
    let columns = &COLUMNS[..w.columns];
    for column in columns {
        db.create_partial_index(
            "t",
            column,
            Coverage::IntRange { lo: 1, hi },
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
    }

    let domain = |v: i64| 1 + (v - 1) % w.rows;
    let mut counts = Vec::with_capacity(w.probes.len());
    let mut plans = Vec::with_capacity(w.probes.len());
    for (probe, &column) in w.probes.iter().zip(columns.iter().cycle()) {
        let q = match *probe {
            Probe::Point(v) => Query::point("t", column, domain(v)),
            Probe::Between(lo, hi) => {
                let (a, b) = (domain(lo), domain(hi));
                Query::range("t", column, a.min(b), a.max(b))
            }
        };
        let out = if sequential {
            db.execute_sequential(&q)
        } else {
            db.execute(&q)
        }
        .unwrap();
        counts.push((out.result.count(), out.metrics.scan));
        plans.push(out.metrics.plan);
    }

    db.check_space_invariants();
    #[cfg(feature = "invariant-checks")]
    db.verify_invariants().unwrap();

    let space = db.space();
    let end = EndState {
        buffers: space
            .buffer_ids()
            .map(|b| {
                let counters = space.counters(b);
                (
                    space.buffer(b).num_entries(),
                    (0..counters.num_pages()).map(|p| counters.get(p)).collect(),
                )
            })
            .collect(),
        index_bytes: db.budget().snapshot().index_bytes,
    };
    drop(space);
    (counts, plans, end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn planned_paths_agree_with_the_sequential_executor(w in workload_strategy()) {
        // The sequential executor: every lock held for the whole query;
        // its answers and its state after each query ARE the contract.
        let (seq_counts, seq_plans, seq_end) = run(&w, true);
        prop_assert!(seq_plans
            .iter()
            .all(|p| matches!(p, PlanSource::None | PlanSource::Exclusive)));

        let (counts, plans, end) = run(&w, false);
        prop_assert_eq!(&counts, &seq_counts, "results diverged");
        prop_assert_eq!(&end, &seq_end, "end state diverged");
        prop_assert!(!plans.contains(&PlanSource::Exclusive), "no tuner attached");
        if w.budget_entries.is_none() {
            // An unlimited budget is always plannable from the snapshot.
            prop_assert!(!plans.contains(&PlanSource::Locked));
        }
    }
}

/// Both planners are exercised, as the plan-source tag shows: an unlimited
/// budget plans every miss from the snapshot, a limited budget with
/// headroom forces the write-locked fallback — and both still match the
/// sequential executor. Two columns under a cap their first sweeps fill
/// make the later ones displace the other buffer's partitions.
#[test]
fn both_plan_sources_are_taken_and_agree() {
    let workload = |budget_entries| Workload {
        rows: 300,
        covered_pct: 20,
        columns: 2,
        budget_entries,
        // `k` (even positions) misses once and fills most of the cap, then
        // only hits its partial index and goes cold; `k2` keeps missing.
        probes: vec![
            Probe::Point(250),
            Probe::Between(240, 290),
            Probe::Point(10),
            Probe::Point(120),
            Probe::Point(20),
            Probe::Point(299),
            Probe::Point(30),
            Probe::Point(180),
            Probe::Point(40),
            Probe::Point(210),
            Probe::Point(50),
            Probe::Point(150),
        ],
    };
    for (budget, expected) in [
        (None, PlanSource::Snapshot),
        (Some(200), PlanSource::Locked),
    ] {
        let w = workload(budget);
        let (counts, plans, end) = run(&w, false);
        assert!(plans.contains(&expected), "{budget:?}: {plans:?}");
        if budget.is_some() {
            let dropped: usize = counts
                .iter()
                .filter_map(|(_, scan)| scan.as_ref())
                .map(|scan| scan.partitions_dropped)
                .sum();
            assert!(dropped > 0, "no cross-buffer displacement: {counts:?}");
        }
        let (seq_counts, _, seq_end) = run(&w, true);
        assert_eq!((counts, end), (seq_counts, seq_end), "{budget:?}");
    }
}
