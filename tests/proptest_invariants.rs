//! Shadow-model property test (`invariant-checks` feature only): arbitrary
//! sequences of DML, queries (driving indexing scans and Algorithm 2
//! partition displacement), online-tuner adaptation, coverage redefinition,
//! and index drop/recreate must keep the engine's incremental bookkeeping in
//! exact agreement with ground truth recomputed from the heap.
//!
//! The engine re-runs [`Database::verify_invariants`] after every mutation
//! when the feature is on, so any divergence fails the op that caused it —
//! the explicit call at the end of each case is the belt to that suspenders.
//!
//! Run with `cargo test --features invariant-checks --test proptest_invariants`.
#![cfg(feature = "invariant-checks")]

use adaptive_index_buffer::core::{BufferConfig, SpaceConfig};
use adaptive_index_buffer::engine::tuner::TunerConfig;
use adaptive_index_buffer::engine::{Database, EngineConfig, Query};
use adaptive_index_buffer::index::{Coverage, IndexBackend};
use adaptive_index_buffer::storage::{
    Column, CostModel, Rid, Schema, Tuple, Value, DEFAULT_ENTRY_FOOTPRINT,
};
use proptest::prelude::*;

const DOMAIN: i64 = 40;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64, i64, u16),
    Delete(usize),
    Update(usize, i64, i64, i64),
    /// Point query; columns "a" and "c" miss their range coverage outside
    /// it, column "b" drives the tuner's add/evict adaptation.
    Query(u8, i64),
    /// Range query on "a" or "c": sweeps many pages, maximizing Algorithm 2
    /// selections and displacement churn among the three buffers.
    Range(u8, i64, i64),
    /// Redefine column "a"'s range coverage wholesale (experiment 4).
    Redefine(i64, i64),
    /// Drop column "a"'s partial index and recreate it from scratch.
    DropRecreate(i64),
}

fn op() -> impl Strategy<Value = Op> {
    let val = 1..=DOMAIN;
    prop_oneof![
        3 => (val.clone(), val.clone(), val.clone(), 1u16..300)
            .prop_map(|(a, b, c, n)| Op::Insert(a, b, c, n)),
        2 => (0usize..1000).prop_map(Op::Delete),
        2 => ((0usize..1000), val.clone(), val.clone(), val.clone())
            .prop_map(|(i, a, b, c)| Op::Update(i, a, b, c)),
        6 => ((0u8..3), val.clone()).prop_map(|(col, v)| Op::Query(col, v)),
        2 => ((0u8..2), val.clone(), val.clone())
            .prop_map(|(col, lo, hi)| Op::Range(col, lo.min(hi), lo.max(hi))),
        1 => (val.clone(), val.clone()).prop_map(|(lo, hi)| Op::Redefine(lo.min(hi), lo.max(hi))),
        1 => val.prop_map(Op::DropRecreate),
    ]
}

/// Columns by generator index; `Range` draws `0..2` and maps 1 to "c".
const COLUMNS: [&str; 3] = ["a", "b", "c"];

fn small_buffer() -> Option<BufferConfig> {
    Some(BufferConfig {
        partition_pages: 2,
        ..Default::default()
    })
}

fn build(seed_rows: usize) -> (Database, Vec<Rid>) {
    let db = Database::new(EngineConfig {
        pool_frames: 8,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            // Tight bound shared by three buffers: indexing scans
            // constantly displace each other's partitions, exercising the
            // restore path against the shadow model.
            max_bytes: Some(60 * DEFAULT_ENTRY_FOOTPRINT),
            i_max: 4,
            seed: 7,
        },
        ..Default::default()
    });
    db.create_table(
        "t",
        Schema::new(vec![
            Column::int("a"),
            Column::int("b"),
            Column::int("c"),
            Column::str("pad"),
        ]),
    )
    .unwrap();
    let mut rids = Vec::new();
    for i in 0..seed_rows {
        let t = Tuple::new(vec![
            Value::Int((i as i64 * 13) % DOMAIN + 1),
            Value::Int((i as i64 * 29) % DOMAIN + 1),
            Value::Int((i as i64 * 17) % DOMAIN + 1),
            Value::from("x".repeat(1 + (i * 37) % 200)),
        ]);
        rids.push(db.insert("t", &t).unwrap());
    }
    // Column "a": range-covered partial index with a small-partition buffer.
    db.create_partial_index(
        "t",
        "a",
        Coverage::IntRange { lo: 1, hi: 12 },
        IndexBackend::BTree,
        small_buffer(),
    )
    .unwrap();
    // Column "b": tuned set coverage — queries mutate coverage value by
    // value through cover_tuple/uncover_tuple, the adaptation surface.
    db.create_partial_index(
        "t",
        "b",
        Coverage::empty_set(),
        IndexBackend::BTree,
        small_buffer(),
    )
    .unwrap();
    // Column "c": a second range-covered buffer competing for the cap.
    db.create_partial_index(
        "t",
        "c",
        Coverage::IntRange { lo: 20, hi: 32 },
        IndexBackend::BTree,
        small_buffer(),
    )
    .unwrap();
    db.attach_tuner(
        "t",
        "b",
        TunerConfig {
            window: 8,
            threshold: 2,
            capacity: 3,
        },
    )
    .unwrap();
    (db, rids)
}

/// Ground truth recomputed from the heap, independent of any buffer state.
fn truth(db: &Database, col: &str, lo: i64, hi: i64) -> Vec<Rid> {
    let table = db.table("t").unwrap();
    let ci = table.schema().column_index(col).unwrap();
    let mut rids: Vec<Rid> = table
        .scan_all()
        .unwrap()
        .into_iter()
        .filter(|(_, t)| {
            t.get(ci)
                .unwrap()
                .as_int()
                .is_some_and(|v| lo <= v && v <= hi)
        })
        .map(|(rid, _)| rid)
        .collect();
    rids.sort_unstable();
    rids
}

fn run_case(db: Database, mut rids: Vec<Rid>, ops: Vec<Op>) {
    for op in ops {
        match op {
            Op::Insert(a, b, c, n) => {
                let t = Tuple::new(vec![
                    Value::Int(a),
                    Value::Int(b),
                    Value::Int(c),
                    Value::from("y".repeat(n as usize)),
                ]);
                rids.push(db.insert("t", &t).unwrap());
            }
            Op::Delete(i) => {
                if rids.is_empty() {
                    continue;
                }
                let rid = rids.remove(i % rids.len());
                db.delete("t", rid).unwrap();
            }
            Op::Update(i, a, b, c) => {
                if rids.is_empty() {
                    continue;
                }
                let idx = i % rids.len();
                let old = db.fetch("t", rids[idx]).unwrap();
                let pad = old.get(3).unwrap().clone();
                let t = Tuple::new(vec![Value::Int(a), Value::Int(b), Value::Int(c), pad]);
                rids[idx] = db.update("t", rids[idx], &t).unwrap();
            }
            Op::Query(col, v) => {
                let col = COLUMNS[col as usize];
                let r = db.execute(&Query::point("t", col, v)).unwrap().result;
                let mut got = r.rids.clone();
                got.sort_unstable();
                assert_eq!(got, truth(&db, col, v, v), "query {col}={v}");
            }
            Op::Range(col, lo, hi) => {
                let col = COLUMNS[2 * col as usize];
                let r = db
                    .execute(&Query::on("t", col).between(lo, hi))
                    .unwrap()
                    .result;
                let mut got = r.rids.clone();
                got.sort_unstable();
                assert_eq!(got, truth(&db, col, lo, hi), "query {col} in {lo}..={hi}");
            }
            Op::Redefine(lo, hi) => {
                db.redefine_coverage("t", "a", Coverage::IntRange { lo, hi })
                    .unwrap();
            }
            Op::DropRecreate(hi) => {
                db.drop_partial_index("t", "a").unwrap();
                db.create_partial_index(
                    "t",
                    "a",
                    Coverage::IntRange { lo: 1, hi },
                    IndexBackend::BTree,
                    small_buffer(),
                )
                .unwrap();
            }
        }
    }
    // Belt to the per-op suspenders: one explicit full shadow-model pass,
    // then the roster — a dropped index leaves no buffer behind — and the
    // governor's charge against the summed resident footprints. (A hard
    // `<= cap` bound would be wrong: Table I DML may append to a buffered
    // page outside Algorithm 2's admission gate, because a buffered page
    // must stay complete; only *selections* are cap-gated.)
    db.verify_invariants().unwrap();
    db.check_space_invariants();
    let snapshot = db.space_snapshot();
    assert_eq!(snapshot.buffers().count(), COLUMNS.len());
    let resident: usize = snapshot.buffers().map(|b| b.footprint()).sum();
    assert_eq!(db.memory().index_bytes, resident);
}

proptest! {
    // Every op re-runs the full shadow model inside the engine, so keep the
    // case count modest — depth of interleaving matters more than breadth.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shadow_model_agrees_under_adaptation_and_displacement(
        ops in prop::collection::vec(op(), 1..48),
    ) {
        let (db, rids) = build(120);
        run_case(db, rids, ops);
    }
}

// ---------------------------------------------------------------------------
// Scan fast path: compiled predicates and the maintained skip bitset
// ---------------------------------------------------------------------------

use adaptive_index_buffer::core::{CompiledPredicate, PageCounters, Predicate, StagedPage};
use adaptive_index_buffer::index::PackedEntries;
use adaptive_index_buffer::storage::{FrameFilters, PageId, PageView, SlottedPage, PAGE_SIZE};

/// Every [`Value`] variant, including the empty string and integer extremes
/// the little-endian encoding makes interesting.
fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        2 => prop_oneof![Just(i64::MIN), Just(-1i64), Just(0), Just(i64::MAX)]
            .prop_map(Value::Int),
        3 => any::<i64>().prop_map(Value::Int),
        3 => ".{0,12}".prop_map(Value::from),
    ]
}

/// Runs `compiled` through the sweep's page kernel
/// ([`CompiledPredicate::matches_page`]) over a page holding the one tuple
/// `bytes` three times — with no value filter, while building one, and with
/// the built one — and returns whether that tuple matched, once all three
/// agree.
fn page_matches(compiled: &CompiledPredicate, bytes: &[u8], column: usize) -> bool {
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut page = SlottedPage::new(&mut buf);
    page.init();
    let rid = Rid {
        page: PageId(3),
        slot: page.insert(bytes).unwrap(),
    };
    let filters = FrameFilters::default();
    let [plain, building, built] = [None, Some(&filters), Some(&filters)].map(|filters| {
        let mut out = Vec::new();
        compiled
            .matches_page(
                &PageView::with_filters(&buf, filters),
                rid.page,
                column,
                &mut out,
            )
            .unwrap();
        assert!(out.is_empty() || out == [rid], "{out:?}");
        out
    });
    assert_eq!(plain, building, "while building the column-{column} filter");
    assert_eq!(plain, built, "with the built column-{column} filter");
    if let CompiledPredicate::Equals { .. } = compiled {
        let filter = PageView::with_filters(&buf, Some(&filters)).value_filter(column);
        assert!(
            filter.unwrap().built().is_some(),
            "column {column} filter built"
        );
    }
    !plain.is_empty()
}

/// Counter maintenance as the engine drives it: Table I DML
/// (increment/decrement), Algorithm 1 indexing (`set_zero`), Algorithm 2
/// displacement (`restore`), and heap growth (`ensure_page`).
#[derive(Debug, Clone)]
enum CounterOp {
    Increment(u32),
    Decrement(u32),
    SetZero(u32),
    Restore(u32, u32),
    Ensure(u32),
}

fn counter_op() -> impl Strategy<Value = CounterOp> {
    // Pages up to 130 span three bitset words, so word-boundary bits and the
    // masked tail both get exercised.
    let page = 0u32..130;
    prop_oneof![
        4 => page.clone().prop_map(CounterOp::Increment),
        3 => page.clone().prop_map(CounterOp::Decrement),
        2 => page.clone().prop_map(CounterOp::SetZero),
        2 => (page.clone(), 0u32..4).prop_map(|(p, n)| CounterOp::Restore(p, n)),
        1 => page.prop_map(CounterOp::Ensure),
    ]
}

proptest! {
    /// The zero-copy path and the interpreted path must agree on every
    /// value variant: [`CompiledPredicate`] evaluated on the raw encoded
    /// column bytes, and by the sweep's page kernel at column 0 and 1, ⇔
    /// [`Predicate::matches`] on the decoded [`Value`]; and
    /// the staging kernel of indexed pages ([`StagedPage::stage`]) ⇔
    /// [`Coverage::covers`], [`Predicate::matches`] and
    /// [`Tuple::read_column`], under every coverage shape. Referenced by
    /// the `aib-core` scan module docs.
    #[test]
    fn compiled_predicate_matches_decoded_values(
        v in any_value(),
        probe in any_value(),
        lo in any_value(),
        hi in any_value(),
        pad in any_value(),
    ) {
        // Coverage shapes built from the drawn values: each shape both
        // covering `v` and, mostly, not.
        let near = v.as_int().unwrap_or(0);
        let other = probe.as_int().unwrap_or(1);
        let coverages = [
            Coverage::None,
            Coverage::All,
            Coverage::IntRange { lo: near.saturating_sub(1), hi: near },
            Coverage::IntRange { lo: other, hi: other },
            Coverage::Set([v.clone(), pad.clone()].into_iter().collect()),
            Coverage::Set([probe.clone(), lo.clone(), hi.clone()].into_iter().collect()),
        ];
        let bytes = Tuple::new(vec![pad.clone(), v.clone()]).to_bytes();
        let first = Tuple::new(vec![v.clone(), pad]).to_bytes();
        // Random probes mostly miss; the self-referential predicates pin the
        // must-match side of the equivalence.
        let preds = [
            Predicate::Equals(probe),
            Predicate::Equals(v.clone()),
            Predicate::Between(lo, hi),
            Predicate::Between(v.clone(), v.clone()),
        ];
        for pred in preds {
            let col = Tuple::read_column_raw(&bytes, 1).unwrap();
            let compiled = CompiledPredicate::compile(&pred);
            prop_assert_eq!(
                compiled.matches(&col),
                pred.matches(&v),
                "{:?} on {:?}", pred, v
            );
            // The page kernel (the production page-sweep path) must agree
            // with the decoded semantics on well-formed tuples, with and
            // without a value filter.
            for (column, tuple) in [(0, &first), (1, &bytes)] {
                prop_assert_eq!(
                    page_matches(&compiled, tuple, column),
                    pred.matches(&v),
                    "page kernel, column {}: {:?} on {:?}", column, pred, v
                );
            }
            for coverage in &coverages {
                let rid = Rid::new(3, 1);
                let mut page = StagedPage { ordinal: 0, entries: PackedEntries::default() };
                let matched = page.stage(&bytes, rid, 1, &compiled, &coverage.compile()).unwrap();
                prop_assert_eq!(matched, pred.matches(&v), "kernel: {:?} on {:?}", pred, v);
                let want: PackedEntries = if coverage.covers(&v) {
                    Vec::new()
                } else {
                    vec![(Tuple::read_column(&bytes, 1).unwrap(), rid)]
                }
                .into_iter()
                .collect();
                prop_assert_eq!(page.entries, want, "kernel: {:?} on {:?}", coverage, v);
            }
        }
    }

    /// The maintained [`SkipBitset`] must mirror `C[p] == 0` exactly under
    /// arbitrary interleavings of DML maintenance, indexing, displacement
    /// restore, and growth — checked against an independent shadow `Vec<u32>`
    /// after every op, plus the snapshot/runs surface the scans consume.
    #[test]
    fn skip_bitset_mirrors_counters_under_random_maintenance(
        ops in prop::collection::vec(counter_op(), 1..120),
        snapshot_len in 0u32..160,
    ) {
        let mut counters = PageCounters::new();
        let mut shadow: Vec<u32> = Vec::new();
        let track = |shadow: &mut Vec<u32>, p: u32| {
            if shadow.len() <= p as usize {
                shadow.resize(p as usize + 1, 0);
            }
        };
        for op in ops {
            match op {
                CounterOp::Increment(p) => {
                    counters.increment(p);
                    track(&mut shadow, p);
                    shadow[p as usize] += 1;
                }
                CounterOp::Decrement(p) => {
                    let r = counters.decrement(p);
                    track(&mut shadow, p);
                    if shadow[p as usize] == 0 {
                        prop_assert!(r.is_err(), "underflow on C[{}] must error", p);
                    } else {
                        prop_assert!(r.is_ok());
                        shadow[p as usize] -= 1;
                    }
                }
                CounterOp::SetZero(p) => {
                    track(&mut shadow, p);
                    let prev = counters.set_zero(p);
                    prop_assert_eq!(prev, shadow[p as usize]);
                    shadow[p as usize] = 0;
                }
                CounterOp::Restore(p, n) => {
                    counters.restore(p, n);
                    track(&mut shadow, p);
                    shadow[p as usize] = n;
                }
                CounterOp::Ensure(p) => {
                    counters.ensure_page(p);
                    track(&mut shadow, p);
                }
            }
            let chk = counters.check_bitset();
            prop_assert!(chk.is_ok(), "bitset diverged: {:?}", chk);
        }
        // Per-page skippability, including untracked pages reading clear.
        for p in 0..shadow.len() as u32 + 8 {
            let expect = (p as usize) < shadow.len() && shadow[p as usize] == 0;
            prop_assert_eq!(counters.is_fully_indexed(p), expect);
        }
        // The per-scan snapshot: tracked zero-counter pages set, everything
        // else (including pages past the tracked range) clear.
        let snap = counters.skip_snapshot(snapshot_len);
        prop_assert_eq!(snap.len(), snapshot_len);
        for p in 0..snapshot_len {
            let expect = (p as usize) < shadow.len() && shadow[p as usize] == 0;
            prop_assert_eq!(snap.contains(p), expect, "snapshot bit {}", p);
        }
        // Runs alternate, tile the range exactly, and agree bit-for-bit.
        let mut at = 0u32;
        let mut last: Option<bool> = None;
        for (extent, skippable) in snap.runs(0..snapshot_len) {
            prop_assert_eq!(extent.start, at);
            prop_assert!(extent.start < extent.end);
            prop_assert!(last != Some(skippable), "runs must alternate");
            for p in extent.clone() {
                prop_assert_eq!(snap.contains(p), skippable);
            }
            at = extent.end;
            last = Some(skippable);
        }
        prop_assert_eq!(at, snapshot_len, "runs must tile the range");
        prop_assert_eq!(
            snap.count(),
            (0..snapshot_len).filter(|&p| snap.contains(p)).count() as u32
        );
    }
}
