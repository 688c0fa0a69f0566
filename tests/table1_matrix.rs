//! Executable specification of the paper's Table I: all 16 update cases and
//! the 8 degenerate insert/delete cases, with the exact expected operation
//! sequences — first against the core `maintain` primitive, then end-to-end
//! through the engine's `EngineError`-returning DML entry points.

use adaptive_index_buffer::core::{
    maintain, BufferConfig, IndexBuffer, MaintAction, PageCounters, SpaceConfig, TupleRef,
};
use adaptive_index_buffer::engine::{Database, EngineConfig, EngineError, Query};
use adaptive_index_buffer::index::{Coverage, IndexBackend, PartialIndex};
use adaptive_index_buffer::storage::{Column, CostModel, Rid, Schema, Tuple, Value};
use MaintAction::*;

const BUFFERED_OLD: u32 = 0;
const BUFFERED_NEW: u32 = 1;
const PLAIN_OLD: u32 = 2;
const PLAIN_NEW: u32 = 3;

struct Fixture {
    partial: PartialIndex,
    buffer: IndexBuffer,
    counters: PageCounters,
}

fn fixture() -> Fixture {
    let mut partial = PartialIndex::new(
        "col",
        Coverage::IntRange { lo: 0, hi: 99 },
        IndexBackend::BTree,
    );
    let mut buffer = IndexBuffer::new(0, "col", BufferConfig::default());
    buffer.index_page(
        BUFFERED_OLD,
        vec![(Value::Int(500), Rid::new(BUFFERED_OLD, 0))],
    );
    buffer.index_page(
        BUFFERED_NEW,
        vec![(Value::Int(501), Rid::new(BUFFERED_NEW, 0))],
    );
    // Covered old tuples that the IX-side cases reference.
    partial.add(Value::Int(1), Rid::new(BUFFERED_OLD, 1));
    partial.add(Value::Int(2), Rid::new(PLAIN_OLD, 1));
    Fixture {
        partial,
        buffer,
        counters: PageCounters::from_counts(vec![0, 0, 5, 5]),
    }
}

fn old_ref(in_ix: bool, buffered: bool) -> TupleRef {
    let page = if buffered { BUFFERED_OLD } else { PLAIN_OLD };
    let (value, slot) = match (in_ix, buffered) {
        (true, true) => (1, 1),
        (true, false) => (2, 1),
        (false, _) => (500, 0),
    };
    TupleRef::new(Value::Int(value), Rid::new(page, slot), page)
}

fn new_ref(in_ix: bool, buffered: bool) -> TupleRef {
    let page = if buffered { BUFFERED_NEW } else { PLAIN_NEW };
    let value = if in_ix { 7 } else { 700 };
    TupleRef::new(Value::Int(value), Rid::new(page, 9), page)
}

/// The paper's Table I, row for row: ((old∈IX, new∈IX, p_old∈B, p_new∈B),
/// expected operations in execution order).
#[allow(clippy::type_complexity)]
fn expected_matrix() -> Vec<((bool, bool, bool, bool), Vec<MaintAction>)> {
    vec![
        // t_old ∈ IX, t_new ∈ IX: only the partial index moves.
        ((true, true, true, true), vec![IxUpdate]),
        ((true, true, true, false), vec![IxUpdate]),
        ((true, true, false, true), vec![IxUpdate]),
        ((true, true, false, false), vec![IxUpdate]),
        // t_old ∈ IX, t_new ∉ IX.
        ((true, false, true, true), vec![IxRemove, BAdd]),
        ((true, false, true, false), vec![IxRemove, IncNew]),
        ((true, false, false, true), vec![IxRemove, BAdd]),
        ((true, false, false, false), vec![IxRemove, IncNew]),
        // t_old ∉ IX, t_new ∈ IX.
        ((false, true, true, true), vec![IxAdd, BRemove]),
        ((false, true, true, false), vec![IxAdd, BRemove]),
        ((false, true, false, true), vec![IxAdd, DecOld]),
        ((false, true, false, false), vec![IxAdd, DecOld]),
        // t_old ∉ IX, t_new ∉ IX.
        ((false, false, true, true), vec![BUpdate]),
        ((false, false, true, false), vec![BRemove, IncNew]),
        ((false, false, false, true), vec![BAdd, DecOld]),
        ((false, false, false, false), vec![DecOld, IncNew]),
    ]
}

#[test]
fn all_sixteen_update_cases_match_table1() {
    for ((old_ix, new_ix, old_b, new_b), expected) in expected_matrix() {
        let mut f = fixture();
        let actions = maintain(
            &mut f.partial,
            &mut f.buffer,
            &mut f.counters,
            Some(old_ref(old_ix, old_b)),
            Some(new_ref(new_ix, new_b)),
        )
        .unwrap();
        assert_eq!(
            actions, expected,
            "case (old∈IX={old_ix}, new∈IX={new_ix}, p_old∈B={old_b}, p_new∈B={new_b})"
        );
        f.buffer.check_invariants();
    }
}

#[test]
fn insert_cases_match_table1_new_column() {
    let cases = [
        ((true, false), vec![IxAdd]),
        ((true, true), vec![IxAdd]), // covered insert ignores bufferedness
        ((false, true), vec![BAdd]),
        ((false, false), vec![IncNew]),
    ];
    for ((in_ix, buffered), expected) in cases {
        let mut f = fixture();
        let actions = maintain(
            &mut f.partial,
            &mut f.buffer,
            &mut f.counters,
            None,
            Some(new_ref(in_ix, buffered)),
        )
        .unwrap();
        assert_eq!(
            actions, expected,
            "insert (in_ix={in_ix}, buffered={buffered})"
        );
    }
}

#[test]
fn delete_cases_match_table1_old_column() {
    let cases = [
        ((true, false), vec![IxRemove]),
        ((true, true), vec![IxRemove]),
        ((false, true), vec![BRemove]),
        ((false, false), vec![DecOld]),
    ];
    for ((in_ix, buffered), expected) in cases {
        let mut f = fixture();
        let actions = maintain(
            &mut f.partial,
            &mut f.buffer,
            &mut f.counters,
            Some(old_ref(in_ix, buffered)),
            None,
        )
        .unwrap();
        assert_eq!(
            actions, expected,
            "delete (in_ix={in_ix}, buffered={buffered})"
        );
    }
}

#[test]
fn state_effects_are_consistent_with_actions() {
    // Spot-check that the reported actions reflect real state changes for
    // one representative case per action kind.
    let mut f = fixture();
    // (∉IX, ∉IX, B, ∉B): B.Remove + C[p_new]++.
    maintain(
        &mut f.partial,
        &mut f.buffer,
        &mut f.counters,
        Some(old_ref(false, true)),
        Some(new_ref(false, false)),
    )
    .unwrap();
    assert!(!f
        .buffer
        .contains(&Value::Int(500), Rid::new(BUFFERED_OLD, 0)));
    assert_eq!(f.counters.get(PLAIN_NEW), 6);
    assert_eq!(
        f.counters.get(BUFFERED_OLD),
        0,
        "buffered page stays skippable"
    );

    // (∉IX, IX, ∉B, _): IX.Add + C[p_old]--.
    let mut f = fixture();
    maintain(
        &mut f.partial,
        &mut f.buffer,
        &mut f.counters,
        Some(old_ref(false, false)),
        Some(new_ref(true, true)),
    )
    .unwrap();
    assert!(f
        .partial
        .contains(&Value::Int(7), Rid::new(BUFFERED_NEW, 9)));
    assert_eq!(f.counters.get(PLAIN_OLD), 4);
}

// ---------------------------------------------------------------------------
// The same matrix end-to-end through the engine's DML API.
//
// The engine decides bufferedness from real heap placement, so the harness
// engineers it: pages are filled exactly full (row capacity is measured, not
// assumed), a warm-up scan with unbounded `I^MAX` buffers every page, and
// rows inserted afterwards land on fresh unbuffered pages. Updates that keep
// the row size stay in place (p_old = p_new); updates that grow the row are
// forced to move, and free space is arranged so the destination's
// bufferedness is deterministic (the free-space map is last-fit, so a fresh
// tail page beats any interior hole, and a carved-out landing zone on page 0
// wins only once everything later is too full).
// ---------------------------------------------------------------------------

/// Covered values are `0..=99`; everything else is uncovered.
const COVERED_HI: i64 = 99;
/// Fixed body size of ordinary rows: capacity measurement depends on every
/// ordinary row encoding to the same length.
const PAD: usize = 120;
/// Body size that forces an in-place update to relocate: larger than a
/// page's tail slack plus several single-row holes combined, so a grown row
/// can never be absorbed where it was.
const GROWN_PAD: usize = 700;
/// Insert size that no ordinary single-row hole can absorb, used to steer
/// inserts into the page-0 landing zone.
const WIDE_PAD: usize = 140;

fn row(k: i64, pad: usize) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::from("x".repeat(pad))])
}

struct EngineFixture {
    db: Database,
    /// Base rids in insert order; even index = covered, odd = uncovered.
    rids: Vec<Rid>,
    /// Indices of `rids` already consumed as case victims.
    used: std::collections::HashSet<usize>,
    rows_per_page: usize,
    /// Source of fresh uncovered key values.
    next_k: i64,
}

impl EngineFixture {
    fn base_k(i: i64) -> i64 {
        if i % 2 == 0 {
            i % (COVERED_HI + 1)
        } else {
            1_000 + i
        }
    }

    /// Ten exactly-full pages of alternating covered/uncovered rows, a
    /// partial index on `k`, and one warm-up scan so every page is buffered.
    fn new() -> Self {
        let db = Database::new(EngineConfig {
            pool_frames: 256,
            cost_model: CostModel::free(),
            space: SpaceConfig {
                max_bytes: None,
                i_max: 100_000,
                seed: 5,
            },
            ..Default::default()
        });
        db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
            .unwrap();
        // Measure row capacity: fill page 0 until a row spills to page 1.
        let mut rids = Vec::new();
        let mut i = 0i64;
        loop {
            let rid = db.insert("t", &row(Self::base_k(i), PAD)).unwrap();
            i += 1;
            let ord = db.table("t").unwrap().page_ordinal(rid).unwrap();
            rids.push(rid);
            if ord == 1 {
                break;
            }
        }
        let rows_per_page = rids.len() - 1;
        assert!(rows_per_page >= 48, "PAD too large for a meaningful page");
        // Fill pages 1..=9 exactly full.
        while rids.len() < 10 * rows_per_page {
            rids.push(db.insert("t", &row(Self::base_k(i), PAD)).unwrap());
            i += 1;
        }
        db.create_partial_index(
            "t",
            "k",
            Coverage::IntRange {
                lo: 0,
                hi: COVERED_HI,
            },
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
        let mut fx = EngineFixture {
            db,
            rids,
            used: std::collections::HashSet::new(),
            rows_per_page,
            next_k: 100_000,
        };
        fx.scan(); // Unbounded I^MAX: one scan buffers every page.
        assert_eq!(fx.db.table("t").unwrap().num_pages(), 10);
        for ord in 0..10 {
            assert!(fx.buffered(ord), "warm-up buffers page {ord}");
        }
        fx
    }

    /// Runs an uncovered point query: a buffered indexing scan.
    fn scan(&mut self) {
        self.db
            .execute(&Query::on("t", "k").eq(999_999_999i64))
            .unwrap();
    }

    fn fresh_uncovered(&mut self) -> i64 {
        self.next_k += 1;
        self.next_k
    }

    fn ord_of(&self, rid: Rid) -> u32 {
        self.db.table("t").unwrap().page_ordinal(rid).unwrap()
    }

    fn buffered(&self, ord: u32) -> bool {
        let bid = self.db.buffer_id("t", "k").unwrap();
        self.db.space().buffer(bid).is_buffered(ord)
    }

    fn entries(&self) -> i64 {
        let bid = self.db.buffer_id("t", "k").unwrap();
        self.db.space().buffer(bid).num_entries() as i64
    }

    fn counter(&self, ord: u32) -> u32 {
        let bid = self.db.buffer_id("t", "k").unwrap();
        self.db.space().counters(bid).get(ord)
    }

    fn ix_len(&self) -> i64 {
        self.db.partial_index_len("t", "k").unwrap() as i64
    }

    /// Takes an unused base victim with the wanted coverage on page `page`.
    fn take(&mut self, page: usize, covered: bool) -> Rid {
        let r = self.rows_per_page;
        let j = (page * r..(page + 1) * r)
            .find(|j| (j % 2 == 0) == covered && !self.used.contains(j))
            .expect("page has unused victims of both coverages");
        self.used.insert(j);
        self.rids[j]
    }

    /// One Table-I update case through `Database::update`. Asserts the
    /// bufferedness quadrant actually reached and the partial-index /
    /// buffer-entry deltas it must produce.
    fn update_case(
        &mut self,
        rid: Rid,
        new_k: i64,
        new_pad: usize,
        quadrant: (bool, bool, bool, bool),
        d_ix: i64,
        d_buf: i64,
    ) -> Rid {
        let (old_ix, new_ix, old_b, new_b) = quadrant;
        let old_k = self
            .db
            .fetch("t", rid)
            .unwrap()
            .get(0)
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!((0..=COVERED_HI).contains(&old_k), old_ix, "victim coverage");
        assert_eq!((0..=COVERED_HI).contains(&new_k), new_ix, "new coverage");
        let old_ord = self.ord_of(rid);
        assert_eq!(self.buffered(old_ord), old_b, "p_old bufferedness");
        let (ix0, buf0) = (self.ix_len(), self.entries());
        let new_rid = self.db.update("t", rid, &row(new_k, new_pad)).unwrap();
        let new_ord = self.ord_of(new_rid);
        assert_eq!(self.buffered(new_ord), new_b, "p_new bufferedness");
        if new_pad == PAD {
            assert_eq!(new_ord, old_ord, "same-size update stays in place");
        } else {
            assert_ne!(new_ord, old_ord, "grown update must relocate");
        }
        assert_eq!(
            self.ix_len() - ix0,
            d_ix,
            "partial-index delta {quadrant:?}"
        );
        assert_eq!(self.entries() - buf0, d_buf, "buffer delta {quadrant:?}");
        new_rid
    }
}

#[test]
fn table1_through_the_engine_dml_api() {
    let mut fx = EngineFixture::new();
    let covered_new = 50i64;

    // ---- Updates, p_old ∈ B and p_new ∈ B (same-size, in place). ----
    let v = fx.take(1, true);
    fx.update_case(v, covered_new, PAD, (true, true, true, true), 0, 0);
    let v = fx.take(1, false);
    let k = fx.fresh_uncovered();
    fx.update_case(v, k, PAD, (false, false, true, true), 0, 0);
    let v = fx.take(2, true);
    let k = fx.fresh_uncovered();
    fx.update_case(v, k, PAD, (true, false, true, true), -1, 1);
    let v = fx.take(2, false);
    fx.update_case(v, covered_new, PAD, (false, true, true, true), 1, -1);

    // ---- Deletes from buffered pages. ----
    let v = fx.take(5, true);
    let ix0 = fx.ix_len();
    fx.db.delete("t", v).unwrap();
    assert_eq!(fx.ix_len(), ix0 - 1, "covered delete: IX.Remove");
    let v = fx.take(6, false);
    let buf0 = fx.entries();
    fx.db.delete("t", v).unwrap();
    assert_eq!(
        fx.entries(),
        buf0 - 1,
        "buffered uncovered delete: B.Remove"
    );

    // ---- Updates, p_old ∈ B and p_new ∉ B (grown rows relocate to a fresh
    // tail page: every existing page is too full to take them). ----
    let v = fx.take(1, true);
    let moved = fx.update_case(v, covered_new, GROWN_PAD, (true, true, true, false), 0, 0);
    let fresh_ord = fx.ord_of(moved);
    assert_eq!(fresh_ord, 10, "first grown row opens a fresh page");
    let v = fx.take(2, true);
    let k = fx.fresh_uncovered();
    let c0 = fx.counter(fresh_ord);
    fx.update_case(v, k, GROWN_PAD, (true, false, true, false), -1, 0);
    assert_eq!(fx.counter(fresh_ord), c0 + 1, "IX→plain move: C[p_new]++");
    let v = fx.take(3, false);
    fx.update_case(v, covered_new, GROWN_PAD, (false, true, true, false), 1, -1);
    let v = fx.take(4, false);
    let k = fx.fresh_uncovered();
    let c0 = fx.counter(fresh_ord);
    fx.update_case(v, k, GROWN_PAD, (false, false, true, false), 0, -1);
    assert_eq!(fx.counter(fresh_ord), c0 + 1, "B.Remove + C[p_new]++");

    // ---- Inserts onto the unbuffered tail page. ----
    let ix0 = fx.ix_len();
    let rid = fx.db.insert("t", &row(covered_new, PAD)).unwrap();
    assert!(!fx.buffered(fx.ord_of(rid)));
    assert_eq!(fx.ix_len(), ix0 + 1, "covered insert: IX.Add");
    let k = fx.fresh_uncovered();
    let rid = fx.db.insert("t", &row(k, PAD)).unwrap();
    let ord = fx.ord_of(rid);
    assert!(!fx.buffered(ord));
    let c0 = fx.counter(ord);
    assert!(c0 > 0, "uncovered insert off-buffer: C[p]++ happened");

    // ---- Re-scan: the tail page becomes buffered too. ----
    fx.scan();
    let pages = fx.db.table("t").unwrap().num_pages();
    for ord in 0..pages {
        assert!(fx.buffered(ord), "page {ord} buffered after re-scan");
    }

    // ---- Grow an exactly-full *unbuffered* page at the tail: fill every
    // remaining hole, then put exactly one page's worth of rows on a fresh
    // page. ----
    let mut tail_rids = Vec::new();
    let mut i = 0i64;
    let tail_ord = loop {
        let k = if i % 2 == 0 {
            i % (COVERED_HI + 1)
        } else {
            fx.fresh_uncovered()
        };
        let rid = fx.db.insert("t", &row(k, PAD)).unwrap();
        i += 1;
        let ord = fx.ord_of(rid);
        if ord >= pages {
            tail_rids.push((rid, k));
            break ord;
        }
        // Interim rows land in buffered holes/slack: also Table-I insert
        // cases (covered → IX.Add, uncovered → B.Add).
        assert!(fx.buffered(ord));
    };
    assert!(!fx.buffered(tail_ord));
    for _ in 1..fx.rows_per_page {
        let k = if i % 2 == 0 {
            i % (COVERED_HI + 1)
        } else {
            fx.fresh_uncovered()
        };
        let rid = fx.db.insert("t", &row(k, PAD)).unwrap();
        i += 1;
        assert_eq!(fx.ord_of(rid), tail_ord, "tail page fills contiguously");
        tail_rids.push((rid, k));
    }

    // ---- Carve a landing zone on (buffered) page 0. ----
    for _ in 0..24 {
        let v = fx.take(0, false);
        fx.db.delete("t", v).unwrap();
    }
    assert!(fx.buffered(0), "page 0 stays buffered through deletes");

    // ---- Inserts into the buffered landing zone, while the tail is still
    // exactly full (too wide for any single-row hole elsewhere). ----
    let ix0 = fx.ix_len();
    let rid = fx.db.insert("t", &row(covered_new, WIDE_PAD)).unwrap();
    assert_eq!(fx.ord_of(rid), 0);
    assert!(fx.buffered(0));
    assert_eq!(fx.ix_len(), ix0 + 1, "covered insert onto buffered page");
    let k = fx.fresh_uncovered();
    let buf0 = fx.entries();
    let rid = fx.db.insert("t", &row(k, WIDE_PAD)).unwrap();
    assert_eq!(fx.ord_of(rid), 0);
    assert_eq!(
        fx.entries(),
        buf0 + 1,
        "uncovered insert onto buffered page: B.Add"
    );
    assert_eq!(fx.counter(0), 0, "buffered page stays skippable");

    // ---- Updates, p_old ∉ B and p_new ∈ B (grown rows can only land in the
    // page-0 zone: the tail is exactly full, holes are single-row). ----
    let mut tail_victim = |covered: bool| {
        let pos = tail_rids
            .iter()
            .position(|(_, k)| (0..=COVERED_HI).contains(k) == covered)
            .expect("tail has victims of both coverages");
        tail_rids.remove(pos).0
    };
    let v = tail_victim(true);
    let moved = fx.update_case(v, covered_new, GROWN_PAD, (true, true, false, true), 0, 0);
    assert_eq!(fx.ord_of(moved), 0, "landing zone is the only fit");
    let v = tail_victim(true);
    let k = fx.fresh_uncovered();
    fx.update_case(v, k, GROWN_PAD, (true, false, false, true), -1, 1);
    let v = tail_victim(false);
    let c0 = fx.counter(tail_ord);
    fx.update_case(v, covered_new, GROWN_PAD, (false, true, false, true), 1, 0);
    assert_eq!(fx.counter(tail_ord), c0 - 1, "IX.Add + C[p_old]--");
    let v = tail_victim(false);
    let k = fx.fresh_uncovered();
    let c0 = fx.counter(tail_ord);
    fx.update_case(v, k, GROWN_PAD, (false, false, false, true), 0, 1);
    assert_eq!(fx.counter(tail_ord), c0 - 1, "B.Add + C[p_old]--");

    // ---- Updates, p_old ∉ B and p_new ∉ B (same-size, in place). ----
    let v = tail_victim(true);
    fx.update_case(v, covered_new, PAD, (true, true, false, false), 0, 0);
    let v = tail_victim(true);
    let k = fx.fresh_uncovered();
    let c0 = fx.counter(tail_ord);
    fx.update_case(v, k, PAD, (true, false, false, false), -1, 0);
    assert_eq!(fx.counter(tail_ord), c0 + 1, "IX.Remove + C[p_new]++");
    let v = tail_victim(false);
    let c0 = fx.counter(tail_ord);
    fx.update_case(v, covered_new, PAD, (false, true, false, false), 1, 0);
    assert_eq!(fx.counter(tail_ord), c0 - 1, "IX.Add + C[p_old]--");
    let v = tail_victim(false);
    let k = fx.fresh_uncovered();
    let c0 = fx.counter(tail_ord);
    fx.update_case(v, k, PAD, (false, false, false, false), 0, 0);
    assert_eq!(fx.counter(tail_ord), c0, "C[p]-- then C[p]++ on one page");

    // ---- Deletes from the unbuffered tail page. ----
    let v = tail_victim(true);
    let ix0 = fx.ix_len();
    fx.db.delete("t", v).unwrap();
    assert_eq!(fx.ix_len(), ix0 - 1, "covered delete: IX.Remove");
    let v = tail_victim(false);
    let c0 = fx.counter(tail_ord);
    fx.db.delete("t", v).unwrap();
    assert_eq!(
        fx.counter(tail_ord),
        c0 - 1,
        "unbuffered uncovered delete: C[p]--"
    );

    // ---- Closing invariants: skippability holds on every page, and the
    // executor still answers from this state correctly. ----
    fx.db.check_space_invariants();
    let table = fx.db.table("t").unwrap();
    let bid = fx.db.buffer_id("t", "k").unwrap();
    let space = fx.db.space();
    let buffer = space.buffer(bid);
    let counters = space.counters(bid);
    for ord in 0..table.num_pages() {
        let uncovered: Vec<(Rid, Value)> = table
            .page_tuples(ord)
            .unwrap()
            .into_iter()
            .filter(|(_, t)| !(0..=COVERED_HI).contains(&t.get(0).unwrap().as_int().unwrap()))
            .map(|(rid, t)| (rid, t.get(0).unwrap().clone()))
            .collect();
        if buffer.is_buffered(ord) {
            assert_eq!(counters.get(ord), 0, "page {ord}: buffered but C > 0");
            for (rid, v) in &uncovered {
                assert!(buffer.contains(v, *rid), "page {ord}: {v:?} missing");
            }
        } else {
            assert_eq!(
                counters.get(ord) as usize,
                uncovered.len(),
                "page {ord}: counter tracks uncovered tuples"
            );
        }
    }
    let truth = table
        .scan_all()
        .unwrap()
        .iter()
        .filter(|(_, t)| t.get(0).unwrap().as_int() == Some(covered_new))
        .count();
    // Release the inspection guards before executing: the query's buffer
    // insertions need the space write lock.
    drop(space);
    drop(table);
    let outcome = fx.db.execute(&Query::on("t", "k").eq(covered_new)).unwrap();
    assert_eq!(
        outcome.result.count(),
        truth,
        "post-matrix query correctness"
    );
}

#[test]
fn dml_entry_points_surface_catalog_errors() {
    let db = Database::new(EngineConfig {
        pool_frames: 16,
        cost_model: CostModel::free(),
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k")]))
        .unwrap();
    let t = Tuple::new(vec![Value::Int(1)]);
    let rid = db.insert("t", &t).unwrap();

    let unknown_table = EngineError::UnknownTable("nope".into());
    assert_eq!(db.insert("nope", &t).unwrap_err(), unknown_table);
    assert_eq!(db.update("nope", rid, &t).unwrap_err(), unknown_table);
    assert_eq!(db.delete("nope", rid).unwrap_err(), unknown_table);
    assert_eq!(db.fetch("nope", rid).unwrap_err(), unknown_table);
    assert_eq!(
        db.execute(&Query::on("nope", "k").eq(1i64)).unwrap_err(),
        unknown_table
    );
    assert_eq!(db.vacuum("nope", 0.5).unwrap_err(), unknown_table);

    assert_eq!(
        db.execute(&Query::on("t", "zz").eq(1i64)).unwrap_err(),
        EngineError::UnknownColumn("zz".into())
    );
    assert_eq!(
        db.create_partial_index(
            "t",
            "zz",
            Coverage::IntRange { lo: 0, hi: 9 },
            IndexBackend::BTree,
            None,
        )
        .unwrap_err(),
        EngineError::UnknownColumn("zz".into())
    );
    assert_eq!(
        db.drop_partial_index("t", "k").unwrap_err(),
        EngineError::NoSuchIndex("t.k".into())
    );
}
