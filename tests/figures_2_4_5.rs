//! The paper's explanatory figures as executable assertions.
//!
//! * **Fig. 2** — a partial index on the airport column covering U.S.
//!   airports: `ORD` hits the index; `FRA` needs a full scan.
//! * **Fig. 4** — the Index Buffer indexes the remaining unindexed tuples
//!   of passed pages, making them skippable for the next scan; the buffer
//!   scan contributes the extra `FRA` tuple.
//! * **Fig. 5** — multiple Index Buffers (different columns) live in one
//!   Index Buffer Space, partitioned into groups of `P` pages that are
//!   disjoint in the pages they reference.

use adaptive_index_buffer::core::{BufferConfig, IndexBuffer, IndexBufferSpace, SpaceConfig};
use adaptive_index_buffer::engine::{AccessPath, Database, EngineConfig, Query};
use adaptive_index_buffer::index::{Coverage, IndexBackend};
use adaptive_index_buffer::storage::{Column, Rid, Schema, Tuple, Value};
use std::collections::BTreeSet;

/// The flight table of Figures 2 and 4, with enough rows to span pages.
fn flights_db() -> Database {
    let db = Database::new(EngineConfig {
        pool_frames: 32,
        ..Default::default()
    });
    db.create_table(
        "flights",
        Schema::new(vec![Column::str("airport"), Column::str("info")]),
    )
    .unwrap();
    let airports = ["ORD", "JFK", "LAX", "FRA", "HEL"];
    for i in 0..2_000 {
        let ap = airports[i % airports.len()];
        db.insert(
            "flights",
            &Tuple::new(vec![
                Value::from(ap),
                Value::from(format!("flight {i} data")),
            ]),
        )
        .unwrap();
    }
    let coverage = Coverage::Set(
        ["ORD", "JFK", "LAX"]
            .iter()
            .map(|&a| Value::from(a))
            .collect::<BTreeSet<_>>(),
    );
    db.create_partial_index(
        "flights",
        "airport",
        coverage,
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    db
}

#[test]
fn fig2_partial_index_hit_and_miss() {
    let db = flights_db();
    // ORD is covered: the partial index answers it without a scan.
    let (r, m) = db
        .execute(&Query::point("flights", "airport", "ORD"))
        .unwrap()
        .into_parts();
    assert_eq!(r.path, AccessPath::PartialIndex);
    assert_eq!(r.count(), 400);
    assert!(m.scan.is_none());
    // FRA is not covered: "a query for Frankfurt Airport can only be
    // answered with a full scan of the table".
    let (r, m) = db
        .execute(&Query::point("flights", "airport", "FRA"))
        .unwrap()
        .into_parts();
    assert_eq!(r.path, AccessPath::BufferedScan);
    assert_eq!(r.count(), 400);
    let s = m.scan.unwrap();
    assert_eq!(
        s.pages_read,
        db.table("flights").unwrap().num_pages(),
        "no page is fully covered by the partial index alone (every page mixes airports)"
    );
}

#[test]
fn fig4_buffer_completes_pages_and_serves_the_extra_tuple() {
    let db = flights_db();
    // First FRA query builds the buffer (HEL and FRA tuples enter it).
    db.execute(&Query::point("flights", "airport", "FRA"))
        .unwrap();
    assert_eq!(
        db.space().buffer(0).num_entries(),
        800,
        "the two uncovered airports' tuples are buffered"
    );
    // Second scan skips the completed pages and still finds every FRA
    // tuple — the buffer scan supplies them (Fig. 4's second FRA tuple).
    let (r, m) = db
        .execute(&Query::point("flights", "airport", "FRA"))
        .unwrap()
        .into_parts();
    let s = m.scan.unwrap();
    assert_eq!(s.pages_read, 0);
    assert_eq!(s.buffer_matches, 400);
    assert_eq!(r.count(), 400);
    // HEL also profits although it was never queried before.
    let (r, m) = db
        .execute(&Query::point("flights", "airport", "HEL"))
        .unwrap()
        .into_parts();
    assert_eq!(r.count(), 400);
    assert_eq!(m.scan.unwrap().pages_read, 0);
}

#[test]
fn fig5_partitions_group_p_pages_disjointly() {
    // Two Index Buffers in one space (columns X and A of Fig. 5), P = 2.
    let mut space = IndexBufferSpace::new(SpaceConfig::default());
    let cfg = BufferConfig {
        partition_pages: 2,
        ..Default::default()
    };
    let x = space.register("X", cfg, vec![2; 8]);
    let a = space.register("A", cfg, vec![2; 8]);

    // Index buffer X covers pages 1 and 7 in one partition — like Fig. 5's
    // partition 1 — then pages 2 and 4, then page 6 (incomplete).
    let feed = |buffer: &mut IndexBuffer, page: u32| {
        let tuples = (0..2).map(|s| {
            (
                Value::Int(i64::from(page) * 10 + s as i64),
                Rid::new(page, s),
            )
        });
        buffer.index_page(page, tuples);
    };
    for page in [1u32, 7, 2, 4, 6] {
        space.with_buffer_mut(x, |buffer, counters| {
            feed(buffer, page);
            counters.set_zero(page);
        });
    }
    for page in [0u32, 3] {
        space.with_buffer_mut(a, |buffer, counters| {
            feed(buffer, page);
            counters.set_zero(page);
        });
    }

    let bx = space.buffer(x);
    assert_eq!(bx.num_partitions(), 3, "X: {{1,7}}, {{2,4}}, {{6}}");
    assert_eq!(bx.num_buffered_pages(), 5);
    assert_eq!(space.buffer(a).num_partitions(), 1, "A: {{0,3}}");

    // Disjointness: each page belongs to exactly one partition.
    let mut seen = std::collections::HashSet::new();
    for pid in bx.partition_ids() {
        for (page, _) in bx.partition(pid).unwrap().pages() {
            assert!(
                seen.insert(page),
                "page {page} referenced by two partitions"
            );
        }
    }
    // Whole-partition discard: dropping the {1,7} group removes exactly its
    // two pages and restores their counters.
    let pid = bx
        .partition_ids()
        .find(|&p| bx.partition(p).unwrap().covers(1))
        .unwrap();
    space.with_buffer_mut(x, |buffer, counters| {
        let dropped = buffer.drop_partition(pid).unwrap();
        let mut pages: Vec<u32> = dropped.pages.iter().map(|&(p, _)| p).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![1, 7]);
        for &(page, restore) in &dropped.pages {
            counters.restore(page, restore);
            assert_eq!(counters.get(page), 2);
        }
    });
    space.check_invariants();
}
