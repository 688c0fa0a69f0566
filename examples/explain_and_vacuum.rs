//! Operational tooling around the Index Buffer: `explain` (what would this
//! query cost right now?) and vacuum (drain sparse pages through full Table I
//! maintenance).
//!
//! Run with `cargo run --release --example explain_and_vacuum`.

use aib_core::BufferConfig;
use aib_engine::{Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, Schema, Tuple, Value};

fn main() {
    let db = Database::new(EngineConfig {
        pool_frames: 96,
        ..Default::default()
    });
    db.create_table(
        "events",
        Schema::new(vec![Column::int("kind"), Column::str("payload")]),
    )
    .unwrap();
    for i in 0..30_000i64 {
        db.insert(
            "events",
            &Tuple::new(vec![
                Value::Int(i % 500),
                Value::from("e".repeat(1 + (i as usize * 13) % 200)),
            ]),
        )
        .unwrap();
    }
    db.create_partial_index(
        "events",
        "kind",
        Coverage::IntRange { lo: 0, hi: 99 },
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();

    let show = |db: &Database, q: &Query, label: &str| {
        let e = db.explain(q).unwrap();
        println!("{label:<38} => {}", e.summary());
        e
    };

    println!("-- explain before any query --");
    show(
        &db,
        &Query::on("events", "kind").eq(42i64),
        "covered kind=42",
    );
    let cold = show(
        &db,
        &Query::on("events", "kind").eq(300i64),
        "uncovered kind=300 (cold)",
    );
    assert!(cold.pages_to_read > 0);

    // Execute once; the buffer completes pages.
    db.execute(&Query::on("events", "kind").eq(300i64)).unwrap();
    println!("\n-- explain after one indexing scan --");
    let warm = show(
        &db,
        &Query::on("events", "kind").eq(301i64),
        "uncovered kind=301 (warm)",
    );
    assert_eq!(warm.pages_to_read, 0, "the whole table became skippable");

    // Punch holes: delete 60% of the uncovered tuples, then vacuum.
    let victims: Vec<_> = db
        .table("events")
        .unwrap()
        .scan_all()
        .unwrap()
        .into_iter()
        .filter(|(_, t)| t.get(0).unwrap().as_int().unwrap() >= 100)
        .map(|(rid, _)| rid)
        .collect();
    for rid in victims.iter().take(victims.len() * 3 / 5) {
        db.delete("events", *rid).unwrap();
    }
    let pages_before = db.table("events").unwrap().num_pages();
    let (drained, moved) = db.vacuum("events", 0.7).unwrap();
    println!(
        "\n-- vacuum: drained {drained} sparse pages, relocated {moved} tuples \
         (of {pages_before} pages) --"
    );
    assert!(drained > 0);

    // Everything still answers correctly after the relocations.
    let (r, _) = db
        .execute(&Query::on("events", "kind").eq(301i64))
        .unwrap()
        .into_parts();
    let expected = db
        .table("events")
        .unwrap()
        .scan_all()
        .unwrap()
        .iter()
        .filter(|(_, t)| t.get(0).unwrap().as_int() == Some(301))
        .count();
    assert_eq!(r.count(), expected);
    println!("kind=301 still returns {expected} rows after vacuum — Table I held up.");
}
