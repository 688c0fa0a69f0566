//! Quickstart: create a table, a partial index with an Adaptive Index
//! Buffer, and watch queries that miss the index get cheap.
//!
//! Run with `cargo run --release --example quickstart`.

use aib_core::BufferConfig;
use aib_engine::{AccessPath, Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, Schema, Tuple, Value};

fn main() {
    // A small buffer pool relative to the table, so table scans actually
    // pay simulated disk I/O (as a big table would).
    let db = Database::new(EngineConfig {
        pool_frames: 64,
        ..Default::default()
    });

    // A table of orders: id, amount, and a payload column.
    db.create_table(
        "orders",
        Schema::new(vec![
            Column::int("id"),
            Column::int("amount"),
            Column::str("note"),
        ]),
    )
    .unwrap();
    for i in 0..50_000i64 {
        let amount = (i * 7919) % 10_000; // pseudo-random amounts 0..10000
        db.insert(
            "orders",
            &Tuple::new(vec![
                Value::Int(i),
                Value::Int(amount),
                Value::from(format!("order #{i}")),
            ]),
        )
        .expect("insert");
    }

    // A partial index on `amount` covering only small amounts (the
    // frequently queried range), plus an Adaptive Index Buffer that will
    // back queries outside that range.
    db.create_partial_index(
        "orders",
        "amount",
        Coverage::IntRange { lo: 0, hi: 999 },
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .expect("index creation");

    // A covered query hits the partial index.
    let (r, m) = db
        .execute(&Query::on("orders", "amount").eq(500i64))
        .unwrap()
        .into_parts();
    println!(
        "amount=500: {:?}, {} rows, {} simulated µs",
        r.path,
        r.count(),
        m.simulated_us()
    );
    assert_eq!(r.path, AccessPath::PartialIndex);

    // An uncovered query scans — and builds the Index Buffer as it goes.
    let (r, m) = db
        .execute(&Query::on("orders", "amount").eq(5_000i64))
        .unwrap()
        .into_parts();
    let scan = m.scan.as_ref().unwrap();
    println!(
        "amount=5000 (1st): {:?}, {} rows, {} simulated µs, {} pages read, {} pages newly indexed",
        r.path,
        r.count(),
        m.simulated_us(),
        scan.pages_read,
        scan.pages_indexed
    );

    // The second uncovered query skips every completed page.
    let (r, m) = db
        .execute(&Query::on("orders", "amount").eq(7_777i64))
        .unwrap()
        .into_parts();
    let scan = m.scan.as_ref().unwrap();
    println!(
        "amount=7777 (2nd): {:?}, {} rows, {} simulated µs, {} pages read, {} pages skipped",
        r.path,
        r.count(),
        m.simulated_us(),
        scan.pages_read,
        scan.pages_skipped
    );
    assert!(
        scan.pages_skipped > 0,
        "the Index Buffer made pages skippable"
    );

    println!(
        "\nIndex Buffer now holds {} entries across {} partitions",
        db.space().buffer(0).num_entries(),
        db.space().buffer(0).num_partitions()
    );
}
