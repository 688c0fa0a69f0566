//! The paper's motivating example (Figures 2 and 4): a flight on-time
//! database whose airport column is partially indexed for U.S. airports.
//! A report provider suddenly starts selling reports about German airports
//! — queries for `FRA` cannot use the partial index and degrade to table
//! scans until the Index Buffer steps in.
//!
//! Run with `cargo run --release --example flight_reports`.

use aib_core::BufferConfig;
use aib_engine::{AccessPath, Database, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, Schema, Tuple, Value};
use std::collections::BTreeSet;

const US_AIRPORTS: &[&str] = &["ORD", "JFK", "LAX", "ATL", "DFW", "DEN", "SFO", "SEA"];
const INTL_AIRPORTS: &[&str] = &["FRA", "HEL", "LHR", "CDG", "NRT", "SYD", "GRU", "DXB"];

fn main() {
    // A pool smaller than the flights table, so scans are disk-bound.
    let mut db = Database::new(aib_engine::EngineConfig {
        pool_frames: 64,
        ..Default::default()
    });
    db.create_table(
        "flights",
        Schema::new(vec![
            Column::int("flight_id"),
            Column::str("airport"),
            Column::int("delay_minutes"),
            Column::str("details"),
        ]),
    )
    .unwrap();

    // Mostly U.S. flights (the customer base), some international.
    let mut n = 0i64;
    for round in 0..4_000 {
        for (i, &ap) in US_AIRPORTS.iter().enumerate() {
            if (round + i) % 2 == 0 {
                insert_flight(&mut db, &mut n, ap, round);
            }
        }
        for (i, &ap) in INTL_AIRPORTS.iter().enumerate() {
            if (round + i) % 8 == 0 {
                insert_flight(&mut db, &mut n, ap, round);
            }
        }
    }
    println!("loaded {n} flights");

    // Partial index on airport covering U.S. airports only (Fig. 2).
    let coverage = Coverage::Set(
        US_AIRPORTS
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

    // U.S. report: the partial index answers it.
    let (r, m) = db
        .execute(&Query::on("flights", "airport").eq("ORD"))
        .unwrap()
        .into_parts();
    println!(
        "ORD report: {:?}, {} flights, {} simulated µs",
        r.path,
        r.count(),
        m.simulated_us()
    );
    assert_eq!(r.path, AccessPath::PartialIndex);

    // First German report: full scan — but the Index Buffer indexes the
    // remaining unindexed tuples of the pages it passes (Fig. 4).
    let (r, m) = db
        .execute(&Query::on("flights", "airport").eq("FRA"))
        .unwrap()
        .into_parts();
    let s = m.scan.as_ref().unwrap().clone();
    println!(
        "FRA report (1st): {:?}, {} flights, {} simulated µs, {} pages read",
        r.path,
        r.count(),
        m.simulated_us(),
        s.pages_read
    );
    let first_cost = m.simulated_us();

    // Subsequent international reports skip the completed pages.
    for ap in ["FRA", "HEL", "CDG"] {
        let (r, m) = db
            .execute(&Query::on("flights", "airport").eq(ap))
            .unwrap()
            .into_parts();
        let s = m.scan.as_ref().unwrap();
        println!(
            "{ap} report: {:?}, {} flights, {} simulated µs, {} pages skipped of {}",
            r.path,
            r.count(),
            m.simulated_us(),
            s.pages_skipped,
            s.pages_skipped + s.pages_read
        );
        assert!(
            m.simulated_us() <= first_cost,
            "buffered scans never cost more than the cold scan"
        );
    }

    println!(
        "\nIndex Buffer: {} entries covering {} pages — the German reports now run at index speed",
        db.space().buffer(0).num_entries(),
        db.space().buffer(0).num_buffered_pages()
    );
}

fn insert_flight(db: &mut Database, n: &mut i64, airport: &str, round: usize) {
    *n += 1;
    let delay = ((*n * 31 + round as i64) % 180) - 30;
    db.insert(
        "flights",
        &Tuple::new(vec![
            Value::Int(*n),
            Value::from(airport),
            Value::Int(delay),
            Value::from(format!("flight {n} via {airport}, round {round}")),
        ]),
    )
    .expect("insert flight");
}
