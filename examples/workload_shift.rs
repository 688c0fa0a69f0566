//! Workload shift across columns: three Index Buffers competing for a
//! bounded Index Buffer Space (the scenario of the paper's experiment 3,
//! at a reduced scale).
//!
//! Run with `cargo run --release --example workload_shift`.

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{CostModel, DEFAULT_ENTRY_FOOTPRINT};
use aib_workload::{experiment3_queries, TableSpec, SWITCH_AT};

fn main() {
    let spec = TableSpec::scaled(60_000, 1);
    let db = Database::new(EngineConfig {
        pool_frames: 128,
        cost_model: CostModel::default(),
        space: SpaceConfig {
            // Bounded space: enough for ~1.7 of the 3 columns' uncovered
            // tuples, so the buffers must compete.
            max_bytes: Some((spec.rows as f64 * 1.6) as usize * DEFAULT_ENTRY_FOOTPRINT),
            i_max: (spec.rows / 100) as u32,
            seed: 5,
        },
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
            Some(BufferConfig {
                partition_pages: (spec.rows / 50) as u32,
                ..Default::default()
            }),
        )
        .unwrap();
    }

    println!("mix A:B:C = 1/2:1/3:1/6, flipping to 1/6:1/3:1/2 at query {SWITCH_AT}");
    println!("query  column  entries(A)  entries(B)  entries(C)");
    let queries = experiment3_queries(&spec, 200, 42);
    for (i, q) in queries.iter().enumerate() {
        let (_, m) = db
            .execute(&Query::on("eval", &q.column).eq(q.value))
            .unwrap()
            .into_parts();
        if i % 10 == 9 || i + 1 == queries.len() {
            println!(
                "{:>5}  {:^6}  {:>10}  {:>10}  {:>10}",
                i, q.column, m.buffer_entries[0], m.buffer_entries[1], m.buffer_entries[2]
            );
        }
    }

    let final_entries: Vec<usize> = (0..3).map(|b| db.space().buffer(b).num_entries()).collect();
    println!(
        "\nAfter the flip, the space manager displaced A's partitions in favour of C: {final_entries:?}"
    );
    assert!(
        final_entries[2] > final_entries[0],
        "C must out-occupy A after the shift"
    );
}
