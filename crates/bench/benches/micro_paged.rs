//! Modeled vs. real: partial-index I/O as a synthetic charge (DESIGN.md §4
//! substitution) against a genuinely disk-resident paged B+-tree sharing
//! the buffer pool with the table.
//!
//! Validates the substitution: the *shape* of the adaptive-indexing story —
//! index hits cheap, misses expensive, adaptation charged per touched
//! entry — must look the same whichever way the partial index is realised.

use aib_bench::header;
use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{Database, EngineConfig, Query, WorkloadRecorder};
use aib_index::{Coverage, IndexBackend};
use aib_storage::CostModel;
use aib_workload::TableSpec;

const ROWS: u64 = 100_000;

fn build(paged: bool) -> (Database, TableSpec) {
    let spec = TableSpec::scaled(ROWS, 0xDA7A);
    let db = Database::new(EngineConfig {
        pool_frames: 200,
        cost_model: CostModel::default(),
        space: SpaceConfig {
            max_bytes: None,
            i_max: 1_000,
            seed: 3,
        },
        ..Default::default()
    });
    db.create_table("eval", spec.schema()).unwrap();
    for t in spec.tuples() {
        db.insert("eval", &t).unwrap();
    }
    let (lo, hi) = spec.covered_range();
    if paged {
        db.create_paged_partial_index(
            "eval",
            "A",
            Coverage::IntRange { lo, hi },
            Some(BufferConfig::default()),
        )
        .unwrap();
    } else {
        db.create_partial_index(
            "eval",
            "A",
            Coverage::IntRange { lo, hi },
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
    }
    (db, spec)
}

fn run(db: &mut Database, spec: &TableSpec, label: &str) {
    let mut rec = WorkloadRecorder::new();
    let (_, chi) = spec.covered_range();
    // 30 hits, then 30 misses (warming the buffer), then 30 warm misses.
    for i in 0..30i64 {
        rec.record(
            &db.execute(&Query::point("eval", "A", 1 + i * 37 % chi))
                .unwrap(),
        );
    }
    for i in 0..60i64 {
        rec.record(
            &db.execute(&Query::point(
                "eval",
                "A",
                chi + 1 + (i * 911) % (spec.domain - chi),
            ))
            .unwrap(),
        );
    }
    let phase = |lo: usize, hi: usize| {
        let r = &rec.records()[lo..hi];
        r.iter().map(|m| m.simulated_us()).sum::<u64>() as f64 / r.len() as f64
    };
    println!(
        "{label},{:.0},{:.0},{:.0}",
        phase(0, 30),
        phase(30, 32),
        phase(60, 90)
    );
}

fn main() {
    header(
        "Modeled vs. paged partial index (mean simulated µs per phase)",
        "columns: config, index hits, first misses (cold buffer), warm misses",
    );
    println!("config,hit_us,cold_miss_us,warm_miss_us");
    let (mut modeled, spec) = build(false);
    run(&mut modeled, &spec, "modeled");
    let (mut paged, spec) = build(true);
    run(&mut paged, &spec, "paged");
    println!(
        "\n# shape: both configurations must show hits << cold misses and warm misses ≈ 0;\n\
         # the paged config's hit cost is real tree-descent I/O instead of the synthetic 3-page charge."
    );
}
