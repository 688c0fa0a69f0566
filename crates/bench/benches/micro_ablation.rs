//! Ablation study over the design choices the paper leaves open
//! (DESIGN.md §6): partition size `P` and LRU-K depth `K`.
//!
//! Each configuration runs the experiment-3 workload (three competing
//! buffers, bounded space, shifting mix) at a reduced scale and reports the
//! total simulated I/O and how the space ended up distributed.

use aib_bench::{build_eval_db, engine_config_for, header, run_workload, timed};
use aib_core::{BufferConfig, SpaceConfig};
use aib_storage::DEFAULT_ENTRY_FOOTPRINT;
use aib_workload::{experiment3_queries, TableSpec, PAPER_QUERIES};

fn run_config(spec: &TableSpec, buffer: BufferConfig, label: &str) {
    let space = SpaceConfig {
        max_bytes: Some((spec.rows as f64 * 1.6) as usize * DEFAULT_ENTRY_FOOTPRINT),
        i_max: (spec.rows / 100).max(1) as u32,
        seed: 11,
    };
    let queries = experiment3_queries(spec, PAPER_QUERIES, 12);
    let mut db = timed(&format!("populate [{label}]"), || {
        build_eval_db(
            spec,
            engine_config_for(spec, space),
            Some(buffer),
            &["A", "B", "C"],
        )
    });
    let rec = timed(&format!("run [{label}]"), || {
        run_workload(&mut db, &queries)
    });
    let total_io: u64 = rec.records().iter().map(|r| r.simulated_us()).sum();
    let mean_wall: f64 = rec
        .records()
        .iter()
        .map(|r| r.wall.as_micros() as f64)
        .sum::<f64>()
        / rec.len() as f64;
    let final_entries = &rec.records().last().unwrap().buffer_entries;
    println!("{label},{},{:.0},{:?}", total_io, mean_wall, final_entries);
}

fn main() {
    let spec = match std::env::var("AIB_ROWS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(rows) => TableSpec::scaled(rows, 0xDA7A),
        None => TableSpec::scaled(100_000, 0xDA7A),
    };
    header(
        "Ablation: partition size P, history depth K",
        &format!("experiment-3 workload at rows={}", spec.rows),
    );
    println!("config,total_sim_us,mean_wall_us,final_entries_abc");

    // Partition size P: smaller partitions displace more precisely but
    // fragment the space; larger ones drop more collateral pages.
    for p in [100u32, 1_000, 10_000] {
        run_config(
            &spec,
            BufferConfig {
                partition_pages: p,
                ..Default::default()
            },
            &format!("P={p}"),
        );
    }
    // LRU-K depth.
    for k in [1usize, 2, 4] {
        run_config(
            &spec,
            BufferConfig {
                history_k: k,
                ..Default::default()
            },
            &format!("K={k}"),
        );
    }
}
