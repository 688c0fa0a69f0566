//! Figure 8 — Experiment 3: three Index Buffers competing for bounded
//! space under a shifting query mix.
//!
//! Paper setup: 200 queries over columns A, B, C with mix 1/2:1/3:1/6
//! flipping to 1/6:1/3:1/2 at query 100; `L = 800,000` entries,
//! `I^MAX = 5,000`, `P = 10,000`.
//!
//! Expected shape: in the first period A's buffer holds more than half the
//! space and B most of the rest; after the flip, C rapidly grows to roughly
//! 55 % of the space and A practically shrinks to zero.

use aib_bench::{build_eval_db, engine_config_for, header, run_workload, scale, table_spec, timed};
use aib_core::{BufferConfig, SpaceConfig};
use aib_storage::DEFAULT_ENTRY_FOOTPRINT;
use aib_workload::{experiment3_queries, PAPER_QUERIES, SWITCH_AT};

fn main() {
    let spec = table_spec();
    let queries = experiment3_queries(&spec, PAPER_QUERIES, 83);
    let l = scale(&spec, 800_000) as usize;
    let i_max = scale(&spec, 5_000) as u32;
    let p = scale(&spec, 10_000) as u32;

    header(
        "Figure 8: three Index Buffers with limited space, shifting mix",
        &format!(
            "rows={} L={} I_MAX={} P={} mix A:B:C = 1/2:1/3:1/6 -> 1/6:1/3:1/2 at {}",
            spec.rows, l, i_max, p, SWITCH_AT
        ),
    );

    // The paper does not state its LRU-K depth; deeper histories give
    // stabler interval estimates (see EXPERIMENTS.md). Override with AIB_K.
    let k = std::env::var("AIB_K")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let space = SpaceConfig {
        max_bytes: Some(l * DEFAULT_ENTRY_FOOTPRINT),
        i_max,
        seed: 8,
    };
    let buffer = BufferConfig {
        partition_pages: p,
        history_k: k,
    };
    let mut db = timed("populate db (3 indexed columns)", || {
        build_eval_db(
            &spec,
            engine_config_for(&spec, space),
            Some(buffer),
            &["A", "B", "C"],
        )
    });
    let recorder = timed("run workload", || run_workload(&mut db, &queries));

    println!("query,column,entries_A,entries_B,entries_C,total");
    for (i, (r, q)) in recorder.records().iter().zip(&queries).enumerate() {
        let e = &r.buffer_entries;
        println!(
            "{},{},{},{},{},{}",
            i,
            q.column,
            e[0],
            e[1],
            e[2],
            e.iter().sum::<usize>()
        );
    }

    // Shape summary.
    let at = |i: usize| &recorder.records()[i.min(recorder.len() - 1)].buffer_entries;
    let p1 = at(SWITCH_AT - 1);
    let p2 = at(recorder.len() - 1);
    let share = |e: &Vec<usize>, i: usize| e[i] as f64 / l as f64;
    println!("\n# shape: end of period 1: A={:.0}% B={:.0}% C={:.0}% of L (paper: A >50%, B most of the rest, C sporadic)",
        100.0 * share(p1, 0), 100.0 * share(p1, 1), 100.0 * share(p1, 2));
    println!(
        "# shape: end of period 2: A={:.0}% B={:.0}% C={:.0}% of L (paper: C ~55%, A ~0%)",
        100.0 * share(p2, 0),
        100.0 * share(p2, 1),
        100.0 * share(p2, 2)
    );
}
