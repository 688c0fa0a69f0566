//! Figure 7 — Experiment 2: the influence of `I^MAX` (indexing
//! aggressiveness) and of the Index Buffer Space bound `L`.
//!
//! Paper setup: same as experiment 1 (single buffer, queries on A), varying
//! `I^MAX` and `L`. Expected shape:
//!
//! * higher `I^MAX` → more pages indexed per scan → query times drop faster
//!   within the first ~15 queries;
//! * smaller `L` → fewer entries fit → fewer pages skippable → a higher
//!   floor on query times.

use aib_bench::{
    build_eval_db, engine_config_for, header, mean_sim_us, run_workload, scale, table_spec, timed,
};
use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::WorkloadRecorder;
use aib_storage::DEFAULT_ENTRY_FOOTPRINT;
use aib_workload::{experiment1_queries, PAPER_QUERIES};

fn main() {
    let spec = table_spec();
    let queries = experiment1_queries(&spec, PAPER_QUERIES, 72);

    header(
        "Figure 7: single Index Buffer, varying I^MAX and space bound L",
        &format!(
            "rows={} queries={} (paper-scale parameters scaled by rows/500k)",
            spec.rows,
            queries.len()
        ),
    );

    // Part 1: vary I^MAX with unlimited space.
    let imax_values: Vec<u32> = [500u64, 1_000, 5_000, 10_000]
        .iter()
        .map(|&v| scale(&spec, v) as u32)
        .collect();
    let mut imax_runs: Vec<(u32, WorkloadRecorder)> = Vec::new();
    for &i_max in &imax_values {
        let space = SpaceConfig {
            max_bytes: None,
            i_max,
            seed: 7,
        };
        let mut db = timed(&format!("populate (I_MAX={i_max})"), || {
            build_eval_db(
                &spec,
                engine_config_for(&spec, space),
                Some(BufferConfig::default()),
                &["A"],
            )
        });
        let rec = timed(&format!("run (I_MAX={i_max})"), || {
            run_workload(&mut db, &queries)
        });
        imax_runs.push((i_max, rec));
    }

    println!("# part 1: varying I^MAX, unlimited space");
    print!("query");
    for (i_max, _) in &imax_runs {
        print!(",sim_us_imax_{i_max},skipped_imax_{i_max}");
    }
    println!();
    for q in 0..queries.len() {
        print!("{q}");
        for (_, rec) in &imax_runs {
            let r = &rec.records()[q];
            print!(",{},{}", r.simulated_us(), r.pages_skipped());
        }
        println!();
    }

    // Part 2: vary the space bound L with the paper's I^MAX = 5,000.
    let i_max = scale(&spec, 5_000) as u32;
    let l_values: Vec<Option<usize>> = vec![
        Some(scale(&spec, 100_000) as usize),
        Some(scale(&spec, 200_000) as usize),
        Some(scale(&spec, 450_000) as usize),
        None,
    ];
    let mut l_runs: Vec<(String, WorkloadRecorder)> = Vec::new();
    for &l_entries in &l_values {
        let label = l_entries.map_or("inf".to_owned(), |l| l.to_string());
        let space = SpaceConfig {
            max_bytes: l_entries.map(|l| l * DEFAULT_ENTRY_FOOTPRINT),
            i_max,
            seed: 7,
        };
        let mut db = timed(&format!("populate (L={label})"), || {
            build_eval_db(
                &spec,
                engine_config_for(&spec, space),
                Some(BufferConfig::default()),
                &["A"],
            )
        });
        let rec = timed(&format!("run (L={label})"), || {
            run_workload(&mut db, &queries)
        });
        l_runs.push((label, rec));
    }

    println!("\n# part 2: varying space bound L, I^MAX={i_max}");
    print!("query");
    for (label, _) in &l_runs {
        print!(",sim_us_L_{label},entries_L_{label}");
    }
    println!();
    for q in 0..queries.len() {
        print!("{q}");
        for (_, rec) in &l_runs {
            let r = &rec.records()[q];
            print!(
                ",{},{}",
                r.simulated_us(),
                r.buffer_entries.first().copied().unwrap_or(0)
            );
        }
        println!();
    }

    // Shape summary.
    println!();
    let early = |rec: &WorkloadRecorder| mean_sim_us(rec, 2, 15);
    println!(
        "# shape: early mean sim_us by I^MAX {:?} = {:?} (paper: higher I^MAX drops faster)",
        imax_values,
        imax_runs
            .iter()
            .map(|(_, r)| early(r).round())
            .collect::<Vec<_>>()
    );
    let floor = |rec: &WorkloadRecorder| mean_sim_us(rec, 100, 200);
    println!(
        "# shape: steady-state mean sim_us by L {:?} = {:?} (paper: smaller L -> higher floor)",
        l_runs.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>(),
        l_runs
            .iter()
            .map(|(_, r)| floor(r).round())
            .collect::<Vec<_>>()
    );
}
