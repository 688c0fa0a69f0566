//! Figure 1 — the control-loop delay of adaptive partial indexing, on the
//! engine, with and without an Index Buffer.
//!
//! Paper setup: a single integer column; 500 queries; the queried focus
//! shifts from values <15 to values >15 between queries 200 and 300; the
//! tuner indexes a value queried ≥6 times in the monitoring window and
//! evicts LRU. Plotted: queried value range, indexed value range, and the
//! partial-index hit rate — the indexed range follows the queried range
//! only after a delay of roughly 100–200 queries, during which the hit rate
//! collapses. The last two columns are the pages each query read, tuner
//! only and tuner plus buffer: the gap the buffer bridges.
//!
//! (Deviation: the monitoring window is 60 queries instead of the paper's
//! 20 — the stated 6-in-20 threshold is unreachable under any
//! near-uniform draw over a 15-value range; see
//! `aib_workload::fig1_queries`.)

use aib_bench::{fig1_run, header, FIG1_TUNER};
use aib_workload::{fig1_queried_range, fig1_queries, FIG1_QUERIES, FIG1_SHIFT};

fn main() {
    header(
        "Figure 1: control-loop delay in adaptive partial indexing",
        &format!(
            "queries={FIG1_QUERIES} shift={FIG1_SHIFT:?} window={} threshold={} capacity={}",
            FIG1_TUNER.window, FIG1_TUNER.threshold, FIG1_TUNER.capacity
        ),
    );

    let tuner = fig1_run(false);
    let buffer = fig1_run(true);
    println!(
        "query,value,queried_lo,queried_hi,indexed_lo,indexed_hi,indexed_count,hit,hit_rate_50,pages_read_tuner,pages_read_buffer"
    );
    for (seq, value) in fig1_queries().into_iter().enumerate() {
        let (band, count) = tuner.indexed[seq];
        let (ilo, ihi) = band.unwrap_or((0, 0));
        let (qlo, qhi) = fig1_queried_range(seq);
        println!(
            "{seq},{value},{qlo},{qhi},{ilo},{ihi},{count},{},{:.2},{},{}",
            u8::from(tuner.hit(seq)),
            tuner.recorder.hit_rate(seq.saturating_sub(49), seq + 1),
            tuner.pages_read(seq, seq + 1),
            buffer.pages_read(seq, seq + 1),
        );
    }

    // Shape summary against the paper's claims.
    let rate = |from, to| tuner.recorder.hit_rate(from, to);
    let (warm, during, late) = (rate(100, 200), rate(250, 320), rate(430, 500));
    println!("\n# shape: hit rate before shift = {warm:.2} (paper: high, index adapted)");
    println!("# shape: hit rate during adaptation = {during:.2} (paper: drops significantly)");
    println!("# shape: hit rate after re-adaptation = {late:.2} (paper: recovers)");
    match tuner.adapted_after(0.7, 50) {
        Some(q) => println!(
            "# shape: re-adaptation complete around query {q} -> control loop delay ≈ {} queries (paper: ~200)",
            q.saturating_sub(FIG1_SHIFT.0)
        ),
        None => println!("# shape: tuner did not re-adapt within the run"),
    }
    let (s0, s1) = FIG1_SHIFT;
    let (plain, buffered) = (tuner.pages_read(s0, s1), buffer.pages_read(s0, s1));
    println!(
        "# shape: pages read over queries {s0}..{s1}: tuner {plain}, tuner+buffer {buffered} ({:.1}x fewer; paper: the buffer bridges the delay)",
        plain as f64 / buffered.max(1) as f64
    );
}
