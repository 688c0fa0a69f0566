//! One run of one workload, untraced (end-to-end metrics) or traced
//! (per-layer metrics).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use aib_engine::{Database, Query};

use crate::json::Json;
use crate::metrics::{unit_of, Values, WindowStats, END_TO_END, PER_LAYER};
use crate::replay::Fixture;
use crate::run::{
    crash_and_reopen, run_interleaved, run_window, setup, Inputs, Live, NoHook, WindowOut,
};
use crate::stats::{median, ratio};
use crate::workload::{stream_hash, Plan, Workload, COLUMNS, PHASE_READS, TABLE};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Scratch directory for databases; removed when the run ends.
    pub work_dir: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// What a run reports.
pub struct Outcome {
    pub plan: Plan,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values (untraced run) or per-layer values (traced run).
    pub values: Values,
    /// Sample counts behind the percentiles, and other sizes worth stating.
    pub samples: Vec<(&'static str, f64)>,
    pub stream_hash: u64,
    /// Median latency of all ops of the window (untraced run) or of the
    /// single-client reference pass (traced run): numerator and denominator
    /// of `engine.contention_x`.
    pub op_p50_us: f64,
    pub notes: Vec<String>,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reopens of the crashed database per untraced run; `restart_s` is their
/// median.
const CRASH_COPIES: usize = 5;

fn discard(live: Live) {
    let dir = live.dir.clone();
    drop(live);
    let _ = std::fs::remove_dir_all(dir);
}

fn plan_and_inputs(opts: &Options) -> (Plan, Inputs) {
    let plan = Plan::new(opts.workload, opts.seed, opts.seconds, opts.quick);
    let inputs = Inputs::generate(&plan);
    (plan, inputs)
}

/// The untraced run: set up (several times), run the measured window with
/// the workload's clients, crash, reopen copies, diff against the model.
pub fn run_untraced(opts: &Options) -> Result<Outcome, String> {
    let (plan, inputs) = plan_and_inputs(opts);
    let setups = if plan.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut base = None;
    let mut live = None;
    for i in 0..setups {
        if let Some(previous) = live.take() {
            discard(previous);
        }
        let dir = opts.work_dir.join(format!("db{i}"));
        let next = setup(
            &plan,
            &inputs.tuples,
            &inputs.streams,
            &dir,
            base.clone(),
            &mut NoHook,
        )?;
        setup_s.push(next.setup_s);
        base = Some(Arc::clone(&next.base));
        live = Some(next);
    }
    let mut live = live.expect("at least one set-up");
    let warmup_ops = live.warmup_ops;

    let window = run_window(
        &mut live,
        &plan,
        &inputs.streams,
        plan.warmup_per_client,
        plan.ops_per_client,
    );
    let stats = WindowStats::new(&window);
    let copies = if plan.quick { 2 } else { CRASH_COPIES };
    let crash = crash_and_reopen(live, &plan, copies, |_| {})?;

    let mem_high_water_mb = window.memory.high_water as f64 / (1 << 20) as f64;
    let value_of = |name: &str| -> f64 {
        match name {
            "setup_s" => median(&setup_s),
            "throughput_ops_s" => stats.throughput_ops_s,
            "read_p50_us" => stats.read_p50_us,
            "read_p95_us" => stats.read_p95_us,
            "write_p50_us" => stats.write_p50_us,
            "write_p95_us" => stats.write_p95_us,
            "shift_penalty_ms" => stats.shift_penalty_ms,
            "shift_recovery_queries" => stats.shift_recovery_queries,
            "restart_s" => median(&crash.restart_s),
            "failed_share" => ratio(stats.failed as f64, stats.ops as f64),
            "lost_acked_writes" => crash.lost_acked_writes as f64,
            "disk_bytes_per_user_byte" => {
                ratio(crash.disk_bytes as f64, crash.live_user_bytes as f64)
            }
            "written_bytes_per_user_byte" => stats.written_bytes_per_user_byte,
            "mem_high_water_mb" => mem_high_water_mb,
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let values = END_TO_END
        .iter()
        .filter(|m| (m.on)(plan.workload))
        .map(|m| (m.name, value_of(m.name)))
        .collect();
    let failed = stats.failed as u64 + crash.lost_acked_writes;
    let mut notes = Vec::new();
    if stats.failed > 0 {
        let kinds: Vec<String> = window
            .recs
            .iter()
            .flatten()
            .filter(|r| !r.ok)
            .take(5)
            .map(|r| format!("{:?} via {:?}", r.kind, r.path))
            .collect();
        notes.push(format!("first failed ops: {}", kinds.join(", ")));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: stats.ops as u64,
        failed,
        values,
        samples: vec![
            ("ops", stats.ops as f64),
            ("reads", stats.reads as f64),
            ("writes", stats.writes as f64),
            ("shifts", stats.shifts as f64),
            ("window_s", window.wall_s),
            ("warmup_ops", warmup_ops as f64),
            ("setups", setups as f64),
            ("crash_copies", copies as f64),
            ("replayed_records", crash.replayed_records as f64),
            (
                "read_top_percentile",
                stats.read_top_percentile.unwrap_or(0.0),
            ),
            (
                "write_top_percentile",
                stats.write_top_percentile.unwrap_or(0.0),
            ),
            ("table_pages", f64::from(window.table_pages)),
        ],
        stream_hash: stream_hash(&inputs.streams),
        op_p50_us: stats.op_p50_us,
        notes,
        plan,
    })
}

/// Ops per client of the traced run's two passes: a quarter of the measured
/// window (whole phases on `shift`), run by one thread.
fn traced_ops(plan: &Plan) -> usize {
    let quarter = (plan.ops_per_client / 4).max(1);
    if plan.workload == Workload::Shift {
        (quarter / PHASE_READS).max(1) * PHASE_READS
    } else {
        quarter
    }
}

fn service_rate(window: &WindowOut) -> f64 {
    let ops = window.recs.iter().map(Vec::len).sum::<usize>();
    let busy_ns: u64 = window.recs.iter().flatten().map(|r| r.lat_ns).sum();
    ratio(ops as f64, busy_ns as f64 / 1e9)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The traced run. Two single-client passes over the same ops from the same
/// starting state: a reference pass with tracing off (counts, latency
/// percentiles, the crash check) and a traced pass with the fixture replay
/// (timings). Their service rates differ by the tracing overhead.
pub fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let (plan, inputs) = plan_and_inputs(opts);
    let n = traced_ops(&plan);
    let from = plan.warmup_per_client;

    // Reference pass, then crash it.
    let mut live = setup(
        &plan,
        &inputs.tuples,
        &inputs.streams,
        &opts.work_dir.join("ref"),
        None,
        &mut NoHook,
    )?;
    let base = Arc::clone(&live.base);
    let reference = run_interleaved(&mut live, &plan, &inputs.streams, from, n, &mut NoHook);
    let stats = WindowStats::new(&reference);
    let cold_query = Query::point(TABLE, COLUMNS[0], plan.domain / 2 + 1);
    let mut first_query_cold_us = 0.0;
    let crash = crash_and_reopen(live, &plan, 1, |db: &Database| {
        let (_, took) = timed(|| db.execute(&cold_query));
        first_query_cold_us = took * 1e6;
    })?;

    // Traced pass: the fixture mirrors set-up's warm-up, then records.
    let mut fixture = Fixture::new(&plan, &inputs.tuples, &opts.work_dir.join("fixture"))?;
    let mut live = setup(
        &plan,
        &inputs.tuples,
        &inputs.streams,
        &opts.work_dir.join("traced"),
        Some(base),
        &mut fixture,
    )?;
    if !fixture.placed_like(&live.base.rids) {
        return Err("the fixture's heap placed the table differently from the engine's".into());
    }
    fixture.recording = true;
    let traced = run_interleaved(&mut live, &plan, &inputs.streams, from, n, &mut fixture);
    fixture.recording = false;
    let traced_failed = traced.recs.iter().flatten().filter(|r| !r.ok).count();
    let times = fixture.layer_times(&plan, &inputs.tuples)?;

    // Checkpoint, close, clean reopen — on the traced engine.
    let (checkpointed, checkpoint_s) = timed(|| live.db.checkpoint());
    checkpointed.map_err(|e| format!("checkpoint: {e}"))?;
    let Live { db, dir, .. } = live;
    Arc::try_unwrap(db)
        .map_err(|_| "a client still holds the database".to_string())?
        .close()
        .map_err(|e| format!("close: {e}"))?;
    let (reopened, open_clean_s) = timed(|| Database::open(&dir, plan.engine_config()));
    drop(reopened.map_err(|e| format!("clean reopen: {e}"))?);
    let _ = std::fs::remove_dir_all(&dir);

    let trace_file = opts
        .out_dir
        .join(format!("trace-{}.json", plan.workload.name()));
    write_file(
        &trace_file,
        &fixture.log.to_json(plan.workload.name()).compact(),
    )?;

    let c = &reference.counters;
    let overhead = 1.0 - ratio(service_rate(&traced), service_rate(&reference));
    let mut values: Values = vec![
        ("workload.ops_attempted", stats.ops as f64),
        // Every op's result goes through the oracle.
        ("workload.verified_share", 1.0),
        ("workload.gen_ns_per_op", stats.gen_ns_per_op),
        (
            "storage.page_reads_per_op",
            ratio(c.io.page_reads as f64, stats.ops as f64),
        ),
        (
            "storage.page_writes_per_write",
            ratio(c.io.page_writes as f64, stats.writes as f64),
        ),
        (
            "storage.pool_hit_rate",
            ratio(
                c.io.buffer_hits as f64,
                (c.io.buffer_hits + c.io.buffer_misses) as f64,
            ),
        ),
        (
            "storage.simulated_io_us_per_op",
            ratio(c.io.simulated_us as f64, stats.ops as f64),
        ),
        (
            "storage.wal_bytes_per_record",
            ratio(stats.wal_bytes as f64, stats.writes as f64),
        ),
        ("storage.disk_bytes", crash.disk_bytes as f64),
        ("index.entries", reference.index_entries as f64),
        ("core.pages_read_per_miss", stats.pages_read_per_miss),
        ("core.skip_share", stats.skip_share),
        (
            "core.pages_indexed_per_shift",
            stats.per_shift(stats.pages_indexed),
        ),
        (
            "core.entries_added_per_shift",
            stats.per_shift(stats.entries_added),
        ),
        ("core.displaced_share", stats.displaced_share),
        (
            "core.partitions_dropped_per_shift",
            stats.per_shift(stats.partitions_dropped),
        ),
        ("core.budget_denials", c.denials as f64),
        ("core.index_bytes", reference.memory.index_bytes as f64),
        ("engine.read_p99_us", stats.read_p99_us),
        ("engine.write_p99_us", stats.write_p99_us),
        ("engine.op_max_ms", stats.op_max_ms),
        ("engine.path_partial_share", stats.path_partial_share),
        ("engine.path_buffered_share", stats.path_buffered_share),
        ("engine.path_plain_share", stats.path_plain_share),
        // One record per acked DML op (`wal_records_written` restarts at
        // every rotation, so the op count is the reliable numerator).
        (
            "engine.records_per_fsync",
            ratio(stats.writes as f64, c.wal_fsyncs as f64),
        ),
        (
            "engine.fsyncs_per_write",
            ratio(c.wal_fsyncs as f64, stats.writes as f64),
        ),
        ("engine.checkpoint_ms", checkpoint_s * 1e3),
        ("engine.open_clean_ms", open_clean_s * 1e3),
        (
            "engine.open_crash_ms",
            crash.restart_s.first().copied().unwrap_or(0.0) * 1e3,
        ),
        ("engine.replayed_records", crash.replayed_records as f64),
        ("engine.first_query_cold_us", first_query_cold_us),
        ("engine.trace_overhead_share", overhead),
    ];
    values.extend(times);
    // Registry order, and a loud failure if a metric was left undefined.
    let values: Values = PER_LAYER
        .iter()
        .map(|m| {
            let value = crate::metrics::get(&values, m.name);
            (
                m.name,
                value.unwrap_or_else(|| {
                    unreachable!("per-layer metric {} has no definition", m.name)
                }),
            )
        })
        .collect();

    let mut notes = Vec::new();
    if let Some(what) = &fixture.first_mismatch {
        notes.push(format!("first replay mismatch: {what}"));
    }
    if fixture.displaced_scans() > 0 {
        notes.push(format!(
            "{} sampled scans were not replayed: the engine displaced partitions before planning them",
            fixture.displaced_scans()
        ));
    }
    let layers = fixture.log.by_layer();
    let self_ms: Vec<String> = layers
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1} ms", *ns as f64 / 1e6))
        .collect();
    notes.push(format!(
        "layer self times of the traced pass: {}",
        self_ms.join(", ")
    ));
    notes.push(format!("trace written to {}", trace_file.display()));
    let mismatches = fixture.mismatches;
    fixture.cleanup();

    let failed = stats.failed as u64 + traced_failed as u64 + crash.lost_acked_writes + mismatches;
    Ok(Outcome {
        correct: failed == 0,
        attempted: (stats.ops + traced.recs.iter().map(Vec::len).sum::<usize>()) as u64,
        failed,
        values,
        samples: vec![
            ("ops", stats.ops as f64),
            ("reads", stats.reads as f64),
            ("writes", stats.writes as f64),
            ("shifts", stats.shifts as f64),
            (
                "read_top_percentile",
                stats.read_top_percentile.unwrap_or(0.0),
            ),
            (
                "write_top_percentile",
                stats.write_top_percentile.unwrap_or(0.0),
            ),
        ],
        stream_hash: stream_hash(&inputs.streams),
        op_p50_us: stats.op_p50_us,
        notes,
        plan,
    })
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `{name: {"value": v, "unit": u}}` in the order given.
pub fn metrics_json(values: &Values) -> Json {
    Json::obj(values.iter().map(|(name, value)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    }))
}
