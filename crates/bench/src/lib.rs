//! Shared harness code for the figure-regeneration benches.
//!
//! Every bench target in this crate regenerates one table or figure of the
//! paper's evaluation. Benches run at the paper's full scale (500,000
//! tuples) by default; set `AIB_ROWS` to a smaller row count for quick
//! runs — the workload scales proportionally (see
//! [`aib_workload::TableSpec::scaled`]).

// aib-lint: allow-file(no-panic) — this crate is the bench driver, not
// engine code: setup failures (insert, index creation, query execution)
// must abort the run loudly rather than skew measured results.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Instant;

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{AccessPath, Database, EngineConfig, Query, TunerConfig, WorkloadRecorder};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Schema, Tuple, Value};
use aib_workload::{fig1_queries, QuerySpec, TableSpec, FIG1_HIGH};

/// Name of the evaluation table in every experiment.
pub const TABLE: &str = "eval";

/// Resolves the experiment scale: the paper's 500 k rows, or `AIB_ROWS`.
pub fn table_spec() -> TableSpec {
    match std::env::var("AIB_ROWS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(rows) if rows < 500_000 => TableSpec::scaled(rows, 0xDA7A),
        _ => TableSpec::paper(),
    }
}

/// Default engine configuration for the experiments: a buffer pool sized to
/// ~1/18th of the table (8 MiB at paper scale), so table scans are
/// disk-bound — like the paper's 220 MB table against H2's page cache —
/// and the default SSD cost model. The ratio is preserved under `AIB_ROWS`
/// down-scaling so small runs show the same shapes.
pub fn engine_config_for(spec: &TableSpec, space: SpaceConfig) -> EngineConfig {
    // ~28 tuples per 8 KiB page at the paper's 1..512 payload.
    let approx_pages = (spec.rows / 28).max(1);
    EngineConfig {
        pool_frames: (approx_pages / 18).clamp(64, 1024) as usize,
        cost_model: CostModel::default(),
        space,
        ..Default::default()
    }
}

/// Builds the evaluation database: the paper's table with partial indexes
/// on the given columns covering the bottom 10 % of the domain, each with
/// an Index Buffer configured as `buffer`.
pub fn build_eval_db(
    spec: &TableSpec,
    engine: EngineConfig,
    buffer: Option<BufferConfig>,
    columns: &[&str],
) -> Database {
    let db = Database::new(engine);
    db.create_table(TABLE, spec.schema()).unwrap();
    for tuple in spec.tuples() {
        db.insert(TABLE, &tuple)
            .expect("generated tuples insert cleanly");
    }
    let (lo, hi) = spec.covered_range();
    for col in columns {
        db.create_partial_index(
            TABLE,
            col,
            Coverage::IntRange { lo, hi },
            IndexBackend::BTree,
            buffer,
        )
        .expect("index creation succeeds");
    }
    db
}

/// Runs a query stream, recording per-query metrics.
pub fn run_workload(db: &mut Database, queries: &[QuerySpec]) -> WorkloadRecorder {
    let mut recorder = WorkloadRecorder::new();
    for q in queries {
        recorder.record(
            &db.execute(&Query::point(TABLE, &q.column, q.value))
                .expect("experiment queries execute"),
        );
    }
    recorder
}

/// Prints a section header in harness output.
pub fn header(title: &str, detail: &str) {
    println!("\n=== {title} ===");
    if !detail.is_empty() {
        println!("{detail}");
    }
}

/// Times a closure, printing the elapsed wall time to stderr.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("[{label}: {:.1?}]", start.elapsed());
    out
}

/// Scales a paper-scale parameter (defined against 500,000 rows)
/// proportionally to the active table size, so `AIB_ROWS` runs keep the
/// same parameter-to-table ratios.
pub fn scale(spec: &TableSpec, paper_value: u64) -> u64 {
    ((paper_value as u128 * spec.rows as u128) / 500_000).max(1) as u64
}

/// Provenance stamp embedded in every `BENCH_*.json` the harness writes:
/// the git revision the numbers were measured at (`+dirty` when the working
/// tree differs from it), the UTC wall time of the run, the compiler, and
/// the bench-harness crate version. Rendered as a JSON object value, for a
/// top-level `"provenance": {...}` field (the writers that time threads or
/// a file system put `host_cpus` beside it).
///
/// Numbers without provenance go stale silently — a committed JSON that
/// predates a perf-relevant change looks exactly like one that postdates
/// it. The stamp makes "were these measured on this code, on what?" a
/// one-line `git log` question.
pub fn provenance_json() -> String {
    format!(
        "{{ \"git_rev\": \"{}\", \"generated_utc\": \"{}\", \"rustc\": \"{}\", \"harness_version\": \"{}\" }}",
        git_revision(),
        utc_timestamp(),
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        env!("CARGO_PKG_VERSION")
    )
}

/// The trimmed, non-empty standard output of a command that succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|line| line.trim().to_string())
        .filter(|line| !line.is_empty())
}

/// `git rev-parse HEAD` of the working tree, `"unknown"` when git is
/// unavailable (e.g. a source tarball).
fn git_revision() -> String {
    let Some(rev) = command_line("git", &["rev-parse", "HEAD"]) else {
        return "unknown".to_string();
    };
    match command_line("git", &["status", "--porcelain", "--untracked-files=no"]) {
        Some(_) => format!("{rev}+dirty"),
        None => rev,
    }
}

/// Current UTC time as ISO-8601 (`2026-08-08T12:34:56Z`), derived from the
/// unix clock with civil-calendar math — the toolchain image carries no
/// date-time crate, and the stamp only needs second resolution.
fn utc_timestamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, tod) = (secs / 86_400, secs % 86_400);
    // Howard Hinnant's civil_from_days, valid for any unix day.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        tod / 3_600,
        (tod % 3_600) / 60,
        tod % 60
    )
}

/// Mean simulated query cost over records `[lo, hi)`.
pub fn mean_sim_us(rec: &WorkloadRecorder, lo: usize, hi: usize) -> f64 {
    let r = rec.records().get(lo..hi.min(rec.len())).unwrap_or_default();
    if r.is_empty() {
        return 0.0;
    }
    r.iter().map(|m| m.simulated_us()).sum::<u64>() as f64 / r.len() as f64
}

/// The online tuner of Fig. 1: threshold 6, LRU over 15 values, and a
/// 60-query window where the paper says 20 (see
/// [`aib_workload::fig1_queries`] for why).
pub const FIG1_TUNER: TunerConfig = TunerConfig {
    window: 60,
    threshold: 6,
    capacity: 15,
};

/// One arm of Fig. 1 on the engine: the stream of
/// [`aib_workload::fig1_queries`] through a tuned partial index.
#[derive(Debug)]
pub struct Fig1Run {
    /// Per-query metrics. A hit is [`AccessPath::PartialIndex`], so
    /// [`WorkloadRecorder::hit_rate`] is Fig. 1's hit-rate series.
    pub recorder: WorkloadRecorder,
    /// The tuner's indexed band after each query: its lowest and highest
    /// value (`None` while empty) and its number of values.
    pub indexed: Vec<(Option<(i64, i64)>, usize)>,
}

impl Fig1Run {
    /// Whether query `seq` was served by the partial index.
    pub fn hit(&self, seq: usize) -> bool {
        self.recorder
            .records()
            .get(seq)
            .is_some_and(|m| m.path == AccessPath::PartialIndex)
    }

    /// Pages read by queries `[from, to)`.
    pub fn pages_read(&self, from: usize, to: usize) -> u64 {
        self.recorder
            .records()
            .get(from..to)
            .unwrap_or_default()
            .iter()
            .map(|m| m.io.page_reads)
            .sum()
    }

    /// First query from which the hit rate over the next `window` queries
    /// stays at or above `level` and the upper end of the indexed band has
    /// reached the post-shift range — when the tuner has re-adapted. (A few
    /// stale pre-shift values may linger under LRU, as in the paper's
    /// figure, so full containment is not required.)
    pub fn adapted_after(&self, level: f64, window: usize) -> Option<usize> {
        let candidates = self.indexed.len().saturating_sub(window);
        self.indexed
            .iter()
            .take(candidates)
            .enumerate()
            .find(|&(q, (band, _))| {
                band.is_some_and(|(_, hi)| hi >= FIG1_HIGH.0)
                    && self.recorder.hit_rate(q, q + window) >= level
            })
            .map(|(q, _)| q)
    }
}

/// Runs Fig. 1 on the engine: a 40 000-row table `(k, pad)` with keys
/// `(i · 2654435761 mod 2000) + 1` (about 20 rows each, so a hit is far
/// cheaper than a scan) and a 120-byte pad, a 96-frame pool, and a partial
/// index on `k` of empty coverage that [`FIG1_TUNER`] adapts. With
/// `with_buffer`, an Index Buffer backs the index.
pub fn fig1_run(with_buffer: bool) -> Fig1Run {
    let db = Database::new(EngineConfig {
        pool_frames: 96,
        ..Default::default()
    });
    db.create_table(
        TABLE,
        Schema::new(vec![Column::int("k"), Column::str("pad")]),
    )
    .unwrap();
    for i in 0..40_000 {
        let k = (i * 2_654_435_761 % 2_000) + 1;
        db.insert(
            TABLE,
            &Tuple::new(vec![Value::Int(k), Value::from("#".repeat(120))]),
        )
        .unwrap();
    }
    db.create_partial_index(
        TABLE,
        "k",
        Coverage::empty_set(),
        IndexBackend::BTree,
        with_buffer.then(BufferConfig::default),
    )
    .unwrap();
    db.attach_tuner(TABLE, "k", FIG1_TUNER).unwrap();

    let int = |v: Option<&Value>| v.and_then(Value::as_int);
    let mut recorder = WorkloadRecorder::new();
    let mut indexed = Vec::new();
    for value in fig1_queries() {
        recorder.record(&db.execute(&Query::point(TABLE, "k", value)).unwrap());
        // Sorted, so the band runs from the first value to the last.
        let band = db.tuned_values(TABLE, "k").unwrap_or_default();
        indexed.push((int(band.first()).zip(int(band.last())), band.len()));
    }
    Fig1Run { recorder, indexed }
}
