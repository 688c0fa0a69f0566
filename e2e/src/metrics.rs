//! The metric registry — every name the benchmark prints, with unit,
//! direction and bound — and the arithmetic that turns a window's op
//! records and counters into values.

use aib_engine::AccessPath;
use aib_storage::PAGE_SIZE;

use crate::run::{starts_phase, OpRec, WindowOut};
use crate::stats::{highest_supported_percentile, mean, median, percentile, ratio, recovery_index};
use crate::workload::{Workload, NO_PHASE, PHASE_READS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may move before `compare` objects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// May worsen by this share of the baseline.
    Share(f64),
    /// A count that must repeat exactly.
    Exact,
    /// Must be zero in every file.
    Zero,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// The workloads the metric is defined on.
    pub on: fn(Workload) -> bool,
    /// Listed under `end_to_end` in `BENCHMARK.json` and on the contract
    /// line of `run --trace 0`, which takes only metrics that are defined on
    /// every workload and never zero. Of those, the ones whose spread over
    /// ten seeds on the sandbox stays inside their bound (README,
    /// "Validation"); the rest are printed, stored by `all` and judged by
    /// `compare` all the same.
    pub gated: bool,
}

fn everywhere(_: Workload) -> bool {
    true
}

/// Reads come first in a phase only on these.
fn only_shift(w: Workload) -> bool {
    w == Workload::Shift
}

use Better::{Higher, Lower};

/// Bound of every wall-clock metric, as the issue fixes it. A metric whose
/// same-code runs differ by more is measured longer or left ungated; the
/// bound stays.
const TIMING: Bound = Bound::Share(0.10);
/// `setup_s` alone is wider than the issue's 10 %: the builder contract has
/// it carry the largest bound of the gated metrics, and one set-up is a
/// second of load, index build and a checkpoint's `fsync`.
const SETUP: Bound = Bound::Share(0.25);

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: SETUP,
        on: everywhere,
        gated: true,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Higher,
        bound: TIMING,
        on: everywhere,
        gated: false,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Lower,
        bound: TIMING,
        on: Workload::reads,
        gated: false,
    },
    EndToEnd {
        name: "read_p95_us",
        unit: "us",
        better: Lower,
        bound: TIMING,
        on: Workload::reads,
        gated: false,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Lower,
        bound: TIMING,
        on: Workload::writes,
        gated: false,
    },
    EndToEnd {
        name: "write_p95_us",
        unit: "us",
        better: Lower,
        bound: TIMING,
        on: Workload::writes,
        gated: false,
    },
    EndToEnd {
        name: "shift_penalty_ms",
        unit: "ms",
        better: Lower,
        bound: TIMING,
        on: Workload::phased,
        gated: false,
    },
    EndToEnd {
        name: "shift_recovery_queries",
        unit: "count",
        better: Lower,
        bound: Bound::Exact,
        on: only_shift,
        gated: false,
    },
    EndToEnd {
        name: "restart_s",
        unit: "s",
        better: Lower,
        bound: TIMING,
        on: everywhere,
        gated: false,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Lower,
        bound: Bound::Zero,
        on: everywhere,
        gated: false,
    },
    EndToEnd {
        name: "lost_acked_writes",
        unit: "count",
        better: Lower,
        bound: Bound::Zero,
        on: everywhere,
        gated: false,
    },
    EndToEnd {
        name: "disk_bytes_per_user_byte",
        unit: "ratio",
        better: Lower,
        bound: Bound::Share(0.02),
        on: everywhere,
        gated: true,
    },
    EndToEnd {
        name: "written_bytes_per_user_byte",
        unit: "ratio",
        better: Lower,
        bound: Bound::Share(0.05),
        on: Workload::writes,
        gated: false,
    },
    EndToEnd {
        name: "mem_high_water_mb",
        unit: "MiB",
        better: Lower,
        bound: Bound::Share(0.02),
        on: everywhere,
        gated: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric `run --trace 1` prints, on every workload (0 where
/// the workload does not exercise the layer that way). Counts come from the
/// single-client reference pass, timings from the traced pass and its
/// fixture replay.
pub const PER_LAYER: &[PerLayer] = &[
    layer("workload.ops_attempted", "count", Higher),
    layer("workload.verified_share", "ratio", Higher),
    layer("workload.gen_ns_per_op", "ns", Lower),
    layer("storage.page_reads_per_op", "count", Lower),
    layer("storage.page_writes_per_write", "count", Lower),
    layer("storage.pool_hit_rate", "ratio", Higher),
    layer("storage.simulated_io_us_per_op", "us", Lower),
    layer("storage.sweep_ns_per_page", "ns", Lower),
    layer("storage.miss_us_per_page", "us", Lower),
    layer("storage.heap_insert_us", "us", Lower),
    layer("storage.wal_append_sync_us", "us", Lower),
    layer("storage.wal_bytes_per_record", "bytes", Lower),
    layer("storage.file_sync_ms", "ms", Lower),
    layer("storage.disk_bytes", "bytes", Lower),
    layer("index.lookup_ns", "ns", Lower),
    layer("index.entries", "count", Lower),
    layer("index.adapt_add_us", "us", Lower),
    layer("index.maintain_ns", "ns", Lower),
    layer("core.pages_read_per_miss", "count", Lower),
    layer("core.skip_share", "ratio", Higher),
    layer("core.pages_indexed_per_shift", "count", Lower),
    layer("core.entries_added_per_shift", "count", Lower),
    layer("core.displaced_share", "ratio", Lower),
    layer("core.partitions_dropped_per_shift", "count", Lower),
    layer("core.budget_denials", "count", Lower),
    layer("core.index_bytes", "bytes", Lower),
    layer("core.scan_self_ns_per_page", "ns", Lower),
    layer("core.prepare_us", "us", Lower),
    layer("core.buffer_probe_ns", "ns", Lower),
    layer("core.index_page_us", "us", Lower),
    layer("core.maintain_ns", "ns", Lower),
    layer("core.snapshot_build_us", "us", Lower),
    layer("core.snapshot_rebuilds_per_read", "ratio", Lower),
    layer("engine.read_p99_us", "us", Lower),
    layer("engine.write_p99_us", "us", Lower),
    layer("engine.op_max_ms", "ms", Lower),
    layer("engine.path_partial_share", "ratio", Higher),
    layer("engine.path_buffered_share", "ratio", Higher),
    layer("engine.path_plain_share", "ratio", Lower),
    layer("engine.execute_self_us", "us", Lower),
    layer("engine.hit_self_ns", "ns", Lower),
    layer("engine.dml_self_us", "us", Lower),
    layer("engine.commit_wait_us", "us", Lower),
    layer("engine.records_per_fsync", "ratio", Higher),
    layer("engine.fsyncs_per_write", "ratio", Lower),
    layer("engine.checkpoint_ms", "ms", Lower),
    layer("engine.open_clean_ms", "ms", Lower),
    layer("engine.open_crash_ms", "ms", Lower),
    layer("engine.replayed_records", "count", Lower),
    layer("engine.first_query_cold_us", "us", Lower),
    layer("engine.tuner_adds", "count", Lower),
    layer("engine.tuner_evicts", "count", Lower),
    layer("engine.trace_overhead_share", "ratio", Lower),
    layer("trace.self_sum_share", "ratio", Higher),
    layer("trace.replayed_ops", "count", Higher),
    layer("trace.replay_mismatches", "count", Lower),
];

/// The one per-layer metric that needs an untraced *and* a traced run, so
/// that only `all` can compute it (results file; not in `BENCHMARK.json`):
/// the untraced median op latency with the workload's clients side by side
/// over the reference pass's with one.
pub const CONTENTION: PerLayer = layer("engine.contention_x", "ratio", Lower);

/// The unit of a registered metric ("" for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(
            PER_LAYER
                .iter()
                .chain([&CONTENTION])
                .map(|m| (m.name, m.unit)),
        )
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Named values, in registry order.
pub type Values = Vec<(&'static str, f64)>;

pub fn get(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// What a window's records and counters amount to.
pub struct WindowStats {
    pub ops: usize,
    pub failed: usize,
    pub reads: usize,
    pub writes: usize,
    pub throughput_ops_s: f64,
    /// Mean benchmark-side time per op (generator, oracle, bookkeeping):
    /// the part of the window not inside a timed span.
    pub gen_ns_per_op: f64,
    /// Median latency of all ops: the two sides of `engine.contention_x`.
    pub op_p50_us: f64,
    pub op_max_ms: f64,
    pub read_p50_us: f64,
    pub read_p95_us: f64,
    pub read_p99_us: f64,
    pub write_p50_us: f64,
    pub write_p95_us: f64,
    pub write_p99_us: f64,
    /// Highest percentile the read / write sample sizes support.
    pub read_top_percentile: Option<f64>,
    pub write_top_percentile: Option<f64>,
    pub shifts: usize,
    pub shift_penalty_ms: f64,
    pub shift_recovery_queries: f64,
    pub path_partial_share: f64,
    pub path_buffered_share: f64,
    pub path_plain_share: f64,
    pub pages_read_per_miss: f64,
    pub skip_share: f64,
    pub pages_indexed: u64,
    pub entries_added: u64,
    pub partitions_dropped: u64,
    pub displaced_share: f64,
    pub wal_bytes: u64,
    pub written_bytes_per_user_byte: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The `p`-th latency percentile, in µs, of the window's ops that `keep`
/// selects, all clients together.
fn latency_percentile(recs: &[Vec<OpRec>], keep: impl Fn(&OpRec) -> bool, p: f64) -> f64 {
    let mut lat: Vec<u64> = recs
        .iter()
        .flatten()
        .filter(|r| keep(r))
        .map(|r| r.lat_ns)
        .collect();
    lat.sort_unstable();
    us(percentile(&lat, p))
}

/// Reads a phase must contribute before its shift counts toward
/// `shift_penalty_ms`: the area under Fig. 1 is taken over the first 100.
pub const PENALTY_READS: usize = 100;
/// Consecutive cheap queries that mark a shift as recovered from.
pub const RECOVERY_RUN: usize = 20;

impl WindowStats {
    pub fn new(window: &WindowOut) -> WindowStats {
        let all = || window.recs.iter().flatten();
        let ops = all().count();
        let reads: Vec<&OpRec> = all().filter(|r| r.kind.is_read()).collect();
        let writes: Vec<&OpRec> = all().filter(|r| !r.kind.is_read()).collect();
        let timed_ns: u64 = all().map(|r| r.lat_ns).sum();
        let is_read = |r: &OpRec| r.kind.is_read();
        let is_write = |r: &OpRec| !r.kind.is_read();
        let every = |_: &OpRec| true;
        let recs = &window.recs;

        // Shifts: per client, the reads of each phase in order. A phase
        // counts for the penalty when the window holds its first
        // `PENALTY_READS` reads, for recovery when it holds all of them.
        let mut penalties = Vec::new();
        let mut recoveries = Vec::new();
        let recovered_below = window.table_pages / 10;
        for client in &window.recs {
            let phased: Vec<&OpRec> = client.iter().filter(|r| r.phase != NO_PHASE).collect();
            for phase in phased.chunk_by(|a, b| a.phase == b.phase) {
                if !starts_phase(phase[0]) {
                    continue;
                }
                if phase.len() >= PENALTY_READS {
                    let ns: u64 = phase[..PENALTY_READS].iter().map(|r| r.lat_ns).sum();
                    penalties.push(ns as f64 / 1e6);
                }
                if phase.len() == PHASE_READS {
                    // Recovery is the dominant column's: the buffer space
                    // holds little more than one column, so the other two
                    // keep scanning whatever the buffer does.
                    let dominant = (phase[0].phase % 3) as u8;
                    let pages: Vec<u32> = phase
                        .iter()
                        .filter(|r| r.col == dominant)
                        .map(|r| r.pages_read)
                        .collect();
                    recoveries.push(recovery_index(&pages, recovered_below, RECOVERY_RUN) as f64);
                }
            }
        }

        let path_share = |path: AccessPath| {
            ratio(
                reads.iter().filter(|r| r.path == Some(path)).count() as f64,
                reads.len() as f64,
            )
        };
        let misses: Vec<&&OpRec> = reads
            .iter()
            .filter(|r| r.path.is_some_and(|p| p != AccessPath::PartialIndex))
            .collect();
        let buffered = || {
            reads
                .iter()
                .filter(|r| r.path == Some(AccessPath::BufferedScan))
        };
        let skipped: u64 = buffered().map(|r| u64::from(r.pages_skipped)).sum();
        let swept: u64 = buffered().map(|r| u64::from(r.pages_read)).sum();
        let entries_added: u64 = reads.iter().map(|r| r.entries_added).sum();
        let entries_displaced: u64 = reads.iter().map(|r| r.entries_displaced).sum();
        let wal_bytes: u64 = writes.iter().map(|r| r.wal_bytes).sum();
        let user_bytes: u64 = writes.iter().map(|r| r.user_bytes).sum();
        let page_write_bytes = window.counters.io.page_writes * PAGE_SIZE as u64;

        WindowStats {
            ops,
            failed: all().filter(|r| !r.ok).count(),
            reads: reads.len(),
            writes: writes.len(),
            throughput_ops_s: ratio(ops as f64, window.wall_s),
            gen_ns_per_op: ratio(
                (window.wall_s * 1e9 * window.threads as f64 - timed_ns as f64).max(0.0),
                ops as f64,
            ),
            op_p50_us: latency_percentile(recs, every, 50.0),
            op_max_ms: all()
                .map(|r| r.lat_ns)
                .max()
                .map_or(0.0, |ns| ns as f64 / 1e6),
            read_p50_us: latency_percentile(recs, is_read, 50.0),
            read_p95_us: latency_percentile(recs, is_read, 95.0),
            read_p99_us: latency_percentile(recs, is_read, 99.0),
            write_p50_us: latency_percentile(recs, is_write, 50.0),
            write_p95_us: latency_percentile(recs, is_write, 95.0),
            write_p99_us: latency_percentile(recs, is_write, 99.0),
            read_top_percentile: highest_supported_percentile(reads.len()),
            write_top_percentile: highest_supported_percentile(writes.len()),
            shifts: penalties.len(),
            shift_penalty_ms: median(&penalties),
            shift_recovery_queries: mean(recoveries.iter().copied()),
            path_partial_share: path_share(AccessPath::PartialIndex),
            path_buffered_share: path_share(AccessPath::BufferedScan),
            path_plain_share: path_share(AccessPath::PlainScan),
            pages_read_per_miss: ratio(
                misses.iter().map(|r| f64::from(r.pages_read)).sum(),
                misses.len() as f64,
            ),
            skip_share: ratio(skipped as f64, (skipped + swept) as f64),
            pages_indexed: reads.iter().map(|r| u64::from(r.pages_indexed)).sum(),
            entries_added,
            partitions_dropped: reads.iter().map(|r| u64::from(r.partitions_dropped)).sum(),
            displaced_share: ratio(entries_displaced as f64, entries_added as f64),
            wal_bytes,
            written_bytes_per_user_byte: ratio(
                (wal_bytes + page_write_bytes) as f64,
                user_bytes as f64,
            ),
        }
    }

    /// Per-shift means divide by the shifts the window held; a workload
    /// without shifts reports the window's total.
    pub fn per_shift(&self, total: u64) -> f64 {
        total as f64 / self.shifts.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().filter(|m| m.gated).count() <= 16);
    }

    fn rec(read: bool, lat_ns: u64) -> OpRec {
        use crate::workload::{Op, Step, NO_PHASE};
        let mut rec = OpRec::new(&Step {
            op: Op::Delete { pick: 0 },
            phase: NO_PHASE,
            at: 0,
        });
        rec.kind = if read {
            crate::run::Kind::Point
        } else {
            crate::run::Kind::Delete
        };
        rec.lat_ns = lat_ns;
        rec
    }

    #[test]
    fn a_stall_shows_in_throughput_and_in_the_tail() {
        use crate::run::{EngineCounters, WindowOut};
        let window = |recs: Vec<Vec<OpRec>>, wall_s: f64| WindowOut {
            threads: recs.len(),
            recs,
            wall_s,
            counters: EngineCounters::default(),
            memory: Default::default(),
            index_entries: 0,
            table_pages: 100,
        };
        // Two clients, 100 reads each, one per ms, 100 µs each.
        let steady = || -> Vec<OpRec> { (0..100).map(|_| rec(true, 100_000)).collect() };
        let stats = WindowStats::new(&window(vec![steady(), steady()], 0.1));
        assert_eq!((stats.ops, stats.reads, stats.writes), (200, 200, 0));
        assert!((stats.throughput_ops_s - 2000.0).abs() < 1e-6);
        assert_eq!((stats.read_p50_us, stats.read_p95_us), (100.0, 100.0));
        // Ten ops of one client stall for 10 ms each: the window is as long
        // as its slower client, and the tail holds the stalled ops.
        let mut stalled = steady();
        for r in &mut stalled[40..50] {
            r.lat_ns = 10_000_000;
        }
        let stats = WindowStats::new(&window(vec![steady(), stalled], 0.2));
        assert!((stats.throughput_ops_s - 1000.0).abs() < 1e-6);
        assert_eq!((stats.read_p50_us, stats.read_p95_us), (100.0, 100.0));
        assert_eq!(stats.read_p99_us, 10_000.0);
        assert_eq!(stats.op_max_ms, 10.0);
        // Classes are taken apart.
        let mut mixed = steady();
        mixed[5] = rec(false, 700_000);
        let stats = WindowStats::new(&window(vec![mixed], 0.1));
        assert_eq!((stats.write_p50_us, stats.read_p50_us), (700.0, 100.0));
        assert_eq!(latency_percentile(&[Vec::new()], |_| true, 50.0), 0.0);
    }

    #[test]
    fn gated_metrics_are_defined_everywhere_with_a_share_bound() {
        for m in END_TO_END.iter().filter(|m| m.gated) {
            assert!(
                Workload::ALL.into_iter().all(m.on),
                "{} is not universal",
                m.name
            );
            assert!(
                matches!(m.bound, Bound::Share(b) if b > 0.0 && b <= 0.25),
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.gated && m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }
}
