//! Per-query instrumentation and workload recording — the measurement
//! harness behind the paper's Figures 6–9.

use std::time::Duration;

use aib_core::ScanStats;
use aib_storage::stats::IoSnapshot;
use aib_storage::BudgetSnapshot;

use crate::query::AccessPath;
use crate::read::PlanSource;

/// Everything measured about one executed query.
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    /// 0-based position in the workload.
    pub seq: usize,
    /// Access path taken.
    pub path: AccessPath,
    /// Where the scan's page selection came from: the lock-free snapshot,
    /// the write-locked fallback, the sequential reference executor's
    /// exclusive run — or nothing to select (hits and plain scans).
    pub plan: PlanSource,
    /// Matching tuples.
    pub result_count: usize,
    /// Physical I/O deltas attributable to this query.
    pub io: IoSnapshot,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Scan instrumentation, for scan paths.
    pub scan: Option<ScanStats>,
    /// Entries per Index Buffer after the query (Figures 8 and 9 plot this
    /// series), in buffer-id order.
    pub buffer_entries: Vec<usize>,
    /// Memory-governor counters after the query: bytes resident per
    /// component, combined high-water mark and displacements performed so
    /// far.
    pub memory: BudgetSnapshot,
}

impl QueryMetrics {
    /// Simulated query cost in microseconds (cost-model charged I/O).
    pub fn simulated_us(&self) -> u64 {
        self.io.simulated_us
    }

    /// Pages skipped by this query's scan (0 for index hits).
    pub fn pages_skipped(&self) -> u32 {
        self.scan.as_ref().map_or(0, |s| s.pages_skipped)
    }

    /// Fully-indexed runs the scan jumped whole (0 for index hits).
    pub fn skip_runs(&self) -> u32 {
        self.scan.as_ref().map_or(0, |s| s.skip_runs)
    }

    /// Batched page-sweep requests the scan's unskipped runs cost (0 for
    /// index hits).
    pub fn sweep_batches(&self) -> u32 {
        self.scan.as_ref().map_or(0, |s| s.sweep_batches)
    }
}

/// Collects the per-query series of a workload run.
#[derive(Debug, Default)]
pub struct WorkloadRecorder {
    records: Vec<QueryMetrics>,
}

impl WorkloadRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one query's metrics.
    pub fn push(&mut self, m: QueryMetrics) {
        self.records.push(m);
    }

    /// Records the metrics half of an execution outcome — the idiomatic way
    /// to capture a workload:
    /// `recorder.record(&db.execute(&q)?)`.
    pub fn record(&mut self, outcome: &crate::query::ExecOutcome) {
        self.records.push(outcome.metrics.clone());
    }

    /// All records, in execution order.
    pub fn records(&self) -> &[QueryMetrics] {
        &self.records
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no queries were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of queries answered by the partial index within
    /// `[from, to)` — the hit-rate series of Figure 1.
    pub fn hit_rate(&self, from: usize, to: usize) -> f64 {
        let slice = self
            .records
            .get(from.min(self.records.len())..to.min(self.records.len()))
            .unwrap_or_default();
        if slice.is_empty() {
            return 0.0;
        }
        let hits = slice
            .iter()
            .filter(|m| m.path == AccessPath::PartialIndex)
            .count();
        hits as f64 / slice.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: usize, path: AccessPath) -> QueryMetrics {
        QueryMetrics {
            seq,
            path,
            plan: PlanSource::None,
            result_count: 1,
            io: IoSnapshot {
                page_reads: 2,
                read_requests: 1,
                simulated_us: 200,
                ..Default::default()
            },
            wall: Duration::from_micros(5),
            scan: None,
            buffer_entries: vec![10, 20],
            memory: BudgetSnapshot {
                buffer_pool_bytes: 16_384,
                index_bytes: 960,
                high_water: 17_344,
                displacements: 2,
            },
        }
    }

    #[test]
    fn hit_rate_over_window() {
        let mut rec = WorkloadRecorder::new();
        rec.push(record(0, AccessPath::PartialIndex));
        rec.push(record(1, AccessPath::BufferedScan));
        rec.push(record(2, AccessPath::PartialIndex));
        rec.push(record(3, AccessPath::PartialIndex));
        assert_eq!(rec.hit_rate(0, 4), 0.75);
        assert_eq!(rec.hit_rate(0, 2), 0.5);
        assert_eq!(rec.hit_rate(4, 8), 0.0, "out of range is empty");
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn simulated_us_proxies_io() {
        let m = record(0, AccessPath::PlainScan);
        assert_eq!(m.simulated_us(), 200);
        assert_eq!(m.pages_skipped(), 0);
    }
}
