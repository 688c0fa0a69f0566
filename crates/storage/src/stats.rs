//! I/O accounting shared between the page store and the buffer pool.
//!
//! The paper reports query runtimes on a concrete SSD testbed. Our substrate
//! replaces the physical disk with a simulation, so experiments report
//! deterministic counters (page reads/writes, buffer hits/misses) and a
//! simulated elapsed time derived from a [`crate::disk::CostModel`], next to
//! actual wall time.

use crate::sync::{AtomicU64, Ordering};

/// Monotonic counters describing I/O activity. Thread-safe; shared via `Arc`.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Pages read from the simulated disk.
    pub page_reads: AtomicU64,
    /// Read requests the page store served: one per [`FileBackend::read`],
    /// one per run of consecutive page ids inside a
    /// [`FileBackend::read_batch`]. `page_reads / read_requests` is the
    /// pages a disk request carries.
    ///
    /// [`FileBackend::read`]: crate::FileBackend::read
    /// [`FileBackend::read_batch`]: crate::FileBackend::read_batch
    pub read_requests: AtomicU64,
    /// Pages written to the simulated disk.
    pub page_writes: AtomicU64,
    /// Buffer-pool fetches served without disk I/O.
    pub buffer_hits: AtomicU64,
    /// Buffer-pool fetches that required a disk read.
    pub buffer_misses: AtomicU64,
    /// Simulated elapsed time in microseconds, per the cost model.
    pub simulated_us: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` page reads costing `us` simulated microseconds each.
    #[inline]
    pub fn record_reads(&self, n: u64, us: u64) {
        self.page_reads.fetch_add(n, Ordering::Relaxed);
        self.simulated_us.fetch_add(n * us, Ordering::Relaxed);
    }

    /// Records `n` read requests to the page store (see
    /// [`IoStats::read_requests`]); their pages are charged with
    /// [`IoStats::record_reads`].
    #[inline]
    pub fn record_read_requests(&self, n: u64) {
        self.read_requests.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` page writes costing `us` simulated microseconds each.
    #[inline]
    pub fn record_writes(&self, n: u64, us: u64) {
        self.page_writes.fetch_add(n, Ordering::Relaxed);
        self.simulated_us.fetch_add(n * us, Ordering::Relaxed);
    }

    /// Records a buffer-pool hit.
    #[inline]
    pub fn record_hit(&self) {
        self.buffer_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` buffer-pool hits in one update — batch fetch paths use
    /// this so a hot scan touches the shared counter once per batch instead
    /// of once per page.
    #[inline]
    pub fn record_hits(&self, n: u64) {
        if n > 0 {
            self.buffer_hits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records a buffer-pool miss.
    #[inline]
    pub fn record_miss(&self) {
        self.buffer_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` buffer-pool misses in one update; the batched counterpart
    /// of [`IoStats::record_miss`] used by sweep reads.
    #[inline]
    pub fn record_misses(&self, n: u64) {
        if n > 0 {
            self.buffer_misses.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes a consistent-enough point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.page_reads.load(Ordering::Relaxed),
            read_requests: self.read_requests.load(Ordering::Relaxed),
            page_writes: self.page_writes.load(Ordering::Relaxed),
            buffer_hits: self.buffer_hits.load(Ordering::Relaxed),
            buffer_misses: self.buffer_misses.load(Ordering::Relaxed),
            simulated_us: self.simulated_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`IoStats`], supporting interval arithmetic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Pages read from the simulated disk.
    pub page_reads: u64,
    /// Read requests those pages arrived in (see [`IoStats::read_requests`]).
    pub read_requests: u64,
    /// Pages written to the simulated disk.
    pub page_writes: u64,
    /// Buffer-pool hits.
    pub buffer_hits: u64,
    /// Buffer-pool misses.
    pub buffer_misses: u64,
    /// Simulated elapsed microseconds.
    pub simulated_us: u64,
}

impl IoSnapshot {
    /// Counter deltas since `earlier` (saturating, so reordered relaxed loads
    /// can never underflow).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            read_requests: self.read_requests.saturating_sub(earlier.read_requests),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            buffer_hits: self.buffer_hits.saturating_sub(earlier.buffer_hits),
            buffer_misses: self.buffer_misses.saturating_sub(earlier.buffer_misses),
            simulated_us: self.simulated_us.saturating_sub(earlier.simulated_us),
        }
    }

    /// Total physical page I/O (reads + writes).
    pub fn total_io(&self) -> u64 {
        self.page_reads + self.page_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas() {
        let stats = IoStats::new();
        stats.record_reads(3, 10);
        let a = stats.snapshot();
        stats.record_reads(2, 10);
        stats.record_read_requests(1);
        stats.record_writes(1, 20);
        stats.record_hit();
        stats.record_miss();
        let b = stats.snapshot();
        let d = b.since(&a);
        assert_eq!(d.page_reads, 2);
        assert_eq!(d.read_requests, 1);
        assert_eq!(d.page_writes, 1);
        assert_eq!(d.buffer_hits, 1);
        assert_eq!(d.buffer_misses, 1);
        assert_eq!(d.simulated_us, 2 * 10 + 20);
        assert_eq!(d.total_io(), 3);
    }

    #[test]
    fn since_saturates() {
        let a = IoSnapshot {
            page_reads: 5,
            ..Default::default()
        };
        let b = IoSnapshot::default();
        assert_eq!(b.since(&a).page_reads, 0);
    }
}
