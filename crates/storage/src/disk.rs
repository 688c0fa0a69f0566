//! The disk seam: the [`DiskBackend`] trait plus the default simulated
//! in-memory backend with deterministic I/O cost accounting.
//!
//! **Substitution note (see DESIGN.md §4).** The paper ran on a physical SSD;
//! the *default* backend replaces it with an in-memory simulation so that
//! (a) experiments are reproducible bit-for-bit and (b) page-level I/O — the
//! quantity the Index Buffer actually optimises — is observable directly
//! rather than inferred from wall time. Since PR 7 the simulation is one of
//! two [`DiskBackend`] implementations: [`crate::FileBackend`] persists the
//! same page space to a real heap file (see `file_backend.rs`) for the
//! durability/recovery path, while [`DiskManager`] remains the bench default.

use std::fmt;
use std::sync::Arc;

use crate::error::StorageError;
use crate::rid::PageId;
use crate::stats::IoStats;

/// Size of every disk page in bytes.
pub const PAGE_SIZE: usize = 8192;

/// The storage layer's disk seam: a page store addressed by dense
/// [`PageId`]s with batched reads, plus cost/statistics accounting.
///
/// Two implementations exist:
///
/// * [`DiskManager`] — the in-memory simulation (bench default, bit-for-bit
///   deterministic, no durability).
/// * [`crate::FileBackend`] — one heap file with a versioned header page and
///   page-aligned I/O; [`DiskBackend::sync`] makes writes durable (no-steal:
///   until `sync`, writes live in an in-memory overlay and the file stays
///   checkpoint-consistent).
///
/// Both charge *identical* [`IoStats`] counts and simulated-time costs for
/// the same operation sequence (enforced by
/// `crates/storage/tests/backend_parity.rs`), so the paper's page-I/O
/// economics are backend-independent.
pub trait DiskBackend: Send {
    /// Allocates a fresh zeroed page and returns its id. Allocation itself
    /// is not charged; the first write is.
    fn allocate(&mut self) -> Result<PageId, StorageError>;

    /// Reads page `id` into `buf`, charging one page read.
    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError>;

    /// Fills every `(id, buf)` request in one disk operation — the sweep
    /// read's "one request per run" path. Each page is charged the same
    /// per-page cost as [`DiskBackend::read`], but the statistics sink is
    /// touched once for the whole batch.
    ///
    /// The batch is served as its **runs** of consecutive page ids, one
    /// request ([`IoStats::read_requests`]) each — a sweep batch that never
    /// spans a skip gap is one run. The first id the backend does not know
    /// ends the batch with [`StorageError::UnknownPage`]; the runs before it
    /// (including the known pages directly in front of it) are filled and
    /// charged, nothing after. A run whose read fails is not charged.
    fn read_batch(
        &mut self,
        reqs: &mut [(PageId, &mut [u8; PAGE_SIZE])],
    ) -> Result<(), StorageError>;

    /// Writes `buf` to page `id`, charging one page write.
    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<(), StorageError>;

    /// Number of allocated pages.
    fn num_pages(&self) -> usize;

    /// Phase one of a sync — the only one that needs the backend exclusively.
    /// Writes `dirty` (charged like [`DiskBackend::write`], page by page) and
    /// detaches those images, together with everything written since the
    /// previous sync, as a **frozen set**: a cut of the page space that later
    /// writes do not touch and that reads keep seeing (where nothing newer
    /// overlays it) until [`DiskBackend::thaw`]. The returned job makes the
    /// set durable; it owns what it needs, so the caller runs it *after*
    /// releasing whatever lock guards the backend. One sync at a time.
    fn freeze(
        &mut self,
        dirty: &[(PageId, &[u8; PAGE_SIZE])],
    ) -> Result<Box<dyn FlushJob>, StorageError>;

    /// Phase three: books the outcome of the frozen set's [`FlushJob`]. On
    /// `Ok` the set is durable and reads of it go to the medium again; on
    /// `Err` its pages go back to being unsynced writes, to be retried by
    /// the next sync. Returns `flushed`.
    fn thaw(&mut self, flushed: Result<(), StorageError>) -> Result<(), StorageError>;

    /// Makes all writes since the previous `sync` durable (fsync for
    /// file-backed implementations; a no-op for the simulation): the three
    /// phases back to back, for callers that hold the backend outright.
    /// Flush I/O performed here is *not* charged to [`IoStats`] in either
    /// backend — the simulated-time axis tracks the paper's read/write
    /// economics, not checkpoint background I/O.
    fn sync(&mut self) -> Result<(), StorageError> {
        let flushed = self.freeze(&[])?.write_out();
        self.thaw(flushed)
    }

    /// The shared statistics sink; clones of this `Arc` observe all I/O.
    fn stats(&self) -> Arc<IoStats>;

    /// The active cost model.
    fn cost_model(&self) -> CostModel;

    /// Test hook: makes the next `sync` fail *after* data has partially
    /// reached the medium, emulating a crash mid-checkpoint. The default
    /// (and the simulation's) implementation ignores it.
    fn fail_next_sync(&mut self) {}
}

/// The off-lock half of a two-phase sync: what [`DiskBackend::freeze`] hands
/// back.
pub trait FlushJob: Send {
    /// Writes the frozen pages to the medium and makes them durable. Takes
    /// no lock and needs none: run it with none held.
    fn write_out(&self) -> Result<(), StorageError>;
}

/// The job of a backend that is its own medium.
struct NothingToFlush;

impl FlushJob for NothingToFlush {
    fn write_out(&self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// One `(page id, destination)` request of a [`DiskBackend::read_batch`].
pub(crate) type ReadReq<'a> = (PageId, &'a mut [u8; PAGE_SIZE]);

/// Serves `reqs` run by run, the way [`DiskBackend::read_batch`] specifies
/// it, for both backends: `fill` reads one run of consecutive ids, all below
/// `num_pages`; every completed run is charged to `stats` as one request of
/// `cost.read_us` per page, in one update at the end.
pub(crate) fn read_runs(
    reqs: &mut [ReadReq<'_>],
    num_pages: usize,
    cost: CostModel,
    stats: &IoStats,
    mut fill: impl FnMut(&mut [ReadReq<'_>]) -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    let mut pages = 0usize;
    let mut requests = 0u64;
    let mut rest = reqs;
    let outcome = loop {
        let Some(first) = rest.first().map(|(id, _)| *id) else {
            break Ok(());
        };
        // The leading run: ids counting up from `first`, while known.
        let run = rest
            .iter()
            .zip(first.index()..num_pages)
            .take_while(|((id, _), expected)| id.index() == *expected)
            .count();
        if run == 0 {
            break Err(StorageError::UnknownPage(first));
        }
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(run);
        if let Err(e) = fill(head) {
            break Err(e);
        }
        pages += run;
        requests += 1;
        rest = tail;
    };
    if requests > 0 {
        stats.record_reads(pages as u64, cost.read_us);
        stats.record_read_requests(requests);
    }
    outcome
}

/// Simulated cost of physical page accesses, in microseconds.
///
/// Defaults approximate the paper's SATA SSD era hardware: ~100 µs per random
/// page read/write. Absolute values only scale the simulated-time axis; the
/// figures' shapes are invariant to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Simulated microseconds per page read.
    pub read_us: u64,
    /// Simulated microseconds per page write.
    pub write_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_us: 100,
            write_us: 120,
        }
    }
}

impl CostModel {
    /// A zero-cost model, useful for tests that only count operations.
    pub fn free() -> Self {
        CostModel {
            read_us: 0,
            write_us: 0,
        }
    }
}

/// In-memory page store standing in for a disk.
pub struct DiskManager {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    cost: CostModel,
    stats: Arc<IoStats>,
}

impl fmt::Debug for DiskManager {
    /// Compact summary — a derived impl would dump every 8 KiB page buffer.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskManager")
            .field("num_pages", &self.pages.len())
            .field("cost", &self.cost)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl DiskManager {
    /// Creates an empty disk with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        DiskManager {
            pages: Vec::new(),
            cost,
            stats: Arc::new(IoStats::new()),
        }
    }

    /// The shared statistics sink; clones of this `Arc` observe all I/O.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// The active cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Allocates a fresh zeroed page. Allocation itself is not charged; the
    /// first write is.
    pub fn allocate(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u32);
        self.pages.push(Box::new([0; PAGE_SIZE]));
        id
    }

    /// Reads page `id` into `buf`, charging one page read.
    pub fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.read_batch(&mut [(id, buf)])
    }

    /// Fills every `(id, buf)` request in one disk operation; see
    /// [`DiskBackend::read_batch`] for the run-by-run contract. Each page is
    /// charged the same per-page cost as [`DiskManager::read`], so simulated
    /// time is identical to page-at-a-time reads.
    pub fn read_batch(
        &mut self,
        reqs: &mut [(PageId, &mut [u8; PAGE_SIZE])],
    ) -> Result<(), StorageError> {
        let pages = &self.pages;
        read_runs(reqs, pages.len(), self.cost, &self.stats, |run| {
            for (id, buf) in run {
                let page = pages
                    .get(id.index())
                    .ok_or(StorageError::UnknownPage(*id))?;
                buf.copy_from_slice(&page[..]);
            }
            Ok(())
        })
    }

    /// Writes `buf` to page `id`, charging one page write.
    pub fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
        let page = self
            .pages
            .get_mut(id.index())
            .ok_or(StorageError::UnknownPage(id))?;
        page.copy_from_slice(buf);
        self.stats.record_writes(1, self.cost.write_us);
        Ok(())
    }
}

impl DiskBackend for DiskManager {
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        Ok(DiskManager::allocate(self))
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        DiskManager::read(self, id, buf)
    }

    fn read_batch(
        &mut self,
        reqs: &mut [(PageId, &mut [u8; PAGE_SIZE])],
    ) -> Result<(), StorageError> {
        DiskManager::read_batch(self, reqs)
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
        DiskManager::write(self, id, buf)
    }

    fn num_pages(&self) -> usize {
        DiskManager::num_pages(self)
    }

    fn freeze(
        &mut self,
        dirty: &[(PageId, &[u8; PAGE_SIZE])],
    ) -> Result<Box<dyn FlushJob>, StorageError> {
        for (id, page) in dirty {
            DiskManager::write(self, *id, page)?;
        }
        // Nothing to persist: the simulation *is* its own medium.
        Ok(Box::new(NothingToFlush))
    }

    fn thaw(&mut self, flushed: Result<(), StorageError>) -> Result<(), StorageError> {
        flushed
    }

    fn stats(&self) -> Arc<IoStats> {
        DiskManager::stats(self)
    }

    fn cost_model(&self) -> CostModel {
        DiskManager::cost_model(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let mut disk = DiskManager::new(CostModel::default());
        let p0 = disk.allocate();
        let p1 = disk.allocate();
        assert_eq!(disk.num_pages(), 2);

        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        disk.write(p1, &buf).unwrap();

        let mut out = [0u8; PAGE_SIZE];
        disk.read(p1, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);

        disk.read(p0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "fresh pages are zeroed");
    }

    #[test]
    fn unknown_page_rejected() {
        let mut disk = DiskManager::new(CostModel::default());
        let mut buf = [0u8; PAGE_SIZE];
        assert_eq!(
            disk.read(PageId(0), &mut buf),
            Err(StorageError::UnknownPage(PageId(0)))
        );
        assert_eq!(
            disk.write(PageId(7), &buf),
            Err(StorageError::UnknownPage(PageId(7)))
        );
    }

    #[test]
    fn read_batch_fills_all_pages_and_charges_once_per_page() {
        let mut disk = DiskManager::new(CostModel {
            read_us: 5,
            write_us: 7,
        });
        let p0 = disk.allocate();
        let p1 = disk.allocate();
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 1;
        disk.write(p0, &buf).unwrap();
        buf[0] = 2;
        disk.write(p1, &buf).unwrap();

        let mut a = [0u8; PAGE_SIZE];
        let mut b = [0u8; PAGE_SIZE];
        let before = disk.stats().snapshot();
        disk.read_batch(&mut [(p0, &mut a), (p1, &mut b)]).unwrap();
        let d = disk.stats().snapshot().since(&before);
        assert_eq!((a[0], b[0]), (1, 2));
        assert_eq!(d.page_reads, 2);
        assert_eq!(d.simulated_us, 2 * 5, "same per-page cost as read()");

        let mut c = [0u8; PAGE_SIZE];
        assert_eq!(
            disk.read_batch(&mut [(p0, &mut a), (PageId(9), &mut c)]),
            Err(StorageError::UnknownPage(PageId(9)))
        );
    }

    #[test]
    fn debug_is_compact() {
        let mut disk = DiskManager::new(CostModel::default());
        for _ in 0..64 {
            disk.allocate();
        }
        let dbg = format!("{disk:?}");
        assert!(dbg.contains("num_pages: 64"), "{dbg}");
        assert!(
            dbg.len() < 512,
            "manual Debug must not dump page buffers: {} chars",
            dbg.len()
        );
    }

    #[test]
    fn trait_object_roundtrip() {
        let mut disk: Box<dyn DiskBackend> = Box::new(DiskManager::new(CostModel::free()));
        let p = disk.allocate().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        buf[7] = 77;
        disk.write(p, &buf).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        disk.read(p, &mut out).unwrap();
        assert_eq!(out[7], 77);
        assert_eq!(disk.num_pages(), 1);
        disk.fail_next_sync(); // no-op for the simulation
        disk.sync().unwrap();
    }

    #[test]
    fn io_is_charged_to_stats() {
        let mut disk = DiskManager::new(CostModel {
            read_us: 5,
            write_us: 7,
        });
        let p = disk.allocate();
        let mut buf = [0u8; PAGE_SIZE];
        disk.write(p, &buf).unwrap();
        disk.read(p, &mut buf).unwrap();
        disk.read(p, &mut buf).unwrap();
        let s = disk.stats().snapshot();
        assert_eq!(s.page_reads, 2);
        assert_eq!(s.page_writes, 1);
        assert_eq!(s.simulated_us, 2 * 5 + 7);
    }
}
