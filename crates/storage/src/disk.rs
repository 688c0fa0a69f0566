//! Page geometry and the simulated cost of page I/O.
//!
//! **Substitution note (see DESIGN.md §4).** The paper ran on a physical SSD.
//! Here every page lives in [`crate::FileBackend`], whose file is either on
//! the real file system (the durable engine) or in memory (the default:
//! reproducible bit for bit, and lost with the process). Either way, page
//! reads and writes are charged to a [`CostModel`], so page-level I/O — the
//! quantity the Index Buffer optimises — is observed directly rather than
//! inferred from wall time.

use crate::file_backend::FileBackend;

/// Size of every disk page in bytes.
pub const PAGE_SIZE: usize = 8192;

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

/// The old name of the in-memory page store, [`FileBackend::new`]. Kept only
/// because the frozen `e2e/` harness still spells `DiskManager::new`
/// (ROADMAP item 1 deletes it); nothing else may use it.
pub type DiskManager = FileBackend;

#[cfg(test)]
mod tests {
    //! The in-memory page store's basic contract.

    use super::*;
    use crate::error::StorageError;
    use crate::rid::PageId;

    #[test]
    fn allocate_read_write_roundtrip() {
        let mut disk = FileBackend::new(CostModel::default());
        let p0 = disk.allocate().unwrap();
        let p1 = disk.allocate().unwrap();
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

        // And the same after the pages went to the file.
        disk.sync().unwrap();
        disk.read(p1, &mut out).unwrap();
        assert_eq!((out[0], out[PAGE_SIZE - 1]), (0xAB, 0xCD));
    }

    #[test]
    fn unknown_page_rejected() {
        let mut disk = FileBackend::new(CostModel::default());
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
        let mut disk = FileBackend::new(CostModel {
            read_us: 5,
            write_us: 7,
        });
        let p0 = disk.allocate().unwrap();
        let p1 = disk.allocate().unwrap();
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
        let mut disk = FileBackend::new(CostModel::default());
        for _ in 0..64 {
            disk.allocate().unwrap();
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
    fn io_is_charged_to_stats() {
        let mut disk = FileBackend::new(CostModel {
            read_us: 5,
            write_us: 7,
        });
        let p = disk.allocate().unwrap();
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
