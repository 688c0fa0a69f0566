//! Self-test fixture for the fsync-confinement half of `durable-io`: the
//! file name ends in `commit.rs` — *not* the file seam — so calling
//! `sync_data` here is a violation even when the result is mapped correctly.

use std::fs::File;

pub fn fsync_side_channel(file: &File) -> Result<(), StorageError> {
    // durable-io: direct fsync outside store.rs.
    file.sync_data().map_err(|e| StorageError::io("fsync", e))
}

pub struct Checkpointer {
    catalog: RwLock<()>,
    wal: Mutex<()>,
    disk: Mutex<Backend>,
}

impl Checkpointer {
    // lock-order: the WAL mutex is taken after the catalog lock, never
    // before it.
    pub fn rotate_then_cut(&self) {
        let _wal = self.wal.lock();
        let _catalog = self.catalog.write();
    }

    // lock-order: the flush and its fsync run under the pool's disk mutex.
    pub fn sync_under_disk(&self) -> Result<(), StorageError> {
        self.disk.lock().sync()
    }
}
