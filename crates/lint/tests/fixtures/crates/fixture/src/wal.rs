//! Self-test fixture for the `durable-io` family: the file name ends in
//! `wal.rs`, so every raw I/O result here must be mapped to `StorageError`
//! in its own statement, and no fsync may be issued here at all — the log
//! syncs through the file seam (`store.rs`). Every function below violates
//! that.

use std::fs::File;
use std::io::Write;

pub fn append_without_mapping(file: &mut File, frame: &[u8]) -> std::io::Result<()> {
    // durable-io: raw io::Error propagated instead of StorageError.
    file.write_all(frame)?;
    // durable-io: fsync result silently discarded.
    let _ = file.sync_data();
    Ok(())
}

pub fn fsync_beside_the_seam(file: &File) -> Result<(), StorageError> {
    // durable-io: a raw fsync outside store.rs, even mapped.
    file.sync_data().map_err(|e| StorageError::io("fsync", e))
}

pub fn sync_through_the_seam_unmapped(file: &dyn StoreFile) {
    // durable-io: the seam's sync result silently discarded.
    let _ = file.sync();
}
