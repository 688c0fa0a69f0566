//! The two file-system primitives the durable modules share: a positional
//! write (no seek, no file-offset state, `&File`) and the parent-directory
//! fsync that makes a create, link or rename durable.

use std::fs::File;
use std::path::Path;

use crate::error::StorageError;

/// Writes all of `buf` at byte `offset` of `file` without touching the file
/// offset, so a writer needs no `&mut` and never races a reader's seek.
#[cfg(unix)]
pub(crate) fn write_all_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    // aib-lint: allow(durable-io) — the primitive itself: every caller maps the error where it knows the context.
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

/// Portable stand-in: seek, then write (callers serialize their writes).
#[cfg(not(unix))]
pub(crate) fn write_all_at(mut file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    // aib-lint: allow(durable-io) — the primitive itself: every caller maps the error where it knows the context.
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

/// Fsyncs the parent directory of `path`, making a just-created, just-linked
/// or just-renamed directory entry durable (the rename-durability rule: file
/// fsyncs cover file *contents*; only a directory fsync covers the entry).
/// A path with no parent (or an empty one) has nothing to sync.
pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), StorageError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => return Ok(()),
    };
    let dir = File::open(parent).map_err(|e| StorageError::io("open wal directory", e))?;
    dir.sync_data()
        .map_err(|e| StorageError::io("fsync wal directory", e))?;
    Ok(())
}
