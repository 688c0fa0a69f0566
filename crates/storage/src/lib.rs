//! Storage substrate for the Adaptive Index Buffer reproduction.
//!
//! This crate implements everything the paper's prototype got for free from
//! the H2 Database Engine: a value/tuple model, slotted pages, a simulated
//! disk manager with I/O accounting, an LRU buffer pool, and heap files
//! swept run by run at page granularity — the substrate on which the Index
//! Buffer's page-skipping logic operates.
//!
//! The disk sits behind the [`disk::DiskBackend`] trait with two
//! implementations: the in-memory simulation ([`disk::DiskManager`], the
//! bench default — deterministic, no durability) and a file-backed store
//! ([`file_backend::FileBackend`]) paired with a write-ahead log
//! ([`wal::Wal`]) for the durability/recovery path. All page reads and
//! writes are counted in [`stats::IoStats`] and charged to a configurable
//! [`disk::CostModel`] identically on both backends, so experiments report
//! deterministic simulated I/O cost alongside wall time regardless of
//! backend.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod buffer_pool;
pub mod disk;
pub mod error;
pub mod file_backend;
pub mod freespace;
mod fsio;
pub mod heap;
pub mod page;
pub mod replacement;
pub mod rid;
pub mod schema;
pub mod stats;
pub mod sync;
pub mod tuple;
pub mod value;
pub mod wal;

pub use budget::{
    entry_footprint, BudgetComponent, BudgetSnapshot, MemoryBudget, MemoryUsage,
    DEFAULT_ENTRY_FOOTPRINT, ENTRY_BASE_BYTES,
};
pub use buffer_pool::{
    BufferPool, BufferPoolConfig, CapturedSync, PageReadGuard, PageWriteGuard, PinnedBatch,
};
pub use disk::{CostModel, DiskBackend, DiskManager, FlushJob, PAGE_SIZE};
pub use error::StorageError;
pub use file_backend::FileBackend;
pub use heap::HeapFile;
pub use page::{PageView, SlottedPage};
pub use replacement::FrameId;
pub use rid::{PageId, Rid, SlotId};
pub use schema::{Column, ColumnType, Schema};
pub use stats::{IoSnapshot, IoStats};
pub use tuple::Tuple;
pub use value::{ColumnRef, ColumnView, Value};
pub use wal::{Wal, WalRecord};

/// Convenient result alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
