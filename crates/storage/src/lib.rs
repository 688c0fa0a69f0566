//! Storage substrate for the Adaptive Index Buffer reproduction.
//!
//! This crate implements everything the paper's prototype got for free from
//! the H2 Database Engine: a value/tuple model, slotted pages, a page store
//! with I/O accounting, an LRU buffer pool, and heap files swept run by run
//! at page granularity — the substrate on which the Index Buffer's
//! page-skipping logic operates.
//!
//! There is one page store, [`file_backend::FileBackend`], under the buffer
//! pool. It and the write-ahead log ([`wal::Wal`]) reach files only through
//! the seam in [`store`], which has two directories: the real file system
//! ([`store::OsDir`], the durable engine) and an in-memory one
//! ([`store::MemDir`], which can also lose unsynced bytes on purpose).
//! [`file_backend::FileBackend::new`] puts the store on an in-memory file —
//! the bench default, deterministic and without durability. Page reads and
//! writes are counted in [`stats::IoStats`] and charged to a configurable
//! [`disk::CostModel`] by that one store, so the simulated I/O cost is the
//! same in memory and on disk. Every byte format that is read back —
//! tuples, WAL records, both file headers — is written and strictly parsed
//! through [`codec`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod buffer_pool;
pub mod codec;
pub mod disk;
pub mod error;
pub mod file_backend;
pub mod freespace;
pub mod heap;
pub mod page;
mod replacement;
pub mod rid;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod store;
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
pub use disk::{CostModel, DiskManager, PAGE_SIZE};
pub use error::StorageError;
pub use file_backend::FileBackend;
pub use heap::HeapFile;
pub use page::{ColumnFilter, FrameFilters, PageView, SlottedPage, ValueFilter};
pub use rid::{PageId, Rid, SlotId};
pub use rng::Rng;
pub use schema::{Column, ColumnType, Schema};
pub use stats::{IoSnapshot, IoStats};
pub use store::{Fault, MemDir, OsDir, StoreDir, StoreFile};
pub use tuple::Tuple;
pub use value::{ColumnRef, ColumnView, Value};
pub use wal::{Wal, WalRecord};

/// Convenient result alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
