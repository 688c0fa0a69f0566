//! # The Adaptive Index Buffer
//!
//! The primary contribution of *"Adaptive Index Buffer"* (Voigt, Jaekel,
//! Kissinger, Lehner — ICDE Workshops 2012): an in-memory scratch-pad index
//! that backs partial secondary indexes during workload shifts.
//!
//! A query that misses its partial index must scan the table; a page can be
//! skipped only when *every* tuple on it is indexed. The Index Buffer makes
//! pages skippable by indexing their remaining uncovered tuples on the fly:
//!
//! * [`counters::PageCounters`] — the `C[p]` array of unindexed tuples per
//!   page (§III).
//! * [`scan::indexing_scan`] — Algorithm 1: scan the buffer, skip
//!   `C[p] == 0` pages, index selected pages as you pass them. It is the
//!   composition of [`scan::prepare_scan`], [`scan::scan_chunk`] (read-only
//!   discovery, no lock) and [`scan::apply_staged`] (the ordered mutation).
//! * [`index_buffer::IndexBuffer`] / [`partition::Partition`] — the
//!   partitioned scratch-pad itself (§IV, Fig. 5); displacement drops whole
//!   partitions and restores counters exactly.
//! * [`history::LruKHistory`] — per-buffer LRU-K access intervals
//!   (Table II).
//! * [`space::IndexBufferSpace`] — the byte-accurate memory budget (the
//!   paper's entry bound `L` compiles down to bytes, shared with the buffer
//!   pool via [`aib_storage::MemoryBudget`]), the benefit model
//!   `b_p = X_p / T_B`, and Algorithm 2's page selection with two-stage
//!   probabilistic victim selection.
//! * [`maintenance::maintain`] — the 16 DML maintenance cases of Table I.
//!
//! ```
//! use aib_core::{BufferConfig, SpaceConfig, IndexBufferSpace, Predicate, indexing_scan};
//! # use aib_storage::{BufferPool, BufferPoolConfig, CostModel, FileBackend,
//! #                   HeapFile, Tuple, Value};
//! # let pool = BufferPool::new(FileBackend::new(CostModel::free()),
//! #                            BufferPoolConfig::lru(16));
//! # let heap = HeapFile::new(pool);
//! # for i in 0..100i64 {
//! #     heap.insert(&Tuple::new(vec![Value::Int(i)]).to_bytes()).unwrap();
//! # }
//! // One buffer over a table whose partial index covers nothing:
//! let counts: Vec<u32> = (0..heap.num_pages())
//!     .map(|p| heap.tuples_on_page(p).unwrap() as u32)
//!     .collect();
//! let mut space = IndexBufferSpace::new(SpaceConfig::default());
//! let col = space.register("A", BufferConfig::default(), counts);
//!
//! // A query that misses the partial index: Table II, then Algorithm 1.
//! space.on_query(Some(col), false);
//! let mut result = Vec::new();
//! let stats = indexing_scan(&heap, &mut space, col, 0, &|_| false,
//!                           &Predicate::Equals(Value::Int(42)), &mut result).unwrap();
//! assert_eq!(result.len(), 1);
//! assert!(stats.pages_indexed > 0);
//!
//! // The second identical query skips every page.
//! space.on_query(Some(col), false);
//! let mut result2 = Vec::new();
//! let stats2 = indexing_scan(&heap, &mut space, col, 0, &|_| false,
//!                            &Predicate::Equals(Value::Int(42)), &mut result2).unwrap();
//! assert_eq!(stats2.pages_read, 0);
//! assert_eq!(result2, result);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod counters;
pub mod history;
pub mod index_buffer;
#[cfg(feature = "invariant-checks")]
pub mod invariants;
pub mod maintenance;
pub mod partition;
pub mod scan;
pub mod shared;
pub mod space;
pub mod sync;

pub use config::{BufferConfig, SpaceConfig};
pub use counters::{CounterError, PageCounters, SkipBitset, SkipRuns};
pub use history::LruKHistory;
pub use index_buffer::{BufferId, DroppedPartition, IndexBuffer};
#[cfg(feature = "invariant-checks")]
pub use invariants::{verify_buffer, verify_space, GroundTruth, InvariantReport};
pub use maintenance::{
    cover_tuple, maintain, maintain_partial_index, uncover_tuple, MaintAction, TupleRef,
};
pub use partition::{Partition, PartitionId};
pub use scan::{
    apply_staged, buffer_scan_rids, indexing_scan, planned_scan_threads, prepare_scan,
    prepare_scan_from_snapshot, scan_chunk, sweep_plan, ChunkResult, CompiledPredicate,
    CoverageTest, Predicate, ScanPlan, ScanPrep, ScanStats, StagedPage,
};
pub use shared::{BufferSummary, SharedSpace, SnapshotCache, SpaceSnapshot, SpaceWriteGuard};
pub use space::{BufferPending, Displacement, IndexBufferSpace, Selection};
