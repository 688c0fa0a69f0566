//! The mini database engine: heap tables, partial secondary indexes, the
//! Adaptive Index Buffer, and the online tuner, wired together behind one
//! facade.
//!
//! This crate replaces the role the H2 Database Engine played for the
//! paper's prototype (substitution, DESIGN.md §4). The executor implements
//! the decision the paper describes in §II–III:
//!
//! * predicate value covered by the column's partial index → **index hit**
//!   (probe + tuple fetches);
//! * not covered, column has an Index Buffer → **indexing scan**
//!   (Algorithm 1, with Table II history updates and Algorithm 2 page
//!   selection);
//! * not covered, no buffer → **plain full scan** (the baseline the paper
//!   plots as "table scan").
//!
//! # Concurrency
//!
//! [`Database`] is shareable across client threads (`Arc<Database>`, or the
//! [`crate::ClientHandle`] wrapper): every entry point takes `&self`. Engine
//! state is split across the catalog lock, the Index Buffer Space lock, and
//! the already-concurrent storage layer:
//!
//! * the **catalog** (tables, heaps, partial indexes, tuners) behind one
//!   `RwLock` — read queries hold its read lock end to end, so DML/DDL
//!   (write lock) never interleaves with an in-flight query and each query
//!   sees a frozen heap and coverage;
//! * the **Index Buffer Space** (buffers + `C[p]` counters) as one
//!   [`SharedSpace`]: the paper's single space behind one `RwLock`, drawing
//!   Algorithm 2 headroom from the shared [`MemoryBudget`]. Its write
//!   sections stay short: the Algorithm 2 selection before a sweep, the
//!   staged apply after it, and DML maintenance.
//!
//! Every read runs the one **plan → sweep → adapt** pipeline of
//! [`crate::read`] (see there and DESIGN.md §6): it plans lock-free from
//! an epoch-validated [`SpaceSnapshot`], fails closed to planning under
//! the space write lock when the snapshot cannot prove the selection, and
//! applies the insertions its sweep staged before the query returns.
//!
//! Lock order is **catalog → space → pool**: the space lock nests inside
//! the catalog lock, and pool locks are storage-internal leaves (see
//! `aib-storage::buffer_pool`). Sweeping with no engine lock held is what
//! lets concurrent read queries overlap their page I/O: the paper's
//! Algorithm 1 mutates index structure as a side effect of reads, and the
//! staged-apply split confines that mutation to the short write sections.

// aib-lint: allow-file(no-index) — `tables` and `indexed` are only ever
// indexed by positions this module itself computed (`table_index`,
// `indexed_column`) and tables/columns are never removed, so the positions
// cannot dangle; a miss would be an engine bug, not a caller mistake.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use aib_core::sync::{AtomicUsize, Ordering, RwLock, RwLockReadGuard};

use aib_core::{
    cover_tuple, maintain, maintain_partial_index, uncover_tuple, BufferConfig, BufferId,
    IndexBufferSpace, Predicate, ScanStats, SharedSpace, SnapshotCache, SpaceConfig, SpaceSnapshot,
    TupleRef,
};
use aib_index::{AdaptationCost, Coverage, IndexBackend, PartialIndex};
use aib_storage::stats::IoSnapshot;
use aib_storage::{
    BudgetSnapshot, BufferPool, BufferPoolConfig, CostModel, FileBackend, HeapFile, IoStats,
    MemoryBudget, OsDir, PageId, Rid, Schema, SlotId, StorageError, StoreDir, Tuple, Value, Wal,
    WalRecord,
};

use crate::commit::{checkpointer_loop, CommitPipeline};
use crate::durability::{DdlOp, IndexDef, SnapshotImage, TableImage};
use crate::error::{EngineError, EngineResult};
use crate::metrics::QueryMetrics;
use crate::query::{ExecOutcome, Query, QueryResult};
use crate::read::{PlanSource, SpaceAccess};
use crate::tuner::{OnlineTuner, TunerConfig};

/// Folded WAL replay work for one page: final slot states in slot order
/// (`None` = ends empty, `Some` = ends holding these bytes).
type PageOps = Vec<(SlotId, Option<Vec<u8>>)>;

/// Partial-index entries per leaf page, for adaptation cost accounting.
const INDEX_ENTRIES_PER_PAGE: u64 = 400;

/// The heap file and the log of a durable database, in its directory.
const HEAP_FILE: &str = "heap.db";
const WAL_FILE: &str = "wal.log";

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Buffer-pool frames (8 KiB each).
    pub pool_frames: usize,
    /// Simulated I/O cost model.
    pub cost_model: CostModel,
    /// Index Buffer Space parameters (`L`, `I^MAX`, seed).
    pub space: SpaceConfig,
    /// Ignored: a query's sweep runs on the calling thread. The field stays
    /// only because the frozen `e2e/` spells it (ROADMAP item 1 drops it).
    pub scan_threads: usize,
    /// Durable databases ([`Database::open`]) checkpoint automatically
    /// after this many WAL records: dirty pages are flushed and fsynced,
    /// then the log rotates to a snapshot plus whatever was committed
    /// meanwhile. The checkpoint runs on a background thread — the commit
    /// that crosses the threshold only flags it — and holds the catalog
    /// lock only to copy what it will flush, so neither the interval nor
    /// the flush stalls in-flight commits.
    /// Irrelevant for in-memory databases ([`Database::new`]), which have
    /// no WAL.
    pub wal_checkpoint_interval: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pool_frames: 1024,
            cost_model: CostModel::default(),
            space: SpaceConfig::default(),
            scan_threads: 1,
            wal_checkpoint_interval: 4096,
        }
    }
}

/// One partially indexed column of a table.
pub(crate) struct IndexedColumn {
    column: usize,
    pub(crate) partial: PartialIndex,
    pub(crate) buffer: Option<BufferId>,
    tuner: Option<OnlineTuner>,
    /// The DDL-time definition as the WAL sees it: coverage set by
    /// create/redefine (never by tuner adaptation) and buffer config.
    /// Checkpoints snapshot this, so recovery reverts adaptation.
    logged: IndexDef,
}

/// A table: schema, heap storage, and its indexed columns.
pub struct Table {
    name: String,
    schema: Schema,
    pub(crate) heap: HeapFile,
    indexed: Vec<IndexedColumn>,
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of pages in the heap.
    pub fn num_pages(&self) -> u32 {
        self.heap.num_pages()
    }

    /// Number of live tuples.
    pub fn live_tuples(&self) -> u64 {
        self.heap.live_tuples()
    }

    /// All live tuples with their rids, in page order (test/inspection aid;
    /// costs a full scan). Reads run through the batched sweep path
    /// ([`HeapFile::sweep_read_runs`]) — one pool pass and one batched disk
    /// request per page batch, not a pin round-trip per page.
    pub fn scan_all(&self) -> EngineResult<Vec<(Rid, Tuple)>> {
        self.tuples_in(0..self.heap.num_pages())
    }

    /// Live tuples of one page by table-local ordinal (test/inspection aid).
    /// Single-page run through the same batched sweep path as
    /// [`Table::scan_all`].
    pub fn page_tuples(&self, ordinal: u32) -> EngineResult<Vec<(Rid, Tuple)>> {
        self.tuples_in(ordinal..ordinal.saturating_add(1))
    }

    fn tuples_in(&self, pages: std::ops::Range<u32>) -> EngineResult<Vec<(Rid, Tuple)>> {
        let mut out = Vec::new();
        let mut err: Option<StorageError> = None;
        self.heap
            .sweep_read_runs([(pages, false)], |_ord, pid, view| {
                for (slot, bytes) in view.iter() {
                    match Tuple::from_bytes(bytes) {
                        Ok(t) => out.push((Rid { page: pid, slot }, t)),
                        Err(e) => {
                            err.get_or_insert(e);
                        }
                    }
                }
            })?;
        match err {
            Some(e) => Err(e.into()),
            None => Ok(out),
        }
    }

    /// Table-local ordinal of a rid's page (test/inspection aid).
    pub fn page_ordinal(&self, rid: Rid) -> Option<u32> {
        self.heap.ordinal_of(rid.page)
    }

    fn indexed_column(&self, column: usize) -> Option<usize> {
        self.indexed.iter().position(|ic| ic.column == column)
    }

    /// The partial index (with its buffer and tuner) on `column`, if any.
    pub(crate) fn index_on(&self, column: usize) -> Option<&IndexedColumn> {
        self.indexed.iter().find(|ic| ic.column == column)
    }

    /// Whether `column` has an online tuner attached.
    fn tuned(&self, column: usize) -> bool {
        self.index_on(column).is_some_and(|ic| ic.tuner.is_some())
    }

    fn ordinal(&self, rid: Rid) -> Result<u32, StorageError> {
        self.heap
            .ordinal_of(rid.page)
            .ok_or(StorageError::UnknownPage(rid.page))
    }
}

/// The table/index layer of the engine: everything DML and DDL mutate that
/// is not the Index Buffer Space. Guarded by the catalog `RwLock` — the
/// outermost lock of the engine hierarchy.
struct Catalog {
    tables: Vec<Table>,
    names: HashMap<String, usize>,
    /// Bumped by the write section of every DML and DDL statement
    /// (`Database::write_section`). A tune section applies a decision only
    /// if the count still equals the one its read saw, so the read's rids
    /// are still exactly the rows holding the queried value.
    /// Tuning itself leaves it alone: covering a value moves no row.
    mutations: u64,
}

impl Catalog {
    fn table_index(&self, name: &str) -> EngineResult<usize> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    fn column_index(&self, table: usize, column: &str) -> EngineResult<usize> {
        self.tables[table]
            .schema
            .column_index(column)
            .ok_or_else(|| EngineError::UnknownColumn(column.to_string()))
    }

    /// Table, column and slot of the partial index on `table.column`.
    fn index_slot(&self, table: &str, column: &str) -> EngineResult<(usize, usize, usize)> {
        let ti = self.table_index(table)?;
        let ci = self.column_index(ti, column)?;
        let slot = self.tables[ti]
            .indexed_column(ci)
            .ok_or_else(|| EngineError::NoSuchIndex(format!("{table}.{column}")))?;
        Ok((ti, ci, slot))
    }

    /// Inserts a run of tuples of one table through
    /// [`HeapFile::insert_run`] (one heap lock, one page latch per page
    /// filled — and exactly the placement of one-by-one inserts), then logs
    /// each placed tuple and maintains every index for it. Stops at the
    /// first tuple that fails; the ones before it are applied and logged.
    /// Shared by [`Database::insert`] (a run of one) and
    /// [`Database::execute_batch`].
    fn insert_run(
        &mut self,
        space: &mut IndexBufferSpace,
        table: &str,
        tuples: &[&Tuple],
        records: &mut Vec<WalRecord>,
    ) -> EngineResult<Vec<Rid>> {
        let ti = self.table_index(table)?;
        let t = &mut self.tables[ti];
        let mut invalid = None;
        let mut encoded = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            match tuple.to_bytes_checked(&t.schema) {
                Ok(bytes) => encoded.push(bytes),
                Err(e) => {
                    invalid = Some(e);
                    break;
                }
            }
        }
        let mut placed = Vec::with_capacity(encoded.len());
        let images: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let landed = t.heap.insert_run(&images, &mut placed);
        drop(images);
        let mut rids = Vec::with_capacity(placed.len());
        for ((rid, page), (tuple, bytes)) in placed.into_iter().zip(tuples.iter().zip(encoded)) {
            let table = ti as u32;
            records.push(WalRecord::Insert { table, rid, bytes });
            for ic in &mut t.indexed {
                let value = column_value(tuple, ic.column)?;
                apply_maintenance(space, ic, None, Some(TupleRef::new(value, rid, page)))?;
            }
            rids.push(rid);
        }
        landed?;
        invalid.map_or(Ok(rids), |e| Err(e.into()))
    }

    /// Deletes the tuple at `rid` and logs it (Table I, delete row).
    fn delete(
        &mut self,
        space: &mut IndexBufferSpace,
        table: &str,
        rid: Rid,
        records: &mut Vec<WalRecord>,
    ) -> EngineResult<()> {
        let ti = self.table_index(table)?;
        let t = &mut self.tables[ti];
        let old = Tuple::from_bytes(&t.heap.get(rid)?)?;
        t.heap.delete(rid)?;
        records.push(WalRecord::Delete {
            table: ti as u32,
            rid,
        });
        let page = t.ordinal(rid)?;
        for ic in &mut t.indexed {
            let value = column_value(&old, ic.column)?;
            apply_maintenance(space, ic, Some(TupleRef::new(value, rid, page)), None)?;
        }
        Ok(())
    }

    /// Updates the tuple at `rid` and logs it, returning its possibly new
    /// record id (Table I, full matrix).
    fn update(
        &mut self,
        space: &mut IndexBufferSpace,
        table: &str,
        rid: Rid,
        tuple: &Tuple,
        records: &mut Vec<WalRecord>,
    ) -> EngineResult<Rid> {
        let ti = self.table_index(table)?;
        let t = &mut self.tables[ti];
        let bytes = tuple.to_bytes_checked(&t.schema)?;
        let old = Tuple::from_bytes(&t.heap.get(rid)?)?;
        let old_page = t.ordinal(rid)?;
        let new_rid = t.heap.update(rid, &bytes)?;
        records.push(WalRecord::Update {
            table: ti as u32,
            old: rid,
            new: new_rid,
            bytes,
        });
        let new_page = t.ordinal(new_rid)?;
        for ic in &mut t.indexed {
            let old_value = column_value(&old, ic.column)?;
            let new_value = column_value(tuple, ic.column)?;
            apply_maintenance(
                space,
                ic,
                Some(TupleRef::new(old_value, rid, old_page)),
                Some(TupleRef::new(new_value, new_rid, new_page)),
            )?;
        }
        Ok(new_rid)
    }
}

/// Read access to one table of a shared database: an RAII guard over the
/// catalog read lock that dereferences to the [`Table`]. Holding it blocks
/// DML/DDL (catalog writers), so keep it scoped — exactly like holding any
/// read lock.
pub struct TableRef<'a> {
    guard: RwLockReadGuard<'a, Catalog>,
    index: usize,
}

impl std::ops::Deref for TableRef<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        &self.guard.tables[self.index]
    }
}

/// Read access to the Index Buffer Space: an RAII guard over its read lock,
/// dereferencing to the [`IndexBufferSpace`]. Obtain it from
/// [`Database::space`]; holding it blocks the space's writers (scans'
/// staged apply, DML maintenance). Keep it scoped.
pub struct SpaceRef<'a> {
    guard: RwLockReadGuard<'a, IndexBufferSpace>,
}

impl std::ops::Deref for SpaceRef<'_> {
    type Target = IndexBufferSpace;
    fn deref(&self) -> &IndexBufferSpace {
        &self.guard
    }
}

/// The database facade. Shareable across client threads: every method takes
/// `&self`, so queries and DML can run from an `Arc<Database>` (see
/// [`crate::ClientHandle`]).
///
/// ```
/// use aib_core::BufferConfig;
/// use aib_engine::{AccessPath, Database, Query};
/// use aib_index::{Coverage, IndexBackend};
/// use aib_storage::{Column, Schema, Tuple, Value};
///
/// let db = Database::with_defaults();
/// db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("v")])).unwrap();
/// for i in 0..100i64 {
///     db.insert("t", &Tuple::new(vec![Value::Int(i), Value::from("x")])).unwrap();
/// }
/// db.create_partial_index("t", "k", Coverage::IntRange { lo: 0, hi: 49 },
///                         IndexBackend::BTree, Some(BufferConfig::default())).unwrap();
///
/// // Covered value: partial index hit.
/// let r = db.execute(&Query::on("t", "k").eq(7i64)).unwrap().result;
/// assert_eq!((r.path, r.count()), (AccessPath::PartialIndex, 1));
///
/// // Uncovered value: indexing scan builds the buffer; the repeat skips.
/// let m1 = db.execute(&Query::on("t", "k").eq(70i64)).unwrap().metrics;
/// let m2 = db.execute(&Query::on("t", "k").eq(71i64)).unwrap().metrics;
/// assert!(m1.scan.unwrap().pages_indexed > 0);
/// assert_eq!(m2.scan.unwrap().pages_read, 0);
/// ```
pub struct Database {
    pool: Arc<BufferPool>,
    pub(crate) stats: Arc<IoStats>,
    budget: Arc<MemoryBudget>,
    /// Shared with the background checkpointer thread, which takes the
    /// write lock for the checkpoint cut exactly like a DML caller.
    catalog: Arc<RwLock<Catalog>>,
    pub(crate) space: SharedSpace,
    pub(crate) config: EngineConfig,
    queries_executed: AtomicUsize,
    /// `Some` for file-backed databases ([`Database::open`]): the
    /// group-commit pipeline owning the WAL (see `crate::commit`). Its
    /// locks are leaves — commits stage under the catalog write lock but
    /// wait for their fsync only *after* releasing every engine lock.
    durability: Option<Arc<CommitPipeline>>,
    /// Background checkpoint thread ([`Database::open`] spawns it, drop
    /// joins it); rotation runs here so the periodic checkpoint never
    /// stalls the commit that crossed the interval.
    checkpointer: Option<std::thread::JoinHandle<()>>,
}

/// `Database` must stay shareable across client threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>()
};

/// One operation of a [`Database::execute_batch`] call. Owned (rather than
/// borrowed) fields keep batches buildable incrementally and sendable
/// across client threads.
#[derive(Debug, Clone)]
pub enum BatchOp {
    /// Insert `tuple` into `table` (see [`Database::insert`]).
    Insert {
        /// Target table name.
        table: String,
        /// The tuple to insert.
        tuple: Tuple,
    },
    /// Delete the tuple at `rid` (see [`Database::delete`]).
    Delete {
        /// Target table name.
        table: String,
        /// The tuple to delete.
        rid: Rid,
    },
    /// Update the tuple at `rid` (see [`Database::update`]).
    Update {
        /// Target table name.
        table: String,
        /// The tuple to replace.
        rid: Rid,
        /// Its new contents.
        tuple: Tuple,
    },
}

/// Where a checkpoint stands when it calls the observer of
/// [`Database::checkpoint_observed`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPhase {
    /// The cut is marked and the catalog lock released; the frozen pages are
    /// about to be flushed. Commits from here on land behind the cut.
    Captured,
    /// The heap file is flushed and fsynced; the log has not rotated yet.
    Flushed,
}

/// A query's start stamp; see [`Database::start_query`].
struct QueryClock {
    seq: usize,
    before: IoSnapshot,
    start: Instant,
}

impl Database {
    /// Creates an empty **in-memory** database: pages live in a
    /// [`FileBackend`] over an in-memory file, nothing survives the process,
    /// and no WAL is written. This is the benchmark default — deterministic
    /// and bit-for-bit identical to the pre-durability engine.
    pub fn new(config: EngineConfig) -> Self {
        Self::assemble(FileBackend::new(config.cost_model), config)
    }

    /// Opens (or creates) a **durable** database in directory `dir`:
    /// a single heap file (`heap.db`, one versioned header page plus 8 KiB
    /// data pages) and a write-ahead log (`wal.log`).
    ///
    /// Recovery is the paper's §V contract made concrete. The WAL is
    /// replayed to rebuild the catalog and the logical heap (last-write-wins
    /// slot states over whatever the last checkpoint flushed), and then each
    /// partial index is rebuilt by **one heap rescan** that simultaneously
    /// re-derives its `C[p]` counters — the same scan that
    /// [`Database::create_partial_index`] runs. The Index Buffer Space
    /// starts *empty* with fresh epochs: buffer contents, counter deltas and
    /// partial-index adaptation are never logged, so a crash simply reverts
    /// every index to its DDL-time coverage. Tuners are runtime-only and do
    /// not survive reopening.
    ///
    /// On success the database has already checkpointed once, compacting
    /// the log to a single snapshot record.
    pub fn open(dir: impl AsRef<Path>, config: EngineConfig) -> EngineResult<Self> {
        let dir = OsDir::create(dir.as_ref())
            .map_err(|e| StorageError::io("create database directory", e))?;
        Self::open_in(Arc::new(dir), config)
    }

    /// [`Database::open`] on any directory of the file seam — the real file
    /// system, or an in-memory [`aib_storage::MemDir`] that a test can cut
    /// the power of. The durable engine runs unchanged: WAL, group commit,
    /// checkpoints and recovery.
    pub fn open_in(dir: Arc<dyn StoreDir>, config: EngineConfig) -> EngineResult<Self> {
        // Recovery reads `heap.db` and `wal.log` and nothing else: what a
        // crashed rotation left beside the log goes first.
        Wal::remove_side_files(&*dir, WAL_FILE)?;
        let backend = FileBackend::open_in(&*dir, HEAP_FILE, config.cost_model)?;
        let heap_pages = backend.num_pages();
        let mut db = Self::assemble(backend, config);
        let records = Wal::replay_in(&*dir, WAL_FILE)?;
        // Pages become durable only at a checkpoint, and the first one comes
        // after the log exists: a heap with pages and no log has lost it.
        if records.is_empty() && heap_pages > 0 {
            return Err(StorageError::Corrupt(format!(
                "heap.db holds {heap_pages} pages but wal.log has no record of them"
            ))
            .into());
        }
        db.recover(&records)?;
        // The opening checkpoint: the recovered heap reaches the file, then
        // a compact log holding only its snapshot replaces whatever was
        // replayed (or creates the log — one rename, one directory fsync).
        db.pool.sync()?;
        let snapshot = WalRecord::Snapshot(snapshot_image(&db.catalog.read()).encode());
        let pipeline = Arc::new(CommitPipeline::new(
            Wal::create(dir, WAL_FILE, &snapshot)?,
            db.config.wal_checkpoint_interval,
        ));
        db.durability = Some(Arc::clone(&pipeline));
        // The background checkpointer owns periodic rotation from here on:
        // the commit that crosses `wal_checkpoint_interval` only flags the
        // checkpoint as due and unparks this thread, so the rotation's
        // pool flush never sits on any commit's latency path.
        let thread_pool = Arc::clone(&db.pool);
        let thread_catalog = Arc::clone(&db.catalog);
        let thread_pipeline = Arc::clone(&pipeline);
        let handle = std::thread::Builder::new()
            .name("aib-checkpoint".into())
            .spawn(move || {
                checkpointer_loop(&thread_pipeline, || {
                    // Periodic: rotate over the retired log's blocks.
                    checkpoint_core(
                        &thread_pool,
                        &thread_catalog,
                        &thread_pipeline,
                        true,
                        &mut |_| {},
                    )
                    .map_err(|e| e.to_string())
                })
            })
            .map_err(|e| StorageError::io("spawn checkpoint thread", e))?;
        pipeline.register_checkpointer(handle.thread().clone());
        db.checkpointer = Some(handle);
        Ok(db)
    }

    /// Shared constructor over a page store.
    fn assemble(disk: FileBackend, config: EngineConfig) -> Self {
        let stats = disk.stats();
        // One governor for the whole engine: the pool charges its frames to
        // it and the space reads Algorithm 2's headroom under its own cap.
        let budget = Arc::new(MemoryBudget::new(config.space.max_bytes));
        let pool = BufferPool::new(
            disk,
            BufferPoolConfig::lru(config.pool_frames).with_budget(Arc::clone(&budget)),
        );
        let space = SharedSpace::with_budget(config.space, Arc::clone(&budget));
        Database {
            pool,
            stats,
            space,
            budget,
            catalog: Arc::new(RwLock::new(Catalog {
                tables: Vec::new(),
                names: HashMap::new(),
                mutations: 0,
            })),
            config,
            queries_executed: AtomicUsize::new(0),
            durability: None,
            checkpointer: None,
        }
    }

    /// A database with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// Wraps this database in an [`Arc`] ready to hand to client threads
    /// (each one via [`crate::ClientHandle::new`] or a plain clone).
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Shared I/O statistics.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Read-locks the Index Buffer Space (inspection). The guard
    /// dereferences to the [`IndexBufferSpace`]; holding it blocks scans'
    /// write sections and DML maintenance, so keep it scoped.
    pub fn space(&self) -> SpaceRef<'_> {
        SpaceRef {
            guard: self.space.read(),
        }
    }

    /// An epoch-validated, read-only snapshot of the whole Index Buffer
    /// Space: per-buffer entry counts, footprints and skip bitsets, with no
    /// lock held by the caller afterwards. Cheap while nothing mutates
    /// (returns the published snapshot after plain atomic validation);
    /// rebuilds under a short read lock otherwise.
    pub fn space_snapshot(&self) -> Arc<SpaceSnapshot> {
        self.space.space_snapshot()
    }

    /// Checks the Index Buffer Space's structural invariants, including the
    /// budget reconciliation (tests; panics on violation).
    pub fn check_space_invariants(&self) {
        self.space.check_invariants();
    }

    /// The shared memory governor (inspection).
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// A point-in-time copy of the governor's byte counters, after
    /// reconciling the space's resident footprint.
    pub fn memory(&self) -> BudgetSnapshot {
        self.space.read().sync_budget();
        self.budget.snapshot()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    // ------------------------------------------------------- durability

    /// Whether this database is file-backed (opened with
    /// [`Database::open`]) rather than in-memory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Forces a checkpoint: flushes every dirty page to the heap file
    /// (fsync), then rotates the WAL to a compact fresh log holding a catalog
    /// snapshot and whatever was committed while the flush ran — nothing,
    /// for a caller that is alone. After a clean checkpoint, reopening
    /// replays nothing. A no-op for in-memory databases.
    ///
    /// Explicit checkpoints stay synchronous; only the *periodic*
    /// checkpoint (every [`EngineConfig::wal_checkpoint_interval`]
    /// records) runs on the background thread, off the commit path. Either
    /// holds the catalog lock only while it captures what to flush (see
    /// `checkpoint_core`).
    pub fn checkpoint(&self) -> EngineResult<()> {
        let Some(pipeline) = &self.durability else {
            return Ok(());
        };
        checkpoint_core(&self.pool, &self.catalog, pipeline, false, &mut |_| {})
    }

    /// Crash-point hook (tests): a checkpoint on the caller's thread,
    /// recycled like the periodic one, that calls `observe` at each phase
    /// boundary with no engine lock held, so a test can commit
    /// behind the cut and copy the directory as a crash there would leave it.
    #[doc(hidden)]
    pub fn checkpoint_observed(
        &self,
        observe: &mut dyn FnMut(CheckpointPhase),
    ) -> EngineResult<()> {
        let Some(pipeline) = &self.durability else {
            return Ok(());
        };
        checkpoint_core(&self.pool, &self.catalog, pipeline, true, observe)
    }

    /// Checkpoints and releases the database. Durable state needs nothing
    /// beyond [`Database::checkpoint`] — every DML record was fsynced
    /// before its commit was acked, so even skipping `close` loses
    /// nothing; closing just compacts the log so the next open replays
    /// nothing (and, the background checkpointer being stopped first,
    /// leaves no recycled log beside it). Also surfaces any failure the
    /// background checkpointer recorded since the last `close`-or-open.
    pub fn close(mut self) -> EngineResult<()> {
        let Some(pipeline) = self.durability.clone() else {
            return Ok(());
        };
        pipeline.shutdown();
        if let Some(handle) = self.checkpointer.take() {
            let _ = handle.join();
        }
        self.checkpoint()?;
        if let Some(message) = pipeline.take_background_error() {
            return Err(EngineError::Internal(format!(
                "background checkpoint failed: {message}"
            )));
        }
        Ok(())
    }

    /// One statement's write section, the protocol every DML and DDL
    /// statement runs: under the catalog write lock `body` mutates and
    /// pushes the WAL records of what it applied. Those records are staged
    /// on the commit pipeline before the lock drops — also when `body`
    /// fails, so a failing batch logs its applied prefix — and the
    /// statement is acked only after their covering fsync, awaited with no
    /// engine lock held (in-memory databases log nothing). The one place
    /// the catalog's mutation count moves.
    fn write_section<R>(
        &self,
        body: impl FnOnce(&mut Catalog, &mut Vec<WalRecord>) -> EngineResult<R>,
    ) -> EngineResult<R> {
        let (out, ticket) = {
            let mut catalog = self.catalog.write();
            catalog.mutations += 1;
            let mut records = Vec::new();
            let out = body(&mut catalog, &mut records);
            let ticket = self.durability.as_ref().and_then(|p| p.stage(&records));
            self.verify_checkpoint_now(&catalog)?;
            (out, ticket)
        };
        if let (Some(pipeline), Some(ticket)) = (&self.durability, ticket) {
            pipeline.wait_durable(ticket)?;
        }
        out
    }

    /// Records appended to the WAL through this handle (0 for in-memory
    /// databases). Crash tests assert this stays **flat** across buffer
    /// growth and tuner adaptation — the paper's "no recovery cost"
    /// property is precisely that those mutations produce no log traffic.
    pub fn wal_records_written(&self) -> u64 {
        self.durability.as_ref().map_or(0, |p| p.records_written())
    }

    /// Covering fsyncs the WAL has issued (0 for in-memory databases).
    /// `wal_records_written() / wal_fsyncs()` is the group-commit
    /// amortization factor the durability bench reports.
    pub fn wal_fsyncs(&self) -> u64 {
        self.durability.as_ref().map_or(0, |p| p.wal_syncs())
    }

    /// Rebuilds the whole engine state from replayed WAL `records` into
    /// this freshly assembled (empty) database. Three phases:
    ///
    /// 1. **Metadata** — the leading snapshot (if any) plus DDL records in
    ///    log order yield the final catalog image; DML records fold into a
    ///    last-write-wins slot image per table.
    /// 2. **Heap** — each table adopts its snapshot page list, then forces
    ///    the folded slot states via [`HeapFile::replay_page`].
    /// 3. **Indexes** — one rescan per index definition rebuilds the
    ///    partial index *and* its `C[p]` counters, registering an empty
    ///    Index Buffer; nothing index- or buffer-shaped is read from disk.
    fn recover(&self, records: &[WalRecord]) -> EngineResult<()> {
        let mut images: Vec<TableImage> = Vec::new();
        let mut rest = records;
        if let Some(WalRecord::Snapshot(bytes)) = records.first() {
            images = SnapshotImage::decode(bytes)?.tables;
            rest = records.get(1..).unwrap_or(&[]);
        }
        let mut final_ops: HashMap<u32, BTreeMap<Rid, Option<Vec<u8>>>> = HashMap::new();
        for record in rest {
            match record {
                WalRecord::Insert { table, rid, bytes } => {
                    final_ops
                        .entry(*table)
                        .or_default()
                        .insert(*rid, Some(bytes.clone()));
                }
                WalRecord::Delete { table, rid } => {
                    final_ops.entry(*table).or_default().insert(*rid, None);
                }
                WalRecord::Update {
                    table,
                    old,
                    new,
                    bytes,
                } => {
                    let ops = final_ops.entry(*table).or_default();
                    ops.insert(*old, None);
                    ops.insert(*new, Some(bytes.clone()));
                }
                WalRecord::Ddl(payload) => match DdlOp::decode(payload)? {
                    DdlOp::CreateTable { name, schema } => images.push(TableImage {
                        name,
                        schema,
                        pages: Vec::new(),
                        indexes: Vec::new(),
                    }),
                    DdlOp::CreateIndex { table, def } => {
                        table_image_mut(&mut images, table)?.indexes.push(def);
                    }
                    DdlOp::DropIndex { table, column } => {
                        table_image_mut(&mut images, table)?
                            .indexes
                            .retain(|d| d.column != column);
                    }
                    DdlOp::RedefineCoverage {
                        table,
                        column,
                        coverage,
                    } => {
                        let image = table_image_mut(&mut images, table)?;
                        let def = image
                            .indexes
                            .iter_mut()
                            .find(|d| d.column == column)
                            .ok_or_else(|| {
                                EngineError::Internal(format!(
                                    "wal redefines unknown index on column {column}"
                                ))
                            })?;
                        def.coverage = coverage;
                    }
                },
                WalRecord::Snapshot(_) => {
                    return Err(EngineError::Internal(
                        "snapshot record in the middle of the wal".into(),
                    ));
                }
            }
        }

        let mut catalog = self.catalog.write();
        for (ti, image) in images.into_iter().enumerate() {
            let heap = HeapFile::new(Arc::clone(&self.pool));
            heap.adopt_pages(&image.pages)?;
            if let Some(ops) = final_ops.remove(&(ti as u32)) {
                // Group folded slot ops by page. BTreeMap iteration is
                // rid-ascending, so pages first seen here adopt in
                // ascending page-id order — each table's original
                // creation order.
                let mut by_page: Vec<(PageId, PageOps)> = Vec::new();
                for (rid, bytes) in ops {
                    match by_page.last_mut() {
                        Some((pid, slots)) if *pid == rid.page => slots.push((rid.slot, bytes)),
                        _ => by_page.push((rid.page, vec![(rid.slot, bytes)])),
                    }
                }
                for (pid, slots) in by_page {
                    let refs: Vec<(SlotId, Option<&[u8]>)> =
                        slots.iter().map(|(s, b)| (*s, b.as_deref())).collect();
                    heap.replay_page(pid, &refs)?;
                }
            }
            let name = image.name.clone();
            let mut table = Table {
                name: image.name,
                schema: image.schema,
                heap,
                indexed: Vec::new(),
            };
            for def in image.indexes {
                let ic = self.build_index_from_heap(&table, def)?;
                table.indexed.push(ic);
            }
            catalog.names.insert(name, ti);
            catalog.tables.push(table);
        }
        Ok(())
    }

    /// Builds one index definition from the heap: the populate-and-count
    /// scan behind [`Database::create_partial_index`] and behind recovery
    /// phase 3 (there against the recovered heap and the *logged*, DDL-time
    /// coverage). The returned column registers an **empty** buffer whose
    /// `C[p]` counters come from this scan — the "for free" rebuild.
    fn build_index_from_heap(&self, t: &Table, def: IndexDef) -> EngineResult<IndexedColumn> {
        let ci = def.column as usize;
        let column_name = t
            .schema
            .columns()
            .get(ci)
            .map(|c| c.name.clone())
            .ok_or_else(|| {
                EngineError::Internal(format!("logged index column {ci} out of schema range"))
            })?;
        let name = format!("{}.{}", t.name, column_name);
        let mut partial =
            PartialIndex::new(name.clone(), def.coverage.clone(), IndexBackend::BTree).with_cost(
                AdaptationCost::charged(
                    Arc::clone(&self.stats),
                    self.config.cost_model,
                    INDEX_ENTRIES_PER_PAGE,
                ),
            );
        let counts = populate_from_heap(&t.heap, ci, &mut partial)?;
        let buffer = def.buffer.map(|cfg| self.space.register(name, cfg, counts));
        Ok(IndexedColumn {
            column: ci,
            partial,
            buffer,
            tuner: None,
            logged: def,
        })
    }

    /// Creates an empty table.
    ///
    /// Fails with [`EngineError::TableExists`] if a table of that name
    /// already exists.
    pub fn create_table(&self, name: impl Into<String>, schema: Schema) -> EngineResult<()> {
        let name = name.into();
        self.write_section(|catalog, records| {
            if catalog.names.contains_key(&name) {
                return Err(EngineError::TableExists(name));
            }
            let ddl = DdlOp::CreateTable {
                name: name.clone(),
                schema: schema.clone(),
            };
            records.push(WalRecord::Ddl(ddl.encode()));
            catalog.names.insert(name.clone(), catalog.tables.len());
            catalog.tables.push(Table {
                name,
                schema,
                heap: HeapFile::new(Arc::clone(&self.pool)),
                indexed: Vec::new(),
            });
            Ok(())
        })
    }

    /// Looks up a table, returning a read guard that dereferences to it.
    pub fn table(&self, name: &str) -> EngineResult<TableRef<'_>> {
        let guard = self.catalog.read();
        let index = guard.table_index(name)?;
        Ok(TableRef { guard, index })
    }

    // ------------------------------------------------------------------ DML

    /// Inserts a tuple, maintaining all partial indexes and Index Buffers
    /// (Table I, insert column). For a durable database the insert is
    /// staged on the group-commit pipeline and acked only after its
    /// covering fsync; see `crate::commit`.
    pub fn insert(&self, table: &str, tuple: &Tuple) -> EngineResult<Rid> {
        self.write_section(|catalog, records| {
            let rids = catalog.insert_run(&mut self.space.write(), table, &[tuple], records)?;
            rids.first()
                .copied()
                .ok_or_else(|| EngineError::Internal("insert placed nothing".into()))
        })
    }

    /// Deletes the tuple at `rid` (Table I, delete row).
    pub fn delete(&self, table: &str, rid: Rid) -> EngineResult<()> {
        self.write_section(|catalog, records| {
            catalog.delete(&mut self.space.write(), table, rid, records)
        })
    }

    /// Updates the tuple at `rid`, returning its possibly new record id
    /// (Table I, full matrix — the tuple may change pages).
    pub fn update(&self, table: &str, rid: Rid, tuple: &Tuple) -> EngineResult<Rid> {
        self.write_section(|catalog, records| {
            catalog.update(&mut self.space.write(), table, rid, tuple, records)
        })
    }

    /// Applies a batch of DML operations in **one** write section, so the
    /// batch takes the catalog and space locks once and rides **one**
    /// commit-pipeline ticket: a single client amortizes the covering fsync
    /// across the whole batch exactly like concurrent writers do. Returns
    /// one entry per op: the new [`Rid`] for inserts and updates, `None`
    /// for deletes.
    ///
    /// The batch is **not atomic**: ops apply in order, and on the first
    /// failing op the batch stops — the applied prefix is still staged and
    /// made durable (its fsync is awaited) before the error is returned,
    /// matching the "every acked mutation is durable" contract op by op.
    pub fn execute_batch(&self, ops: &[BatchOp]) -> EngineResult<Vec<Option<Rid>>> {
        self.write_section(|catalog, records| {
            let mut space = self.space.write();
            let mut rids = Vec::with_capacity(ops.len());
            let mut rest = ops;
            while let Some((op, after)) = rest.split_first() {
                rest = after;
                match op {
                    BatchOp::Insert { table, tuple } => {
                        // The whole run of inserts into this table at once.
                        let mut run = vec![tuple];
                        while let Some((BatchOp::Insert { table: next, tuple }, after)) =
                            rest.split_first()
                        {
                            if next != table {
                                break;
                            }
                            run.push(tuple);
                            rest = after;
                        }
                        let placed = catalog.insert_run(&mut space, table, &run, records)?;
                        rids.extend(placed.into_iter().map(Some));
                    }
                    BatchOp::Delete { table, rid } => {
                        catalog.delete(&mut space, table, *rid, records)?;
                        rids.push(None);
                    }
                    BatchOp::Update { table, rid, tuple } => {
                        rids.push(Some(
                            catalog.update(&mut space, table, *rid, tuple, records)?,
                        ));
                    }
                }
            }
            Ok(rids)
        })
    }

    /// Fetches the tuple at `rid`.
    pub fn fetch(&self, table: &str, rid: Rid) -> EngineResult<Tuple> {
        let catalog = self.catalog.read();
        let ti = catalog.table_index(table)?;
        Ok(Tuple::from_bytes(&catalog.tables[ti].heap.get(rid)?)?)
    }

    // ---------------------------------------------------------------- DDL

    /// Creates a partial index on `column` with the given `coverage`,
    /// scanning the table to populate it, and — when `buffer` is given — an
    /// Index Buffer whose counters are initialised from the scan
    /// ("the array of all counters is initialized during the creation of
    /// the partial index", paper §III). The build is the same
    /// populate-and-count scan recovery runs.
    ///
    /// `_backend` has one value and is kept only because the frozen
    /// benchmark passes it (see [`IndexBackend`]).
    pub fn create_partial_index(
        &self,
        table: &str,
        column: &str,
        coverage: Coverage,
        _backend: IndexBackend,
        buffer: Option<BufferConfig>,
    ) -> EngineResult<()> {
        self.write_section(|catalog, records| {
            let ti = catalog.table_index(table)?;
            let ci = catalog.column_index(ti, column)?;
            if catalog.tables[ti].indexed_column(ci).is_some() {
                return Err(EngineError::IndexExists(format!("{table}.{column}")));
            }
            let def = IndexDef {
                column: ci as u32,
                coverage,
                buffer,
            };
            let ic = self.build_index_from_heap(&catalog.tables[ti], def.clone())?;
            catalog.tables[ti].indexed.push(ic);
            self.space.read().sync_budget();
            let ddl = DdlOp::CreateIndex {
                table: ti as u32,
                def,
            };
            records.push(WalRecord::Ddl(ddl.encode()));
            Ok(())
        })
    }

    /// Drops the partial index of a column and unregisters its Index Buffer
    /// from the space. Subsequent queries on the column fall back to plain
    /// scans.
    pub fn drop_partial_index(&self, table: &str, column: &str) -> EngineResult<()> {
        self.write_section(|catalog, records| {
            let (ti, ci, slot) = catalog.index_slot(table, column)?;
            if let Some(bid) = catalog.tables[ti].indexed.remove(slot).buffer {
                self.space.unregister(bid);
            }
            let ddl = DdlOp::DropIndex {
                table: ti as u32,
                column: ci as u32,
            };
            records.push(WalRecord::Ddl(ddl.encode()));
            Ok(())
        })
    }

    /// Attaches an online tuner to an indexed column. The column's coverage
    /// must be a [`Coverage::Set`] (the tuner adapts value by value);
    /// anything else is [`EngineError::Unsupported`].
    pub fn attach_tuner(&self, table: &str, column: &str, config: TunerConfig) -> EngineResult<()> {
        self.write_section(|catalog, _| {
            let (ti, _, slot) = catalog.index_slot(table, column)?;
            let ic = &mut catalog.tables[ti].indexed[slot];
            if !matches!(ic.partial.coverage(), Coverage::Set(_)) {
                return Err(EngineError::Unsupported(format!(
                    "tuned columns need Coverage::Set, {table}.{column} has {:?}",
                    ic.partial.coverage()
                )));
            }
            ic.tuner = Some(OnlineTuner::new(config));
            Ok(())
        })
    }

    /// Replaces the coverage of an indexed column wholesale (experiment 4's
    /// partial-index redefinition), rebuilding entries and counters with a
    /// full scan.
    pub fn redefine_coverage(
        &self,
        table: &str,
        column: &str,
        coverage: Coverage,
    ) -> EngineResult<()> {
        self.write_section(|catalog, records| {
            let (ti, ci, slot) = catalog.index_slot(table, column)?;
            let t = &mut catalog.tables[ti];
            let ic = &mut t.indexed[slot];
            // Redefinition *is* DDL: the logged coverage moves with it
            // (unlike tuner adaptation, which recovery deliberately reverts).
            ic.logged.coverage = coverage.clone();
            let ddl = DdlOp::RedefineCoverage {
                table: ti as u32,
                column: ci as u32,
                coverage: coverage.clone(),
            };
            records.push(WalRecord::Ddl(ddl.encode()));
            ic.partial.redefine_coverage(coverage);
            // Rebuild entries and counters from the heap; any buffered pages
            // are invalidated (their composition changed under the buffer).
            // Both the clear and the counter reset bump the space epoch, so
            // snapshots published before the redefinition stop validating.
            if let Some(bid) = ic.buffer {
                self.space.write().clear_buffer(bid);
            }
            let counts = populate_from_heap(&t.heap, ci, &mut ic.partial)?;
            if let Some(bid) = ic.buffer {
                self.space.write().reset_counters(bid, counts);
            }
            Ok(())
        })
    }

    /// Drains under-occupied pages by relocating their tuples into pages
    /// with free space, maintaining every partial index and Index Buffer
    /// through the moves (Table I with `p_old ≠ p_new` and unchanged
    /// values). Pages holding fewer live tuples than `min_occupancy` times
    /// the table's average are drained. Returns `(pages_drained,
    /// tuples_moved)`.
    ///
    /// Vacuuming improves the physical/logical correlation story of paper
    /// Fig. 3 in reverse: it *concentrates* tuples, raising page occupancy
    /// so page-skipping decisions are about full pages. The whole vacuum is
    /// one write section: one covering fsync however many tuples moved.
    pub fn vacuum(&self, table: &str, min_occupancy: f64) -> EngineResult<(u32, u64)> {
        self.write_section(|catalog, records| {
            let mut space = self.space.write();
            let ti = catalog.table_index(table)?;
            let t = &mut catalog.tables[ti];
            let pages = t.heap.num_pages();
            if pages == 0 {
                return Ok((0, 0));
            }
            let avg = t.heap.live_tuples() as f64 / pages as f64;
            let threshold = (avg * min_occupancy).floor() as usize;
            let (mut drained, mut moved) = (0, 0);
            for ord in 0..pages {
                let tuples = t.page_tuples(ord)?;
                if tuples.is_empty() || tuples.len() >= threshold {
                    continue;
                }
                drained += 1;
                for (rid, tuple) in tuples {
                    let new_rid = t.heap.relocate(rid)?;
                    // A relocation is an update whose value didn't change.
                    records.push(WalRecord::Update {
                        table: ti as u32,
                        old: rid,
                        new: new_rid,
                        bytes: tuple.to_bytes(),
                    });
                    let new_ord = t.ordinal(new_rid)?;
                    moved += 1;
                    for ic in &mut t.indexed {
                        let value = column_value(&tuple, ic.column)?;
                        apply_maintenance(
                            &mut space,
                            ic,
                            Some(TupleRef::new(value.clone(), rid, ord)),
                            Some(TupleRef::new(value, new_rid, new_ord)),
                        )?;
                    }
                }
            }
            Ok((drained, moved))
        })
    }

    // ------------------------------------------------------------ queries

    /// Executes a query, returning the result set together with its full
    /// metrics as one [`ExecOutcome`].
    ///
    /// Safe to call from many client threads at once: every read holds the
    /// catalog read lock end to end and runs the plan → sweep → adapt
    /// pipeline of [`crate::read`], which plans lock-free from the
    /// published [`SpaceSnapshot`] and serializes on the space lock only
    /// for the short write sections (a selection the snapshot cannot
    /// prove, the staged apply). A point query on a tuned column then lets
    /// the tuner observe it in a short section of its own under the catalog
    /// write lock; a DML or DDL statement that committed since the read
    /// drops that observation.
    ///
    /// This entry point keeps a query-local [`SnapshotCache`]; clients
    /// issuing many queries should go through [`crate::ClientHandle`],
    /// which reuses one cache across calls.
    pub fn execute(&self, query: &Query) -> EngineResult<ExecOutcome> {
        let mut cache = SnapshotCache::new();
        let outcome = self.run_query(query, &mut cache);
        // Deferred Table II events outlive the cache only in the shared
        // pending cells; publish them before the cache drops.
        cache.flush();
        outcome
    }

    /// [`Database::execute`] with a caller-owned [`SnapshotCache`]: the
    /// cache carries the validated space snapshot and locally deferred
    /// Table II events across queries, so a run of fully-skippable queries
    /// performs no shared write at all until the next slow-path boundary
    /// (any lock acquisition) flushes and drains them in deferral order.
    pub(crate) fn run_query(
        &self,
        query: &Query,
        cache: &mut SnapshotCache,
    ) -> EngineResult<ExecOutcome> {
        let clock = self.start_query();
        let catalog = self.catalog.read();
        let ti = catalog.table_index(&query.table)?;
        let ci = catalog.column_index(ti, &query.column)?;
        let t = &catalog.tables[ti];
        let snapshot = cache.ensure(&self.space);
        let plan = self.plan_read(t, ci, &query.predicate, Some(snapshot));
        let source = plan.source;
        let (result, scan) =
            self.run_read(t, ci, &query.predicate, plan, SpaceAccess::Shared(cache))?;
        let tune = match &query.predicate {
            Predicate::Equals(value) if t.tuned(ci) => Some((value, catalog.mutations)),
            _ => None,
        };
        drop(catalog);
        if let Some((value, read_at)) = tune {
            self.tune(ti, ci, value, &result.rids, read_at, cache)?;
        }
        let buffer_entries = cache.ensure(&self.space).buffer_entries();
        let metrics = self.finish_metrics(clock, &result, scan, source, buffer_entries);
        // After the metrics: the shadow model's heap rescan is not the
        // query's I/O.
        #[cfg(feature = "invariant-checks")]
        self.verify_invariants()?;
        Ok(ExecOutcome { result, metrics })
    }

    /// The tune section of a point query on `value` that matched `rids`
    /// under a catalog read guard whose mutation count was `read_at`: under
    /// the catalog and space write guards the tuner observes the query and
    /// its decision is applied before the query returns. A count that moved
    /// means a statement may have changed which rows hold `value`, so the
    /// observation is dropped — the tuner never holds a decision the index
    /// did not get, and it decides again on the next query.
    ///
    /// The space guard is taken for a no-op decision too, for its drain of
    /// the client's deferred Table II events. A drain folds each buffer's
    /// deferred uses into one batch, so where drains fall shapes the LRU-K
    /// histories; a tuned point query drains before it returns, as it did
    /// when it ran under every lock.
    fn tune(
        &self,
        ti: usize,
        ci: usize,
        value: &Value,
        rids: &[Rid],
        read_at: u64,
        cache: &mut SnapshotCache,
    ) -> EngineResult<()> {
        let mut catalog = self.catalog.write();
        if catalog.mutations != read_at {
            return Ok(());
        }
        cache.flush();
        let mut space = self.space.write();
        apply_tuning(&mut catalog.tables[ti], ci, &mut space, value, rids)
    }

    /// The sequential reference executor: the same pipeline run with the
    /// catalog write lock and the space guard held, tuning included, so no
    /// other client can interleave — the only producer of
    /// [`PlanSource::Exclusive`]. `proptest_convergence` holds
    /// [`Database::execute`] to its answers and end state.
    #[doc(hidden)]
    pub fn execute_sequential(&self, query: &Query) -> EngineResult<ExecOutcome> {
        let clock = self.start_query();
        let mut catalog = self.catalog.write();
        let mut space = self.space.write();
        let catalog = &mut *catalog;
        let ti = catalog.table_index(&query.table)?;
        let ci = catalog.column_index(ti, &query.column)?;
        let plan = self.plan_read(&catalog.tables[ti], ci, &query.predicate, None);
        let source = plan.source;
        let (result, scan) = self.run_read(
            &catalog.tables[ti],
            ci,
            &query.predicate,
            plan,
            SpaceAccess::Held(&mut space),
        )?;
        if let Predicate::Equals(v) = &query.predicate {
            apply_tuning(&mut catalog.tables[ti], ci, &mut space, v, &result.rids)?;
        }
        space.sync_budget();
        let buffer_entries = space
            .buffer_ids()
            .map(|b| space.buffer(b).num_entries())
            .collect();
        let metrics = self.finish_metrics(clock, &result, scan, source, buffer_entries);
        drop(space);
        self.verify_checkpoint_now(catalog)?;
        Ok(ExecOutcome { result, metrics })
    }

    /// Stamps a query's start: its sequence number, the I/O counters and
    /// the wall clock, all taken before any engine lock.
    fn start_query(&self) -> QueryClock {
        QueryClock {
            // Relaxed: the sequence number only needs uniqueness, not
            // ordering against other memory operations.
            seq: self.queries_executed.fetch_add(1, Ordering::Relaxed),
            before: self.stats.snapshot(),
            start: Instant::now(),
        }
    }

    /// Assembles a query's [`QueryMetrics`]; `buffer_entries` comes from
    /// either the validated snapshot (shared run) or the held space guard
    /// (exclusive run), so no lock is taken here.
    fn finish_metrics(
        &self,
        clock: QueryClock,
        result: &QueryResult,
        scan: Option<ScanStats>,
        plan: PlanSource,
        buffer_entries: Vec<usize>,
    ) -> QueryMetrics {
        QueryMetrics {
            seq: clock.seq,
            path: result.path,
            plan,
            result_count: result.count(),
            io: self.stats.snapshot().since(&clock.before),
            wall: clock.start.elapsed(),
            scan,
            buffer_entries,
            memory: self.budget.snapshot(),
        }
    }

    /// Explains how a query would execute, without executing it: the plan
    /// the executor would run — access path, where the page selection comes
    /// from, how many pages the sweep would read vs. skip — and the exact
    /// cardinality when the partial index can answer it (§VI contrast: the
    /// Index Buffer's own bookkeeping makes this free, unlike what-if
    /// optimizer calls). Built from the very [`crate::read`] plan value
    /// `execute` consumes; the snapshot answers everything it needs without
    /// locking the space.
    pub fn explain(&self, query: &Query) -> EngineResult<crate::explain::Explanation> {
        let catalog = self.catalog.read();
        let ti = catalog.table_index(&query.table)?;
        let ci = catalog.column_index(ti, &query.column)?;
        let snapshot = self.space.space_snapshot();
        let table = &catalog.tables[ti];
        let plan = self.plan_read(table, ci, &query.predicate, Some(&snapshot));
        Ok(plan.explain(&snapshot, table.heap.sweep_batch_pages() as u32))
    }

    /// Coverage of an indexed column (inspection).
    pub fn coverage(&self, table: &str, column: &str) -> Option<Coverage> {
        self.inspect_index(table, column, |ic| ic.partial.coverage().clone())
    }

    /// Entries in the partial index of a column (inspection).
    pub fn partial_index_len(&self, table: &str, column: &str) -> Option<usize> {
        self.inspect_index(table, column, |ic| ic.partial.len())
    }

    /// The values a column's online tuner covers, in ascending order; `None`
    /// when the column has no index or no tuner (inspection).
    pub fn tuned_values(&self, table: &str, column: &str) -> Option<Vec<Value>> {
        self.inspect_index(table, column, |ic| {
            let mut values: Vec<Value> = ic.tuner.as_ref()?.covered_values().cloned().collect();
            values.sort_unstable();
            Some(values)
        })
        .flatten()
    }

    /// The buffer id serving a column, if any (inspection).
    pub fn buffer_id(&self, table: &str, column: &str) -> Option<BufferId> {
        self.inspect_index(table, column, |ic| ic.buffer).flatten()
    }

    fn inspect_index<R>(
        &self,
        table: &str,
        column: &str,
        f: impl FnOnce(&IndexedColumn) -> R,
    ) -> Option<R> {
        let catalog = self.catalog.read();
        let ti = catalog.table_index(table).ok()?;
        let ci = catalog.column_index(ti, column).ok()?;
        catalog.tables[ti].index_on(ci).map(f)
    }

    // ------------------------------------------- invariant shadow model

    /// Runs the full runtime shadow model (`invariant-checks` feature):
    /// recomputes every buffered column's `C[p]` ground truth from the
    /// heap, the coverage predicate and the buffer contents; checks every
    /// buffer's partition structure; and checks that the governor's byte
    /// charges equal the resident footprints on both sides of the budget.
    ///
    /// Every engine mutation path calls this automatically when the
    /// feature is on; it is public so tests can also probe at their own
    /// checkpoints. Costs a full scan of every buffered table.
    #[cfg(feature = "invariant-checks")]
    pub fn verify_invariants(&self) -> EngineResult<()> {
        let catalog = self.catalog.read();
        self.verify_with(&catalog, &self.space.read())
    }

    /// The shadow model against an already-held space lock (so mutation
    /// paths can verify without re-acquiring).
    #[cfg(feature = "invariant-checks")]
    fn verify_with(&self, catalog: &Catalog, space: &IndexBufferSpace) -> EngineResult<()> {
        use aib_core::{verify_buffer, verify_space, GroundTruth};
        let mut report = verify_space(space);
        for t in &catalog.tables {
            for ic in &t.indexed {
                let Some(bid) = ic.buffer else { continue };
                let coverage = ic.partial.coverage();
                let covered = |v: &Value| coverage.covers(v);
                let truth = GroundTruth::compute(&t.heap, ic.column, &covered, space.buffer(bid))?;
                report.merge(verify_buffer(
                    space.buffer(bid),
                    space.counters(bid),
                    &truth,
                ));
            }
        }
        self.pool.verify_budget().map_err(EngineError::Invariant)?;
        self.pool.verify_filters().map_err(EngineError::Invariant)?;
        report.into_result().map_err(EngineError::Invariant)
    }

    /// Shadow-model checkpoint: diffs bookkeeping against ground truth
    /// after every mutation when `invariant-checks` is on, taking the space
    /// lock (read), so the caller must not hold it; compiles to nothing
    /// otherwise.
    #[inline]
    fn verify_checkpoint_now(&self, catalog: &Catalog) -> EngineResult<()> {
        #[cfg(feature = "invariant-checks")]
        self.verify_with(catalog, &self.space.read())?;
        let _ = catalog;
        Ok(())
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field(
                "queries_executed",
                &self.queries_executed.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl Drop for Database {
    /// Stops the background checkpointer. Deliberately does **not**
    /// checkpoint: dropping without [`Database::close`] must behave like a
    /// crash for anything not yet durable (the `crash_mid_dml` tests
    /// depend on drop not quietly persisting a failed mutation).
    fn drop(&mut self) {
        if let Some(pipeline) = &self.durability {
            pipeline.shutdown();
        }
        if let Some(handle) = self.checkpointer.take() {
            let _ = handle.join();
        }
    }
}

/// Checkpoint body, shared by [`Database::checkpoint`] (`recycle` off: a
/// compact log, no side file) and the background checkpointer thread
/// (`recycle` on). Three phases, and only the first holds an engine lock:
///
/// 1. **Capture**, under the catalog write lock — which quiesces DML and
///    queries, so what is captured is one consistent cut. Staged WAL frames
///    land *first* ([`CommitPipeline::flush`]: WAL before data, and with the
///    lock held none can appear behind the drain); then the dirty pages are
///    frozen ([`BufferPool::capture`], a memcpy), the catalog is encoded, and
///    the WAL cut is marked. The frozen images hold exactly the mutations
///    logged before the cut.
/// 2. **Flush**, with no lock: the frozen pages reach the heap file in runs
///    and are fsynced while commits go on — into the old log, and into the
///    WAL's in-memory tail.
/// 3. **Rotate**, under the WAL mutex alone: the new log is the snapshot of
///    the cut plus that tail.
///
/// A crash before the rotation is durable leaves the old log, complete,
/// whose replay converges over the partially- or fully-flushed heap (see
/// `aib-storage::wal` "Replay convergence"); after it, the new log over the
/// flushed image of its cut. A failed log keeps the catalog lock through all
/// three phases (see [`CommitPipeline::rotate`]).
fn checkpoint_core(
    pool: &BufferPool,
    catalog: &RwLock<Catalog>,
    pipeline: &CommitPipeline,
    recycle: bool,
    observe: &mut dyn FnMut(CheckpointPhase),
) -> EngineResult<()> {
    let _one_at_a_time = pipeline.checkpointing();
    let quiesced = catalog.write();
    pipeline.flush();
    let captured = pool.capture()?;
    let snapshot = WalRecord::Snapshot(snapshot_image(&quiesced).encode());
    // A sound log lets the world go on here; a failed one keeps it stopped.
    let quiesced = pipeline.mark_cut().then_some(quiesced);
    observe(CheckpointPhase::Captured);
    let outcome = captured.flush().and_then(|()| {
        observe(CheckpointPhase::Flushed);
        pipeline.rotate(&snapshot, recycle)
    });
    drop(quiesced);
    if outcome.is_err() {
        pipeline.abandon_cut();
    }
    Ok(outcome?)
}

/// Lets the online tuner of `column` observe a point query on `value` that
/// matched `matched` — exactly the rows holding it — and applies the
/// decision (a no-op for untuned columns). Runs with the catalog and space
/// write guards held.
fn apply_tuning(
    t: &mut Table,
    column: usize,
    space: &mut IndexBufferSpace,
    value: &Value,
    matched: &[Rid],
) -> EngineResult<()> {
    let Some(slot) = t.indexed_column(column) else {
        return Ok(());
    };
    let Some(tuner) = t.indexed[slot].tuner.as_mut() else {
        return Ok(());
    };
    let decision = tuner.observe(value);
    if decision.is_noop() {
        return Ok(());
    }
    // A value the index already covers (a member of the DDL-time set) has
    // no uncovered tuple to move.
    if let Some(v) = decision.add.filter(|v| !t.indexed[slot].partial.covers(v)) {
        // Newly covered tuples leave the "uncovered" bookkeeping: pages
        // buffered for this column drop the entries, unbuffered pages
        // decrement their counters (Table I's covering transition, via
        // the maintenance module — the only code allowed to mutate C).
        let pages: Vec<(Rid, u32)> = matched
            .iter()
            .map(|&rid| Ok((rid, t.ordinal(rid)?)))
            .collect::<Result<_, StorageError>>()?;
        let ic = &mut t.indexed[slot];
        if let Some(bid) = ic.buffer {
            space.with_buffer_mut(bid, |buffer, counters| {
                for &(rid, page) in &pages {
                    cover_tuple(buffer, counters, &v, rid, page)
                        .map_err(|e| EngineError::Invariant(e.to_string()))?;
                }
                Ok::<(), EngineError>(())
            })?;
        }
        ic.partial.adapt_add_value(v, matched);
    }
    for v in decision.evict {
        let ic = &mut t.indexed[slot];
        let rids = ic.partial.lookup(&v);
        ic.partial.adapt_remove_value(&v);
        // The evicted value's tuples become uncovered again.
        let buffer = ic.buffer;
        for rid in rids {
            let page = t.ordinal(rid)?;
            if let Some(bid) = buffer {
                space.with_buffer_mut(bid, |b, c| {
                    uncover_tuple(b, c, v.clone(), rid, page);
                });
            }
        }
    }
    if t.indexed[slot].buffer.is_some() {
        space.sync_budget();
    }
    Ok(())
}

/// Routes one column's maintenance through Table I (buffered columns) or
/// its partial-index row alone (unbuffered columns). A counter underflow inside
/// `maintain` means engine bookkeeping diverged from the heap; it surfaces as
/// [`EngineError::Invariant`].
fn apply_maintenance(
    space: &mut IndexBufferSpace,
    ic: &mut IndexedColumn,
    old: Option<TupleRef>,
    new: Option<TupleRef>,
) -> EngineResult<()> {
    match ic.buffer {
        Some(bid) => {
            let partial = &mut ic.partial;
            space
                .with_buffer_mut(bid, |buffer, counters| {
                    maintain(partial, buffer, counters, old, new)
                })
                .map_err(|e| EngineError::Invariant(e.to_string()))?;
            // Maintenance mutates partitions behind the governor's back;
            // reconcile the byte charge at this barrier.
            space.sync_budget();
        }
        None => {
            maintain_partial_index(&mut ic.partial, old.as_ref(), new.as_ref());
        }
    }
    Ok(())
}

/// Encodes the catalog as a checkpoint snapshot image: names, schemas,
/// heap page lists (ordinal order), and the DDL-time index definitions.
/// Deliberately **not** included: tuples (the heap file has them), partial
/// index entries, tuner state, buffer contents, `C[p]` counters.
fn snapshot_image(catalog: &Catalog) -> SnapshotImage {
    SnapshotImage {
        tables: catalog
            .tables
            .iter()
            .map(|t| TableImage {
                name: t.name.clone(),
                schema: t.schema.clone(),
                pages: (0..t.heap.num_pages())
                    .filter_map(|o| t.heap.page_id_of(o))
                    .collect(),
                indexes: t.indexed.iter().map(|ic| ic.logged.clone()).collect(),
            })
            .collect(),
    }
}

/// The replayed-metadata image of table ordinal `table`, or a corruption
/// error — a DDL record naming a table the log never created means the log
/// and snapshot disagree.
fn table_image_mut(images: &mut [TableImage], table: u32) -> EngineResult<&mut TableImage> {
    images
        .get_mut(table as usize)
        .ok_or_else(|| EngineError::Internal(format!("wal ddl names unknown table {table}")))
}

/// Clones one column out of a tuple the engine already validated; arity
/// mismatch at this point is an engine bug, not a caller mistake.
fn column_value(tuple: &Tuple, column: usize) -> EngineResult<Value> {
    tuple
        .get(column)
        .cloned()
        .ok_or_else(|| EngineError::Internal(format!("stored tuple missing column {column}")))
}

/// The one heap rescan behind index creation, coverage redefinition and
/// recovery: adds every covered tuple of `column` the partial index does not
/// hold yet — collected during the sweep and entered as one sorted batch
/// ([`PartialIndex::add_batch`], which drops the entries a redefined index
/// already holds) — and returns the per-page counts of the uncovered ones,
/// the column's `C[p]`. Rides the same sweep as every query, but decodes
/// each tuple — it needs the owned value, and a corrupt tuple must fail the
/// DDL rather than vanish from the index.
fn populate_from_heap(
    heap: &HeapFile,
    column: usize,
    partial: &mut PartialIndex,
) -> EngineResult<Vec<u32>> {
    let num_pages = heap.num_pages();
    let mut counts: Vec<u32> = vec![0; num_pages as usize];
    let mut covered = Vec::new();
    let mut scan_err: Option<StorageError> = None;
    heap.sweep_read_runs([(0..num_pages, false)], |ord, page, view| {
        for (slot, bytes) in view.iter() {
            let value = match Tuple::read_column(bytes, column) {
                Ok(value) => value,
                Err(e) => {
                    scan_err.get_or_insert(e);
                    return;
                }
            };
            if partial.covers(&value) {
                covered.push((value, Rid { page, slot }));
            } else if let Some(count) = counts.get_mut(ord as usize) {
                *count += 1;
            }
        }
    })?;
    if let Some(e) = scan_err {
        return Err(e.into());
    }
    partial.add_batch(covered);
    Ok(counts)
}
