//! The staircase replay behind the per-layer timings.
//!
//! The engine's internal calls cannot be timed from outside, so the traced
//! pass keeps a [`Fixture`] beside the engine: the same table in a
//! stand-alone `HeapFile` over its own `FileBackend` and `BufferPool`, one
//! `PartialIndex` per column, one `IndexBuffer` + `PageCounters` pair per
//! buffered column, a `Wal`, stand-alone `OnlineTuner`s, and (on the writing
//! workloads) an in-memory `Database` twin. After a traced op the fixture
//! repeats the op's work one layer at a time through those layers' public
//! functions and records each step as a child span:
//!
//! ```text
//! client.op ─ engine.execute ─┬─ core.indexing_scan ── storage.sweep
//!                             └─ index.lookup, storage.fetch      (hits)
//! client.op ─ engine.insert|update|delete
//!               ├─ engine.dml_mem ─┬─ storage.heap_insert
//!               │                  └─ core.maintain | index.maintain
//!               └─ storage.wal_append
//! ```
//!
//! A replay counts only if it did the same work: a replayed scan must read
//! and index as many pages and match as many tuples as the engine reported,
//! a replayed lookup must find as many rids, a replayed heap write must land
//! on the engine's rid. Anything else is a `trace.replay_mismatches`, which
//! fails the run.
//!
//! DML and tuner adaptation are mirrored on every op (the fixture's heap and
//! indexes must track the engine's); scans and lookups are replayed for
//! every [`SAMPLE_EVERY`]th read, since a replayed scan costs two sweeps.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use aib_core::{
    apply_staged, buffer_scan_rids, cover_tuple, maintain, planned_scan_threads, prepare_scan,
    sweep_plan, uncover_tuple, CompiledPredicate, IndexBuffer, IndexBufferSpace, PageCounters,
    Predicate, ScanPlan, ScanStats, SkipBitset, SpaceConfig, SpaceSnapshot, TupleRef,
};
use aib_engine::{AccessPath, Database, EngineConfig, ExecOutcome, OnlineTuner, Query};
use aib_index::{Coverage, IndexBackend, PartialIndex};
use aib_storage::{
    BufferPool, BufferPoolConfig, FileBackend, HeapFile, Rid, Tuple, Value, Wal, WalRecord,
};

use crate::metrics::Values;
use crate::oracle::make_tuple;
use crate::run::{Hook, OpRec, Write};
use crate::stats::{median, ratio};
use crate::trace::{SpanId, TraceLog};
use crate::workload::{preload_rows, Plan, COLUMNS, TABLE};

/// Every n-th read of the traced pass is replayed.
pub const SAMPLE_EVERY: usize = 4;

struct Column {
    partial: PartialIndex,
    /// The sink of replayed scans and the subject of replayed maintenance;
    /// `None` for a column without an Index Buffer.
    buffer: Option<(IndexBuffer, PageCounters)>,
    tuner: Option<OnlineTuner>,
}

/// What `before_read` captured for a sampled read.
struct Sampled {
    snapshot: Arc<SpaceSnapshot>,
    coverage: Option<Coverage>,
}

/// Running sums behind the timing metrics.
#[derive(Default)]
struct Sums {
    scans: u64,
    scan_engine_ns: u64,
    scan_core_ns: u64,
    scan_sweep_ns: u64,
    scan_apply_ns: u64,
    scan_pages_read: u64,
    scan_pages_indexed: u64,
    hits: u64,
    hit_engine_ns: u64,
    hit_lookup_ns: u64,
    hit_fetch_ns: u64,
    writes: u64,
    write_engine_ns: u64,
    write_mem_ns: u64,
    write_heap_ns: u64,
    write_maintain_ns: u64,
    write_wal_ns: u64,
    core_maintains: u64,
    core_maintain_ns: u64,
    adapt_adds: u64,
    adapt_add_ns: u64,
    tuner_evicts: u64,
    reads_seen: u64,
    snapshot_rebuilds: u64,
    snapshot_build_ns: u64,
    displaced_scans: u64,
}

pub struct Fixture {
    cfg: EngineConfig,
    partition_pages: u32,
    dir: PathBuf,
    pool: Arc<BufferPool>,
    heap: HeapFile,
    /// Where the fixture's own load put the table's tuples.
    loaded: Vec<Rid>,
    columns: Vec<Column>,
    wal: Wal,
    /// In-memory twin of the engine, fed the same DML: what the op costs
    /// without a log.
    twin: Option<Database>,
    pub log: TraceLog,
    epoch: Instant,
    /// Off while set-up warms the engine: the fixture mirrors, nothing is
    /// timed or recorded.
    pub recording: bool,
    op_seq: u32,
    reads: usize,
    sampled: Option<Sampled>,
    last_snapshot: Option<Arc<SpaceSnapshot>>,
    sums: Sums,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn int(tuple: &Tuple, col: usize) -> Value {
    tuple.get(col).cloned().unwrap_or(Value::Null)
}

fn ordinal(heap: &HeapFile, rid: Rid) -> u32 {
    heap.ordinal_of(rid.page).unwrap_or(u32::MAX)
}

impl Fixture {
    /// Builds the stand-alone layers over `tuples`, loaded in the engine's
    /// order so that every tuple lands on the engine's rid.
    pub fn new(plan: &Plan, tuples: &[Tuple], dir: &Path) -> Result<Fixture, String> {
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("fixture: {what}: {e}");
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| fail("create dir", &e))?;
        let cfg = plan.engine_config();
        let backend = FileBackend::open(&dir.join("heap.db"), cfg.cost_model)
            .map_err(|e| fail("open heap file", &e))?;
        let pool =
            BufferPool::with_backend(Box::new(backend), BufferPoolConfig::lru(cfg.pool_frames));
        let heap = HeapFile::new(Arc::clone(&pool));
        let mut rids = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            rids.push(
                heap.insert(&tuple.to_bytes())
                    .map_err(|e| fail("load", &e))?,
            );
        }

        let mut columns = Vec::with_capacity(COLUMNS.len());
        for (i, name) in COLUMNS.into_iter().enumerate() {
            let def = plan.index_def(i);
            let (coverage, buffered, tuned) = (def.coverage, def.buffered, def.tuned);
            let mut partial =
                PartialIndex::new(format!("{TABLE}.{name}"), coverage, IndexBackend::BTree);
            let mut uncovered = vec![0u32; heap.num_pages() as usize];
            for (tuple, rid) in tuples.iter().zip(&rids) {
                let value = int(tuple, i);
                if partial.covers(&value) {
                    partial.add(value, *rid);
                } else if let Some(ord) = heap.ordinal_of(rid.page) {
                    uncovered[ord as usize] += 1;
                }
            }
            columns.push(Column {
                partial,
                buffer: buffered.then(|| {
                    (
                        IndexBuffer::new(i, name, plan.buffer_config()),
                        PageCounters::from_counts(uncovered),
                    )
                }),
                tuner: tuned.then(|| OnlineTuner::new(crate::run::TUNER)),
            });
        }

        let twin = if plan.workload.writes() {
            let twin = Database::new(cfg.clone());
            twin.create_table(
                TABLE,
                aib_workload::TableSpec::scaled(plan.rows, plan.seed).schema(),
            )
            .map_err(|e| fail("twin table", &e))?;
            for tuple in tuples {
                twin.insert(TABLE, tuple)
                    .map_err(|e| fail("twin load", &e))?;
            }
            crate::run::create_indexes(&twin, plan).map_err(|e| fail("twin indexes", &e))?;
            Some(twin)
        } else {
            None
        };

        let mut fixture = Fixture {
            cfg,
            partition_pages: plan.buffer_config().partition_pages,
            dir: dir.to_path_buf(),
            pool,
            heap,
            loaded: rids,
            columns,
            wal: Wal::open(&dir.join("wal.log")).map_err(|e| fail("open wal", &e))?,
            twin,
            log: TraceLog::default(),
            epoch: Instant::now(),
            recording: false,
            op_seq: 0,
            reads: 0,
            sampled: None,
            last_snapshot: None,
            sums: Sums::default(),
            mismatches: 0,
            first_mismatch: None,
        };
        // The rows each client inserts during set-up, in set-up's order.
        for client in 0..plan.clients {
            for (vals, payload) in preload_rows(plan, client) {
                let tuple = make_tuple(vals, payload);
                let rid = fixture
                    .heap
                    .insert(&tuple.to_bytes())
                    .map_err(|e| fail("preload", &e))?;
                if let Some(twin) = &fixture.twin {
                    twin.insert(TABLE, &tuple)
                        .map_err(|e| fail("twin preload", &e))?;
                }
                fixture.maintain_columns(None, Some((rid, &tuple)));
            }
        }
        // Like the engine after its set-up checkpoint: nothing dirty.
        fixture.pool.sync().map_err(|e| fail("sync", &e))?;
        Ok(fixture)
    }

    /// Whether the fixture's load put every tuple where the engine's did —
    /// the precondition of every replay.
    pub fn placed_like(&self, rids: &[Rid]) -> bool {
        self.loaded == rids
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }

    /// Table I for every column: `maintain` where the column has a buffer,
    /// the partial-index row alone where it has none. Returns the time
    /// spent in `core` and in `index`.
    fn maintain_columns(
        &mut self,
        old: Option<(Rid, &Tuple)>,
        new: Option<(Rid, &Tuple)>,
    ) -> (u64, u64) {
        let (mut core_ns, mut index_ns) = (0, 0);
        for i in 0..self.columns.len() {
            let side = |t: Option<(Rid, &Tuple)>| {
                t.map(|(rid, tuple)| TupleRef::new(int(tuple, i), rid, ordinal(&self.heap, rid)))
            };
            let (old_ref, new_ref) = (side(old), side(new));
            let column = &mut self.columns[i];
            let start = Instant::now();
            match &mut column.buffer {
                Some((buffer, counters)) => {
                    if maintain(&mut column.partial, buffer, counters, old_ref, new_ref).is_err() {
                        self.mismatches += 1;
                        self.first_mismatch
                            .get_or_insert_with(|| "fixture counters underflowed".into());
                    }
                    core_ns += ns(start);
                }
                None => {
                    let partial = &mut column.partial;
                    let old_cov = old_ref.filter(|t| partial.covers(&t.value));
                    let new_cov = new_ref.filter(|t| partial.covers(&t.value));
                    match (old_cov, new_cov) {
                        (Some(o), Some(n)) => partial.update(&o.value, o.rid, n.value, n.rid),
                        (Some(o), None) => {
                            partial.remove(&o.value, o.rid);
                        }
                        (None, Some(n)) => {
                            partial.add(n.value, n.rid);
                        }
                        (None, None) => {}
                    }
                    index_ns += ns(start);
                }
            }
        }
        (core_ns, index_ns)
    }

    /// Applies one engine DML op to the twin, the fixture's heap, its indexes
    /// and buffers, and its log, timing each step. With `parent` set the
    /// steps are recorded as its children.
    fn mirror_write(&mut self, write: &Write<'_>, parent: Option<(SpanId, &OpRec)>) {
        // The twin first: the whole op without a log.
        let mem_ns = self.twin.as_ref().map(|twin| {
            let start = Instant::now();
            let landed = match write {
                Write::Insert { rid, tuple } => twin.insert(TABLE, tuple).ok() == Some(*rid),
                Write::Update {
                    old, new, tuple, ..
                } => twin.update(TABLE, *old, tuple).ok() == Some(*new),
                Write::Delete { rid, .. } => twin.delete(TABLE, *rid).is_ok(),
            };
            (ns(start), landed)
        });
        if let Some((_, false)) = mem_ns {
            self.mismatch(format!("in-memory twin diverged on op {}", self.op_seq));
        }

        // storage: the heap write.
        let start = Instant::now();
        let (old, new, landed) = match write {
            Write::Insert { rid, tuple } => {
                let got = self.heap.insert(&tuple.to_bytes()).ok();
                (None, Some((*rid, *tuple)), got == Some(*rid))
            }
            Write::Update {
                old,
                old_tuple,
                new,
                tuple,
            } => {
                let got = self.heap.update(*old, &tuple.to_bytes()).ok();
                (
                    Some((*old, *old_tuple)),
                    Some((*new, *tuple)),
                    got == Some(*new),
                )
            }
            Write::Delete { rid, old_tuple } => {
                let ok = self.heap.delete(*rid).is_ok();
                (Some((*rid, *old_tuple)), None, ok)
            }
        };
        let heap_ns = ns(start);
        if !landed {
            self.mismatch(format!(
                "heap write of op {} landed elsewhere than the engine's",
                self.op_seq
            ));
        }

        // core / index: Table I, column by column.
        let (core_ns, index_ns) = self.maintain_columns(old, new);

        // storage: one WAL frame, written and synced.
        let record = match write {
            Write::Insert { rid, tuple } => WalRecord::Insert {
                table: 0,
                rid: *rid,
                bytes: tuple.to_bytes(),
            },
            Write::Update {
                old, new, tuple, ..
            } => WalRecord::Update {
                table: 0,
                old: *old,
                new: *new,
                bytes: tuple.to_bytes(),
            },
            Write::Delete { rid, .. } => WalRecord::Delete {
                table: 0,
                rid: *rid,
            },
        };
        let payload = record.encode();
        let start = Instant::now();
        let appended = self.wal.append_payload_batch(&[&payload]).is_ok();
        let wal_ns = ns(start);
        if !appended {
            self.mismatch(format!("fixture wal append failed on op {}", self.op_seq));
        }

        let Some((engine_span, rec)) = parent else {
            return;
        };
        let mem = match mem_ns {
            Some((mem, _)) => {
                let mem_span = self.log.replayed(engine_span, "engine.dml_mem", mem);
                self.log.replayed(mem_span, "storage.heap_insert", heap_ns);
                self.log.replayed(mem_span, "core.maintain", core_ns);
                if index_ns > 0 {
                    self.log.replayed(mem_span, "index.maintain", index_ns);
                }
                mem
            }
            None => 0,
        };
        self.log.replayed(engine_span, "storage.wal_append", wal_ns);
        let s = &mut self.sums;
        s.writes += 1;
        s.write_engine_ns += rec.lat_ns;
        s.write_mem_ns += mem;
        s.write_heap_ns += heap_ns;
        s.write_maintain_ns += core_ns + index_ns;
        s.write_wal_ns += wal_ns;
        s.core_maintains += 1;
        s.core_maintain_ns += core_ns;
    }

    /// Feeds the stand-alone tuner the query the engine's tuner just saw and
    /// applies its decision the way `apply_tuning` does.
    fn mirror_tuner(&mut self, col: usize, value: &Value, matched: &[Rid], parent: Option<SpanId>) {
        let decision = match self.columns[col].tuner.as_mut() {
            Some(tuner) => tuner.observe(value),
            None => return,
        };
        if let Some(v) = decision.add {
            let pages: Vec<u32> = matched
                .iter()
                .map(|&rid| ordinal(&self.heap, rid))
                .collect();
            let column = &mut self.columns[col];
            if let Some((buffer, counters)) = &mut column.buffer {
                for (&rid, &page) in matched.iter().zip(&pages) {
                    // An underflow means fixture and engine disagree on
                    // what was uncovered: a mismatch, reported below.
                    if cover_tuple(buffer, counters, &v, rid, page).is_err() {
                        self.mismatches += 1;
                    }
                }
            }
            let start = Instant::now();
            column.partial.adapt_add_value(v, matched);
            let add_ns = ns(start);
            if let Some(parent) = parent {
                self.log.replayed(parent, "index.adapt_add", add_ns);
                self.sums.adapt_adds += 1;
                self.sums.adapt_add_ns += add_ns;
            }
        }
        for v in decision.evict {
            let rids = self.columns[col].partial.lookup(&v);
            self.columns[col].partial.adapt_remove_value(&v);
            for rid in rids {
                let page = ordinal(&self.heap, rid);
                if let Some((buffer, counters)) = &mut self.columns[col].buffer {
                    uncover_tuple(buffer, counters, v.clone(), rid, page);
                }
            }
            if parent.is_some() {
                self.sums.tuner_evicts += 1;
            }
        }
    }

    /// Replays a sampled partial-index hit: the lookup, then the fetch of
    /// every matching tuple.
    fn replay_hit(
        &mut self,
        col: usize,
        predicate: &Predicate,
        out: &ExecOutcome,
        rec: &OpRec,
        engine_span: SpanId,
    ) {
        let start = Instant::now();
        let rids = match predicate {
            Predicate::Equals(v) => self.columns[col].partial.lookup(v),
            Predicate::Between(lo, hi) => self.columns[col]
                .partial
                .lookup_range(lo, hi)
                .unwrap_or_default(),
        };
        let lookup_ns = ns(start);
        let start = Instant::now();
        let fetched = rids
            .iter()
            .filter(|&&rid| self.heap.get(rid).is_ok())
            .count();
        let fetch_ns = ns(start);
        if rids.len() != out.result.rids.len() || fetched != rids.len() {
            self.mismatch(format!(
                "lookup of op {} found {} rids, the engine {}",
                self.op_seq,
                rids.len(),
                out.result.rids.len()
            ));
        }
        self.log.replayed(engine_span, "index.lookup", lookup_ns);
        self.log.replayed(engine_span, "storage.fetch", fetch_ns);
        let s = &mut self.sums;
        s.hits += 1;
        s.hit_engine_ns += rec.lat_ns;
        s.hit_lookup_ns += lookup_ns;
        s.hit_fetch_ns += fetch_ns;
    }

    /// Replays a sampled scan from the plan the engine must have had: the
    /// skip bitset of the snapshot taken just before the op, and as pages to
    /// index those the snapshot taken just after newly shows skippable.
    #[allow(clippy::too_many_arguments)]
    fn replay_scan(
        &mut self,
        db: &Database,
        col: usize,
        predicate: &Predicate,
        out: &ExecOutcome,
        rec: &OpRec,
        sampled: &Sampled,
        engine_span: SpanId,
    ) {
        if rec.pages_read == 0 && rec.pages_indexed == 0 {
            // Nothing swept, nothing staged: the op never left the engine
            // (a buffer-answered query also probes the buffer, which is
            // measured on its own as `core.buffer_probe_ns`).
            return;
        }
        let num_pages = self.heap.num_pages();
        let buffer_id = db.buffer_id(TABLE, COLUMNS[col]);
        let before = buffer_id
            .and_then(|id| sampled.snapshot.buffer(id))
            .map(|b| b.skip().resized(num_pages));
        let skip = before.unwrap_or_else(|| SkipBitset::with_len(num_pages));
        let mut to_index = SkipBitset::with_len(num_pages);
        if rec.pages_indexed > 0 {
            let after = db.space_snapshot();
            if let Some(after) = buffer_id.and_then(|id| after.buffer(id)) {
                for page in 0..num_pages {
                    if after.skip().contains(page) && !skip.contains(page) {
                        to_index.insert(page);
                    }
                }
            }
        }
        let plan = ScanPlan {
            skip,
            to_index,
            compiled: CompiledPredicate::compile(predicate),
            num_pages,
        };
        let coverage = sampled.coverage.clone().unwrap_or(Coverage::None);
        let covered = move |v: &Value| coverage.covers(v);
        let threads = planned_scan_threads(num_pages, self.cfg.scan_threads);

        // The engine sweeps its copy of the table every few ops; the fixture's
        // copy is touched only by sampled replays and would be read from
        // memory where the engine's comes from cache. One untimed pass over
        // the same pages first puts the replay on the engine's footing.
        let discover = |heap: &HeapFile| {
            sweep_plan(
                heap,
                &plan,
                self.partition_pages,
                col,
                &covered,
                predicate,
                threads,
            )
        };
        drop(discover(&self.heap));

        // storage: the same runs swept with a visitor that does nothing.
        let start = Instant::now();
        let swept = self
            .heap
            .sweep_read_runs(plan.skip.runs(0..num_pages), |_, _, _| {});
        let sweep_ns = ns(start);

        // core: the sweep with the predicate kernel and staging, then the
        // apply into the fixture's buffer.
        let start = Instant::now();
        let chunk = discover(&self.heap);
        let discover_ns = ns(start);
        let (Ok((read, _)), Ok(chunk)) = (swept, chunk) else {
            self.mismatch(format!("replayed scan of op {} failed", self.op_seq));
            return;
        };
        let staged_pages = chunk.staged.len() as u32;
        let scan_matches = chunk.matches.len();
        let mut apply_ns = 0;
        if let Some((buffer, counters)) = &mut self.columns[col].buffer {
            // The fixture's buffer never displaces, so a page the engine
            // re-indexes after a displacement is still buffered here: empty
            // the buffer first, restoring its counters as displacement does.
            if chunk.staged.iter().any(|s| buffer.is_buffered(s.ordinal)) {
                for partition in buffer.partition_ids().collect::<Vec<_>>() {
                    for (page, count) in buffer
                        .drop_partition(partition)
                        .map(|d| d.pages)
                        .unwrap_or_default()
                    {
                        counters.restore(page, count);
                    }
                }
            }
            let start = Instant::now();
            apply_staged(buffer, counters, chunk.staged, &mut ScanStats::default());
            apply_ns = ns(start);
        }

        let engine_scan = out.metrics.scan.as_ref();
        let engine_matches =
            engine_scan.map_or(out.result.rids.len(), |s| s.matches - s.buffer_matches);
        if read != rec.pages_read
            || chunk.pages_read != rec.pages_read
            || staged_pages != rec.pages_indexed
            || scan_matches != engine_matches
        {
            self.mismatch(format!(
                "scan of op {}: replay read {read} indexed {staged_pages} matched {scan_matches}, engine read {} indexed {} matched {engine_matches}",
                self.op_seq, rec.pages_read, rec.pages_indexed
            ));
        }
        let core_span =
            self.log
                .replayed(engine_span, "core.indexing_scan", discover_ns + apply_ns);
        self.log.replayed(core_span, "storage.sweep", sweep_ns);
        let s = &mut self.sums;
        s.scans += 1;
        s.scan_engine_ns += rec.lat_ns;
        s.scan_core_ns += discover_ns + apply_ns;
        s.scan_sweep_ns += sweep_ns;
        s.scan_apply_ns += apply_ns;
        s.scan_pages_read += u64::from(read);
        s.scan_pages_indexed += u64::from(staged_pages);
    }

    fn root(&mut self, name: &'static str, rec: &OpRec) -> SpanId {
        let end = ns(self.epoch);
        let start = end.saturating_sub(rec.lat_ns);
        let root = self
            .log
            .measured(None, self.op_seq, "client.op", start, rec.lat_ns);
        self.log
            .measured(Some(root), self.op_seq, name, start, rec.lat_ns)
    }
}

fn column_of(query: &Query) -> usize {
    COLUMNS
        .iter()
        .position(|c| *c == query.column)
        .unwrap_or_default()
}

impl Hook for Fixture {
    fn before_read(&mut self, db: &Database, query: &Query) {
        if !self.recording {
            return;
        }
        self.reads += 1;
        if !self.reads.is_multiple_of(SAMPLE_EVERY) {
            return;
        }
        // A stale published snapshot is rebuilt by whoever asks first. The
        // engine would have paid for that inside this query; the benchmark
        // pays here and reports the cost on its own.
        let start = Instant::now();
        let snapshot = db.space_snapshot();
        let took = ns(start);
        self.sums.reads_seen += 1;
        if !self
            .last_snapshot
            .as_ref()
            .is_some_and(|last| Arc::ptr_eq(last, &snapshot))
        {
            self.sums.snapshot_rebuilds += 1;
            self.sums.snapshot_build_ns += took;
        }
        self.last_snapshot = Some(Arc::clone(&snapshot));
        self.sampled = Some(Sampled {
            snapshot,
            coverage: db.coverage(TABLE, &query.column),
        });
    }

    fn after_read(&mut self, db: &Database, query: &Query, out: &ExecOutcome, rec: &OpRec) {
        let col = column_of(query);
        let sampled = self.sampled.take();
        let parent = if self.recording {
            self.op_seq += 1;
            Some(self.root("engine.execute", rec))
        } else {
            None
        };
        // The engine decided hit-or-miss against its coverage before its
        // tuner saw the query; the mirrored index must agree.
        if let Predicate::Equals(v) = &query.predicate {
            let hit = out.result.path == AccessPath::PartialIndex;
            if self.columns[col].partial.covers(v) != hit {
                self.mismatch(format!(
                    "coverage of {} = {v:?} differs from the engine's",
                    query.column
                ));
            }
        }
        if let (Some(sampled), Some(engine_span)) = (&sampled, parent) {
            match out.result.path {
                AccessPath::PartialIndex => {
                    self.replay_hit(col, &query.predicate, out, rec, engine_span)
                }
                // The engine displaced partitions before it planned, so the
                // snapshot taken before the op is not the plan it swept by.
                AccessPath::BufferedScan if rec.partitions_dropped > 0 => {
                    self.sums.displaced_scans += 1
                }
                AccessPath::BufferedScan | AccessPath::PlainScan => {
                    self.replay_scan(db, col, &query.predicate, out, rec, sampled, engine_span);
                }
            }
        }
        if let Predicate::Equals(v) = &query.predicate {
            self.mirror_tuner(col, v, &out.result.rids, parent);
        }
    }

    fn after_write(&mut self, write: &Write<'_>, rec: &OpRec) {
        if self.recording {
            self.op_seq += 1;
            let name = match write {
                Write::Insert { .. } => "engine.insert",
                Write::Update { .. } => "engine.update",
                Write::Delete { .. } => "engine.delete",
            };
            let span = self.root(name, rec);
            self.mirror_write(write, Some((span, rec)));
        } else {
            self.mirror_write(write, None);
        }
    }
}

impl Fixture {
    /// Turns the sums into per-layer timings and adds the stand-alone
    /// measurements no op replays: the full sweep, the probe and prepare of
    /// a filled buffer, index maintenance, and the dirty-set sync.
    pub fn layer_times(&mut self, plan: &Plan, tuples: &[Tuple]) -> Result<Values, String> {
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("fixture: {what}: {e}");
        let s = &self.sums;
        let per = |total: u64, n: u64| ratio(total as f64, n as f64);
        // A replay is a second execution and can come out slower than the
        // engine's own; the difference is reported as measured, sign and all.
        let signed = |whole: u64, parts: u64, n: u64| ratio(whole as f64 - parts as f64, n as f64);
        let mut values: Values = vec![
            (
                "storage.heap_insert_us",
                per(s.write_heap_ns, s.writes) / 1e3,
            ),
            (
                "storage.wal_append_sync_us",
                per(s.write_wal_ns, s.writes) / 1e3,
            ),
            ("index.lookup_ns", per(s.hit_lookup_ns, s.hits)),
            (
                "index.adapt_add_us",
                per(s.adapt_add_ns, s.adapt_adds) / 1e3,
            ),
            (
                "core.maintain_ns",
                per(s.core_maintain_ns, s.core_maintains),
            ),
            (
                "core.scan_self_ns_per_page",
                per(
                    (s.scan_core_ns - s.scan_apply_ns).saturating_sub(s.scan_sweep_ns),
                    s.scan_pages_read,
                ),
            ),
            (
                "core.index_page_us",
                per(s.scan_apply_ns, s.scan_pages_indexed) / 1e3,
            ),
            (
                "core.snapshot_build_us",
                per(s.snapshot_build_ns, s.snapshot_rebuilds) / 1e3,
            ),
            (
                "core.snapshot_rebuilds_per_read",
                per(s.snapshot_rebuilds, s.reads_seen),
            ),
            (
                "engine.execute_self_us",
                signed(s.scan_engine_ns, s.scan_core_ns, s.scans) / 1e3,
            ),
            (
                "engine.hit_self_ns",
                signed(s.hit_engine_ns, s.hit_lookup_ns + s.hit_fetch_ns, s.hits),
            ),
            (
                "engine.dml_self_us",
                signed(
                    s.write_mem_ns,
                    s.write_heap_ns + s.write_maintain_ns,
                    s.writes,
                ) / 1e3,
            ),
            (
                "engine.commit_wait_us",
                signed(s.write_engine_ns, s.write_mem_ns, s.writes) / 1e3,
            ),
            ("engine.tuner_adds", s.adapt_adds as f64),
            ("engine.tuner_evicts", s.tuner_evicts as f64),
            ("trace.self_sum_share", self.log.self_sum_share()),
            ("trace.replayed_ops", (s.scans + s.hits + s.writes) as f64),
            ("trace.replay_mismatches", self.mismatches as f64),
        ];

        // storage: a dirty-set sync (what one checkpoint flushes), then the
        // full sweep with a visitor that does nothing — once through the
        // fixture's pool, and once through a second pool of an eighth of
        // the table over the same file, where every batch misses.
        let start = Instant::now();
        self.pool.sync().map_err(|e| fail("sync", &e))?;
        values.push(("storage.file_sync_ms", ns(start) as f64 / 1e6));
        let pages = self.heap.num_pages();
        let sweep_ns_per_page = |heap: &HeapFile| -> Result<f64, String> {
            let mut sweeps = Vec::new();
            for _ in 0..3 {
                let start = Instant::now();
                let (read, _) = heap
                    .sweep_read_runs([(0..pages, false)], |_, _, _| {})
                    .map_err(|e| fail("sweep", &e))?;
                sweeps.push(ratio(ns(start) as f64, f64::from(read)));
            }
            Ok(median(&sweeps))
        };
        values.push(("storage.sweep_ns_per_page", sweep_ns_per_page(&self.heap)?));
        let backend = FileBackend::open(&self.dir.join("heap.db"), self.cfg.cost_model)
            .map_err(|e| fail("reopen heap file", &e))?;
        let small = HeapFile::new(BufferPool::with_backend(
            Box::new(backend),
            BufferPoolConfig::lru((pages as usize / 8).max(16)),
        ));
        let page_ids: Vec<_> = (0..pages)
            .filter_map(|ord| self.heap.page_id_of(ord))
            .collect();
        small
            .adopt_pages(&page_ids)
            .map_err(|e| fail("adopt pages", &e))?;
        values.push(("storage.miss_us_per_page", sweep_ns_per_page(&small)? / 1e3));
        drop(small);

        // index: add + remove of one entry in a full index over the first
        // rows of column A, the size a tenth-of-the-domain coverage gives.
        let mut scratch = PartialIndex::new("scratch", Coverage::All, IndexBackend::BTree);
        for (tuple, rid) in tuples.iter().zip(&self.loaded).take(tuples.len() / 10) {
            scratch.add(int(tuple, 0), *rid);
        }
        let (key, rid) = (Value::Int(plan.domain / 2), Rid::new(u32::MAX - 7, 0));
        let rounds = 2000;
        let start = Instant::now();
        for _ in 0..rounds {
            scratch.add(key.clone(), rid);
            scratch.remove(&key, rid);
        }
        values.push(("index.maintain_ns", ns(start) as f64 / f64::from(rounds)));

        // core: probe and prepare against column A's buffer filled from the
        // whole table, in a space of its own with no budget.
        let counts: Vec<u32> = match &self.columns[0].buffer {
            Some((_, counters)) => (0..pages).map(|p| counters.get(p).max(1)).collect(),
            None => vec![1; pages as usize],
        };
        let mut space = IndexBufferSpace::new(SpaceConfig {
            i_max: pages.max(1),
            ..SpaceConfig::default()
        });
        let id = space.register("A", plan.buffer_config(), counts);
        let coverage = self.columns[0].partial.coverage().clone();
        let probe = Predicate::Equals(Value::Int(plan.domain / 2));
        aib_core::indexing_scan(
            &self.heap,
            &mut space,
            id,
            0,
            &|v| coverage.covers(v),
            &probe,
            &mut Vec::new(),
        )
        .map_err(|e| fail("fill buffer", &e))?;
        let rounds = 200;
        let start = Instant::now();
        for i in 0..rounds {
            let predicate = Predicate::Equals(Value::Int(plan.domain / 2 + i64::from(i)));
            std::hint::black_box(buffer_scan_rids(space.buffer(id), &predicate));
        }
        values.push(("core.buffer_probe_ns", ns(start) as f64 / f64::from(rounds)));
        let rounds = 50;
        let start = Instant::now();
        for i in 0..rounds {
            let predicate = Predicate::Equals(Value::Int(plan.domain / 2 + i64::from(i)));
            std::hint::black_box(prepare_scan(
                &self.heap,
                &mut space,
                id,
                &predicate,
                &mut Vec::new(),
            ));
        }
        values.push((
            "core.prepare_us",
            ns(start) as f64 / f64::from(rounds) / 1e3,
        ));
        Ok(values)
    }

    /// Sampled scans that were not replayed because the engine displaced
    /// partitions before planning.
    pub fn displaced_scans(&self) -> u64 {
        self.sums.displaced_scans
    }

    pub fn cleanup(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}
