//! Set-up, the closed-loop clients, and the crash-and-reopen check. All of
//! it drives the engine through `Database` / `ClientHandle` only.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use aib_engine::{
    AccessPath, BatchOp, ClientHandle, Database, EngineResult, ExecOutcome, Query, TunerConfig,
};
use aib_index::IndexBackend;
use aib_storage::stats::IoSnapshot;
use aib_storage::{BudgetSnapshot, Rid, Tuple, Wal, WalRecord};

use crate::oracle::{make_tuple, same_rids, table_diff, BaseModel, ClientModel};
use crate::workload::{
    client_stream, preload_rows, warmup_values, Op, Plan, Step, Workload, COLUMNS, LOAD_BATCH,
    NO_PHASE, TABLE,
};

/// `[len][crc]` in front of every WAL payload (`aib_storage::wal`).
const WAL_FRAME_HEADER: u64 = 8;

/// The tuner of the phased workloads: wide enough a window that a hot value
/// of the dominant column reaches the threshold, small enough a capacity
/// that one phase's hot set fills it.
pub const TUNER: TunerConfig = TunerConfig {
    window: 90,
    threshold: 6,
    capacity: 12,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Range,
    Insert,
    Update,
    Delete,
}

impl Kind {
    pub fn is_read(self) -> bool {
        matches!(self, Kind::Point | Kind::Range)
    }
}

/// What the benchmark recorded about one op. Latency is the `Instant` pair
/// around the public call and nothing else.
#[derive(Debug, Clone)]
pub struct OpRec {
    pub kind: Kind,
    /// `None` for DML.
    pub path: Option<AccessPath>,
    /// The call returned `Ok` and the oracle agreed with its result.
    pub ok: bool,
    pub lat_ns: u64,
    pub phase: u32,
    pub at: u16,
    /// Queried column of a read.
    pub col: u8,
    pub pages_read: u32,
    pub pages_skipped: u32,
    pub pages_indexed: u32,
    pub entries_added: u64,
    pub entries_displaced: u64,
    pub partitions_dropped: u32,
    pub io: IoSnapshot,
    /// Tuple bytes written by an acked insert or update.
    pub user_bytes: u64,
    /// WAL frame bytes the op's record takes.
    pub wal_bytes: u64,
}

impl OpRec {
    /// The record of `step` before it ran.
    pub fn new(step: &Step) -> OpRec {
        OpRec {
            kind: Kind::Point,
            path: None,
            ok: false,
            lat_ns: 0,
            phase: step.phase,
            at: step.at,
            col: match step.op {
                Op::Point { col, .. } | Op::Range { col, .. } | Op::PointOwn { col, .. } => col,
                _ => 0,
            },
            pages_read: 0,
            pages_skipped: 0,
            pages_indexed: 0,
            entries_added: 0,
            entries_displaced: 0,
            partitions_dropped: 0,
            io: IoSnapshot::default(),
            user_bytes: 0,
            wal_bytes: 0,
        }
    }
}

/// Callbacks the traced pass hangs its fixture replay on. The untraced
/// window uses [`NoHook`], which compiles to nothing.
pub trait Hook {
    fn before_read(&mut self, _db: &Database, _query: &Query) {}
    fn after_read(&mut self, _db: &Database, _query: &Query, _out: &ExecOutcome, _rec: &OpRec) {}
    fn after_write(&mut self, _write: &Write<'_>, _rec: &OpRec) {}
}

pub struct NoHook;
impl Hook for NoHook {}

/// An acked DML op, as the replay needs it.
pub enum Write<'a> {
    Insert {
        rid: Rid,
        tuple: &'a Tuple,
    },
    Update {
        old: Rid,
        old_tuple: &'a Tuple,
        new: Rid,
        tuple: &'a Tuple,
    },
    Delete {
        rid: Rid,
        old_tuple: &'a Tuple,
    },
}

/// One client: its connection and its half of the oracle.
pub struct Client<'a> {
    pub handle: ClientHandle,
    pub base: &'a BaseModel,
    pub model: &'a mut ClientModel,
    /// A key of the client's private range, for the insert that stands in
    /// for an update or delete while the client owns no row.
    pub spare_key: i64,
}

impl<'a> Client<'a> {
    pub fn new(
        db: &Arc<Database>,
        base: &'a BaseModel,
        model: &'a mut ClientModel,
        plan: &Plan,
        client: usize,
    ) -> Self {
        Client {
            handle: ClientHandle::new(Arc::clone(db)),
            base,
            model,
            spare_key: plan.private_uncovered(client).0,
        }
    }

    /// Runs one step: builds the statement, times the call, checks the
    /// answer against the model, updates the model.
    pub fn run(&mut self, step: &Step, hook: &mut impl Hook) -> OpRec {
        let mut rec = OpRec::new(step);
        match &step.op {
            Op::Point { col, value } => {
                let expected = self.base.range(*col as usize, *value, *value);
                self.read(
                    Query::point(TABLE, COLUMNS[*col as usize], *value),
                    &expected,
                    &mut rec,
                    hook,
                );
            }
            Op::Range { col, lo, hi } => {
                rec.kind = Kind::Range;
                let expected = self.base.range(*col as usize, *lo, *hi);
                self.read(
                    Query::range(TABLE, COLUMNS[*col as usize], *lo, *hi),
                    &expected,
                    &mut rec,
                    hook,
                );
            }
            Op::PointOwn { col, pick } => {
                // With no row of its own yet the client asks for a key of
                // its range that no row has: expected answer, nothing.
                let value = match self.model.rows.len() {
                    0 => i64::MAX,
                    n => self.model.rows[*pick as usize % n].vals[*col as usize],
                };
                let expected = self.model.point(*col as usize, value);
                self.read(
                    Query::point(TABLE, COLUMNS[*col as usize], value),
                    &expected,
                    &mut rec,
                    hook,
                );
            }
            Op::Insert { vals, payload } => self.insert(*vals, *payload, &mut rec, hook),
            Op::Update {
                pick,
                vals,
                payload,
            } => match self.model.rows.len() {
                0 => self.insert(*vals, *payload, &mut rec, hook),
                n => self.update(*pick as usize % n, *vals, *payload, &mut rec, hook),
            },
            Op::Delete { pick } => match self.model.rows.len() {
                // Nothing to delete yet: the stream stays the same length.
                0 => self.insert([self.spare_key; 3], 1, &mut rec, hook),
                n => self.delete(*pick as usize % n, &mut rec, hook),
            },
        }
        rec
    }

    fn read(&mut self, query: Query, expected: &[Rid], rec: &mut OpRec, hook: &mut impl Hook) {
        hook.before_read(self.handle.db(), &query);
        let start = Instant::now();
        let result = self.handle.execute(&query);
        rec.lat_ns = start.elapsed().as_nanos() as u64;
        let Ok(out) = result else { return };
        rec.ok = same_rids(&out.result.rids, expected);
        rec.path = Some(out.result.path);
        rec.io = out.metrics.io;
        if let Some(scan) = &out.metrics.scan {
            rec.pages_read = scan.pages_read;
            rec.pages_skipped = scan.pages_skipped;
            rec.pages_indexed = scan.pages_indexed;
            rec.entries_added = scan.entries_added;
            rec.entries_displaced = scan.entries_displaced as u64;
            rec.partitions_dropped = scan.partitions_dropped as u32;
        } else if out.result.path == AccessPath::PlainScan {
            // A plain scan reports no scan stats; every page it touched is
            // in the I/O delta.
            rec.pages_read = (rec.io.page_reads + rec.io.buffer_hits) as u32;
        }
        hook.after_read(self.handle.db(), &query, &out, rec);
    }

    fn insert(&mut self, vals: [i64; 3], payload: u16, rec: &mut OpRec, hook: &mut impl Hook) {
        rec.kind = Kind::Insert;
        let tuple = make_tuple(vals, payload);
        let start = Instant::now();
        let result = self.handle.insert(TABLE, &tuple);
        rec.lat_ns = start.elapsed().as_nanos() as u64;
        let Ok(rid) = result else { return };
        rec.ok = self.handle.fetch(TABLE, rid).is_ok_and(|t| t == tuple);
        let bytes = tuple.to_bytes();
        rec.user_bytes = bytes.len() as u64;
        rec.wal_bytes = WAL_FRAME_HEADER
            + WalRecord::Insert {
                table: 0,
                rid,
                bytes,
            }
            .encode()
            .len() as u64;
        hook.after_write(&Write::Insert { rid, tuple: &tuple }, rec);
        self.model.insert(rid, vals, tuple);
    }

    fn update(
        &mut self,
        idx: usize,
        vals: [i64; 3],
        payload: u16,
        rec: &mut OpRec,
        hook: &mut impl Hook,
    ) {
        rec.kind = Kind::Update;
        let tuple = make_tuple(vals, payload);
        let old = self.model.rows[idx].rid;
        let start = Instant::now();
        let result = self.handle.update(TABLE, old, &tuple);
        rec.lat_ns = start.elapsed().as_nanos() as u64;
        let Ok(new) = result else { return };
        // The old slot may already hold another client's new row, never
        // this client's old one.
        rec.ok = self.handle.fetch(TABLE, new).is_ok_and(|t| t == tuple)
            && (new == old
                || self
                    .handle
                    .fetch(TABLE, old)
                    .map_or(true, |t| t != self.model.rows[idx].tuple));
        let bytes = tuple.to_bytes();
        rec.user_bytes = bytes.len() as u64;
        rec.wal_bytes = WAL_FRAME_HEADER
            + WalRecord::Update {
                table: 0,
                old,
                new,
                bytes,
            }
            .encode()
            .len() as u64;
        let before = self.model.remove(idx);
        hook.after_write(
            &Write::Update {
                old,
                old_tuple: &before.tuple,
                new,
                tuple: &tuple,
            },
            rec,
        );
        self.model.insert(new, vals, tuple);
    }

    fn delete(&mut self, idx: usize, rec: &mut OpRec, hook: &mut impl Hook) {
        rec.kind = Kind::Delete;
        let rid = self.model.rows[idx].rid;
        let start = Instant::now();
        let result = self.handle.delete(TABLE, rid);
        rec.lat_ns = start.elapsed().as_nanos() as u64;
        if result.is_err() {
            return;
        }
        rec.ok = self
            .handle
            .fetch(TABLE, rid)
            .map_or(true, |t| t != self.model.rows[idx].tuple);
        rec.wal_bytes =
            WAL_FRAME_HEADER + WalRecord::Delete { table: 0, rid }.encode().len() as u64;
        let before = self.model.remove(idx);
        hook.after_write(
            &Write::Delete {
                rid,
                old_tuple: &before.tuple,
            },
            rec,
        );
    }
}

/// A set-up database with its oracle.
pub struct Live {
    pub db: Arc<Database>,
    pub dir: PathBuf,
    pub base: Arc<BaseModel>,
    pub clients: Vec<ClientModel>,
    /// Load + index build + warm-up, in seconds.
    pub setup_s: f64,
    /// Ops the warm-up ran (fixed for stream-prefix warm-ups, measured for
    /// the condition-warmed workloads).
    pub warmup_ops: usize,
}

pub fn create_indexes(db: &Database, plan: &Plan) -> EngineResult<()> {
    for (i, column) in COLUMNS.into_iter().enumerate() {
        let def = plan.index_def(i);
        let buffer = def.buffered.then(|| plan.buffer_config());
        db.create_partial_index(TABLE, column, def.coverage, IndexBackend::BTree, buffer)?;
        if def.tuned {
            db.attach_tuner(TABLE, column, TUNER)?;
        }
    }
    Ok(())
}

/// Opens a fresh durable database in `dir`, loads `tuples`, builds the
/// workload's indexes, inserts each client's own rows, checkpoints, and
/// warms up. `base` is the model of an earlier set-up of the same data; the
/// load must reproduce its rids.
pub fn setup(
    plan: &Plan,
    tuples: &[Tuple],
    streams: &[Vec<Step>],
    dir: &Path,
    base: Option<Arc<BaseModel>>,
    hook: &mut impl Hook,
) -> Result<Live, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("set-up: {what}: {e}");
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let db = Database::open(dir, plan.engine_config()).map_err(|e| fail("open", &e))?;
    let spec = aib_workload::TableSpec::scaled(plan.rows, plan.seed);
    db.create_table(TABLE, spec.schema())
        .map_err(|e| fail("create table", &e))?;
    let mut rids = Vec::with_capacity(tuples.len());
    for chunk in tuples.chunks(LOAD_BATCH) {
        let ops: Vec<BatchOp> = chunk
            .iter()
            .map(|tuple| BatchOp::Insert {
                table: TABLE.into(),
                tuple: tuple.clone(),
            })
            .collect();
        let out = db.execute_batch(&ops).map_err(|e| fail("load", &e))?;
        rids.extend(out.into_iter().flatten());
    }
    create_indexes(&db, plan).map_err(|e| fail("index build", &e))?;
    let mut clients: Vec<ClientModel> = (0..plan.clients).map(|_| ClientModel::default()).collect();
    for (c, model) in clients.iter_mut().enumerate() {
        let rows = preload_rows(plan, c);
        let staged: Vec<Tuple> = rows
            .iter()
            .map(|&(vals, payload)| make_tuple(vals, payload))
            .collect();
        let ops: Vec<BatchOp> = staged
            .iter()
            .map(|tuple| BatchOp::Insert {
                table: TABLE.into(),
                tuple: tuple.clone(),
            })
            .collect();
        let out = db
            .execute_batch(&ops)
            .map_err(|e| fail("client preload", &e))?;
        for ((vals, _), (rid, tuple)) in rows.into_iter().zip(out.into_iter().flatten().zip(staged))
        {
            model.insert(rid, vals, tuple);
        }
    }
    db.checkpoint().map_err(|e| fail("checkpoint", &e))?;
    let loaded_s = start.elapsed().as_secs_f64();

    // The model is the benchmark's own bookkeeping, not set-up work of the
    // system: it is built with the clock stopped.
    let base = match base {
        Some(base) if base.rids == rids => base,
        Some(_) => return Err("set-up: a repeated load placed tuples at different rids".into()),
        None => Arc::new(BaseModel::new(tuples.to_vec(), rids)),
    };

    let db = db.into_shared();
    let warm_start = Instant::now();
    let warmup_ops = warm_up(plan, &db, streams, &base, &mut clients, hook)?;
    let setup_s = loaded_s + warm_start.elapsed().as_secs_f64();
    Ok(Live {
        db,
        dir: dir.to_path_buf(),
        base,
        clients,
        setup_s,
        warmup_ops,
    })
}

/// Brings the engine to the state the measured window starts from. Runs on
/// one thread; a failed or wrong warm-up op fails the run.
fn warm_up(
    plan: &Plan,
    db: &Arc<Database>,
    streams: &[Vec<Step>],
    base: &BaseModel,
    clients: &mut [ClientModel],
    hook: &mut impl Hook,
) -> Result<usize, String> {
    let mut ops = 0;
    // Stream-prefix warm-up (`shift`, `mixed`): each client's leading ops.
    for (c, (stream, model)) in streams.iter().zip(clients.iter_mut()).enumerate() {
        let mut client = Client::new(db, base, model, plan, c);
        for step in &stream[..plan.warmup_per_client] {
            if !client.run(step, hook).ok {
                return Err(format!("warm-up op failed: {step:?}"));
            }
            ops += 1;
        }
    }
    // Condition warm-up (`write_durable`): uncovered point queries on A
    // until its buffer answers one — the query indexes nothing more and
    // reads next to nothing. (Not "reads nothing": a heap page the table
    // grew by after the index was built, and that holds no uncovered tuple,
    // is never marked skippable, so one page can stay.)
    if plan.workload != Workload::WriteDurable {
        return Ok(ops);
    }
    let handle = ClientHandle::new(Arc::clone(db));
    let answered_below = db.table(TABLE).map_or(0, |t| t.num_pages()) / 100;
    let cap = 200;
    for value in warmup_values(plan, cap) {
        let out = handle
            .execute(&Query::point(TABLE, COLUMNS[0], value))
            .map_err(|e| format!("warm-up query failed: {e}"))?;
        ops += 1;
        if out
            .metrics
            .scan
            .is_some_and(|s| s.pages_indexed == 0 && s.pages_read <= answered_below)
        {
            return Ok(ops);
        }
    }
    Err(format!(
        "A's buffer was not complete after {cap} warm-up queries"
    ))
}

/// Counters read through the public API around a window.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    pub io: IoSnapshot,
    pub wal_fsyncs: u64,
    /// Reservations the memory governor denied.
    pub denials: u64,
}

impl EngineCounters {
    pub fn read(db: &Database) -> EngineCounters {
        EngineCounters {
            io: db.stats().snapshot(),
            wal_fsyncs: db.wal_fsyncs(),
            denials: db.budget().denials(),
        }
    }

    pub fn since(&self, earlier: &EngineCounters) -> EngineCounters {
        EngineCounters {
            io: self.io.since(&earlier.io),
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
            denials: self.denials - earlier.denials,
        }
    }
}

/// Everything a measured window produced.
pub struct WindowOut {
    /// Op records per client, in execution order.
    pub recs: Vec<Vec<OpRec>>,
    /// Start barrier to the last client's last op.
    pub wall_s: f64,
    /// Threads that ran the ops: the clients, or one for an interleaved pass.
    pub threads: usize,
    pub counters: EngineCounters,
    pub memory: BudgetSnapshot,
    pub index_entries: usize,
    pub table_pages: u32,
}

fn window_out(
    live: &Live,
    recs: Vec<Vec<OpRec>>,
    wall_s: f64,
    threads: usize,
    before: &EngineCounters,
) -> WindowOut {
    let db = &live.db;
    WindowOut {
        recs,
        wall_s,
        threads,
        counters: EngineCounters::read(db).since(before),
        memory: db.memory(),
        index_entries: COLUMNS
            .iter()
            .filter_map(|c| db.partial_index_len(TABLE, c))
            .sum(),
        table_pages: db.table(TABLE).map_or(0, |t| t.num_pages()),
    }
}

/// The measured window: one thread per client, each running its ops
/// `[from, from + n)` back to back after a common start barrier.
pub fn run_window(
    live: &mut Live,
    plan: &Plan,
    streams: &[Vec<Step>],
    from: usize,
    n: usize,
) -> WindowOut {
    let before = EngineCounters::read(&live.db);
    let barrier = Barrier::new(streams.len());
    let (db, base) = (&live.db, &*live.base);
    let spans: Vec<(Instant, Instant, Vec<OpRec>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .zip(live.clients.iter_mut())
            .enumerate()
            .map(|(c, (stream, model))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(db, base, model, plan, c);
                    let mut recs = Vec::with_capacity(n);
                    barrier.wait();
                    let start = Instant::now();
                    for step in &stream[from..from + n] {
                        recs.push(client.run(step, &mut NoHook));
                    }
                    (start, Instant::now(), recs)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    let start = spans
        .iter()
        .map(|s| s.0)
        .min()
        .expect("at least one client");
    let end = spans
        .iter()
        .map(|s| s.1)
        .max()
        .expect("at least one client");
    let recs = spans.into_iter().map(|s| s.2).collect();
    window_out(
        live,
        recs,
        (end - start).as_secs_f64(),
        streams.len(),
        &before,
    )
}

/// The single-client pass of the traced run: one thread takes the clients'
/// ops `[from, from + n)` in turn (client 0's first, then client 1's first,
/// …), so every count repeats exactly.
pub fn run_interleaved(
    live: &mut Live,
    plan: &Plan,
    streams: &[Vec<Step>],
    from: usize,
    n: usize,
    hook: &mut impl Hook,
) -> WindowOut {
    let before = EngineCounters::read(&live.db);
    let (db, base) = (&live.db, &*live.base);
    let mut clients: Vec<Client<'_>> = live
        .clients
        .iter_mut()
        .enumerate()
        .map(|(c, model)| Client::new(db, base, model, plan, c))
        .collect();
    let mut recs: Vec<Vec<OpRec>> = streams.iter().map(|_| Vec::with_capacity(n)).collect();
    let start = Instant::now();
    for i in from..from + n {
        for ((client, stream), recs) in clients.iter_mut().zip(streams).zip(&mut recs) {
            recs.push(client.run(&stream[i], hook));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    drop(clients);
    window_out(live, recs, wall_s, 1, &before)
}

/// What the crash check found.
pub struct CrashOut {
    /// `Database::open` wall time per crashed copy.
    pub restart_s: Vec<f64>,
    /// Rows that differ between a reopened copy and the model, summed over
    /// the copies.
    pub lost_acked_writes: u64,
    /// `heap.db` + `wal.log` of a reopened (hence checkpointed) copy.
    pub disk_bytes: u64,
    /// Encoded bytes of the rows the model holds.
    pub live_user_bytes: u64,
    /// WAL records the crashed log replays.
    pub replayed_records: u64,
}

fn copy_db(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for file in ["heap.db", "wal.log"] {
        std::fs::copy(from.join(file), to.join(file))?;
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    ["heap.db", "wal.log"]
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// Crashes the database right after its window and reopens it `copies`
/// times, timing each open, handing each reopened database to `probe`, and
/// diffing each recovered table against the model.
///
/// The crash is a drop without `close()`: no final checkpoint, the heap file
/// as stale as the background checkpointer last left it, the rest — whatever
/// the window's clients committed since, group commits included — in the log.
pub fn crash_and_reopen(
    live: Live,
    plan: &Plan,
    copies: usize,
    mut probe: impl FnMut(&Database),
) -> Result<CrashOut, String> {
    let Live {
        db,
        dir,
        base,
        clients,
        ..
    } = live;
    drop(db);
    let replayed_records = Wal::replay(&dir.join("wal.log")).map_or(0, |r| r.len() as u64);
    let live_user_bytes = base.user_bytes
        + clients
            .iter()
            .flat_map(|c| &c.rows)
            .map(|row| row.tuple.encoded_len() as u64)
            .sum::<u64>();
    let mut out = CrashOut {
        restart_s: Vec::with_capacity(copies),
        lost_acked_writes: 0,
        disk_bytes: 0,
        live_user_bytes,
        replayed_records,
    };
    // A log with a tail must be replayed from a fresh copy each time
    // (opening checkpoints it away). A read-only workload leaves no tail:
    // every reopen of the directory itself finds the state the crash left,
    // and the run is spared writing the heap file out again and again.
    let in_place = !plan.workload.writes();
    for i in 0..copies {
        let target = if in_place {
            dir.clone()
        } else {
            dir.with_extension(format!("crash{i}"))
        };
        if !in_place {
            copy_db(&dir, &target).map_err(|e| format!("copy crashed database: {e}"))?;
        }
        let start = Instant::now();
        let db =
            Database::open(&target, plan.engine_config()).map_err(|e| format!("reopen: {e}"))?;
        out.restart_s.push(start.elapsed().as_secs_f64());
        probe(&db);
        let rows = db
            .table(TABLE)
            .and_then(|t| t.scan_all())
            .map_err(|e| format!("scan reopened table: {e}"))?;
        out.lost_acked_writes += table_diff(&rows, &base, &clients);
        out.disk_bytes = dir_bytes(&target);
        drop(db);
        if !in_place {
            let _ = std::fs::remove_dir_all(&target);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// The table's tuples and each client's stream, generated from the seed.
pub struct Inputs {
    pub tuples: Vec<Tuple>,
    pub streams: Vec<Vec<Step>>,
}

impl Inputs {
    pub fn generate(plan: &Plan) -> Inputs {
        let spec = aib_workload::TableSpec::scaled(plan.rows, plan.seed);
        let mut tuples: Vec<Tuple> = spec.tuples().collect();
        if plan.workload == Workload::ReadMix {
            // Rows whose B is covered first (a stable partition of the
            // generated rows), so that B's coverage makes the first half of
            // the table skippable. See `Plan::index_def`.
            let covered = |t: &Tuple| {
                t.get(1)
                    .and_then(|v| v.as_int())
                    .is_some_and(|b| b <= plan.covered_hi(1))
            };
            tuples.sort_by_key(|t| !covered(t));
        }
        Inputs {
            tuples,
            streams: (0..plan.clients).map(|c| client_stream(plan, c)).collect(),
        }
    }
}

/// Whether `rec` is the first read of a measured phase.
pub fn starts_phase(rec: &OpRec) -> bool {
    rec.phase != NO_PHASE && rec.at == 0
}
