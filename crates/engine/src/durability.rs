//! Engine-side payloads of the write-ahead log: the codec for
//! [`WalRecord::Snapshot`](aib_storage::WalRecord::Snapshot) and
//! [`WalRecord::Ddl`](aib_storage::WalRecord::Ddl) bodies, which the storage
//! crate treats as opaque bytes.
//!
//! The paper's recovery contract keeps these payloads small: a snapshot is
//! **catalog metadata only** — table names, schemas, heap page lists, and
//! the DDL-time definition of every partial index. It never contains tuple
//! data (the heap file plus the DML records carry that), never contains
//! partial-index *entries* or tuner state (rebuilt/reverted by rescan), and
//! never contains Index Buffer contents or `C[p]` counters (rebuilt for
//! free from the same rescan — the whole point of §V's "no recovery cost"
//! argument).
//!
//! Wire format: the storage crate's [`codec`] — little-endian integers,
//! `u32`-length-prefixed strings, [`Value`]s in the tuple encoding — read
//! back by its strict [`Reader`]; `read_schema`, `read_coverage` and
//! `read_index_def` are this module's readers over it. Trailing bytes or
//! truncation surface as [`StorageError::Corrupt`], because a snapshot that
//! passed the WAL's CRC yet fails to decode means a version mismatch or a
//! bug, not a torn write.

use std::collections::BTreeSet;

use aib_core::BufferConfig;
use aib_index::Coverage;
use aib_storage::codec::{self, put_i64, put_str, put_u32, put_u64, Reader};
use aib_storage::{Column, ColumnType, PageId, Schema, StorageError, Value};

/// Snapshot payload format version.
const SNAPSHOT_VERSION: u32 = 1;

/// The DDL-time definition of one partial index, as logged. Recovery
/// rebuilds the index from this and a heap rescan; runtime tuner
/// adaptations are deliberately absent.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IndexDef {
    /// Column position in the table schema.
    pub column: u32,
    /// DDL-time coverage (set by create/redefine, never by the tuner).
    pub coverage: Coverage,
    /// Index Buffer configuration, when the column has one.
    pub buffer: Option<BufferConfig>,
}

/// Catalog image of one table inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableImage {
    /// Table name.
    pub name: String,
    /// Table schema.
    pub schema: Schema,
    /// Heap page ids in ordinal order at checkpoint time.
    pub pages: Vec<PageId>,
    /// Partial-index definitions.
    pub indexes: Vec<IndexDef>,
}

/// The decoded body of a [`WalRecord::Snapshot`](aib_storage::WalRecord).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SnapshotImage {
    /// Tables in catalog-ordinal order.
    pub tables: Vec<TableImage>,
}

/// The decoded body of a [`WalRecord::Ddl`](aib_storage::WalRecord): one
/// catalog mutation, replayed in log order during recovery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DdlOp {
    /// `create_table`.
    CreateTable {
        /// Table name.
        name: String,
        /// Table schema.
        schema: Schema,
    },
    /// `create_partial_index`.
    CreateIndex {
        /// Catalog ordinal of the table.
        table: u32,
        /// The logged definition.
        def: IndexDef,
    },
    /// `drop_partial_index`.
    DropIndex {
        /// Catalog ordinal of the table.
        table: u32,
        /// Column position of the dropped index.
        column: u32,
    },
    /// `redefine_coverage`.
    RedefineCoverage {
        /// Catalog ordinal of the table.
        table: u32,
        /// Column position of the redefined index.
        column: u32,
        /// The new DDL-time coverage.
        coverage: Coverage,
    },
}

mod ddl_tag {
    pub const CREATE_TABLE: u8 = 1;
    pub const CREATE_INDEX: u8 = 2;
    pub const DROP_INDEX: u8 = 3;
    pub const REDEFINE: u8 = 4;
}

// ------------------------------------------------------------- encoding

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.columns().len() as u32);
    for col in schema.columns() {
        put_str(out, &col.name);
        out.push(match col.ty {
            ColumnType::Int => 0,
            ColumnType::Str => 1,
        });
        out.push(u8::from(col.nullable));
    }
}

fn put_coverage(out: &mut Vec<u8>, coverage: &Coverage) {
    match coverage {
        Coverage::None => out.push(0),
        Coverage::All => out.push(1),
        Coverage::IntRange { lo, hi } => {
            out.push(2);
            put_i64(out, *lo);
            put_i64(out, *hi);
        }
        Coverage::Set(values) => {
            out.push(3);
            put_u32(out, values.len() as u32);
            for v in values {
                v.encode(out);
            }
        }
    }
}

/// The one value of the three bytes that used to select an index structure:
/// the partial index's backend tag, the buffer's backend tag and the
/// disk-resident ("paged") flag. Every index is a B+-tree in memory now; the
/// bytes stay in the format (no `SNAPSHOT_VERSION` bump) so existing logs
/// decode and every record keeps its length — the benchmark's byte counts
/// repeat exactly.
const BTREE_IN_MEMORY: u8 = 0;

fn put_index_def(out: &mut Vec<u8>, def: &IndexDef) {
    put_u32(out, def.column);
    put_coverage(out, &def.coverage);
    out.push(BTREE_IN_MEMORY);
    match &def.buffer {
        None => out.push(0),
        Some(cfg) => {
            out.push(1);
            put_u32(out, cfg.partition_pages);
            put_u64(out, cfg.history_k as u64);
            out.push(BTREE_IN_MEMORY);
        }
    }
    out.push(BTREE_IN_MEMORY);
}

impl SnapshotImage {
    /// Serializes the snapshot body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, SNAPSHOT_VERSION);
        put_u32(&mut out, self.tables.len() as u32);
        for t in &self.tables {
            put_str(&mut out, &t.name);
            put_schema(&mut out, &t.schema);
            put_u32(&mut out, t.pages.len() as u32);
            for &pid in &t.pages {
                put_u32(&mut out, pid.0);
            }
            put_u32(&mut out, t.indexes.len() as u32);
            for def in &t.indexes {
                put_index_def(&mut out, def);
            }
        }
        out
    }

    /// Deserializes a snapshot body produced by [`SnapshotImage::encode`].
    pub fn decode(payload: &[u8]) -> Result<SnapshotImage, StorageError> {
        let mut r = Reader::new(payload);
        let version = r.u32("snapshot version")?;
        if version != SNAPSHOT_VERSION {
            return Err(StorageError::Corrupt(format!(
                "snapshot version {version}, expected {SNAPSHOT_VERSION}"
            )));
        }
        let ntables = r.u32("snapshot table count")? as usize;
        let mut tables = Vec::with_capacity(ntables.min(1024));
        for _ in 0..ntables {
            let name = r.str("table name")?.to_owned();
            let schema = read_schema(&mut r)?;
            let npages = r.u32("table page count")? as usize;
            let mut pages = Vec::with_capacity(npages.min(1 << 16));
            for _ in 0..npages {
                pages.push(PageId(r.u32("table page id")?));
            }
            let nindexes = r.u32("table index count")? as usize;
            let mut indexes = Vec::with_capacity(nindexes.min(64));
            for _ in 0..nindexes {
                indexes.push(read_index_def(&mut r)?);
            }
            tables.push(TableImage {
                name,
                schema,
                pages,
                indexes,
            });
        }
        r.finish("snapshot")?;
        Ok(SnapshotImage { tables })
    }
}

impl DdlOp {
    /// Serializes the DDL body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            DdlOp::CreateTable { name, schema } => {
                out.push(ddl_tag::CREATE_TABLE);
                put_str(&mut out, name);
                put_schema(&mut out, schema);
            }
            DdlOp::CreateIndex { table, def } => {
                out.push(ddl_tag::CREATE_INDEX);
                put_u32(&mut out, *table);
                put_index_def(&mut out, def);
            }
            DdlOp::DropIndex { table, column } => {
                out.push(ddl_tag::DROP_INDEX);
                put_u32(&mut out, *table);
                put_u32(&mut out, *column);
            }
            DdlOp::RedefineCoverage {
                table,
                column,
                coverage,
            } => {
                out.push(ddl_tag::REDEFINE);
                put_u32(&mut out, *table);
                put_u32(&mut out, *column);
                put_coverage(&mut out, coverage);
            }
        }
        out
    }

    /// Deserializes a DDL body produced by [`DdlOp::encode`].
    pub fn decode(payload: &[u8]) -> Result<DdlOp, StorageError> {
        let mut r = Reader::new(payload);
        let tag = r.u8("ddl tag")?;
        let op = match tag {
            ddl_tag::CREATE_TABLE => DdlOp::CreateTable {
                name: r.str("table name")?.to_owned(),
                schema: read_schema(&mut r)?,
            },
            ddl_tag::CREATE_INDEX => DdlOp::CreateIndex {
                table: r.u32("ddl table")?,
                def: read_index_def(&mut r)?,
            },
            ddl_tag::DROP_INDEX => DdlOp::DropIndex {
                table: r.u32("ddl table")?,
                column: r.u32("ddl column")?,
            },
            ddl_tag::REDEFINE => DdlOp::RedefineCoverage {
                table: r.u32("ddl table")?,
                column: r.u32("ddl column")?,
                coverage: read_coverage(&mut r)?,
            },
            other => {
                return Err(codec::corrupt(format_args!("unknown ddl tag {other}")));
            }
        };
        r.finish("ddl record")?;
        Ok(op)
    }
}

// ------------------------------------------------------------- decoding

fn read_schema(r: &mut Reader<'_>) -> Result<Schema, StorageError> {
    let ncols = r.u32("schema column count")? as usize;
    let mut cols = Vec::with_capacity(ncols.min(256));
    for _ in 0..ncols {
        let name = r.str("column name")?;
        let col = match r.u8("column type")? {
            0 => Column::int(name),
            1 => Column::str(name),
            other => {
                return Err(codec::corrupt(format_args!(
                    "unknown column type tag {other}"
                )));
            }
        };
        cols.push(match r.u8("column nullability")? {
            0 => col,
            _ => col.nullable(),
        });
    }
    Ok(Schema::new(cols))
}

fn read_coverage(r: &mut Reader<'_>) -> Result<Coverage, StorageError> {
    match r.u8("coverage tag")? {
        0 => Ok(Coverage::None),
        1 => Ok(Coverage::All),
        2 => Ok(Coverage::IntRange {
            lo: r.i64("coverage lower bound")?,
            hi: r.i64("coverage upper bound")?,
        }),
        3 => {
            let n = r.u32("coverage set size")?;
            let values = (0..n)
                .map(|_| Value::read(r).map(|col| col.to_value()))
                .collect::<Result<BTreeSet<_>, _>>()?;
            Ok(Coverage::Set(values))
        }
        other => Err(codec::corrupt(format_args!("unknown coverage tag {other}"))),
    }
}

/// Reads one of the three structure bytes (see [`BTREE_IN_MEMORY`]). A
/// log written when the hash or paged structure existed may carry 1.
fn read_removed_structure(r: &mut Reader<'_>, removed: &str) -> Result<(), StorageError> {
    match r.u8(removed)? {
        BTREE_IN_MEMORY => Ok(()),
        other => Err(codec::corrupt(format_args!(
            "index definition selects the removed {removed} (byte {other}); \
             only the in-memory B+-tree exists"
        ))),
    }
}

fn read_index_def(r: &mut Reader<'_>) -> Result<IndexDef, StorageError> {
    let column = r.u32("index column")?;
    let coverage = read_coverage(r)?;
    read_removed_structure(r, "hash index backend")?;
    let buffer = match r.u8("buffer-config tag")? {
        0 => None,
        1 => {
            let partition_pages = r.u32("buffer partition pages")?;
            let history_k = r.u64("buffer history depth")? as usize;
            read_removed_structure(r, "hash buffer backend")?;
            Some(BufferConfig {
                partition_pages,
                history_k,
            })
        }
        other => {
            return Err(codec::corrupt(format_args!(
                "unknown buffer-config tag {other}"
            )));
        }
    };
    read_removed_structure(r, "paged (disk-resident) index")?;
    Ok(IndexDef {
        column,
        coverage,
        buffer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SnapshotImage {
        SnapshotImage {
            tables: vec![
                TableImage {
                    name: "orders".into(),
                    schema: Schema::new(vec![Column::int("k"), Column::str("pad").nullable()]),
                    pages: vec![PageId(0), PageId(2), PageId(5)],
                    indexes: vec![
                        IndexDef {
                            column: 0,
                            coverage: Coverage::IntRange { lo: -5, hi: 99 },
                            buffer: Some(BufferConfig {
                                partition_pages: 128,
                                history_k: 4,
                            }),
                        },
                        IndexDef {
                            column: 1,
                            coverage: Coverage::Set(
                                [Value::from("a"), Value::Int(3), Value::Null]
                                    .into_iter()
                                    .collect(),
                            ),
                            buffer: None,
                        },
                    ],
                },
                TableImage {
                    name: "empty".into(),
                    schema: Schema::new(vec![Column::int("x")]),
                    pages: vec![],
                    indexes: vec![],
                },
            ],
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = sample_snapshot();
        assert_eq!(SnapshotImage::decode(&snap.encode()).unwrap(), snap);
        let empty = SnapshotImage::default();
        assert_eq!(SnapshotImage::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn ddl_roundtrip() {
        let ops = vec![
            DdlOp::CreateTable {
                name: "t".into(),
                schema: Schema::new(vec![Column::int("k")]),
            },
            DdlOp::CreateIndex {
                table: 7,
                def: IndexDef {
                    column: 0,
                    coverage: Coverage::All,
                    buffer: Some(BufferConfig::default()),
                },
            },
            DdlOp::DropIndex {
                table: 0,
                column: 1,
            },
            DdlOp::RedefineCoverage {
                table: 1,
                column: 0,
                coverage: Coverage::None,
            },
        ];
        for op in ops {
            assert_eq!(DdlOp::decode(&op.encode()).unwrap(), op);
        }
    }

    /// Every coverage shape, each with and without a buffer; the set
    /// coverage holds `set`.
    fn every_index_def(set: &[Value]) -> Vec<IndexDef> {
        let coverages = [
            Coverage::None,
            Coverage::All,
            Coverage::IntRange {
                lo: i64::MIN,
                hi: i64::MAX,
            },
            Coverage::empty_set(),
            Coverage::Set(set.iter().cloned().collect()),
        ];
        let buffers = [
            None,
            Some(BufferConfig {
                partition_pages: 128,
                history_k: 4,
            }),
        ];
        let mut defs = Vec::new();
        for (column, coverage) in coverages.iter().enumerate() {
            for buffer in buffers {
                defs.push(IndexDef {
                    column: column as u32,
                    coverage: coverage.clone(),
                    buffer,
                });
            }
        }
        defs
    }

    /// [`sample_snapshot`] with every index definition on its second table.
    fn full_snapshot(set: &[Value]) -> SnapshotImage {
        let mut snapshot = sample_snapshot();
        snapshot.tables[1].indexes = every_index_def(set);
        snapshot
    }

    /// Every DDL op, the index ones over every index definition.
    fn every_ddl_op(set: &[Value]) -> Vec<DdlOp> {
        let mut ops = vec![
            DdlOp::CreateTable {
                name: "eval".into(),
                schema: Schema::new(vec![Column::int("k"), Column::str("pad").nullable()]),
            },
            DdlOp::DropIndex {
                table: 2,
                column: 1,
            },
        ];
        for def in every_index_def(set) {
            let coverage = def.coverage.clone();
            ops.push(DdlOp::CreateIndex { table: 1, def });
            ops.push(DdlOp::RedefineCoverage {
                table: 1,
                column: 0,
                coverage,
            });
        }
        ops
    }

    #[test]
    fn corrupt_payloads_rejected() {
        let corrupt = |r: Result<(), StorageError>| matches!(r, Err(StorageError::Corrupt(_)));
        assert!(SnapshotImage::decode(&[]).is_err());
        assert!(
            SnapshotImage::decode(&99u32.to_le_bytes()).is_err(),
            "bad version"
        );
        assert!(DdlOp::decode(&[]).is_err());
        assert!(DdlOp::decode(&[99]).is_err());
        // Trailing garbage after a valid op is corruption, not ignored.
        let mut bytes = DdlOp::DropIndex {
            table: 0,
            column: 0,
        }
        .encode();
        bytes.push(0);
        assert!(DdlOp::decode(&bytes).is_err());
        // Every strict prefix of a snapshot or of a DDL op is corruption:
        // never a panic, never a shorter value.
        let set = [
            Value::Null,
            Value::Int(-3),
            Value::from(""),
            Value::from("ORD"),
        ];
        let snapshot = full_snapshot(&set);
        let full = snapshot.encode();
        assert_eq!(SnapshotImage::decode(&full).unwrap(), snapshot);
        for cut in 0..full.len() {
            let decoded = SnapshotImage::decode(&full[..cut]).map(drop);
            assert!(corrupt(decoded), "snapshot cut at {cut}");
        }
        for op in every_ddl_op(&set) {
            let full = op.encode();
            assert_eq!(DdlOp::decode(&full).unwrap(), op);
            for cut in 0..full.len() {
                let decoded = DdlOp::decode(&full[..cut]).map(drop);
                assert!(corrupt(decoded), "{op:?} cut at {cut}");
            }
        }
    }

    /// FNV-1a over every byte format the engine writes and reads back:
    /// values, tuples, WAL frames of each record kind, WAL files of several
    /// generations, the heap-file header page, snapshots and DDL bodies.
    /// Every item is hashed behind its length. A change to any encoding
    /// changes the hash; the constant was recorded before the byte formats
    /// moved onto `aib_storage::codec`.
    #[test]
    fn byte_formats_are_frozen() {
        use std::sync::Arc;

        use aib_storage::{CostModel, FileBackend, MemDir, Rid, Tuple, Wal, WalRecord, PAGE_SIZE};

        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut item = |bytes: &[u8]| {
            let len = (bytes.len() as u64).to_le_bytes();
            for &byte in len.iter().chain(bytes) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };

        let values = vec![
            Value::Null,
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::from(""),
            Value::from("ORD"),
            Value::from("日本語"),
            Value::Str("x".repeat(70_000)),
        ];
        let set = values.clone();
        for v in &values {
            let mut out = Vec::new();
            v.encode(&mut out);
            item(&out);
        }
        let tuples = [
            Tuple::new(vec![]),
            Tuple::new(values),
            Tuple::new(vec![Value::Int(7), Value::from("FRA"), Value::Null]),
        ];
        for t in &tuples {
            item(&t.to_bytes());
        }

        let tuple = tuples[2].to_bytes();
        let records = [
            WalRecord::Insert {
                table: 3,
                rid: Rid::new(17, 4),
                bytes: tuple.clone(),
            },
            WalRecord::Delete {
                table: u32::MAX,
                rid: Rid::new(u32::MAX, u16::MAX),
            },
            WalRecord::Update {
                table: 0,
                old: Rid::new(1, 2),
                new: Rid::new(3, 4),
                bytes: tuple,
            },
            WalRecord::Snapshot(sample_snapshot().encode()),
            WalRecord::Ddl(vec![]),
        ];
        for r in &records {
            let mut frame = Vec::new();
            r.frame_into(&mut frame);
            item(&frame);
        }

        // A log file per generation: header, snapshot frame, generation mask.
        let dir = Arc::new(MemDir::new());
        let mut wal = Wal::open_in(dir.clone(), "wal.log").unwrap();
        item(&dir.read("wal.log").unwrap());
        for gen in 0..3u8 {
            wal.rotate(&WalRecord::Snapshot(vec![gen; 5])).unwrap();
            item(&dir.read("wal.log").unwrap());
        }

        let mut heap = FileBackend::open_in(&*dir, "heap.db", CostModel::free()).unwrap();
        item(&dir.read("heap.db").unwrap());
        for _ in 0..3 {
            heap.allocate().unwrap();
        }
        heap.sync().unwrap();
        item(dir.read("heap.db").unwrap().get(..PAGE_SIZE).unwrap());

        item(&full_snapshot(&set).encode());
        item(&SnapshotImage::default().encode());
        for op in &every_ddl_op(&set) {
            item(&op.encode());
        }

        assert_eq!(hash, 0x2f07_94ee_608b_2bae, "a byte format changed");
    }
}
