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
//! Wire format: little-endian integers, strings and byte blobs are
//! `u32` length + bytes, [`Value`]s reuse the tuple codec
//! ([`Value::encode`]/[`Value::decode`]). Decoding is strict — trailing
//! bytes or truncation surface as [`StorageError::Corrupt`], because a
//! snapshot that passed the WAL's CRC yet fails to decode means a version
//! mismatch or a bug, not a torn write.

use std::collections::BTreeSet;

use aib_core::BufferConfig;
use aib_index::Coverage;
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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

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
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(StorageError::Corrupt(format!(
                "snapshot version {version}, expected {SNAPSHOT_VERSION}"
            )));
        }
        let ntables = r.u32()? as usize;
        let mut tables = Vec::with_capacity(ntables.min(1024));
        for _ in 0..ntables {
            let name = r.str()?;
            let schema = r.schema()?;
            let npages = r.u32()? as usize;
            let mut pages = Vec::with_capacity(npages.min(1 << 16));
            for _ in 0..npages {
                pages.push(PageId(r.u32()?));
            }
            let nindexes = r.u32()? as usize;
            let mut indexes = Vec::with_capacity(nindexes.min(64));
            for _ in 0..nindexes {
                indexes.push(r.index_def()?);
            }
            tables.push(TableImage {
                name,
                schema,
                pages,
                indexes,
            });
        }
        r.finish()?;
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
        let tag = r.u8()?;
        let op = match tag {
            ddl_tag::CREATE_TABLE => DdlOp::CreateTable {
                name: r.str()?,
                schema: r.schema()?,
            },
            ddl_tag::CREATE_INDEX => DdlOp::CreateIndex {
                table: r.u32()?,
                def: r.index_def()?,
            },
            ddl_tag::DROP_INDEX => DdlOp::DropIndex {
                table: r.u32()?,
                column: r.u32()?,
            },
            ddl_tag::REDEFINE => DdlOp::RedefineCoverage {
                table: r.u32()?,
                column: r.u32()?,
                coverage: r.coverage()?,
            },
            other => {
                return Err(StorageError::Corrupt(format!("unknown ddl tag {other}")));
            }
        };
        r.finish()?;
        Ok(op)
    }
}

// ------------------------------------------------------------- decoding

/// Strict cursor over a payload; every read error is a
/// [`StorageError::Corrupt`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let slice = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| StorageError::Corrupt("truncated wal payload".into()))?;
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        let bytes: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| StorageError::Corrupt("wal payload u32".into()))?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| StorageError::Corrupt("wal payload u64".into()))?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn i64(&mut self) -> Result<i64, StorageError> {
        Ok(self.u64()? as i64)
    }

    fn str(&mut self) -> Result<String, StorageError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| StorageError::Corrupt("wal payload string".into()))
    }

    fn schema(&mut self) -> Result<Schema, StorageError> {
        let ncols = self.u32()? as usize;
        let mut cols = Vec::with_capacity(ncols.min(256));
        for _ in 0..ncols {
            let name = self.str()?;
            let ty = match self.u8()? {
                0 => ColumnType::Int,
                1 => ColumnType::Str,
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "unknown column type tag {other}"
                    )));
                }
            };
            let nullable = self.u8()? != 0;
            let mut col = match ty {
                ColumnType::Int => Column::int(name),
                ColumnType::Str => Column::str(name),
            };
            if nullable {
                col = col.nullable();
            }
            cols.push(col);
        }
        Ok(Schema::new(cols))
    }

    fn coverage(&mut self) -> Result<Coverage, StorageError> {
        match self.u8()? {
            0 => Ok(Coverage::None),
            1 => Ok(Coverage::All),
            2 => Ok(Coverage::IntRange {
                lo: self.i64()?,
                hi: self.i64()?,
            }),
            3 => {
                let n = self.u32()? as usize;
                let mut values = BTreeSet::new();
                for _ in 0..n {
                    let v = Value::decode(self.buf, &mut self.pos)?;
                    values.insert(v);
                }
                Ok(Coverage::Set(values))
            }
            other => Err(StorageError::Corrupt(format!(
                "unknown coverage tag {other}"
            ))),
        }
    }

    /// Reads one of the three structure bytes (see [`BTREE_IN_MEMORY`]). A
    /// log written when the hash or paged structure existed may carry 1.
    fn removed_structure(&mut self, removed: &str) -> Result<(), StorageError> {
        match self.u8()? {
            BTREE_IN_MEMORY => Ok(()),
            other => Err(StorageError::Corrupt(format!(
                "index definition selects the removed {removed} (byte {other}); \
                 only the in-memory B+-tree exists"
            ))),
        }
    }

    fn index_def(&mut self) -> Result<IndexDef, StorageError> {
        let column = self.u32()?;
        let coverage = self.coverage()?;
        self.removed_structure("hash index backend")?;
        let buffer = match self.u8()? {
            0 => None,
            1 => {
                let partition_pages = self.u32()?;
                let history_k = self.u64()? as usize;
                self.removed_structure("hash buffer backend")?;
                Some(BufferConfig {
                    partition_pages,
                    history_k,
                })
            }
            other => {
                return Err(StorageError::Corrupt(format!(
                    "unknown buffer-config tag {other}"
                )));
            }
        };
        self.removed_structure("paged (disk-resident) index")?;
        Ok(IndexDef {
            column,
            coverage,
            buffer,
        })
    }

    fn finish(self) -> Result<(), StorageError> {
        if self.pos != self.buf.len() {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes in wal payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
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

    #[test]
    fn corrupt_payloads_rejected() {
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
        // Truncation anywhere inside a snapshot is corruption.
        let full = sample_snapshot().encode();
        for cut in 1..full.len() {
            assert!(SnapshotImage::decode(&full[..cut]).is_err(), "cut {cut}");
        }
    }
}
