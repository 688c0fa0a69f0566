//! Write-ahead log: CRC-framed physiological records for heap DML plus
//! opaque catalog records for DDL, fsynced before the data pages they
//! describe can reach the heap file.
//!
//! ### What is (and is not) logged
//!
//! The paper's economic argument for the Index Buffer is that it is cheap
//! *because it needs no recovery*: after a crash, `C[p]` and the buffer are
//! rebuilt from the heap, not from the log. The WAL therefore carries
//! exactly three kinds of state:
//!
//! * **DML** — slot-granular heap mutations ([`WalRecord::Insert`],
//!   [`WalRecord::Delete`], [`WalRecord::Update`]), identified by table
//!   ordinal and [`Rid`].
//! * **DDL** — opaque engine-encoded catalog records
//!   ([`WalRecord::Ddl`]); the storage crate cannot see schemas or index
//!   coverage, so the engine owns the payload codec.
//! * **Snapshot** — an opaque engine-encoded checkpoint image
//!   ([`WalRecord::Snapshot`]) opening every rotated log.
//!
//! Partial-index *adaptation* and Index Buffer contents are **never**
//! logged — `crates/engine/tests/crash_recovery.rs` asserts the record
//! count stays flat across adaptation.
//!
//! ### Framing and torn tails
//!
//! Every record is framed as `[len: u32 LE][crc32: u32 LE][payload]`, where
//! the CRC covers the payload. [`Wal::append`] writes one frame and fsyncs;
//! [`Wal::append_payload_batch`] writes a whole group-commit batch of frames
//! with a single `write_all` followed by a single `sync_data`, so the fsync
//! is amortized across every commit in the batch while the on-disk framing
//! stays byte-for-byte identical to a per-record log. Either way a record
//! either survives whole or is a torn tail; [`Wal::replay`] stops at the
//! first short or CRC-mismatched frame and discards it. A crash between a
//! mutation's WAL fsync and the next checkpoint loses nothing (replay
//! re-applies it); a crash *during* an append loses only the in-flight
//! operations, which never reached the heap either (WAL-before-data).
//!
//! ### Replay convergence
//!
//! Records are replayed unconditionally, last-write-wins at slot
//! granularity. Combined with the no-steal [`crate::FileBackend`] (the heap
//! file holds the previous checkpoint plus possibly a *partially flushed*
//! newer state after a crash mid-checkpoint), replaying the full log
//! regenerates the exact pre-crash logical heap: slot ids are stable across
//! page compaction, so re-applying an already-flushed mutation is
//! idempotent.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::StorageError;
use crate::rid::{PageId, Rid, SlotId};

/// Frame header size: length + CRC, both little-endian u32.
const FRAME_HEADER: usize = 8;
/// Hard cap on a single record payload; a frame claiming more is corrupt.
/// Generous: the largest legitimate payload is one tuple (≤ one page).
const MAX_PAYLOAD: usize = 1 << 20;

/// One write-ahead-log record. See the module docs for what is logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A tuple inserted at `rid` in table ordinal `table`.
    Insert {
        /// Catalog ordinal of the table (stable across restarts).
        table: u32,
        /// Exact heap location, so replay is physiological.
        rid: Rid,
        /// Serialized tuple bytes.
        bytes: Vec<u8>,
    },
    /// The tuple at `rid` in table `table` was deleted.
    Delete {
        /// Catalog ordinal of the table.
        table: u32,
        /// Heap location of the deleted tuple.
        rid: Rid,
    },
    /// The tuple at `old` moved to `new` (possibly the same rid) with new
    /// contents `bytes` — covers both in-place updates and relocations.
    Update {
        /// Catalog ordinal of the table.
        table: u32,
        /// Pre-update heap location.
        old: Rid,
        /// Post-update heap location.
        new: Rid,
        /// Serialized post-update tuple bytes.
        bytes: Vec<u8>,
    },
    /// Opaque engine-encoded checkpoint image; opens every rotated log.
    Snapshot(Vec<u8>),
    /// Opaque engine-encoded catalog mutation (create/drop table or index,
    /// coverage redefinition).
    Ddl(Vec<u8>),
}

/// Record tags (first payload byte).
mod tag {
    pub const INSERT: u8 = 1;
    pub const DELETE: u8 = 2;
    pub const UPDATE: u8 = 3;
    pub const SNAPSHOT: u8 = 4;
    pub const DDL: u8 = 5;
}

impl WalRecord {
    /// Serializes the record payload (everything the CRC covers).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Insert { table, rid, bytes } => {
                out.push(tag::INSERT);
                out.extend_from_slice(&table.to_le_bytes());
                encode_rid(*rid, &mut out);
                out.extend_from_slice(bytes);
            }
            WalRecord::Delete { table, rid } => {
                out.push(tag::DELETE);
                out.extend_from_slice(&table.to_le_bytes());
                encode_rid(*rid, &mut out);
            }
            WalRecord::Update {
                table,
                old,
                new,
                bytes,
            } => {
                out.push(tag::UPDATE);
                out.extend_from_slice(&table.to_le_bytes());
                encode_rid(*old, &mut out);
                encode_rid(*new, &mut out);
                out.extend_from_slice(bytes);
            }
            WalRecord::Snapshot(bytes) => {
                out.push(tag::SNAPSHOT);
                out.extend_from_slice(bytes);
            }
            WalRecord::Ddl(bytes) => {
                out.push(tag::DDL);
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// Deserializes a payload produced by [`WalRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<WalRecord, StorageError> {
        let (&t, rest) = payload
            .split_first()
            .ok_or_else(|| StorageError::Corrupt("empty wal record".into()))?;
        match t {
            tag::INSERT => {
                let (table, rest) = take_u32(rest)?;
                let (rid, rest) = decode_rid(rest)?;
                Ok(WalRecord::Insert {
                    table,
                    rid,
                    bytes: rest.to_vec(),
                })
            }
            tag::DELETE => {
                let (table, rest) = take_u32(rest)?;
                let (rid, rest) = decode_rid(rest)?;
                if !rest.is_empty() {
                    return Err(StorageError::Corrupt("trailing bytes in delete".into()));
                }
                Ok(WalRecord::Delete { table, rid })
            }
            tag::UPDATE => {
                let (table, rest) = take_u32(rest)?;
                let (old, rest) = decode_rid(rest)?;
                let (new, rest) = decode_rid(rest)?;
                Ok(WalRecord::Update {
                    table,
                    old,
                    new,
                    bytes: rest.to_vec(),
                })
            }
            tag::SNAPSHOT => Ok(WalRecord::Snapshot(rest.to_vec())),
            tag::DDL => Ok(WalRecord::Ddl(rest.to_vec())),
            other => Err(StorageError::Corrupt(format!("unknown wal tag {other}"))),
        }
    }
}

fn encode_rid(rid: Rid, out: &mut Vec<u8>) {
    out.extend_from_slice(&rid.page.0.to_le_bytes());
    out.extend_from_slice(&rid.slot.0.to_le_bytes());
}

fn decode_rid(buf: &[u8]) -> Result<(Rid, &[u8]), StorageError> {
    let (page, rest) = take_u32(buf)?;
    let slot_bytes: [u8; 2] = rest
        .get(..2)
        .ok_or_else(|| StorageError::Corrupt("truncated rid slot".into()))?
        .try_into()
        .map_err(|_| StorageError::Corrupt("rid slot width".into()))?;
    let rid = Rid {
        page: PageId(page),
        slot: SlotId(u16::from_le_bytes(slot_bytes)),
    };
    Ok((rid, rest.get(2..).unwrap_or(&[])))
}

fn take_u32(buf: &[u8]) -> Result<(u32, &[u8]), StorageError> {
    let bytes: [u8; 4] = buf
        .get(..4)
        .ok_or_else(|| StorageError::Corrupt("truncated wal u32".into()))?
        .try_into()
        .map_err(|_| StorageError::Corrupt("wal u32 width".into()))?;
    Ok((u32::from_le_bytes(bytes), buf.get(4..).unwrap_or(&[])))
}

/// The reflected IEEE 802.3 (zlib) CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes —
/// which turns eight input bytes into eight independent lookups instead of a
/// chain of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                CRC_POLY ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // aib-lint: allow(no-index) — evaluated at compile time with `byte < 256`; a wrong index fails the build.
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            // aib-lint: allow(no-index) — compile time, `1 <= k < 8`, `byte < 256`.
            let shorter = tables[k - 1][byte];
            // aib-lint: allow(no-index) — compile time, second index masked to a byte.
            tables[k][byte] = (shorter >> 8) ^ tables[0][(shorter & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

#[inline(always)]
fn crc_table(k: usize, byte: u32) -> u32 {
    // aib-lint: allow(no-index) — every caller passes a literal `k < 8`, and the second index is masked to a byte.
    CRC_TABLES[k][(byte & 0xFF) as usize]
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8, hand-rolled
/// because the build is offline and std has no checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let &[a, b, c, d, e, f, g, h] = word else {
            continue; // `chunks_exact(8)` yields nothing else
        };
        let low = crc ^ u32::from_le_bytes([a, b, c, d]);
        crc = crc_table(7, low)
            ^ crc_table(6, low >> 8)
            ^ crc_table(5, low >> 16)
            ^ crc_table(4, low >> 24)
            ^ crc_table(3, e.into())
            ^ crc_table(2, f.into())
            ^ crc_table(1, g.into())
            ^ crc_table(0, h.into());
    }
    for &byte in words.remainder() {
        crc = crc_table(0, crc ^ u32::from(byte)) ^ (crc >> 8);
    }
    !crc
}

/// An open, append-only write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    records_written: u64,
    /// Successful covering `sync_data` calls issued by this handle — the
    /// group-commit bench divides records by this to report amortization.
    syncs: u64,
    /// Set once an append left a torn or half-written frame in the file:
    /// anything written after that point is unreachable by [`Wal::replay`]
    /// (which stops at the first bad frame), so further appends must fail
    /// rather than produce acked-but-unrecoverable records. Cleared by
    /// [`Wal::rotate`], which replaces the file wholesale.
    poisoned: bool,
    /// Crash-injection hook: fail the append once `records_written` reaches
    /// this count, leaving a torn frame prefix in the file.
    fail_at: Option<u64>,
}

impl Wal {
    /// Opens the log at `path` for appending, creating it if absent.
    /// Existing contents are preserved (append continues after them); run
    /// [`Wal::replay`] first if you need them.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let created = !path.exists();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| StorageError::io("open wal", e))?;
        if created {
            // Rename-durability rule (POSIX): creating a file makes its
            // *data* durable via fsync on the file, but the directory entry
            // pointing at it is only durable once the parent directory is
            // fsynced too. Without this, a crash after creation can leave a
            // database directory with no WAL entry at all.
            sync_parent_dir(path)?;
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            records_written: 0,
            syncs: 0,
            poisoned: false,
            fail_at: None,
        })
    }

    /// Number of records appended through this handle (not counting
    /// pre-existing records in the file).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Number of successful covering fsyncs issued by this handle. With
    /// group commit, `records_written / syncs` is the batch amortization
    /// factor.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Crash-injection hook: the append that would become record number
    /// `n` (0-based among this handle's appends) writes a torn frame prefix
    /// and fails with [`StorageError::Io`].
    pub fn set_fail_at(&mut self, n: u64) {
        self.fail_at = Some(n);
    }

    /// Appends one record: frame, write, fsync. On success the record is
    /// durable before the caller may touch the heap (WAL-before-data).
    /// Equivalent to a one-element [`Wal::append_payload_batch`].
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StorageError> {
        let payload = record.encode();
        self.append_payload_batch(&[&payload])
    }

    /// Appends a group-commit batch of pre-encoded record payloads: every
    /// frame goes down in **one** `write_all` and is made durable by
    /// **one** `sync_data`, amortizing the fsync across the whole batch. A
    /// one-element batch is bit-for-bit the classic fsync-per-record
    /// append, and the on-disk bytes are identical to appending the same
    /// records one by one.
    ///
    /// On failure the durable prefix is reflected in
    /// [`Wal::records_written`]: frames before an injected torn write count
    /// if (and only if) the covering fsync still landed; after a real write
    /// or fsync error nothing in the batch may be acked. Either way the
    /// file may now end in a garbage frame that [`Wal::replay`] stops at,
    /// so the log is poisoned: subsequent appends fail until
    /// [`Wal::rotate`] replaces the file.
    pub fn append_payload_batch(&mut self, payloads: &[&[u8]]) -> Result<(), StorageError> {
        if payloads.is_empty() {
            return Ok(());
        }
        if self.poisoned {
            return Err(StorageError::Io(
                "wal poisoned by an earlier torn append; checkpoint to rotate the log".into(),
            ));
        }
        let mut buf = Vec::new();
        let mut intact = 0u64;
        let mut torn = false;
        for payload in payloads {
            let frame_start = buf.len();
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(payload).to_le_bytes());
            buf.extend_from_slice(payload);
            if self.fail_at == Some(self.records_written + intact) {
                // Emulated crash mid-batch: half of this frame reaches the
                // medium, everything after it nothing at all.
                self.fail_at = None;
                let frame_len = FRAME_HEADER + payload.len();
                buf.truncate(frame_start + frame_len / 2);
                torn = true;
                break;
            }
            intact += 1;
        }
        if torn {
            self.poisoned = true;
            self.file
                .write_all(&buf)
                .map_err(|e| StorageError::io("wal torn write", e))?;
            // aib-lint: allow(durable-io) — crash emulation: the intact prefix only counts as durable if its covering fsync still landed.
            if self.file.sync_data().is_ok() {
                self.syncs += 1;
                self.records_written += intact;
            }
            return Err(StorageError::Io(
                "injected wal append failure (crash mid-DML)".into(),
            ));
        }
        self.file.write_all(&buf).map_err(|e| {
            self.poisoned = true;
            StorageError::io("wal append", e)
        })?;
        self.file.sync_data().map_err(|e| {
            self.poisoned = true;
            StorageError::io("wal fsync", e)
        })?;
        self.syncs += 1;
        self.records_written += intact;
        Ok(())
    }

    /// Atomically replaces the log with a fresh one whose first record is
    /// `snapshot` — the checkpoint rotation. Writes `<path>.new`, fsyncs it,
    /// then renames over the live log; a crash at any point leaves either
    /// the complete old log or the complete new one.
    pub fn rotate(&mut self, snapshot: &WalRecord) -> Result<(), StorageError> {
        let tmp = self.path.with_extension("log.new");
        {
            let mut fresh = Wal::open(&tmp)?;
            // `open` appends; a leftover .new from a crashed rotation must
            // not leak stale records into the fresh log.
            fresh
                .file
                .set_len(0)
                .map_err(|e| StorageError::io("truncate wal.new", e))?;
            fresh.append(snapshot)?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| StorageError::io("rename wal.new", e))?;
        // Rename-durability rule (POSIX): a rename is only durable once the
        // parent directory's entry update is fsynced. Without this, a crash
        // right after rotation can resurrect the old (pre-checkpoint) log —
        // whose replay would then be applied over a heap file that already
        // contains the *post*-checkpoint flush.
        sync_parent_dir(&self.path)?;
        let file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StorageError::io("reopen rotated wal", e))?;
        self.file = file;
        self.records_written = 1; // the snapshot
        self.poisoned = false; // the torn file (if any) is gone
        Ok(())
    }

    /// Reads every intact record from the log at `path`, stopping (without
    /// error) at a torn or corrupt tail frame. A missing file is an empty
    /// log.
    pub fn replay(path: &Path) -> Result<Vec<WalRecord>, StorageError> {
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StorageError::io("read wal", e)),
        };
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos + FRAME_HEADER <= raw.len() {
            let len_bytes: [u8; 4] = match raw.get(pos..pos + 4).and_then(|s| s.try_into().ok()) {
                Some(b) => b,
                None => break,
            };
            let crc_bytes: [u8; 4] = match raw.get(pos + 4..pos + 8).and_then(|s| s.try_into().ok())
            {
                Some(b) => b,
                None => break,
            };
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len > MAX_PAYLOAD {
                break; // garbage length: torn tail
            }
            let Some(payload) = raw.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len) else {
                break; // short frame: torn tail
            };
            if crc32(payload) != u32::from_le_bytes(crc_bytes) {
                break; // corrupt tail
            }
            records.push(WalRecord::decode(payload)?);
            pos += FRAME_HEADER + len;
        }
        Ok(records)
    }
}

/// Fsyncs the parent directory of `path`, making a just-created or
/// just-renamed directory entry durable (the rename-durability rule: file
/// fsyncs cover file *contents*; only a directory fsync covers the entry).
/// A path with no parent (or an empty one) has nothing to sync.
fn sync_parent_dir(path: &Path) -> Result<(), StorageError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => return Ok(()),
    };
    let dir = File::open(parent).map_err(|e| StorageError::io("open wal directory", e))?;
    dir.sync_data()
        .map_err(|e| StorageError::io("fsync wal directory", e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("aib-wal-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                table: 0,
                rid: Rid {
                    page: PageId(3),
                    slot: SlotId(7),
                },
                bytes: vec![1, 2, 3],
            },
            WalRecord::Delete {
                table: 1,
                rid: Rid {
                    page: PageId(0),
                    slot: SlotId(0),
                },
            },
            WalRecord::Update {
                table: 0,
                old: Rid {
                    page: PageId(3),
                    slot: SlotId(7),
                },
                new: Rid {
                    page: PageId(4),
                    slot: SlotId(0),
                },
                bytes: vec![9; 100],
            },
            WalRecord::Snapshot(vec![0xAA; 17]),
            WalRecord::Ddl(vec![]),
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time CRC-32 the log was first written with — the
    /// reference `crc32` has to equal on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    CRC_POLY ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest::proptest! {
        /// Every length (word loop, tail loop, both) at every offset into
        /// its buffer: same checksum, so the same bytes on disk.
        #[test]
        fn crc32_equals_the_bytewise_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            skip in 0usize..16,
        ) {
            let at = skip.min(bytes.len());
            proptest::prop_assert_eq!(crc32(&bytes[at..]), crc32_bytewise(&bytes[at..]));
        }
    }

    #[test]
    fn record_codec_roundtrip() {
        for r in sample_records() {
            assert_eq!(WalRecord::decode(&r.encode()).unwrap(), r);
        }
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[99]).is_err());
        assert!(WalRecord::decode(&[tag::DELETE, 0, 0]).is_err());
    }

    #[test]
    fn append_then_replay() {
        let path = temp_path("roundtrip");
        let mut wal = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        assert_eq!(wal.records_written(), 5);
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), sample_records());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_log_is_empty() {
        let path = temp_path("missing");
        assert_eq!(Wal::replay(&path).unwrap(), Vec::new());
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = temp_path("torn");
        let mut wal = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        // Chop bytes off the end: every prefix must replay to some prefix of
        // the records, never error, never resurrect the torn record.
        let full = std::fs::read(&path).unwrap();
        for cut in 1..full.len() {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let replayed = Wal::replay(&path).unwrap();
            assert!(replayed.len() < 5 || cut == 0);
            assert_eq!(replayed, sample_records()[..replayed.len()].to_vec());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_payload_stops_replay() {
        let path = temp_path("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a byte in the second record's payload (first frame is
        // 8 + 1 + 4 + 6 + 3 = 22 bytes).
        raw[22 + 8 + 2] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, sample_records()[..1].to_vec());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_append_failure_leaves_torn_frame() {
        let path = temp_path("failinject");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        wal.set_fail_at(1);
        assert!(matches!(
            wal.append(&sample_records()[1]),
            Err(StorageError::Io(_))
        ));
        drop(wal);
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, sample_records()[..1].to_vec());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_append_is_byte_identical_to_per_record_appends() {
        let per_record = temp_path("batch-a");
        let batched = temp_path("batch-b");
        let records = sample_records();
        let mut a = Wal::open(&per_record).unwrap();
        for r in &records {
            a.append(r).unwrap();
        }
        let mut b = Wal::open(&batched).unwrap();
        let payloads: Vec<Vec<u8>> = records.iter().map(WalRecord::encode).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        b.append_payload_batch(&refs).unwrap();
        // Same records, same bytes — a group-committed log replays
        // identically to a per-record log — but one fsync instead of five.
        assert_eq!((a.records_written(), a.syncs()), (5, 5));
        assert_eq!((b.records_written(), b.syncs()), (5, 1));
        drop(a);
        drop(b);
        assert_eq!(
            std::fs::read(&per_record).unwrap(),
            std::fs::read(&batched).unwrap()
        );
        assert_eq!(Wal::replay(&batched).unwrap(), records);
        let _ = std::fs::remove_file(&per_record);
        let _ = std::fs::remove_file(&batched);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let path = temp_path("batch-empty");
        let mut wal = Wal::open(&path).unwrap();
        wal.append_payload_batch(&[]).unwrap();
        assert_eq!((wal.records_written(), wal.syncs()), (0, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_batch_keeps_durable_prefix_and_poisons_the_log() {
        let path = temp_path("batch-torn");
        let records = sample_records();
        let mut wal = Wal::open(&path).unwrap();
        wal.set_fail_at(2);
        let payloads: Vec<Vec<u8>> = records.iter().map(WalRecord::encode).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        assert!(matches!(
            wal.append_payload_batch(&refs),
            Err(StorageError::Io(_))
        ));
        // Two intact frames made it down under the covering fsync; the
        // third is torn, the rest were never written.
        assert_eq!(wal.records_written(), 2);
        assert_eq!(Wal::replay(&path).unwrap(), records[..2].to_vec());
        // The log is poisoned: another append would land after the torn
        // frame where replay can never reach it, so it must fail...
        assert!(matches!(wal.append(&records[0]), Err(StorageError::Io(_))));
        // ...until rotation replaces the file wholesale.
        let snap = WalRecord::Snapshot(vec![1, 2]);
        wal.rotate(&snap).unwrap();
        wal.append(&records[0]).unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), vec![snap, records[0].clone()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotation_replaces_log_atomically() {
        let path = temp_path("rotate");
        let mut wal = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let snap = WalRecord::Snapshot(vec![7; 9]);
        wal.rotate(&snap).unwrap();
        assert_eq!(wal.records_written(), 1);
        // Appends continue into the rotated log.
        wal.append(&sample_records()[1]).unwrap();
        drop(wal);
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, vec![snap, sample_records()[1].clone()]);
        let _ = std::fs::remove_file(&path);
    }
}
