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
//! ### File header, framing and the generation rule
//!
//! A log file opens with eight bytes: the magic `AWL1` and the file's
//! **generation**, a `u32` that every rotation increments. A file whose
//! header is short or carries another magic is [`StorageError::Corrupt`],
//! never an empty log — replaying nothing over a populated heap is data
//! loss. Behind the header every record is framed as
//! `[len: u32 LE][crc: u32 LE][payload]` with
//! `crc = crc32(payload) ^ mask(generation)`; `mask` is a bijection on
//! `u32`, so a frame written under any other generation fails verification
//! *deterministically*, whatever its payload. The CRC proper does not depend
//! on the generation: writers frame their records before they know which
//! file they land in ([`WalRecord::frame_into`]) and the appender XORs the
//! mask into the four CRC bytes of each frame ([`Wal::append_frames`]).
//!
//! The log has a **logical tail** — the end of its intact frames of the
//! header's generation — which may lie before the physical end of the file:
//! appends go to a tracked offset (`pwrite`), not to `O_APPEND`. What lies
//! behind the tail is a torn append or, in a recycled file, frames of an
//! older generation; [`Wal::replay`] stops at the first frame that is short,
//! oversized, empty, or fails its CRC either way. A crash between a
//! mutation's WAL fsync and the next checkpoint loses nothing (replay
//! re-applies it); a crash *during* an append loses only the in-flight
//! operations, which never reached the heap either (WAL-before-data).
//!
//! An `fdatasync` that changes a file's size also commits the file system's
//! journal — here about 290 µs against 115 µs over blocks already written.
//! So the log keeps its appends off the end of the file. A *young* log
//! **pre-writes**: the append that would lengthen the file lengthens it by
//! as much again in zeroes (between 64 KiB and 1 MiB), which the appends
//! after it overwrite — a zeroed frame header is the tail. An *old* log was
//! written before: see the recycled rotation below.
//!
//! ### Rotation: compact, and recycled
//!
//! A rotation replaces the log with `header(g + 1) · Snapshot · tail`, where
//! the tail is every frame appended since [`Wal::mark_cut`] (kept in memory
//! from the cut on; empty when no cut was marked). The new contents are
//! staged in `<log>.new`, fdatasynced, and renamed over the live name, so
//! `<log>` always names one complete log and recovery never reads anything
//! else.
//!
//! * [`Wal::rotate`] is the **compact** rotation of `open`, `close` and an
//!   explicit checkpoint: a fresh staging file, no side file left behind.
//! * [`Wal::rotate_recycled`] is the periodic one. It stages over the blocks
//!   of the file the *previous* rotation retired, so neither that write nor
//!   the appends that follow change a file size — an `fdatasync` over
//!   already-written blocks skips the file system's size-change journal
//!   commit, about half its cost. To keep the retiring inode it hard-links
//!   the live log to `<log>.old` before the rename and parks it as the next
//!   `<log>.new` after; one directory fsync covers all three entries, and no
//!   append to the new log is acknowledged before it. The stale frames a
//!   recycled file carries behind its tail are what the generation rule is
//!   for. Side files are scratch: [`Wal::remove_side_files`] (the first
//!   thing `Database::open` does) deletes the *names* — either may be a hard
//!   link to the live inode.
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

use std::io::ErrorKind;
use std::path::Path;
use std::sync::Arc;

use crate::codec::{self, put_u16, put_u32, Reader};
use crate::error::StorageError;
use crate::rid::Rid;
use crate::store::{read_all, read_exact_at, OsDir, StoreDir, StoreFile};

/// Least and most zeroes an append that lengthens the file writes ahead.
const PREWRITE_MIN: u64 = 64 << 10;
const PREWRITE_MAX: u64 = 1 << 20;

/// File header size: magic + generation.
const FILE_HEADER: usize = 8;
/// Magic bytes opening every log file (the digit is the format version).
const MAGIC: &[u8; 4] = b"AWL1";
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
        self.encode_into(&mut out);
        out
    }

    /// Appends the record payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let put_rid = |out: &mut Vec<u8>, rid: &Rid| {
            put_u32(out, rid.page.0);
            put_u16(out, rid.slot.0);
        };
        match self {
            WalRecord::Insert { table, rid, bytes } => {
                out.push(tag::INSERT);
                put_u32(out, *table);
                put_rid(out, rid);
                out.extend_from_slice(bytes);
            }
            WalRecord::Delete { table, rid } => {
                out.push(tag::DELETE);
                put_u32(out, *table);
                put_rid(out, rid);
            }
            WalRecord::Update {
                table,
                old,
                new,
                bytes,
            } => {
                out.push(tag::UPDATE);
                put_u32(out, *table);
                put_rid(out, old);
                put_rid(out, new);
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
    }

    /// Appends the record to `out` as one whole frame — `len | crc | payload`
    /// — with the generation-free CRC, ready for [`Wal::append_frames`]. The
    /// payload is encoded in place and checksummed by the caller's thread,
    /// so neither costs the appender anything.
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; FRAME_HEADER]);
        self.encode_into(out);
        let payload = out.get(start + FRAME_HEADER..).unwrap_or_default();
        let (len, crc) = (payload.len() as u32, crc32(payload));
        if let Some(header) = out.get_mut(start..start + FRAME_HEADER) {
            let (len_field, crc_field) = header.split_at_mut(4);
            len_field.copy_from_slice(&len.to_le_bytes());
            crc_field.copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// Deserializes a payload produced by [`WalRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<WalRecord, StorageError> {
        let mut r = Reader::new(payload);
        let rid = |r: &mut Reader<'_>| -> Result<Rid, StorageError> {
            Ok(Rid::new(r.u32("wal rid page")?, r.u16("wal rid slot")?))
        };
        Ok(match r.u8("wal record tag")? {
            tag::INSERT => WalRecord::Insert {
                table: r.u32("wal table")?,
                rid: rid(&mut r)?,
                bytes: r.rest().to_vec(),
            },
            tag::DELETE => {
                let record = WalRecord::Delete {
                    table: r.u32("wal table")?,
                    rid: rid(&mut r)?,
                };
                r.finish("wal delete")?;
                record
            }
            tag::UPDATE => WalRecord::Update {
                table: r.u32("wal table")?,
                old: rid(&mut r)?,
                new: rid(&mut r)?,
                bytes: r.rest().to_vec(),
            },
            tag::SNAPSHOT => WalRecord::Snapshot(r.rest().to_vec()),
            tag::DDL => WalRecord::Ddl(r.rest().to_vec()),
            other => return Err(codec::corrupt(format_args!("unknown wal tag {other}"))),
        })
    }
}

/// The reflected IEEE 802.3 (zlib) CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes —
/// which turns sixteen input bytes into sixteen independent lookups instead
/// of a chain of sixteen dependent ones.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
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
    while k < 16 {
        let mut byte = 0;
        while byte < 256 {
            // aib-lint: allow(no-index) — compile time, `1 <= k < 16`, `byte < 256`.
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
    // aib-lint: allow(no-index) — every caller passes a literal `k < 16`, and the second index is masked to a byte.
    CRC_TABLES[k][(byte & 0xFF) as usize]
}

/// The four table lookups of one little-endian input word whose last byte
/// is followed by `k` more bytes of the 16-byte block.
#[inline(always)]
fn crc_word(k: usize, word: u32) -> u32 {
    crc_table(k + 3, word)
        ^ crc_table(k + 2, word >> 8)
        ^ crc_table(k + 1, word >> 16)
        ^ crc_table(k, word >> 24)
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-16, hand-rolled
/// because the build is offline and std has no checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let &[a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3] = block else {
            continue; // `chunks_exact(16)` yields nothing else
        };
        crc = crc_word(12, crc ^ u32::from_le_bytes([a0, a1, a2, a3]))
            ^ crc_word(8, u32::from_le_bytes([b0, b1, b2, b3]))
            ^ crc_word(4, u32::from_le_bytes([c0, c1, c2, c3]))
            ^ crc_word(0, u32::from_le_bytes([d0, d1, d2, d3]));
    }
    for &byte in blocks.remainder() {
        crc = crc_table(0, crc ^ u32::from(byte)) ^ (crc >> 8);
    }
    !crc
}

/// What a frame's CRC field is XORed with under `generation`. Multiplying by
/// an odd constant is a bijection on `u32`, so two generations never share a
/// mask; generation 0 (mask 0, under which a zeroed block would read as an
/// empty frame with a valid CRC) is never issued.
fn generation_mask(generation: u32) -> u32 {
    generation.wrapping_mul(0x9E37_79B1)
}

/// The eight bytes opening a log file of `generation`.
fn file_header(generation: u32) -> Vec<u8> {
    let mut header = MAGIC.to_vec();
    put_u32(&mut header, generation);
    header
}

/// The generation a log image declares, or why it is not a log.
fn parse_file_header(raw: &[u8]) -> Result<u32, StorageError> {
    let mut r = Reader::new(raw);
    let magic = r.bytes(MAGIC.len(), "wal header magic")?;
    if magic != MAGIC {
        return Err(codec::corrupt(format_args!(
            "wal header carries an unknown magic {magic:02x?}"
        )));
    }
    r.u32("wal header generation")
}

/// The `(len, crc)` header of the frame at `pos`, if eight bytes are there.
fn frame_header(raw: &[u8], pos: usize) -> Option<(usize, u32)> {
    let len: [u8; 4] = raw.get(pos..pos + 4)?.try_into().ok()?;
    let crc: [u8; 4] = raw.get(pos + 4..pos + FRAME_HEADER)?.try_into().ok()?;
    Some((u32::from_le_bytes(len) as usize, u32::from_le_bytes(crc)))
}

/// XORs `mask` into the CRC field of every frame of `frames` (whole frames,
/// back to back) and returns how many there are.
fn mix_frames(frames: &mut [u8], mask: u32) -> u64 {
    let (mut pos, mut count) = (0, 0);
    while let Some((len, crc)) = frame_header(frames, pos) {
        if let Some(field) = frames.get_mut(pos + 4..pos + FRAME_HEADER) {
            field.copy_from_slice(&(crc ^ mask).to_le_bytes());
        }
        pos += FRAME_HEADER + len;
        count += 1;
    }
    count
}

/// The payloads of the intact frames of one generation at the front of a
/// log image; `pos` ends up at the logical tail.
struct IntactFrames<'a> {
    raw: &'a [u8],
    pos: usize,
    mask: u32,
}

impl<'a> IntactFrames<'a> {
    fn new(raw: &'a [u8], generation: u32) -> Self {
        IntactFrames {
            raw,
            pos: FILE_HEADER,
            mask: generation_mask(generation),
        }
    }
}

impl<'a> Iterator for IntactFrames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (len, crc) = frame_header(self.raw, self.pos)?;
        // Every payload opens with its tag, so an empty frame is no frame;
        // an oversized length is garbage. Either way: the tail.
        if len == 0 || len > MAX_PAYLOAD {
            return None;
        }
        let body = self.pos + FRAME_HEADER;
        let payload = self.raw.get(body..body + len)?;
        if crc32(payload) ^ self.mask != crc {
            return None; // torn, corrupt, or of another generation
        }
        self.pos = body + len;
        Some(payload)
    }
}

/// `<log><suffix>`: the name of a side file of the log `name`.
fn side_name(name: &str, suffix: &str) -> String {
    format!("{name}{suffix}")
}

/// Removes the directory entry `name` if there is one. Only the name goes:
/// an inode some other name still holds is untouched.
fn remove_name(dir: &dyn StoreDir, name: &str) -> Result<(), StorageError> {
    match dir.remove(name) {
        Err(e) if e.kind() != ErrorKind::NotFound => {
            Err(StorageError::io("remove wal side file", e))
        }
        _ => Ok(()),
    }
}

/// Creates a new file named `name` holding `contents`, durably. A stale
/// entry of that name is unlinked first — never truncated: it may be a hard
/// link to a log that is still live.
fn write_new_file(
    dir: &dyn StoreDir,
    name: &str,
    contents: &[u8],
) -> Result<Arc<dyn StoreFile>, StorageError> {
    remove_name(dir, name)?;
    let file = dir
        .open(name, true)
        .map_err(|e| StorageError::io("create wal file", e))?;
    overwrite(&*file, contents)?;
    Ok(file)
}

/// Writes `contents` over the front of `file`, durably.
fn overwrite(file: &dyn StoreFile, contents: &[u8]) -> Result<(), StorageError> {
    file.write_all_at(contents, 0)
        .map_err(|e| StorageError::io("write staged wal", e))?;
    file.sync()
        .map_err(|e| StorageError::io("fsync staged wal", e))
}

/// Makes a just-created, just-linked or just-renamed entry of `dir` durable
/// (the rename-durability rule: file syncs cover file *contents*; only a
/// directory sync covers the entry).
fn sync_dir(dir: &dyn StoreDir) -> Result<(), StorageError> {
    dir.sync()
        .map_err(|e| StorageError::io("fsync wal directory", e))
}

/// Frames appended since [`Wal::mark_cut`], mixed for the generation they
/// were written under.
#[derive(Debug, Default)]
struct CutTail {
    frames: Vec<u8>,
    records: u64,
}

/// An open write-ahead log: the file `name` of a [`StoreDir`].
#[derive(Debug)]
pub struct Wal {
    dir: Arc<dyn StoreDir>,
    name: String,
    file: Arc<dyn StoreFile>,
    /// The generation in the live file's header.
    generation: u32,
    /// The logical tail: where the next frame goes.
    end: u64,
    /// The file's length: up to here its blocks are written, and an append
    /// that stays below it changes no file size.
    written: u64,
    records_written: u64,
    /// Successful covering syncs issued by this handle — the
    /// group-commit bench divides records by this to report amortization.
    syncs: u64,
    /// Set once an append failed — it may have left a torn frame at the
    /// tail — or a rotation could not make its rename durable: nothing may
    /// be acknowledged until a rotation succeeds. Anything written behind a
    /// torn frame is unreachable by [`Wal::replay`] (which stops at the
    /// first bad frame), so further appends must fail rather than produce
    /// acked-but-unrecoverable records.
    poisoned: bool,
    /// The log the last recycled rotation retired (and its length), parked
    /// as `<log>.new`: the next one stages over its blocks.
    spare: Option<(Arc<dyn StoreFile>, u64)>,
    /// `Some` from [`Wal::mark_cut`] until the rotation that consumes it.
    cut: Option<CutTail>,
}

impl Wal {
    /// A handle on `file`, `written` bytes long, whose log ends at `end`.
    fn over(
        dir: Arc<dyn StoreDir>,
        name: &str,
        file: Arc<dyn StoreFile>,
        generation: u32,
        (end, written): (usize, usize),
        records: u64,
    ) -> Self {
        Wal {
            dir,
            name: name.to_string(),
            file,
            generation,
            end: end as u64,
            written: written as u64,
            records_written: records,
            syncs: 0,
            poisoned: false,
            spare: None,
            cut: None,
        }
    }

    /// [`Wal::open_in`] for the log at `path` on the file system.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let (dir, name) = OsDir::split(path).map_err(|e| StorageError::io("open wal", e))?;
        Wal::open_in(Arc::new(dir), &name)
    }

    /// Opens the log `name` in `dir` for appending, creating it (header
    /// only, generation 1, file and directory entry synced) if absent.
    /// Existing records are preserved — appends continue at the logical
    /// tail, over whatever torn or stale bytes lie behind it; run
    /// [`Wal::replay_in`] first if you need them.
    pub fn open_in(dir: Arc<dyn StoreDir>, name: &str) -> Result<Self, StorageError> {
        let file = match dir.open(name, false) {
            Err(e) if e.kind() != ErrorKind::NotFound => {
                return Err(StorageError::io("open wal", e))
            }
            Err(_) => {
                let file = write_new_file(&*dir, name, &file_header(1))?;
                // Rename-durability rule (POSIX): the file's data is durable
                // via its own sync, the directory entry pointing at it only
                // once the directory is synced too.
                sync_dir(&*dir)?;
                return Ok(Wal::over(dir, name, file, 1, (FILE_HEADER, FILE_HEADER), 0));
            }
            Ok(file) => file,
        };
        let raw = read_all(&*file).map_err(|e| StorageError::io("read wal", e))?;
        let generation = parse_file_header(&raw)?;
        let mut frames = IntactFrames::new(&raw, generation);
        frames.by_ref().for_each(drop);
        let end = frames.pos;
        Ok(Wal::over(dir, name, file, generation, (end, raw.len()), 0))
    }

    /// Replaces whatever is named `name` in `dir` with a compact fresh log
    /// whose only record is `snapshot`, and returns it open: what
    /// `Database::open` does once recovery has flushed the heap. Staged,
    /// renamed and directory-synced like [`Wal::rotate`], so the old log
    /// (if any) stays whole until the new one is durable; the generation
    /// continues from the old header's.
    pub fn create(
        dir: Arc<dyn StoreDir>,
        name: &str,
        snapshot: &WalRecord,
    ) -> Result<Self, StorageError> {
        let previous = stored_generation(&*dir, name)?;
        let (generation, log) = next_log(previous, snapshot, None)?;
        let file = install(&*dir, name, &log)?;
        Ok(Wal::over(
            dir,
            name,
            file,
            generation,
            (log.len(), log.len()),
            1,
        ))
    }

    /// Deletes the side files a crashed rotation of the log `name` may have
    /// left in `dir` (`<log>.new`, `<log>.old`). Recovery never reads them.
    pub fn remove_side_files(dir: &dyn StoreDir, name: &str) -> Result<(), StorageError> {
        remove_name(dir, &side_name(name, ".new"))?;
        remove_name(dir, &side_name(name, ".old"))
    }

    /// Number of records in the live log that this handle wrote: appends
    /// since it was opened, or since the last rotation plus that rotation's
    /// snapshot and tail.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Number of successful covering fsyncs of appends issued by this handle.
    /// With group commit, `records_written / syncs` is the batch
    /// amortization factor.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Appends one record: frame, write, fsync. On success the record is
    /// durable before the caller may touch the heap (WAL-before-data).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StorageError> {
        let mut frame = Vec::new();
        record.frame_into(&mut frame);
        self.append_frames(frame)
    }

    /// [`Wal::append_frames`] over pre-encoded payloads, framed here.
    pub fn append_payload_batch(&mut self, payloads: &[&[u8]]) -> Result<(), StorageError> {
        let mut frames = Vec::new();
        for payload in payloads {
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(payload).to_le_bytes());
            frames.extend_from_slice(payload);
        }
        self.append_frames(frames)
    }

    /// Appends a group-commit batch of whole frames as
    /// [`WalRecord::frame_into`] builds them: the generation is mixed into
    /// each CRC field in place, and the buffer goes down at the logical tail
    /// in **one** positional write made durable by **one** sync, amortizing
    /// it across the whole batch. A one-frame batch is bit-for-bit the
    /// classic sync-per-record append, and the bytes written are identical
    /// to appending the same records one by one.
    ///
    /// A failed write or sync acks nothing of the batch. Part of it may have
    /// reached the file — a process that dies here leaves frames that
    /// replay, up to a torn one — and anything appended behind a torn frame
    /// would be unreachable, so the log is poisoned: subsequent appends fail
    /// until a rotation replaces the file.
    pub fn append_frames(&mut self, mut frames: Vec<u8>) -> Result<(), StorageError> {
        if frames.is_empty() {
            return Ok(());
        }
        if self.poisoned {
            return Err(StorageError::Io(
                "wal poisoned by an earlier failed append; checkpoint to rotate the log".into(),
            ));
        }
        let records = mix_frames(&mut frames, generation_mask(self.generation));
        // Pre-write: an append that would lengthen the file lengthens it by
        // as much again (64 KiB at least, 1 MiB at most) in zeroes, so that
        // the appends after it overwrite written blocks — a young log pays
        // the size-changing sync a handful of times, not once per commit.
        // A zeroed frame header reads as the tail.
        let framed = frames.len();
        if self.end + framed as u64 > self.written {
            let ahead = self.written.clamp(PREWRITE_MIN, PREWRITE_MAX);
            frames.resize(framed + ahead as usize, 0);
        }
        self.file.write_all_at(&frames, self.end).map_err(|e| {
            self.poisoned = true;
            StorageError::io("wal append", e)
        })?;
        self.file.sync().map_err(|e| {
            self.poisoned = true;
            StorageError::io("wal fsync", e)
        })?;
        self.written = self.written.max(self.end + frames.len() as u64);
        frames.truncate(framed);
        self.landed(&frames, records);
        Ok(())
    }

    /// Books `records` durable frames, written at the tail.
    fn landed(&mut self, frames: &[u8], records: u64) {
        self.syncs += 1;
        self.records_written += records;
        self.end += frames.len() as u64;
        if let Some(cut) = &mut self.cut {
            cut.frames.extend_from_slice(frames);
            cut.records += records;
        }
    }

    /// Marks the checkpoint cut: from here on every appended frame is also
    /// kept in memory, and the next rotation writes them behind its
    /// snapshot. The caller guarantees that everything logged *before* the
    /// cut is in the heap image it is about to flush — so the rotated log
    /// needs nothing older. A second mark restarts the tail.
    pub fn mark_cut(&mut self) {
        self.cut = Some(CutTail::default());
    }

    /// Forgets the cut (its checkpoint failed): the next rotation without a
    /// new mark would write its snapshot alone.
    pub fn abandon_cut(&mut self) {
        self.cut = None;
    }

    /// The compact rotation: atomically replaces the log with a fresh file
    /// holding `snapshot` and the frames appended since [`Wal::mark_cut`]
    /// (none without a cut). Writes `<path>.new`, fsyncs it, renames it over
    /// the live log and fsyncs the directory; a crash at any point leaves
    /// either the complete old log or the complete new one, and no side
    /// file outlives the call.
    pub fn rotate(&mut self, snapshot: &WalRecord) -> Result<(), StorageError> {
        self.rotate_to(snapshot, false)
    }

    /// The periodic rotation: like [`Wal::rotate`], but staged over the
    /// blocks of the log the previous call retired, and retiring the live
    /// one for the next (see the module docs). Where the file system cannot
    /// hard-link, it degrades to the compact rotation.
    pub fn rotate_recycled(&mut self, snapshot: &WalRecord) -> Result<(), StorageError> {
        self.rotate_to(snapshot, true)
    }

    fn rotate_to(&mut self, snapshot: &WalRecord, recycle: bool) -> Result<(), StorageError> {
        let (generation, log) = next_log(self.generation, snapshot, self.cut.as_ref())?;
        let staging = side_name(&self.name, ".new");
        let (staged, staged_len) = match self.spare.take().filter(|_| recycle) {
            Some((parked, len)) => {
                overwrite(&*parked, &log)?;
                (parked, len.max(log.len() as u64))
            }
            // A fresh file takes the parked log's name (and frees it).
            None => (
                write_new_file(&*self.dir, &staging, &log)?,
                log.len() as u64,
            ),
        };
        let retiring = side_name(&self.name, ".old");
        let mut linked = false;
        if recycle {
            remove_name(&*self.dir, &retiring)?;
            // Without a second name the rename below would free the retiring
            // inode and its written blocks with it.
            // aib-lint: allow(durable-io) — a file system without hard links is not an error: the rotation degrades to the compact one.
            linked = self.dir.hard_link(&self.name, &retiring).is_ok();
        }
        self.dir
            .rename(&staging, &self.name)
            .map_err(|e| StorageError::io("rename wal.new", e))?;
        // From here `<log>` names the staged file: appends must follow it
        // there whatever else fails, and none may be acknowledged until the
        // rename is durable.
        let retired = std::mem::replace(&mut self.file, staged);
        let retired_len = std::mem::replace(&mut self.written, staged_len);
        self.generation = generation;
        self.end = log.len() as u64;
        // The snapshot, and the tail behind it.
        self.records_written = 1 + self.cut.take().map_or(0, |cut| cut.records);
        self.poisoned = true;
        if linked {
            self.dir
                .rename(&retiring, &staging)
                .map_err(|e| StorageError::io("park retired wal", e))?;
            self.spare = Some((retired, retired_len));
        }
        // Rename-durability rule (POSIX): a rename is only durable once the
        // directory's entry update is synced. Without this, a crash right
        // after rotation can resurrect the old (pre-checkpoint) log — whose
        // replay would then be applied over a heap file that already
        // contains the *post*-checkpoint flush.
        sync_dir(&*self.dir)?;
        self.poisoned = false; // the torn file (if any) is gone
        Ok(())
    }

    /// [`Wal::replay_in`] for the log at `path` on the file system.
    pub fn replay(path: &Path) -> Result<Vec<WalRecord>, StorageError> {
        let (dir, name) = OsDir::split(path).map_err(|e| StorageError::io("read wal", e))?;
        Wal::replay_in(&dir, &name)
    }

    /// Reads every intact record of the log `name` in `dir`, stopping
    /// (without error) at the logical tail: a torn, corrupt or
    /// stale-generation frame. A missing file is an empty log; a file
    /// without a valid header is [`StorageError::Corrupt`].
    pub fn replay_in(dir: &dyn StoreDir, name: &str) -> Result<Vec<WalRecord>, StorageError> {
        let raw = match dir.open(name, false) {
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StorageError::io("read wal", e)),
            Ok(file) => read_all(&*file).map_err(|e| StorageError::io("read wal", e))?,
        };
        Wal::replay_image(&raw)
    }

    /// [`Wal::replay`] over the bytes of a log file.
    pub fn replay_image(raw: &[u8]) -> Result<Vec<WalRecord>, StorageError> {
        let generation = parse_file_header(raw)?;
        IntactFrames::new(raw, generation)
            .map(WalRecord::decode)
            .collect()
    }
}

/// The generation in the header of the log `name`; 0 when there is none.
fn stored_generation(dir: &dyn StoreDir, name: &str) -> Result<u32, StorageError> {
    let mut header = [0u8; FILE_HEADER];
    match dir
        .open(name, false)
        .and_then(|old| read_exact_at(&*old, &mut header, 0))
    {
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(0),
        Err(e) => Err(StorageError::io("read wal header", e)),
        Ok(()) => parse_file_header(&header),
    }
}

/// The image of the log that follows one of generation `previous`:
/// `header · Snapshot · tail`, every frame mixed for the new generation.
fn next_log(
    previous: u32,
    snapshot: &WalRecord,
    tail: Option<&CutTail>,
) -> Result<(u32, Vec<u8>), StorageError> {
    let generation = previous
        .checked_add(1)
        .ok_or_else(|| StorageError::Corrupt("wal generation space exhausted".into()))?;
    let mut log = file_header(generation);
    snapshot.frame_into(&mut log);
    mix_frames(
        log.get_mut(FILE_HEADER..).unwrap_or_default(),
        generation_mask(generation),
    );
    if let Some(tail) = tail {
        let at = log.len();
        log.extend_from_slice(&tail.frames);
        // The tail carries the old generation's mask; swap it for the new.
        mix_frames(
            log.get_mut(at..).unwrap_or_default(),
            generation_mask(previous) ^ generation_mask(generation),
        );
    }
    Ok((generation, log))
}

/// Stages `log` in a fresh `<name>.new`, renames it over `name` and makes
/// the rename durable. Returns the installed file.
fn install(dir: &dyn StoreDir, name: &str, log: &[u8]) -> Result<Arc<dyn StoreFile>, StorageError> {
    let staging = side_name(name, ".new");
    let file = write_new_file(dir, &staging, log)?;
    dir.rename(&staging, name)
        .map_err(|e| StorageError::io("rename wal.new", e))?;
    sync_dir(dir)?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rid::{PageId, SlotId};
    use crate::store::{Fault, MemDir};
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("aib-wal-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// The bytes of the log `wal` wrote at `path`, up to its logical tail —
    /// without the zeroes it pre-wrote behind it.
    fn logical(wal: Wal, path: &Path) -> Vec<u8> {
        let mut raw = std::fs::read(path).unwrap();
        assert!(raw[wal.end as usize..].iter().all(|&b| b == 0));
        raw.truncate(wal.end as usize);
        raw
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
            let mut frame = vec![0xAB; 3];
            r.frame_into(&mut frame);
            assert_eq!(&frame[3 + FRAME_HEADER..], &r.encode()[..]);
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
    fn a_file_without_a_valid_header_is_corrupt_not_empty() {
        let path = temp_path("header");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(&full[..4], MAGIC);
        // Every truncation into the header, down to the empty file.
        for keep in 0..FILE_HEADER {
            std::fs::write(&path, &full[..keep]).unwrap();
            assert!(matches!(Wal::replay(&path), Err(StorageError::Corrupt(_))));
            assert!(matches!(Wal::open(&path), Err(StorageError::Corrupt(_))));
        }
        // Another magic: the pre-header format started with a frame length.
        let mut other = full.clone();
        other[..4].copy_from_slice(&14u32.to_le_bytes());
        std::fs::write(&path, &other).unwrap();
        assert!(matches!(Wal::replay(&path), Err(StorageError::Corrupt(_))));
        assert!(matches!(Wal::open(&path), Err(StorageError::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_appends_at_the_logical_tail() {
        let path = temp_path("reopen");
        let records = sample_records();
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&records[0]).unwrap();
        wal.append(&records[1]).unwrap();
        // A torn third frame: garbage behind the tail.
        let mut raw = logical(wal, &path);
        raw.extend_from_slice(&[0xEE; 13]);
        std::fs::write(&path, &raw).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&records[2]).unwrap();
        assert_eq!(wal.records_written(), 1, "this handle's appends only");
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), records[..3].to_vec());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = temp_path("torn");
        let mut wal = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        // Chop bytes off the log's end, down to the file header: every prefix
        // must replay to some prefix of the records, never error, never
        // resurrect the torn record.
        let full = logical(wal, &path);
        for cut in 1..=full.len() - FILE_HEADER {
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
        // Flip a byte in the second record's payload (the file header is 8
        // bytes, the first frame 8 + 1 + 4 + 6 + 3 = 22).
        raw[FILE_HEADER + 22 + FRAME_HEADER + 2] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, sample_records()[..1].to_vec());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_append_failure_leaves_torn_frame() {
        let dir = Arc::new(MemDir::new());
        let mut wal = Wal::open_in(dir.clone(), "wal.log").unwrap();
        wal.append(&sample_records()[0]).unwrap();
        dir.arm(Fault::Write {
            name: "wal.log".into(),
            nth: 0,
            keep: FRAME_HEADER + 2,
        });
        // The update: its payload is no run of the zeroes pre-written
        // behind the tail, so the half that never lands tears it.
        assert!(matches!(
            wal.append(&sample_records()[2]),
            Err(StorageError::Io(_))
        ));
        drop(wal);
        let replayed = Wal::replay_in(&*dir, "wal.log").unwrap();
        assert_eq!(replayed, sample_records()[..1].to_vec());
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
        assert_eq!(logical(a, &per_record), logical(b, &batched));
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
    fn a_torn_batch_acks_nothing_and_poisons_the_log() {
        let dir = Arc::new(MemDir::new());
        let records = sample_records();
        let mut wal = Wal::open_in(dir.clone(), "wal.log").unwrap();
        let payloads: Vec<Vec<u8>> = records.iter().map(WalRecord::encode).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        // The write lands two whole frames and half the third, then fails.
        let two = 2 * FRAME_HEADER + payloads[0].len() + payloads[1].len();
        dir.arm(Fault::Write {
            name: "wal.log".into(),
            nth: 0,
            keep: two + FRAME_HEADER / 2,
        });
        assert!(matches!(
            wal.append_payload_batch(&refs),
            Err(StorageError::Io(_))
        ));
        assert_eq!(
            (wal.records_written(), wal.syncs()),
            (0, 0),
            "nothing acked"
        );
        // A process that dies now leaves the two frames that landed, and
        // replay stops at the torn third.
        assert_eq!(
            Wal::replay_in(&*dir, "wal.log").unwrap(),
            records[..2].to_vec()
        );
        // The log is poisoned: another append would land after the torn
        // frame where replay can never reach it, so it must fail...
        assert!(matches!(wal.append(&records[0]), Err(StorageError::Io(_))));
        // ...until rotation replaces the file wholesale.
        let snap = WalRecord::Snapshot(vec![1, 2]);
        wal.rotate(&snap).unwrap();
        wal.append(&records[0]).unwrap();
        assert_eq!(
            Wal::replay_in(&*dir, "wal.log").unwrap(),
            vec![snap, records[0].clone()]
        );
        // Power lost now keeps exactly what the syncs covered.
        dir.cut_power(0);
        assert_eq!(Wal::replay_in(&*dir, "wal.log").unwrap().len(), 2);
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

    #[test]
    fn a_young_log_prewrites_so_that_few_appends_change_its_size() {
        let path = temp_path("prewrite");
        let records = sample_records();
        let mut wal = Wal::open(&path).unwrap();
        let mut sizes = std::collections::BTreeSet::new();
        let batch: Vec<Vec<u8>> = records.iter().map(WalRecord::encode).collect();
        let batch: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        for _ in 0..700 {
            wal.append_payload_batch(&batch).unwrap();
            sizes.insert(std::fs::metadata(&path).unwrap().len());
        }
        // ~140 KB of frames: the file went 64 KiB ahead, then doubled.
        assert!(sizes.len() <= 3, "{sizes:?}");
        assert_eq!(wal.written, *sizes.last().unwrap());
        assert!(wal.end < wal.written);
        assert_eq!(
            Wal::replay(&path).unwrap().len(),
            3500,
            "zeroes are the tail"
        );
        // A reopened handle appends into the pre-written blocks.
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&records[0]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.written);
        assert_eq!(sizes.last(), Some(&wal.written));
        assert_eq!(Wal::replay(&path).unwrap().len(), 3501);
        remove_all(&path);
    }

    /// `<log><suffix>` beside the log at `path`.
    fn side_path(path: &Path, suffix: &str) -> PathBuf {
        let mut name = path.as_os_str().to_owned();
        name.push(suffix);
        PathBuf::from(name)
    }

    /// The directory of the log at `path`, and the log's name in it.
    fn os(path: &Path) -> (Arc<OsDir>, String) {
        let (dir, name) = OsDir::split(path).unwrap();
        (Arc::new(dir), name)
    }

    fn remove_side_files(path: &Path) -> Result<(), StorageError> {
        let (dir, name) = os(path);
        Wal::remove_side_files(&*dir, &name)
    }

    fn create(path: &Path, snapshot: &WalRecord) -> Result<Wal, StorageError> {
        let (dir, name) = os(path);
        Wal::create(dir, &name, snapshot)
    }

    fn side_files(path: &Path) -> (bool, bool) {
        (
            side_path(path, ".new").exists(),
            side_path(path, ".old").exists(),
        )
    }

    fn remove_all(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = remove_side_files(path);
    }

    #[test]
    fn a_rotation_writes_the_tail_since_the_cut_behind_its_snapshot() {
        let path = temp_path("cut");
        let records = sample_records();
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&records[0]).unwrap();
        wal.append(&records[1]).unwrap();
        wal.mark_cut();
        wal.append(&records[2]).unwrap();
        let payload = records[4].encode();
        wal.append_payload_batch(&[&payload]).unwrap();
        let snap = WalRecord::Snapshot(vec![5; 40]);
        wal.rotate(&snap).unwrap();
        assert_eq!(wal.records_written(), 3, "snapshot + two tail frames");
        assert_eq!(side_files(&path), (false, false));
        let expected = vec![snap.clone(), records[2].clone(), records[4].clone()];
        assert_eq!(Wal::replay(&path).unwrap(), expected);
        // The cut is consumed: the next rotation starts from its snapshot.
        wal.append(&records[0]).unwrap();
        wal.rotate(&snap).unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), vec![snap.clone()]);
        // An abandoned cut keeps nothing either.
        wal.mark_cut();
        wal.append(&records[0]).unwrap();
        wal.abandon_cut();
        wal.rotate(&snap).unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), vec![snap]);
        remove_all(&path);
    }

    #[cfg(unix)]
    #[test]
    fn recycled_rotations_alternate_two_inodes_and_never_replay_stale_frames() {
        use std::os::unix::fs::MetadataExt;
        let inode = |p: &Path| std::fs::metadata(p).unwrap().ino();
        let path = temp_path("recycle");
        let staging = side_path(&path, ".new");
        let records = sample_records();
        let mut wal = Wal::open(&path).unwrap();
        let first = inode(&path);
        for _ in 0..4 {
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let long = std::fs::metadata(&path).unwrap().len();

        // No retired log yet: a fresh file is staged, the first log parked.
        let snap = |n: u8| WalRecord::Snapshot(vec![n; 3]);
        wal.rotate_recycled(&snap(1)).unwrap();
        assert_eq!(side_files(&path), (true, false));
        assert_eq!(
            inode(&staging),
            first,
            "the retired log is the next staging file"
        );
        let second = inode(&path);
        assert_ne!(second, first);
        wal.append(&records[0]).unwrap();
        assert_eq!(
            Wal::replay(&path).unwrap(),
            vec![snap(1), records[0].clone()]
        );

        // Now the first log's blocks are written over: same inode, same
        // length, twenty stale frames behind a tail of two.
        wal.mark_cut();
        wal.append(&records[2]).unwrap();
        wal.rotate_recycled(&snap(2)).unwrap();
        assert_eq!((inode(&path), inode(&staging)), (first, second));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), long);
        assert_eq!(wal.records_written(), 2);
        wal.append(&records[1]).unwrap();
        let expected = vec![snap(2), records[2].clone(), records[1].clone()];
        assert_eq!(Wal::replay(&path).unwrap(), expected);
        // A reopened handle finds the same logical tail.
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&records[3]).unwrap();
        assert_eq!(Wal::replay(&path).unwrap().len(), 4);

        // The compact rotation leaves one file, exactly as long as its log.
        wal.rotate(&snap(3)).unwrap();
        assert_eq!(side_files(&path), (false, false));
        assert_eq!(Wal::replay(&path).unwrap(), vec![snap(3)]);
        let compact = FILE_HEADER + FRAME_HEADER + snap(3).encode().len();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), compact as u64);
        remove_all(&path);
    }

    #[test]
    fn removing_side_files_takes_names_not_the_live_log() {
        let path = temp_path("sides");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        // The state a crash between a rotation's link and its rename leaves.
        std::fs::hard_link(&path, side_path(&path, ".old")).unwrap();
        std::fs::write(side_path(&path, ".new"), b"half a staged log").unwrap();
        remove_side_files(&path).unwrap();
        assert_eq!(side_files(&path), (false, false));
        assert_eq!(Wal::replay(&path).unwrap(), sample_records()[..1].to_vec());
        // Nothing to remove is fine too.
        remove_side_files(&path).unwrap();
        remove_all(&path);
    }

    #[test]
    fn create_replaces_any_log_with_a_compact_one_of_the_next_generation() {
        let path = temp_path("create");
        let snap = WalRecord::Snapshot(vec![1, 2, 3]);
        let mut wal = create(&path, &snap).unwrap();
        assert_eq!((wal.generation, wal.records_written()), (1, 1));
        wal.append(&sample_records()[0]).unwrap();
        drop(wal);
        let wal = create(&path, &snap).unwrap();
        assert_eq!(wal.generation, 2);
        assert_eq!(side_files(&path), (false, false));
        assert_eq!(Wal::replay(&path).unwrap(), vec![snap]);
        remove_all(&path);
    }

    /// A log image: header, then `payloads` framed for `generation`.
    fn image(generation: u32, payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut raw = file_header(generation);
        for payload in payloads {
            WalRecord::Ddl(payload.clone()).frame_into(&mut raw);
        }
        mix_frames(&mut raw[FILE_HEADER..], generation_mask(generation));
        raw
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A recycled file: a generation-*g+1* log of `M` frames written
        /// over a generation-*g* log of `N > M` frames — whose first `M` are
        /// as long as the new ones, so that a whole stale frame starts
        /// exactly at the new tail, where only its generation gives it away.
        /// Whatever is cut off the file's end and whichever single byte is
        /// damaged, replay yields a prefix of the `M` new records — never a
        /// stale one — or refuses the file because its header is gone.
        #[test]
        fn a_log_written_over_an_older_one_replays_to_a_prefix_of_itself(
            new in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24), 1..4),
            behind in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24), 1..8),
            generation in 1u32..1000,
            flip in 1u8..=255,
        ) {
            let path = temp_path("overwrite");
            let old: Vec<Vec<u8>> = new
                .iter()
                .map(|payload| vec![0x5A; payload.len()])
                .chain(behind)
                .collect();
            let stale = image(generation, &old);
            let mut raw = image(generation + 1, &new);
            let written = raw.len();
            raw.extend_from_slice(&stale[written..]);
            proptest::prop_assert!(
                IntactFrames::new(&stale[written - FILE_HEADER..], generation).next().is_some(),
                "a whole stale frame sits at the new tail"
            );
            let records: Vec<WalRecord> = new.iter().cloned().map(WalRecord::Ddl).collect();
            let check = |bytes: &[u8], header_intact: bool| {
                std::fs::write(&path, bytes).unwrap();
                match Wal::replay(&path) {
                    Ok(replayed) => {
                        proptest::prop_assert!(replayed.len() <= records.len());
                        proptest::prop_assert_eq!(&replayed[..], &records[..replayed.len()]);
                    }
                    Err(e) => proptest::prop_assert!(!header_intact, "{e}"),
                }
                Ok(())
            };
            std::fs::write(&path, &raw).unwrap();
            proptest::prop_assert_eq!(Wal::replay(&path).unwrap(), records.clone());
            for keep in 0..raw.len() {
                check(&raw[..keep], keep >= FILE_HEADER)?;
            }
            for at in 0..raw.len() {
                let mut damaged = raw.clone();
                damaged[at] ^= flip;
                check(&damaged, at >= MAGIC.len())?;
                // The same damage with the file cut right behind the new log.
                check(&damaged[..written.max(at + 1)], at >= MAGIC.len())?;
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
