//! The page store: one heap file with a versioned header page,
//! page-aligned reads and writes, and a no-steal write overlay flushed on
//! [`FileBackend::sync`].
//!
//! The file is a [`StoreFile`]. For the durable engine it is `heap.db` in a
//! [`StoreDir`] ([`FileBackend::open`], [`FileBackend::open_in`]); for
//! [`FileBackend::new`] — `Database::new`, the benches, most tests — it is an
//! in-memory file that nothing else sees, so a run is deterministic and
//! leaves nothing behind.
//!
//! ### On-disk layout
//!
//! ```text
//! offset 0                      : header page (PAGE_SIZE bytes)
//!   [0..8)   magic  b"AIBHEAP1"
//!   [8..12)  format version, u32 LE (currently 1)
//!   [12..16) durable page count, u32 LE
//! offset PAGE_SIZE * (1 + pid)  : data page `pid`
//! ```
//!
//! ### No-steal overlay, and the three phases of a sync
//!
//! [`FileBackend::write`] never touches the file directly: dirty pages land
//! in an in-memory overlay, and only a sync (the engine's checkpoint) writes
//! them out, updates the header's durable page count, and fsyncs. Between
//! checkpoints the file therefore always holds exactly the previous
//! checkpoint's state — crash recovery replays the WAL *on top of whatever
//! prefix of the newer state reached the file*, and because WAL replay is
//! last-write-wins at slot granularity, any partially flushed state
//! converges to the same final heap (see `wal.rs`).
//!
//! A sync is three steps so that its I/O needs no lock
//! (`freeze` / `write_out` / `thaw`): *freeze* moves the
//! overlay and the pool's dirty frames into one sorted, contiguous **frozen
//! set** — a memcpy; *write out* sends every run of consecutive pages down in
//! one positional write, then the header, then one sync, through a handle of
//! its own while reads and writes go on (a read of a frozen page is served
//! from the set, a write lands in the new overlay on top of it); *thaw* drops
//! the set and moves the durable page count to where the cut was.
//!
//! ### Accounting
//!
//! Reads and writes charge [`IoStats`] per page at the [`CostModel`]'s
//! microseconds, whichever directory holds the file, so experiments report
//! the same simulated-time axis in memory and on disk
//! (`crates/storage/tests/backend_parity.rs` pins the counts). A sync's flush
//! I/O is never charged.
//!
//! ### Vectored run reads
//!
//! [`FileBackend::read_batch`] serves a batch as runs of consecutive page
//! ids. Inside a run, every stretch of pages that live *in the file* (below
//! the durable count, not in the overlay) is one vectored read straight into
//! the callers' buffers — on the file system one `seek` plus one
//! `read_vectored`, so after a checkpoint a whole 64-page sweep batch is two
//! system calls instead of 128. Overlay pages and the never-written tail are
//! memory copies in between.

use std::io::{ErrorKind, IoSliceMut};
use std::path::Path;
use std::sync::Arc;

use crate::codec::{self, put_u32, Reader};
use crate::disk::{CostModel, PAGE_SIZE};
use crate::error::StorageError;
use crate::rid::PageId;
use crate::stats::IoStats;
use crate::store::{read_exact_at, MemDir, OsDir, StoreDir, StoreFile};

/// Magic bytes opening every heap file.
const MAGIC: &[u8; 8] = b"AIBHEAP1";
/// Current header format version.
const FORMAT_VERSION: u32 = 1;

/// Most pages one positional write of a flush carries (256 KiB).
const FLUSH_WRITE_PAGES: usize = 32;

/// One `(page id, destination)` request of a [`FileBackend::read_batch`].
pub(crate) type ReadReq<'a> = (PageId, &'a mut [u8; PAGE_SIZE]);

/// The page store, addressed by dense [`PageId`]s. See the module docs.
pub struct FileBackend {
    /// Shared with the flush job of a sync in flight, which only ever writes
    /// positionally — on the file system the file offset belongs to reads.
    file: Arc<dyn StoreFile>,
    /// Total allocated pages, including not-yet-flushed ones.
    num_pages: u32,
    /// Pages the file itself holds (header's count as of the last sync).
    durable_pages: u32,
    /// No-steal write overlay: latest contents by page id (ids are dense).
    overlay: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    /// The cut a sync in flight is writing out; older than the overlay,
    /// newer than the file.
    frozen: Option<Arc<FrozenPages>>,
    cost: CostModel,
    stats: Arc<IoStats>,
}

impl std::fmt::Debug for FileBackend {
    /// Compact summary — a derived impl would dump every 8 KiB page buffer.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("num_pages", &self.num_pages)
            .field("durable_pages", &self.durable_pages)
            .field("overlay_pages", &self.overlay.iter().flatten().count())
            .field("cost", &self.cost)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

/// The page images of one sync: ascending ids, their images back to back,
/// and the page count the header will name.
struct FrozenPages {
    ids: Vec<u32>,
    data: Vec<u8>,
    num_pages: u32,
}

impl FrozenPages {
    fn get(&self, id: u32) -> Option<&[u8]> {
        let at = self.ids.binary_search(&id).ok()?;
        self.data.get(at * PAGE_SIZE..(at + 1) * PAGE_SIZE)
    }

    /// `(first page id, images)` of every run of consecutive ids.
    fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> {
        let ids = &self.ids;
        let mut at = 0;
        std::iter::from_fn(move || {
            let first = *ids.get(at)?;
            let len = ids
                .get(at..)?
                .iter()
                .zip(first..)
                .take_while(|(id, expected)| *id == expected)
                .count();
            let images = self.data.get(at * PAGE_SIZE..(at + len) * PAGE_SIZE)?;
            at += len;
            Some((first, images))
        })
    }
}

/// The off-lock half of a sync: writes one frozen set to the heap file and
/// syncs it.
pub(crate) struct FileFlush {
    file: Arc<dyn StoreFile>,
    pages: Arc<FrozenPages>,
}

impl FileFlush {
    /// Writes the frozen pages, then the header, then syncs. Takes no lock
    /// and needs none: run it with none held.
    pub(crate) fn write_out(&self) -> Result<(), StorageError> {
        let pages = &self.pages;
        for (first, images) in pages.runs() {
            // One write per run — in pieces of `FLUSH_WRITE_PAGES`: a
            // buffered write of megabytes makes the page cache back the file
            // with folios as large, and every later 8 KiB write into one of
            // those pays for its size (measured on Linux 6.18/ext4: a 16 MiB
            // write takes 180 ms where 512 KiB pieces take 7, and scattered
            // page rewrites of that file run four times slower afterwards).
            let pieces = images.chunks(FLUSH_WRITE_PAGES * PAGE_SIZE);
            for (piece, at) in pieces.zip((first..).step_by(FLUSH_WRITE_PAGES)) {
                self.file
                    .write_all_at(piece, page_offset(at))
                    .map_err(|e| StorageError::io("flush pages", e))?;
            }
        }
        // Pages allocated but never written stay implicitly zeroed: extend
        // the file so reads of them succeed.
        let needed_len = page_offset(pages.num_pages);
        let cur_len = self
            .file
            .len()
            .map_err(|e| StorageError::io("stat heap file", e))?;
        if cur_len < needed_len {
            self.file
                .set_len(needed_len)
                .map_err(|e| StorageError::io("extend heap file", e))?;
        }
        self.file
            .write_all_at(&encode_header(pages.num_pages), 0)
            .map_err(|e| StorageError::io("write header", e))?;
        self.file
            .sync()
            .map_err(|e| StorageError::io("fsync heap file", e))
    }
}

impl FileBackend {
    /// A page store over a fresh in-memory file: the default of
    /// `Database::new` and of every bench. Nothing persists.
    pub fn new(cost: CostModel) -> Self {
        FileBackend::over(MemDir::lone_file(), 0, cost)
    }

    /// Opens (or creates) the heap file at `path` on the file system.
    pub fn open(path: &Path, cost: CostModel) -> Result<Self, StorageError> {
        let (dir, name) = OsDir::split(path).map_err(|e| StorageError::io("open heap file", e))?;
        FileBackend::open_in(&dir, &name, cost)
    }

    /// Opens (or creates) the heap file `name` in `dir`, validating the
    /// header.
    pub fn open_in(dir: &dyn StoreDir, name: &str, cost: CostModel) -> Result<Self, StorageError> {
        let file = dir
            .open(name, true)
            .map_err(|e| StorageError::io("open heap file", e))?;
        let len = file
            .len()
            .map_err(|e| StorageError::io("stat heap file", e))?;
        let durable_pages = if len == 0 {
            // Fresh file: write an empty header so a crash before the first
            // checkpoint still leaves a well-formed (zero-page) heap.
            file.write_all_at(&encode_header(0), 0)
                .map_err(|e| StorageError::io("write header", e))?;
            file.sync()
                .map_err(|e| StorageError::io("fsync header", e))?;
            0
        } else {
            let mut header = [0u8; PAGE_SIZE];
            read_exact_at(&*file, &mut header, 0)
                .map_err(|e| StorageError::io("read header", e))?;
            decode_header(&header)?
        };
        Ok(FileBackend::over(file, durable_pages, cost))
    }

    fn over(file: Arc<dyn StoreFile>, durable_pages: u32, cost: CostModel) -> Self {
        FileBackend {
            file,
            num_pages: durable_pages,
            durable_pages,
            overlay: Vec::new(),
            frozen: None,
            cost,
            stats: Arc::new(IoStats::new()),
        }
    }

    /// Allocates a fresh zeroed page and returns its id. Allocation itself
    /// is not charged; the first write is.
    pub fn allocate(&mut self) -> Result<PageId, StorageError> {
        let id = PageId(self.num_pages);
        self.num_pages = self
            .num_pages
            .checked_add(1)
            .ok_or_else(|| StorageError::Corrupt("page id space exhausted".into()))?;
        Ok(id)
    }

    /// Reads page `id` into `buf`, charging one page read.
    pub fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.read_batch(&mut [(id, buf)])
    }

    /// Fills every `(id, buf)` request in one disk operation — the sweep
    /// read's "one request per run" path. Each page is charged the same
    /// per-page cost as [`FileBackend::read`], but the statistics sink is
    /// touched once for the whole batch.
    ///
    /// The batch is served as its **runs** of consecutive page ids, one
    /// request ([`IoStats::read_requests`]) each — a sweep batch that never
    /// spans a skip gap is one run. The first id the store does not know
    /// ends the batch with [`StorageError::UnknownPage`]; the runs before it
    /// (including the known pages directly in front of it) are filled and
    /// charged, nothing after. A run whose read fails is not charged.
    pub fn read_batch(&mut self, reqs: &mut [ReadReq<'_>]) -> Result<(), StorageError> {
        let memory = InMemory {
            overlay: &self.overlay,
            frozen: self.frozen.as_deref(),
            durable_pages: self.durable_pages,
        };
        let num_pages = self.num_pages as usize;
        let (mut pages, mut requests) = (0usize, 0u64);
        let mut rest = reqs;
        let outcome = loop {
            let Some(first) = rest.first().map(|(id, _)| *id) else {
                break Ok(());
            };
            // The leading run: ids counting up from `first`, while known.
            let run = rest
                .iter()
                .zip(first.index()..num_pages)
                .take_while(|((id, _), expected)| id.index() == *expected)
                .count();
            if run == 0 {
                break Err(StorageError::UnknownPage(first));
            }
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(run);
            if let Err(e) = fetch_run(&*self.file, &memory, head) {
                break Err(e);
            }
            pages += run;
            requests += 1;
            rest = tail;
        };
        if requests > 0 {
            self.stats.record_reads(pages as u64, self.cost.read_us);
            self.stats.record_read_requests(requests);
        }
        outcome
    }

    /// Writes `buf` to page `id`, charging one page write.
    pub fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
        if id.0 >= self.num_pages {
            return Err(StorageError::UnknownPage(id));
        }
        *overlay_slot(&mut self.overlay, id.0) = Some(Box::new(*buf));
        self.stats.record_writes(1, self.cost.write_us);
        Ok(())
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.num_pages as usize
    }

    /// Phase one of a sync — the only one that needs the store exclusively.
    /// Writes `dirty` (charged like [`FileBackend::write`], page by page) and
    /// detaches those images, together with everything written since the
    /// previous sync, as a **frozen set**: a cut of the page space that later
    /// writes do not touch and that reads keep seeing (where nothing newer
    /// overlays it) until `thaw`. The returned job makes the set durable; it
    /// owns what it needs, so the caller runs it *after* releasing whatever
    /// lock guards the store. One sync at a time.
    pub(crate) fn freeze(
        &mut self,
        dirty: &[(PageId, &[u8; PAGE_SIZE])],
    ) -> Result<FileFlush, StorageError> {
        if self.frozen.is_some() {
            return Err(StorageError::Io(
                "a sync of the heap file is already in flight".into(),
            ));
        }
        if let Some((id, _)) = dirty.iter().find(|(id, _)| id.0 >= self.num_pages) {
            return Err(StorageError::UnknownPage(*id));
        }
        self.stats
            .record_writes(dirty.len() as u64, self.cost.write_us);
        let overlay = self.overlay.iter().zip(0..);
        let evicted = overlay.filter_map(|(page, id)| Some((id, &**page.as_ref()?)));
        let mut images: Vec<(u32, &[u8; PAGE_SIZE])> = evicted
            .chain(dirty.iter().map(|(id, page)| (id.0, *page)))
            .collect();
        // Stable: a page's dirty frame sorts behind its evicted image.
        images.sort_by_key(|(id, _)| *id);
        let mut pages = FrozenPages {
            ids: Vec::with_capacity(images.len()),
            data: Vec::with_capacity(images.len() * PAGE_SIZE),
            num_pages: self.num_pages,
        };
        for (at, (id, page)) in images.iter().enumerate() {
            // The frame is newer than what an eviction once wrote here.
            if images.get(at + 1).is_some_and(|(next, _)| next == id) {
                continue;
            }
            pages.ids.push(*id);
            pages.data.extend_from_slice(&page[..]);
        }
        drop(images);
        self.overlay.clear();
        let pages = Arc::new(pages);
        self.frozen = Some(Arc::clone(&pages));
        Ok(FileFlush {
            file: Arc::clone(&self.file),
            pages,
        })
    }

    /// Phase three: books the outcome of the frozen set's
    /// [`FileFlush::write_out`]. On `Ok` the set is durable and reads of it
    /// go to the file again; on `Err` its pages go back to being unsynced
    /// writes, to be retried by the next sync. Returns `flushed`.
    pub(crate) fn thaw(&mut self, flushed: Result<(), StorageError>) -> Result<(), StorageError> {
        let Some(frozen) = self.frozen.take() else {
            return flushed;
        };
        if flushed.is_ok() {
            self.durable_pages = frozen.num_pages;
            return flushed;
        }
        // Some prefix may have reached the file, the header and the fsync did
        // not: the pages are unsynced writes again, under whatever has been
        // written over them since.
        for (id, image) in frozen.ids.iter().zip(frozen.data.chunks_exact(PAGE_SIZE)) {
            overlay_slot(&mut self.overlay, *id).get_or_insert_with(|| {
                let mut page = Box::new([0u8; PAGE_SIZE]);
                page.copy_from_slice(image);
                page
            });
        }
        flushed
    }

    /// Makes all writes since the previous sync durable: the three phases
    /// back to back, for a caller that holds the store outright. The flush
    /// I/O is *not* charged to [`IoStats`] — the simulated-time axis tracks
    /// the paper's read/write economics, not checkpoint background I/O.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        let flushed = self.freeze(&[])?.write_out();
        self.thaw(flushed)
    }

    /// The shared statistics sink; clones of this `Arc` observe all I/O.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

/// Where the pages that are not (only) in the file live.
struct InMemory<'a> {
    overlay: &'a [Option<Box<[u8; PAGE_SIZE]>>],
    frozen: Option<&'a FrozenPages>,
    durable_pages: u32,
}

impl InMemory<'_> {
    /// The current image of page `id`, unless the file holds it: the
    /// overlay's, else the frozen set's, else — allocated since the last
    /// sync but never written — zeroes.
    fn image(&self, id: u32) -> Option<&[u8]> {
        const ZEROED: &[u8] = &[0; PAGE_SIZE];
        let written = (self.overlay.get(id as usize))
            .and_then(|page| Some(&page.as_deref()?[..]))
            .or_else(|| self.frozen.and_then(|frozen| frozen.get(id)));
        written.or((id >= self.durable_pages).then_some(ZEROED))
    }
}

/// The overlay's slot of page `id`, grown to it.
fn overlay_slot(
    overlay: &mut Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    id: u32,
) -> &mut Option<Box<[u8; PAGE_SIZE]>> {
    let at = id as usize;
    if overlay.len() <= at {
        overlay.resize_with(at + 1, || None);
    }
    // aib-lint: allow(no-index) — grown above to hold `at`.
    &mut overlay[at]
}

/// Fills one run of consecutive allocated page ids: every stretch of pages
/// whose current image is in the file with one [`read_stretch`], the pages in
/// between from memory.
fn fetch_run(
    file: &dyn StoreFile,
    memory: &InMemory<'_>,
    run: &mut [ReadReq<'_>],
) -> Result<(), StorageError> {
    let mut rest = run;
    while let Some(first) = rest.first().map(|(id, _)| id.0) {
        let stretch = rest
            .iter()
            .take_while(|(id, _)| memory.image(id.0).is_none())
            .count();
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(stretch.max(1));
        rest = tail;
        if stretch > 0 {
            read_stretch(file, first, head)?;
            continue;
        }
        for (id, buf) in head {
            if let Some(image) = memory.image(id.0) {
                buf.copy_from_slice(image);
            }
        }
    }
    Ok(())
}

/// Reads the consecutive file pages starting at `first` into the buffers of
/// `stretch` with, short reads aside, one vectored read.
fn read_stretch(
    file: &dyn StoreFile,
    first: u32,
    stretch: &mut [ReadReq<'_>],
) -> Result<(), StorageError> {
    let mut offset = page_offset(first);
    let mut rest = stretch;
    while !rest.is_empty() {
        let mut slices: Vec<IoSliceMut<'_>> = rest
            .iter_mut()
            .map(|(_, buf)| IoSliceMut::new(&mut buf[..]))
            .collect();
        let got = match file.read_vectored_at(&mut slices, offset) {
            Ok(0) => Err(std::io::Error::from(ErrorKind::UnexpectedEof)),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            got => got,
        }
        .map_err(|e| StorageError::io("read page", e))?;
        drop(slices);
        // A short read stops inside some page: finish that page, then go
        // round again for the ones behind it.
        let mut filled = got / PAGE_SIZE;
        let torn = got % PAGE_SIZE;
        offset += got as u64;
        if torn > 0 {
            if let Some((_, buf)) = rest.get_mut(filled) {
                read_exact_at(file, buf.get_mut(torn..).unwrap_or_default(), offset)
                    .map_err(|e| StorageError::io("read page", e))?;
            }
            offset += (PAGE_SIZE - torn) as u64;
            filled += 1;
        }
        rest = std::mem::take(&mut rest)
            .get_mut(filled..)
            .unwrap_or_default();
    }
    Ok(())
}

/// Byte offset of data page `pid` (the header occupies page slot 0).
fn page_offset(pid: u32) -> u64 {
    (PAGE_SIZE as u64) * (1 + pid as u64)
}

/// Builds a header page naming `pages` durable data pages.
fn encode_header(pages: u32) -> Vec<u8> {
    let mut header = MAGIC.to_vec();
    put_u32(&mut header, FORMAT_VERSION);
    put_u32(&mut header, pages);
    header.resize(PAGE_SIZE, 0);
    header
}

/// Validates a header page, returning its durable page count.
fn decode_header(header: &[u8]) -> Result<u32, StorageError> {
    let mut r = Reader::new(header);
    if r.bytes(MAGIC.len(), "heap file magic")? != MAGIC {
        return Err(codec::corrupt("heap file magic mismatch"));
    }
    let version = r.u32("heap file version")?;
    if version != FORMAT_VERSION {
        return Err(codec::corrupt(format_args!(
            "unsupported heap file version {version} (expected {FORMAT_VERSION})"
        )));
    }
    r.u32("heap file page count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Fault;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("aib-filebackend-{}-{tag}.heap", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn write_survives_sync_and_reopen() {
        let path = temp_path("roundtrip");
        {
            let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
            let p0 = disk.allocate().unwrap();
            let p1 = disk.allocate().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = 0xAB;
            disk.write(p1, &buf).unwrap();
            // Unsynced writes are readable through the overlay.
            let mut out = [0u8; PAGE_SIZE];
            disk.read(p1, &mut out).unwrap();
            assert_eq!(out[0], 0xAB);
            disk.read(p0, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 0));
            disk.sync().unwrap();
        }
        let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
        assert_eq!(disk.num_pages(), 2);
        let mut out = [0u8; PAGE_SIZE];
        disk.read(PageId(1), &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsynced_writes_do_not_reach_the_file() {
        let path = temp_path("nosteal");
        {
            let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
            let p = disk.allocate().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = 1;
            disk.write(p, &buf).unwrap();
            disk.sync().unwrap();
            buf[0] = 2;
            disk.write(p, &buf).unwrap();
            // Dropped without sync: overlay contents are lost.
        }
        let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        disk.read(PageId(0), &mut out).unwrap();
        assert_eq!(out[0], 1, "file still holds the checkpointed state");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_page_rejected() {
        let path = temp_path("unknown");
        let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        assert_eq!(
            disk.read(PageId(0), &mut buf),
            Err(StorageError::UnknownPage(PageId(0)))
        );
        assert_eq!(
            disk.write(PageId(3), &buf),
            Err(StorageError::UnknownPage(PageId(3)))
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_corruption_detected() {
        let path = temp_path("corrupt");
        {
            let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
            disk.allocate().unwrap();
            disk.sync().unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        raw[0] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            FileBackend::open(&path, CostModel::free()),
            Err(StorageError::Corrupt(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_sync_failure_keeps_old_header() {
        let dir = MemDir::new();
        let open = || FileBackend::open_in(&dir, "heap.db", CostModel::free()).unwrap();
        {
            let mut disk = open();
            for i in 0..4u8 {
                let p = disk.allocate().unwrap();
                disk.write(p, &[i + 1; PAGE_SIZE]).unwrap();
            }
            disk.sync().unwrap();
            // Second round of writes, then a sync whose run of pages lands
            // only its first two before the write fails.
            for i in 0..4u8 {
                disk.write(PageId(i.into()), &[10 + i; PAGE_SIZE]).unwrap();
            }
            dir.arm(Fault::Write {
                name: "heap.db".into(),
                nth: 0,
                keep: 2 * PAGE_SIZE,
            });
            assert!(matches!(disk.sync(), Err(StorageError::Io(_))));
        }
        // Reopen: header still names 4 pages; some pages hold new data
        // (partial flush), which is exactly the state WAL replay converges.
        let mut disk = open();
        assert_eq!(disk.num_pages(), 4);
        assert_eq!(read_tag(&mut disk, 1), 11, "flushed before the failure");
        assert_eq!(
            read_tag(&mut disk, 3),
            4,
            "unflushed page keeps checkpointed contents"
        );
    }

    fn read_tag(disk: &mut FileBackend, id: u32) -> u8 {
        let mut out = [0xFFu8; PAGE_SIZE];
        disk.read(PageId(id), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == out[0]), "page {id} is one image");
        out[0]
    }

    #[test]
    fn a_frozen_set_is_read_through_and_written_over_until_it_thaws() {
        let path = temp_path("frozen");
        let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
        for p in 0..5u8 {
            let id = disk.allocate().unwrap();
            disk.write(id, &[0x10 + p; PAGE_SIZE]).unwrap();
        }
        disk.sync().unwrap();
        // An evicted image of page 1, a dirty frame of page 3 — and of page
        // 1 again, newer than the eviction.
        disk.write(PageId(1), &[0x21; PAGE_SIZE]).unwrap();
        disk.write(PageId(4), &[0x24; PAGE_SIZE]).unwrap();
        let before = disk.stats().snapshot();
        let (one, three) = ([0x31; PAGE_SIZE], [0x33; PAGE_SIZE]);
        let job = disk
            .freeze(&[(PageId(3), &three), (PageId(1), &one)])
            .unwrap();
        let charged = disk.stats().snapshot().since(&before);
        assert_eq!(charged.page_writes, 2, "the frames, like two writes");
        assert!(matches!(disk.freeze(&[]), Err(StorageError::Io(_))));
        let tags =
            |disk: &mut FileBackend| -> Vec<u8> { (0..5).map(|id| read_tag(disk, id)).collect() };
        assert_eq!(tags(&mut disk), [0x10, 0x31, 0x12, 0x33, 0x24]);
        // The flush runs beside traffic: a write over a frozen page, an
        // allocation behind the cut.
        disk.write(PageId(4), &[0x44; PAGE_SIZE]).unwrap();
        disk.allocate().unwrap();
        job.write_out().unwrap();
        assert_eq!(tags(&mut disk), [0x10, 0x31, 0x12, 0x33, 0x44]);
        disk.thaw(Ok(())).unwrap();
        assert_eq!(tags(&mut disk), [0x10, 0x31, 0x12, 0x33, 0x44]);
        assert_eq!(read_tag(&mut disk, 5), 0, "allocated, never written");
        drop(disk);
        // The file holds the cut: five pages, page 4 as frozen.
        let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
        assert_eq!(disk.num_pages(), 5);
        assert_eq!(tags(&mut disk), [0x10, 0x31, 0x12, 0x33, 0x24]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_flush_hands_its_pages_back_for_the_next_sync() {
        let path = temp_path("thawfail");
        let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
        for _ in 0..3 {
            disk.allocate().unwrap();
        }
        disk.write(PageId(0), &[1; PAGE_SIZE]).unwrap();
        let frame = [2; PAGE_SIZE];
        let _never_run = disk.freeze(&[(PageId(1), &frame)]).unwrap();
        disk.write(PageId(0), &[3; PAGE_SIZE]).unwrap();
        let lost = Err(StorageError::Io("disk full".into()));
        assert_eq!(disk.thaw(lost.clone()), lost);
        // Page 0 keeps what was written over the frozen image.
        assert_eq!((read_tag(&mut disk, 0), read_tag(&mut disk, 1)), (3, 2));
        disk.sync().unwrap();
        drop(disk);
        let mut disk = FileBackend::open(&path, CostModel::free()).unwrap();
        assert_eq!((read_tag(&mut disk, 0), read_tag(&mut disk, 1)), (3, 2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frozen_pages_flush_as_runs_of_consecutive_ids() {
        let ids = vec![1u32, 2, 3, 7, 9, 10];
        let data: Vec<u8> = ids.iter().flat_map(|&id| [id as u8; PAGE_SIZE]).collect();
        let pages = FrozenPages {
            ids,
            data,
            num_pages: 11,
        };
        let shape: Vec<(u32, usize, u8)> = pages
            .runs()
            .map(|(first, images)| (first, images.len() / PAGE_SIZE, images[0]))
            .collect();
        assert_eq!(shape, [(1, 3, 1), (7, 1, 7), (9, 2, 9)]);
        assert_eq!(pages.get(7).map(|p| p[0]), Some(7));
        assert_eq!(pages.get(8), None);
    }

    /// A backend with every kind of page: ids `0..8` synced to the file,
    /// `1` and `5` rewritten since (overlay), `8..12` allocated after the
    /// sync with `9` written (overlay) and the rest never written (zeroed
    /// tail). Page `p` holds `tag(p)` in every byte.
    fn mixed_backend(path: &Path) -> FileBackend {
        let mut disk = FileBackend::open(path, CostModel::free()).unwrap();
        for _ in 0..8 {
            let p = disk.allocate().unwrap();
            disk.write(p, &[0x10 + p.0 as u8; PAGE_SIZE]).unwrap();
        }
        disk.sync().unwrap();
        for _ in 8..12 {
            disk.allocate().unwrap();
        }
        for p in [1u32, 5, 9] {
            disk.write(PageId(p), &[tag(p); PAGE_SIZE]).unwrap();
        }
        disk
    }

    fn tag(p: u32) -> u8 {
        match p {
            1 | 5 | 9 => 0x80 + p as u8,
            0..=7 => 0x10 + p as u8,
            _ => 0,
        }
    }

    /// Reads `ids` page by page, stopping at the first error like a batch
    /// does. Returns the pages read and the outcome.
    fn read_one_by_one(
        disk: &mut FileBackend,
        ids: &[u32],
    ) -> (Vec<[u8; PAGE_SIZE]>, Result<(), StorageError>) {
        let mut pages = Vec::new();
        for &id in ids {
            let mut buf = [0xFFu8; PAGE_SIZE];
            if let Err(e) = disk.read(PageId(id), &mut buf) {
                return (pages, Err(e));
            }
            pages.push(buf);
        }
        (pages, Ok(()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `read_batch` is `read` page by page — same bytes, same pages
        /// charged, same error at the same place — for any id order over
        /// file, overlay and tail pages, with unknown ids (12..14) mixed
        /// in; and it is charged one request per run of consecutive ids.
        #[test]
        fn read_batch_equals_per_page_reads(
            ids in proptest::collection::vec(0u32..14, 0..24),
        ) {
            let path = temp_path("batch");
            let mut disk = mixed_backend(&path);
            let before = disk.stats().snapshot();
            let (expected, outcome) = read_one_by_one(&mut disk, &ids);
            let single = disk.stats().snapshot().since(&before);

            let mut bufs = vec![[0xFFu8; PAGE_SIZE]; ids.len()];
            let mut reqs: Vec<ReadReq<'_>> =
                ids.iter().map(|&id| PageId(id)).zip(bufs.iter_mut()).collect();
            let before = disk.stats().snapshot();
            let batched = disk.read_batch(&mut reqs);
            let batch = disk.stats().snapshot().since(&before);
            let _ = std::fs::remove_file(&path);

            proptest::prop_assert_eq!(&batched, &outcome);
            let good = expected.len();
            proptest::prop_assert!(bufs[..good] == expected[..], "pages before the failure are filled");
            proptest::prop_assert!(
                bufs[good..].iter().all(|b| b.iter().all(|&x| x == 0xFF)),
                "nothing after it is touched"
            );
            for (id, page) in ids.iter().zip(&expected) {
                proptest::prop_assert!(page.iter().all(|&x| x == tag(*id)), "page {}", id);
            }
            proptest::prop_assert_eq!(batch.page_reads, single.page_reads);
            proptest::prop_assert_eq!(single.read_requests, good as u64);
            let runs = ids[..good]
                .iter()
                .zip(std::iter::once(&u32::MAX).chain(&ids[..good]))
                .filter(|(&id, &prev)| prev == u32::MAX || id != prev.wrapping_add(1))
                .count();
            proptest::prop_assert_eq!(batch.read_requests, runs as u64);
        }
    }

    #[test]
    fn a_truncated_file_fails_the_run_without_charging_it() {
        let path = temp_path("truncated");
        let mut disk = mixed_backend(&path);
        // Cut the file inside page 6: pages 6 and 7 are gone.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(page_offset(6) + 100).unwrap();
        let mut bufs = vec![[0u8; PAGE_SIZE]; 6];
        let ids = [0u32, 9, 2, 3, 6, 7];
        let mut reqs: Vec<ReadReq<'_>> = ids.into_iter().map(PageId).zip(bufs.iter_mut()).collect();
        let before = disk.stats().snapshot();
        assert!(matches!(
            disk.read_batch(&mut reqs),
            Err(StorageError::Io(_))
        ));
        let d = disk.stats().snapshot().since(&before);
        // Runs [0], [9] and [2, 3] completed; [6, 7] hit the end of the file.
        assert_eq!((d.page_reads, d.read_requests), (4, 3));
        assert!(bufs[..4].iter().zip(ids).all(|(b, id)| b[0] == tag(id)));
        let _ = std::fs::remove_file(&path);
    }

    /// The same operations charge the same on the file system and in memory.
    #[test]
    fn charges_match_simulation() {
        let cost = CostModel {
            read_us: 5,
            write_us: 7,
        };
        let path = temp_path("parity");
        for mut disk in [
            FileBackend::new(cost),
            FileBackend::open(&path, cost).unwrap(),
        ] {
            let p0 = disk.allocate().unwrap();
            let p1 = disk.allocate().unwrap();
            let buf = [0u8; PAGE_SIZE];
            disk.write(p0, &buf).unwrap();
            disk.write(p1, &buf).unwrap();
            let mut a = [0u8; PAGE_SIZE];
            let mut b = [0u8; PAGE_SIZE];
            disk.read_batch(&mut [(p0, &mut a), (p1, &mut b)]).unwrap();
            disk.read(p0, &mut a).unwrap();
            let before_sync = disk.stats().snapshot();
            disk.sync().unwrap();
            let s = disk.stats().snapshot();
            assert_eq!(s, before_sync, "sync flush I/O is never charged");
            assert_eq!(s.page_reads, 3);
            assert_eq!(s.read_requests, 2, "the two-page batch is one request");
            assert_eq!(s.page_writes, 2);
            assert_eq!(s.simulated_us, 3 * 5 + 2 * 7);
        }
        let _ = std::fs::remove_file(&path);
    }
}
