//! The file seam: the only module of this crate that calls the file system.
//!
//! The page store ([`crate::FileBackend`]) and the log ([`crate::Wal`]) see
//! files as [`StoreFile`]s in a [`StoreDir`]. [`OsDir`] is the file system,
//! one system call per method: a `seek` plus a `read_vectored` (callers
//! serialize the reads of a file), a positional write, `fdatasync`, and an
//! `fsync` of the directory. [`MemDir`] keeps every file and every entry in
//! memory twice — as they are, and as of their last sync — so a test can
//! read what a killed process leaves, cut the power, or fail one write or
//! sync. Errors are `io::Result`s; callers add their context.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, IoSliceMut, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::sync::Mutex;

/// A file: positional I/O, a data sync, and its length.
#[allow(clippy::len_without_is_empty)] // a length that is an I/O result
pub trait StoreFile: fmt::Debug + Send + Sync {
    /// Reads into `bufs` from byte `offset`: fewer bytes at the end of the
    /// file, none past it.
    fn read_vectored_at(&self, bufs: &mut [IoSliceMut<'_>], offset: u64) -> io::Result<usize>;
    /// Writes all of `buf` at byte `offset`.
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;
    /// Makes the writes and length changes so far durable.
    fn sync(&self) -> io::Result<()>;
    /// The length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// Cuts or zero-extends the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
}

/// A directory of named [`StoreFile`]s.
pub trait StoreDir: fmt::Debug + Send + Sync {
    /// Opens `name` for reading and writing; an absent file is created empty
    /// if `create` is set, and is `NotFound` otherwise.
    fn open(&self, name: &str, create: bool) -> io::Result<Arc<dyn StoreFile>>;
    /// Renames `from` to `to`, replacing whatever `to` named.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Gives the file `from` the second name `to`, which must be free.
    fn hard_link(&self, from: &str, to: &str) -> io::Result<()>;
    /// Removes one name; the file lives while a name or a handle holds it.
    fn remove(&self, name: &str) -> io::Result<()>;
    /// Makes the entry changes so far durable.
    fn sync(&self) -> io::Result<()>;
}

/// Fills `buf` from byte `offset` of `file`, or fails `UnexpectedEof`.
pub(crate) fn read_exact_at(file: &dyn StoreFile, buf: &mut [u8], offset: u64) -> io::Result<()> {
    let (mut rest, mut offset) = (buf, offset);
    while !rest.is_empty() {
        match file.read_vectored_at(&mut [IoSliceMut::new(rest)], offset) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                rest = std::mem::take(&mut rest).get_mut(n..).unwrap_or_default();
                offset += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The whole contents of `file`.
pub(crate) fn read_all(file: &dyn StoreFile) -> io::Result<Vec<u8>> {
    let mut raw = vec![0; index(file.len()?)?];
    read_exact_at(file, &mut raw, 0)?;
    Ok(raw)
}

fn index(offset: u64) -> io::Result<usize> {
    usize::try_from(offset).map_err(|_| ErrorKind::InvalidInput.into())
}

/// A directory of the file system.
#[derive(Debug, Clone)]
pub struct OsDir(PathBuf);

impl OsDir {
    /// The directory at `path`; the empty path names files relative to the
    /// working directory, and its entries are never synced.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        OsDir(path.into())
    }

    /// The directory at `path`, created with its parents if missing.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = OsDir::new(path);
        std::fs::create_dir_all(&dir.0)?;
        Ok(dir)
    }

    /// The directory of the file at `path`, and the file's name in it.
    pub fn split(path: &Path) -> io::Result<(Self, String)> {
        let name = path.file_name().and_then(|name| name.to_str());
        let name = name.ok_or(ErrorKind::InvalidInput)?.to_string();
        Ok((OsDir::new(path.parent().unwrap_or(Path::new(""))), name))
    }
}

impl StoreDir for OsDir {
    fn open(&self, name: &str, create: bool) -> io::Result<Arc<dyn StoreFile>> {
        let mut options = OpenOptions::new();
        options
            .read(true)
            .write(true)
            .create(create)
            .truncate(false);
        Ok(Arc::new(OsFile(options.open(self.0.join(name))?)))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.0.join(from), self.0.join(to))
    }

    fn hard_link(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::hard_link(self.0.join(from), self.0.join(to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.0.join(name))
    }

    /// The rename-durability rule: a file's sync covers its contents, only
    /// the directory's covers its entries.
    fn sync(&self) -> io::Result<()> {
        match self.0.as_os_str().is_empty() {
            true => Ok(()),
            false => File::open(&self.0)?.sync_data(),
        }
    }
}

#[derive(Debug)]
struct OsFile(File);

impl StoreFile for OsFile {
    fn read_vectored_at(&self, bufs: &mut [IoSliceMut<'_>], offset: u64) -> io::Result<usize> {
        let mut file = &self.0;
        file.seek(SeekFrom::Start(offset))?;
        file.read_vectored(bufs)
    }

    #[cfg(unix)]
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(&self.0, buf, offset)
    }

    /// Portable stand-in: seek, then write (callers serialize their writes).
    #[cfg(not(unix))]
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let mut file = &self.0;
        file.seek(SeekFrom::Start(offset))?;
        io::Write::write_all(&mut file, buf)
    }

    /// `fdatasync`: it covers a size change, and nobody needs the mtime.
    fn sync(&self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

/// One failure a [`MemDir`] injects ([`MemDir::arm`]). `nth` counts the
/// matching operations that go through first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A write to the file named `name` lands its first `keep` bytes and
    /// fails.
    Write {
        /// The file, by its name when written.
        name: String,
        /// Matching writes that go through first.
        nth: u32,
        /// Bytes of the failing write that land.
        keep: usize,
    },
    /// A sync of the file named `name` fails and makes nothing durable.
    Sync {
        /// The file, by its name when synced.
        name: String,
        /// Matching syncs that go through first.
        nth: u32,
    },
    /// A directory sync fails and makes no entry change durable.
    DirSync {
        /// Directory syncs that go through first.
        nth: u32,
    },
}

/// A change to a file since its last sync.
enum Change {
    Write(usize, Vec<u8>),
    SetLen(usize),
}

impl Change {
    fn apply(&self, image: &mut Vec<u8>) {
        match self {
            Change::Write(at, bytes) => {
                let end = at + bytes.len();
                image.resize(image.len().max(end), 0);
                if let Some(dst) = image.get_mut(*at..end) {
                    dst.copy_from_slice(bytes);
                }
            }
            Change::SetLen(len) => image.resize(*len, 0),
        }
    }
}

/// An in-memory file: what reads see, what its last sync made durable, and
/// the changes in between, in order.
#[derive(Default)]
struct Inode {
    data: Vec<u8>,
    synced: Vec<u8>,
    unsynced: Vec<Change>,
}

impl Inode {
    fn change(&mut self, change: Change) {
        change.apply(&mut self.data);
        self.unsynced.push(change);
    }
}

/// What the armed fault may be waiting for.
enum Op {
    Write(usize),
    Sync(usize),
    DirSync,
}

/// The state of a [`MemDir`]. Files are never freed: one no name reaches
/// keeps its bytes until the directory drops.
#[derive(Default)]
struct MemFs {
    files: Vec<Inode>,
    names: BTreeMap<String, usize>,
    synced_names: BTreeMap<String, usize>,
    /// Power cuts so far; a handle of an earlier power cycle is dead.
    power: u64,
    fault: Option<Fault>,
    /// Bytes file syncs have made durable.
    synced_bytes: u64,
}

impl MemFs {
    /// Counts `op` against the armed fault; `Some(keep)` if `op` is the one
    /// that fails, which disarms it.
    fn trip(&mut self, op: Op) -> Option<usize> {
        let MemFs { names, fault, .. } = self;
        let named = |name: &str, file: usize| names.get(name) == Some(&file);
        let (nth, keep) = match (fault.as_mut()?, op) {
            (Fault::Write { name, nth, keep }, Op::Write(file)) if named(name, file) => {
                (nth, *keep)
            }
            (Fault::Sync { name, nth }, Op::Sync(file)) if named(name, file) => (nth, 0),
            (Fault::DirSync { nth }, Op::DirSync) => (nth, 0),
            _ => return None,
        };
        if let Some(fewer) = nth.checked_sub(1) {
            *nth = fewer;
            return None;
        }
        *fault = None;
        Some(keep)
    }

    fn inode(&mut self, file: usize) -> io::Result<&mut Inode> {
        self.files.get_mut(file).ok_or(ErrorKind::NotFound.into())
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected {what} failure"))
}

/// An in-memory directory with a power switch; see the module docs. A sync
/// makes durable what changed since the previous one and costs that many
/// bytes, not the file's size.
pub struct MemDir {
    fs: Arc<Mutex<MemFs>>,
}

impl Default for MemDir {
    fn default() -> Self {
        MemDir {
            fs: Arc::new(Mutex::new(MemFs::default())),
        }
    }
}

impl fmt::Debug for MemDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fs = self.fs.lock();
        let names: Vec<_> = fs.names.keys().collect();
        write!(f, "MemDir {{ names: {names:?}, power: {} }}", fs.power)
    }
}

impl MemDir {
    /// An empty directory.
    pub fn new() -> Self {
        MemDir::default()
    }

    /// A file of an empty directory, under no name: the page store of
    /// [`crate::FileBackend::new`].
    pub(crate) fn lone_file() -> Arc<dyn StoreFile> {
        let files = vec![Inode::default()];
        let fs = Arc::new(Mutex::new(MemFs {
            files,
            ..MemFs::default()
        }));
        Arc::new(MemFile {
            fs,
            file: 0,
            power: 0,
        })
    }

    /// Arms `fault`, replacing any armed one.
    pub fn arm(&self, fault: Fault) {
        self.fs.lock().fault = Some(fault);
    }

    /// The bytes of the file `name` as a killed process leaves them: every
    /// write, synced or not.
    pub fn read(&self, name: &str) -> Option<Vec<u8>> {
        let fs = self.fs.lock();
        let file = fs.files.get(*fs.names.get(name)?)?;
        Some(file.data.clone())
    }

    /// Cuts the power: the entries revert to the last directory sync, and
    /// every file to its last sync plus the first `keep` bytes written to it
    /// since — which is then what the medium holds. Handles opened before
    /// the cut fail from now on; the armed fault is disarmed.
    pub fn cut_power(&self, keep: usize) {
        let mut fs = self.fs.lock();
        fs.power += 1;
        fs.fault = None;
        fs.names = fs.synced_names.clone();
        for file in &mut fs.files {
            let mut budget = keep;
            for mut change in std::mem::take(&mut file.unsynced) {
                if budget == 0 {
                    break;
                }
                if let Change::Write(_, bytes) = &mut change {
                    bytes.truncate(budget);
                    budget -= bytes.len();
                }
                change.apply(&mut file.synced);
            }
            file.data.clone_from(&file.synced);
        }
    }
}

impl StoreDir for MemDir {
    fn open(&self, name: &str, create: bool) -> io::Result<Arc<dyn StoreFile>> {
        let mut fs = self.fs.lock();
        let file = match fs.names.get(name) {
            Some(&file) => file,
            None if create => {
                fs.files.push(Inode::default());
                let file = fs.files.len() - 1;
                fs.names.insert(name.to_string(), file);
                file
            }
            None => return Err(ErrorKind::NotFound.into()),
        };
        let (fs, power) = (Arc::clone(&self.fs), fs.power);
        Ok(Arc::new(MemFile { fs, file, power }))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut fs = self.fs.lock();
        let file = fs.names.remove(from).ok_or(ErrorKind::NotFound)?;
        fs.names.insert(to.to_string(), file);
        Ok(())
    }

    fn hard_link(&self, from: &str, to: &str) -> io::Result<()> {
        let mut fs = self.fs.lock();
        let file = *fs.names.get(from).ok_or(ErrorKind::NotFound)?;
        if fs.names.contains_key(to) {
            return Err(ErrorKind::AlreadyExists.into());
        }
        fs.names.insert(to.to_string(), file);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let removed = self.fs.lock().names.remove(name);
        removed.map(drop).ok_or(ErrorKind::NotFound.into())
    }

    fn sync(&self) -> io::Result<()> {
        let mut fs = self.fs.lock();
        if fs.trip(Op::DirSync).is_some() {
            return Err(injected("directory sync"));
        }
        fs.synced_names = fs.names.clone();
        Ok(())
    }
}

/// An open file of a [`MemDir`].
struct MemFile {
    fs: Arc<Mutex<MemFs>>,
    file: usize,
    /// The power cycle it was opened in.
    power: u64,
}

impl fmt::Debug for MemFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemFile {{ file: {}, power: {} }}",
            self.file, self.power
        )
    }
}

impl MemFile {
    /// Runs `op` on this file under the directory lock — so no power cut
    /// lands inside it — unless the power was cut since it was opened.
    fn with<T>(&self, op: impl FnOnce(&mut MemFs) -> io::Result<T>) -> io::Result<T> {
        let mut fs = self.fs.lock();
        if fs.power != self.power {
            return Err(io::Error::other(
                "the power was cut since this file was opened",
            ));
        }
        op(&mut fs)
    }
}

impl StoreFile for MemFile {
    fn read_vectored_at(&self, bufs: &mut [IoSliceMut<'_>], offset: u64) -> io::Result<usize> {
        self.with(|fs| {
            let data = &fs.inode(self.file)?.data;
            let mut from = data.get(index(offset)?..).unwrap_or_default();
            let mut read = 0;
            for buf in bufs {
                let (head, tail) = from.split_at(buf.len().min(from.len()));
                buf.get_mut(..head.len())
                    .unwrap_or_default()
                    .copy_from_slice(head);
                (from, read) = (tail, read + head.len());
            }
            Ok(read)
        })
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.with(|fs| {
            let keep = fs.trip(Op::Write(self.file));
            let bytes = buf.get(..keep.unwrap_or(buf.len())).unwrap_or(buf);
            let change = Change::Write(index(offset)?, bytes.to_vec());
            fs.inode(self.file)?.change(change);
            keep.map_or(Ok(()), |_| Err(injected("write")))
        })
    }

    fn sync(&self) -> io::Result<()> {
        self.with(|fs| {
            if fs.trip(Op::Sync(self.file)).is_some() {
                return Err(injected("sync"));
            }
            let inode = fs.inode(self.file)?;
            let mut bytes = 0;
            for change in inode.unsynced.drain(..) {
                change.apply(&mut inode.synced);
                if let Change::Write(_, written) = change {
                    bytes += written.len() as u64;
                }
            }
            fs.synced_bytes += bytes;
            Ok(())
        })
    }

    fn len(&self) -> io::Result<u64> {
        self.with(|fs| Ok(fs.inode(self.file)?.data.len() as u64))
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let change = Change::SetLen(index(len)?);
        self.with(|fs| {
            fs.inode(self.file)?.change(change);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sync_costs_what_changed_since_the_last_one() {
        let dir = MemDir::new();
        let file = dir.open("log", true).unwrap();
        file.write_all_at(&[7; 4096], 0).unwrap();
        file.sync().unwrap();
        file.write_all_at(&[8; 10], 100).unwrap();
        file.sync().unwrap();
        file.sync().unwrap();
        assert_eq!(dir.fs.lock().synced_bytes, 4096 + 10);
    }

    #[test]
    fn a_power_cut_keeps_what_was_synced_plus_a_torn_prefix() {
        let dir = MemDir::new();
        let file = dir.open("f", true).unwrap();
        file.write_all_at(b"synced", 0).unwrap();
        file.sync().unwrap();
        dir.sync().unwrap();
        file.write_all_at(b"ABCD", 6).unwrap();
        file.write_all_at(b"EFGH", 2).unwrap();
        assert_eq!(dir.read("f").unwrap(), b"syEFGHABCD", "a killed process");
        dir.cut_power(6); // all of the first write, half the second
        assert_eq!(dir.read("f").unwrap(), b"syEFedABCD");
        assert!(file.len().is_err(), "a handle of the dead process");
        dir.cut_power(0);
        assert_eq!(dir.read("f").unwrap(), b"syEFedABCD", "the tear is on disk");
        // An entry whose directory sync never came reverts too.
        dir.rename("f", "g").unwrap();
        dir.cut_power(0);
        assert_eq!((dir.read("f").is_some(), dir.read("g")), (true, None));
    }

    #[test]
    fn an_armed_fault_fails_the_nth_matching_operation() {
        let dir = MemDir::new();
        let (other, file) = (dir.open("o", true).unwrap(), dir.open("f", true).unwrap());
        dir.arm(Fault::Write {
            name: "f".into(),
            nth: 1,
            keep: 2,
        });
        other.write_all_at(b"xxxx", 0).unwrap();
        file.write_all_at(b"abcd", 0).unwrap();
        assert!(file.write_all_at(b"WXYZ", 0).is_err());
        file.write_all_at(b"!", 4).unwrap();
        assert_eq!(dir.read("f").unwrap(), b"WXcd!");
        let sync = Fault::Sync {
            name: "f".into(),
            nth: 0,
        };
        for fault in [sync, Fault::DirSync { nth: 0 }] {
            dir.arm(fault);
            assert!(file.sync().and_then(|()| dir.sync()).is_err());
            file.sync().and_then(|()| dir.sync()).unwrap();
        }
        dir.cut_power(0);
        assert_eq!(dir.read("f").unwrap(), b"WXcd!");
    }
}
