//! The two directories of the file seam behave alike.
//!
//! One scripted sequence of file and directory operations runs on a
//! temporary directory of the real file system and on an in-memory one.
//! Every outcome — the bytes a read returns, a length, the kind of an error —
//! goes into a transcript, and the two transcripts must be equal. The script
//! covers what the page store and the log rely on: a short read at the end
//! of a file, `set_len` growth reading back zeroes, a rename over an
//! existing name, the recycled rotation's hard link and renames, and
//! removing one name of a linked file.

use std::io::{self, IoSliceMut};
use std::path::PathBuf;
use std::sync::Arc;

use aib_storage::{MemDir, OsDir, StoreDir, StoreFile};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("aib-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The outcomes of a script, one line each.
#[derive(Default)]
struct Transcript(Vec<String>);

impl Transcript {
    /// Records `outcome` under `step`, errors by kind only: the two
    /// directories word their messages differently.
    fn note<T: std::fmt::Debug>(&mut self, step: &str, outcome: io::Result<T>) -> Option<T> {
        match outcome {
            Ok(value) => {
                self.0.push(format!("{step}: {value:?}"));
                Some(value)
            }
            Err(e) => {
                self.0.push(format!("{step}: error {:?}", e.kind()));
                None
            }
        }
    }

    /// Records an open, which must succeed, and returns the handle.
    fn open(&mut self, step: &str, dir: &dyn StoreDir, name: &str) -> Arc<dyn StoreFile> {
        let file = dir.open(name, true).unwrap();
        self.0.push(format!("{step}: opened"));
        file
    }
}

/// `len` bytes from `offset`, read as two buffers of one vectored read, cut
/// to what the read returned.
fn read(file: &dyn StoreFile, offset: u64, len: usize) -> io::Result<Vec<u8>> {
    let mut head = vec![0xAA; len / 2];
    let mut tail = vec![0xAA; len - len / 2];
    let got = file.read_vectored_at(
        &mut [IoSliceMut::new(&mut head), IoSliceMut::new(&mut tail)],
        offset,
    )?;
    head.extend(tail);
    head.truncate(got);
    Ok(head)
}

/// The whole file named `name`, or why it cannot be opened.
fn contents(dir: &dyn StoreDir, name: &str) -> io::Result<Vec<u8>> {
    let file = dir.open(name, false)?;
    read(&*file, 0, file.len()? as usize)
}

fn script(dir: &dyn StoreDir) -> Vec<String> {
    let mut t = Transcript::default();
    t.note("open absent", dir.open("a", false).map(drop));
    let a = t.open("create", dir, "a");
    t.note("write", a.write_all_at(b"hello", 0));
    t.note("sync", a.sync());
    t.note("len", a.len());

    // A short read at the end of the file, and reads past it.
    t.note("read across the end", read(&*a, 2, 8));
    t.note("read at the end", read(&*a, 5, 8));
    t.note("read past the end", read(&*a, 100, 8));
    // A write past the end leaves a hole of zeroes.
    t.note("write past the end", a.write_all_at(b"!", 7));
    t.note("hole", read(&*a, 0, 16));

    // `set_len` growth reads back zeroes; shrinking cuts.
    t.note("grow", a.set_len(3 * 4096));
    t.note("grown len", a.len());
    t.note(
        "grown tail is zero",
        read(&*a, 8, 3 * 4096 - 8).map(|tail| tail.iter().all(|&b| b == 0)),
    );
    t.note("shrink", a.set_len(3));
    t.note("shrunk", contents(dir, "a"));

    // A rename over an existing name replaces it; the handle follows the
    // file, not the name.
    let b = t.open("create b", dir, "b");
    t.note("write b", b.write_all_at(b"bbb", 0));
    t.note("rename over b", dir.rename("a", "b"));
    t.note("b after rename", contents(dir, "b"));
    t.note("a after rename", contents(dir, "a"));
    t.note("write through a's handle", a.write_all_at(b"H", 0));
    t.note("b sees it", contents(dir, "b"));
    t.note("rename absent", dir.rename("a", "c"));

    // The recycled rotation: link the live log to `.old`, rename the staged
    // one over it, park the retired log as the next staging file.
    let log = t.open("create log", dir, "log");
    t.note("write log", log.write_all_at(b"old log", 0));
    t.note("sync log", log.sync());
    t.note("link", dir.hard_link("log", "log.old"));
    t.note("link onto a taken name", dir.hard_link("log", "b"));
    let staged = t.open("stage", dir, "log.new");
    t.note("write stage", staged.write_all_at(b"new log", 0));
    t.note("sync stage", staged.sync());
    t.note("install", dir.rename("log.new", "log"));
    t.note("park", dir.rename("log.old", "log.new"));
    t.note("dir sync", dir.sync());
    t.note("log", contents(dir, "log"));
    t.note("log.new", contents(dir, "log.new"));
    t.note("log.old", contents(dir, "log.old"));
    t.note("retired handle", read(&*log, 0, 7));

    // Removing one name of a linked file leaves the other.
    t.note("second name", dir.hard_link("log", "alias"));
    t.note("remove it", dir.remove("alias"));
    t.note("log after", contents(dir, "log"));
    t.note("alias after", contents(dir, "alias"));
    t.note("remove again", dir.remove("alias"));
    t.note("dir sync again", dir.sync());
    t.0
}

#[test]
fn both_directories_run_the_script_alike() {
    let tmp = TempDir::new("script");
    let os = script(&OsDir::new(&tmp.0));
    let memory = script(&MemDir::new());
    for (o, m) in os.iter().zip(&memory) {
        assert_eq!(o, m);
    }
    assert_eq!(os.len(), memory.len());
    // And the outcomes are the documented ones, not a shared mistake.
    for expected in [
        "open absent: error NotFound",
        "read across the end: [108, 108, 111]",
        "read at the end: []",
        "read past the end: []",
        "hole: [104, 101, 108, 108, 111, 0, 0, 33]",
        "grown len: 12288",
        "grown tail is zero: true",
        "shrunk: [104, 101, 108]",
        "b after rename: [104, 101, 108]",
        "a after rename: error NotFound",
        "b sees it: [72, 101, 108]",
        "link onto a taken name: error AlreadyExists",
        "log: [110, 101, 119, 32, 108, 111, 103]",
        "log.new: [111, 108, 100, 32, 108, 111, 103]",
        "log.old: error NotFound",
        "log after: [110, 101, 119, 32, 108, 111, 103]",
        "remove again: error NotFound",
    ] {
        assert!(memory.iter().any(|line| line == expected), "{expected}");
    }
}
