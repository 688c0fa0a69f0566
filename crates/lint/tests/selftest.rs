//! Lint self-test: every rule family must fire on the seeded fixture
//! workspace and stay silent on the real workspace.
//!
//! Two layers:
//! 1. library-level (`lint_source`): one assertion per rule family against
//!    inline snippets, including the allow / allow-file escape hatches;
//! 2. binary-level (`CARGO_BIN_EXE_aib-lint`): the shipped binary exits
//!    non-zero on `tests/fixtures/` and zero on the repaired workspace.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use aib_lint::{audit_root, audit_source, lint_root, lint_source, Violation};

fn rules_of(violations: &[Violation]) -> BTreeSet<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

fn lint_lib(source: &str) -> Vec<Violation> {
    // A path that is library code but not a crate root and not a counter
    // mutation site.
    lint_source("crates/fixture/src/lib.rs", source)
}

#[test]
fn counter_confinement_fires_outside_core() {
    let v = lint_lib("fn f(c: &mut PageCounters) { c.increment(3); }\n");
    assert!(rules_of(&v).contains("counter-confinement"), "{v:?}");
    // The same call inside a designated mutation site is fine.
    let v = lint_source(
        "crates/core/src/maintenance.rs",
        "fn f(c: &mut PageCounters) { c.increment(3); }\n",
    );
    assert!(!rules_of(&v).contains("counter-confinement"), "{v:?}");
}

#[test]
fn no_panic_fires_on_each_macro_and_method() {
    for snippet in [
        "fn f(x: Option<u32>) { x.unwrap(); }\n",
        "fn f(x: Option<u32>) { x.expect(\"boom\"); }\n",
        "fn f() { panic!(\"boom\"); }\n",
        "fn f() { unreachable!(); }\n",
        "fn f() { todo!(); }\n",
        "fn f() { unimplemented!(); }\n",
    ] {
        let v = lint_lib(snippet);
        assert!(rules_of(&v).contains("no-panic"), "{snippet}: {v:?}");
    }
    // Identifiers that merely end in a macro name must not match.
    let v = lint_lib("fn f() { my_unreachable!(); }\n");
    assert!(!rules_of(&v).contains("no-panic"), "{v:?}");
}

#[test]
fn no_index_fires_on_slice_indexing_only() {
    let v = lint_lib("fn f(x: &[u32]) -> u32 { x[0] }\n");
    assert!(rules_of(&v).contains("no-index"), "{v:?}");
    // Attributes, array literals, and full-range slices are not indexing.
    for snippet in [
        "#[derive(Debug)]\nstruct S;\n",
        "fn f() -> [u32; 2] { [1, 2] }\n",
        "fn f(x: &[u32]) -> &[u32] { &x[..] }\n",
        "fn f() { for v in [1, 2] { let _ = v; } }\n",
        "fn f<'a>(x: &'a [u32]) -> &'a [u32] { x }\n",
        "struct S<'a> { raw: &'a [u8] }\n",
        "fn f(x: &'static [u32]) -> usize { x.len() }\n",
    ] {
        let v = lint_lib(snippet);
        assert!(!rules_of(&v).contains("no-index"), "{snippet}: {v:?}");
    }
}

#[test]
fn atomics_order_fires_off_allowlist() {
    let src = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
    let v = lint_lib(src);
    assert!(rules_of(&v).contains("atomics-order"), "{v:?}");
    // Allowlisted file + substring passes (I/O stats are whole-file).
    let v = lint_source("crates/storage/src/stats.rs", src);
    assert!(!rules_of(&v).contains("atomics-order"), "{v:?}");
}

#[test]
fn sync_shim_fires_on_raw_paths_outside_shim() {
    for bad in [
        "use std::sync::atomic::{AtomicU64, Ordering};\n",
        "use parking_lot::RwLock;\n",
        "use std::sync::Mutex;\n",
        "fn f() { std::sync::atomic::fence(Ordering::SeqCst); }\n",
        // A raw channel hides a queue's push/drain edges from the model
        // runtime; queues must be a shimmed Mutex<VecDeque>.
        "use std::sync::mpsc::channel;\n",
        "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); let _ = (tx, rx); }\n",
    ] {
        let v = lint_lib(bad);
        assert!(rules_of(&v).contains("sync-shim"), "{bad}: {v:?}");
    }
    // The shim modules themselves and the model runtime are exempt: they
    // are the places the raw primitives are imported on purpose.
    for rel in [
        "crates/storage/src/sync.rs",
        "crates/core/src/sync.rs",
        "crates/model/src/runtime.rs",
    ] {
        let v = lint_source(rel, "use std::sync::atomic::AtomicU64;\n");
        assert!(!rules_of(&v).contains("sync-shim"), "{rel}: {v:?}");
    }
    // Shimmed imports mention no raw path and stay clean.
    let v = lint_lib("use crate::sync::{AtomicU64, Ordering, RwLock};\n");
    assert!(!rules_of(&v).contains("sync-shim"), "{v:?}");
}

#[test]
fn stale_allow_reported_only_when_directive_is_dead() {
    // A directive that suppresses a finding is not stale.
    let (v, stale) = audit_source(
        "crates/fixture/src/other.rs",
        "// aib-lint: allow(no-panic) — justified\nfn f(x: Option<u32>) { x.unwrap(); }\n",
    );
    assert!(!rules_of(&v).contains("no-panic"), "{v:?}");
    assert!(stale.is_empty(), "{stale:?}");
    // The same directive above clean code is stale.
    let (v, stale) = audit_source(
        "crates/fixture/src/other.rs",
        "// aib-lint: allow(no-panic) — nothing here\nfn f() -> u32 { 7 }\n",
    );
    assert!(v.is_empty(), "{v:?}");
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert_eq!(
        stale.first().map(|s| (s.line, s.rule.as_str())),
        Some((1, "no-panic"))
    );
    // An exercised allow-file is not stale; one for the wrong rule is.
    let (_, stale) = audit_source(
        "crates/fixture/src/other.rs",
        "// aib-lint: allow-file(no-index) — justified\nfn f(x: &[u32]) -> u32 { x[0] }\n",
    );
    assert!(stale.is_empty(), "{stale:?}");
    let (_, stale) = audit_source(
        "crates/fixture/src/other.rs",
        "// aib-lint: allow-file(no-panic) — wrong rule\nfn f(x: &[u32]) -> u32 { x[0] }\n",
    );
    assert_eq!(stale.len(), 1, "{stale:?}");
}

#[test]
fn doc_comments_quoting_directive_syntax_are_not_directives() {
    // Prose documentation of the escape hatch must neither suppress nor be
    // audited as stale.
    let (v, stale) = audit_source(
        "crates/fixture/src/other.rs",
        "//! Suppress with `// aib-lint: allow(no-panic)` on the line.\n\
         fn f(x: Option<u32>) { x.unwrap(); }\n",
    );
    assert!(rules_of(&v).contains("no-panic"), "{v:?}");
    assert!(stale.is_empty(), "{stale:?}");
}

#[test]
fn lock_order_fires_on_pool_before_space() {
    // The pool is the innermost tier of catalog → space → pool: taking the
    // space lock after a pool lock is the violation.
    for bad in [
        "fn f(&self) { let p = self.pool.lock(); let s = self.space.lock(); }\n",
        "fn f(&self) { let p = self.pool.lock(); let g = self.space.write(); }\n",
        "fn f(&self) { let p = self.frames[2].lock(); let g = self.db.space.read(); }\n",
    ] {
        let v = lint_lib(bad);
        assert!(rules_of(&v).contains("lock-order"), "{bad}: {v:?}");
    }
    for good in [
        "fn f(&self) { let s = self.space.lock(); let p = self.pool.lock(); }\n",
        "fn f(&self) { let g = self.space.write(); let p = self.pool.lock(); }\n",
        // Order is per-function: separate bodies never interleave.
        "fn a(&self) { let p = self.pool.lock(); }\nfn b(&self) { let s = self.space.lock(); }\n",
    ] {
        let v = lint_lib(good);
        assert!(!rules_of(&v).contains("lock-order"), "{good}: {v:?}");
    }
}

#[test]
fn lock_order_fires_on_tiered_lock_after_queue_leaf() {
    // The group-commit `queue` mutex is a leaf of the whole hierarchy:
    // stagers enter it with the catalog write lock already held, so holding
    // it while acquiring any tiered lock is an inversion.
    for bad in [
        "fn f(&self) { let q = self.queue.lock(); let g = self.space.write(); }\n",
        "fn f(&self) { let q = self.queue.lock(); let c = self.catalog.read(); }\n",
        "fn f(&self) { let q = self.queue.lock(); let p = self.pool.lock(); }\n",
    ] {
        let v = lint_lib(bad);
        assert!(rules_of(&v).contains("lock-order"), "{bad}: {v:?}");
    }
    for good in [
        // The staging shape: queue taken with the catalog lock already held.
        "fn f(&self) { let c = self.catalog.write(); let q = self.queue.lock(); }\n",
        // The group-commit leader: wal (untiered) then the commit queue.
        "fn f(&self) { let w = self.wal.lock(); let q = self.queue.lock(); }\n",
        // Per-function scoping holds here too.
        "fn a(&self) { let q = self.queue.lock(); }\nfn b(&self) { let s = self.space.read(); }\n",
    ] {
        let v = lint_lib(good);
        assert!(!rules_of(&v).contains("lock-order"), "{good}: {v:?}");
    }
}

#[test]
fn lock_order_puts_the_wal_mutex_below_the_tiers_and_above_the_queue() {
    // The checkpointer's order is catalog → WAL; rotating needs the WAL
    // mutex alone. Anything tiered *after* it inverts that.
    for bad in [
        "fn f(&self) { let w = self.wal.lock(); let c = self.catalog.write(); }\n",
        "fn f(&self) { let w = pipeline.wal.lock(); let s = self.space.write(); }\n",
        "fn f(&self) { let w = self.wal.lock(); let p = self.pool.lock(); }\n",
        "fn f(&self) { let q = self.queue.lock(); let w = self.wal.lock(); }\n",
    ] {
        let v = lint_lib(bad);
        assert!(rules_of(&v).contains("lock-order"), "{bad}: {v:?}");
    }
    for good in [
        "fn f(&self) { let c = self.catalog.write(); let w = self.wal.lock(); }\n",
        "fn f(&self) { let w = self.wal.lock(); let q = self.queue.lock(); }\n",
        "fn f(&self) { let w = self.wal.lock(); let again = self.wal.lock(); }\n",
        "fn a(&self) { let w = self.wal.lock(); }\nfn b(&self) { let c = self.catalog.write(); }\n",
    ] {
        let v = lint_lib(good);
        assert!(!rules_of(&v).contains("lock-order"), "{good}: {v:?}");
    }
}

#[test]
fn lock_order_keeps_syncs_off_the_disk_mutex() {
    for bad in [
        "fn sync(&self) -> R { self.disk.lock().sync() }\n",
        "fn sync(&self) -> R { let job = self.freeze()?; self.pool.disk.lock().write_out() }\n",
        "fn sync(&self) -> R { let mut disk = self.disk.lock(); disk.write(p, b)?; disk.sync() }\n",
        "fn sync(&self) -> R { let disk = self.disk.lock(); job.write_out() }\n",
    ] {
        let v = lint_lib(bad);
        assert!(rules_of(&v).contains("lock-order"), "{bad}: {v:?}");
    }
    for good in [
        "fn sync(&self) -> R { let job = self.disk.lock().freeze(&d)?; let r = job.write_out(); self.disk.lock().thaw(r) }\n",
        "fn grow(&self) -> R { let mut disk = self.disk.lock(); disk.allocate() }\n",
        "fn a(&self) { let disk = self.disk.lock(); }\nfn b(&self) -> R { job.write_out() }\n",
    ] {
        let v = lint_lib(good);
        assert!(!rules_of(&v).contains("lock-order"), "{good}: {v:?}");
    }
}

#[test]
fn lock_order_fires_on_catalog_after_space_or_pool() {
    // The catalog is the outermost lock of the engine hierarchy: acquiring
    // it after the space or the pool in one body is a deadlock recipe.
    for bad in [
        "fn f(&self) { let s = self.space.write(); let c = self.catalog.read(); }\n",
        "fn f(&self) { let p = self.pool.lock(); let c = self.catalog.write(); }\n",
        "fn f(&self) { let s = self.space.read(); let p = self.pool.lock(); let c = self.catalog.read(); }\n",
    ] {
        let v = lint_lib(bad);
        assert!(rules_of(&v).contains("lock-order"), "{bad}: {v:?}");
    }
    // Catalog-first (the engine's real shape) is clean, as is catalog-only.
    for good in [
        "fn f(&self) { let c = self.catalog.write(); let s = self.space.write(); }\n",
        "fn f(&self) { let c = self.catalog.read(); let p = self.pool.lock(); }\n",
        "fn f(&self) { let c = self.catalog.read(); }\n",
        // Per-function scoping holds for the catalog arm too.
        "fn a(&self) { let s = self.space.write(); }\nfn b(&self) { let c = self.catalog.read(); }\n",
    ] {
        let v = lint_lib(good);
        assert!(!rules_of(&v).contains("lock-order"), "{good}: {v:?}");
    }
}

#[test]
fn crate_hygiene_fires_on_bare_crate_root() {
    let v = lint_source("crates/fixture/src/lib.rs", "pub fn f() {}\n");
    let hygiene = v.iter().filter(|v| v.rule == "crate-hygiene").count();
    assert_eq!(
        hygiene, 2,
        "missing forbid(unsafe_code) AND deny(missing_docs): {v:?}"
    );
    let v = lint_source(
        "crates/fixture/src/lib.rs",
        "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n",
    );
    assert!(!rules_of(&v).contains("crate-hygiene"), "{v:?}");
    // Non-root files are exempt.
    let v = lint_source("crates/fixture/src/other.rs", "pub fn f() {}\n");
    assert!(!rules_of(&v).contains("crate-hygiene"), "{v:?}");
}

#[test]
fn database_result_fires_on_mut_self_without_engine_result() {
    let bad = "impl Database {\n    pub fn mutate(&mut self) -> usize { 0 }\n}\n";
    let v = lint_lib(bad);
    assert!(rules_of(&v).contains("database-result"), "{v:?}");
    for good in [
        // EngineResult alias.
        "impl Database {\n    pub fn mutate(&mut self) -> EngineResult<usize> { Ok(0) }\n}\n",
        // Spelled-out Result form.
        "impl Database {\n    pub fn mutate(&mut self) -> Result<usize, EngineError> { Ok(0) }\n}\n",
        // `&self` accessors and constructors are exempt by design.
        "impl Database {\n    pub fn peek(&self) -> usize { 0 }\n    pub fn new() -> Self { Database }\n}\n",
    ] {
        let v = lint_lib(good);
        assert!(!rules_of(&v).contains("database-result"), "{good}: {v:?}");
    }
}

#[test]
fn durable_io_fires_only_in_durable_modules() {
    let bad = "fn f(file: &mut File) { let _ = file.sync_data(); }\n";
    for module in [
        "crates/storage/src/wal.rs",
        "crates/storage/src/file_backend.rs",
    ] {
        let v = lint_source(module, bad);
        assert!(rules_of(&v).contains("durable-io"), "{module}: {v:?}");
    }
    // A discarded result that is not an fsync, outside the durability
    // path, is not this family's business (no-panic/no-index still apply
    // there as usual).
    let v = lint_lib("fn f(file: &mut File) { let _ = file.set_len(0); }\n");
    assert!(!rules_of(&v).contains("durable-io"), "{v:?}");
    // The idiom — mapping to StorageError in the same (multi-line)
    // statement — is clean, as is a match whose error arm converts.
    for good in [
        "fn f(file: &dyn StoreFile) -> Result<(), StorageError> {\n    file\n        \
         .sync()\n        .map_err(|e| StorageError::io(\"fsync\", e))\n}\n",
        "fn f(p: &Path) -> Result<Vec<u8>, StorageError> {\n    match std::fs::read(p) {\n        \
         Ok(raw) => Ok(raw),\n        Err(e) => Err(StorageError::io(\"read\", e)),\n    }\n}\n",
    ] {
        let v = lint_source("crates/storage/src/wal.rs", good);
        assert!(!rules_of(&v).contains("durable-io"), "{good}: {v:?}");
    }
}

#[test]
fn durable_io_confines_fsync_to_the_store() {
    // A correctly mapped `sync_data` is a violation anywhere outside the
    // file seam — the log and the page store included: they sync through a
    // `StoreFile`, the commit pipeline through the `Wal` batch API.
    let mapped = "fn f(file: &File) -> Result<(), StorageError> {\n    file.sync_data()\n        \
         .map_err(|e| StorageError::io(\"fsync\", e))\n}\n";
    for module in [
        "crates/engine/src/commit.rs",
        "crates/fixture/src/lib.rs",
        "crates/engine/src/db.rs",
        "crates/storage/src/wal.rs",
        "crates/storage/src/file_backend.rs",
    ] {
        let v = lint_source(module, mapped);
        assert!(rules_of(&v).contains("durable-io"), "{module}: {v:?}");
    }
    // The seam itself issues the fsync and hands its `io::Result` up.
    for seam in [
        mapped,
        "fn sync(&self) -> io::Result<()> {\n    self.0.sync_data()\n}\n",
    ] {
        let v = lint_source("crates/storage/src/store.rs", seam);
        assert!(!rules_of(&v).contains("durable-io"), "{seam}: {v:?}");
    }
    // In the log and the page store a call of the seam is raw I/O like any
    // other: discarded, it is flagged; the helper's own definition is not a
    // call.
    for bad in [
        "fn f(file: &dyn StoreFile, b: &[u8]) { let _ = file.write_all_at(b, 0); }\n",
        "fn f(file: &dyn StoreFile) { let _ = file.sync(); }\n",
        "fn f(dir: &dyn StoreDir) { let _ = dir.rename(\"a\", \"b\"); }\n",
        "fn f(dir: &dyn StoreDir) -> bool { dir.hard_link(\"a\", \"b\").is_ok() }\n",
    ] {
        let v = lint_source("crates/storage/src/wal.rs", bad);
        assert!(rules_of(&v).contains("durable-io"), "{bad}: {v:?}");
    }
    let v = lint_source(
        "crates/storage/src/wal.rs",
        "fn write_all_at(file: &File, buf: &[u8], offset: u64) -> u64 { offset }\n",
    );
    assert!(!rules_of(&v).contains("durable-io"), "{v:?}");
}

#[test]
fn allow_covers_own_and_next_line_only() {
    let v = lint_lib(
        "// aib-lint: allow(no-panic) — justified\nfn f(x: Option<u32>) { x.unwrap(); }\n",
    );
    assert!(!rules_of(&v).contains("no-panic"), "{v:?}");
    // Two lines below the directive is NOT covered.
    let v = lint_lib(
        "// aib-lint: allow(no-panic) — justified\n\nfn f(x: Option<u32>) { x.unwrap(); }\n",
    );
    assert!(rules_of(&v).contains("no-panic"), "{v:?}");
    // A directive for one rule does not excuse another.
    let v = lint_lib(
        "// aib-lint: allow(no-index) — wrong rule\nfn f(x: Option<u32>) { x.unwrap(); }\n",
    );
    assert!(rules_of(&v).contains("no-panic"), "{v:?}");
}

#[test]
fn allow_file_covers_whole_file() {
    let v = lint_lib(
        "// aib-lint: allow-file(no-panic) — justified\n\n\nfn f(x: Option<u32>) { x.unwrap(); }\n",
    );
    assert!(!rules_of(&v).contains("no-panic"), "{v:?}");
}

#[test]
fn test_code_is_exempt_from_library_rules() {
    let src = "fn f(x: Option<u32>) { x.unwrap(); }\n";
    for rel in [
        "crates/fixture/tests/it.rs",
        "crates/fixture/benches/b.rs",
        "crates/fixture/examples/e.rs",
    ] {
        let v = lint_source(rel, src);
        assert!(v.is_empty(), "{rel}: {v:?}");
    }
    // Inline #[cfg(test)] modules are blanked too (non-root path so the
    // hygiene rule stays out of the picture).
    let v = lint_source(
        "crates/fixture/src/other.rs",
        "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) { x.unwrap(); }\n}\n",
    );
    assert!(v.is_empty(), "{v:?}");
}

// ---------------------------------------------------------------------------
// Fixture workspace + binary integration
// ---------------------------------------------------------------------------

fn fixtures_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every rule family fires at least once on the seeded fixture workspace.
#[test]
fn fixture_workspace_trips_every_rule_family() {
    let violations = lint_root(&fixtures_dir()).expect("fixtures lint cleanly");
    let rules = rules_of(&violations);
    for family in [
        "counter-confinement",
        "no-panic",
        "no-index",
        "atomics-order",
        "sync-shim",
        "lock-order",
        "crate-hygiene",
        "database-result",
        "durable-io",
    ] {
        assert!(
            rules.contains(family),
            "fixture must trip {family}: {violations:?}"
        );
    }
    // The allow-directive fixture file stays silent.
    assert!(
        violations.iter().all(|v| !v.file.ends_with("allowed.rs")),
        "allowed.rs must be fully suppressed: {violations:?}"
    );
}

/// The stale-allow audit: the seeded dead directive in `stale.rs` is
/// reported, while every directive in `allowed.rs` earns its keep.
#[test]
fn fixture_stale_allow_reported() {
    let (_, stale) = audit_root(&fixtures_dir()).expect("fixtures audit cleanly");
    assert!(
        stale
            .iter()
            .any(|s| s.file.ends_with("stale.rs") && s.rule == "no-panic"),
        "stale.rs directive must be reported: {stale:?}"
    );
    assert!(
        stale.iter().all(|s| !s.file.ends_with("allowed.rs")),
        "allowed.rs directives are all exercised: {stale:?}"
    );
}

/// The repaired workspace is clean — the whole point of this PR.
#[test]
fn real_workspace_is_clean() {
    let violations = lint_root(&workspace_root()).expect("workspace lints cleanly");
    assert!(
        violations.is_empty(),
        "workspace must be lint-clean: {violations:?}"
    );
}

/// The shipped binary exits non-zero on the fixtures and reports each family.
#[test]
fn binary_flags_fixtures_and_passes_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_aib-lint"))
        .arg(fixtures_dir())
        .output()
        .expect("run aib-lint on fixtures");
    assert!(!out.status.success(), "fixtures must fail the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for family in [
        "counter-confinement",
        "no-panic",
        "no-index",
        "atomics-order",
        "sync-shim",
        "lock-order",
        "crate-hygiene",
        "database-result",
        "durable-io",
    ] {
        assert!(
            stdout.contains(family),
            "binary output missing {family}:\n{stdout}"
        );
    }

    let out = Command::new(env!("CARGO_BIN_EXE_aib-lint"))
        .arg(workspace_root())
        .output()
        .expect("run aib-lint on workspace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "workspace must pass the lint:\n{stdout}"
    );
}

/// `--stale-allows` mode: flags the dead fixture directive, passes the
/// repaired workspace (whose every directive suppresses something).
#[test]
fn binary_stale_allows_mode() {
    let out = Command::new(env!("CARGO_BIN_EXE_aib-lint"))
        .arg("--stale-allows")
        .arg(fixtures_dir())
        .output()
        .expect("run aib-lint --stale-allows on fixtures");
    assert!(!out.status.success(), "fixtures carry a stale allow");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("[stale-allow]") && stdout.contains("stale.rs"),
        "stale directive must be reported:\n{stdout}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_aib-lint"))
        .arg("--stale-allows")
        .arg(workspace_root())
        .output()
        .expect("run aib-lint --stale-allows on workspace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "workspace must pass --stale-allows:\n{stdout}"
    );
}
