//! The rule families.
//!
//! Each rule walks the stripped text of one file (comments, strings, and
//! `#[cfg(test)]` items already blanked — see [`crate::lexer`]) and emits
//! [`Violation`]s. Rules map one-to-one onto the paper invariants the
//! compiler cannot check:
//!
//! | rule id              | invariant                                                        |
//! |----------------------|------------------------------------------------------------------|
//! | `counter-confinement`| `C[p]` mutates only via Table I / Algorithm 1 / displacement (§III) |
//! | `no-panic`           | library code returns errors instead of panicking                 |
//! | `no-index`           | no panicking slice/array indexing in library code                |
//! | `atomics-order`      | `Ordering::Relaxed` only on allowlisted telemetry counters       |
//! | `sync-shim`          | atomics and locks come from the `aib_core::sync` / `aib_storage::sync` shim (so `--cfg aib_model` builds can interpose the model runtime), never raw `std::sync::atomic` / `parking_lot` |
//! | `lock-order`         | hierarchy `catalog → space → pool`: catalog outermost, BufferPool innermost; the WAL mutex a leaf below all three (the checkpointer takes catalog → WAL, never the reverse), the commit-queue mutex a leaf below that; and the pool's `disk` mutex is never held across a sync — a backend's flush and fsync run off it |
//! | `crate-hygiene`      | crate roots forbid unsafe code and deny missing docs             |
//! | `database-result`    | every `&mut self` `pub fn` on `Database` returns `Result<_, EngineError>` |
//! | `durable-io`         | in `wal.rs` / `file_backend.rs` / `fsio.rs` / `commit.rs`, every raw file-I/O result is converted to `StorageError` in the same statement — never unwrapped, never discarded; and `sync_data` is *called* only in `wal.rs` / `file_backend.rs` / `fsio.rs` (the commit pipeline goes through the `Wal` batch API) |
//!
//! (`no-index`, `database-result`, and `durable-io` are sub-rules of the
//! panic-freedom and hygiene families, split out so the `allow(...)` escape
//! hatch can target them individually.)

use crate::lexer::Stripped;
use crate::walk::{is_crate_root, is_test_code};

/// One finding: file, 1-based line, rule id, human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Root-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (usable in `aib-lint: allow(<rule>)`).
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
}

/// The only modules allowed to mutate `PageCounters` (`counters.rs` itself,
/// plus the Table I maintenance matrix, Algorithm 1's indexing scan, and the
/// Algorithm 2 displacement pipeline).
const COUNTER_MUTATION_SITES: &[&str] = &[
    "crates/core/src/counters.rs",
    "crates/core/src/maintenance.rs",
    "crates/core/src/scan.rs",
    "crates/core/src/space.rs",
];

/// Mutating `PageCounters` API surface. `ensure_page` is deliberately absent:
/// growing the tracked range is a registration concern, not a Table I
/// transition, and the engine needs it when the heap allocates pages.
const COUNTER_MUTATORS: &[&str] = &[
    ".increment(",
    ".decrement(",
    ".set_zero(",
    ".restore(",
    ".from_counts(",
    "PageCounters::from_counts",
];

/// `Ordering::Relaxed` allowlist: `(path suffix, required line substring)`.
/// An empty substring allows every occurrence in the file. Everything here is
/// monotonic telemetry or mutex-protected state — never an ordering that
/// guards a reserve/charge decision (see `crates/storage/src/budget.rs` for
/// the written audit).
const RELAXED_ALLOWLIST: &[(&str, &str)] = &[
    // I/O accounting: monotonic counters read only for reporting.
    ("crates/storage/src/stats.rs", ""),
    // Budget telemetry: denial/displacement tallies do not synchronize the
    // CAS loop that admits reservations; that loop is Acquire/AcqRel.
    ("crates/storage/src/budget.rs", "denials"),
    ("crates/storage/src/budget.rs", "displacements"),
    // Pin counts: every increment happens under the pool's state mutex,
    // which already orders them; the lock-free decrement is Release and the
    // evictor's read is Acquire, so the pair that matters is not Relaxed.
    (
        "crates/storage/src/buffer_pool.rs",
        "pins[frame].fetch_add(1, Ordering::Relaxed)",
    ),
    // Query sequence numbers: the counter only needs uniqueness across
    // client threads; every read is for reporting, and nothing is published
    // or consumed through it.
    ("crates/engine/src/db.rs", "queries_executed"),
];

/// Lints one stripped file. `rel` is the root-relative path.
pub fn lint_file(rel: &str, stripped: &Stripped) -> Vec<Violation> {
    let mut out = Vec::new();
    if is_crate_root(rel) {
        crate_hygiene(rel, stripped, &mut out);
    }
    if is_test_code(rel) {
        return out;
    }
    counter_confinement(rel, stripped, &mut out);
    no_panic(rel, stripped, &mut out);
    no_index(rel, stripped, &mut out);
    atomics_order(rel, stripped, &mut out);
    sync_shim(rel, stripped, &mut out);
    lock_order(rel, stripped, &mut out);
    database_result(rel, stripped, &mut out);
    durable_io(rel, stripped, &mut out);
    out
}

fn push(
    out: &mut Vec<Violation>,
    stripped: &Stripped,
    rel: &str,
    line_idx: usize,
    rule: &'static str,
    message: String,
) {
    if !stripped.is_allowed(line_idx, rule) {
        out.push(Violation {
            file: rel.to_string(),
            line: line_idx + 1,
            rule,
            message,
        });
    }
}

// ---------------------------------------------------------------------------
// Rule 1: counter-mutation confinement
// ---------------------------------------------------------------------------

fn counter_confinement(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    if COUNTER_MUTATION_SITES.contains(&rel) {
        return;
    }
    for (idx, line) in stripped.text.lines().enumerate() {
        for token in COUNTER_MUTATORS {
            if line.contains(token) {
                push(
                    out,
                    stripped,
                    rel,
                    idx,
                    "counter-confinement",
                    format!(
                        "`{}` mutates PageCounters outside the Table I / Algorithm 1 / \
                         displacement sites (aib-core maintenance, scan, space)",
                        token.trim_matches(|c| c == '.' || c == '(')
                    ),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2a: no panicking calls in library code
// ---------------------------------------------------------------------------

fn no_panic(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    const PANICS: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    for (idx, line) in stripped.text.lines().enumerate() {
        for token in PANICS {
            let Some(pos) = line.find(token) else {
                continue;
            };
            // Word-boundary check for the macro tokens: `catch_panic!` or
            // `my_unreachable!` must not match.
            if !token.starts_with('.') {
                let boundary_ok = pos == 0
                    || line
                        .get(..pos)
                        .and_then(|s| s.chars().next_back())
                        .is_none_or(|p| !(p.is_alphanumeric() || p == '_'));
                if !boundary_ok {
                    continue;
                }
            }
            push(
                out,
                stripped,
                rel,
                idx,
                "no-panic",
                format!("`{token}` in library code; return an error instead"),
            );
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2b: no panicking slice/array indexing in library code
// ---------------------------------------------------------------------------

fn no_index(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    for (idx, line) in stripped.text.lines().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut reported = false;
        for (col, &c) in chars.iter().enumerate() {
            if reported {
                break;
            }
            if c != '[' {
                continue;
            }
            // Indexing expression: `[` directly follows an identifier tail,
            // `)`, or `]`. (`#[`, `![`, `vec![`, types and array literals all
            // have a different preceding character and fall through.)
            let prev = chars
                .get(..col)
                .and_then(|s| s.iter().rev().find(|ch| !ch.is_whitespace()))
                .copied()
                .unwrap_or('\0');
            if !(prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']') {
                continue;
            }
            // `for x in [a, b]`, `match [..]` etc.: a keyword before `[`
            // introduces an array literal operand, not an indexing expression.
            if prev.is_alphanumeric() || prev == '_' {
                let mut end = col;
                while end > 0 && chars.get(end - 1).is_some_and(|ch| ch.is_whitespace()) {
                    end -= 1;
                }
                let mut start = end;
                while start > 0
                    && chars
                        .get(start - 1)
                        .is_some_and(|ch| ch.is_alphanumeric() || *ch == '_')
                {
                    start -= 1;
                }
                let word: String = chars
                    .get(start..end)
                    .map(|s| s.iter().collect())
                    .unwrap_or_default();
                const KEYWORDS: &[&str] = &[
                    "in", "if", "else", "match", "return", "while", "mut", "ref", "move", "as",
                    "let", "break", "loop", "yield",
                ];
                if KEYWORDS.iter().any(|k| *k == word) {
                    continue;
                }
                // `&'a [u8]`, `&'static [T]`: a lifetime before `[` names a
                // slice type, not an indexing base.
                if start > 0 && chars.get(start - 1).copied() == Some('\'') {
                    continue;
                }
            }
            // Full-range slicing `[..]` cannot panic; skip it.
            let mut j = col + 1;
            let mut content = String::new();
            let mut depth = 1usize;
            while let Some(&ch) = chars.get(j) {
                if ch == '[' {
                    depth += 1;
                } else if ch == ']' {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                content.push(ch);
                j += 1;
            }
            if content.trim() == ".." {
                continue;
            }
            push(
                out,
                stripped,
                rel,
                idx,
                "no-index",
                format!(
                    "panicking index `[{}]` in library code; use `.get(..)` or prove \
                     bounds and add an allow",
                    content.trim()
                ),
            );
            reported = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2c: durable-storage modules convert raw I/O errors to StorageError
// ---------------------------------------------------------------------------

/// Modules on the durability path: the write-ahead log, the file backend,
/// the file-system primitives they share, and the group-commit pipeline.
/// Matched by suffix so the fixture workspace can seed violations under its
/// own crate layout.
const DURABLE_IO_MODULES: &[&str] = &["wal.rs", "file_backend.rs", "fsio.rs", "commit.rs"];

/// The only modules allowed to *issue* a file fsync (`sync_data`). The
/// commit pipeline and engine stage through the `Wal` batch API instead, so
/// every fsync on the durability path is counted (`Wal::syncs`) and ordered
/// by the WAL's framing — an uncounted side-channel fsync would silently
/// skew the group-commit amortization the bench reports and could reorder
/// around the WAL-before-data contract.
const FSYNC_SITES: &[&str] = &["wal.rs", "file_backend.rs", "fsio.rs"];

/// Raw file-I/O calls whose `io::Result` must be mapped to [`StorageError`]
/// before it leaves the statement.
const DURABLE_IO_CALLS: &[&str] = &[
    ".write_all(",
    "write_all_at(",
    ".read_exact(",
    ".read_vectored(",
    ".read_to_end(",
    ".sync_data()",
    ".sync_all()",
    ".set_len(",
    ".seek(",
    ".metadata()",
    "std::fs::read(",
    "std::fs::rename(",
    "std::fs::hard_link(",
    "std::fs::remove_file(",
    "File::open(",
    "File::create(",
    "OpenOptions::new()",
];

/// The no-panic family already bans `.unwrap()` everywhere; this sub-rule adds
/// the durable-storage-specific half of the invariant: a raw `io::Result` in
/// `wal.rs` or `file_backend.rs` must be *converted* to `StorageError` in the
/// same statement (`.map_err(|e| StorageError::io(..))` or a `match` whose
/// error arms produce one) — never silently discarded with `let _ =` or
/// `.ok()`, because a swallowed fsync error breaks the WAL-before-data
/// contract without any test noticing.
fn durable_io(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    fsync_confinement(rel, stripped, out);
    if !DURABLE_IO_MODULES.iter().any(|m| rel.ends_with(m)) {
        return;
    }
    let text = &stripped.text;
    for token in DURABLE_IO_CALLS {
        let mut from = 0usize;
        while let Some(rel_pos) = text.get(from..).and_then(|s| s.find(token)) {
            let pos = from + rel_pos;
            from = pos + token.len();
            // A definition of the helper, not a call of it.
            if text
                .get(..pos)
                .is_some_and(|before| before.ends_with("fn "))
            {
                continue;
            }
            // The statement: from the call to its terminating `;` (bounded,
            // so a missing semicolon cannot borrow a later statement's
            // conversion). Multi-line builder chains stay in one statement,
            // which is exactly where the idiom puts the `map_err`.
            let window = text.get(pos..).unwrap_or("");
            let end = window.find(';').map_or(window.len().min(400), |s| s + 1);
            let stmt = window.get(..end).unwrap_or("");
            if stmt.contains("StorageError") || stmt.contains("map_err") {
                continue;
            }
            let line_idx = text.get(..pos).unwrap_or("").matches('\n').count();
            push(
                out,
                stripped,
                rel,
                line_idx,
                "durable-io",
                format!(
                    "`{}` result not converted to StorageError in this statement; \
                     durable-storage modules must map every I/O error (never \
                     discard it)",
                    token.trim_matches(|c: char| c == '.' || c == '(' || c == ')')
                ),
            );
        }
    }
}

/// The fsync-confinement half of the `durable-io` family: a `sync_data`
/// call anywhere outside [`FSYNC_SITES`] is a violation, whatever it does
/// with the result.
fn fsync_confinement(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    if FSYNC_SITES.iter().any(|m| rel.ends_with(m)) {
        return;
    }
    let text = &stripped.text;
    let mut from = 0usize;
    while let Some(rel_pos) = text.get(from..).and_then(|s| s.find(".sync_data(")) {
        let pos = from + rel_pos;
        from = pos + ".sync_data(".len();
        let line_idx = text.get(..pos).unwrap_or("").matches('\n').count();
        push(
            out,
            stripped,
            rel,
            line_idx,
            "durable-io",
            "`sync_data` outside the WAL/file-backend modules; route durable \
             writes through the `Wal` batch API so every fsync is counted \
             and ordered by the commit pipeline"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 3: atomics-ordering audit
// ---------------------------------------------------------------------------

fn atomics_order(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    for (idx, line) in stripped.text.lines().enumerate() {
        if !line.contains("Ordering::Relaxed") {
            continue;
        }
        let allowlisted = RELAXED_ALLOWLIST
            .iter()
            .any(|(suffix, needle)| rel.ends_with(suffix) && line.contains(needle));
        if allowlisted {
            continue;
        }
        push(
            out,
            stripped,
            rel,
            idx,
            "atomics-order",
            "`Ordering::Relaxed` outside the telemetry allowlist; use \
             Acquire/Release/AcqRel or add the site to the audit"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 3b: synchronization primitives come from the sync shim
// ---------------------------------------------------------------------------

/// Files definitionally outside the shim discipline:
/// - the shim modules themselves (any `src/sync.rs`), which hold the one
///   cfg-switched raw import per workspace;
/// - the `aib-model` crate, whose instrumented runtime is *implemented on*
///   `std::sync` and must not route through itself.
///
/// `crates/storage/src/buffer_pool.rs` is deliberately **not** here: its
/// `parking_lot` usage (Arc-based frame-latch guards the shim cannot
/// express) is excused with an `allow-file(sync-shim)` directive carrying
/// the justification, so `--stale-allows` keeps it honest.
const SYNC_SHIM_EXEMPT_SUFFIXES: &[&str] = &["src/sync.rs"];
const SYNC_SHIM_EXEMPT_PREFIXES: &[&str] = &["crates/model/"];

/// Raw synchronization paths that bypass the shim. Matching the path (not
/// just the type name) keeps shimmed code clean: `use crate::sync::AtomicU64`
/// mentions none of these.
const SYNC_RAW_PATHS: &[&str] = &[
    "std::sync::atomic",
    "parking_lot::",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::Condvar",
    "std::sync::Barrier",
    // A raw channel is a lock + condvar the model checker cannot see; a
    // queue must be a shimmed `Mutex<VecDeque>` so its push/drain edges are
    // part of the explored schedule.
    "std::sync::mpsc",
];

/// Every atomic and lock in library code must come through the
/// `aib_storage::sync` / `aib_core::sync` shim, so that `--cfg aib_model`
/// builds transparently swap std + `parking_lot` for the `aib-model`
/// runtime. A raw path is invisible to the model checker: its loads and
/// stores happen outside the explored schedule, silently weakening every
/// model test that touches the file.
fn sync_shim(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    if SYNC_SHIM_EXEMPT_SUFFIXES.iter().any(|s| rel.ends_with(s))
        || SYNC_SHIM_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p))
    {
        return;
    }
    for (idx, line) in stripped.text.lines().enumerate() {
        for token in SYNC_RAW_PATHS {
            if line.contains(token) {
                push(
                    out,
                    stripped,
                    rel,
                    idx,
                    "sync-shim",
                    format!(
                        "raw `{token}` bypasses the sync shim; import atomics and \
                         locks from `crate::sync` (aib_core/aib_storage) so \
                         `--cfg aib_model` builds can interpose the model runtime"
                    ),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: lock-order discipline
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Catalog,
    /// The Index Buffer Space lock (`SharedSpace::read` / `write`).
    Space,
    Pool,
    /// The WAL mutex (`wal`): a leaf below the three tiers. Commits wait on
    /// it with no engine lock held and the checkpointer takes it after the
    /// catalog lock (catalog → WAL), so a thread holding it must never wait
    /// on a tiered lock. Only the queue mutex nests inside it.
    Wal,
    /// A queue-class leaf mutex: the group-commit queue (`queue`). It sits
    /// *below* every tier — it is taken with the catalog lock already held
    /// and must never be held across another acquisition.
    Queue,
}

fn lock_order(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    for body in function_bodies(&stripped.text) {
        disk_held_across_sync(rel, stripped, body.clone(), out);
        let mut space_seen: Option<usize> = None;
        let mut pool_seen: Option<usize> = None;
        let mut queue_seen: Option<usize> = None;
        let mut wal_seen: Option<usize> = None;
        for (line_idx, kind) in lock_acquisitions(&stripped.text, body.clone()) {
            if let Some(wal_line) = wal_seen {
                if !matches!(kind, LockKind::Wal | LockKind::Queue) {
                    push(
                        out,
                        stripped,
                        rel,
                        line_idx,
                        "lock-order",
                        format!(
                            "tiered lock acquired after the WAL mutex (at line {}); the                              order is catalog → WAL — the checkpointer cuts under the                              catalog lock and rotates under the WAL mutex alone",
                            wal_line + 1
                        ),
                    );
                }
            }
            // Queue-class mutexes are leaves of the whole hierarchy:
            // acquiring *any* tiered lock after one in the same body risks
            // a deadlock against the staging path, which enters the queue
            // with the catalog write lock already held.
            if let Some(queue_line) = queue_seen {
                if !matches!(kind, LockKind::Queue) {
                    push(
                        out,
                        stripped,
                        rel,
                        line_idx,
                        "lock-order",
                        format!(
                            "tiered lock acquired after a queue-class leaf mutex (queue \
                             lock at line {}); commit queue mutexes are \
                             leaves below catalog → space → pool and must be \
                             released before any other acquisition",
                            queue_line + 1
                        ),
                    );
                }
            }
            match kind {
                LockKind::Queue => {
                    queue_seen.get_or_insert(line_idx);
                }
                LockKind::Wal => {
                    wal_seen.get_or_insert(line_idx);
                }
                LockKind::Catalog => {
                    // The catalog is the engine's outermost lock: a reader
                    // or writer that already holds the space or a pool lock
                    // must never wait on it, or a query holding the catalog
                    // and wanting the space deadlocks against it.
                    let inner = match (space_seen, pool_seen) {
                        (Some(s), Some(p)) if p < s => Some((p, "BufferPool")),
                        (Some(s), _) => Some((s, "space")),
                        (None, Some(p)) => Some((p, "BufferPool")),
                        (None, None) => None,
                    };
                    if let Some((inner_line, inner_name)) = inner {
                        push(
                            out,
                            stripped,
                            rel,
                            line_idx,
                            "lock-order",
                            format!(
                                "Catalog lock acquired after {inner_name} lock (at line \
                                 {}); the catalog is the outermost lock and must come \
                                 first",
                                inner_line + 1
                            ),
                        );
                    }
                }
                LockKind::Space => {
                    space_seen.get_or_insert(line_idx);
                    // The pool is the innermost tier: a thread holding a
                    // frame latch must never wait on the space, or a scan
                    // holding the space and pinning pages deadlocks against
                    // it.
                    if let Some(pool_line) = pool_seen {
                        push(
                            out,
                            stripped,
                            rel,
                            line_idx,
                            "lock-order",
                            format!(
                                "space lock acquired after BufferPool lock (pool \
                                 lock at line {}); the pool is the innermost lock in \
                                 catalog → space → pool",
                                pool_line + 1
                            ),
                        );
                    }
                }
                LockKind::Pool => {
                    pool_seen.get_or_insert(line_idx);
                }
            }
        }
    }
}

/// Calls that flush or fsync a backend: what must not run under `disk`.
const SYNC_CALLS: &[&str] = &[".sync(", ".write_out(", ".sync_data(", ".sync_all("];

/// The pool's `disk` mutex serializes page reads and writes; a sync under it
/// stalls every miss and eviction for the length of a flush and an fsync.
/// Flags a `disk.lock()` guard — a temporary chained straight into a sync
/// call, or a `let`-bound one with a sync call later in the body.
fn disk_held_across_sync(
    rel: &str,
    stripped: &Stripped,
    range: std::ops::Range<usize>,
    out: &mut Vec<Violation>,
) {
    let text = &stripped.text;
    let body = text.get(range.clone()).unwrap_or("");
    let mut from = 0usize;
    while let Some(rel_pos) = body.get(from..).and_then(|s| s.find("disk.lock()")) {
        let pos = from + rel_pos;
        from = pos + "disk.lock()".len();
        let after = body.get(from..).unwrap_or("");
        let chained = SYNC_CALLS.iter().any(|call| after.starts_with(call));
        let bound = after.trim_start().starts_with(';')
            && SYNC_CALLS.iter().any(|call| after.contains(call));
        if chained || bound {
            let line_idx = text
                .get(..range.start + pos)
                .unwrap_or("")
                .matches('\n')
                .count();
            push(
                out,
                stripped,
                rel,
                line_idx,
                "lock-order",
                "`disk` mutex held across a sync; freeze under it, write out and \
                 fsync off it (`DiskBackend::freeze` / `FlushJob::write_out` / `thaw`)"
                    .to_string(),
            );
        }
    }
}

/// Byte ranges of every `fn` body in the stripped text.
fn function_bodies(text: &str) -> Vec<std::ops::Range<usize>> {
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let mut bodies = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars.get(i).map(|&(_, ch)| ch).unwrap_or('\0');
        // Match the keyword `fn` on word boundaries.
        if c == 'f'
            && matches!(chars.get(i + 1), Some((_, 'n')))
            && chars
                .get(i + 2)
                .is_none_or(|&(_, nx)| !(nx.is_alphanumeric() || nx == '_'))
            && (i == 0
                || chars
                    .get(i - 1)
                    .is_none_or(|&(_, pv)| !(pv.is_alphanumeric() || pv == '_')))
        {
            // Scan forward for the body `{`; a `;` at depth 0 means a trait
            // method declaration with no body.
            let mut j = i + 2;
            let mut paren = 0i64;
            let mut body_start: Option<usize> = None;
            while let Some(&(p, ch)) = chars.get(j) {
                match ch {
                    '(' | '<' => paren += 1,
                    ')' | '>' => paren -= 1,
                    '{' if paren <= 0 => {
                        body_start = Some(p);
                        break;
                    }
                    ';' if paren <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(start) = body_start {
                // Brace-match to find the end.
                let mut depth = 0i64;
                let mut end = text.len();
                let mut k = j;
                while let Some(&(p, ch)) = chars.get(k) {
                    if ch == '{' {
                        depth += 1;
                    } else if ch == '}' {
                        depth -= 1;
                        if depth == 0 {
                            end = p;
                            break;
                        }
                    }
                    k += 1;
                }
                bodies.push(start..end);
            }
            i = j.max(i + 2);
        } else {
            i += 1;
        }
    }
    bodies
}

/// Lock acquisitions inside `range` — guard methods (`.lock()` / `.read()` /
/// `.write()` with no arguments) — in source order, classified by walking
/// back over the receiver chain (`self.space.write()` is the space lock).
fn lock_acquisitions(text: &str, range: std::ops::Range<usize>) -> Vec<(usize, LockKind)> {
    let body = text.get(range.clone()).unwrap_or("");
    let base_line = text.get(..range.start).unwrap_or("").matches('\n').count();
    let mut found = Vec::new();
    for method in [".lock()", ".read()", ".write()"] {
        let mut from = 0usize;
        while let Some(rel_pos) = body.get(from..).and_then(|s| s.find(method)) {
            let pos = from + rel_pos;
            // Receiver chain: walk back over identifier chars, dots, and
            // subscript brackets (`self.frames[2]`).
            let recv: String = body
                .get(..pos)
                .unwrap_or("")
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | '[' | ']'))
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            let lower = recv.to_lowercase();
            let kind = if lower.contains("queue") {
                Some(LockKind::Queue)
            } else if lower.contains("wal") {
                Some(LockKind::Wal)
            } else if lower.contains("catalog") {
                Some(LockKind::Catalog)
            } else if lower.contains("pool") || lower.contains("frame") {
                Some(LockKind::Pool)
            } else if lower.contains("space") {
                Some(LockKind::Space)
            } else {
                None
            };
            if let Some(kind) = kind {
                let line = base_line + body.get(..pos).unwrap_or("").matches('\n').count();
                found.push((pos, line, kind));
            }
            from = pos + method.len();
        }
    }
    found.sort_by_key(|&(pos, _, _)| pos);
    found
        .into_iter()
        .map(|(_, line, kind)| (line, kind))
        .collect()
}

// ---------------------------------------------------------------------------
// Rule 5a: crate hygiene
// ---------------------------------------------------------------------------

fn crate_hygiene(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    if !stripped.text.contains("#![forbid(unsafe_code)]") {
        push(
            out,
            stripped,
            rel,
            0,
            "crate-hygiene",
            "crate root must carry `#![forbid(unsafe_code)]`".to_string(),
        );
    }
    if !stripped.text.contains("#![deny(missing_docs)]") {
        push(
            out,
            stripped,
            rel,
            0,
            "crate-hygiene",
            "crate root must carry `#![deny(missing_docs)]` (or an allow-file \
             directive with justification)"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 5b: every state-mutating `pub fn` on `Database` returns
// `Result<_, EngineError>`.
//
// Scope: methods taking `&mut self`. Constructors (no receiver) and `&self`
// inspection accessors are exempt by design — they cannot fail and have no
// engine error to report; forcing `Result` there would only add `.unwrap()`s
// at call sites, the opposite of what the panic-freedom family wants.
// ---------------------------------------------------------------------------

fn database_result(rel: &str, stripped: &Stripped, out: &mut Vec<Violation>) {
    let text = &stripped.text;
    let mut from = 0usize;
    while let Some(rel_pos) = text.get(from..).and_then(|s| s.find("impl Database")) {
        let pos = from + rel_pos;
        from = pos + "impl Database".len();
        // Must be the inherent impl: next non-whitespace char is `{`.
        let after = text.get(from..).unwrap_or("");
        if !after.trim_start().starts_with('{') {
            continue;
        }
        // Brace-match the impl block.
        let chars: Vec<(usize, char)> = text.char_indices().filter(|&(p, _)| p >= from).collect();
        let mut depth = 0i64;
        let mut end = text.len();
        for &(p, ch) in &chars {
            if ch == '{' {
                depth += 1;
            } else if ch == '}' {
                depth -= 1;
                if depth == 0 {
                    end = p;
                    break;
                }
            }
        }
        let body = text.get(from..end).unwrap_or("");
        let body_base = from;
        let mut scan = 0usize;
        while let Some(fn_rel) = body.get(scan..).and_then(|s| s.find("pub fn ")) {
            let fn_pos = scan + fn_rel;
            scan = fn_pos + "pub fn ".len();
            let line_idx = text
                .get(..body_base + fn_pos)
                .unwrap_or("")
                .matches('\n')
                .count();
            // Signature: from `pub fn` to the body `{` (or `;`), skipping the
            // parameter parens.
            let sig_area = body.get(fn_pos..).unwrap_or("");
            let mut paren = 0i64;
            let mut sig_end = sig_area.len();
            for (p, ch) in sig_area.char_indices() {
                match ch {
                    '(' => paren += 1,
                    ')' => paren -= 1,
                    '{' | ';' if paren == 0 && p > 0 => {
                        sig_end = p;
                        break;
                    }
                    _ => {}
                }
            }
            let sig = sig_area.get(..sig_end).unwrap_or("");
            if !sig.contains("&mut self") {
                continue;
            }
            let returns_engine_result = sig.contains("EngineResult")
                || (sig.contains("Result<") && sig.contains("EngineError"));
            if !returns_engine_result {
                push(
                    out,
                    stripped,
                    rel,
                    line_idx,
                    "database-result",
                    "state-mutating `pub fn` on Database must return \
                     `EngineResult<_>` (Result<_, EngineError>)"
                        .to_string(),
                );
            }
        }
    }
}
