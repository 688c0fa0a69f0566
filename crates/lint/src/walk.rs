//! Workspace file discovery and path classification.
//!
//! The linter walks a root directory (by default the workspace root),
//! collects every `.rs` file, and classifies each by its path *relative to
//! the scanned root*. Test-adjacent code — integration tests, benches,
//! examples — is exempt from the library-code rules; crate roots get the
//! hygiene rule. Classifying relative paths (not absolute ones) is what lets
//! the self-test fixtures under `crates/lint/tests/fixtures/` be linted as if
//! they were a real workspace.

use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// A discovered source file with its root-relative path.
pub struct SourceFile {
    /// Path relative to the scanned root, `/`-separated.
    pub rel: String,
    /// Absolute path on disk.
    pub abs: PathBuf,
}

/// Recursively collects `.rs` files under `root`, sorted by relative path for
/// deterministic output.
pub fn collect_rust_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    collect_into(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn collect_into(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.iter().any(|d| *d == name) || name.starts_with('.') {
                continue;
            }
            collect_into(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix: {e}"))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile { rel, abs: path });
        }
    }
    Ok(())
}

/// True when the root-relative path is test-adjacent code (integration tests,
/// benches, examples, fixtures) that the library-code rules skip. The
/// stand-alone `e2e/` benchmark package is a bench harness end to end, and
/// `stubs/` holds the offline stand-ins for the test and bench harnesses.
pub fn is_test_code(rel: &str) -> bool {
    rel.starts_with("e2e/")
        || rel.starts_with("stubs/")
        || rel
            .split('/')
            .any(|part| matches!(part, "tests" | "benches" | "examples" | "fixtures"))
}

/// True when the root-relative path is a crate root (`src/lib.rs` of the
/// umbrella package or of any workspace crate) subject to the hygiene rule.
pub fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    matches!(parts.as_slice(), ["crates", _, "src", "lib.rs"])
}
