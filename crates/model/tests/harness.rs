//! Drives the model-checked protocol suite (`tests/protocols.rs`) from a
//! normal `cargo test` run by re-invoking cargo with `--cfg aib_model` set,
//! which swaps `aib_core::sync` / `aib_storage::sync` from std +
//! `parking_lot` onto the instrumented `aib_model` runtime.
//!
//! Two halves, mirroring the ISSUE acceptance criteria:
//!
//! * `clean_protocols_pass` — the real protocol code explores with **zero**
//!   violations.
//! * `seeded_bugs_all_detected` — every deliberately wrong variant in the
//!   corpus (`--cfg model_seeded_bug="..."`) makes at least one protocol
//!   test fail with a replayable `aib-model violation` report.
//!
//! Each variant builds into its own `target/aib-model/<variant>` directory
//! so rebuilds are incremental and concurrent harness tests never contend
//! on a build lock.
#![cfg(not(aib_model))]

use std::path::PathBuf;
use std::process::{Command, Output};

/// The seeded-bug corpus. Keep in lockstep with the
/// `cfg(model_seeded_bug, values(...))` tables in the `aib-model`,
/// `aib-storage` and `aib-core` manifests and the DESIGN §7 table.
const SEEDED_BUGS: &[&str] = &[
    "missing_sentinel",
    "stale_snapshot_cache",
    "missing_drain",
    "drain_load_store",
    "budget_release_lost",
    "wal_unlocked_log",
    "commit_ack_before_fsync",
    "checkpoint_cut_before_drain",
    "checkpoint_cut_after_unlock",
];

fn workspace_root() -> PathBuf {
    // crates/model -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("manifest dir has a workspace root")
        .to_path_buf()
}

/// Runs `cargo test -p aib-model --test protocols` with `--cfg aib_model`
/// (plus one seeded bug, when given) and returns the raw output.
fn run_model_suite(seeded: Option<&str>) -> Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut rustflags = String::from("--cfg aib_model");
    if let Some(bug) = seeded {
        rustflags.push_str(&format!(" --cfg model_seeded_bug=\"{bug}\""));
    }
    let variant = seeded.unwrap_or("clean");
    Command::new(cargo)
        .args(["test", "-p", "aib-model", "--test", "protocols"])
        .current_dir(workspace_root())
        .env("RUSTFLAGS", rustflags)
        .env(
            "CARGO_TARGET_DIR",
            workspace_root()
                .join("target")
                .join("aib-model")
                .join(variant),
        )
        // The inner build needs no debuginfo; this roughly halves its cost.
        .env("CARGO_PROFILE_DEV_DEBUG", "0")
        // A schedule pinned in the caller's environment must not leak into
        // exploration runs.
        .env_remove("AIB_MODEL_SCHEDULE")
        .output()
        .expect("spawn inner cargo")
}

fn render(out: &Output) -> String {
    format!(
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// The real protocols must survive exhaustive bounded exploration.
#[test]
fn clean_protocols_pass() {
    let out = run_model_suite(None);
    let text = render(&out);
    assert!(
        out.status.success(),
        "model suite reported violations on the real protocol code:\n{text}"
    );
    assert!(
        text.contains("test result: ok"),
        "inner cargo produced no test run:\n{text}"
    );
}

/// Every seeded bug must be caught, and each report must carry the
/// replayable-schedule markers so a developer can pin the interleaving.
#[test]
fn seeded_bugs_all_detected() {
    let mut missed = Vec::new();
    for &bug in SEEDED_BUGS {
        let out = run_model_suite(Some(bug));
        let text = render(&out);
        let detected = !out.status.success()
            && text.contains("aib-model violation")
            && text.contains("AIB_MODEL_SCHEDULE");
        if !detected {
            missed.push(format!(
                "seeded bug `{bug}` was not detected \
                 (status {:?}):\n{text}\n---",
                out.status.code()
            ));
        }
    }
    assert!(
        missed.is_empty(),
        "{} of {} seeded bugs escaped the model checker:\n{}",
        missed.len(),
        SEEDED_BUGS.len(),
        missed.join("\n")
    );
}
