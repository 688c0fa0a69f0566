//! `aib-model` — a zero-dependency, loom-style deterministic schedule
//! explorer for the engine's lock-free protocols.
//!
//! The hot read path is lock-free (epoch-stamped snapshots validated
//! against the Release-published space epoch); stress tests
//! exercise that protocol but cannot *enumerate* its interleavings. This
//! crate can, within bounds: a model is a closure spawning
//! [`thread`]-module threads that exercise [`sync`]-module primitives, and
//! [`Model::check`] runs it under every thread interleaving a
//! bounded-preemption DFS reaches, tracking happens-before from
//! Acquire/Release edges so stale reads, lost updates, and deadlocks
//! surface as violations with a replayable schedule trace.
//!
//! The production crates reach these primitives through the sync shim
//! (`aib_core::sync`): plain `std`/`parking_lot` in normal builds, this
//! crate's instrumented runtime under `cfg(aib_model)`. The model harness
//! (`tests/harness.rs`) drives the `cfg(aib_model)` builds, including a
//! seeded-bug corpus (`cfg(model_seeded_bug = "...")`) of deliberately
//! wrong protocol variants the checker must catch.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use aib_model::{sync::{AtomicU64, Ordering}, thread, Model};
//!
//! Model::new("counter").check(|| {
//!     let n = Arc::new(AtomicU64::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = thread::spawn(move || {
//!         n2.fetch_add(1, Ordering::AcqRel);
//!     });
//!     n.fetch_add(1, Ordering::AcqRel);
//!     t.join();
//!     assert_eq!(n.load(Ordering::Acquire), 2);
//! });
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod runtime;

pub mod protocols;
pub mod sync;
pub mod thread;

pub use runtime::{Model, Report, Violation, MAX_THREADS};
