//! The sync shim: the one import path for every atomic and lock in the
//! engine's model-checked layers.
//!
//! Production builds re-export `std::sync::atomic` and `parking_lot`
//! unchanged — the shim is zero-cost and the compiled artifact is
//! bit-for-bit the code that shipped before it existed. Under
//! `cfg(aib_model)` (set via `RUSTFLAGS` by the `aib-model` test harness)
//! the same names resolve to the instrumented model runtime, whose
//! scheduler enumerates interleavings and whose memory model tracks
//! happens-before — so any protocol written against this module is
//! model-checkable by construction.
//!
//! `aib-lint`'s `sync-shim` rule enforces the "one import path" part:
//! raw `std::sync::atomic` / `parking_lot` imports outside the shim
//! modules and the model runtime are findings, and no file is excused.
//!
//! `Ordering` is always `std::sync::atomic::Ordering`, so ordering
//! arguments mean the same thing in both worlds.

#[cfg(not(aib_model))]
pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
#[cfg(not(aib_model))]
pub use std::sync::atomic::{fence, AtomicU64, AtomicUsize};

#[cfg(aib_model)]
pub use aib_model::sync::{
    fence, AtomicU64, AtomicUsize, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

pub use std::sync::atomic::Ordering;
