//! # Adaptive Index Buffer
//!
//! A from-scratch Rust reproduction of *"Adaptive Index Buffer"* (Voigt,
//! Jaekel, Kissinger, Lehner — IEEE ICDE Workshops 2012, DOI
//! 10.1109/ICDEW.2012.39).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`storage`] — slotted pages, simulated disk, buffer pool, heap files.
//! * [`index`] — B+-tree, partial secondary indexes.
//! * [`core`] — the paper's contribution: the Adaptive Index Buffer.
//! * [`engine`] — a mini database engine wiring it all together, plus the
//!   online partial-index tuner the buffer is designed to back up.
//! * [`workload`] — data and query generators for the paper's evaluation.
//! * [`sim`] — stand-alone simulations for the motivating figures.
//!
//! See `README.md` for a quickstart and `DESIGN.md` / `EXPERIMENTS.md` for
//! the reproduction methodology.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use aib_core as core;
pub use aib_engine as engine;
pub use aib_index as index;
pub use aib_sim as sim;
pub use aib_storage as storage;
pub use aib_workload as workload;
