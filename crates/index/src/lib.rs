//! Index substrate for the Adaptive Index Buffer reproduction.
//!
//! Provides the structures the paper assumes as given:
//!
//! * [`secondary`] — [`secondary::BTreeIndex`], the `(value, rid)` multi-map
//!   on the standard library's `BTreeSet` (the "B\*-Tree" the paper builds
//!   on) which partial indexes and buffer partitions store into.
//! * [`key`] — the packed form entries take from the page that stages them
//!   to the tree.
//! * [`coverage`] / [`partial`] — partial secondary indexes over value
//!   coverage predicates (paper §II), including adaptation operations with
//!   simulated I/O cost (paper §I's "index adaptation is not for free").

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod coverage;
pub mod key;
pub mod partial;
pub mod secondary;

pub use cost::AdaptationCost;
pub use coverage::{CompiledCoverage, Coverage};
pub use key::{PackedEntries, Repeats};
pub use partial::PartialIndex;
pub use secondary::{BTreeIndex, IndexBackend};
