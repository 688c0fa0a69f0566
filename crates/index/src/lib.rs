//! Index substrate for the Adaptive Index Buffer reproduction.
//!
//! Provides the structures the paper assumes as given:
//!
//! * [`btree::BPlusTree`] — a from-scratch B+-tree (the "B\*-Tree" the
//!   paper builds on), with range scans and structural invariant checking.
//! * [`secondary`] — [`secondary::BTreeIndex`], the `(value, rid)` multi-map
//!   on that tree which partial indexes and buffer partitions store into.
//! * [`coverage`] / [`partial`] — partial secondary indexes over value
//!   coverage predicates (paper §II), including adaptation operations with
//!   simulated I/O cost (paper §I's "index adaptation is not for free").

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod cost;
pub mod coverage;
pub mod key;
pub mod partial;
pub mod secondary;

pub use btree::BPlusTree;
pub use cost::AdaptationCost;
pub use coverage::Coverage;
pub use key::EntryKey;
pub use partial::PartialIndex;
pub use secondary::{BTreeIndex, IndexBackend};
