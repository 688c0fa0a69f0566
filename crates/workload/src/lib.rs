//! Data and query workload generators for the paper's evaluation (§V).
//!
//! * [`datagen::TableSpec`] — the evaluation table (500 k tuples, three
//!   uniform INTEGER columns, VARCHAR payload), with deterministic seeding
//!   and proportional down-scaling for tests.
//! * [`distribution::KeyDist`] — uniform / hot-set key distributions.
//! * [`mix::QueryMix`] — weighted multi-phase column mixes (experiments 3/4).
//! * [`experiments`] — the exact query streams of experiments 1–4 and of
//!   Fig. 1's control-loop delay.
//! * [`clustering`] — Fig. 3: the share of fully indexed pages as the
//!   correlation between physical and logical order decays — the reason
//!   partial indexes alone almost never allow page skipping.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod clustering;
pub mod datagen;
pub mod distribution;
pub mod experiments;
pub mod mix;

pub use datagen::TableSpec;
pub use distribution::KeyDist;
pub use experiments::{
    exp4_ranges, experiment1_queries, experiment3_queries, experiment4_queries, fig1_queried_range,
    fig1_queries, QuerySpec, FIG1_HIGH, FIG1_LOW, FIG1_QUERIES, FIG1_SHIFT, PAPER_QUERIES,
    SWITCH_AT,
};
pub use mix::{Phase, QueryMix};
