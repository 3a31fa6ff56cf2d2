//! Shared experiment harness: dataset construction, query workloads,
//! timing helpers and the per-figure/table drivers of the `experiments`
//! binary.

pub mod harness;

pub use harness::*;
