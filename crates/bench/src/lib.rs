//! # h2ready-bench — experiment regeneration harness
//!
//! The `repro` binary (see `src/main.rs`) regenerates every table and
//! figure of the paper's evaluation section; this library holds the
//! pieces: the parallel [`scan`] driver, the testbed [`tables`]
//! (Table III, §V-A), the wild-scan aggregates ([`wild`]: Tables IV–VII,
//! Figure 2, §V-D, §V-E, §V-F) and the timing figures ([`figures`]:
//! Figures 3 and 6).

#![warn(missing_docs)]

pub mod abuse;
pub mod figures;
pub mod push_study;
pub mod scan;
pub mod sched;
pub mod serve;
pub mod stats;
pub mod tables;
pub mod wild;
