//! # iq-experiments
//!
//! Reproductions of every table and figure in the IQ-RUDP paper's
//! evaluation (§3). Each module builds its scenario(s) on the shared
//! [`scenario`] runner and renders rows shaped like the paper's tables.
//!
//! * [`tables`] — Tables 1–8 (`run_table1` … `run_table8`).
//! * [`figures`] — Figures 1–4.
//! * [`runner`] — parallel execution ([`Executor`], which carries a run's
//!   whole configuration) and row rendering.
//! * [`benchmode`] — the `iqrudp bench` reproduction gate.

#![warn(missing_docs)]

pub mod ablations;
pub mod benchmode;
pub mod figures;
pub mod runner;
pub mod scenario;
pub mod tables;

pub use benchmode::{bench_main, BenchOptions};
pub use runner::{tune_allocator, Executor, ScenarioReport, ScenarioSpec};
pub use scenario::{
    app_frame_sizes, run_scenario, run_scenario_with, set_shards, set_telemetry_capture,
    CrossTraffic, PolicySpec, RunConfig, RunResult, Scenario, Scheme, VbrSpec,
};
pub use tables::Size;
