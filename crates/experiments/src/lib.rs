//! # iq-experiments
//!
//! Reproductions of every table and figure in the IQ-RUDP paper's
//! evaluation (§3). Each module builds its scenario(s) on the shared
//! [`scenario`] runner and renders rows shaped like the paper's tables.
//!
//! * [`tables`] — Tables 1–8 (`run_table1` … `run_table8`).
//! * [`figures`] — Figures 1–4.
//! * [`runner`] — parallel execution and row rendering.
//! * [`benchmode`] — the `iqrudp bench` reproduction gate.

#![warn(missing_docs)]

pub mod ablations;
pub mod benchmode;
pub mod figures;
pub mod runner;
pub mod scenario;
pub mod tables;

pub use benchmode::{bench_main, BenchOptions};
pub use runner::{
    jobs, run_parallel, run_specs, set_jobs, set_metrics_dir, set_shards, tune_allocator,
    set_telemetry_capture, set_telemetry_dir, set_telemetry_ring, set_timing_report,
    set_verify_determinism, shards, Executor, ScenarioReport, ScenarioSpec,
};
pub use scenario::{
    app_frame_sizes, run_scenario, CrossTraffic, PolicySpec, RunResult, Scenario, Scheme,
    VbrSpec,
};
pub use tables::Size;
