//! # iq-experiments
//!
//! Reproductions of every table and figure in the IQ-RUDP paper's
//! evaluation (§3). Each module builds its scenario(s) on the shared
//! [`scenario`] runner and renders rows shaped like the paper's tables.
//!
//! * [`tables`] — the [`Experiment`](tables::Experiment) type, the one
//!   [`run`](tables::run) (one [`Row`](tables::Row) of runs per row, at
//!   a seed that reaches every trace through [`seeded`](tables::seeded))
//!   and [`render`](tables::render), and the nine tables
//!   ([`TABLES`](tables::TABLES): Tables 1–8 and the controller matrix).
//! * [`ablations`] — the four design-choice ablations
//!   ([`ABLATIONS`](ablations::ABLATIONS)).
//! * [`figures`] — Figures 1–4.
//! * [`runner`] — parallel execution ([`Executor`], which carries a run's
//!   whole configuration).
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
