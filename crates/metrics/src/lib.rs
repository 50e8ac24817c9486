//! # iq-metrics
//!
//! Measurement plumbing for the IQ-RUDP reproduction: online statistics,
//! per-flow receiver metrics matching the paper's table columns, time
//! series for the figures, and plain-text table rendering.

#![warn(missing_docs)]

pub mod flow;
pub mod plot;
pub mod series;
pub mod stats;
pub mod table;

pub use flow::{jitter_series, FlowMetrics};
pub use plot::{bar_chart, line_plot};
pub use series::TimeSeries;
pub use stats::{Ewma, Welford};
pub use table::{fmt, Table};
