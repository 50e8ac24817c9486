//! # iq-echo
//!
//! The slice of the ECho middleware the paper's evaluation relies on:
//! an adaptive application source that emits frames from a schedule,
//! reacts to transport threshold callbacks with pluggable adaptation
//! policies (marking / resolution / frequency / deferred), and sends
//! through the coordinator's attribute-carrying `CMwritev_attr` path.
//!
//! The receiving side of a channel is [`iq_rudp::RudpSinkAgent`]: it
//! reassembles messages and records the receiver metrics the paper's
//! tables report.

#![warn(missing_docs)]

pub mod adapters;
pub mod deferred;
pub mod sink;
pub mod source;

pub use adapters::{effective_eratio, FrequencyAdapter, MarkingAdapter, ResolutionAdapter};
pub use deferred::DeferredResolution;
pub use sink::{AdaptiveToleranceSink, TolerancePolicy};
pub use source::{AdaptiveSourceAgent, Policy, SourceConfig, FRAME_TIMER_TOKEN};
