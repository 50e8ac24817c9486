//! # iq-core
//!
//! The IQ-RUDP **coordination layer** — the paper's primary
//! contribution. It couples application-level adaptations (described
//! through ECho quality attributes) with transport-level re-adaptations
//! of the RUDP sender:
//!
//! | Application adaptation | Attribute | IQ-RUDP reaction |
//! |---|---|---|
//! | reliability (unmark packets) | `ADAPT_MARK` | discard unmarked datagrams before sending (§3.3) |
//! | resolution (down-sample)     | `ADAPT_PKTSIZE` | window ← window · 1/(1−rate_chg) (§3.4) |
//! | frequency (fewer messages)   | `ADAPT_FREQ` | none (reduction already has the intended effect) |
//! | deferred (adapt later)       | `ADAPT_WHEN` | keep adapting alone until execution (§3.5) |
//! | stale conditions             | `ADAPT_COND` | Eq. (1) drift correction (§3.5 scheme 3) |
//!
//! [`CoordinationMode`] selects how much of this machinery is active,
//! which is precisely the independent variable of the paper's tables
//! (RUDP vs IQ-RUDP vs IQ-RUDP w/ ADAPT_COND).

#![warn(missing_docs)]

pub mod coordinator;
pub mod report;

pub use coordinator::{CoordinationLog, CoordinationMode, Coordinator};
pub use report::{cond_window_factor, resolution_window_factor, AdaptReport};
