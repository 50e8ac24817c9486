//! # iq-telemetry
//!
//! Structured telemetry for the IQ-RUDP stack: typed per-flow event
//! records carried on a cheap ring-buffer bus with simulation-time
//! stamps, plus a JSONL exporter and a summarizing report — which is
//! also where per-flow network ground truth comes from: a fold over a
//! flow's `packet` records ([`TelemetryBus::flow_records`]).
//!
//! The paper's coordination schemes (§3.3–§3.5) are claims about
//! *internal dynamics* — window re-inflation after a down-sample,
//! pre-network discard of unmarked datagrams, drift correction between
//! `ADAPT_COND` and the live error ratio. End-state table numbers cannot
//! observe any of that; this crate can. Every layer of the stack
//! (netsim links, the RUDP sender/receiver, the coordinator, the ECho
//! adapters) emits [`TelemetryEvent`]s through a shared
//! [`TelemetrySink`] handle:
//!
//! * **Disabled is free.** A sink is a `Option<Arc<Mutex<..>>>`
//!   internally; the disabled sink is `None` and [`TelemetrySink::emit`]
//!   is a single branch. Closure-building emit points use
//!   [`TelemetrySink::emit_with`] so the event is never even
//!   constructed.
//! * **Deterministic.** Events carry a global monotonic sequence number
//!   assigned at emission; exports are ordered by it, so a stream is a
//!   pure function of the (seeded, single-threaded) simulation and is
//!   byte-identical regardless of how many runner jobs executed
//!   concurrently.
//! * **Bounded.** Each flow gets a ring buffer; overflow evicts the
//!   oldest record and is counted, never reallocating without bound.

#![warn(missing_docs)]

pub mod bus;
pub mod event;
pub mod export;
pub mod json;
pub mod report;

pub use bus::{TelemetryBus, TelemetrySink, DEFAULT_RING_CAPACITY};
pub use event::{CwndReason, PacketKind, TelemetryEvent, TelemetryRecord};
pub use export::{Fnv64, StateHasher};
pub use json::{parse_jsonl, to_jsonl, ParseError};
pub use report::TelemetryReport;
