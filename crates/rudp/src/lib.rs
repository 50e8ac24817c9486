//! # iq-rudp
//!
//! The RUDP transport of the IQ-RUDP reproduction: a connection-oriented,
//! datagram-based protocol providing in-order reliable delivery, flow
//! control, window-based congestion control resembling the Loss-Delay
//! Adjustment algorithm, and the paper's adaptive-reliability extensions
//! (§2.1):
//!
//! 1. **Exported network metrics** — [`meter::NetCond`] snapshots per
//!    measuring period, queryable any time.
//! 2. **Application-registered callbacks** — error-ratio threshold events
//!    ([`ConnEvent::UpperThreshold`] / [`ConnEvent::LowerThreshold`]).
//! 3. **Application-controlled adaptive reliability** — sender packet
//!    marking plus receiver loss tolerance; lost unmarked datagrams may
//!    be abandoned and skipped with a `fwd_seq` floor.
//!
//! The protocol lives in pure state machines ([`SenderConn`],
//! [`ReceiverConn`]); [`endpoint`] plugs them into the simulator's
//! generic drivers. Coordination with application adaptations (what
//! makes IQ-RUDP "IQ") lives one crate up, in `iq-core`.

#![warn(missing_docs)]

pub mod cc;
pub mod endpoint;
pub mod inline;
pub mod meter;
pub mod receiver;
pub mod ring;
pub mod segment;
pub mod sender;
pub mod types;

pub use cc::{CcAlgorithm, CcConfig, CcController, INITIAL_CWND, MAX_CWND, MIN_CWND};
pub use endpoint::{ConnBuilder, RudpSinkAgent};
pub use inline::InlineQueue;
pub use meter::{NetCond, PeriodMeter};
pub use receiver::ReceiverConn;
pub use ring::SeqRing;
pub use segment::{
    wire_size, AckSeg, DataSeg, SackRanges, Segment, ACK_BYTES, HEADER_BYTES, MAX_SACK_RANGES,
    MSS, SACK_RANGE_BYTES,
};
pub use sender::{SenderConn, SenderState};
pub use types::{ConnEvent, DeliveredMsg, ReceiverStats, RudpConfig, SendOutcome, SenderStats};
