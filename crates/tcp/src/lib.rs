//! # iq-tcp
//!
//! A TCP Reno model (slow start, congestion avoidance, fast
//! retransmit/recovery, retransmission timeouts) used as the baseline
//! transport in the IQ-RUDP evaluation (Tables 1 and 2). It rides the
//! simulator through the same endpoint layer as `iq-rudp`
//! ([`iq_netsim::endpoint`]) and shares its message-framing
//! conventions, so experiment harnesses can swap transports freely.

#![warn(missing_docs)]

pub mod endpoint;
pub mod receiver;
pub mod rtt;
pub mod segment;
pub mod sender;

pub use endpoint::TcpSinkAgent;
pub use receiver::{TcpDeliveredMsg, TcpReceiverConn, TcpReceiverStats};
pub use segment::{tcp_wire_size, TcpAckSeg, TcpDataSeg, TcpSegment};
pub use sender::{TcpConfig, TcpEvent, TcpSenderConn, TcpSenderStats};
