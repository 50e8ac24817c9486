//! Shared configuration, events, and statistics types.

use std::ops::AddAssign;

use iq_netsim::{time, Time, TimeDelta};

use crate::cc::CcConfig;
use crate::meter::NetCond;

/// Connection configuration, shared by sender and receiver endpoints
/// (each uses the fields relevant to its role).
#[derive(Debug, Clone)]
pub struct RudpConfig {
    /// Congestion-control tunables.
    pub cc: CcConfig,
    /// Measuring-period length for loss-ratio/metrics snapshots.
    pub measure_period: TimeDelta,
    /// Receive buffer, in segments (advertised window).
    pub recv_buffer_segments: u32,
    /// Receiver loss tolerance in `[0, 1]`: the fraction of traffic the
    /// receiver will let the sender abandon (0 = fully reliable).
    pub loss_tolerance: f64,
    /// Error-ratio upper threshold for application callbacks.
    pub upper_threshold: Option<f64>,
    /// Error-ratio lower threshold for application callbacks.
    pub lower_threshold: Option<f64>,
    /// When `true` the sender drops unmarked application datagrams
    /// before they enter the network (the IQ-RUDP coordinated reaction
    /// to a reliability adaptation, §3.3).
    pub discard_unmarked: bool,
    /// ACK decimation: acknowledge every n-th in-order data segment
    /// instead of every one (1 = ack everything, the default). Out-of-
    /// order arrivals always ack immediately (they carry the duplicate
    /// evidence fast retransmit needs).
    pub ack_every: u32,
}

impl Default for RudpConfig {
    fn default() -> Self {
        Self {
            cc: CcConfig::default(),
            measure_period: time::millis(100),
            recv_buffer_segments: 2048,
            loss_tolerance: 0.0,
            upper_threshold: None,
            lower_threshold: None,
            discard_unmarked: false,
            ack_every: 1,
        }
    }
}

/// Asynchronous notifications surfaced by a connection; drained by the
/// embedding agent after every input.
///
/// The snapshot in a period event is that of the *latest closed period*
/// at the moment the event is taken from the connection, which is the
/// period the event announced as long as events are drained before the
/// next period closes (see [`crate::SenderConn::pop_event`]).
#[derive(Debug, Clone, Copy)]
pub enum ConnEvent {
    /// Handshake completed.
    Connected,
    /// A measuring period closed with this snapshot.
    PeriodEnded(NetCond),
    /// The error ratio reached the registered upper threshold — the
    /// application's "congestion is serious" callback (§3.3).
    UpperThreshold(NetCond),
    /// The error ratio fell to the registered lower threshold.
    LowerThreshold(NetCond),
    /// The connection terminated cleanly.
    Finished,
}

/// Outcome of submitting an application message to the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted and fragmented into `fragments` segments.
    Queued {
        /// Message identifier assigned by the connection.
        msg_id: u64,
        /// Number of segments the message was split into.
        fragments: u16,
    },
    /// Dropped at the API boundary because the message was unmarked and
    /// discard-unmarked coordination is active.
    Discarded,
}

/// A fully reassembled message handed to the receiving application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredMsg {
    /// Message identifier (sender-assigned, increasing).
    pub msg_id: u64,
    /// Total payload bytes.
    pub size: u32,
    /// Whether it was marked (tagged).
    pub marked: bool,
    /// When the sending application emitted it.
    pub sent_at: Time,
    /// When the last fragment was delivered in order.
    pub delivered_at: Time,
}

/// Sender-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Messages accepted from the application.
    pub msgs_submitted: u64,
    /// Messages dropped by discard-unmarked coordination.
    pub msgs_discarded: u64,
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmissions only.
    pub retransmits: u64,
    /// Segments abandoned under the receiver's loss tolerance.
    pub segments_abandoned: u64,
    /// Segments acknowledged.
    pub segments_acked: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Payload bytes acknowledged.
    pub bytes_acked: u64,
}

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverStats {
    /// Data segments received (including duplicates).
    pub segments_received: u64,
    /// Duplicate segments.
    pub duplicates: u64,
    /// Sequence numbers skipped under sender abandonment.
    pub segments_skipped: u64,
    /// Fully assembled messages delivered to the application.
    pub msgs_delivered: u64,
    /// Messages dropped because one of their fragments was skipped.
    pub msgs_dropped_partial: u64,
    /// ACKs whose SACK block could not represent every hole (more
    /// reorder-buffer ranges than `MAX_SACK_RANGES`): the sender's loss
    /// sweep stops at the last reported range, so chronic truncation
    /// delays hole repair.
    pub sack_truncations: u64,
}

impl SenderStats {
    /// Every counter under the name a run's metrics report it by.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("iq_rudp_msgs_submitted_total", self.msgs_submitted),
            ("iq_rudp_msgs_discarded_total", self.msgs_discarded),
            ("iq_rudp_segments_sent_total", self.segments_sent),
            ("iq_rudp_retransmits_total", self.retransmits),
            ("iq_rudp_segments_abandoned_total", self.segments_abandoned),
            ("iq_rudp_segments_acked_total", self.segments_acked),
            ("iq_rudp_rto_total", self.timeouts),
            ("iq_rudp_bytes_acked_total", self.bytes_acked),
        ]
    }
}

impl AddAssign for SenderStats {
    fn add_assign(&mut self, s: Self) {
        self.msgs_submitted += s.msgs_submitted;
        self.msgs_discarded += s.msgs_discarded;
        self.segments_sent += s.segments_sent;
        self.retransmits += s.retransmits;
        self.segments_abandoned += s.segments_abandoned;
        self.segments_acked += s.segments_acked;
        self.timeouts += s.timeouts;
        self.bytes_acked += s.bytes_acked;
    }
}

impl ReceiverStats {
    /// Every counter a run's metrics report, under its name.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("iq_rudp_segments_received_total", self.segments_received),
            ("iq_rudp_duplicates_total", self.duplicates),
            ("iq_rudp_segments_skipped_total", self.segments_skipped),
            ("iq_rudp_msgs_delivered_total", self.msgs_delivered),
            (
                "iq_rudp_msgs_dropped_partial_total",
                self.msgs_dropped_partial,
            ),
            ("iq_rudp_sack_truncations_total", self.sack_truncations),
        ]
    }
}

impl AddAssign for ReceiverStats {
    fn add_assign(&mut self, s: Self) {
        self.segments_received += s.segments_received;
        self.duplicates += s.duplicates;
        self.segments_skipped += s.segments_skipped;
        self.msgs_delivered += s.msgs_delivered;
        self.msgs_dropped_partial += s.msgs_dropped_partial;
        self.sack_truncations += s.sack_truncations;
    }
}
