//! Shared configuration, events, and statistics types.

use iq_netsim::{time, Time, TimeDelta};

use crate::cc::CcConfig;
use crate::meter::NetCond;
use crate::segment::DEFAULT_MSS;

/// Connection configuration, shared by sender and receiver endpoints
/// (each uses the fields relevant to its role).
#[derive(Debug, Clone)]
pub struct RudpConfig {
    /// Maximum data payload per segment (paper: 1400 B).
    pub mss: u32,
    /// Congestion-control tunables.
    pub cc: CcConfig,
    /// Measuring-period length for loss-ratio/metrics snapshots.
    pub measure_period: TimeDelta,
    /// SACK-above count that declares a segment lost (fast retransmit).
    pub dupack_threshold: u32,
    /// Lower clamp on the retransmission timeout.
    pub min_rto: TimeDelta,
    /// Upper clamp on the retransmission timeout.
    pub max_rto: TimeDelta,
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
            mss: DEFAULT_MSS,
            cc: CcConfig::default(),
            measure_period: time::millis(100),
            dupack_threshold: 3,
            min_rto: time::millis(100),
            max_rto: time::secs(4.0),
            recv_buffer_segments: 2048,
            loss_tolerance: 0.0,
            upper_threshold: None,
            lower_threshold: None,
            discard_unmarked: false,
            ack_every: 1,
        }
    }
}

impl RudpConfig {
    /// Panics unless `mss` is in 1..=65,535 and `dupack_threshold` at
    /// most 255: a sender's queued fragment holds its length in 16 bits
    /// and its dup-ACK count in 8. Both endpoints check, so a config is
    /// refused whichever end is built first.
    pub(crate) fn check_fragment_limits(&self) {
        assert!(
            (1..=u32::from(u16::MAX)).contains(&self.mss),
            "mss is {}, outside the 1..=65,535 a fragment's length holds",
            self.mss
        );
        assert!(
            self.dupack_threshold <= u32::from(u8::MAX),
            "dupack_threshold is {}, above the 255 a fragment's dup-ACK count holds",
            self.dupack_threshold
        );
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
    /// Data segments at or past `next_required + recv_buffer_segments`
    /// — beyond any window the receiver advertised — dropped unbuffered
    /// and unacknowledged.
    pub out_of_window: u64,
}
