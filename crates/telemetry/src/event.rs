//! Typed telemetry event records.

/// Why the congestion window changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CwndReason {
    /// End-of-period adjustment (LDA/RRR loss reaction, BBR-like model
    /// re-derivation).
    Period,
    /// Retransmission-timeout backoff.
    Timeout,
    /// Coordination rescale ([`TelemetryEvent::WindowReinflate`] carries
    /// the matching factor).
    Rescale,
    /// ACK-clocked growth (CUBIC and other per-ACK controllers; emitted
    /// only when the window actually moved).
    Ack,
    /// Fast-retransmit loss event (duplicate-ACK threshold crossed).
    Loss,
}

impl CwndReason {
    /// Every reason, in declaration order.
    pub const ALL: [Self; 5] = [
        CwndReason::Period,
        CwndReason::Timeout,
        CwndReason::Rescale,
        CwndReason::Ack,
        CwndReason::Loss,
    ];

    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            CwndReason::Period => "period",
            CwndReason::Timeout => "timeout",
            CwndReason::Rescale => "rescale",
            CwndReason::Ack => "ack",
            CwndReason::Loss => "loss",
        }
    }

    /// Parses a wire label back.
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|r| r.label() == s)
    }
}

/// What happened to a packet inside the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Injected by an agent.
    Sent,
    /// Handed to the destination agent.
    Delivered,
    /// Dropped by a queue (drop-tail or RED early drop).
    DroppedQueue,
    /// Lost by the random-loss failure model.
    LostRandom,
}

impl PacketKind {
    /// Every kind, in declaration order.
    pub const ALL: [Self; 4] = [
        PacketKind::Sent,
        PacketKind::Delivered,
        PacketKind::DroppedQueue,
        PacketKind::LostRandom,
    ];

    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            PacketKind::Sent => "sent",
            PacketKind::Delivered => "delivered",
            PacketKind::DroppedQueue => "dropped_queue",
            PacketKind::LostRandom => "lost_random",
        }
    }

    /// Parses a wire label back.
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// One structured event emitted somewhere in the stack.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// The congestion window changed.
    CwndUpdate {
        /// New window, fractional segments.
        cwnd: f64,
        /// What caused the change.
        reason: CwndReason,
    },
    /// A retransmission timeout fired for the earliest outstanding
    /// segment.
    RtoFired {
        /// Sequence number that timed out.
        seq: u64,
        /// The RTO that expired, nanoseconds.
        rto_ns: u64,
        /// Karn backoff level after this timeout.
        backoff: u32,
    },
    /// The sender abandoned a lost segment under the receiver's loss
    /// tolerance instead of retransmitting it.
    SegmentDropped {
        /// Abandoned sequence number.
        seq: u64,
        /// Whether the segment belonged to a marked message.
        marked: bool,
    },
    /// Discard-unmarked coordination dropped an unmarked message before
    /// it entered the network (§3.3).
    Unmarked {
        /// Size of the discarded message, bytes.
        size: u32,
    },
    /// The application announced a deferred adaptation (§3.5
    /// `ADAPT_WHEN`).
    AdaptWhen {
        /// Frames until the announced execution.
        frames_ahead: i64,
    },
    /// A deferred adaptation executed with Eq. (1) drift correction
    /// (§3.5 `ADAPT_COND`).
    AdaptCond {
        /// Error ratio the application decided on.
        eratio_then: f64,
        /// Transport's live smoothed error ratio at execution.
        eratio_now: f64,
    },
    /// Coordination re-inflated the window after a reported resolution
    /// adaptation (§3.4).
    WindowReinflate {
        /// Reported rate change (fraction of data removed).
        rate_chg: f64,
        /// Factor applied to the window.
        factor: f64,
        /// Window after re-inflation, segments.
        cwnd: f64,
        /// Smoothed RTT at the rescale, milliseconds (0 before the
        /// first sample).
        srtt_ms: f64,
    },
    /// Queue occupancy of a link observed when a packet was offered to
    /// it.
    QueueDepth {
        /// Link identifier.
        link: u64,
        /// Bytes waiting after the enqueue decision.
        queued_bytes: u64,
        /// Packets waiting after the enqueue decision.
        queue_len: u64,
        /// Whether the offered packet was dropped.
        dropped: bool,
    },
    /// A packet was sent, delivered, dropped at a queue or lost on a
    /// link: the one record of the network's ground truth, which
    /// [`crate::TelemetryReport`] folds into per-flow totals.
    Packet {
        /// Simulator-assigned packet id.
        packet_id: u64,
        /// Wire size, bytes.
        size: u32,
        /// What happened.
        kind: PacketKind,
        /// Link involved for queue drops and random losses; `-1`
        /// otherwise.
        link: i64,
    },
    /// A reassembled message reached the receiving application.
    MsgDelivered {
        /// Application message id.
        msg_id: u64,
        /// Message size, bytes.
        size: u32,
        /// Whether it was marked (must-deliver).
        marked: bool,
        /// Send-to-delivery latency, nanoseconds.
        latency_ns: u64,
    },
    /// The receiver skipped abandoned sequence numbers up to a `fwd_seq`
    /// floor.
    GapSkipped {
        /// First skipped sequence number.
        seq: u64,
    },
    /// A measuring period ended with these observed conditions.
    PeriodSample {
        /// Raw per-period error ratio.
        eratio: f64,
        /// Smoothed error ratio.
        eratio_smoothed: f64,
        /// Smoothed RTT, milliseconds.
        srtt_ms: f64,
        /// Window at period end, segments.
        cwnd: f64,
        /// Acked rate over the period, KB/s.
        rate_kbps: f64,
    },
    /// An error-ratio threshold callback fired toward the application.
    Threshold {
        /// `true` for the upper (congestion) threshold, `false` for the
        /// lower (recovery) one.
        upper: bool,
        /// Error ratio that crossed the threshold.
        eratio: f64,
    },
    /// The application changed its unmarking probability (§3.3).
    AdaptMark {
        /// New probability of unmarking a non-control datagram.
        unmark_prob: f64,
    },
    /// The application down-/up-sampled its frames (§3.4; negative
    /// values are size increases).
    AdaptPktSize {
        /// Fraction of data removed (negative: added).
        rate_chg: f64,
    },
    /// The application changed its frame frequency.
    AdaptFreq {
        /// Fractional frequency reduction (negative: increase).
        rate_chg: f64,
    },
}

impl TelemetryEvent {
    /// Stable wire label of the event type.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::CwndUpdate { .. } => "cwnd_update",
            TelemetryEvent::RtoFired { .. } => "rto_fired",
            TelemetryEvent::SegmentDropped { .. } => "segment_dropped",
            TelemetryEvent::Unmarked { .. } => "unmarked",
            TelemetryEvent::AdaptWhen { .. } => "adapt_when",
            TelemetryEvent::AdaptCond { .. } => "adapt_cond",
            TelemetryEvent::WindowReinflate { .. } => "window_reinflate",
            TelemetryEvent::QueueDepth { .. } => "queue_depth",
            TelemetryEvent::Packet { .. } => "packet",
            TelemetryEvent::MsgDelivered { .. } => "msg_delivered",
            TelemetryEvent::GapSkipped { .. } => "gap_skipped",
            TelemetryEvent::PeriodSample { .. } => "period_sample",
            TelemetryEvent::Threshold { .. } => "threshold",
            TelemetryEvent::AdaptMark { .. } => "adapt_mark",
            TelemetryEvent::AdaptPktSize { .. } => "adapt_pktsize",
            TelemetryEvent::AdaptFreq { .. } => "adapt_freq",
        }
    }
}

/// One timestamped record on the bus.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecord {
    /// Simulation time, nanoseconds.
    pub at: u64,
    /// Global emission order (monotonic across all flows of one bus).
    pub seq: u64,
    /// Flow the event belongs to.
    pub flow: u64,
    /// The event itself.
    pub event: TelemetryEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cwnd_reason_round_trips_through_its_label() {
        for r in CwndReason::ALL {
            assert_eq!(CwndReason::from_label(r.label()), Some(r));
        }
        assert_eq!(CwndReason::from_label("reno"), None);
    }

    #[test]
    fn every_packet_kind_round_trips_through_its_label() {
        for k in PacketKind::ALL {
            assert_eq!(PacketKind::from_label(k.label()), Some(k));
        }
        assert_eq!(PacketKind::from_label("lost"), None);
    }
}
