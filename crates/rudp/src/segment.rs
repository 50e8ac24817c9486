//! RUDP wire segments.
//!
//! Segments are never serialized to bytes; they travel through the
//! simulator as typed payloads while their wire footprint is modelled by
//! [`wire_size`]. The format follows the Reliable UDP draft's shape
//! (SYN/ACK/EACK/data) extended with the adaptive-reliability fields the
//! paper requires: a per-datagram `marked` bit (sender packet priority
//! marking) and a `fwd_seq` floor that lets the sender abandon unmarked
//! losses (receiver loss tolerance).

use iq_netsim::Time;

/// Modelled IP + UDP + RUDP header bytes per segment.
pub const HEADER_BYTES: u32 = 44;

/// Wire bytes of an ACK segment with no SACK ranges (header + cumulative
/// ack + window/tolerance summary); each carried range adds
/// [`SACK_RANGE_BYTES`].
pub const ACK_BYTES: u32 = HEADER_BYTES + 16;

/// Wire bytes per SACK range carried in an ACK (two 32-bit offsets).
pub const SACK_RANGE_BYTES: u32 = 8;

/// Default maximum RUDP segment payload (paper §3.1: 1400 bytes).
pub const DEFAULT_MSS: u32 = 1400;

/// Maximum SACK ranges reported per ACK.
pub const MAX_SACK_RANGES: usize = 8;

/// Inline storage for the SACK ranges of one ACK.
///
/// Ranges are `[start, end)` pairs, at most [`MAX_SACK_RANGES`] of them,
/// kept inline so building and copying an [`AckSeg`] never touches the
/// heap — an ACK is created for (nearly) every received data segment, so
/// this sits directly on the steady-state hot path.
#[derive(Debug, Clone, Copy)]
pub struct SackRanges {
    ranges: [(u64, u64); MAX_SACK_RANGES],
    len: u8,
}

impl SackRanges {
    /// An empty range list.
    pub const fn new() -> Self {
        Self {
            ranges: [(0, 0); MAX_SACK_RANGES],
            len: 0,
        }
    }

    /// Builds a list from a slice (panics above [`MAX_SACK_RANGES`]).
    pub fn from_slice(ranges: &[(u64, u64)]) -> Self {
        let mut s = Self::new();
        for &r in ranges {
            assert!(s.push(r), "more than MAX_SACK_RANGES ranges");
        }
        s
    }

    /// Appends a range; returns `false` (dropping it) when full.
    pub fn push(&mut self, range: (u64, u64)) -> bool {
        if self.is_full() {
            return false;
        }
        self.ranges[self.len as usize] = range;
        self.len += 1;
        true
    }

    /// Mutable access to the most recently pushed range (for merging a
    /// contiguous extension in place).
    pub fn last_mut(&mut self) -> Option<&mut (u64, u64)> {
        match self.len {
            0 => None,
            n => Some(&mut self.ranges[n as usize - 1]),
        }
    }

    /// The ranges as a slice.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.ranges[..self.len as usize]
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no ranges are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the inline capacity is exhausted.
    pub fn is_full(&self) -> bool {
        self.len as usize == MAX_SACK_RANGES
    }

    /// Iterates the ranges.
    pub fn iter(&self) -> std::slice::Iter<'_, (u64, u64)> {
        self.as_slice().iter()
    }
}

impl Default for SackRanges {
    fn default() -> Self {
        Self::new()
    }
}

// Compare only the live prefix; slots past `len` are scratch.
impl PartialEq for SackRanges {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<(u64, u64)>> for SackRanges {
    fn eq(&self, other: &Vec<(u64, u64)>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a SackRanges {
    type Item = &'a (u64, u64);
    type IntoIter = std::slice::Iter<'a, (u64, u64)>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A data segment: one fragment of one application message.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSeg {
    /// Segment sequence number (one per fragment, increasing).
    pub seq: u64,
    /// Application message this fragment belongs to.
    pub msg_id: u64,
    /// Index of this fragment within the message.
    pub frag_idx: u16,
    /// Total fragments in the message.
    pub frag_count: u16,
    /// Payload bytes carried by this fragment.
    pub len: u32,
    /// Whether the datagram is marked (tagged = must be delivered).
    pub marked: bool,
    /// Receiver may treat every seq below this as abandoned by the
    /// sender (adaptive-reliability skip, like PR-SCTP's FORWARD-TSN).
    pub fwd_seq: u64,
    /// When the application emitted the message (end-to-end latency).
    pub msg_sent_at: Time,
    /// When this particular transmission left the sender (RTT echo).
    pub tx_at: Time,
    /// True for retransmissions (Karn's rule: no RTT sample).
    pub retransmit: bool,
}

/// A cumulative + selective acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub struct AckSeg {
    /// Next sequence number the receiver still needs (everything below
    /// was delivered or skipped).
    pub cum_ack: u64,
    /// Highest sequence number received so far (enables hole detection
    /// without shipping full SACK lists through the model).
    pub highest_seen: u64,
    /// Received ranges above `cum_ack`, `[start, end)`, capped in length.
    pub sack: SackRanges,
    /// Remaining receive-buffer space, in segments (flow control).
    pub recv_window: u32,
    /// The receiver's *current* loss tolerance: the paper's adaptive
    /// reliability lets the receiver change its tolerance during the
    /// connection (§2.1), so every ACK re-advertises it.
    pub loss_tolerance: f64,
    /// `tx_at` of the segment that triggered this ACK; `None` when that
    /// segment was a retransmission (Karn) or the ACK is a duplicate.
    pub echo_tx_at: Option<Time>,
}

/// All RUDP segment types.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// Connection request carrying the sender's initial sequence number.
    Syn {
        /// First data sequence number the sender will use.
        init_seq: u64,
    },
    /// Connection accept carrying receiver parameters.
    SynAck {
        /// Receiver's adaptive-reliability loss tolerance in `[0, 1]`.
        loss_tolerance: f64,
        /// Initial advertised receive window, in segments.
        recv_window: u32,
    },
    /// One fragment of application data.
    Data(DataSeg),
    /// Acknowledgement.
    Ack(AckSeg),
    /// Standalone skip notification, sent when the sender abandons
    /// unmarked data and has no data segment to piggyback `fwd_seq` on.
    Fwd {
        /// New floor: receiver should not wait for anything below this.
        fwd_seq: u64,
    },
    /// End of stream: no sequence at or above `final_seq` will be sent.
    Fin {
        /// One past the last sequence number used.
        final_seq: u64,
    },
    /// Acknowledges a `Fin`.
    FinAck,
}

impl Segment {
    /// Folds the segment into a model-checker state digest. Timestamps
    /// are hashed relative to `now` so equivalent in-flight sets reached
    /// at different absolute clocks still collide in the visited table.
    pub fn state_digest(&self, now: Time, h: &mut iq_telemetry::StateHasher) {
        match self {
            Segment::Syn { init_seq } => {
                h.write_u8(0);
                h.write_u64(*init_seq);
            }
            Segment::SynAck {
                loss_tolerance,
                recv_window,
            } => {
                h.write_u8(1);
                h.write_f64(*loss_tolerance);
                h.write_u64(u64::from(*recv_window));
            }
            Segment::Data(d) => {
                h.write_u8(2);
                h.write_u64(d.seq);
                h.write_u64(d.msg_id);
                h.write_u64(u64::from(d.frag_idx));
                h.write_u64(u64::from(d.frag_count));
                h.write_u64(u64::from(d.len));
                h.write_bool(d.marked);
                h.write_u64(d.fwd_seq);
                h.write_u64(now.saturating_sub(d.msg_sent_at));
                h.write_u64(now.saturating_sub(d.tx_at));
                h.write_bool(d.retransmit);
            }
            Segment::Ack(a) => {
                h.write_u8(3);
                h.write_u64(a.cum_ack);
                h.write_u64(a.highest_seen);
                h.write_u64(a.sack.len() as u64);
                for &(s, e) in &a.sack {
                    h.write_u64(s);
                    h.write_u64(e);
                }
                h.write_u64(u64::from(a.recv_window));
                h.write_f64(a.loss_tolerance);
                h.write_bool(a.echo_tx_at.is_some());
                if let Some(t) = a.echo_tx_at {
                    h.write_u64(now.saturating_sub(t));
                }
            }
            Segment::Fwd { fwd_seq } => {
                h.write_u8(4);
                h.write_u64(*fwd_seq);
            }
            Segment::Fin { final_seq } => {
                h.write_u8(5);
                h.write_u64(*final_seq);
            }
            Segment::FinAck => h.write_u8(6),
        }
    }
}

/// A segment stamped with the connection it belongs to; this is the
/// payload type placed in simulator packets.
#[derive(Debug, Clone, PartialEq)]
pub struct RudpPacket {
    /// Connection identifier (demultiplexing and sanity checks).
    pub conn_id: u32,
    /// The segment.
    pub segment: Segment,
}

/// Wire size in bytes of a segment, for queueing and serialization.
pub fn wire_size(seg: &Segment) -> u32 {
    match seg {
        Segment::Data(d) => HEADER_BYTES + d.len,
        Segment::Ack(a) => ACK_BYTES + SACK_RANGE_BYTES * a.sack.len() as u32,
        Segment::Syn { .. }
        | Segment::SynAck { .. }
        | Segment::Fwd { .. }
        | Segment::Fin { .. }
        | Segment::FinAck => HEADER_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(len: u32) -> Segment {
        Segment::Data(DataSeg {
            seq: 0,
            msg_id: 0,
            frag_idx: 0,
            frag_count: 1,
            len,
            marked: true,
            fwd_seq: 0,
            msg_sent_at: 0,
            tx_at: 0,
            retransmit: false,
        })
    }

    fn ack(sack: SackRanges) -> Segment {
        Segment::Ack(AckSeg {
            cum_ack: 0,
            highest_seen: 0,
            sack,
            recv_window: 10,
            loss_tolerance: 0.0,
            echo_tx_at: None,
        })
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(wire_size(&data(1400)), 1444);
        assert_eq!(wire_size(&data(0)), 44);
        assert_eq!(wire_size(&ack(SackRanges::new())), 60);
        // Each SACK range the ACK carries costs wire bytes.
        assert_eq!(wire_size(&ack(SackRanges::from_slice(&[(1, 2)]))), 68);
        assert_eq!(
            wire_size(&ack(SackRanges::from_slice(&[(1, 2), (4, 6), (9, 10)]))),
            84
        );
        assert_eq!(wire_size(&Segment::Fin { final_seq: 9 }), 44);
        assert_eq!(wire_size(&Segment::Syn { init_seq: 0 }), 44);
    }

    #[test]
    fn sack_ranges_inline_semantics() {
        let mut s = SackRanges::new();
        assert!(s.is_empty());
        assert!(s.push((1, 3)));
        s.last_mut().unwrap().1 = 4;
        assert_eq!(s.as_slice(), &[(1, 4)]);
        assert_eq!(s, vec![(1, 4)]);
        for i in 0..7u64 {
            assert!(s.push((10 * (i + 1), 10 * (i + 1) + 1)));
        }
        assert!(s.is_full());
        assert!(!s.push((99, 100)), "push past capacity must be dropped");
        assert_eq!(s.len(), MAX_SACK_RANGES);
        // Equality ignores scratch beyond `len`.
        let t = SackRanges::from_slice(s.as_slice());
        assert_eq!(s, t);
    }
}
