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

/// Wire bytes per SACK range carried in an ACK. This is the *wire
/// model* — two 32-bit offsets a range, what [`wire_size`] charges —
/// and is independent of how [`SackRanges`] stores a range in memory
/// (two 16-bit fields against one 64-bit base).
pub const SACK_RANGE_BYTES: u32 = 8;

/// The RUDP segment payload, bytes (paper §3.1): a sender fragments
/// every message at it, and the controllers, the sources and the
/// coordinator that reason in segments read the same constant.
pub const MSS: u32 = 1400;

/// Maximum SACK ranges reported per ACK.
pub const MAX_SACK_RANGES: usize = 8;

/// Inline storage for the SACK ranges of one ACK.
///
/// Ranges are `[start, end)` pairs in ascending order, at most
/// [`MAX_SACK_RANGES`] of them, kept inline so building and copying an
/// [`AckSeg`] never touches the heap — an ACK is created for (nearly)
/// every received data segment, so this sits directly on the
/// steady-state hot path.
///
/// The *storage* is wire-sized: the first range's start in full, and
/// each range as a 16-bit offset from it plus a 16-bit length — 48
/// bytes where eight `(u64, u64)` pairs took 136, in every segment,
/// packet payload and receiver outbox slot. A block therefore spans at
/// most 65,535 sequence numbers past its first start, which a receiver
/// never exceeds: it holds nothing at or past `next_required +
/// recv_buffer_segments`, and that field is capped at 65,535. A range
/// that does not fit is refused like one past the capacity.
#[derive(Debug, Clone, Copy)]
pub struct SackRanges {
    /// Start of the first range; meaningful while `len > 0`.
    base: u64,
    /// `(start - base, end - start)` per range.
    ranges: [(u16, u16); MAX_SACK_RANGES],
    len: u8,
}

impl SackRanges {
    /// An empty range list.
    pub const fn new() -> Self {
        Self {
            base: 0,
            ranges: [(0, 0); MAX_SACK_RANGES],
            len: 0,
        }
    }

    /// Builds a list from a slice (panics above [`MAX_SACK_RANGES`], or
    /// on a range the block cannot represent).
    pub fn from_slice(ranges: &[(u64, u64)]) -> Self {
        let mut s = Self::new();
        for &r in ranges {
            assert!(
                s.push(r),
                "more than MAX_SACK_RANGES ranges, or {r:?} does not fit the block"
            );
        }
        s
    }

    /// Appends a range; returns `false` (dropping it, the block
    /// unchanged) when full or when the range does not fit 16 bits: it
    /// starts before the first range or more than 65,535 past it, or is
    /// inverted or longer than 65,535.
    pub fn push(&mut self, (start, end): (u64, u64)) -> bool {
        if self.is_full() {
            return false;
        }
        let base = if self.len == 0 { start } else { self.base };
        let (Some(offset), Some(length)) = (start.checked_sub(base), end.checked_sub(start)) else {
            return false;
        };
        let (Ok(offset), Ok(length)) = (u16::try_from(offset), u16::try_from(length)) else {
            return false;
        };
        self.base = base;
        self.ranges[self.len as usize] = (offset, length);
        self.len += 1;
        true
    }

    /// Grows the most recently pushed range by one when `seq` is the
    /// sequence number right after it (merging a contiguous extension in
    /// place); `false`, the block unchanged, when there is no such range
    /// or it is already 65,535 long.
    pub fn extend_last(&mut self, seq: u64) -> bool {
        let Some((_, end)) = self.last() else {
            return false;
        };
        let length = &mut self.ranges[self.len as usize - 1].1;
        if end != seq || seq == u64::MAX || *length == u16::MAX {
            return false;
        }
        *length += 1;
        true
    }

    /// The most recently pushed range.
    pub fn last(&self) -> Option<(u64, u64)> {
        self.iter().next_back()
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

    /// Iterates the ranges as absolute `[start, end)` pairs.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
        let base = self.base;
        self.ranges[..self.len as usize]
            .iter()
            .map(move |&(offset, length)| {
                let start = base + u64::from(offset);
                (start, start + u64::from(length))
            })
    }
}

impl Default for SackRanges {
    fn default() -> Self {
        Self::new()
    }
}

// Compare the ranges, not the bytes: slots past `len` are scratch, and
// so is the base of an empty block.
impl PartialEq for SackRanges {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl PartialEq<Vec<(u64, u64)>> for SackRanges {
    fn eq(&self, other: &Vec<(u64, u64)>) -> bool {
        self.iter().eq(other.iter().copied())
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
                for (s, e) in a.sack.iter() {
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
        assert!(!s.extend_last(0), "nothing to extend yet");
        assert!(s.push((1, 3)));
        assert!(s.extend_last(3));
        assert!(!s.extend_last(3), "3 is inside the range now, not after it");
        assert_eq!(s.last(), Some((1, 4)));
        assert_eq!(s, vec![(1, 4)]);
        for i in 0..7u64 {
            assert!(s.push((10 * (i + 1), 10 * (i + 1) + 1)));
        }
        assert!(s.is_full());
        assert!(!s.push((99, 100)), "push past capacity must be dropped");
        assert_eq!(s.len(), MAX_SACK_RANGES);
        // Equality ignores scratch beyond `len`.
        let t = SackRanges::from_slice(&s.iter().collect::<Vec<_>>());
        assert_eq!(s, t);
    }
}
