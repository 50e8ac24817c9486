//! TCP segments, modelled at MSS granularity.
//!
//! Like the RUDP model, segments travel as typed payloads with an
//! explicit wire size. Application-message framing metadata rides along
//! for the experiment harness (it does not influence protocol dynamics;
//! real TCP would recover boundaries from an application-level framing
//! layer).

use iq_netsim::Time;

/// Modelled IP + TCP header bytes per segment.
pub const TCP_HEADER_BYTES: u32 = 40;

/// Pure-ACK wire size.
pub const TCP_ACK_BYTES: u32 = TCP_HEADER_BYTES;

/// One data segment.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpDataSeg {
    /// Segment sequence number (per MSS-unit, increasing).
    pub seq: u64,
    /// Application message this fragment belongs to.
    pub msg_id: u64,
    /// Fragment index within the message.
    pub frag_idx: u16,
    /// Total fragments in the message.
    pub frag_count: u16,
    /// Payload bytes.
    pub len: u32,
    /// When the application emitted the message.
    pub msg_sent_at: Time,
    /// Transmission timestamp (RTT echo).
    pub tx_at: Time,
    /// Karn: retransmissions carry no RTT echo.
    pub retransmit: bool,
}

/// A cumulative acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpAckSeg {
    /// Next expected sequence number.
    pub cum_ack: u64,
    /// Advertised receive window, segments.
    pub recv_window: u32,
    /// `tx_at` of the triggering segment (`None` for dup-acks and
    /// retransmissions).
    pub echo_tx_at: Option<Time>,
}

/// All TCP segment kinds used by the model.
#[derive(Debug, Clone, PartialEq)]
pub enum TcpSegment {
    /// Connection request.
    Syn,
    /// Connection accept with the initial advertised window.
    SynAck {
        /// Advertised receive window, segments.
        recv_window: u32,
    },
    /// Data.
    Data(TcpDataSeg),
    /// Acknowledgement.
    Ack(TcpAckSeg),
    /// End of stream.
    Fin {
        /// One past the last sequence number used.
        final_seq: u64,
    },
    /// Acknowledges a FIN.
    FinAck,
}

/// Wire size of a segment in bytes.
pub fn tcp_wire_size(seg: &TcpSegment) -> u32 {
    match seg {
        TcpSegment::Data(d) => TCP_HEADER_BYTES + d.len,
        TcpSegment::Ack(_) => TCP_ACK_BYTES,
        _ => TCP_HEADER_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        let d = TcpSegment::Data(TcpDataSeg {
            seq: 0,
            msg_id: 0,
            frag_idx: 0,
            frag_count: 1,
            len: 1400,
            msg_sent_at: 0,
            tx_at: 0,
            retransmit: false,
        });
        assert_eq!(tcp_wire_size(&d), 1440);
        assert_eq!(tcp_wire_size(&TcpSegment::Syn), 40);
        assert_eq!(
            tcp_wire_size(&TcpSegment::Ack(TcpAckSeg {
                cum_ack: 0,
                recv_window: 1,
                echo_tx_at: None,
            })),
            40
        );
    }
}
