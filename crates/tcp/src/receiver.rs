//! TCP receiving endpoint: cumulative ACKs (dup-ACKs on reorder), a
//! reorder buffer, and the same message-reassembly convention as the
//! RUDP receiver (without adaptive-reliability skipping — TCP delivers
//! everything).

use std::collections::{BTreeMap, VecDeque};

use iq_netsim::Time;

use crate::segment::{TcpAckSeg, TcpDataSeg, TcpSegment};
use crate::sender::{TcpConfig, TcpEvent};

/// Receive buffer, segments: the most the advertised window opens to.
const RECV_BUFFER_SEGMENTS: u32 = 2048;

/// A reassembled message (same shape as RUDP's, `marked` always true).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpDeliveredMsg {
    /// Message identifier.
    pub msg_id: u64,
    /// Total payload bytes.
    pub size: u32,
    /// When the sending application emitted it.
    pub sent_at: Time,
    /// When the last fragment arrived in order.
    pub delivered_at: Time,
}

/// Receiver counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpReceiverStats {
    /// Data segments received, including duplicates.
    pub segments_received: u64,
    /// Duplicates.
    pub duplicates: u64,
    /// Messages delivered.
    pub msgs_delivered: u64,
}

#[derive(Debug)]
struct Assembly {
    msg_id: u64,
    frag_count: u16,
    next_frag: u16,
    bytes: u32,
    msg_sent_at: Time,
}

/// The TCP receiving state machine.
pub struct TcpReceiverConn {
    conn_id: u32,
    established: bool,
    next_required: u64,
    buffer: BTreeMap<u64, TcpDataSeg>,
    assembly: Option<Assembly>,
    delivered: VecDeque<TcpDeliveredMsg>,
    outbox: VecDeque<TcpSegment>,
    events: Vec<TcpEvent>,
    fin_seq: Option<u64>,
    finished: bool,
    stats: TcpReceiverStats,
}

impl TcpReceiverConn {
    /// Creates a receiver for connection `conn_id`.
    pub fn new(conn_id: u32, _cfg: TcpConfig) -> Self {
        Self {
            conn_id,
            established: false,
            next_required: 0,
            buffer: BTreeMap::new(),
            assembly: None,
            delivered: VecDeque::new(),
            outbox: VecDeque::new(),
            events: Vec::new(),
            fin_seq: None,
            finished: false,
            stats: TcpReceiverStats::default(),
        }
    }

    /// Connection identifier.
    pub fn conn_id(&self) -> u32 {
        self.conn_id
    }

    /// Counters.
    pub fn stats(&self) -> TcpReceiverStats {
        self.stats
    }

    /// Whether the stream ended and all data was delivered.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Drains completed messages.
    pub fn take_messages(&mut self) -> Vec<TcpDeliveredMsg> {
        self.delivered.drain(..).collect()
    }

    /// Drains lifecycle events.
    pub fn take_events(&mut self) -> Vec<TcpEvent> {
        std::mem::take(&mut self.events)
    }

    fn recv_window(&self) -> u32 {
        RECV_BUFFER_SEGMENTS
            .saturating_sub(self.buffer.len() as u32)
            .max(1)
    }

    fn push_ack(&mut self, echo_tx_at: Option<Time>) {
        self.outbox.push_back(TcpSegment::Ack(TcpAckSeg {
            cum_ack: self.next_required,
            recv_window: self.recv_window(),
            echo_tx_at,
        }));
    }

    /// Processes an incoming segment.
    pub fn on_segment(&mut self, now: Time, seg: &TcpSegment) {
        match seg {
            TcpSegment::Syn => {
                if !self.established {
                    self.established = true;
                    self.events.push(TcpEvent::Connected);
                }
                self.outbox.push_back(TcpSegment::SynAck {
                    recv_window: self.recv_window(),
                });
            }
            TcpSegment::Data(d) => {
                self.stats.segments_received += 1;
                let duplicate = d.seq < self.next_required || self.buffer.contains_key(&d.seq);
                if duplicate {
                    self.stats.duplicates += 1;
                } else {
                    self.buffer.insert(d.seq, d.clone());
                }
                let in_order = d.seq == self.next_required;
                while self.buffer.contains_key(&self.next_required) {
                    self.deliver_next(now);
                }
                // In-order fresh data echoes RTT; reordered or duplicate
                // arrivals produce dup-ACKs without an echo.
                let echo = (in_order && !duplicate && !d.retransmit).then_some(d.tx_at);
                self.push_ack(echo);
                self.maybe_finish();
            }
            TcpSegment::Fin { final_seq } => {
                if self.finished {
                    self.outbox.push_back(TcpSegment::FinAck);
                } else {
                    self.fin_seq = Some(*final_seq);
                    self.maybe_finish();
                }
            }
            _ => {}
        }
    }

    fn deliver_next(&mut self, now: Time) {
        let seq = self.next_required;
        let d = self.buffer.remove(&seq).expect("caller checked");
        self.next_required += 1;
        if d.frag_idx == 0 {
            self.assembly = Some(Assembly {
                msg_id: d.msg_id,
                frag_count: d.frag_count,
                next_frag: 0,
                bytes: 0,
                msg_sent_at: d.msg_sent_at,
            });
        }
        let Some(asm) = self.assembly.as_mut() else {
            return;
        };
        debug_assert_eq!(asm.msg_id, d.msg_id, "TCP stream cannot lose fragments");
        asm.bytes += d.len;
        asm.next_frag += 1;
        if asm.next_frag == asm.frag_count {
            let asm = self.assembly.take().expect("just borrowed");
            self.stats.msgs_delivered += 1;
            self.delivered.push_back(TcpDeliveredMsg {
                msg_id: asm.msg_id,
                size: asm.bytes,
                sent_at: asm.msg_sent_at,
                delivered_at: now,
            });
        }
    }

    fn maybe_finish(&mut self) {
        if self.finished {
            return;
        }
        if let Some(fin) = self.fin_seq {
            if self.next_required >= fin {
                self.finished = true;
                self.events.push(TcpEvent::Finished);
                self.outbox.push_back(TcpSegment::FinAck);
            }
        }
    }

    /// Produces the next outgoing control/ACK segment.
    pub fn poll_transmit(&mut self, _now: Time) -> Option<TcpSegment> {
        self.outbox.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64, msg_id: u64, frag_idx: u16, frag_count: u16) -> TcpSegment {
        TcpSegment::Data(TcpDataSeg {
            seq,
            msg_id,
            frag_idx,
            frag_count,
            len: 1400,
            msg_sent_at: 0,
            tx_at: 3,
            retransmit: false,
        })
    }

    fn acks(r: &mut TcpReceiverConn) -> Vec<TcpAckSeg> {
        std::iter::from_fn(|| r.poll_transmit(0))
            .filter_map(|s| match s {
                TcpSegment::Ack(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_delivery_and_cumulative_acks() {
        let mut r = TcpReceiverConn::new(1, TcpConfig);
        r.on_segment(0, &TcpSegment::Syn);
        r.on_segment(1, &data(0, 0, 0, 2));
        r.on_segment(2, &data(1, 0, 1, 2));
        let msgs = r.take_messages();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].size, 2800);
        let a = acks(&mut r);
        assert_eq!(a.last().unwrap().cum_ack, 2);
    }

    #[test]
    fn reorder_generates_dup_acks_without_echo() {
        let mut r = TcpReceiverConn::new(1, TcpConfig);
        r.on_segment(0, &TcpSegment::Syn);
        let _ = acks(&mut r);
        r.on_segment(1, &data(1, 1, 0, 1)); // gap at 0
        r.on_segment(2, &data(2, 2, 0, 1));
        let a = acks(&mut r);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|x| x.cum_ack == 0 && x.echo_tx_at.is_none()));
        // Fill the hole: cumulative jump.
        r.on_segment(3, &data(0, 0, 0, 1));
        let a = acks(&mut r);
        assert_eq!(a.last().unwrap().cum_ack, 3);
        assert_eq!(r.take_messages().len(), 3);
    }

    #[test]
    fn duplicates_counted() {
        let mut r = TcpReceiverConn::new(1, TcpConfig);
        r.on_segment(0, &TcpSegment::Syn);
        r.on_segment(1, &data(0, 0, 0, 1));
        r.on_segment(2, &data(0, 0, 0, 1));
        assert_eq!(r.stats().duplicates, 1);
        assert_eq!(r.take_messages().len(), 1);
    }

    #[test]
    fn fin_finishes_after_all_data() {
        let mut r = TcpReceiverConn::new(1, TcpConfig);
        r.on_segment(0, &TcpSegment::Syn);
        r.on_segment(1, &data(1, 1, 0, 1));
        r.on_segment(2, &TcpSegment::Fin { final_seq: 2 });
        assert!(!r.is_finished());
        r.on_segment(3, &data(0, 0, 0, 1));
        assert!(r.is_finished());
    }
}
