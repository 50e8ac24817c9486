//! TCP Reno sending endpoint (NewReno-style partial-ack handling).
//!
//! Implements the AIMD behaviour the paper contrasts RUDP against: slow
//! start, congestion avoidance, fast retransmit/recovery on three
//! duplicate ACKs, and multiplicative backoff on timeout — the dynamics
//! that make TCP traffic "bursty in nature" with "unstable QoS over
//! time" (§1).

use std::collections::{BTreeMap, VecDeque};

use iq_netsim::{time, RttEstimator, Time, TimeDelta};

use crate::segment::{TcpAckSeg, TcpDataSeg, TcpSegment};

/// Payload bytes per segment.
const MSS: u32 = 1400;

/// Slow-start threshold of a new connection, segments.
const INITIAL_SSTHRESH: f64 = 64.0;

/// Window ceiling, segments.
const MAX_CWND: f64 = 1024.0;

/// Lower clamp on the retransmission timeout.
const MIN_RTO: TimeDelta = time::millis(200);

/// Upper clamp on the retransmission timeout.
const MAX_RTO: TimeDelta = 8 * time::SECOND;

/// The TCP model's configuration. It has nothing left to set: each value
/// is a constant of the module that reads it. The constructors take it
/// and ignore it, because the benchmark harness still passes
/// `TcpConfig::default()`.
#[derive(Debug, Clone, Default)]
pub struct TcpConfig;

/// Lifecycle events surfaced by the TCP endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpEvent {
    /// Handshake completed.
    Connected,
    /// Connection closed cleanly.
    Finished,
}

/// Sender counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpSenderStats {
    /// Messages accepted from the application.
    pub msgs_submitted: u64,
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmissions only.
    pub retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast-retransmit episodes.
    pub fast_retransmits: u64,
    /// Segments acknowledged.
    pub segments_acked: u64,
    /// Payload bytes acknowledged.
    pub bytes_acked: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    SynSent,
    Established,
    FinSent,
    Closed,
}

#[derive(Debug, Clone)]
struct PendingFrag {
    msg_id: u64,
    frag_idx: u16,
    frag_count: u16,
    len: u32,
    msg_sent_at: Time,
}

#[derive(Debug, Clone)]
struct InFlight {
    frag: PendingFrag,
    tx_at: Time,
    retransmitted: bool,
}

/// The TCP Reno sending state machine.
pub struct TcpSenderConn {
    conn_id: u32,
    state: State,
    next_seq: u64,
    queue: VecDeque<PendingFrag>,
    inflight: BTreeMap<u64, InFlight>,
    /// Segments queued for retransmission (timeout go-back / partial ack).
    retx_queue: VecDeque<u64>,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    last_cum: u64,
    /// While `Some`, we are in fast recovery until cum_ack passes it.
    recovery_point: Option<u64>,
    peer_window: u32,
    rtt: RttEstimator,
    handshake_dirty: bool,
    handshake_deadline: Time,
    next_msg_id: u64,
    finish_requested: bool,
    events: Vec<TcpEvent>,
    stats: TcpSenderStats,
}

impl TcpSenderConn {
    /// Creates a sender for connection `conn_id`.
    pub fn new(conn_id: u32, _cfg: TcpConfig) -> Self {
        Self {
            conn_id,
            state: State::Idle,
            next_seq: 0,
            queue: VecDeque::new(),
            inflight: BTreeMap::new(),
            retx_queue: VecDeque::new(),
            cwnd: 2.0,
            ssthresh: INITIAL_SSTHRESH,
            dup_acks: 0,
            last_cum: 0,
            recovery_point: None,
            peer_window: 1,
            rtt: RttEstimator::new(),
            handshake_dirty: true,
            handshake_deadline: 0,
            next_msg_id: 0,
            finish_requested: false,
            events: Vec::new(),
            stats: TcpSenderStats::default(),
        }
    }

    /// Connection identifier.
    pub fn conn_id(&self) -> u32 {
        self.conn_id
    }

    /// Counters.
    pub fn stats(&self) -> TcpSenderStats {
        self.stats
    }

    /// Congestion window, segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Smoothed RTT, milliseconds.
    pub fn srtt_ms(&self) -> f64 {
        self.rtt.srtt_ms()
    }

    /// Whether the connection is fully closed.
    pub fn is_closed(&self) -> bool {
        self.state == State::Closed
    }

    /// Untransmitted + unacknowledged segments.
    pub fn backlog_segments(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    /// Drains pending events.
    pub fn take_events(&mut self) -> Vec<TcpEvent> {
        std::mem::take(&mut self.events)
    }

    /// Submits an application message of `size` bytes (always reliable).
    ///
    /// # Panics
    /// Panics if `size` is 0 or more than 65,535 fragments of 1,400
    /// bytes, the most a segment's fragment count can number.
    pub fn send_message(&mut self, now: Time, size: u32) -> u64 {
        assert!(size > 0, "empty messages are not allowed");
        let frags = size.div_ceil(MSS);
        let frag_count = u16::try_from(frags).unwrap_or_else(|_| {
            panic!(
                "a {size}-byte message is {frags} fragments of {MSS} bytes, above the 65,535 \
                 a message may have"
            )
        });
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        self.stats.msgs_submitted += 1;
        let mut remaining = size;
        for idx in 0..frag_count {
            let len = remaining.min(MSS);
            remaining -= len;
            self.queue.push_back(PendingFrag {
                msg_id,
                frag_idx: idx,
                frag_count,
                len,
                msg_sent_at: now,
            });
        }
        msg_id
    }

    /// No more messages will follow; FIN after drain.
    pub fn finish(&mut self) {
        self.finish_requested = true;
    }

    /// Processes an incoming segment.
    pub fn on_segment(&mut self, now: Time, seg: &TcpSegment) {
        match seg {
            TcpSegment::SynAck { recv_window }
                if matches!(self.state, State::SynSent | State::Idle) =>
            {
                self.state = State::Established;
                self.peer_window = (*recv_window).max(1);
                self.events.push(TcpEvent::Connected);
            }
            TcpSegment::Ack(ack) => self.on_ack(now, ack),
            TcpSegment::FinAck if self.state == State::FinSent => {
                self.state = State::Closed;
                self.events.push(TcpEvent::Finished);
            }
            _ => {}
        }
    }

    fn on_ack(&mut self, now: Time, ack: &TcpAckSeg) {
        if !matches!(self.state, State::Established | State::FinSent) {
            return;
        }
        self.peer_window = ack.recv_window.max(1);
        if ack.cum_ack > self.last_cum {
            // New data acknowledged.
            if let Some(tx_at) = ack.echo_tx_at {
                self.rtt.sample_times(tx_at, now);
            }
            let acked: Vec<u64> = self
                .inflight
                .range(..ack.cum_ack)
                .map(|(&s, _)| s)
                .collect();
            let n = acked.len();
            for seq in acked {
                let e = self.inflight.remove(&seq).expect("in range");
                self.stats.segments_acked += 1;
                self.stats.bytes_acked += u64::from(e.frag.len);
            }
            self.last_cum = ack.cum_ack;
            self.dup_acks = 0;
            match self.recovery_point {
                Some(rp) if ack.cum_ack >= rp => {
                    // Full recovery: deflate to ssthresh.
                    self.recovery_point = None;
                    self.cwnd = self.ssthresh;
                }
                Some(_) => {
                    // NewReno partial ack: retransmit the next hole.
                    if let Some((&seq, _)) = self.inflight.iter().next() {
                        self.retx_queue.push_back(seq);
                    }
                }
                None => {
                    for _ in 0..n {
                        if self.cwnd < self.ssthresh {
                            self.cwnd += 1.0; // slow start
                        } else {
                            self.cwnd += 1.0 / self.cwnd; // avoidance
                        }
                    }
                    self.cwnd = self.cwnd.min(MAX_CWND);
                }
            }
        } else if ack.cum_ack == self.last_cum && !self.inflight.is_empty() {
            self.dup_acks += 1;
            if self.recovery_point.is_some() {
                // Inflation during recovery.
                self.cwnd = (self.cwnd + 1.0).min(MAX_CWND);
            } else if self.dup_acks == 3 {
                // Fast retransmit.
                self.stats.fast_retransmits += 1;
                let flight = self.inflight.len() as f64;
                self.ssthresh = (flight / 2.0).max(2.0);
                self.cwnd = self.ssthresh + 3.0;
                self.recovery_point = Some(self.next_seq);
                if let Some((&seq, _)) = self.inflight.iter().next() {
                    self.retx_queue.push_back(seq);
                }
            }
        }
    }

    /// Clock tick: RTO and handshake retry handling.
    pub fn on_tick(&mut self, now: Time) {
        match self.state {
            State::SynSent | State::FinSent if now >= self.handshake_deadline => {
                self.handshake_dirty = true;
                self.rtt.on_timeout();
            }
            State::Established => {
                if let Some((&seq, entry)) = self.inflight.iter().next() {
                    if now >= entry.tx_at + self.rto() {
                        // Retransmission timeout: multiplicative backoff
                        // and slow-start restart.
                        self.stats.timeouts += 1;
                        self.rtt.on_timeout();
                        let flight = self.inflight.len() as f64;
                        self.ssthresh = (flight / 2.0).max(2.0);
                        self.cwnd = 1.0;
                        self.recovery_point = None;
                        self.dup_acks = 0;
                        self.retx_queue.clear();
                        self.retx_queue.push_back(seq);
                    }
                }
            }
            _ => {}
        }
    }

    /// Earliest time [`Self::on_tick`] must run again.
    pub fn next_timeout(&self, _now: Time) -> Option<Time> {
        match self.state {
            State::Closed => None,
            State::Idle => Some(0),
            State::SynSent | State::FinSent => Some(self.handshake_deadline),
            State::Established => self.inflight.values().next().map(|e| e.tx_at + self.rto()),
        }
    }

    /// The retransmission timeout, within TCP's clamps.
    fn rto(&self) -> TimeDelta {
        self.rtt.rto(MIN_RTO, MAX_RTO)
    }

    fn can_send_new(&self) -> bool {
        let w = (self.cwnd.floor() as usize)
            .max(1)
            .min(self.peer_window as usize);
        self.inflight.len() < w
    }

    /// Produces the next segment to transmit, if any.
    pub fn poll_transmit(&mut self, now: Time) -> Option<TcpSegment> {
        match self.state {
            State::Idle => {
                self.state = State::SynSent;
                self.handshake_deadline = now + self.rto();
                self.handshake_dirty = false;
                Some(TcpSegment::Syn)
            }
            State::SynSent => self.handshake_dirty.then(|| {
                self.handshake_dirty = false;
                self.handshake_deadline = now + self.rto();
                TcpSegment::Syn
            }),
            State::Established => self.poll_established(now),
            State::FinSent => self.handshake_dirty.then(|| {
                self.handshake_dirty = false;
                self.handshake_deadline = now + self.rto();
                TcpSegment::Fin {
                    final_seq: self.next_seq,
                }
            }),
            State::Closed => None,
        }
    }

    fn poll_established(&mut self, now: Time) -> Option<TcpSegment> {
        // Retransmissions first.
        while let Some(seq) = self.retx_queue.pop_front() {
            let Some(entry) = self.inflight.get_mut(&seq) else {
                continue;
            };
            entry.tx_at = now;
            entry.retransmitted = true;
            self.stats.segments_sent += 1;
            self.stats.retransmits += 1;
            let f = &entry.frag;
            return Some(TcpSegment::Data(TcpDataSeg {
                seq,
                msg_id: f.msg_id,
                frag_idx: f.frag_idx,
                frag_count: f.frag_count,
                len: f.len,
                msg_sent_at: f.msg_sent_at,
                tx_at: now,
                retransmit: true,
            }));
        }
        if self.can_send_new() {
            if let Some(frag) = self.queue.pop_front() {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.stats.segments_sent += 1;
                let seg = TcpDataSeg {
                    seq,
                    msg_id: frag.msg_id,
                    frag_idx: frag.frag_idx,
                    frag_count: frag.frag_count,
                    len: frag.len,
                    msg_sent_at: frag.msg_sent_at,
                    tx_at: now,
                    retransmit: false,
                };
                self.inflight.insert(
                    seq,
                    InFlight {
                        frag,
                        tx_at: now,
                        retransmitted: false,
                    },
                );
                return Some(TcpSegment::Data(seg));
            }
        }
        if self.finish_requested && self.queue.is_empty() && self.inflight.is_empty() {
            self.state = State::FinSent;
            self.handshake_deadline = now + self.rto();
            self.handshake_dirty = false;
            return Some(TcpSegment::Fin {
                final_seq: self.next_seq,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::time::millis;

    fn establish(c: &mut TcpSenderConn) {
        assert!(matches!(c.poll_transmit(0), Some(TcpSegment::Syn)));
        c.on_segment(0, &TcpSegment::SynAck { recv_window: 1024 });
    }

    fn ack(cum: u64) -> TcpSegment {
        TcpSegment::Ack(TcpAckSeg {
            cum_ack: cum,
            recv_window: 1024,
            echo_tx_at: Some(0),
        })
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut c = TcpSenderConn::new(1, TcpConfig);
        establish(&mut c);
        c.send_message(0, 1400 * 32);
        // cwnd 2: two segments out.
        assert!(c.poll_transmit(0).is_some());
        assert!(c.poll_transmit(0).is_some());
        assert!(c.poll_transmit(0).is_none());
        c.on_segment(millis(30), &ack(2));
        // Slow start: cwnd 2 -> 4.
        assert_eq!(c.cwnd(), 4.0);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut c = TcpSenderConn::new(1, TcpConfig);
        establish(&mut c);
        c.send_message(0, 1400 * 12);
        let _ = c.poll_transmit(0);
        let _ = c.poll_transmit(0);
        c.on_segment(millis(30), &ack(2)); // slow start: cwnd 4
        while c.poll_transmit(millis(30)).is_some() {}
        // A fast retransmit with four in flight sets ssthresh to 2, and
        // the ACK that ends recovery deflates the window to it.
        for _ in 0..3 {
            c.on_segment(millis(60), &ack(2));
        }
        assert_eq!(c.stats().fast_retransmits, 1);
        c.on_segment(millis(90), &ack(6));
        assert_eq!(c.cwnd(), 2.0);
        while c.poll_transmit(millis(90)).is_some() {}
        c.on_segment(millis(120), &ack(8));
        // At ssthresh: growth is ~1/cwnd per acked segment.
        assert!(c.cwnd() > 2.0 && c.cwnd() < 3.1, "cwnd = {}", c.cwnd());
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut c = TcpSenderConn::new(1, TcpConfig);
        establish(&mut c);
        c.send_message(0, 1400 * 2);
        c.send_message(0, 1400 * 8);
        // Open the window by acking the first two.
        let _ = c.poll_transmit(0);
        let _ = c.poll_transmit(0);
        c.on_segment(millis(30), &ack(2));
        let mut sent = 0;
        while c.poll_transmit(millis(30)).is_some() {
            sent += 1;
        }
        assert!(sent >= 4, "need several in flight, got {sent}");
        // Three duplicate ACKs for seq 2.
        for _ in 0..3 {
            c.on_segment(millis(60), &ack(2));
        }
        assert_eq!(c.stats().fast_retransmits, 1);
        match c.poll_transmit(millis(61)) {
            Some(TcpSegment::Data(d)) => {
                assert_eq!(d.seq, 2);
                assert!(d.retransmit);
            }
            other => panic!("expected retransmit of 2, got {other:?}"),
        }
    }

    #[test]
    fn timeout_collapses_window_to_one() {
        let mut c = TcpSenderConn::new(1, TcpConfig);
        establish(&mut c);
        c.send_message(0, 1400 * 2);
        let _ = c.poll_transmit(0);
        let _ = c.poll_transmit(0);
        c.on_tick(millis(1500)); // initial RTO 1 s
        assert_eq!(c.stats().timeouts, 1);
        assert_eq!(c.cwnd(), 1.0);
        match c.poll_transmit(millis(1500)) {
            Some(TcpSegment::Data(d)) => assert!(d.retransmit && d.seq == 0),
            other => panic!("expected retransmit, got {other:?}"),
        }
    }

    #[test]
    fn recovery_exits_at_recovery_point() {
        let mut c = TcpSenderConn::new(1, TcpConfig);
        establish(&mut c);
        c.send_message(0, 1400 * 2);
        c.send_message(0, 1400 * 10);
        let _ = c.poll_transmit(0);
        let _ = c.poll_transmit(0);
        c.on_segment(millis(30), &ack(2));
        while c.poll_transmit(millis(30)).is_some() {}
        for _ in 0..3 {
            c.on_segment(millis(60), &ack(2));
        }
        let in_recovery_cwnd = c.cwnd();
        // Ack everything: recovery ends, cwnd deflates to ssthresh.
        c.on_segment(millis(90), &ack(12));
        assert!(c.cwnd() <= in_recovery_cwnd);
        assert_eq!(c.cwnd(), (4.0f64 / 2.0).max(2.0));
    }

    #[test]
    fn fin_closes_cleanly() {
        let mut c = TcpSenderConn::new(1, TcpConfig);
        establish(&mut c);
        c.send_message(0, 100);
        let _ = c.poll_transmit(0);
        c.finish();
        c.on_segment(millis(30), &ack(1));
        assert!(matches!(
            c.poll_transmit(millis(30)),
            Some(TcpSegment::Fin { .. })
        ));
        c.on_segment(millis(60), &TcpSegment::FinAck);
        assert!(c.is_closed());
    }

    #[test]
    fn a_message_of_65535_fragments_is_queued_whole() {
        let mut c = TcpSenderConn::new(1, TcpConfig);
        c.send_message(0, 65_535 * MSS);
        assert_eq!(c.stats().msgs_submitted, 1);
        assert_eq!(c.backlog_segments(), 65_535);
    }

    #[test]
    #[should_panic(expected = "a 91749001-byte message is 65536 fragments of 1400 bytes")]
    fn a_message_of_more_than_65535_fragments_is_refused() {
        // It used to wrap to 0 fragments: counted as submitted, and
        // nothing queued.
        TcpSenderConn::new(1, TcpConfig).send_message(0, 65_535 * MSS + 1);
    }

    #[test]
    #[should_panic(expected = "a 91750401-byte message is 65537 fragments of 1400 bytes")]
    fn a_message_that_would_wrap_short_is_refused() {
        // It used to wrap to 1 fragment: a 1,400-byte message delivered.
        TcpSenderConn::new(1, TcpConfig).send_message(0, 65_536 * MSS + 1);
    }
}
