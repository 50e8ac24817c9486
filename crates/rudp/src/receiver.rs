//! The receiving half of an RUDP connection: in-order delivery with a
//! reorder buffer, message reassembly, selective acknowledgements, and
//! adaptive-reliability skipping (the sender's `fwd_seq` floor).

use std::sync::Arc;

use iq_netsim::Time;
use iq_telemetry::{TelemetryEvent, TelemetrySink};

use crate::inline::InlineQueue;
use crate::ring::SeqRing;
use crate::segment::{AckSeg, DataSeg, SackRanges, Segment};
use crate::types::{ConnEvent, DeliveredMsg, ReceiverStats, RudpConfig};

/// What the reorder buffer keeps of a data segment until it is
/// delivered in order: the fields reassembly reads. The sequence number
/// is the buffer's key; `fwd_seq`, `tx_at` and `retransmit` are acted on
/// at arrival. 32 bytes against `DataSeg`'s 56, in every slot.
#[derive(Debug, Clone, Copy)]
struct BufferedFrag {
    msg_id: u64,
    frag_idx: u16,
    frag_count: u16,
    len: u32,
    marked: bool,
    msg_sent_at: Time,
}

/// In-progress reassembly of one application message.
#[derive(Debug, Clone)]
struct Assembly {
    msg_id: u64,
    frag_count: u16,
    next_frag: u16,
    bytes: u32,
    marked: bool,
    msg_sent_at: Time,
}

/// What a receiver ever reports, in a byte: [`ReceiverConn::take_events`]
/// maps back to [`ConnEvent`].
#[derive(Debug, Clone, Copy)]
enum RecvEvent {
    Connected,
    Finished,
}

/// The receiving endpoint state machine.
#[derive(Debug)]
pub struct ReceiverConn {
    cfg: Arc<RudpConfig>,
    conn_id: u32,
    established: bool,
    /// Next sequence number needed for in-order progress.
    next_required: u64,
    /// Highest sequence number observed.
    highest_seen: u64,
    /// Out-of-order segments above `next_required`, two slots inline
    /// (DESIGN.md §12): a flow at its first windows buffers at most one
    /// or two segments behind a hole.
    buffer: SeqRing<BufferedFrag, 2>,
    /// Current message being assembled from in-order fragments.
    assembly: Option<Assembly>,
    /// Set when a skipped hole may have cut a message in half; cleared
    /// at the next fragment with index 0.
    poisoned: bool,
    /// Completed messages awaiting pickup by the application. Inline
    /// first, like the sender's queues (DESIGN.md §12): a segment
    /// filling a hole releases the message buffered behind it too.
    delivered: InlineQueue<DeliveredMsg, 2>,
    /// Segments waiting to be put on the wire (SYN-ACK, ACKs, FIN-ACK).
    /// The driver pumps the outbox dry after every incoming segment, so
    /// it almost never holds more than one.
    outbox: InlineQueue<Segment, 1>,
    events: InlineQueue<RecvEvent, 2>,
    fin_seq: Option<u64>,
    finished: bool,
    /// In-order segments since the last ACK (decimation counter).
    unacked_in_order: u32,
    stats: ReceiverStats,
    telemetry: TelemetrySink,
    telemetry_flow: u64,
}

// Hand-written for `clone_from`, like [`crate::SenderConn`]'s: the
// model checker's scratch connections keep their buffers, and the
// exhaustive destructuring makes a new field a compile error until it
// is copied here.
impl Clone for ReceiverConn {
    fn clone(&self) -> Self {
        let Self {
            cfg,
            conn_id,
            established,
            next_required,
            highest_seen,
            buffer,
            assembly,
            poisoned,
            delivered,
            outbox,
            events,
            fin_seq,
            finished,
            unacked_in_order,
            stats,
            telemetry,
            telemetry_flow,
        } = self;
        Self {
            cfg: cfg.clone(),
            conn_id: *conn_id,
            established: *established,
            next_required: *next_required,
            highest_seen: *highest_seen,
            buffer: buffer.clone(),
            assembly: assembly.clone(),
            poisoned: *poisoned,
            delivered: delivered.clone(),
            outbox: outbox.clone(),
            events: events.clone(),
            fin_seq: *fin_seq,
            finished: *finished,
            unacked_in_order: *unacked_in_order,
            stats: *stats,
            telemetry: telemetry.clone(),
            telemetry_flow: *telemetry_flow,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            cfg,
            conn_id,
            established,
            next_required,
            highest_seen,
            buffer,
            assembly,
            poisoned,
            delivered,
            outbox,
            events,
            fin_seq,
            finished,
            unacked_in_order,
            stats,
            telemetry,
            telemetry_flow,
        } = src;
        if !Arc::ptr_eq(&self.cfg, cfg) {
            self.cfg = Arc::clone(cfg);
        }
        self.conn_id = *conn_id;
        self.established = *established;
        self.next_required = *next_required;
        self.highest_seen = *highest_seen;
        self.buffer.clone_from(buffer);
        self.assembly.clone_from(assembly);
        self.poisoned = *poisoned;
        self.delivered.clone_from(delivered);
        self.outbox.clone_from(outbox);
        self.events.clone_from(events);
        self.fin_seq = *fin_seq;
        self.finished = *finished;
        self.unacked_in_order = *unacked_in_order;
        self.stats = *stats;
        self.telemetry.clone_from(telemetry);
        self.telemetry_flow = *telemetry_flow;
    }
}

impl ReceiverConn {
    /// Creates a receiver for connection `conn_id`.
    pub fn new(conn_id: u32, cfg: RudpConfig) -> Self {
        Self::from_shared(conn_id, Arc::new(cfg))
    }

    /// Creates a receiver sharing an already-wrapped configuration (the
    /// [`crate::ConnBuilder`] path: many-flow setups build hundreds of
    /// connections from one config without cloning it each time).
    ///
    /// # Panics
    /// Panics if `cfg.recv_buffer_segments` exceeds 65,535: a SACK block
    /// stores its ranges as 16-bit offsets, which covers every sequence
    /// number a receiver can hold only up to that window.
    pub fn from_shared(conn_id: u32, cfg: Arc<RudpConfig>) -> Self {
        assert!(
            cfg.recv_buffer_segments <= u32::from(u16::MAX),
            "recv_buffer_segments is {}, above the 65,535 a SACK block can span",
            cfg.recv_buffer_segments
        );
        Self {
            cfg,
            conn_id,
            established: false,
            next_required: 0,
            highest_seen: 0,
            buffer: SeqRing::new(),
            assembly: None,
            poisoned: false,
            delivered: InlineQueue::new(),
            outbox: InlineQueue::new(),
            events: InlineQueue::new(),
            fin_seq: None,
            finished: false,
            unacked_in_order: 0,
            stats: ReceiverStats::default(),
            telemetry: TelemetrySink::disabled(),
            telemetry_flow: 0,
        }
    }

    /// Attaches a telemetry sink; subsequent events are emitted under
    /// `flow`.
    pub fn set_telemetry(&mut self, sink: TelemetrySink, flow: u64) {
        self.telemetry = sink;
        self.telemetry_flow = flow;
    }

    /// The attached telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Flow id telemetry is emitted under.
    pub fn telemetry_flow(&self) -> u64 {
        self.telemetry_flow
    }

    /// Connection identifier.
    pub fn conn_id(&self) -> u32 {
        self.conn_id
    }

    /// Counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Whether the sender has closed and everything owed was delivered.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Drains pending events.
    pub fn take_events(&mut self) -> Vec<ConnEvent> {
        std::iter::from_fn(|| self.events.pop_front())
            .map(|ev| match ev {
                RecvEvent::Connected => ConnEvent::Connected,
                RecvEvent::Finished => ConnEvent::Finished,
            })
            .collect()
    }

    /// Discards pending events (sinks that never inspect them).
    pub fn clear_events(&mut self) {
        self.events.clear();
    }

    /// Discards messages completed since the last call, keeping the
    /// buffer (the model checker has no application to hand them to).
    pub fn clear_messages(&mut self) {
        self.delivered.clear();
    }

    /// Drains messages completed since the last call.
    pub fn take_messages(&mut self) -> Vec<DeliveredMsg> {
        std::iter::from_fn(|| self.delivered.pop_front()).collect()
    }

    /// Drains completed messages into a caller-owned scratch buffer,
    /// replacing its contents: a caller that reuses one buffer pays no
    /// allocation per poll once it has grown to the largest batch.
    pub fn take_messages_into(&mut self, out: &mut Vec<DeliveredMsg>) {
        out.clear();
        out.extend(std::iter::from_fn(|| self.delivered.pop_front()));
    }

    /// Removes and returns the oldest completed message: the in-place
    /// drain, with no buffer on either side.
    pub fn pop_message(&mut self) -> Option<DeliveredMsg> {
        self.delivered.pop_front()
    }

    /// Remaining buffer space, in segments.
    fn recv_window(&self) -> u32 {
        self.cfg
            .recv_buffer_segments
            .saturating_sub(self.buffer.len() as u32)
            .max(1)
    }

    /// Builds the SACK range list from the reorder buffer, counting the
    /// ACKs whose block could not hold every hole (sim-plane counter:
    /// a pure function of the deterministic buffer contents).
    fn sack_ranges(&mut self) -> SackRanges {
        let mut ranges = SackRanges::new();
        for (seq, _) in self.buffer.iter() {
            if !ranges.extend_last(seq) && !ranges.push((seq, seq + 1)) {
                self.stats.sack_truncations += 1;
                break;
            }
        }
        ranges
    }

    fn push_ack(&mut self, echo_tx_at: Option<Time>) {
        let ack = AckSeg {
            cum_ack: self.next_required,
            highest_seen: self.highest_seen,
            sack: self.sack_ranges(),
            recv_window: self.recv_window(),
            loss_tolerance: self.cfg.loss_tolerance,
            echo_tx_at,
        };
        self.outbox.push_back(Segment::Ack(ack));
    }

    /// Processes an incoming segment.
    pub fn on_segment(&mut self, now: Time, seg: &Segment) {
        match seg {
            Segment::Syn { init_seq } => {
                if !self.established {
                    self.established = true;
                    self.next_required = *init_seq;
                    self.events.push_back(RecvEvent::Connected);
                }
                // (Re)send the SYN-ACK; duplicates are harmless.
                self.outbox.push_back(Segment::SynAck {
                    loss_tolerance: self.cfg.loss_tolerance,
                    recv_window: self.recv_window(),
                });
            }
            Segment::Data(d) => self.on_data(now, d),
            Segment::Fwd { fwd_seq } => {
                self.apply_fwd(now, *fwd_seq);
                self.push_ack(None);
                self.maybe_finish();
            }
            Segment::Fin { final_seq } => {
                if self.finished {
                    // Retransmitted FIN: our FIN-ACK was lost.
                    self.outbox.push_back(Segment::FinAck);
                } else {
                    self.fin_seq = Some(*final_seq);
                    // The sender only emits FIN once every sequence below
                    // `final_seq` is acknowledged or abandoned, so any
                    // remaining hole is an abandonment whose skip
                    // notification was lost: the FIN doubles as the final
                    // skip floor.
                    self.apply_fwd(now, *final_seq);
                    self.maybe_finish();
                }
            }
            // Sender-bound segments; ignore.
            _ => {}
        }
    }

    fn on_data(&mut self, now: Time, d: &DataSeg) {
        self.stats.segments_received += 1;
        // Past anything `recv_window` ever advertised: a conforming
        // sender cannot have sent it, and buffering it would grow the
        // reorder ring to span the distance. Dropped before it can move
        // `highest_seen`, the buffer or an ACK.
        let window_end = self
            .next_required
            .saturating_add(u64::from(self.cfg.recv_buffer_segments));
        if d.seq >= window_end {
            return;
        }
        self.highest_seen = self.highest_seen.max(d.seq + 1);
        let duplicate = d.seq < self.next_required || self.buffer.contains(d.seq);
        if duplicate {
            self.stats.duplicates += 1;
        } else {
            self.buffer.insert(
                d.seq,
                BufferedFrag {
                    msg_id: d.msg_id,
                    frag_idx: d.frag_idx,
                    frag_count: d.frag_count,
                    len: d.len,
                    marked: d.marked,
                    msg_sent_at: d.msg_sent_at,
                },
            );
        }
        self.apply_fwd(now, d.fwd_seq);
        let before = self.next_required;
        self.drain(now);
        let in_order = self.next_required > before && self.buffer.is_empty();
        // Karn: no RTT echo for retransmissions or duplicates.
        let echo = (!d.retransmit && !duplicate).then_some(d.tx_at);
        // ACK decimation: clean in-order progress may batch ACKs; any
        // reordering evidence (gap, duplicate, retransmission) acks
        // immediately so loss detection stays sharp.
        let ack_every = self.cfg.ack_every.max(1);
        if ack_every == 1 || !in_order || duplicate || d.retransmit {
            self.unacked_in_order = 0;
            self.push_ack(echo);
        } else {
            self.unacked_in_order += 1;
            if self.unacked_in_order >= ack_every {
                self.unacked_in_order = 0;
                self.push_ack(echo);
            }
        }
        self.maybe_finish();
    }

    /// Advances over sequence numbers the sender abandoned.
    fn apply_fwd(&mut self, now: Time, fwd_seq: u64) {
        if fwd_seq <= self.next_required {
            return;
        }
        while self.next_required < fwd_seq {
            let seq = self.next_required;
            if self.buffer.contains(seq) {
                self.deliver_next(now);
            } else {
                // A hole the sender told us to skip.
                self.stats.segments_skipped += 1;
                self.telemetry
                    .emit(now, self.telemetry_flow, TelemetryEvent::GapSkipped { seq });
                self.poison();
                self.next_required += 1;
            }
        }
        self.drain(now);
    }

    /// Delivers the contiguous run starting at `next_required`.
    fn drain(&mut self, now: Time) {
        while self.buffer.contains(self.next_required) {
            self.deliver_next(now);
        }
    }

    /// Drops a partially assembled message cut by a skipped fragment.
    fn poison(&mut self) {
        if self.assembly.take().is_some() {
            self.stats.msgs_dropped_partial += 1;
        }
        self.poisoned = true;
    }

    fn deliver_next(&mut self, now: Time) {
        let seq = self.next_required;
        let d = self.buffer.take(seq).expect("caller checked presence");
        self.next_required += 1;

        if d.frag_idx == 0 {
            // A fresh message clears any poisoning.
            if self.assembly.take().is_some() {
                // Previous assembly never completed (shouldn't happen
                // without skips, but be robust).
                self.stats.msgs_dropped_partial += 1;
            }
            self.poisoned = false;
            self.assembly = Some(Assembly {
                msg_id: d.msg_id,
                frag_count: d.frag_count,
                next_frag: 0,
                bytes: 0,
                marked: d.marked,
                msg_sent_at: d.msg_sent_at,
            });
        }
        if self.poisoned {
            // Tail fragments of a message whose head was skipped.
            return;
        }
        let mismatch = match self.assembly.as_ref() {
            None => return,
            Some(asm) => asm.msg_id != d.msg_id || asm.next_frag != d.frag_idx,
        };
        if mismatch {
            // Unexpected fragment: the message was cut somewhere.
            self.poison();
            return;
        }
        let asm = self.assembly.as_mut().expect("checked above");
        asm.bytes += d.len;
        asm.next_frag += 1;
        if asm.next_frag == asm.frag_count {
            let asm = self.assembly.take().expect("just borrowed");
            self.stats.msgs_delivered += 1;
            self.telemetry
                .emit_with(now, self.telemetry_flow, || TelemetryEvent::MsgDelivered {
                    msg_id: asm.msg_id,
                    size: asm.bytes,
                    marked: asm.marked,
                    latency_ns: now.saturating_sub(asm.msg_sent_at),
                });
            self.delivered.push_back(DeliveredMsg {
                msg_id: asm.msg_id,
                size: asm.bytes,
                marked: asm.marked,
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
                self.events.push_back(RecvEvent::Finished);
                self.outbox.push_back(Segment::FinAck);
            }
        }
    }

    /// Produces the next outgoing segment (SYN-ACK / ACK / FIN-ACK).
    pub fn poll_transmit(&mut self, _now: Time) -> Option<Segment> {
        self.outbox.pop_front()
    }

    /// Whether the receiver already holds `seq` (delivered, skipped, or
    /// buffered out of order). Used by tests and the model checker to
    /// detect spurious retransmissions of data the receiver has.
    pub fn has_segment(&self, seq: u64) -> bool {
        seq < self.next_required || self.buffer.contains(seq)
    }

    /// Folds the full control state into a model-checker digest (the
    /// receiving-side counterpart of [`crate::SenderConn::state_digest`]).
    pub fn state_digest(&self, now: Time, h: &mut iq_telemetry::StateHasher) {
        h.write_bool(self.established);
        h.write_u64(self.next_required);
        h.write_u64(self.highest_seen);
        h.write_u64(self.buffer.len() as u64);
        for (seq, d) in self.buffer.iter() {
            h.write_u64(seq);
            h.write_u64(d.msg_id);
            h.write_u64(u64::from(d.frag_idx));
            h.write_u64(u64::from(d.frag_count));
            h.write_u64(u64::from(d.len));
            h.write_bool(d.marked);
        }
        h.write_bool(self.assembly.is_some());
        if let Some(a) = &self.assembly {
            h.write_u64(a.msg_id);
            h.write_u64(u64::from(a.frag_count));
            h.write_u64(u64::from(a.next_frag));
            h.write_u64(u64::from(a.bytes));
            h.write_bool(a.marked);
        }
        h.write_bool(self.poisoned);
        h.write_u64(self.delivered.len() as u64);
        h.write_u64(self.outbox.len() as u64);
        for seg in self.outbox.iter() {
            seg.state_digest(now, h);
        }
        h.write_bool(self.fin_seq.is_some());
        h.write_u64(self.fin_seq.unwrap_or(0));
        h.write_bool(self.finished);
        h.write_u64(u64::from(self.unacked_in_order));
        h.write_u64(self.events.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recv(tolerance: f64) -> ReceiverConn {
        ReceiverConn::new(
            1,
            RudpConfig {
                loss_tolerance: tolerance,
                ..RudpConfig::default()
            },
        )
    }

    fn data(seq: u64, msg_id: u64, frag_idx: u16, frag_count: u16, marked: bool) -> Segment {
        Segment::Data(DataSeg {
            seq,
            msg_id,
            frag_idx,
            frag_count,
            len: 1400,
            marked,
            fwd_seq: 0,
            msg_sent_at: 0,
            tx_at: 5,
            retransmit: false,
        })
    }

    fn last_ack(r: &mut ReceiverConn) -> AckSeg {
        let mut last = None;
        while let Some(seg) = r.poll_transmit(0) {
            if let Segment::Ack(a) = seg {
                last = Some(a);
            }
        }
        last.expect("no ack produced")
    }

    #[test]
    fn syn_produces_synack_with_tolerance() {
        let mut r = recv(0.4);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        match r.poll_transmit(0) {
            Some(Segment::SynAck { loss_tolerance, .. }) => {
                assert!((loss_tolerance - 0.4).abs() < 1e-12)
            }
            other => panic!("expected SynAck, got {other:?}"),
        }
        assert!(matches!(r.take_events().as_slice(), [ConnEvent::Connected]));
    }

    #[test]
    fn outbox_starts_at_one_slot_and_still_holds_a_burst() {
        let mut r = recv(0.0);
        // The pumped pattern: every segment's reply is sent before the
        // next segment arrives, and the one inline slot carries it.
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        assert!(!r.outbox.spilled());
        assert!(matches!(r.poll_transmit(0), Some(Segment::SynAck { .. })));
        r.on_segment(1, &data(0, 0, 0, 1, true));
        assert!(!r.outbox.spilled());
        assert!(matches!(r.poll_transmit(1), Some(Segment::Ack(_))));
        // Unpumped: a duplicate SYN, three data segments and the FIN
        // queue five replies; the second one spills, and they come out
        // in the order they went in.
        r.on_segment(2, &Segment::Syn { init_seq: 0 });
        assert!(!r.outbox.spilled());
        for seq in 1..4 {
            r.on_segment(2 + seq, &data(seq, seq, 0, 1, true));
            assert!(r.outbox.spilled());
        }
        r.on_segment(6, &Segment::Fin { final_seq: 4 });
        let out: Vec<Segment> = std::iter::from_fn(|| r.poll_transmit(6)).collect();
        let cum_acks: Vec<u64> = out
            .iter()
            .filter_map(|s| match s {
                Segment::Ack(a) => Some(a.cum_ack),
                _ => None,
            })
            .collect();
        assert!(matches!(out[0], Segment::SynAck { .. }));
        assert_eq!(cum_acks, [2, 3, 4]);
        assert!(matches!(out[4], Segment::FinAck));
        assert_eq!(out.len(), 5);
        assert!(!r.outbox.spilled());
    }

    #[test]
    fn in_order_single_fragment_messages_deliver() {
        let mut r = recv(0.0);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        for seq in 0..3 {
            r.on_segment(10 + seq, &data(seq, seq, 0, 1, true));
        }
        let msgs = r.take_messages();
        assert_eq!(msgs.len(), 3);
        assert_eq!(msgs[0].msg_id, 0);
        assert_eq!(msgs[2].delivered_at, 12);
        assert_eq!(last_ack(&mut r).cum_ack, 3);
    }

    #[test]
    fn multi_fragment_message_assembles() {
        let mut r = recv(0.0);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        r.on_segment(1, &data(0, 7, 0, 3, true));
        r.on_segment(2, &data(1, 7, 1, 3, true));
        assert!(r.take_messages().is_empty());
        r.on_segment(3, &data(2, 7, 2, 3, true));
        let msgs = r.take_messages();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].size, 3 * 1400);
        assert_eq!(msgs[0].msg_id, 7);
    }

    #[test]
    fn out_of_order_buffers_and_sacks() {
        let mut r = recv(0.0);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        // Seq 1 and 3 arrive; 0 and 2 missing.
        r.on_segment(1, &data(1, 1, 0, 1, true));
        r.on_segment(2, &data(3, 3, 0, 1, true));
        let a = last_ack(&mut r);
        assert_eq!(a.cum_ack, 0);
        assert_eq!(a.highest_seen, 4);
        assert_eq!(a.sack, vec![(1, 2), (3, 4)]);
        // Hole at 0 fills: 0 and 1 deliver, 3 still buffered.
        r.on_segment(3, &data(0, 0, 0, 1, true));
        let a = last_ack(&mut r);
        assert_eq!(a.cum_ack, 2);
        assert_eq!(a.sack, vec![(3, 4)]);
        assert_eq!(r.take_messages().len(), 2);
    }

    #[test]
    fn fwd_skips_hole_and_delivers_beyond() {
        let mut r = recv(0.4);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        // Seqs 1, 2 arrive; 0 was abandoned by the sender.
        r.on_segment(1, &data(1, 1, 0, 1, true));
        r.on_segment(2, &data(2, 2, 0, 1, true));
        assert!(r.take_messages().is_empty());
        r.on_segment(3, &Segment::Fwd { fwd_seq: 1 });
        let msgs = r.take_messages();
        assert_eq!(msgs.len(), 2);
        assert_eq!(r.stats().segments_skipped, 1);
        assert_eq!(last_ack(&mut r).cum_ack, 3);
    }

    #[test]
    fn piggybacked_fwd_on_data_works_too() {
        let mut r = recv(0.4);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        // Seq 0 lost+abandoned; seq 1 carries fwd_seq = 1.
        let mut d = match data(1, 1, 0, 1, true) {
            Segment::Data(d) => d,
            _ => unreachable!(),
        };
        d.fwd_seq = 1;
        r.on_segment(1, &Segment::Data(d));
        assert_eq!(r.take_messages().len(), 1);
        assert_eq!(r.stats().segments_skipped, 1);
    }

    #[test]
    fn skipped_fragment_drops_whole_message() {
        let mut r = recv(0.4);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        // Message 5 spans seqs 0..3; seq 1 is skipped.
        r.on_segment(1, &data(0, 5, 0, 3, true));
        r.on_segment(2, &data(2, 5, 2, 3, true));
        r.on_segment(3, &Segment::Fwd { fwd_seq: 2 });
        // Next message arrives complete.
        r.on_segment(4, &data(3, 6, 0, 1, true));
        let msgs = r.take_messages();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].msg_id, 6);
        assert_eq!(r.stats().msgs_dropped_partial, 1);
    }

    #[test]
    fn duplicates_are_counted_and_reacked() {
        let mut r = recv(0.0);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        r.on_segment(1, &data(0, 0, 0, 1, true));
        r.on_segment(2, &data(0, 0, 0, 1, true));
        assert_eq!(r.stats().duplicates, 1);
        assert_eq!(r.take_messages().len(), 1);
        // The duplicate still produced an ACK (with no RTT echo).
        let a = last_ack(&mut r);
        assert_eq!(a.cum_ack, 1);
        assert_eq!(a.echo_tx_at, None);
    }

    #[test]
    fn retransmissions_do_not_echo_rtt() {
        let mut r = recv(0.0);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        let mut d = match data(0, 0, 0, 1, true) {
            Segment::Data(d) => d,
            _ => unreachable!(),
        };
        d.retransmit = true;
        r.on_segment(1, &Segment::Data(d));
        assert_eq!(last_ack(&mut r).echo_tx_at, None);
    }

    #[test]
    fn fin_after_all_data_finishes() {
        let mut r = recv(0.0);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        r.on_segment(1, &data(0, 0, 0, 1, true));
        r.on_segment(2, &Segment::Fin { final_seq: 1 });
        assert!(r.is_finished());
        let outs: Vec<Segment> = std::iter::from_fn(|| r.poll_transmit(0)).collect();
        assert!(outs.iter().any(|s| matches!(s, Segment::FinAck)));
        assert!(r
            .take_events()
            .iter()
            .any(|e| matches!(e, ConnEvent::Finished)));
    }

    #[test]
    fn fin_skips_abandoned_holes() {
        // The sender only emits FIN when every lower sequence is acked
        // or abandoned, so a hole at FIN time is an abandonment whose
        // skip notification was lost: the receiver must not deadlock.
        let mut r = recv(0.4);
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        r.on_segment(1, &data(1, 1, 0, 1, true)); // 0 missing (abandoned)
        r.on_segment(2, &Segment::Fin { final_seq: 2 });
        assert!(r.is_finished());
        assert_eq!(r.stats().segments_skipped, 1);
        // The buffered message behind the hole was delivered.
        assert_eq!(r.take_messages().len(), 1);
    }

    #[test]
    fn ack_decimation_batches_clean_progress() {
        let mut r = ReceiverConn::new(
            1,
            RudpConfig {
                ack_every: 4,
                ..RudpConfig::default()
            },
        );
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        while r.poll_transmit(0).is_some() {}
        // Seven clean in-order segments: only one ACK (at the 4th).
        for seq in 0..7 {
            r.on_segment(1 + seq, &data(seq, seq, 0, 1, true));
        }
        let acks: Vec<_> = std::iter::from_fn(|| r.poll_transmit(8))
            .filter(|s| matches!(s, Segment::Ack(_)))
            .collect();
        assert_eq!(acks.len(), 1);
        // A gap forces an immediate ACK despite decimation.
        r.on_segment(9, &data(9, 9, 0, 1, true)); // hole at 7, 8
        let acks: Vec<_> = std::iter::from_fn(|| r.poll_transmit(10))
            .filter(|s| matches!(s, Segment::Ack(_)))
            .collect();
        assert_eq!(acks.len(), 1);
    }

    #[test]
    fn window_shrinks_as_buffer_fills() {
        let mut r = ReceiverConn::new(
            1,
            RudpConfig {
                recv_buffer_segments: 4,
                ..RudpConfig::default()
            },
        );
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        // Out-of-order segments pile up in the buffer.
        r.on_segment(1, &data(1, 1, 0, 1, true));
        r.on_segment(2, &data(2, 2, 0, 1, true));
        let a = last_ack(&mut r);
        assert_eq!(a.recv_window, 2);
    }

    #[test]
    fn data_past_the_advertised_window_is_dropped_and_counted() {
        let mut r = ReceiverConn::new(
            1,
            RudpConfig {
                recv_buffer_segments: 8,
                ..RudpConfig::default()
            },
        );
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        while r.poll_transmit(0).is_some() {}
        // A hole at 0 keeps `next_required` at 0: the window is [0, 8).
        r.on_segment(1, &data(1, 1, 0, 1, true));
        // Its last sequence number is buffered and SACKed …
        r.on_segment(2, &data(7, 7, 0, 1, true));
        let a = last_ack(&mut r);
        assert_eq!(a.highest_seen, 8);
        assert_eq!(a.sack, vec![(1, 2), (7, 8)]);
        // … the one after it is not: no ACK, nothing moved.
        r.on_segment(3, &data(8, 8, 0, 1, true));
        assert!(r.poll_transmit(3).is_none());
        assert!(!r.has_segment(8));
        assert_eq!(r.highest_seen, 8);
        assert_eq!(r.stats().segments_received, 3);
        // Neither is one that would have grown the ring to 2⁴⁰ slots.
        r.on_segment(4, &data(1 << 40, 9, 0, 1, true));
        assert!(r.poll_transmit(4).is_none());
        assert!(!r.has_segment(1 << 40));
        assert_eq!(r.highest_seen, 8);
        assert_eq!(r.stats().segments_received, 4);
        // The window moves with `next_required`: once the hole fills,
        // seq 8 is inside it.
        r.on_segment(5, &data(0, 0, 0, 1, true));
        r.on_segment(6, &data(8, 8, 0, 1, true));
        assert!(r.has_segment(8));
        assert_eq!(last_ack(&mut r).sack, vec![(7, 9)]);
    }

    #[test]
    #[should_panic(expected = "recv_buffer_segments is 65536")]
    fn a_window_a_sack_block_cannot_span_is_refused() {
        ReceiverConn::new(
            1,
            RudpConfig {
                recv_buffer_segments: 65_536,
                ..RudpConfig::default()
            },
        );
    }

    #[test]
    fn connection_state_is_compact() {
        // Paid by every flow of a fleet when the world is built
        // (DESIGN.md §12); a new field should show up here.
        for (name, size, ceiling) in [
            ("ReceiverConn", std::mem::size_of::<ReceiverConn>(), 456),
            ("Segment", std::mem::size_of::<Segment>(), 96),
            ("RecvEvent", std::mem::size_of::<RecvEvent>(), 1),
        ] {
            // `cargo test … connection_state_is_compact -- --nocapture`
            // is the struct-size probe.
            println!("{name}: {size} bytes (ceiling {ceiling})");
            assert!(size <= ceiling, "{name} grew to {size} bytes");
        }
        // A wire past the pooled payload slot would silently ride the
        // `Arc` tier, one allocator call a packet.
        let wire = std::mem::size_of::<iq_netsim::Wire<Segment>>();
        assert!(
            wire <= iq_netsim::Payload::POOLED_BYTES,
            "Wire<Segment> is {wire} bytes, the pooled payload slot {}",
            iq_netsim::Payload::POOLED_BYTES
        );
    }
}
