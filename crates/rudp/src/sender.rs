//! The sending half of an RUDP connection: a pure state machine with no
//! dependency on the simulator's event loop. Inputs are incoming
//! segments, clock ticks, and application messages; outputs are segments
//! to transmit (via [`SenderConn::poll_transmit`]) and [`ConnEvent`]s.

use std::num::NonZeroU16;
use std::sync::Arc;

use iq_netsim::{time, RttEstimator, Time, TimeDelta};
use iq_telemetry::{CwndReason, TelemetryEvent, TelemetrySink};

use crate::cc::CcController;
use crate::inline::InlineQueue;
use crate::meter::{NetCond, PeriodMeter};
use crate::ring::SeqRing;
use crate::segment::{AckSeg, DataSeg, Segment, MSS};
use crate::types::{ConnEvent, RudpConfig, SendOutcome, SenderStats};

/// Where the measured error ratio sits relative to the registered
/// callback thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreshZone {
    Low,
    Mid,
    High,
}

/// A pending [`ConnEvent`], in a byte. The three period events carry no
/// snapshot of their own: [`SenderConn::pop_event`] reads it from the
/// meter, which holds the latest closed period's.
#[derive(Debug, Clone, Copy)]
enum SendEvent {
    Connected,
    PeriodEnded,
    UpperThreshold,
    LowerThreshold,
    Finished,
}

/// Connection lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderState {
    /// Not yet started; a SYN will be emitted on the first poll.
    Idle,
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Data transfer.
    Established,
    /// FIN sent, waiting for FIN-ACK.
    FinSent,
    /// Fully closed.
    Closed,
}

/// ACKs above a segment that do not cover it before it is declared lost
/// (fast retransmit).
const DUPACK_THRESHOLD: u8 = 3;

/// Lower clamp on the retransmission timeout.
const MIN_RTO: TimeDelta = time::millis(100);

/// Upper clamp on the retransmission timeout.
const MAX_RTO: TimeDelta = 4 * time::SECOND;

// A queued fragment holds its length in 16 bits, and every fragment
// carries at least one byte.
const _: () = assert!(MSS >= 1 && MSS <= u16::MAX as u32);

/// A fragment of a submitted message, from submission until it is
/// acknowledged or abandoned: what goes on the wire with it, and its
/// transmit state (all zero until the first transmission). 32 bytes, and
/// so is `Option<Frag>`: a slot of the fragment ring is paid for by
/// every connection, and a backlog by every fragment queued. Past the
/// three 64-bit fields everything packs into one word: `len` fits 16
/// bits because [`MSS`] does (asserted at compile time), `dup_hint` a
/// byte because it stops counting at [`DUPACK_THRESHOLD`], the three
/// flags share a byte, and `frag_count` is never zero, the niche that
/// makes a ring slot's `Option` free. `Copy`, so that cloning a ring's
/// inline slab is a block copy.
#[derive(Debug, Clone, Copy)]
struct Frag {
    msg_id: u64,
    msg_sent_at: Time,
    /// Last transmission time.
    tx_at: Time,
    frag_idx: u16,
    frag_count: NonZeroU16,
    len: u16,
    /// Number of ACKs that covered data above this seq without covering
    /// it (loss-detection counter). It stops once the fragment is
    /// declared lost, at [`DUPACK_THRESHOLD`] at most, and saturates.
    dup_hint: u8,
    /// [`Frag::MARKED`] | [`Frag::RETRANSMITTED`] | [`Frag::LOST_PENDING`].
    flags: u8,
}

impl Frag {
    /// The message is marked (must be delivered).
    const MARKED: u8 = 1;
    /// It has been retransmitted at least once (Karn).
    const RETRANSMITTED: u8 = 1 << 1;
    /// Declared lost and waiting in the retransmit queue.
    const LOST_PENDING: u8 = 1 << 2;

    fn marked(&self) -> bool {
        self.flags & Self::MARKED != 0
    }

    fn retransmitted(&self) -> bool {
        self.flags & Self::RETRANSMITTED != 0
    }

    fn lost_pending(&self) -> bool {
        self.flags & Self::LOST_PENDING != 0
    }

    fn set(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }
}

/// The sending endpoint state machine.
#[derive(Debug)]
pub struct SenderConn {
    cfg: Arc<RudpConfig>,
    conn_id: u32,
    state: SenderState,
    /// Next sequence number to assign at first transmission.
    next_seq: u64,
    /// Every fragment submitted and not yet acked or abandoned, keyed
    /// by the sequence number it has or will get — fragments go out in
    /// submission order, so the `i`-th unsent one is `next_seq + i`.
    /// Seqs below `next_seq` are in flight; `[next_seq, next_seq +
    /// unsent)` wait for their first transmission, which flips a slot
    /// in place instead of moving the fragment between two containers.
    /// Like every container of a connection the ring starts on inline
    /// storage (a flow's first messages cost no allocator call) and
    /// moves to the heap past that; DESIGN.md §12 gives each size.
    frags: SeqRing<Frag>,
    /// Fragments in `frags` not yet transmitted for the first time.
    unsent: usize,
    /// Sequence numbers awaiting retransmission.
    retx_queue: InlineQueue<u64, 1>,
    /// Peer's advertised window, segments.
    peer_window: u32,
    /// Peer's loss tolerance, learned from the SYN-ACK.
    peer_tolerance: f64,
    /// Whether a standalone `Fwd` must be emitted.
    fwd_dirty: bool,
    /// Whether the SYN (or FIN) needs (re)sending.
    handshake_dirty: bool,
    handshake_deadline: Time,
    /// The congestion controller, stored inline (enum dispatch): the
    /// per-ACK hooks must not box or allocate.
    cc: CcController,
    rtt: RttEstimator,
    meter: PeriodMeter,
    /// A period end and its threshold callback arrive together, after a
    /// `Connected` an agent may not have drained yet.
    events: InlineQueue<SendEvent, 4>,
    next_msg_id: u64,
    finish_requested: bool,
    discard_unmarked: bool,
    abandoned_total: u64,
    thresh_zone: ThreshZone,
    stats: SenderStats,
    telemetry: TelemetrySink,
    telemetry_flow: u64,
    /// Sequence numbers one ACK's loss-detection sweep declared lost,
    /// between the sweep and their handling; empty outside `on_ack`.
    scratch_seqs: InlineQueue<u64, 1>,
}

// Hand-written for `clone_from`: the model checker refills one scratch
// connection per transition (DESIGN.md §13), which must reuse the queue
// and ring allocations instead of dropping and rebuilding them. Both
// methods destructure exhaustively, so adding a field without deciding
// how it is copied does not compile.
impl Clone for SenderConn {
    fn clone(&self) -> Self {
        let Self {
            cfg,
            conn_id,
            state,
            next_seq,
            frags,
            unsent,
            retx_queue,
            peer_window,
            peer_tolerance,
            fwd_dirty,
            handshake_dirty,
            handshake_deadline,
            cc,
            rtt,
            meter,
            events,
            next_msg_id,
            finish_requested,
            discard_unmarked,
            abandoned_total,
            thresh_zone,
            stats,
            telemetry,
            telemetry_flow,
            scratch_seqs,
        } = self;
        Self {
            cfg: cfg.clone(),
            conn_id: *conn_id,
            state: *state,
            next_seq: *next_seq,
            frags: frags.clone(),
            unsent: *unsent,
            retx_queue: retx_queue.clone(),
            peer_window: *peer_window,
            peer_tolerance: *peer_tolerance,
            fwd_dirty: *fwd_dirty,
            handshake_dirty: *handshake_dirty,
            handshake_deadline: *handshake_deadline,
            cc: cc.clone(),
            rtt: rtt.clone(),
            meter: meter.clone(),
            events: events.clone(),
            next_msg_id: *next_msg_id,
            finish_requested: *finish_requested,
            discard_unmarked: *discard_unmarked,
            abandoned_total: *abandoned_total,
            thresh_zone: *thresh_zone,
            stats: *stats,
            telemetry: telemetry.clone(),
            telemetry_flow: *telemetry_flow,
            scratch_seqs: scratch_seqs.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            cfg,
            conn_id,
            state,
            next_seq,
            frags,
            unsent,
            retx_queue,
            peer_window,
            peer_tolerance,
            fwd_dirty,
            handshake_dirty,
            handshake_deadline,
            cc,
            rtt,
            meter,
            events,
            next_msg_id,
            finish_requested,
            discard_unmarked,
            abandoned_total,
            thresh_zone,
            stats,
            telemetry,
            telemetry_flow,
            scratch_seqs,
        } = src;
        if !Arc::ptr_eq(&self.cfg, cfg) {
            self.cfg = Arc::clone(cfg);
        }
        self.conn_id = *conn_id;
        self.state = *state;
        self.next_seq = *next_seq;
        self.frags.clone_from(frags);
        self.unsent = *unsent;
        self.retx_queue.clone_from(retx_queue);
        self.peer_window = *peer_window;
        self.peer_tolerance = *peer_tolerance;
        self.fwd_dirty = *fwd_dirty;
        self.handshake_dirty = *handshake_dirty;
        self.handshake_deadline = *handshake_deadline;
        self.cc.clone_from(cc);
        self.rtt.clone_from(rtt);
        self.meter.clone_from(meter);
        self.events.clone_from(events);
        self.next_msg_id = *next_msg_id;
        self.finish_requested = *finish_requested;
        self.discard_unmarked = *discard_unmarked;
        self.abandoned_total = *abandoned_total;
        self.thresh_zone = *thresh_zone;
        self.stats = *stats;
        self.telemetry.clone_from(telemetry);
        self.telemetry_flow = *telemetry_flow;
        self.scratch_seqs.clone_from(scratch_seqs);
    }
}

impl SenderConn {
    /// Creates a sender for connection `conn_id`.
    pub fn new(conn_id: u32, cfg: RudpConfig) -> Self {
        Self::from_shared(conn_id, Arc::new(cfg))
    }

    /// Creates a sender sharing an already-wrapped configuration (the
    /// [`crate::ConnBuilder`] path: many-flow setups build hundreds of
    /// connections from one config without cloning it each time).
    pub fn from_shared(conn_id: u32, cfg: Arc<RudpConfig>) -> Self {
        let cc = CcController::new(&cfg.cc.algorithm);
        let discard_unmarked = cfg.discard_unmarked;
        Self {
            cfg,
            conn_id,
            state: SenderState::Idle,
            next_seq: 0,
            frags: SeqRing::new(),
            unsent: 0,
            retx_queue: InlineQueue::new(),
            peer_window: 1,
            peer_tolerance: 0.0,
            fwd_dirty: false,
            handshake_dirty: true,
            handshake_deadline: 0,
            cc,
            rtt: RttEstimator::new(),
            meter: PeriodMeter::new(),
            events: InlineQueue::new(),
            next_msg_id: 0,
            finish_requested: false,
            discard_unmarked,
            abandoned_total: 0,
            thresh_zone: ThreshZone::Mid,
            stats: SenderStats::default(),
            telemetry: TelemetrySink::disabled(),
            telemetry_flow: 0,
            scratch_seqs: InlineQueue::new(),
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

    /// Current lifecycle state.
    pub fn state(&self) -> SenderState {
        self.state
    }

    /// Counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Most recent network-condition snapshot.
    pub fn net_cond(&self) -> NetCond {
        let mut c = self.meter.last();
        c.srtt_ms = self.rtt.srtt_ms();
        c.cwnd = self.cc.cwnd();
        c
    }

    /// Current congestion window, segments.
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Stable name of the congestion-control algorithm this connection
    /// runs ([`crate::CcAlgorithm::name`]).
    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }

    /// Applies a coordination re-adjustment to the window (IQ-RUDP's
    /// reaction to a reported application adaptation). Returns the
    /// resulting window.
    pub fn scale_cwnd(&mut self, factor: f64) -> f64 {
        self.cc.scale(factor)
    }

    /// Toggles discard-unmarked coordination.
    pub fn set_discard_unmarked(&mut self, on: bool) {
        self.discard_unmarked = on;
    }

    /// Whether discard-unmarked coordination is active.
    pub fn discard_unmarked(&self) -> bool {
        self.discard_unmarked
    }

    /// Peer loss tolerance learned during the handshake.
    pub fn peer_tolerance(&self) -> f64 {
        self.peer_tolerance
    }

    /// Untransmitted + unacknowledged segments (application back-pressure
    /// signal).
    pub fn backlog_segments(&self) -> usize {
        self.frags.len()
    }

    /// Transmitted segments not yet acked or abandoned.
    fn inflight_len(&self) -> usize {
        self.frags.len() - self.unsent
    }

    /// The in-flight fragments (seqs below `next_seq`), ascending.
    fn inflight(&self) -> impl Iterator<Item = (u64, &Frag)> {
        let next_seq = self.next_seq;
        self.frags.iter().take_while(move |&(seq, _)| seq < next_seq)
    }

    /// The retransmission timeout, within RUDP's clamps.
    fn rto(&self) -> TimeDelta {
        self.rtt.rto(MIN_RTO, MAX_RTO)
    }

    /// The earliest in-flight segment not already declared lost, and
    /// when it was last transmitted: the one the RTO runs on.
    fn earliest_outstanding(&self) -> Option<(u64, Time)> {
        self.inflight()
            .find(|(_, e)| !e.lost_pending())
            .map(|(seq, e)| (seq, e.tx_at))
    }

    /// Whether everything submitted has been delivered or abandoned and
    /// the connection closed.
    pub fn is_closed(&self) -> bool {
        self.state == SenderState::Closed
    }

    /// Drains pending events ([`Self::pop_event`] until empty).
    pub fn take_events(&mut self) -> Vec<ConnEvent> {
        std::iter::from_fn(|| self.pop_event()).collect()
    }

    /// Removes and returns the oldest pending event: the in-place drain,
    /// with no buffer on either side.
    ///
    /// A period event is queued as a one-byte tag and gets its
    /// [`NetCond`] here, from the *latest closed period*. Drained after
    /// every input — as every agent does — that is the period the event
    /// announced; a caller that lets a further period close first sees
    /// the newer snapshot on the older event.
    pub fn pop_event(&mut self) -> Option<ConnEvent> {
        let event = self.events.pop_front()?;
        let cond = self.meter.last();
        Some(match event {
            SendEvent::Connected => ConnEvent::Connected,
            SendEvent::PeriodEnded => ConnEvent::PeriodEnded(cond),
            SendEvent::UpperThreshold => ConnEvent::UpperThreshold(cond),
            SendEvent::LowerThreshold => ConnEvent::LowerThreshold(cond),
            SendEvent::Finished => ConnEvent::Finished,
        })
    }

    /// Discards pending events (sinks that never inspect them).
    pub fn clear_events(&mut self) {
        self.events.clear();
    }

    /// Submits an application message of `size` bytes.
    ///
    /// The message is fragmented into MSS-sized segments. Returns
    /// [`SendOutcome::Discarded`] when the message is unmarked and
    /// discard-unmarked coordination is active.
    ///
    /// # Panics
    /// Panics if `size` is 0 or more than 65,535 fragments of [`MSS`]
    /// bytes, the most a segment's fragment count can number.
    pub fn send_message(&mut self, now: Time, size: u32, marked: bool) -> SendOutcome {
        assert!(size > 0, "empty messages are not allowed");
        let frags = size.div_ceil(MSS);
        let frag_count = u16::try_from(frags)
            .ok()
            .and_then(NonZeroU16::new)
            .unwrap_or_else(|| {
                panic!(
                    "a {size}-byte message is {frags} fragments of {MSS} bytes, above the \
                     65,535 a message may have"
                )
            });
        if self.discard_unmarked && !marked {
            self.stats.msgs_discarded += 1;
            self.telemetry
                .emit(now, self.telemetry_flow, TelemetryEvent::Unmarked { size });
            return SendOutcome::Discarded;
        }
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        self.stats.msgs_submitted += 1;
        let mut remaining = size;
        for idx in 0..frag_count.get() {
            let len = remaining.min(MSS);
            remaining -= len;
            self.frags.insert(
                self.next_seq + self.unsent as u64,
                Frag {
                    msg_id,
                    msg_sent_at: now,
                    tx_at: 0,
                    frag_idx: idx,
                    frag_count,
                    len: u16::try_from(len).expect("MSS fits 16 bits"),
                    dup_hint: 0,
                    flags: if marked { Frag::MARKED } else { 0 },
                },
            );
            self.unsent += 1;
        }
        SendOutcome::Queued {
            msg_id,
            fragments: frag_count.get(),
        }
    }

    /// Signals that the application will send no more messages; a FIN
    /// follows once everything outstanding completes.
    pub fn finish(&mut self) {
        self.finish_requested = true;
    }

    /// All sequence numbers below this are acknowledged or abandoned.
    fn done_floor(&self) -> u64 {
        self.frags
            .first_seq()
            .map_or(self.next_seq, |seq| seq.min(self.next_seq))
    }

    /// Whether the loss tolerance admits abandoning one more segment.
    fn may_abandon(&self) -> bool {
        if self.peer_tolerance <= 0.0 {
            return false;
        }
        let completed = self.stats.segments_acked + self.abandoned_total;
        if completed == 0 {
            return true;
        }
        ((self.abandoned_total + 1) as f64 / (completed + 1) as f64) < self.peer_tolerance
    }

    /// Handles an in-flight segment declared lost: retransmit or
    /// abandon.
    fn on_segment_lost(&mut self, now: Time, seq: u64) {
        let Some(entry) = self.frags.get(seq) else {
            return;
        };
        if entry.lost_pending() {
            return;
        }
        let marked = entry.marked();
        self.meter.on_loss();
        if marked || !self.may_abandon() {
            let entry = self.frags.get_mut(seq).expect("checked above");
            entry.set(Frag::LOST_PENDING, true);
            self.retx_queue.push_back(seq);
        } else {
            self.frags.take(seq);
            self.abandoned_total += 1;
            self.stats.segments_abandoned += 1;
            self.fwd_dirty = true;
            self.telemetry.emit(
                now,
                self.telemetry_flow,
                TelemetryEvent::SegmentDropped { seq, marked },
            );
        }
    }

    /// Processes an incoming segment.
    pub fn on_segment(&mut self, now: Time, seg: &Segment) {
        match seg {
            Segment::SynAck {
                loss_tolerance,
                recv_window,
            } if self.state == SenderState::SynSent || self.state == SenderState::Idle => {
                self.state = SenderState::Established;
                self.peer_tolerance = *loss_tolerance;
                self.peer_window = (*recv_window).max(1);
                self.events.push_back(SendEvent::Connected);
            }
            Segment::Ack(ack) => self.on_ack(now, ack),
            Segment::FinAck if self.state == SenderState::FinSent => {
                self.state = SenderState::Closed;
                self.events.push_back(SendEvent::Finished);
            }
            // Data/Syn/Fwd/Fin are receiver-bound; ignore.
            _ => {}
        }
    }

    fn on_ack(&mut self, now: Time, ack: &AckSeg) {
        if self.state != SenderState::Established && self.state != SenderState::FinSent {
            return;
        }
        if let Some(tx_at) = ack.echo_tx_at {
            // Karn's rule: the receiver echoes a timestamp only for
            // segments that were neither retransmissions nor duplicates
            // (see `ReceiverConn::on_data`), so every echo reaching this
            // point is a genuine first-transmission RTT. A peer that
            // mis-stamps an echo from the future would still poison the
            // estimator, so reject those outright.
            if tx_at <= now {
                self.rtt.sample_times(tx_at, now);
            }
        }
        self.peer_window = ack.recv_window.max(1);
        // The receiver may have re-adapted its reliability requirement.
        self.peer_tolerance = ack.loss_tolerance;

        // Only what was transmitted can be acknowledged: every bound
        // below is clamped to `next_seq`, past which the ring holds the
        // unsent backlog.
        let sent_end = self.next_seq;
        // Cumulative: everything below cum_ack is done at the receiver.
        // Popping from the ring head is exactly this drain.
        let mut newly_acked: u32 = 0;
        while let Some((_, e)) = self.frags.pop_first_below(ack.cum_ack.min(sent_end)) {
            self.note_acked(&e);
            newly_acked += 1;
        }
        // Selective: ranges above cum_ack. Ranges are receiver-observed
        // sequence runs, so they are bounded by the in-flight window;
        // clamp to it and probe each slot directly.
        for (start, end) in ack.sack.iter() {
            let lo = start.max(self.frags.first_seq().unwrap_or(u64::MAX));
            let hi = end.min(sent_end);
            let mut seq = lo;
            while seq < hi {
                if let Some(e) = self.frags.take(seq) {
                    self.note_acked(&e);
                    newly_acked += 1;
                }
                seq += 1;
            }
        }
        // ACK-clocked controllers (CUBIC) grow here; the hook fires once
        // per ACK segment that newly acknowledged data. For the others it
        // leaves the window as it was, so nothing is emitted.
        if newly_acked > 0 {
            let before = self.cc.cwnd();
            let cwnd = self.cc.on_ack(now, newly_acked);
            if cwnd != before {
                self.telemetry.emit(
                    now,
                    self.telemetry_flow,
                    TelemetryEvent::CwndUpdate {
                        cwnd,
                        reason: CwndReason::Ack,
                    },
                );
            }
        }
        // Loss detection: anything still in flight below the highest
        // sequence the receiver has seen gathers a dup hint per ACK.
        // `scratch_seqs` collects the seqs crossing the threshold
        // (abandonment below re-borrows the ring).
        //
        // When the SACK block is full the receiver may have had more
        // reassembly holes than the wire format carries, and everything
        // above the last reported range is *unreported*, not missing:
        // segments the receiver actually holds must not gather hints
        // there, or they get spuriously fast-retransmitted and counted
        // as losses. Clamp the sweep to the end of reported coverage;
        // the tail holes start gathering hints once earlier ranges ack
        // out and the SACK window slides over them, and the RTO still
        // backstops everything.
        let dup_horizon = if ack.sack.is_full() {
            ack.sack.last().map_or(ack.cum_ack, |(_, end)| end)
        } else {
            ack.highest_seen
        };
        self.frags
            .for_each_mut_below(dup_horizon.min(sent_end), |seq, entry| {
                if entry.lost_pending() {
                    return;
                }
                entry.dup_hint = entry.dup_hint.saturating_add(1);
                if entry.dup_hint >= DUPACK_THRESHOLD {
                    self.scratch_seqs.push_back(seq);
                }
            });
        let any_lost = !self.scratch_seqs.is_empty();
        while let Some(seq) = self.scratch_seqs.pop_front() {
            self.on_segment_lost(now, seq);
        }
        // One *loss event* per ACK, no matter how many segments crossed
        // the threshold together — the classic one-reduction-per-window
        // approximation. (RTO losses react in `on_tick` instead.)
        if any_lost {
            let before = self.cc.cwnd();
            let cwnd = self.cc.on_loss();
            if cwnd != before {
                self.telemetry.emit(
                    now,
                    self.telemetry_flow,
                    TelemetryEvent::CwndUpdate {
                        cwnd,
                        reason: CwndReason::Loss,
                    },
                );
            }
        }
    }

    fn note_acked(&mut self, e: &Frag) {
        self.stats.segments_acked += 1;
        self.stats.bytes_acked += u64::from(e.len);
        self.meter.on_acked(u64::from(e.len));
    }

    /// Clock tick: retransmission timeouts, handshake retries, and
    /// measuring-period rollover.
    pub fn on_tick(&mut self, now: Time) {
        match self.state {
            SenderState::SynSent | SenderState::FinSent if now >= self.handshake_deadline => {
                self.handshake_dirty = true;
                self.rtt.on_timeout();
            }
            SenderState::Established => {
                // RTO on the earliest outstanding segment. Every segment
                // whose deadline has passed is declared lost in this one
                // tick: handling only the first and leaving the rest to
                // the re-armed timer would make `next_timeout` return an
                // already-expired deadline, which the driver turns into
                // a burst of zero-delay timer events (one per expired
                // segment). The loop terminates because each iteration
                // marks its segment `lost_pending` (or abandons it),
                // removing it from the earliest-outstanding search, and
                // the per-iteration Karn backoff pushes the RTO out for
                // whatever remains.
                while let Some((seq, tx_at)) = self.earliest_outstanding() {
                    if now < tx_at + self.rto() {
                        break;
                    }
                    self.stats.timeouts += 1;
                    let rto_ns = self.rto();
                    self.rtt.on_timeout();
                    let cwnd = self.cc.on_timeout();
                    self.telemetry.emit_with(now, self.telemetry_flow, || {
                        TelemetryEvent::RtoFired {
                            seq,
                            rto_ns,
                            backoff: self.rtt.backoff(),
                        }
                    });
                    self.telemetry.emit(
                        now,
                        self.telemetry_flow,
                        TelemetryEvent::CwndUpdate {
                            cwnd,
                            reason: CwndReason::Timeout,
                        },
                    );
                    self.on_segment_lost(now, seq);
                }
                // Measuring period.
                let srtt_ms = self.rtt.srtt_ms();
                let cwnd = self.cc.cwnd();
                if let Some(cond) =
                    self.meter
                        .maybe_roll(now, self.cfg.measure_period, srtt_ms, cwnd)
                {
                    let new_cwnd = self.cc.on_period(&cond);
                    // The snapshot the period events will report (and
                    // `net_cond` overwrites on read anyway) carries the
                    // window the controller just chose.
                    self.meter.set_last_cwnd(new_cwnd);
                    self.events.push_back(SendEvent::PeriodEnded);
                    self.telemetry.emit_with(now, self.telemetry_flow, || {
                        TelemetryEvent::PeriodSample {
                            eratio: cond.eratio,
                            eratio_smoothed: cond.eratio_smoothed,
                            srtt_ms: cond.srtt_ms,
                            cwnd: new_cwnd,
                            rate_kbps: cond.rate_kbps,
                        }
                    });
                    self.telemetry.emit(
                        now,
                        self.telemetry_flow,
                        TelemetryEvent::CwndUpdate {
                            cwnd: new_cwnd,
                            reason: CwndReason::Period,
                        },
                    );
                    // Threshold callbacks are level-triggered per
                    // measuring period: the application reduces "by a
                    // degree proportional to the loss ratio" while above
                    // the upper threshold and recovers "at a fixed rate
                    // when the loss is below a certain threshold" (§3.2).
                    // Applications rate-limit their own reactions (the
                    // adaptation-granularity story of §3.5).
                    let zone = if self.cfg.upper_threshold.is_some_and(|u| cond.eratio >= u) {
                        ThreshZone::High
                    } else if self.cfg.lower_threshold.is_some_and(|l| cond.eratio <= l) {
                        ThreshZone::Low
                    } else {
                        ThreshZone::Mid
                    };
                    if zone == ThreshZone::High {
                        self.events.push_back(SendEvent::UpperThreshold);
                        self.telemetry.emit(
                            now,
                            self.telemetry_flow,
                            TelemetryEvent::Threshold {
                                upper: true,
                                eratio: cond.eratio,
                            },
                        );
                    }
                    if zone == ThreshZone::Low && self.cfg.lower_threshold.is_some() {
                        self.events.push_back(SendEvent::LowerThreshold);
                        self.telemetry.emit(
                            now,
                            self.telemetry_flow,
                            TelemetryEvent::Threshold {
                                upper: false,
                                eratio: cond.eratio,
                            },
                        );
                    }
                    self.thresh_zone = zone;
                }
            }
            _ => {}
        }
    }

    /// Earliest time at which [`Self::on_tick`] must run again.
    ///
    /// Never returns a time before `now`: a deadline at or below `now`
    /// is work [`Self::on_tick`] dispatches when called *at* `now`, and
    /// after the usual tick → poll cycle every internal deadline is
    /// strictly in the future again (the RTO loop marks all expired
    /// segments lost, the meter rolls, and the poll resets a due
    /// handshake deadline). Returning stale deadlines made drivers
    /// re-arm at a past instant and spin on zero-delay timers.
    pub fn next_timeout(&self, now: Time) -> Option<Time> {
        let t = match self.state {
            SenderState::Closed => return None,
            // Nothing is armed yet; the first poll starts the handshake.
            SenderState::Idle => 0,
            SenderState::SynSent | SenderState::FinSent => self.handshake_deadline,
            SenderState::Established => {
                let mut t = self.meter.deadline(self.cfg.measure_period);
                if let Some((_, tx_at)) = self.earliest_outstanding() {
                    t = t.min(tx_at + self.rto());
                }
                t
            }
        };
        Some(t.max(now))
    }

    /// Whether a new (never-transmitted) segment fits in the windows.
    fn can_send_new(&self) -> bool {
        let window = self.cc.cwnd_segments().min(self.peer_window).max(1) as usize;
        self.inflight_len() < window
    }

    /// Produces the next segment to put on the wire, if any.
    pub fn poll_transmit(&mut self, now: Time) -> Option<Segment> {
        match self.state {
            SenderState::Idle => {
                self.state = SenderState::SynSent;
                self.handshake_deadline = now + self.rto();
                self.handshake_dirty = false;
                Some(Segment::Syn { init_seq: 0 })
            }
            SenderState::SynSent => {
                if self.handshake_dirty {
                    self.handshake_dirty = false;
                    self.handshake_deadline = now + self.rto();
                    Some(Segment::Syn { init_seq: 0 })
                } else {
                    None
                }
            }
            SenderState::Established => self.poll_established(now),
            SenderState::FinSent => {
                if self.handshake_dirty {
                    self.handshake_dirty = false;
                    self.handshake_deadline = now + self.rto();
                    Some(Segment::Fin {
                        final_seq: self.next_seq,
                    })
                } else {
                    None
                }
            }
            SenderState::Closed => None,
        }
    }

    fn poll_established(&mut self, now: Time) -> Option<Segment> {
        let fwd_seq = self.done_floor();
        // 1. Standalone skip notification after abandonment.
        if self.fwd_dirty {
            self.fwd_dirty = false;
            return Some(Segment::Fwd { fwd_seq });
        }
        // 2. Retransmissions (window-exempt: they do not grow in-flight).
        while let Some(seq) = self.retx_queue.pop_front() {
            let Some(entry) = self.frags.get_mut(seq) else {
                continue; // acked or abandoned meanwhile
            };
            entry.tx_at = now;
            entry.set(Frag::RETRANSMITTED, true);
            entry.dup_hint = 0;
            entry.set(Frag::LOST_PENDING, false);
            self.stats.segments_sent += 1;
            self.stats.retransmits += 1;
            self.meter.on_send();
            return Some(Segment::Data(DataSeg {
                seq,
                msg_id: entry.msg_id,
                frag_idx: entry.frag_idx,
                frag_count: entry.frag_count.get(),
                len: u32::from(entry.len),
                marked: entry.marked(),
                fwd_seq,
                msg_sent_at: entry.msg_sent_at,
                tx_at: now,
                retransmit: true,
            }));
        }
        // 3. Fresh data within the congestion/flow windows: the oldest
        // unsent fragment becomes in flight where it sits.
        if self.unsent > 0 && self.can_send_new() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.unsent -= 1;
            self.stats.segments_sent += 1;
            self.meter.on_send();
            let frag = self
                .frags
                .get_mut(seq)
                .expect("unsent fragments sit from next_seq onwards");
            frag.tx_at = now;
            return Some(Segment::Data(DataSeg {
                seq,
                msg_id: frag.msg_id,
                frag_idx: frag.frag_idx,
                frag_count: frag.frag_count.get(),
                len: u32::from(frag.len),
                marked: frag.marked(),
                fwd_seq,
                msg_sent_at: frag.msg_sent_at,
                tx_at: now,
                retransmit: false,
            }));
        }
        // 4. Graceful close once everything is finished.
        if self.finish_requested && self.frags.is_empty() {
            self.state = SenderState::FinSent;
            self.handshake_deadline = now + self.rto();
            self.handshake_dirty = false;
            return Some(Segment::Fin {
                final_seq: self.next_seq,
            });
        }
        None
    }

    /// Folds the full control state into a model-checker digest.
    ///
    /// Every field that can influence future behavior is included;
    /// timestamps are hashed relative to `now` so equivalent states
    /// reached at different absolute clocks still collide in a visited
    /// table. `msg_sent_at` is deliberately time-relative too (it only
    /// feeds delivery-latency accounting, but keeping it makes the hash
    /// an over- rather than under-approximation of state identity).
    pub fn state_digest(&self, now: Time, h: &mut iq_telemetry::StateHasher) {
        h.write_u8(match self.state {
            SenderState::Idle => 0,
            SenderState::SynSent => 1,
            SenderState::Established => 2,
            SenderState::FinSent => 3,
            SenderState::Closed => 4,
        });
        h.write_u64(self.next_seq);
        h.write_u64(self.next_msg_id);
        h.write_u64(u64::from(self.peer_window));
        h.write_f64(self.peer_tolerance);
        h.write_bool(self.fwd_dirty);
        h.write_bool(self.handshake_dirty);
        h.write_u64(self.handshake_deadline.saturating_sub(now));
        h.write_u64(self.unsent as u64);
        for (_, f) in self.frags.iter().skip(self.inflight_len()) {
            h.write_u64(f.msg_id);
            h.write_u64(u64::from(f.frag_idx));
            h.write_u64(u64::from(f.len));
            h.write_bool(f.marked());
        }
        h.write_u64(self.retx_queue.len() as u64);
        for &seq in self.retx_queue.iter() {
            h.write_u64(seq);
        }
        h.write_u64(self.inflight_len() as u64);
        for (seq, e) in self.inflight() {
            h.write_u64(seq);
            h.write_u64(now.saturating_sub(e.tx_at));
            h.write_bool(e.retransmitted());
            h.write_u64(u64::from(e.dup_hint));
            h.write_bool(e.lost_pending());
            h.write_bool(e.marked());
            h.write_u64(u64::from(e.len));
        }
        self.cc.digest(now, h);
        self.rtt.digest(h);
        self.meter.digest(now, self.cfg.measure_period, h);
        h.write_bool(self.finish_requested);
        h.write_bool(self.discard_unmarked);
        h.write_u64(self.abandoned_total);
        h.write_u8(match self.thresh_zone {
            ThreshZone::Low => 0,
            ThreshZone::Mid => 1,
            ThreshZone::High => 2,
        });
        h.write_u64(self.stats.segments_acked);
        h.write_u64(self.events.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment as S;
    use iq_netsim::time::millis;

    fn establish(conn: &mut SenderConn, now: Time) {
        let syn = conn.poll_transmit(now).expect("syn");
        assert!(matches!(syn, S::Syn { .. }));
        conn.on_segment(
            now,
            &S::SynAck {
                loss_tolerance: 0.4,
                recv_window: 1024,
            },
        );
        assert_eq!(conn.state(), SenderState::Established);
    }

    fn ack_tol(cum: u64, highest: u64, tolerance: f64) -> S {
        S::Ack(AckSeg {
            cum_ack: cum,
            highest_seen: highest,
            sack: crate::segment::SackRanges::new(),
            recv_window: 1024,
            loss_tolerance: tolerance,
            echo_tx_at: None,
        })
    }

    /// ACK matching the 0.4-tolerance handshake used by `establish`.
    fn ack(cum: u64, highest: u64) -> S {
        ack_tol(cum, highest, 0.4)
    }

    #[test]
    fn handshake_then_data_flows() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        establish(&mut c, 0);
        assert!(matches!(
            c.take_events().as_slice(),
            [ConnEvent::Connected]
        ));
        c.send_message(0, 2800, true);
        // cwnd starts at 2: exactly two segments may fly.
        let a = c.poll_transmit(0).unwrap();
        let b = c.poll_transmit(0).unwrap();
        assert!(matches!(a, S::Data(ref d) if d.seq == 0 && d.len == 1400));
        assert!(matches!(b, S::Data(ref d) if d.seq == 1 && d.frag_idx == 1));
        assert!(c.poll_transmit(0).is_none(), "window exhausted");
        // Ack both; nothing left.
        c.on_segment(millis(30), &ack(2, 1));
        assert_eq!(c.backlog_segments(), 0);
        assert_eq!(c.stats().segments_acked, 2);
        assert_eq!(c.stats().bytes_acked, 2800);
    }

    #[test]
    fn fragmentation_counts() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        establish(&mut c, 0);
        match c.send_message(0, 4200, true) {
            SendOutcome::Queued { fragments, .. } => assert_eq!(fragments, 3),
            other => panic!("{other:?}"),
        }
        match c.send_message(0, 1, true) {
            SendOutcome::Queued { fragments, .. } => assert_eq!(fragments, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_message_of_65535_fragments_is_queued_whole() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        match c.send_message(0, 65_535 * MSS, true) {
            SendOutcome::Queued { fragments, .. } => assert_eq!(fragments, u16::MAX),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.backlog_segments(), 65_535);
    }

    #[test]
    #[should_panic(expected = "a 91749001-byte message is 65536 fragments of 1400 bytes")]
    fn a_message_of_more_than_65535_fragments_is_refused() {
        // It used to wrap to 0 fragments: counted as submitted, and
        // nothing queued.
        SenderConn::new(1, RudpConfig::default()).send_message(0, 65_535 * MSS + 1, true);
    }

    #[test]
    fn discard_unmarked_drops_at_api() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        establish(&mut c, 0);
        c.set_discard_unmarked(true);
        assert_eq!(c.send_message(0, 100, false), SendOutcome::Discarded);
        assert!(matches!(
            c.send_message(0, 100, true),
            SendOutcome::Queued { .. }
        ));
        assert_eq!(c.stats().msgs_discarded, 1);
        assert_eq!(c.stats().msgs_submitted, 1);
    }

    #[test]
    fn dup_hints_trigger_fast_retransmit_of_marked() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        establish(&mut c, 0);
        // Grow the window so several segments can fly.
        c.scale_cwnd(8.0);
        for _ in 0..5 {
            c.send_message(0, 1400, true);
        }
        let mut seqs = vec![];
        while let Some(S::Data(d)) = c.poll_transmit(0) {
            seqs.push(d.seq);
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        // Receiver saw 1..5 but not 0: three acks with growing evidence.
        for highest in [2, 3, 4] {
            c.on_segment(
                millis(10),
                &S::Ack(AckSeg {
                    cum_ack: 0,
                    highest_seen: highest,
                    sack: crate::segment::SackRanges::from_slice(&[(1, highest)]),
                    recv_window: 1024,
                    loss_tolerance: 0.4,
                    echo_tx_at: None,
                }),
            );
        }
        // Seq 0 is now lost-pending; the next poll retransmits it.
        match c.poll_transmit(millis(11)) {
            Some(S::Data(d)) => {
                assert_eq!(d.seq, 0);
                assert!(d.retransmit);
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
        assert_eq!(c.stats().retransmits, 1);
    }

    #[test]
    fn unmarked_losses_are_abandoned_within_tolerance() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        establish(&mut c, 0); // tolerance 0.4 from the test SynAck
        c.scale_cwnd(8.0);
        // One unmarked message then several marked.
        c.send_message(0, 1400, false);
        for _ in 0..4 {
            c.send_message(0, 1400, true);
        }
        while c.poll_transmit(0).is_some() {}
        // Seq 0 (unmarked) goes missing.
        for highest in [2, 3, 4] {
            c.on_segment(
                millis(10),
                &S::Ack(AckSeg {
                    cum_ack: 0,
                    highest_seen: highest,
                    sack: crate::segment::SackRanges::from_slice(&[(1, highest)]),
                    recv_window: 1024,
                    loss_tolerance: 0.4,
                    echo_tx_at: None,
                }),
            );
        }
        assert_eq!(c.stats().segments_abandoned, 1);
        // A standalone Fwd is emitted so the receiver can skip seq 0.
        match c.poll_transmit(millis(11)) {
            Some(S::Fwd { fwd_seq }) => assert!(fwd_seq >= 1),
            other => panic!("expected Fwd, got {other:?}"),
        }
    }

    #[test]
    fn zero_tolerance_never_abandons() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        let syn = c.poll_transmit(0);
        assert!(syn.is_some());
        c.on_segment(
            0,
            &S::SynAck {
                loss_tolerance: 0.0,
                recv_window: 1024,
            },
        );
        c.scale_cwnd(8.0);
        c.send_message(0, 1400, false);
        for _ in 0..4 {
            c.send_message(0, 1400, true);
        }
        while c.poll_transmit(0).is_some() {}
        for highest in [2, 3, 4] {
            c.on_segment(millis(10), &ack_tol(0, highest, 0.0));
        }
        assert_eq!(c.stats().segments_abandoned, 0);
        // It must be queued for retransmission instead.
        match c.poll_transmit(millis(11)) {
            Some(S::Data(d)) => assert!(d.retransmit && d.seq == 0),
            other => panic!("expected retransmit, got {other:?}"),
        }
    }

    #[test]
    fn rto_fires_and_halves_window() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        establish(&mut c, 0);
        c.scale_cwnd(8.0); // cwnd 16
        c.send_message(0, 1400, true);
        let _ = c.poll_transmit(0);
        let cwnd_before = c.cwnd();
        // No acks; tick past the initial RTO (1 s).
        c.on_tick(millis(1100));
        assert_eq!(c.stats().timeouts, 1);
        assert!(c.cwnd() < cwnd_before);
        match c.poll_transmit(millis(1100)) {
            Some(S::Data(d)) => assert!(d.retransmit),
            other => panic!("expected retransmit, got {other:?}"),
        }
    }

    #[test]
    fn period_events_and_thresholds() {
        let cfg = RudpConfig {
            upper_threshold: Some(0.3),
            lower_threshold: Some(0.05),
            ..RudpConfig::default()
        };
        let mut c = SenderConn::new(1, cfg);
        establish(&mut c, 0);
        c.take_events();
        // Clean period: lower-threshold callback fires (eratio 0).
        c.on_tick(millis(100));
        let evs = c.take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, ConnEvent::PeriodEnded(_))));
        assert!(evs
            .iter()
            .any(|e| matches!(e, ConnEvent::LowerThreshold(_))));
        assert!(!evs
            .iter()
            .any(|e| matches!(e, ConnEvent::UpperThreshold(_))));
    }

    #[test]
    fn fin_handshake_closes() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        establish(&mut c, 0);
        c.send_message(0, 100, true);
        let _ = c.poll_transmit(0);
        c.finish();
        assert!(c.poll_transmit(0).is_none(), "fin waits for acks");
        c.on_segment(millis(10), &ack(1, 0));
        match c.poll_transmit(millis(10)) {
            Some(S::Fin { final_seq }) => assert_eq!(final_seq, 1),
            other => panic!("expected Fin, got {other:?}"),
        }
        c.on_segment(millis(40), &S::FinAck);
        assert!(c.is_closed());
        assert!(c
            .take_events()
            .iter()
            .any(|e| matches!(e, ConnEvent::Finished)));
    }

    #[test]
    fn flow_control_respects_peer_window() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        let _ = c.poll_transmit(0);
        c.on_segment(
            0,
            &S::SynAck {
                loss_tolerance: 0.0,
                recv_window: 1, // tiny receiver
            },
        );
        c.scale_cwnd(16.0);
        c.send_message(0, 4200, true);
        assert!(c.poll_transmit(0).is_some());
        assert!(c.poll_transmit(0).is_none(), "peer window is 1");
    }

    #[test]
    fn syn_retries_until_synack() {
        let mut c = SenderConn::new(1, RudpConfig::default());
        assert!(matches!(c.poll_transmit(0), Some(S::Syn { .. })));
        assert!(c.poll_transmit(millis(10)).is_none());
        // Initial RTO is 1 s; tick past it.
        c.on_tick(millis(1001));
        assert!(matches!(
            c.poll_transmit(millis(1001)),
            Some(S::Syn { .. })
        ));
    }

    /// `(variant, [eratio, eratio_smoothed, srtt_ms, cwnd, rate_kbps])`.
    type Reported = (&'static str, Option<[f64; 5]>);

    fn reported(ev: ConnEvent) -> Reported {
        let fields =
            |c: NetCond| Some([c.eratio, c.eratio_smoothed, c.srtt_ms, c.cwnd, c.rate_kbps]);
        match ev {
            ConnEvent::Connected => ("connected", None),
            ConnEvent::PeriodEnded(c) => ("period", fields(c)),
            ConnEvent::UpperThreshold(c) => ("upper", fields(c)),
            ConnEvent::LowerThreshold(c) => ("lower", fields(c)),
            ConnEvent::Finished => ("finished", None),
        }
    }

    /// One measuring period of the script: ten one-segment messages go
    /// out at `start`; at `start + 40 ms` three ACKs (the first echoing
    /// the transmit time) report all ten received but the first `holes`
    /// even-numbered ones, which so cross the dup threshold and are
    /// retransmitted; everything is acknowledged at `start + 80 ms` and
    /// the period closes at `start + 100 ms`. Events are drained after
    /// every input, as the agents do.
    fn scripted_period(c: &mut SenderConn, start: Time, holes: u64, log: &mut Vec<Reported>) {
        let mut drain =
            |c: &mut SenderConn| log.extend(std::iter::from_fn(|| c.pop_event()).map(reported));
        let first = c.next_seq;
        for _ in 0..10 {
            c.send_message(start, 1400, true);
            drain(c);
        }
        while c.poll_transmit(start).is_some() {}
        let mut received: Vec<(u64, u64)> = Vec::new();
        for seq in first..first + 10 {
            let lost = (seq - first).is_multiple_of(2) && (seq - first) / 2 < holes;
            match received.last_mut() {
                _ if lost => {}
                Some((_, end)) if *end == seq => *end += 1,
                _ => received.push((seq, seq + 1)),
            }
        }
        for round in 0..3 {
            c.on_segment(
                start + millis(40),
                &S::Ack(AckSeg {
                    cum_ack: first,
                    highest_seen: first + 10,
                    sack: crate::segment::SackRanges::from_slice(&received),
                    recv_window: 1024,
                    loss_tolerance: 0.0,
                    echo_tx_at: (round == 0).then_some(start),
                }),
            );
            drain(c);
        }
        while c.poll_transmit(start + millis(41)).is_some() {}
        c.on_segment(start + millis(80), &ack_tol(first + 10, first + 10, 0.0));
        drain(c);
        c.on_tick(start + millis(100));
        drain(c);
    }

    #[test]
    fn scripted_connection_reports_the_parents_events() {
        let cfg = RudpConfig {
            upper_threshold: Some(0.3),
            lower_threshold: Some(0.05),
            ..RudpConfig::default()
        };
        let mut c = SenderConn::new(1, cfg);
        let mut log = Vec::new();
        assert!(matches!(c.poll_transmit(0), Some(S::Syn { .. })));
        c.on_segment(
            0,
            &S::SynAck {
                loss_tolerance: 0.0,
                recv_window: 1024,
            },
        );
        log.extend(std::iter::from_fn(|| c.pop_event()).map(reported));
        c.scale_cwnd(64.0);
        // A high, a mid and a low error ratio: 5, 1 and 0 of ten lost.
        scripted_period(&mut c, 0, 5, &mut log);
        scripted_period(&mut c, millis(100), 1, &mut log);
        scripted_period(&mut c, millis(200), 0, &mut log);
        c.finish();
        assert!(matches!(c.poll_transmit(millis(300)), Some(S::Fin { .. })));
        c.on_segment(millis(340), &S::FinAck);
        log.extend(std::iter::from_fn(|| c.pop_event()).map(reported));
        // Captured from the tree before period events became one-byte
        // tags (commit b2b022a), where each event carried its own copy.
        let want: [Reported; 7] = [
            ("connected", None),
            (
                "period",
                Some([0.3333333333333333, 0.3333333333333333, 40.0, 64.0, 140.0]),
            ),
            (
                "upper",
                Some([0.3333333333333333, 0.3333333333333333, 40.0, 64.0, 140.0]),
            ),
            (
                "period",
                Some([0.09090909090909091, 0.2606060606060606, 40.0, 32.0, 140.0]),
            ),
            (
                "period",
                Some([0.0, 0.18242424242424243, 40.0, 33.0, 140.0]),
            ),
            ("lower", Some([0.0, 0.18242424242424243, 40.0, 33.0, 140.0])),
            ("finished", None),
        ];
        assert_eq!(log, want);
    }

    #[test]
    fn an_undrained_period_event_reports_the_latest_closed_period() {
        // The one place the one-byte events differ from carrying a copy:
        // two periods close with nothing drained in between, and both
        // `PeriodEnded` events report the second period's snapshot.
        let mut c = SenderConn::new(1, RudpConfig::default());
        establish(&mut c, 0);
        c.take_events();
        c.send_message(0, 1400, true);
        let _ = c.poll_transmit(0);
        c.on_segment(millis(50), &ack(1, 1));
        c.on_tick(millis(100)); // 1.4 kB acked in 0.1 s: 14 kB/s
        c.on_tick(millis(200)); // idle: 0 kB/s
        let rates: Vec<f64> = c
            .take_events()
            .iter()
            .map(|e| match e {
                ConnEvent::PeriodEnded(cond) => cond.rate_kbps,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(rates, [0.0, 0.0]);
        // Drained in between, each event is its own period's.
        let mut c = SenderConn::new(1, RudpConfig::default());
        establish(&mut c, 0);
        c.send_message(0, 1400, true);
        let _ = c.poll_transmit(0);
        c.on_segment(millis(50), &ack(1, 1));
        c.take_events();
        c.on_tick(millis(100));
        assert!(matches!(
            c.take_events().as_slice(),
            [ConnEvent::PeriodEnded(cond)] if (cond.rate_kbps - 14.0).abs() < 1e-9
        ));
    }

    #[test]
    fn connection_state_is_compact() {
        // Every connection of a fleet pays these bytes when the world is
        // built (DESIGN.md §12); a new field should show up here.
        for (name, size, ceiling) in [
            ("SenderConn", std::mem::size_of::<SenderConn>(), 680),
            ("Frag", std::mem::size_of::<Frag>(), 32),
            ("Option<Frag>", std::mem::size_of::<Option<Frag>>(), 32),
            ("CcController", std::mem::size_of::<CcController>(), 152),
            ("SendEvent", std::mem::size_of::<SendEvent>(), 1),
        ] {
            // `cargo test … connection_state_is_compact -- --nocapture`
            // is the struct-size probe.
            println!("{name}: {size} bytes (ceiling {ceiling})");
            assert!(size <= ceiling, "{name} grew to {size} bytes");
        }
    }
}
