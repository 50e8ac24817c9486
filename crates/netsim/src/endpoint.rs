//! The endpoint layer: what every transport needs to ride the simulator,
//! written once below the protocols.
//!
//! A transport is a pair of sans-io state machines. Each half implements
//! [`Conn`]; the sending half also implements [`SendConn`]. A
//! [`SenderDriver`] or [`ReceiverDriver`] embeds one half into an agent:
//! it stamps every outgoing segment with its connection id in a
//! [`Wire`], keeps only the arrivals stamped with its own id, and — on
//! the sending side — keeps the protocol timer armed at the
//! connection's next deadline. [`BulkSender`] is the ready-made agent
//! that pushes a fixed volume through any [`SendConn`].

use std::any::Any;

use crate::agent::{Agent, Ctx, TimerId};
use crate::packet::{payload, Addr, FlowId, Packet};
use crate::time::Time;

/// Timer token of a [`SenderDriver`]'s protocol timer. The driver owns
/// the routing ([`SenderDriver::on_timer`]); an agent that embeds one
/// arms its own timers under other tokens.
const TIMER_TOKEN: u64 = 0x454E_4450; // "ENDP"

/// Segments a [`BulkSender`] keeps queued inside its connection.
const BACKLOG_TARGET: usize = 128;

/// One half of a sans-io connection, as a driver sees it.
pub trait Conn {
    /// The unit the connection sends and receives, one per packet.
    type Segment: Any + Send + Sync;

    /// The id every outgoing segment is stamped with and every accepted
    /// arrival carries.
    fn conn_id(&self) -> u32;

    /// Feeds one arrived segment.
    fn on_segment(&mut self, now: Time, seg: &Self::Segment);

    /// The next segment ready to go, if any.
    fn poll_transmit(&mut self, now: Time) -> Option<Self::Segment>;

    /// Bytes `seg` occupies on the wire, modelled headers included.
    fn wire_size(seg: &Self::Segment) -> u32;
}

/// The sending half: a protocol clock, plus the calls a [`BulkSender`]
/// makes as the application.
pub trait SendConn: Conn {
    /// Runs the protocol clock (retransmission and handshake timeouts).
    fn on_tick(&mut self, now: Time);

    /// The earliest time [`Self::on_tick`] must run again.
    fn next_timeout(&self, now: Time) -> Option<Time>;

    /// Queues an application message of `size` bytes; `marked` asks for
    /// full reliability where the transport distinguishes.
    fn send_message(&mut self, now: Time, size: u32, marked: bool);

    /// Segments queued or in flight.
    fn backlog_segments(&self) -> usize;

    /// No more messages follow; close once everything is delivered.
    fn finish(&mut self);

    /// Drops the events the connection queued for its application.
    fn clear_events(&mut self);
}

/// A segment stamped with its connection's id: the payload of every
/// packet a driver sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire<S> {
    /// Id of the connection the segment belongs to.
    pub conn_id: u32,
    /// The segment.
    pub segment: S,
}

/// The segment `pkt` carries if it is stamped for `conn`.
fn accept<'p, C: Conn>(conn: &C, pkt: &'p Packet) -> Option<&'p C::Segment> {
    let wire = pkt.payload_as::<Wire<C::Segment>>()?;
    (wire.conn_id == conn.conn_id()).then_some(&wire.segment)
}

/// Sends everything `conn` has ready to `peer`.
fn transmit<C: Conn>(conn: &mut C, ctx: &mut Ctx<'_>, peer: Addr, flow: FlowId) {
    let conn_id = conn.conn_id();
    while let Some(segment) = conn.poll_transmit(ctx.now()) {
        let size = C::wire_size(&segment);
        ctx.send(peer, size, flow, payload(Wire { conn_id, segment }));
    }
}

/// Embeds a [`SendConn`] into an agent: transmission, the protocol
/// timer, and demultiplexing of arrivals.
pub struct SenderDriver<C> {
    /// The protocol state machine.
    pub conn: C,
    peer: Addr,
    flow: FlowId,
    /// The protocol timer in the event queue, and when it fires.
    armed: Option<(Time, TimerId)>,
}

impl<C: SendConn> SenderDriver<C> {
    /// A driver that sends to `peer`, accounting packets to `flow`.
    pub fn new(conn: C, peer: Addr, flow: FlowId) -> Self {
        Self {
            conn,
            peer,
            flow,
            armed: None,
        }
    }

    /// Feeds an arrived packet; `true` if it belonged to this
    /// connection. Call [`Self::pump`] afterwards.
    pub fn handle_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> bool {
        let Some(seg) = accept(&self.conn, pkt) else {
            return false;
        };
        self.conn.on_segment(ctx.now(), seg);
        true
    }

    /// Routes a timer callback: runs the protocol clock and returns
    /// `true` iff `token` is the driver's own. Call [`Self::pump`]
    /// afterwards when it does.
    ///
    /// Only a timer that reached its deadline counts as consumed, so an
    /// early one leaves the armed timer pending and sets no duplicate.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        if token != TIMER_TOKEN {
            return false;
        }
        if self.armed.is_some_and(|(at, _)| at <= ctx.now()) {
            self.armed = None;
        }
        self.conn.on_tick(ctx.now());
        true
    }

    /// Transmits everything ready and re-arms the protocol timer. Must
    /// follow every interaction with the connection.
    ///
    /// The timer moves only to an earlier deadline: a later one is
    /// served by the pending timer's tick, which re-arms from there, so
    /// an ACK-clocked flow does not cancel and re-set a timer per ACK.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        transmit(&mut self.conn, ctx, self.peer, self.flow);
        let Some(next) = self.conn.next_timeout(ctx.now()) else {
            return;
        };
        let next = next.max(ctx.now());
        if self.armed.is_some_and(|(at, _)| at <= next) {
            return;
        }
        if let Some((_, id)) = self.armed.take() {
            ctx.cancel_timer(id);
        }
        let id = ctx.set_timer(next - ctx.now(), TIMER_TOKEN);
        self.armed = Some((next, id));
    }
}

/// Embeds a receiving [`Conn`] into an agent. The peer's address is
/// learned from the first accepted packet.
pub struct ReceiverDriver<C> {
    /// The protocol state machine.
    pub conn: C,
    peer: Option<Addr>,
    flow: FlowId,
}

impl<C: Conn> ReceiverDriver<C> {
    /// A driver that accounts its replies to `flow`.
    pub fn new(conn: C, flow: FlowId) -> Self {
        Self {
            conn,
            peer: None,
            flow,
        }
    }

    /// Feeds an arrived packet; `true` if it belonged to this
    /// connection. Call [`Self::pump`] afterwards.
    pub fn handle_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> bool {
        let Some(seg) = accept(&self.conn, pkt) else {
            return false;
        };
        self.peer.get_or_insert(pkt.src);
        self.conn.on_segment(ctx.now(), seg);
        true
    }

    /// Transmits pending ACKs and control segments.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(peer) = self.peer {
            transmit(&mut self.conn, ctx, peer, self.flow);
        }
    }
}

/// Sends a fixed number of equal messages as fast as the connection's
/// windows allow, then closes.
pub struct BulkSender<C> {
    driver: SenderDriver<C>,
    remaining_msgs: u64,
    msg_size: u32,
    /// Every n-th message goes unmarked (0: all marked).
    unmark_every: u64,
    offered: u64,
}

impl<C: SendConn> BulkSender<C> {
    /// Sends `total_msgs` messages of `msg_size` bytes through `driver`.
    pub fn new(driver: SenderDriver<C>, total_msgs: u64, msg_size: u32) -> Self {
        Self {
            driver,
            remaining_msgs: total_msgs,
            msg_size,
            unmark_every: 0,
            offered: 0,
        }
    }

    /// Sends every `n`-th message unmarked, so a transport with adaptive
    /// reliability may drop it.
    pub fn unmark_every(mut self, n: u64) -> Self {
        self.unmark_every = n;
        self
    }

    /// The connection (stats, window).
    pub fn conn(&self) -> &C {
        &self.driver.conn
    }

    /// Messages offered so far, including any the transport discarded.
    pub fn offered_msgs(&self) -> u64 {
        self.offered
    }

    fn refill(&mut self, now: Time) {
        let conn = &mut self.driver.conn;
        while self.remaining_msgs > 0 && conn.backlog_segments() < BACKLOG_TARGET {
            let marked = self.unmark_every == 0 || !self.offered.is_multiple_of(self.unmark_every);
            conn.send_message(now, self.msg_size, marked);
            self.offered += 1;
            self.remaining_msgs -= 1;
        }
        if self.remaining_msgs == 0 {
            conn.finish();
        }
    }

    fn after_io(&mut self, ctx: &mut Ctx<'_>) {
        self.driver.conn.clear_events();
        self.refill(ctx.now());
        self.driver.pump(ctx);
    }
}

impl<C: SendConn + Send + 'static> Agent for BulkSender<C> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.refill(ctx.now());
        self.driver.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.driver.handle_packet(ctx, &pkt) {
            self.after_io(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.driver.on_timer(ctx, token) {
            self.after_io(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::time::millis;

    /// A connection that only keeps a deadline and records its ticks.
    struct Clock {
        deadline: Option<Time>,
        ticks: Vec<Time>,
    }

    impl Conn for Clock {
        type Segment = u32;
        fn conn_id(&self) -> u32 {
            1
        }
        fn on_segment(&mut self, _now: Time, _seg: &u32) {}
        fn poll_transmit(&mut self, _now: Time) -> Option<u32> {
            None
        }
        fn wire_size(_seg: &u32) -> u32 {
            40
        }
    }

    impl SendConn for Clock {
        fn on_tick(&mut self, now: Time) {
            self.ticks.push(now);
            if self.deadline.is_some_and(|d| d <= now) {
                self.deadline = None;
            }
        }
        fn next_timeout(&self, _now: Time) -> Option<Time> {
            self.deadline
        }
        fn send_message(&mut self, _now: Time, _size: u32, _marked: bool) {}
        fn backlog_segments(&self) -> usize {
            0
        }
        fn finish(&mut self) {}
        fn clear_events(&mut self) {}
    }

    /// Moves the clock's deadline at scripted times (token = index + 1).
    struct Script {
        driver: SenderDriver<Clock>,
        moves: Vec<(Time, Time)>,
    }

    impl Agent for Script {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (token, &(at, _)) in (1..).zip(&self.moves) {
                ctx.set_timer(at, token);
            }
            self.driver.pump(ctx);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if !self.driver.on_timer(ctx, token) {
                self.driver.conn.deadline = Some(self.moves[token as usize - 1].1);
            }
            self.driver.pump(ctx);
        }
    }

    /// The re-arm rule: a later deadline waits for the pending timer, an
    /// earlier one replaces it, and a tick re-arms from where it fired.
    #[test]
    fn timer_moves_only_to_an_earlier_deadline() {
        let mut sim = Simulator::new(1);
        let node = sim.add_node();
        let clock = Clock {
            deadline: Some(millis(20)),
            ticks: Vec::new(),
        };
        let driver = SenderDriver::new(clock, Addr::new(node, 2), FlowId(1));
        // At 5 ms the deadline moves later (30 ms): the 20 ms timer
        // stays, ticks early and re-arms at 30 ms. At 25 ms it moves
        // earlier (27 ms): the 30 ms timer is cancelled.
        let moves = vec![(millis(5), millis(30)), (millis(25), millis(27))];
        let id = sim.add_agent(node, 1, Box::new(Script { driver, moves }));
        sim.run_until(millis(100));
        let script = sim.agent::<Script>(id).unwrap();
        assert_eq!(script.driver.conn.ticks, [millis(20), millis(27)]);
        assert_eq!(sim.counters().timers_fired, 4, "two moves and two ticks");
    }
}
