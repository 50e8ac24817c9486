//! Simulator glue: drivers that embed the connection state machines into
//! netsim agents, plus ready-made bulk-transfer agents used by the
//! fairness and baseline experiments.

use std::sync::Arc;

use iq_metrics::FlowMetrics;
use iq_netsim::{payload, Addr, Agent, Ctx, FlowId, Packet, Time, TimerId};
use iq_telemetry::TelemetrySink;

use crate::receiver::ReceiverConn;
use crate::segment::{wire_size, RudpPacket};
use crate::sender::SenderConn;
use crate::types::{DeliveredMsg, RudpConfig};

/// Timer token reserved for RUDP protocol ticks; embedding agents must
/// route `on_timer` calls with this token to the driver (or simply call
/// [`SenderDriver::on_timer`], which owns the routing).
pub const RUDP_TIMER_TOKEN: u64 = 0x5255_4450; // "RUDP"

/// Builds both halves of one RUDP connection from a single
/// configuration, keeping conn id, flow tag, and telemetry sink
/// consistent between them.
///
/// Obtained from [`RudpConfig::builder`]. The builder is the one place
/// that knows how a connection plugs into the simulator: it attaches the
/// telemetry sink to both state machines (under the flow's id) and the
/// drivers it yields own the [`RUDP_TIMER_TOKEN`] routing detail, so
/// embedding agents never touch the constant.
#[derive(Clone)]
pub struct ConnBuilder {
    /// Shared, not cloned per connection: a many-flow setup builds
    /// hundreds of connections from one immutable config.
    cfg: Arc<RudpConfig>,
    conn_id: u32,
    flow: FlowId,
    telemetry: TelemetrySink,
}

impl ConnBuilder {
    /// Creates a builder for connection `conn_id`, tagging packets and
    /// telemetry with `flow`.
    pub fn new(cfg: RudpConfig, conn_id: u32, flow: FlowId) -> Self {
        Self {
            cfg: Arc::new(cfg),
            conn_id,
            flow,
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attaches a telemetry sink to every connection built afterwards.
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Selects the congestion-control algorithm for every connection
    /// built afterwards (window bounds stay as configured).
    pub fn cc(mut self, algorithm: crate::CcAlgorithm) -> Self {
        Arc::make_mut(&mut self.cfg).cc.algorithm = algorithm;
        self
    }

    /// Re-targets the builder at another connection id and flow, reusing
    /// the shared config (many-flow setup loops).
    pub fn for_conn(&self, conn_id: u32, flow: FlowId) -> Self {
        Self {
            cfg: Arc::clone(&self.cfg),
            conn_id,
            flow,
            telemetry: self.telemetry.clone(),
        }
    }

    /// Builds the sending half, driving segments toward `peer`.
    pub fn build_sender(&self, peer: Addr) -> SenderDriver {
        let mut conn = SenderConn::from_shared(self.conn_id, Arc::clone(&self.cfg));
        conn.set_telemetry(self.telemetry.clone(), u64::from(self.flow.0));
        SenderDriver::new(conn, peer, self.flow)
    }

    /// Builds the receiving half.
    pub fn build_receiver(&self) -> ReceiverDriver {
        let mut conn = ReceiverConn::from_shared(self.conn_id, Arc::clone(&self.cfg));
        conn.set_telemetry(self.telemetry.clone(), u64::from(self.flow.0));
        ReceiverDriver::new(conn, self.flow)
    }

    /// Builds both drivers at once (sender first).
    pub fn build(&self, peer: Addr) -> (SenderDriver, ReceiverDriver) {
        (self.build_sender(peer), self.build_receiver())
    }
}

impl RudpConfig {
    /// Starts a [`ConnBuilder`] yielding matched sender/receiver drivers
    /// for connection `conn_id` on `flow`.
    pub fn builder(&self, conn_id: u32, flow: FlowId) -> ConnBuilder {
        ConnBuilder::new(self.clone(), conn_id, flow)
    }
}

/// Embeds a [`SenderConn`] into an agent: transmission pumping, timer
/// management, and packet demultiplexing.
pub struct SenderDriver {
    /// The protocol state machine (public for metric access).
    pub conn: SenderConn,
    peer: Addr,
    flow: FlowId,
    armed: Option<(Time, TimerId)>,
}

impl SenderDriver {
    /// Creates a driver that talks to `peer` tagging packets with `flow`.
    pub fn new(conn: SenderConn, peer: Addr, flow: FlowId) -> Self {
        Self {
            conn,
            peer,
            flow,
            armed: None,
        }
    }

    /// Feeds an incoming packet; returns `true` if it belonged to this
    /// connection. Call [`Self::pump`] afterwards.
    pub fn handle_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> bool {
        let Some(rp) = pkt.payload_as::<RudpPacket>() else {
            return false;
        };
        if rp.conn_id != self.conn.conn_id() {
            return false;
        }
        self.conn.on_segment(ctx.now(), &rp.segment);
        true
    }

    /// Handles a timer tick (token [`RUDP_TIMER_TOKEN`]).
    ///
    /// Safe to call on any driver when the token fires, even with
    /// several drivers sharing one agent: only a timer that actually
    /// reached its deadline is considered consumed (otherwise this
    /// driver's pending timer stays armed and no duplicate is set).
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((at, _)) = self.armed {
            if at <= ctx.now() {
                self.armed = None;
            }
        }
        self.conn.on_tick(ctx.now());
    }

    /// Routes a timer callback by token: consumes the tick (and returns
    /// `true`) iff `token` is the RUDP protocol token, so embedding
    /// agents need not know [`RUDP_TIMER_TOKEN`]. Call [`Self::pump`]
    /// afterwards when this returns `true`.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        if token != RUDP_TIMER_TOKEN {
            return false;
        }
        self.handle_timer(ctx);
        true
    }

    /// Transmits everything ready and re-arms the protocol timer. Must
    /// be called after every interaction with the connection.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let conn_id = self.conn.conn_id();
        while let Some(seg) = self.conn.poll_transmit(ctx.now()) {
            let size = wire_size(&seg);
            ctx.send(
                self.peer,
                size,
                self.flow,
                payload(RudpPacket {
                    conn_id,
                    segment: seg,
                }),
            );
        }
        self.rearm(ctx);
    }

    fn rearm(&mut self, ctx: &mut Ctx<'_>) {
        let Some(next) = self.conn.next_timeout(ctx.now()) else {
            return;
        };
        let next = next.max(ctx.now());
        match self.armed {
            Some((at, _)) if at <= next => {} // an earlier timer is armed
            _ => {
                if let Some((_, id)) = self.armed.take() {
                    ctx.cancel_timer(id);
                }
                let delay = next - ctx.now();
                let id = ctx.set_timer(delay, RUDP_TIMER_TOKEN);
                self.armed = Some((next, id));
            }
        }
    }
}

/// Embeds a [`ReceiverConn`] into an agent. The peer address is learned
/// from the first arriving packet.
pub struct ReceiverDriver {
    /// The protocol state machine (public for metric access).
    pub conn: ReceiverConn,
    peer: Option<Addr>,
    flow: FlowId,
}

impl ReceiverDriver {
    /// Creates a receiver driver tagging outgoing ACKs with `flow`.
    pub fn new(conn: ReceiverConn, flow: FlowId) -> Self {
        Self {
            conn,
            peer: None,
            flow,
        }
    }

    /// Feeds an incoming packet; returns `true` when consumed. Call
    /// [`Self::pump`] afterwards.
    pub fn handle_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> bool {
        let Some(rp) = pkt.payload_as::<RudpPacket>() else {
            return false;
        };
        if rp.conn_id != self.conn.conn_id() {
            return false;
        }
        self.peer.get_or_insert(pkt.src);
        self.conn.on_segment(ctx.now(), &rp.segment);
        true
    }

    /// Transmits pending ACKs/control segments.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let Some(peer) = self.peer else {
            return;
        };
        let conn_id = self.conn.conn_id();
        while let Some(seg) = self.conn.poll_transmit(ctx.now()) {
            let size = wire_size(&seg);
            ctx.send(
                peer,
                size,
                self.flow,
                payload(RudpPacket {
                    conn_id,
                    segment: seg,
                }),
            );
        }
    }
}

/// Sends a fixed volume of data as fast as the windows allow, in
/// `msg_size`-byte marked messages, then closes. Used by the baseline
/// and fairness experiments.
pub struct BulkSenderAgent {
    driver: SenderDriver,
    remaining_msgs: u64,
    msg_size: u32,
    /// Keep roughly this many segments queued inside the connection.
    backlog_target: usize,
    /// Send every n-th message unmarked (0 = everything marked); the
    /// incast workload uses this to exercise abandonment paths.
    unmark_every: u64,
    offered: u64,
}

impl BulkSenderAgent {
    /// Creates a bulk sender that will transfer `total_msgs` messages of
    /// `msg_size` bytes each over `conn`.
    pub fn new(conn: SenderConn, peer: Addr, flow: FlowId, total_msgs: u64, msg_size: u32) -> Self {
        Self::from_driver(SenderDriver::new(conn, peer, flow), total_msgs, msg_size)
    }

    /// Wraps an already-built driver (see [`ConnBuilder::build_sender`]).
    pub fn from_driver(driver: SenderDriver, total_msgs: u64, msg_size: u32) -> Self {
        Self {
            driver,
            remaining_msgs: total_msgs,
            msg_size,
            backlog_target: 128,
            unmark_every: 0,
            offered: 0,
        }
    }

    /// Sends every `n`-th message unmarked (droppable under the
    /// receiver's loss tolerance or discard-unmarked coordination).
    pub fn unmark_every(mut self, n: u64) -> Self {
        self.unmark_every = n;
        self
    }

    /// Access to the underlying connection (stats, window).
    pub fn conn(&self) -> &SenderConn {
        &self.driver.conn
    }

    /// Messages offered so far (including discarded unmarked ones).
    pub fn offered_msgs(&self) -> u64 {
        self.offered
    }

    fn refill(&mut self, now: Time) {
        while self.remaining_msgs > 0
            && self.driver.conn.backlog_segments() < self.backlog_target
        {
            let marked = self.unmark_every == 0 || !self.offered.is_multiple_of(self.unmark_every);
            self.driver.conn.send_message(now, self.msg_size, marked);
            self.offered += 1;
            self.remaining_msgs -= 1;
        }
        if self.remaining_msgs == 0 {
            self.driver.conn.finish();
        }
    }

    fn after_io(&mut self, ctx: &mut Ctx<'_>) {
        self.driver.conn.clear_events();
        self.refill(ctx.now());
        self.driver.pump(ctx);
    }
}

impl Agent for BulkSenderAgent {
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
        if token == RUDP_TIMER_TOKEN {
            self.driver.handle_timer(ctx);
            self.after_io(ctx);
        }
    }
}

/// Receives messages and records [`FlowMetrics`]; the standard receiving
/// end of every RUDP experiment.
pub struct RudpSinkAgent {
    driver: ReceiverDriver,
    /// Receiver-side application metrics.
    pub metrics: FlowMetrics,
    /// Raw messages, retained when `keep_messages` is set.
    pub messages: Vec<DeliveredMsg>,
    keep_messages: bool,
}

impl RudpSinkAgent {
    /// Creates a sink for connection `conn_id`.
    pub fn new(conn_id: u32, cfg: RudpConfig, flow: FlowId) -> Self {
        Self::from_driver(ReceiverDriver::new(ReceiverConn::new(conn_id, cfg), flow))
    }

    /// Wraps an already-built driver (see
    /// [`ConnBuilder::build_receiver`]).
    pub fn from_driver(driver: ReceiverDriver) -> Self {
        Self::with_metrics(driver, FlowMetrics::new())
    }

    /// [`Self::from_driver`] recording into `metrics`: a sink whose
    /// arrival shape nobody reads takes [`FlowMetrics::volume_only`].
    pub fn with_metrics(driver: ReceiverDriver, metrics: FlowMetrics) -> Self {
        Self {
            driver,
            metrics,
            messages: Vec::new(),
            keep_messages: false,
        }
    }

    /// Retain every delivered message for later inspection.
    pub fn keep_messages(mut self) -> Self {
        self.keep_messages = true;
        self
    }

    /// Access to the underlying connection (stats).
    pub fn conn(&self) -> &ReceiverConn {
        &self.driver.conn
    }

    /// Whether the transfer finished cleanly.
    pub fn is_finished(&self) -> bool {
        self.driver.conn.is_finished()
    }
}

impl Agent for RudpSinkAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if !self.driver.handle_packet(ctx, &pkt) {
            return;
        }
        while let Some(msg) = self.driver.conn.pop_message() {
            self.metrics.on_message(
                msg.delivered_at,
                msg.sent_at,
                u64::from(msg.size),
                msg.marked,
            );
            if self.keep_messages {
                self.messages.push(msg);
            }
        }
        self.driver.conn.clear_events();
        self.driver.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::{time, LinkSpec, Simulator};

    #[test]
    fn sink_box_is_compact() {
        // One box per flow of a fleet: the receiving connection, the
        // recorder's volume and a pointer to the arrival shape only the
        // reported flow has. A new inline field should show up here.
        let size = std::mem::size_of::<RudpSinkAgent>();
        println!("RudpSinkAgent: {size} bytes (ceiling 576)");
        assert!(size <= 576, "RudpSinkAgent grew to {size} bytes");
    }

    /// End-to-end bulk transfer over a clean 10 Mb/s, 10 ms-RTT link.
    #[test]
    fn bulk_transfer_delivers_everything() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(10e6, time::millis(5), 64_000));
        let cfg = RudpConfig::default();
        let sender = BulkSenderAgent::new(
            SenderConn::new(7, cfg.clone()),
            Addr::new(b, 1),
            FlowId(1),
            100,
            1400,
        );
        let tx = sim.add_agent(a, 1, Box::new(sender));
        let rx = sim.add_agent(b, 1, Box::new(RudpSinkAgent::new(7, cfg, FlowId(1))));
        sim.run_until(time::secs(30.0));

        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(sink.is_finished(), "transfer did not finish");
        assert_eq!(sink.metrics.messages(), 100);
        assert_eq!(sink.metrics.bytes(), 140_000);
        let sender = sim.agent::<BulkSenderAgent>(tx).unwrap();
        assert!(sender.conn().is_closed());
        assert_eq!(sender.conn().stats().segments_acked, 100);
    }

    /// The same transfer over a 5%-lossy link still completes (marked
    /// data is fully reliable) with retransmissions.
    #[test]
    fn bulk_transfer_survives_random_loss() {
        let mut sim = Simulator::new(11);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(
            a,
            b,
            LinkSpec::new(10e6, time::millis(5), 64_000).with_random_loss(0.05),
        );
        let cfg = RudpConfig::default();
        let sender = BulkSenderAgent::new(
            SenderConn::new(7, cfg.clone()),
            Addr::new(b, 1),
            FlowId(1),
            200,
            1400,
        );
        let tx = sim.add_agent(a, 1, Box::new(sender));
        let rx = sim.add_agent(b, 1, Box::new(RudpSinkAgent::new(7, cfg, FlowId(1))));
        sim.run_until(time::secs(60.0));

        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(sink.is_finished(), "lossy transfer did not finish");
        assert_eq!(sink.metrics.messages(), 200);
        let sender = sim.agent::<BulkSenderAgent>(tx).unwrap();
        assert!(sender.conn().stats().retransmits > 0, "expected retransmits");
        assert_eq!(sender.conn().stats().segments_abandoned, 0);
    }

    /// The builder yields matched drivers with telemetry attached to
    /// both ends, and a transfer over them leaves a coherent event
    /// stream on the bus.
    #[test]
    fn conn_builder_wires_telemetry_through_both_drivers() {
        use iq_telemetry::TelemetryReport;

        let mut sim = Simulator::new(3);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(10e6, time::millis(5), 64_000));
        let (sink, bus) = TelemetrySink::new_bus(0);
        let builder = RudpConfig::default()
            .builder(7, FlowId(1))
            .telemetry(sink);
        let (tx_driver, rx_driver) = builder.build(Addr::new(b, 1));
        assert!(tx_driver.conn.telemetry().is_enabled());
        assert_eq!(tx_driver.conn.telemetry_flow(), 1);
        assert_eq!(rx_driver.conn.telemetry_flow(), 1);

        // Run a real transfer over the built drivers.
        let sender = BulkSenderAgent::from_driver(tx_driver, 50, 1400);
        sim.add_agent(a, 1, Box::new(sender));
        let rx = sim.add_agent(b, 1, Box::new(RudpSinkAgent::from_driver(rx_driver)));
        sim.run_until(time::secs(30.0));

        let sink_agent = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(sink_agent.is_finished());
        let records = bus.lock().unwrap().records();
        let report = TelemetryReport::from_records(&records);
        assert_eq!(report.msgs_delivered, 50);
        assert!(report.count("period_sample") > 0, "no period samples");
        assert!(records.iter().all(|r| r.flow == 1));
        // Sequence numbers are strictly increasing (emission order).
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    /// Throughput of a long transfer approaches the link rate.
    #[test]
    fn bulk_transfer_saturates_clean_link() {
        let mut sim = Simulator::new(5);
        let a = sim.add_node();
        let b = sim.add_node();
        // 8 Mb/s, 20 ms RTT; queue = BDP.
        sim.add_duplex_link(
            a,
            b,
            LinkSpec::new(8e6, time::millis(10), 64_000).with_bdp_queue(time::millis(20)),
        );
        let cfg = RudpConfig::default();
        let total_msgs = 2000u64;
        let sender = BulkSenderAgent::new(
            SenderConn::new(1, cfg.clone()),
            Addr::new(b, 1),
            FlowId(1),
            total_msgs,
            1400,
        );
        sim.add_agent(a, 1, Box::new(sender));
        let rx = sim.add_agent(b, 1, Box::new(RudpSinkAgent::new(1, cfg, FlowId(1))));
        sim.run_until(time::secs(60.0));
        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(sink.is_finished());
        let kbps = sink.metrics.throughput_kbps();
        // 8 Mb/s is 1000 KB/s; expect at least 60% utilization
        // (conservative: additive increase takes a while).
        assert!(kbps > 600.0, "throughput too low: {kbps} KB/s");
    }
}
