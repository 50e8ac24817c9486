//! Simulator glue: how an RUDP connection plugs into `iq-netsim`'s
//! endpoint layer, and the sink every RUDP experiment receives with.
//!
//! The drivers, the bulk sender and the wire format are the simulator's
//! ([`iq_netsim::endpoint`]); this module makes [`SenderConn`] and
//! [`ReceiverConn`] its connections and builds matched halves.

use std::sync::Arc;

use iq_metrics::FlowMetrics;
use iq_netsim::{
    Addr, Agent, Conn, Ctx, FlowId, Packet, ReceiverDriver, SendConn, SenderDriver, Time,
};
use iq_telemetry::TelemetrySink;

use crate::receiver::ReceiverConn;
use crate::segment::{wire_size, Segment};
use crate::sender::SenderConn;
use crate::types::RudpConfig;

/// Builds both halves of one RUDP connection from a single
/// configuration, keeping conn id, flow tag, and telemetry sink
/// consistent between them.
///
/// Obtained from [`RudpConfig::builder`]. The builder is the one place
/// that knows how a connection plugs into the simulator: it attaches the
/// telemetry sink to both state machines (under the flow's id) and
/// wraps each in its driver.
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
    /// Attaches a telemetry sink to every connection built afterwards.
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
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
    pub fn build_sender(&self, peer: Addr) -> SenderDriver<SenderConn> {
        let mut conn = SenderConn::from_shared(self.conn_id, Arc::clone(&self.cfg));
        conn.set_telemetry(self.telemetry.clone(), u64::from(self.flow.0));
        SenderDriver::new(conn, peer, self.flow)
    }

    /// Builds the receiving half.
    pub fn build_receiver(&self) -> ReceiverDriver<ReceiverConn> {
        let mut conn = ReceiverConn::from_shared(self.conn_id, Arc::clone(&self.cfg));
        conn.set_telemetry(self.telemetry.clone(), u64::from(self.flow.0));
        ReceiverDriver::new(conn, self.flow)
    }
}

impl RudpConfig {
    /// Starts a [`ConnBuilder`] yielding matched sender/receiver drivers
    /// for connection `conn_id` on `flow`.
    pub fn builder(&self, conn_id: u32, flow: FlowId) -> ConnBuilder {
        ConnBuilder {
            cfg: Arc::new(self.clone()),
            conn_id,
            flow,
            telemetry: TelemetrySink::disabled(),
        }
    }
}

impl Conn for SenderConn {
    type Segment = Segment;

    fn conn_id(&self) -> u32 {
        SenderConn::conn_id(self)
    }

    fn on_segment(&mut self, now: Time, seg: &Segment) {
        SenderConn::on_segment(self, now, seg);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Segment> {
        SenderConn::poll_transmit(self, now)
    }

    fn wire_size(seg: &Segment) -> u32 {
        wire_size(seg)
    }
}

impl SendConn for SenderConn {
    fn on_tick(&mut self, now: Time) {
        SenderConn::on_tick(self, now);
    }

    fn next_timeout(&self, now: Time) -> Option<Time> {
        SenderConn::next_timeout(self, now)
    }

    fn send_message(&mut self, now: Time, size: u32, marked: bool) {
        SenderConn::send_message(self, now, size, marked);
    }

    fn backlog_segments(&self) -> usize {
        SenderConn::backlog_segments(self)
    }

    fn finish(&mut self) {
        SenderConn::finish(self);
    }

    fn clear_events(&mut self) {
        SenderConn::clear_events(self);
    }
}

impl Conn for ReceiverConn {
    type Segment = Segment;

    fn conn_id(&self) -> u32 {
        ReceiverConn::conn_id(self)
    }

    fn on_segment(&mut self, now: Time, seg: &Segment) {
        ReceiverConn::on_segment(self, now, seg);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Segment> {
        ReceiverConn::poll_transmit(self, now)
    }

    fn wire_size(seg: &Segment) -> u32 {
        wire_size(seg)
    }
}

/// Receives messages and records [`FlowMetrics`]; the standard receiving
/// end of every RUDP experiment.
pub struct RudpSinkAgent {
    driver: ReceiverDriver<ReceiverConn>,
    /// Receiver-side application metrics.
    pub metrics: FlowMetrics,
}

impl RudpSinkAgent {
    /// A sink on `driver` (see [`ConnBuilder::build_receiver`]) recording
    /// into `metrics`: a sink whose arrival shape nobody reads takes
    /// [`FlowMetrics::volume_only`].
    pub fn new(driver: ReceiverDriver<ReceiverConn>, metrics: FlowMetrics) -> Self {
        Self { driver, metrics }
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
        }
        self.driver.conn.clear_events();
        self.driver.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::{time, BulkSender, LinkSpec, NodeId, Simulator};

    /// A bulk sender of `msgs` 1400-byte messages on connection 7 of `cfg`
    /// toward `peer`, and its sink.
    fn pair(cfg: &RudpConfig, peer: NodeId, msgs: u64) -> (BulkSender<SenderConn>, RudpSinkAgent) {
        let b = cfg.builder(7, FlowId(1));
        let tx = BulkSender::new(b.build_sender(Addr::new(peer, 1)), msgs, 1400);
        (
            tx,
            RudpSinkAgent::new(b.build_receiver(), FlowMetrics::new()),
        )
    }

    #[test]
    fn sink_box_is_compact() {
        // One box per flow of a fleet: the receiving connection, the
        // recorder's volume and a pointer to the arrival shape only the
        // reported flow has. A new inline field should show up here.
        let size = std::mem::size_of::<RudpSinkAgent>();
        println!("RudpSinkAgent: {size} bytes (ceiling 512)");
        assert!(size <= 512, "RudpSinkAgent grew to {size} bytes");
        // The drivers carry their connection plus addressing and the
        // armed timer, no more.
        let sender = std::mem::size_of::<SenderDriver<SenderConn>>();
        let receiver = std::mem::size_of::<ReceiverDriver<ReceiverConn>>();
        println!("SenderDriver: {sender} bytes (ceiling 704), ReceiverDriver: {receiver} (472)");
        assert!(
            sender <= 704 && receiver <= 472,
            "a driver grew: {sender} / {receiver}"
        );
    }

    /// End-to-end bulk transfer over a clean 10 Mb/s, 10 ms-RTT link.
    #[test]
    fn bulk_transfer_delivers_everything() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(10e6, time::millis(5), 64_000));
        let (sender, sink) = pair(&RudpConfig::default(), b, 100);
        let tx = sim.add_agent(a, 1, Box::new(sender));
        let rx = sim.add_agent(b, 1, Box::new(sink));
        sim.run_until(time::secs(30.0));

        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(sink.is_finished(), "transfer did not finish");
        assert_eq!(sink.metrics.messages(), 100);
        assert_eq!(sink.metrics.bytes(), 140_000);
        let sender = sim.agent::<BulkSender<SenderConn>>(tx).unwrap();
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
        let (sender, sink) = pair(&RudpConfig::default(), b, 200);
        let tx = sim.add_agent(a, 1, Box::new(sender));
        let rx = sim.add_agent(b, 1, Box::new(sink));
        sim.run_until(time::secs(60.0));

        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(sink.is_finished(), "lossy transfer did not finish");
        assert_eq!(sink.metrics.messages(), 200);
        let sender = sim.agent::<BulkSender<SenderConn>>(tx).unwrap();
        assert!(
            sender.conn().stats().retransmits > 0,
            "expected retransmits"
        );
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
        let builder = RudpConfig::default().builder(7, FlowId(1)).telemetry(sink);
        let tx_driver = builder.build_sender(Addr::new(b, 1));
        let rx_driver = builder.build_receiver();
        assert!(tx_driver.conn.telemetry().is_enabled());
        assert_eq!(tx_driver.conn.telemetry_flow(), 1);
        assert_eq!(rx_driver.conn.telemetry_flow(), 1);

        // Run a real transfer over the built drivers.
        sim.add_agent(a, 1, Box::new(BulkSender::new(tx_driver, 50, 1400)));
        let rx = sim.add_agent(
            b,
            1,
            Box::new(RudpSinkAgent::new(rx_driver, FlowMetrics::new())),
        );
        sim.run_until(time::secs(30.0));

        let sink_agent = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(sink_agent.is_finished());
        let records = bus.lock().unwrap().records();
        let report = TelemetryReport::from_records(&records);
        assert_eq!(report.count("msg_delivered"), 50);
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
        // 8 Mb/s, 20 ms RTT; queue = BDP (20,000 B).
        sim.add_duplex_link(a, b, LinkSpec::new(8e6, time::millis(10), 20_000));
        let (sender, sink) = pair(&RudpConfig::default(), b, 2000);
        sim.add_agent(a, 1, Box::new(sender));
        let rx = sim.add_agent(b, 1, Box::new(sink));
        sim.run_until(time::secs(60.0));
        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(sink.is_finished());
        let kbps = sink.metrics.throughput_kbps();
        // 8 Mb/s is 1000 KB/s; expect at least 60% utilization
        // (conservative: additive increase takes a while).
        assert!(kbps > 600.0, "throughput too low: {kbps} KB/s");
    }
}
