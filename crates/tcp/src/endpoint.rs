//! Simulator glue for the TCP model: its connections plug into
//! `iq-netsim`'s endpoint layer exactly as RUDP's do, plus the sink that
//! records [`FlowMetrics`].

use iq_metrics::FlowMetrics;
use iq_netsim::{Agent, Conn, Ctx, Packet, ReceiverDriver, SendConn, Time};

use crate::receiver::TcpReceiverConn;
use crate::segment::{tcp_wire_size, TcpSegment};
use crate::sender::TcpSenderConn;

impl Conn for TcpSenderConn {
    type Segment = TcpSegment;

    fn conn_id(&self) -> u32 {
        TcpSenderConn::conn_id(self)
    }

    fn on_segment(&mut self, now: Time, seg: &TcpSegment) {
        TcpSenderConn::on_segment(self, now, seg);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<TcpSegment> {
        TcpSenderConn::poll_transmit(self, now)
    }

    fn wire_size(seg: &TcpSegment) -> u32 {
        tcp_wire_size(seg)
    }
}

impl SendConn for TcpSenderConn {
    fn on_tick(&mut self, now: Time) {
        TcpSenderConn::on_tick(self, now);
    }

    fn next_timeout(&self, now: Time) -> Option<Time> {
        TcpSenderConn::next_timeout(self, now)
    }

    /// TCP delivers everything: `marked` is ignored.
    fn send_message(&mut self, now: Time, size: u32, _marked: bool) {
        TcpSenderConn::send_message(self, now, size);
    }

    fn backlog_segments(&self) -> usize {
        TcpSenderConn::backlog_segments(self)
    }

    fn finish(&mut self) {
        TcpSenderConn::finish(self);
    }

    fn clear_events(&mut self) {
        self.take_events();
    }
}

impl Conn for TcpReceiverConn {
    type Segment = TcpSegment;

    fn conn_id(&self) -> u32 {
        TcpReceiverConn::conn_id(self)
    }

    fn on_segment(&mut self, now: Time, seg: &TcpSegment) {
        TcpReceiverConn::on_segment(self, now, seg);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<TcpSegment> {
        TcpReceiverConn::poll_transmit(self, now)
    }

    fn wire_size(seg: &TcpSegment) -> u32 {
        tcp_wire_size(seg)
    }
}

/// Receives TCP messages and records [`FlowMetrics`].
pub struct TcpSinkAgent {
    driver: ReceiverDriver<TcpReceiverConn>,
    /// Receiver-side application metrics.
    pub metrics: FlowMetrics,
}

impl TcpSinkAgent {
    /// A sink on `driver` recording into `metrics`: a sink whose arrival
    /// shape nobody reads takes [`FlowMetrics::volume_only`].
    pub fn new(driver: ReceiverDriver<TcpReceiverConn>, metrics: FlowMetrics) -> Self {
        Self { driver, metrics }
    }

    /// Whether the transfer finished cleanly.
    pub fn is_finished(&self) -> bool {
        self.driver.conn.is_finished()
    }

    /// Access to the connection (stats).
    pub fn conn(&self) -> &TcpReceiverConn {
        &self.driver.conn
    }
}

impl Agent for TcpSinkAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if !self.driver.handle_packet(ctx, &pkt) {
            return;
        }
        for msg in self.driver.conn.take_messages() {
            self.metrics
                .on_message(msg.delivered_at, msg.sent_at, u64::from(msg.size), true);
        }
        self.driver.conn.take_events();
        self.driver.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::TcpConfig;
    use iq_netsim::{time, Addr, BulkSender, FlowId, LinkSpec, NodeId, SenderDriver, Simulator};

    /// A bulk sender of `msgs` 1400-byte messages on connection `id`
    /// toward `peer`, and its sink.
    fn pair(id: u32, peer: NodeId, msgs: u64) -> (BulkSender<TcpSenderConn>, TcpSinkAgent) {
        let conn = TcpSenderConn::new(id, TcpConfig);
        let tx = SenderDriver::new(conn, Addr::new(peer, 1), FlowId(id));
        let tx = BulkSender::new(tx, msgs, 1400);
        let rx = ReceiverDriver::new(TcpReceiverConn::new(id, TcpConfig), FlowId(id));
        (tx, TcpSinkAgent::new(rx, FlowMetrics::new()))
    }

    #[test]
    fn tcp_bulk_transfer_completes() {
        let mut sim = Simulator::new(9);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(10e6, time::millis(5), 64_000));
        let (sender, sink) = pair(2, b, 150);
        sim.add_agent(a, 1, Box::new(sender));
        let rx = sim.add_agent(b, 1, Box::new(sink));
        sim.run_until(time::secs(30.0));
        let sink = sim.agent::<TcpSinkAgent>(rx).unwrap();
        assert!(sink.is_finished());
        assert_eq!(sink.metrics.messages(), 150);
    }

    #[test]
    fn tcp_recovers_from_random_loss() {
        let mut sim = Simulator::new(10);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(
            a,
            b,
            LinkSpec::new(10e6, time::millis(5), 64_000).with_random_loss(0.03),
        );
        let (sender, sink) = pair(2, b, 300);
        let tx = sim.add_agent(a, 1, Box::new(sender));
        let rx = sim.add_agent(b, 1, Box::new(sink));
        sim.run_until(time::secs(120.0));
        let sink = sim.agent::<TcpSinkAgent>(rx).unwrap();
        assert!(sink.is_finished(), "lossy TCP transfer did not finish");
        assert_eq!(sink.metrics.messages(), 300);
        let sender = sim.agent::<BulkSender<TcpSenderConn>>(tx).unwrap();
        assert!(sender.conn().stats().retransmits > 0);
    }

    #[test]
    fn two_tcp_flows_share_a_bottleneck_roughly_fairly() {
        let mut sim = Simulator::new(21);
        let spec = iq_netsim::DumbbellSpec::paper_default(2);
        let db = iq_netsim::build_dumbbell(&mut sim, &spec);
        let mut sinks = Vec::new();
        for (i, (&l, &r)) in db.left_hosts.iter().zip(&db.right_hosts).enumerate() {
            let (sender, sink) = pair(i as u32 + 1, r, 3000);
            sim.add_agent(l, 1, Box::new(sender));
            sinks.push((r, sink));
        }
        let rx: Vec<_> = sinks
            .into_iter()
            .map(|(r, sink)| sim.add_agent(r, 1, Box::new(sink)))
            .collect();
        sim.run_until(time::secs(20.0));
        let kbps = |id| sim.agent::<TcpSinkAgent>(id).unwrap().metrics.throughput_kbps();
        let (t0, t1) = (kbps(rx[0]), kbps(rx[1]));
        assert!(t0 > 100.0 && t1 > 100.0, "both must progress: {t0} / {t1}");
        let ratio = t0.max(t1) / t0.min(t1).max(1.0);
        assert!(ratio < 3.0, "gross unfairness: {t0} vs {t1}");
    }
}
