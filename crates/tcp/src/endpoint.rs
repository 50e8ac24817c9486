//! Simulator glue for the TCP model: drivers plus bulk/sink agents,
//! mirroring the RUDP endpoint layer.

use iq_metrics::FlowMetrics;
use iq_netsim::{payload, Addr, Agent, Ctx, FlowId, Packet, Time, TimerId};

use crate::receiver::{TcpDeliveredMsg, TcpReceiverConn};
use crate::segment::{tcp_wire_size, TcpPacket};
use crate::sender::{TcpConfig, TcpSenderConn};

/// Timer token reserved for TCP protocol ticks.
pub const TCP_TIMER_TOKEN: u64 = 0x5443_5054; // "TCPT"

/// Embeds a [`TcpSenderConn`] into an agent.
pub struct TcpSenderDriver {
    /// The protocol state machine.
    pub conn: TcpSenderConn,
    peer: Addr,
    flow: FlowId,
    armed: Option<(Time, TimerId)>,
}

impl TcpSenderDriver {
    /// Creates a driver toward `peer` tagging packets with `flow`.
    pub fn new(conn: TcpSenderConn, peer: Addr, flow: FlowId) -> Self {
        Self {
            conn,
            peer,
            flow,
            armed: None,
        }
    }

    /// Feeds an incoming packet; returns `true` when consumed.
    pub fn handle_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> bool {
        let Some(tp) = pkt.payload_as::<TcpPacket>() else {
            return false;
        };
        if tp.conn_id != self.conn.conn_id() {
            return false;
        }
        self.conn.on_segment(ctx.now(), &tp.segment);
        true
    }

    /// Handles the protocol timer tick. Only a timer that actually
    /// reached its deadline is considered consumed, so several drivers
    /// may share one agent's timer token safely.
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((at, _)) = self.armed {
            if at <= ctx.now() {
                self.armed = None;
            }
        }
        self.conn.on_tick(ctx.now());
    }

    /// Transmits everything ready and re-arms the timer.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let conn_id = self.conn.conn_id();
        while let Some(seg) = self.conn.poll_transmit(ctx.now()) {
            let size = tcp_wire_size(&seg);
            ctx.send(
                self.peer,
                size,
                self.flow,
                payload(TcpPacket {
                    conn_id,
                    segment: seg,
                }),
            );
        }
        if let Some(next) = self.conn.next_timeout(ctx.now()) {
            let next = next.max(ctx.now());
            match self.armed {
                Some((at, _)) if at <= next => {}
                _ => {
                    if let Some((_, id)) = self.armed.take() {
                        ctx.cancel_timer(id);
                    }
                    let id = ctx.set_timer(next - ctx.now(), TCP_TIMER_TOKEN);
                    self.armed = Some((next, id));
                }
            }
        }
    }
}

/// Embeds a [`TcpReceiverConn`] into an agent.
pub struct TcpReceiverDriver {
    /// The protocol state machine.
    pub conn: TcpReceiverConn,
    peer: Option<Addr>,
    flow: FlowId,
}

impl TcpReceiverDriver {
    /// Creates a receiver driver tagging ACKs with `flow`.
    pub fn new(conn: TcpReceiverConn, flow: FlowId) -> Self {
        Self {
            conn,
            peer: None,
            flow,
        }
    }

    /// Feeds an incoming packet; returns `true` when consumed.
    pub fn handle_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> bool {
        let Some(tp) = pkt.payload_as::<TcpPacket>() else {
            return false;
        };
        if tp.conn_id != self.conn.conn_id() {
            return false;
        }
        self.peer.get_or_insert(pkt.src);
        self.conn.on_segment(ctx.now(), &tp.segment);
        true
    }

    /// Transmits pending ACK/control segments.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let Some(peer) = self.peer else {
            return;
        };
        let conn_id = self.conn.conn_id();
        while let Some(seg) = self.conn.poll_transmit(ctx.now()) {
            let size = tcp_wire_size(&seg);
            ctx.send(
                peer,
                size,
                self.flow,
                payload(TcpPacket {
                    conn_id,
                    segment: seg,
                }),
            );
        }
    }
}

/// Sends a fixed number of fixed-size messages as fast as TCP allows.
pub struct TcpBulkSenderAgent {
    driver: TcpSenderDriver,
    remaining_msgs: u64,
    msg_size: u32,
    backlog_target: usize,
}

impl TcpBulkSenderAgent {
    /// Creates a bulk sender transferring `total_msgs × msg_size` bytes.
    pub fn new(
        conn: TcpSenderConn,
        peer: Addr,
        flow: FlowId,
        total_msgs: u64,
        msg_size: u32,
    ) -> Self {
        Self {
            driver: TcpSenderDriver::new(conn, peer, flow),
            remaining_msgs: total_msgs,
            msg_size,
            backlog_target: 128,
        }
    }

    /// Access to the connection (stats).
    pub fn conn(&self) -> &TcpSenderConn {
        &self.driver.conn
    }

    fn refill(&mut self, now: Time) {
        while self.remaining_msgs > 0
            && self.driver.conn.backlog_segments() < self.backlog_target
        {
            self.driver.conn.send_message(now, self.msg_size);
            self.remaining_msgs -= 1;
        }
        if self.remaining_msgs == 0 {
            self.driver.conn.finish();
        }
    }
}

impl Agent for TcpBulkSenderAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.refill(ctx.now());
        self.driver.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.driver.handle_packet(ctx, &pkt) {
            self.driver.conn.take_events();
            self.refill(ctx.now());
            self.driver.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TCP_TIMER_TOKEN {
            self.driver.handle_timer(ctx);
            self.refill(ctx.now());
            self.driver.pump(ctx);
        }
    }
}

/// Receives TCP messages and records [`FlowMetrics`].
pub struct TcpSinkAgent {
    driver: TcpReceiverDriver,
    /// Receiver-side application metrics.
    pub metrics: FlowMetrics,
    /// Raw messages, retained when requested.
    pub messages: Vec<TcpDeliveredMsg>,
    keep_messages: bool,
}

impl TcpSinkAgent {
    /// Creates a sink for connection `conn_id`.
    pub fn new(conn_id: u32, cfg: TcpConfig, flow: FlowId) -> Self {
        Self::with_metrics(conn_id, cfg, flow, FlowMetrics::new())
    }

    /// [`Self::new`] recording into `metrics`: a sink whose arrival shape
    /// nobody reads takes [`FlowMetrics::volume_only`].
    pub fn with_metrics(conn_id: u32, cfg: TcpConfig, flow: FlowId, metrics: FlowMetrics) -> Self {
        Self {
            driver: TcpReceiverDriver::new(TcpReceiverConn::new(conn_id, cfg), flow),
            metrics,
            messages: Vec::new(),
            keep_messages: false,
        }
    }

    /// Retain every delivered message.
    pub fn keep_messages(mut self) -> Self {
        self.keep_messages = true;
        self
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
            if self.keep_messages {
                self.messages.push(msg);
            }
        }
        self.driver.conn.take_events();
        self.driver.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::{time, LinkSpec, Simulator};

    #[test]
    fn tcp_bulk_transfer_completes() {
        let mut sim = Simulator::new(9);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(10e6, time::millis(5), 64_000));
        let cfg = TcpConfig::default();
        sim.add_agent(
            a,
            1,
            Box::new(TcpBulkSenderAgent::new(
                TcpSenderConn::new(2, cfg.clone()),
                Addr::new(b, 1),
                FlowId(2),
                150,
                1400,
            )),
        );
        let rx = sim.add_agent(b, 1, Box::new(TcpSinkAgent::new(2, cfg, FlowId(2))));
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
        let cfg = TcpConfig::default();
        let tx = sim.add_agent(
            a,
            1,
            Box::new(TcpBulkSenderAgent::new(
                TcpSenderConn::new(2, cfg.clone()),
                Addr::new(b, 1),
                FlowId(2),
                300,
                1400,
            )),
        );
        let rx = sim.add_agent(b, 1, Box::new(TcpSinkAgent::new(2, cfg, FlowId(2))));
        sim.run_until(time::secs(120.0));
        let sink = sim.agent::<TcpSinkAgent>(rx).unwrap();
        assert!(sink.is_finished(), "lossy TCP transfer did not finish");
        assert_eq!(sink.metrics.messages(), 300);
        let sender = sim.agent::<TcpBulkSenderAgent>(tx).unwrap();
        assert!(sender.conn().stats().retransmits > 0);
    }

    #[test]
    fn two_tcp_flows_share_a_bottleneck_roughly_fairly() {
        let mut sim = Simulator::new(21);
        let spec = iq_netsim::DumbbellSpec::paper_default(2);
        let db = iq_netsim::build_dumbbell(&mut sim, &spec);
        let cfg = TcpConfig::default();
        let msgs = 3000u64;
        for (i, (&l, &r)) in db
            .left_hosts
            .iter()
            .zip(&db.right_hosts)
            .enumerate()
        {
            let conn_id = i as u32 + 1;
            sim.add_agent(
                l,
                1,
                Box::new(TcpBulkSenderAgent::new(
                    TcpSenderConn::new(conn_id, cfg.clone()),
                    Addr::new(r, 1),
                    FlowId(conn_id),
                    msgs,
                    1400,
                )),
            );
        }
        let rx0 = sim.add_agent(
            db.right_hosts[0],
            1,
            Box::new(TcpSinkAgent::new(1, cfg.clone(), FlowId(1))),
        );
        let rx1 = sim.add_agent(
            db.right_hosts[1],
            1,
            Box::new(TcpSinkAgent::new(2, cfg.clone(), FlowId(2))),
        );
        sim.run_until(time::secs(20.0));
        let t0 = sim.agent::<TcpSinkAgent>(rx0).unwrap().metrics.throughput_kbps();
        let t1 = sim.agent::<TcpSinkAgent>(rx1).unwrap().metrics.throughput_kbps();
        assert!(t0 > 100.0 && t1 > 100.0, "both must progress: {t0} / {t1}");
        let ratio = t0.max(t1) / t0.min(t1).max(1.0);
        assert!(ratio < 3.0, "gross unfairness: {t0} vs {t1}");
    }
}
