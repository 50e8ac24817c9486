//! Cross-crate integration: full transfers through the simulator with
//! every layer engaged (netsim, transports, middleware, workloads).

use iq_echo::{AdaptiveSourceAgent, MarkingAdapter, Policy, SourceConfig};
use iq_metrics::FlowMetrics;
use iq_netsim::{
    build_dumbbell, time, Addr, Agent, BulkSender, Conn, Ctx, DumbbellSpec, FlowId, LinkSpec,
    NodeId, Packet, ReceiverDriver, SenderDriver, Simulator,
};
use iq_rudp::{DeliveredMsg, ReceiverConn, RudpConfig, RudpSinkAgent, SenderConn};
use iq_tcp::{TcpConfig, TcpDeliveredMsg, TcpReceiverConn, TcpSenderConn};
use iq_workload::{CbrSource, UdpSink};

/// A bulk RUDP sender of `msgs` messages of `size` bytes on connection 1
/// toward `peer`, and the receiving driver of the same connection.
fn rudp_pair(
    cfg: &RudpConfig,
    peer: NodeId,
    msgs: u64,
    size: u32,
) -> (BulkSender<SenderConn>, ReceiverDriver<ReceiverConn>) {
    let b = cfg.builder(1, FlowId(1));
    (BulkSender::new(b.build_sender(Addr::new(peer, 1)), msgs, size), b.build_receiver())
}

/// A sink on `rx` recording every message's arrival shape.
fn sink(rx: ReceiverDriver<ReceiverConn>) -> RudpSinkAgent {
    RudpSinkAgent::new(rx, FlowMetrics::new())
}

/// Keeps every message its connection delivers, in delivery order —
/// what the in-order checks read and no sink retains.
struct Recorder<C, M> {
    driver: ReceiverDriver<C>,
    messages: Vec<M>,
    /// Moves the connection's delivered messages into the log and drops
    /// its pending events.
    drain: fn(&mut C, &mut Vec<M>),
}

impl<C: Conn + Send + 'static, M: Send + 'static> Agent for Recorder<C, M> {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.driver.handle_packet(ctx, &pkt) {
            (self.drain)(&mut self.driver.conn, &mut self.messages);
            self.driver.pump(ctx);
        }
    }
}

/// RUDP delivers a full transfer across the dumbbell while an iperf-like
/// flow congests the bottleneck.
#[test]
fn rudp_transfer_completes_under_cross_traffic() {
    let mut sim = Simulator::new(1);
    let db = build_dumbbell(&mut sim, &DumbbellSpec::paper_default(2));
    sim.add_agent(
        db.left_hosts[1],
        9,
        Box::new(CbrSource::new(
            Addr::new(db.right_hosts[1], 9),
            FlowId(9),
            17.5e6,
            972,
        )),
    );
    let cross_rx = sim.add_agent(db.right_hosts[1], 9, Box::new(UdpSink::new()));

    let (sender, rx) = rudp_pair(&RudpConfig::default(), db.right_hosts[0], 500, 1400);
    sim.add_agent(db.left_hosts[0], 1, Box::new(sender));
    let rx = sim.add_agent(db.right_hosts[0], 1, Box::new(sink(rx)));
    sim.run_until(time::secs(60.0));

    let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
    assert!(sink.is_finished(), "transfer did not complete");
    assert_eq!(sink.metrics.messages(), 500);
    // The cross traffic also flowed.
    assert!(sim.agent::<UdpSink>(cross_rx).unwrap().received > 1000);
    // The bottleneck actually dropped something (congestion was real).
    assert!(sim.link_stats(db.bottleneck).dropped_packets > 0);
}

/// TCP and RUDP complete the same job over the same network; both
/// deliver everything, reliably, in order.
#[test]
fn both_transports_deliver_identical_payloads() {
    for transport in ["tcp", "rudp"] {
        let mut sim = Simulator::new(5);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(
            a,
            b,
            LinkSpec::new(10e6, time::millis(10), 64_000).with_random_loss(0.02),
        );
        match transport {
            "tcp" => {
                let conn = TcpSenderConn::new(1, TcpConfig);
                let tx = SenderDriver::new(conn, Addr::new(b, 1), FlowId(1));
                sim.add_agent(a, 1, Box::new(BulkSender::new(tx, 200, 1000)));
                let recorder = Recorder {
                    driver: ReceiverDriver::new(TcpReceiverConn::new(1, TcpConfig), FlowId(1)),
                    messages: Vec::new(),
                    drain: |conn: &mut TcpReceiverConn, log| {
                        log.extend(conn.take_messages());
                        conn.take_events();
                    },
                };
                let rx = sim.add_agent(b, 1, Box::new(recorder));
                sim.run_until(time::secs(120.0));
                let rec = sim.agent::<Recorder<TcpReceiverConn, TcpDeliveredMsg>>(rx).unwrap();
                assert!(rec.driver.conn.is_finished(), "tcp did not finish");
                assert_eq!(rec.messages.len(), 200);
                // In-order, no duplicates, no gaps.
                for (i, m) in rec.messages.iter().enumerate() {
                    assert_eq!(m.msg_id, i as u64);
                    assert_eq!(m.size, 1000);
                }
            }
            _ => {
                let (sender, rx) = rudp_pair(&RudpConfig::default(), b, 200, 1000);
                sim.add_agent(a, 1, Box::new(sender));
                let recorder = Recorder {
                    driver: rx,
                    messages: Vec::new(),
                    drain: |conn: &mut ReceiverConn, log| {
                        log.extend(std::iter::from_fn(|| conn.pop_message()));
                        conn.clear_events();
                    },
                };
                let rx = sim.add_agent(b, 1, Box::new(recorder));
                sim.run_until(time::secs(120.0));
                let rec = sim.agent::<Recorder<ReceiverConn, DeliveredMsg>>(rx).unwrap();
                assert!(rec.driver.conn.is_finished(), "rudp did not finish");
                assert_eq!(rec.messages.len(), 200);
                for (i, m) in rec.messages.iter().enumerate() {
                    assert_eq!(m.msg_id, i as u64);
                    assert_eq!(m.size, 1000);
                    assert!(m.marked);
                }
            }
        }
    }
}

/// With marking + receiver tolerance, everything *tagged* arrives even
/// when raw data is dropped or abandoned; losses stay within tolerance.
#[test]
fn tagged_data_survives_reliability_adaptation() {
    let mut sim = Simulator::new(13);
    let a = sim.add_node();
    let b = sim.add_node();
    // Lossy link to force abandonment decisions.
    sim.add_duplex_link(
        a,
        b,
        LinkSpec::new(6e6, time::millis(10), 32_000).with_random_loss(0.05),
    );
    let mut cfg = SourceConfig::new(3, vec![1400; 600]);
    cfg.rudp.loss_tolerance = 0.30;
    cfg.datagram_mode = true;
    let sink_cfg = cfg.rudp.clone();
    // Pre-unmarked policy: heavy unmarking from the start.
    let adapter = MarkingAdapter {
        unmark_prob: 0.6,
        ..MarkingAdapter::default()
    };
    let src = AdaptiveSourceAgent::new(
        cfg,
        Policy::Marking(adapter),
        Addr::new(b, 1),
        FlowId(1),
    );
    let tx = sim.add_agent(a, 1, Box::new(src));
    let rx = sink(sink_cfg.builder(3, FlowId(1)).build_receiver());
    let rx = sim.add_agent(b, 1, Box::new(rx));
    sim.run_until(time::secs(120.0));

    let src = sim.agent::<AdaptiveSourceAgent>(tx).unwrap();
    let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
    assert!(sink.is_finished(), "did not finish");
    // Every tagged (control) datagram was delivered: the source tags
    // every 5th datagram and the tolerance only covers unmarked ones.
    let tagged_delivered = sink.metrics.tagged_messages();
    let tagged_offered = src.offered_msgs.div_ceil(5);
    assert!(
        tagged_delivered >= tagged_offered,
        "tagged loss: {tagged_delivered} < {tagged_offered}"
    );
    // Undelivered fraction stays within the receiver's tolerance (with
    // margin for rounding).
    let undelivered = src.offered_msgs - sink.metrics.messages();
    assert!(
        (undelivered as f64) <= 0.30 * src.offered_msgs as f64 + 1.0,
        "tolerance exceeded: {undelivered} of {}",
        src.offered_msgs
    );
}

/// The whole stack is deterministic: same seed, same world, same run.
#[test]
fn full_stack_runs_are_reproducible() {
    let run = || {
        let mut sim = Simulator::new(77);
        let db = build_dumbbell(&mut sim, &DumbbellSpec::paper_default(2));
        sim.add_agent(
            db.left_hosts[1],
            9,
            Box::new(CbrSource::new(
                Addr::new(db.right_hosts[1], 9),
                FlowId(9),
                15e6,
                972,
            )),
        );
        sim.add_agent(db.right_hosts[1], 9, Box::new(UdpSink::new()));
        let mut cfg = SourceConfig::new(1, vec![1400; 300]);
        cfg.rudp.upper_threshold = Some(0.1);
        cfg.rudp.lower_threshold = Some(0.01);
        cfg.datagram_mode = true;
        let sink_cfg = cfg.rudp.clone();
        let src = AdaptiveSourceAgent::new(
            cfg,
            Policy::Marking(MarkingAdapter::default()),
            Addr::new(db.right_hosts[0], 1),
            FlowId(1),
        );
        sim.add_agent(db.left_hosts[0], 1, Box::new(src));
        let rx = sim.add_agent(
            db.right_hosts[0],
            1,
            Box::new(sink(sink_cfg.builder(1, FlowId(1)).build_receiver())),
        );
        sim.run_until(time::secs(60.0));
        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        (
            sink.metrics.messages(),
            sink.metrics.bytes(),
            sink.metrics.duration_s(),
            sim.counters().events_processed,
        )
    };
    assert_eq!(run(), run());
}

/// Flow control holds: a tiny receive buffer never overflows even with
/// an aggressive sender.
#[test]
fn receiver_window_prevents_buffer_overrun() {
    let mut sim = Simulator::new(3);
    let a = sim.add_node();
    let b = sim.add_node();
    // Reordering via jitter creates out-of-order arrivals that must be
    // buffered.
    sim.add_duplex_link(
        a,
        b,
        LinkSpec::new(20e6, time::millis(5), 256_000).with_jitter(time::millis(4)),
    );
    let cfg = RudpConfig {
        recv_buffer_segments: 16,
        ..RudpConfig::default()
    };
    let (sender, rx) = rudp_pair(&cfg, b, 400, 1400);
    sim.add_agent(a, 1, Box::new(sender));
    let rx = sim.add_agent(b, 1, Box::new(sink(rx)));
    sim.run_until(time::secs(60.0));
    let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
    assert!(sink.is_finished());
    assert_eq!(sink.metrics.messages(), 400);
}
