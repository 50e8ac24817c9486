//! The timer-storm budget for TCP.
//!
//! TCP rides the simulator through the same driver as RUDP, whose timer
//! re-arm rule (move the timer only to an earlier deadline; a tick that
//! finds nothing due re-arms from where it fired) keeps an ACK-clocked
//! flow from cancelling and re-setting a timer per ACK. This pins that a
//! lossy TCP transfer still finishes and fires a bounded number of timers
//! per simulated second.

use iq_metrics::FlowMetrics;
use iq_netsim::{time, Addr, BulkSender, FlowId, LinkSpec, ReceiverDriver, SenderDriver, Simulator};
use iq_tcp::{TcpConfig, TcpReceiverConn, TcpSenderConn, TcpSinkAgent};

/// A 2000-message transfer over a 1 Mb/s link with 5 % loss keeps its
/// retransmission timer armed for about 45 of the 60 simulated seconds.
/// Budget: the timer sits at the oldest unacknowledged segment's RTO
/// deadline, at least the 200 ms RTO floor away, so an ACK-clocked flow
/// ticks at most 5×/s, and each real timeout doubles the RTO; 10/s is
/// generous. A driver that re-armed an expired deadline fires thousands
/// per simulated second.
#[test]
fn lossy_tcp_transfer_timer_rate_is_bounded() {
    let mut sim = Simulator::new(11);
    let a = sim.add_node();
    let b = sim.add_node();
    sim.add_duplex_link(
        a,
        b,
        LinkSpec::new(1e6, time::millis(5), 16_000).with_random_loss(0.05),
    );
    let tx = SenderDriver::new(TcpSenderConn::new(7, TcpConfig), Addr::new(b, 1), FlowId(1));
    sim.add_agent(a, 1, Box::new(BulkSender::new(tx, 2000, 1400)));
    let rx = ReceiverDriver::new(TcpReceiverConn::new(7, TcpConfig), FlowId(1));
    let rx = sim.add_agent(b, 1, Box::new(TcpSinkAgent::new(rx, FlowMetrics::new())));
    let horizon_s = 60.0;
    sim.run_until(time::secs(horizon_s));

    let sink = sim.agent::<TcpSinkAgent>(rx).unwrap();
    assert!(sink.is_finished(), "lossy TCP transfer did not finish");
    assert_eq!(sink.metrics.messages(), 2000);
    let fired = sim.counters().timers_fired;
    let budget = (10.0 * horizon_s) as u64;
    println!("{fired} timer events in {horizon_s} sim-seconds (budget {budget})");
    assert!(
        fired <= budget,
        "timer storm: {fired} timer events in {horizon_s} sim-seconds (budget {budget})"
    );
}
