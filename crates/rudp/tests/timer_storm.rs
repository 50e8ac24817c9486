//! Regression tests for the zero-delay timer storm.
//!
//! `SenderConn::next_timeout` used to ignore `now` entirely: after any
//! stall (scheduling delay, a burst of expiries, a long-idle meter) it
//! happily returned a deadline already in the past, and the embedding
//! driver re-armed a timer that fired immediately — again and again —
//! because one `on_tick` retired only the *earliest* expired RTO. These
//! tests pin the repaired contract:
//!
//! 1. `next_timeout(now)` never returns a time before `now`;
//! 2. one `on_tick` + transmit-drain cycle retires *every* expired
//!    deadline, leaving the next wakeup strictly in the future;
//! 3. under a lossy netsim bulk transfer, the timer-fire rate stays
//!    within a small, justified per-sim-second budget.

use iq_metrics::FlowMetrics;
use iq_netsim::{time, Addr, BulkSender, FlowId, LinkSpec, Simulator};
use iq_rudp::{ReceiverConn, RudpConfig, RudpSinkAgent, Segment, SenderConn};

/// Handshakes a directly-driven sender/receiver pair at `now`.
fn establish(now: u64, cfg: &RudpConfig) -> (SenderConn, ReceiverConn) {
    let mut s = SenderConn::new(7, cfg.clone());
    let mut r = ReceiverConn::new(7, cfg.clone());
    let syn = s.poll_transmit(now).expect("syn");
    assert!(matches!(syn, Segment::Syn { .. }));
    r.on_segment(now, &syn);
    let synack = r.poll_transmit(now).expect("synack");
    s.on_segment(now, &synack);
    (s, r)
}

/// The repaired contract, part 1: no matter how stale the internal
/// deadlines are, `next_timeout` clamps to `now` instead of handing the
/// driver a wakeup in the past.
#[test]
fn next_timeout_never_returns_past_deadline() {
    let cfg = RudpConfig::default();
    let (mut s, _r) = establish(0, &cfg);
    let _ = s.send_message(0, 1000, true);
    while s.poll_transmit(0).is_some() {}

    // Both the measuring-period deadline (100 ms) and the data RTO
    // (1 s pre-sample) are long past at t = 5 s.
    let now = time::secs(5.0);
    let t = s.next_timeout(now).expect("armed");
    assert!(
        t >= now,
        "next_timeout returned a past deadline: {t} < {now}"
    );

    // Idle/handshake states obey the same clamp.
    let mut idle = SenderConn::new(1, cfg.clone());
    assert!(idle.next_timeout(time::secs(9.0)).expect("idle") >= time::secs(9.0));
    let _ = idle.poll_transmit(0); // SYN out at t = 0, deadline t = 1 s
    let late = time::secs(30.0);
    assert!(idle.next_timeout(late).expect("syn-sent") >= late);
}

/// The repaired contract, part 2: a single tick retires every expired
/// RTO (not just the earliest), so after draining retransmissions the
/// next wakeup is strictly in the future — the driver never spins.
#[test]
fn one_tick_retires_all_expired_deadlines() {
    let cfg = RudpConfig::default();
    let (mut s, _r) = establish(0, &cfg);
    s.scale_cwnd(4.0); // initial cwnd 2 -> 8: room for the whole burst
                       // Three segments in flight, all transmitted around t = 0.
    for _ in 0..3 {
        let _ = s.send_message(0, 1000, true);
    }
    let mut sent = 0;
    while s.poll_transmit(0).is_some() {
        sent += 1;
    }
    assert_eq!(sent, 3, "expected all three fragments on the wire");

    // Jump far past every deadline, then run exactly one tick cycle.
    let now = time::secs(10.0);
    s.on_tick(now);
    let mut retx = 0;
    while let Some(seg) = s.poll_transmit(now) {
        if matches!(seg, Segment::Data(ref d) if d.retransmit) {
            retx += 1;
        }
    }
    assert_eq!(retx, 3, "one tick must queue every expired segment");
    assert!(s.stats().timeouts >= 1);

    let t = s.next_timeout(now).expect("armed");
    assert!(
        t > now,
        "deadline not strictly future after tick+drain: {t} <= {now}"
    );
}

/// End-to-end rate check: a lossy bulk transfer through the simulator
/// fires a bounded number of timers per sim-second. Budget: the
/// measuring period rolls 10×/s, the minimum RTO allows ≲10 expiries/s,
/// plus handshake/FIN retries — 25/s per flow is generous. The
/// pre-fix behavior (re-arming an already-expired deadline) fires
/// thousands per sim-second and blows far past this.
#[test]
fn lossy_transfer_timer_rate_is_bounded() {
    let mut sim = Simulator::new(11);
    let a = sim.add_node();
    let b = sim.add_node();
    sim.add_duplex_link(
        a,
        b,
        LinkSpec::new(10e6, time::millis(5), 64_000).with_random_loss(0.05),
    );
    let builder = RudpConfig::default().builder(7, FlowId(1));
    let sender = BulkSender::new(builder.build_sender(Addr::new(b, 1)), 200, 1400);
    sim.add_agent(a, 1, Box::new(sender));
    let sink = RudpSinkAgent::new(builder.build_receiver(), FlowMetrics::new());
    let rx = sim.add_agent(b, 1, Box::new(sink));
    let horizon_s = 60.0;
    sim.run_until(time::secs(horizon_s));

    let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
    assert!(sink.is_finished(), "lossy transfer did not finish");
    let fired = sim.counters().timers_fired;
    let budget = (25.0 * horizon_s) as u64;
    assert!(
        fired <= budget,
        "timer storm: {fired} timer events in {horizon_s} sim-seconds (budget {budget})"
    );
}
