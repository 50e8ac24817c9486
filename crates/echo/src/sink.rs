//! Receiver-side adaptation: a sink that tunes its own loss tolerance.
//!
//! IQ-RUDP's adaptive reliability is two-sided (§2.1): the receiver can
//! change how much loss it tolerates while the connection runs. This
//! sink watches its own delivery latency and relaxes the tolerance when
//! messages arrive late (prefer timeliness), tightening it again when
//! latency recovers (prefer completeness). The new tolerance reaches
//! the sender on the next ACK.

use iq_metrics::FlowMetrics;
use iq_netsim::{Agent, Ctx, FlowId, Packet, ReceiverDriver, Time};
use iq_rudp::{ReceiverConn, RudpConfig};
use iq_telemetry::TelemetryEvent;

/// Policy for the receiver-side tolerance controller.
#[derive(Debug, Clone)]
pub struct TolerancePolicy {
    /// One-way message latency above which the receiver starts trading
    /// reliability for timeliness, seconds.
    pub late_latency_s: f64,
    /// Latency below which the receiver tightens back up.
    pub ok_latency_s: f64,
    /// Tolerance step per decision.
    pub step: f64,
    /// Upper bound on tolerance.
    pub max_tolerance: f64,
    /// Decide every this many delivered messages.
    pub decide_every: u64,
}

impl Default for TolerancePolicy {
    fn default() -> Self {
        Self {
            late_latency_s: 0.200,
            ok_latency_s: 0.060,
            step: 0.15,
            max_tolerance: 0.6,
            decide_every: 25,
        }
    }
}

/// A sink whose loss tolerance follows its observed delivery latency.
pub struct AdaptiveToleranceSink {
    driver: ReceiverDriver<ReceiverConn>,
    policy: TolerancePolicy,
    /// Receiver-side application metrics.
    pub metrics: FlowMetrics,
    /// Latency accumulated since the last decision (sum, count).
    window: (f64, u64),
    /// Tolerance adjustments made (ups, downs).
    pub adjustments: (u64, u64),
}

impl AdaptiveToleranceSink {
    /// Creates the sink; `cfg.loss_tolerance` is the starting point.
    pub fn new(conn_id: u32, cfg: RudpConfig, flow: FlowId, policy: TolerancePolicy) -> Self {
        Self {
            driver: cfg.builder(conn_id, flow).build_receiver(),
            policy,
            metrics: FlowMetrics::new(),
            window: (0.0, 0),
            adjustments: (0, 0),
        }
    }

    /// Current loss tolerance.
    pub fn tolerance(&self) -> f64 {
        self.driver.conn.loss_tolerance()
    }

    /// Whether the transfer finished.
    pub fn is_finished(&self) -> bool {
        self.driver.conn.is_finished()
    }

    fn decide(&mut self, now: Time) {
        let (sum, n) = self.window;
        if n < self.policy.decide_every {
            return;
        }
        let mean_latency = sum / n as f64;
        self.window = (0.0, 0);
        let current = self.driver.conn.loss_tolerance();
        if mean_latency > self.policy.late_latency_s {
            // Messages are late: accept more loss to regain timeliness.
            let next = (current + self.policy.step).min(self.policy.max_tolerance);
            if next > current {
                self.driver.conn.set_loss_tolerance(next);
                self.adjustments.0 += 1;
                self.emit_tolerance(now, next, true);
            }
        } else if mean_latency < self.policy.ok_latency_s && current > 0.0 {
            let next = (current - self.policy.step).max(0.0);
            self.driver.conn.set_loss_tolerance(next);
            self.adjustments.1 += 1;
            self.emit_tolerance(now, next, false);
        }
    }

    fn emit_tolerance(&self, now: Time, tolerance: f64, raised: bool) {
        self.driver.conn.telemetry().emit(
            now,
            self.driver.conn.telemetry_flow(),
            TelemetryEvent::ToleranceChange { tolerance, raised },
        );
    }
}

impl Agent for AdaptiveToleranceSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if !self.driver.handle_packet(ctx, &pkt) {
            return;
        }
        while let Some(msg) = self.driver.conn.pop_message() {
            let latency = (msg.delivered_at.saturating_sub(msg.sent_at)) as f64 / 1e9;
            self.window.0 += latency;
            self.window.1 += 1;
            self.metrics.on_message(
                msg.delivered_at,
                msg.sent_at,
                u64::from(msg.size),
                msg.marked,
            );
        }
        self.decide(ctx.now());
        self.driver.conn.clear_events();
        self.driver.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::{time, Addr, BulkSender, LinkSpec, SenderDriver, Simulator};
    use iq_rudp::SenderConn;

    fn run(link_bps: f64) -> (f64, u64, (u64, u64)) {
        let mut sim = Simulator::new(15);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(link_bps, time::millis(10), 24_000));
        let cfg = RudpConfig::default();
        sim.add_agent(
            a,
            1,
            Box::new(BulkSender::new(
                SenderDriver::new(SenderConn::new(4, cfg.clone()), Addr::new(b, 1), FlowId(4)),
                600,
                1400,
            )),
        );
        let rx = sim.add_agent(
            b,
            1,
            Box::new(AdaptiveToleranceSink::new(
                4,
                cfg,
                FlowId(4),
                TolerancePolicy::default(),
            )),
        );
        sim.run_until(time::secs(120.0));
        let sink = sim.agent::<AdaptiveToleranceSink>(rx).unwrap();
        (sink.tolerance(), sink.metrics.messages(), sink.adjustments)
    }

    #[test]
    fn controller_moves_with_latency() {
        // Drive the decision logic directly: low latency never raises
        // the tolerance; high latency raises it; recovery lowers it.
        let mut sink = AdaptiveToleranceSink::new(
            1,
            RudpConfig::default(),
            FlowId(1),
            TolerancePolicy::default(),
        );
        let p = TolerancePolicy::default();
        // 25 punctual messages: stays at zero.
        sink.window = (0.010 * p.decide_every as f64, p.decide_every);
        sink.decide(0);
        assert_eq!(sink.tolerance(), 0.0);
        assert_eq!(sink.adjustments, (0, 0));
        // 25 late messages: tolerance rises one step.
        sink.window = (0.500 * p.decide_every as f64, p.decide_every);
        sink.decide(0);
        assert!((sink.tolerance() - p.step).abs() < 1e-12);
        assert_eq!(sink.adjustments.0, 1);
        // Latency recovers: tolerance steps back down to zero.
        sink.window = (0.010 * p.decide_every as f64, p.decide_every);
        sink.decide(0);
        assert_eq!(sink.tolerance(), 0.0);
        assert_eq!(sink.adjustments.1, 1);
        // Partial windows never decide.
        sink.window = (100.0, p.decide_every - 1);
        sink.decide(0);
        assert_eq!(sink.adjustments, (1, 1));
    }

    #[test]
    fn slow_link_raises_tolerance() {
        // 1 Mb/s: a 600-message backlog queues deeply, latency blows past
        // the policy threshold, and the receiver relaxes its tolerance.
        let (tolerance, delivered, (ups, _)) = run(1e6);
        assert!(ups > 0, "receiver never adapted");
        assert!(tolerance > 0.0);
        // Bulk traffic is marked, so everything is still delivered —
        // the relaxed tolerance is an offer, not a demand.
        assert_eq!(delivered, 600);
    }

    #[test]
    fn tolerance_is_clamped_at_policy_max() {
        let (tolerance, _, _) = run(0.8e6);
        assert!(tolerance <= TolerancePolicy::default().max_tolerance + 1e-12);
    }
}
