//! The adaptive application source: IQ-ECho's sending side.
//!
//! Emits frames from a schedule (an MBone-derived trace or a constant
//! size), applies the configured adaptation policy in response to the
//! transport's threshold callbacks, and sends through the coordinator's
//! `CMwritev_attr`-style API so the transport learns what the
//! application changed.

use iq_attrs::AttrList;
use iq_core::{CoordinationMode, Coordinator};
use iq_netsim::{time, Agent, Ctx, Packet, SenderDriver, Time};
use iq_rudp::{ConnEvent, NetCond, SenderConn, MSS};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::adapters::{adaptation_events, FrequencyAdapter, MarkingAdapter, ResolutionAdapter};
use crate::deferred::DeferredResolution;

/// Timer token for frame emission (fixed-rate sources).
pub const FRAME_TIMER_TOKEN: u64 = 0x4652_414d; // "FRAM"

/// Floor on scaled frame sizes, bytes.
const MIN_FRAME_BYTES: u32 = 64;

/// Segments a greedy source keeps queued in the transport.
const BACKLOG_TARGET: usize = 128;

/// Which application adaptation policy the source runs.
pub enum Policy {
    /// No application adaptation (transport-only rows).
    None,
    /// Reliability adaptation (§3.3).
    Marking(MarkingAdapter),
    /// Resolution adaptation (§3.4).
    Resolution(ResolutionAdapter),
    /// Resolution adaptation with frame-granularity deferral (§3.5).
    Deferred(DeferredResolution),
    /// Frequency adaptation.
    Frequency(FrequencyAdapter),
}

impl Policy {
    fn frame_scale(&self) -> f64 {
        match self {
            Policy::Resolution(r) => r.scale,
            Policy::Deferred(d) => d.inner.scale,
            _ => 1.0,
        }
    }

    fn interval_scale(&self) -> f64 {
        match self {
            Policy::Frequency(f) => f.interval_scale,
            _ => 1.0,
        }
    }
}

/// Configuration of an [`AdaptiveSourceAgent`]'s application side; the
/// transport's travels in the driver it wraps.
pub struct SourceConfig {
    /// Coordination mode (the experiment's independent variable).
    pub mode: CoordinationMode,
    /// Frame sizes in emission order; the source finishes when the
    /// schedule is exhausted.
    pub frame_sizes: Vec<u32>,
    /// `Some(fps)` emits at a fixed rate; `None` emits as fast as the
    /// transport windows allow (greedy).
    pub fps: Option<f64>,
    /// Split frames into MSS-sized datagrams that are individually
    /// markable (required by the §3.3 marking experiments).
    pub datagram_mode: bool,
    /// Minimum time between successive upper-threshold adaptations —
    /// applications "do not want to be frequently interrupted for
    /// adaptation" (§2.3.1) and settle before reacting again.
    pub min_adapt_gap: iq_netsim::TimeDelta,
    /// Minimum time between successive lower-threshold (recovery)
    /// adaptations. The paper's recovery happens once per measuring
    /// period; our periods are much shorter, so the recovery cadence is
    /// rate-limited to stay comparable.
    pub min_lower_gap: iq_netsim::TimeDelta,
    /// RNG seed for marking decisions.
    pub seed: u64,
}

impl SourceConfig {
    /// A reasonable default around a frame schedule.
    pub fn new(frame_sizes: Vec<u32>) -> Self {
        Self {
            mode: CoordinationMode::Coordinated,
            frame_sizes,
            fps: None,
            datagram_mode: false,
            min_adapt_gap: time::secs(1.0),
            min_lower_gap: time::millis(400),
            seed: 1,
        }
    }
}

/// The sending application agent.
pub struct AdaptiveSourceAgent {
    driver: SenderDriver<SenderConn>,
    coordinator: Coordinator,
    /// The adaptation policy in effect.
    pub policy: Policy,
    frame_sizes: Vec<u32>,
    fps: Option<f64>,
    datagram_mode: bool,
    next_frame: usize,
    datagram_idx: u64,
    rng: SmallRng,
    /// Messages the application offered (including ones the transport
    /// discarded under coordination) — the denominator of "Mesgs Recvd %".
    pub offered_msgs: u64,
    /// Threshold callbacks seen (upper, lower).
    pub callbacks: (u64, u64),
    min_adapt_gap: iq_netsim::TimeDelta,
    min_lower_gap: iq_netsim::TimeDelta,
    last_upper_adapt: Option<Time>,
    last_lower_adapt: Option<Time>,
    finished: bool,
}

impl AdaptiveSourceAgent {
    /// Wraps an already-built driver (see
    /// [`iq_rudp::ConnBuilder::build_sender`]), which carries the
    /// connection id, the peer and the transport configuration: the
    /// sources of a fleet share their class's configuration instead of
    /// each holding a copy.
    pub fn from_driver(
        driver: SenderDriver<SenderConn>,
        cfg: SourceConfig,
        policy: Policy,
    ) -> Self {
        Self {
            driver,
            coordinator: Coordinator::new(cfg.mode),
            policy,
            frame_sizes: cfg.frame_sizes,
            fps: cfg.fps,
            datagram_mode: cfg.datagram_mode,
            next_frame: 0,
            datagram_idx: 0,
            rng: SmallRng::seed_from_u64(cfg.seed),
            offered_msgs: 0,
            callbacks: (0, 0),
            min_adapt_gap: cfg.min_adapt_gap,
            min_lower_gap: cfg.min_lower_gap,
            last_upper_adapt: None,
            last_lower_adapt: None,
            finished: false,
        }
    }

    /// The underlying connection (stats, window).
    pub fn conn(&self) -> &SenderConn {
        &self.driver.conn
    }

    fn emit_adaptation(&self, now: Time, attrs: &AttrList) {
        let sink = self.driver.conn.telemetry();
        if sink.is_enabled() {
            let flow = self.driver.conn.telemetry_flow();
            for ev in adaptation_events(attrs) {
                sink.emit(now, flow, ev);
            }
        }
    }

    /// What coordination did during the run.
    pub fn coordination_log(&self) -> iq_core::CoordinationLog {
        self.coordinator.log()
    }

    /// Whether every frame has been submitted.
    pub fn schedule_done(&self) -> bool {
        self.finished
    }

    fn on_threshold(&mut self, now: Time, upper: bool, cond: NetCond) {
        if upper {
            self.callbacks.0 += 1;
            // Settle time: ignore upper callbacks arriving too soon
            // after the previous adaptation (often echoes of our own
            // adaptation transient).
            if let Some(last) = self.last_upper_adapt {
                if now.saturating_sub(last) < self.min_adapt_gap {
                    return;
                }
            }
            self.last_upper_adapt = Some(now);
        } else {
            self.callbacks.1 += 1;
            if let Some(last) = self.last_lower_adapt {
                if now.saturating_sub(last) < self.min_lower_gap {
                    return;
                }
            }
            self.last_lower_adapt = Some(now);
        }
        let attrs = match &mut self.policy {
            Policy::None => AttrList::new(),
            Policy::Marking(m) => {
                if upper {
                    m.on_upper(&cond)
                } else {
                    m.on_lower(&cond)
                }
            }
            Policy::Resolution(r) => {
                if upper {
                    r.on_upper(&cond)
                } else {
                    r.on_lower(&cond)
                }
            }
            Policy::Frequency(f) => {
                if upper {
                    f.on_upper(&cond)
                } else {
                    f.on_lower(&cond)
                }
            }
            Policy::Deferred(d) => d.on_threshold(upper, &cond, self.next_frame as u64),
        };
        // The callback's return value flows back to the transport.
        self.emit_adaptation(now, &attrs);
        self.coordinator
            .report_adaptation(&mut self.driver.conn, now, &attrs);
    }

    fn process_events(&mut self, now: Time) {
        while let Some(ev) = self.coordinator.next_event(&mut self.driver.conn) {
            match ev {
                ConnEvent::UpperThreshold(c) => self.on_threshold(now, true, c),
                ConnEvent::LowerThreshold(c) => self.on_threshold(now, false, c),
                _ => {}
            }
        }
    }

    /// Emits one frame; returns `false` when the schedule is exhausted.
    fn emit_frame(&mut self, now: Time) -> bool {
        let Some(&nominal) = self.frame_sizes.get(self.next_frame) else {
            self.finish_schedule();
            return false;
        };
        let frame_no = self.next_frame as u64;
        self.next_frame += 1;

        // Deferred executions attach their attributes to this frame.
        let mut attrs = match &mut self.policy {
            Policy::Deferred(d) => d.on_frame(frame_no),
            _ => AttrList::new(),
        };
        self.emit_adaptation(now, &attrs);
        let size = ((nominal as f64 * self.policy.frame_scale()) as u32).max(MIN_FRAME_BYTES);

        if self.datagram_mode {
            // Frame becomes a burst of individually markable datagrams.
            // The datagram *count* follows the nominal frame so that a
            // resolution adaptation shrinks datagram size, not count —
            // down-sampling sends "less data in each message with the
            // previous frequency" (§2.3.2).
            let n = nominal.div_ceil(MSS);
            // Datagrams keep a floor: real applications cannot shrink a
            // packet below its framing minimum, which also stops header
            // overhead from swallowing the goodput.
            let dlen = size.div_ceil(n).clamp(300.min(MSS), MSS);
            let mut remaining = size;
            for _ in 0..n {
                let len = remaining.min(dlen);
                if len == 0 {
                    break;
                }
                remaining -= len;
                let marked = match &mut self.policy {
                    Policy::Marking(m) => m.mark(self.datagram_idx, &mut self.rng),
                    _ => true,
                };
                self.datagram_idx += 1;
                self.offered_msgs += 1;
                let a = std::mem::take(&mut attrs);
                self.coordinator
                    .send_with_attrs(&mut self.driver.conn, now, len, marked, &a);
            }
        } else {
            self.offered_msgs += 1;
            self.coordinator
                .send_with_attrs(&mut self.driver.conn, now, size, true, &attrs);
        }
        if self.next_frame >= self.frame_sizes.len() {
            // Rate-based sources stop re-arming the frame timer after the
            // last frame, so the FIN must be requested here.
            self.finish_schedule();
        }
        true
    }

    fn finish_schedule(&mut self) {
        if !self.finished {
            self.finished = true;
            self.driver.conn.finish();
        }
    }

    fn refill_greedy(&mut self, now: Time) {
        if self.fps.is_some() {
            return;
        }
        while self.driver.conn.backlog_segments() < BACKLOG_TARGET {
            if !self.emit_frame(now) {
                break;
            }
        }
    }

    fn schedule_next_frame(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(fps) = self.fps {
            if self.next_frame < self.frame_sizes.len() {
                let base = 1e9 / fps;
                let interval = time::secs(base * self.policy.interval_scale() / 1e9);
                ctx.set_timer(interval, FRAME_TIMER_TOKEN);
            }
        }
    }
}

impl Agent for AdaptiveSourceAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.fps.is_some() {
            ctx.set_timer(0, FRAME_TIMER_TOKEN);
        } else {
            self.refill_greedy(ctx.now());
        }
        self.driver.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.driver.handle_packet(ctx, &pkt) {
            self.process_events(ctx.now());
            self.refill_greedy(ctx.now());
            self.driver.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.driver.on_timer(ctx, token) {
            self.process_events(ctx.now());
            self.refill_greedy(ctx.now());
            self.driver.pump(ctx);
        } else if token == FRAME_TIMER_TOKEN {
            let now = ctx.now();
            if self.emit_frame(now) {
                self.schedule_next_frame(ctx);
            }
            self.process_events(now);
            self.driver.pump(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_metrics::FlowMetrics;
    use iq_netsim::{Addr, AgentId, FlowId, LinkSpec, NodeId, Simulator};
    use iq_rudp::{RudpConfig, RudpSinkAgent};

    /// A two-node world on a `bps` link with 5 ms of delay and a `queue`
    /// byte buffer.
    fn world(seed: u64, bps: f64, queue: u32) -> Simulator {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(bps, time::millis(5), queue));
        sim
    }

    /// Adds a source on node 0 and its sink on node 1, both on `rudp`.
    fn flow(
        sim: &mut Simulator,
        rudp: &RudpConfig,
        conn_id: u32,
        cfg: SourceConfig,
        policy: Policy,
    ) -> (AgentId, AgentId) {
        let (a, b) = (NodeId(0), NodeId(1));
        let driver = rudp
            .builder(conn_id, FlowId(1))
            .build_sender(Addr::new(b, 1));
        let src = AdaptiveSourceAgent::from_driver(driver, cfg, policy);
        let tx = sim.add_agent(a, 1, Box::new(src));
        let receiver = rudp.builder(conn_id, FlowId(1)).build_receiver();
        let rx = sim.add_agent(
            b,
            1,
            Box::new(RudpSinkAgent::new(receiver, FlowMetrics::new())),
        );
        (tx, rx)
    }

    fn thresholds(loss_tolerance: f64, upper: f64, lower: f64) -> RudpConfig {
        RudpConfig {
            loss_tolerance,
            upper_threshold: Some(upper),
            lower_threshold: Some(lower),
            ..RudpConfig::default()
        }
    }

    #[test]
    fn greedy_source_delivers_all_frames_without_adaptation() {
        let mut sim = world(17, 10e6, 40_000);
        let rudp = RudpConfig {
            loss_tolerance: 0.4,
            ..RudpConfig::default()
        };
        let cfg = SourceConfig::new(vec![1400; 300]);
        let (tx, rx) = flow(&mut sim, &rudp, 3, cfg, Policy::None);
        sim.run_until(time::secs(60.0));
        let src = sim.agent::<AdaptiveSourceAgent>(tx).unwrap();
        assert!(src.schedule_done(), "source did not finish its schedule");
        assert_eq!(src.offered_msgs, 300);
        assert_eq!(
            sim.agent::<RudpSinkAgent>(rx).unwrap().metrics.messages(),
            300
        );
    }

    #[test]
    fn fixed_rate_source_paces_frames() {
        let mut sim = world(18, 10e6, 40_000);
        let mut cfg = SourceConfig::new(vec![1000; 50]);
        cfg.fps = Some(100.0); // 10 ms apart
        let (_, rx) = flow(&mut sim, &RudpConfig::default(), 4, cfg, Policy::None);
        sim.run_until(time::secs(10.0));
        let sink = sim.agent_mut::<RudpSinkAgent>(rx).unwrap();
        assert_eq!(sink.metrics.messages(), 50);
        // Paced at 10 ms: mean inter-arrival close to that.
        let (_, gaps) = iq_metrics::jitter_series(sink.metrics.take_arrivals().iter());
        let ia = gaps.mean();
        assert!((ia - 0.010).abs() < 0.002, "inter-arrival = {ia}");
    }

    #[test]
    fn marking_policy_unmarks_under_loss() {
        // Constrain the link so drop-tail losses trigger the upper
        // threshold, then check the marking adapter engaged.
        // Slow, shallow-buffered link: a greedy source overwhelms it.
        let mut sim = world(19, 2e6, 8_000);
        let mut cfg = SourceConfig::new(vec![1400; 400]);
        cfg.datagram_mode = true;
        let policy = Policy::Marking(MarkingAdapter::default());
        let (tx, rx) = flow(&mut sim, &thresholds(0.4, 0.05, 0.01), 5, cfg, policy);
        sim.run_until(time::secs(60.0));
        let src = sim.agent::<AdaptiveSourceAgent>(tx).unwrap();
        assert!(src.callbacks.0 > 0, "upper threshold never fired");
        if let Policy::Marking(m) = &src.policy {
            assert!(m.adaptations > 0);
        } else {
            unreachable!()
        }
        // Coordination should have discarded some unmarked datagrams.
        assert!(src.conn().stats().msgs_discarded > 0);
        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(sink.metrics.messages() > 0);
        assert!(sink.metrics.messages() < src.offered_msgs);
    }

    #[test]
    fn frequency_policy_stretches_emission_under_loss() {
        // 200 frames at 100 fps would take 2 s unloaded; the link only
        // carries ~1.5 Mb/s of the 1.12 Mb/s offered plus overhead, so
        // losses trigger frequency adaptation and stretch the schedule.
        let mut sim = world(29, 1.5e6, 8_000);
        let mut cfg = SourceConfig::new(vec![1400; 200]);
        cfg.fps = Some(100.0);
        let policy = Policy::Frequency(crate::FrequencyAdapter::default());
        let (tx, rx) = flow(&mut sim, &thresholds(0.0, 0.05, 0.005), 7, cfg, policy);
        sim.run_until(time::secs(120.0));
        let src = sim.agent::<AdaptiveSourceAgent>(tx).unwrap();
        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        assert!(src.schedule_done());
        // Frequency adaptation drops no messages.
        assert_eq!(sink.metrics.messages(), 200);
        if src.callbacks.0 > 0 {
            if let Policy::Frequency(f) = &src.policy {
                assert!(f.adaptations > 0);
            } else {
                unreachable!()
            }
            // The coordinator saw the ADAPT_FREQ reports but left the
            // window alone.
            assert!(src.coordination_log().frequency_reports > 0);
            assert_eq!(src.coordination_log().window_rescales, 0);
        }
    }

    #[test]
    fn resolution_policy_shrinks_frames_under_loss() {
        let mut sim = world(23, 2e6, 8_000);
        let cfg = SourceConfig::new(vec![1400; 400]);
        let policy = Policy::Resolution(ResolutionAdapter::default());
        let (tx, rx) = flow(&mut sim, &thresholds(0.0, 0.05, 0.005), 6, cfg, policy);
        sim.run_until(time::secs(120.0));
        let src = sim.agent::<AdaptiveSourceAgent>(tx).unwrap();
        assert!(src.callbacks.0 > 0, "upper threshold never fired");
        if let Policy::Resolution(r) = &src.policy {
            assert!(r.adaptations > 0);
        } else {
            unreachable!()
        }
        // Coordination re-inflated the window at least once.
        assert!(src.coordination_log().window_rescales > 0);
        let sink = sim.agent::<RudpSinkAgent>(rx).unwrap();
        // Resolution adaptation never drops messages, only shrinks them.
        assert_eq!(sink.metrics.messages(), src.offered_msgs);
        assert!(sink.metrics.bytes() < 400 * 1400);
    }
}
