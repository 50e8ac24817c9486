//! ECho-style event channels: one source fanning events out to many
//! subscribers, each over its own coordinated RUDP connection.
//!
//! ECho's model is publish/subscribe: sources submit events to a
//! channel; subscribers receive them, possibly through *derived event
//! channels* that filter the stream. Here each subscription owns an
//! independent transport connection, coordination state, and adaptation
//! policy — so one congested subscriber can downsample or shed raw data
//! without affecting the others (the paper's multi-client collaboration
//! setting).

use iq_attrs::AttrList;
use iq_core::{CoordinationMode, Coordinator};
use iq_netsim::{time, Addr, Agent, Ctx, FlowId, Packet, Time};
use iq_rudp::{ConnEvent, RudpConfig, SenderConn, SenderDriver, DEFAULT_MSS, RUDP_TIMER_TOKEN};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::source::{Policy, FRAME_TIMER_TOKEN};

/// An event filter: `true` keeps the event for this subscriber. The
/// boxed form is ECho's "derived event channel" — a subscriber-supplied
/// predicate applied at the source.
pub type EventFilter = Box<dyn Fn(u64, u32) -> bool + Send>;

/// One subscriber of a channel.
pub struct Subscription {
    /// Connection identifier (must match the subscriber's sink).
    pub conn_id: u32,
    /// Where the subscriber's sink lives.
    pub peer: Addr,
    /// Flow tag for this subscriber's traffic.
    pub flow: FlowId,
    /// Transport configuration for this subscriber's connection.
    pub rudp: RudpConfig,
    /// Coordination mode for this subscriber.
    pub mode: CoordinationMode,
    /// Adaptation policy run on behalf of this subscriber.
    pub policy: Policy,
    /// Optional derived-channel filter.
    pub filter: Option<EventFilter>,
}

impl Subscription {
    /// A plain subscription with default transport settings.
    pub fn new(conn_id: u32, peer: Addr, flow: FlowId) -> Self {
        Self {
            conn_id,
            peer,
            flow,
            rudp: RudpConfig::default(),
            mode: CoordinationMode::Coordinated,
            policy: Policy::None,
            filter: None,
        }
    }
}

struct SubState {
    driver: SenderDriver,
    coordinator: Coordinator,
    policy: Policy,
    filter: Option<EventFilter>,
    /// Events offered to this subscriber (after filtering).
    offered: u64,
    /// Threshold callbacks (upper, lower).
    callbacks: (u64, u64),
    last_upper: Option<Time>,
}

/// Per-subscriber outcome summary.
#[derive(Debug, Clone, Copy)]
pub struct SubscriberReport {
    /// Connection id of the subscription.
    pub conn_id: u32,
    /// Events offered after filtering.
    pub offered: u64,
    /// Upper/lower callbacks fired.
    pub callbacks: (u64, u64),
    /// Window re-adjustments coordination applied.
    pub window_rescales: u64,
    /// Messages the transport discarded under coordination.
    pub discarded: u64,
}

/// A channel source fanning one frame schedule out to all subscribers.
pub struct ChannelSourceAgent {
    subs: Vec<SubState>,
    frame_sizes: Vec<u32>,
    fps: f64,
    datagram_mode: bool,
    min_adapt_gap: iq_netsim::TimeDelta,
    next_frame: usize,
    rng: SmallRng,
    datagram_idx: u64,
    finished: bool,
}

impl ChannelSourceAgent {
    /// Creates a channel over `frame_sizes` at `fps`, serving `subs`.
    pub fn new(frame_sizes: Vec<u32>, fps: f64, subs: Vec<Subscription>) -> Self {
        let subs = subs
            .into_iter()
            .map(|s| SubState {
                driver: SenderDriver::new(
                    SenderConn::new(s.conn_id, s.rudp.clone()),
                    s.peer,
                    s.flow,
                ),
                coordinator: Coordinator::new(s.mode),
                policy: s.policy,
                filter: s.filter,
                offered: 0,
                callbacks: (0, 0),
                last_upper: None,
            })
            .collect();
        Self {
            subs,
            frame_sizes,
            fps,
            datagram_mode: false,
            min_adapt_gap: time::secs(1.0),
            next_frame: 0,
            rng: SmallRng::seed_from_u64(0xec40),
            datagram_idx: 0,
            finished: false,
        }
    }

    /// Splits frames into individually markable datagrams.
    pub fn datagram_mode(mut self) -> Self {
        self.datagram_mode = true;
        self
    }

    /// Whether the schedule has been fully emitted.
    pub fn schedule_done(&self) -> bool {
        self.finished
    }

    /// Per-subscriber summaries.
    pub fn reports(&self) -> Vec<SubscriberReport> {
        self.subs
            .iter()
            .map(|s| SubscriberReport {
                conn_id: s.driver.conn.conn_id(),
                offered: s.offered,
                callbacks: s.callbacks,
                window_rescales: s.coordinator.log().window_rescales,
                discarded: s.driver.conn.stats().msgs_discarded,
            })
            .collect()
    }

    fn process_events(&mut self, now: Time) {
        for s in &mut self.subs {
            while let Some(ev) = s.coordinator.next_event(&mut s.driver.conn) {
                let (upper, cond) = match ev {
                    ConnEvent::UpperThreshold(c) => (true, c),
                    ConnEvent::LowerThreshold(c) => (false, c),
                    _ => continue,
                };
                if upper {
                    s.callbacks.0 += 1;
                    if let Some(last) = s.last_upper {
                        if now.saturating_sub(last) < self.min_adapt_gap {
                            continue;
                        }
                    }
                    s.last_upper = Some(now);
                } else {
                    s.callbacks.1 += 1;
                }
                let attrs = match &mut s.policy {
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
                    Policy::Deferred(_) => AttrList::new(), // not supported on channels
                };
                s.coordinator.report_adaptation(&mut s.driver.conn, now, &attrs);
            }
        }
    }

    fn emit_frame(&mut self, now: Time) -> bool {
        let Some(&nominal) = self.frame_sizes.get(self.next_frame) else {
            return false;
        };
        let frame_no = self.next_frame as u64;
        self.next_frame += 1;
        for s in &mut self.subs {
            if let Some(filter) = &s.filter {
                if !filter(frame_no, nominal) {
                    continue; // derived channel dropped the event
                }
            }
            let scale = match &s.policy {
                Policy::Resolution(r) => r.scale,
                Policy::Deferred(d) => d.inner.scale,
                _ => 1.0,
            };
            let size = ((f64::from(nominal) * scale) as u32).max(64);
            if self.datagram_mode {
                let n = nominal.div_ceil(DEFAULT_MSS);
                let dlen = size.div_ceil(n).clamp(300.min(DEFAULT_MSS), DEFAULT_MSS);
                let mut remaining = size;
                for _ in 0..n {
                    let len = remaining.min(dlen);
                    if len == 0 {
                        break;
                    }
                    remaining -= len;
                    let marked = match &mut s.policy {
                        Policy::Marking(m) => m.mark(self.datagram_idx, &mut self.rng),
                        _ => true,
                    };
                    self.datagram_idx += 1;
                    s.offered += 1;
                    s.coordinator.send_with_attrs(
                        &mut s.driver.conn,
                        now,
                        len,
                        marked,
                        &AttrList::new(),
                    );
                }
            } else {
                s.offered += 1;
                s.coordinator.send_with_attrs(
                    &mut s.driver.conn,
                    now,
                    size,
                    true,
                    &AttrList::new(),
                );
            }
        }
        if self.next_frame >= self.frame_sizes.len() {
            self.finished = true;
            for s in &mut self.subs {
                s.driver.conn.finish();
            }
        }
        true
    }

    fn pump_all(&mut self, ctx: &mut Ctx<'_>) {
        for s in &mut self.subs {
            s.driver.pump(ctx);
        }
    }
}

impl Agent for ChannelSourceAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(0, FRAME_TIMER_TOKEN);
        self.pump_all(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let mut hit = false;
        for s in &mut self.subs {
            if s.driver.handle_packet(ctx, &pkt) {
                hit = true;
                break;
            }
        }
        if hit {
            self.process_events(ctx.now());
            self.pump_all(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            RUDP_TIMER_TOKEN => {
                // Timer tokens are shared by all drivers; ticking every
                // connection is harmless (idle ticks are no-ops).
                for s in &mut self.subs {
                    s.driver.handle_timer(ctx);
                }
                self.process_events(ctx.now());
                self.pump_all(ctx);
            }
            FRAME_TIMER_TOKEN => {
                let now = ctx.now();
                if self.emit_frame(now) && self.next_frame < self.frame_sizes.len() {
                    ctx.set_timer(time::secs(1.0 / self.fps), FRAME_TIMER_TOKEN);
                }
                self.process_events(now);
                self.pump_all(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EchoSinkAgent;
    use iq_netsim::{LinkSpec, Simulator};

    fn star_topology(sim: &mut Simulator, n: usize) -> (iq_netsim::NodeId, Vec<iq_netsim::NodeId>) {
        let hub = sim.add_node();
        let spokes: Vec<_> = (0..n)
            .map(|_| {
                let s = sim.add_node();
                sim.add_duplex_link(hub, s, LinkSpec::new(20e6, time::millis(5), 64_000));
                s
            })
            .collect();
        (hub, spokes)
    }

    #[test]
    fn fanout_delivers_to_every_subscriber() {
        let mut sim = Simulator::new(4);
        let (hub, spokes) = star_topology(&mut sim, 3);
        let subs: Vec<Subscription> = spokes
            .iter()
            .enumerate()
            .map(|(i, &s)| Subscription::new(i as u32 + 1, Addr::new(s, 1), FlowId(i as u32 + 1)))
            .collect();
        let src = ChannelSourceAgent::new(vec![1000; 100], 100.0, subs);
        let tx = sim.add_agent(hub, 1, Box::new(src));
        let sinks: Vec<_> = spokes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                sim.add_agent(
                    s,
                    1,
                    Box::new(EchoSinkAgent::new(
                        i as u32 + 1,
                        RudpConfig::default(),
                        FlowId(i as u32 + 1),
                    )),
                )
            })
            .collect();
        sim.run_until(time::secs(30.0));
        assert!(sim.agent::<ChannelSourceAgent>(tx).unwrap().schedule_done());
        for id in sinks {
            let sink = sim.agent::<EchoSinkAgent>(id).unwrap();
            assert!(sink.is_finished());
            assert_eq!(sink.metrics.messages(), 100);
        }
    }

    #[test]
    fn derived_channel_filters_events() {
        let mut sim = Simulator::new(5);
        let (hub, spokes) = star_topology(&mut sim, 2);
        let full = Subscription::new(1, Addr::new(spokes[0], 1), FlowId(1));
        let mut derived = Subscription::new(2, Addr::new(spokes[1], 1), FlowId(2));
        // The derived channel only wants every third event.
        derived.filter = Some(Box::new(|frame, _size| frame % 3 == 0));
        let src = ChannelSourceAgent::new(vec![1000; 90], 100.0, vec![full, derived]);
        let tx = sim.add_agent(hub, 1, Box::new(src));
        let rx_full = sim.add_agent(
            spokes[0],
            1,
            Box::new(EchoSinkAgent::new(1, RudpConfig::default(), FlowId(1))),
        );
        let rx_derived = sim.add_agent(
            spokes[1],
            1,
            Box::new(EchoSinkAgent::new(2, RudpConfig::default(), FlowId(2))),
        );
        sim.run_until(time::secs(30.0));
        assert_eq!(
            sim.agent::<EchoSinkAgent>(rx_full).unwrap().metrics.messages(),
            90
        );
        assert_eq!(
            sim.agent::<EchoSinkAgent>(rx_derived)
                .unwrap()
                .metrics
                .messages(),
            30
        );
        let reports = sim.agent::<ChannelSourceAgent>(tx).unwrap().reports();
        assert_eq!(reports[0].offered, 90);
        assert_eq!(reports[1].offered, 30);
    }

    #[test]
    fn congested_subscriber_adapts_independently() {
        let mut sim = Simulator::new(6);
        let hub = sim.add_node();
        // Subscriber A: clean fat link. Subscriber B: thin link.
        let a = sim.add_node();
        sim.add_duplex_link(hub, a, LinkSpec::new(50e6, time::millis(5), 128_000));
        let b = sim.add_node();
        sim.add_duplex_link(hub, b, LinkSpec::new(0.8e6, time::millis(5), 8_000));

        let mut sub_a = Subscription::new(1, Addr::new(a, 1), FlowId(1));
        sub_a.rudp.upper_threshold = Some(0.05);
        sub_a.rudp.lower_threshold = Some(0.005);
        sub_a.policy = Policy::Resolution(crate::ResolutionAdapter::default());
        let mut sub_b = Subscription::new(2, Addr::new(b, 1), FlowId(2));
        sub_b.rudp.upper_threshold = Some(0.05);
        sub_b.rudp.lower_threshold = Some(0.005);
        sub_b.policy = Policy::Resolution(crate::ResolutionAdapter::default());
        let sink_cfg_a = sub_a.rudp.clone();
        let sink_cfg_b = sub_b.rudp.clone();

        let src =
            ChannelSourceAgent::new(vec![1400; 400], 100.0, vec![sub_a, sub_b]).datagram_mode();
        let tx = sim.add_agent(hub, 1, Box::new(src));
        let rx_a = sim.add_agent(a, 1, Box::new(EchoSinkAgent::new(1, sink_cfg_a, FlowId(1))));
        let rx_b = sim.add_agent(b, 1, Box::new(EchoSinkAgent::new(2, sink_cfg_b, FlowId(2))));
        sim.run_until(time::secs(120.0));

        let reports = sim.agent::<ChannelSourceAgent>(tx).unwrap().reports();
        // Only the congested subscriber adapted.
        assert_eq!(reports[0].callbacks.0, 0, "clean subscriber adapted");
        assert!(reports[1].callbacks.0 > 0, "congested subscriber never adapted");
        // Both still finished.
        assert!(sim.agent::<EchoSinkAgent>(rx_a).unwrap().is_finished());
        assert!(sim.agent::<EchoSinkAgent>(rx_b).unwrap().is_finished());
        // The congested subscriber received fewer bytes (downsampled).
        let bytes_a = sim.agent::<EchoSinkAgent>(rx_a).unwrap().metrics.bytes();
        let bytes_b = sim.agent::<EchoSinkAgent>(rx_b).unwrap().metrics.bytes();
        assert!(bytes_b < bytes_a, "B {bytes_b} !< A {bytes_a}");
    }
}
