//! A flow's ground truth is the fold of its `packet` records on the bus;
//! the recorders that stay — the simulator's counters and the links'
//! stats — must agree with it, summed over flows, on drop-tail and RED
//! bottlenecks that also lose packets at random.

use iq_netsim::agent::{Agent, Ctx};
use iq_netsim::{payload, time, Addr, FlowId, LinkSpec, LinkStats, Packet, RedParams, Simulator};
use iq_telemetry::{TelemetryReport, TelemetrySink};

const FLOWS: u32 = 4;

/// Sends `count` packets of 1,000 B on `flow`, one every 2 ms.
struct Source {
    dst: Addr,
    flow: FlowId,
    count: u32,
}
impl Agent for Source {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(0, 0);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.count > 0 {
            self.count -= 1;
            ctx.send(self.dst, 1000, self.flow, payload(()));
            ctx.set_timer(time::millis(2), 0);
        }
    }
}

struct Sink;
impl Agent for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
}

/// Four 4 Mb/s sources through one 4 Mb/s bottleneck that also loses
/// 5 % of what it transmits, run until the last packet has landed.
fn check(seed: u64, red: bool) {
    let mut sim = Simulator::new(seed);
    let (sink, bus) = TelemetrySink::new_bus(0);
    sim.attach_telemetry(sink);
    let (left, right) = (sim.add_node(), sim.add_node());
    let mut bottleneck = LinkSpec::new(4e6, time::millis(5), 15_000).with_random_loss(0.05);
    if red {
        bottleneck = bottleneck.with_red(RedParams::for_capacity(15_000));
    }
    let (fwd, back) = sim.add_duplex_link(left, right, bottleneck);
    let mut links = vec![fwd, back];
    let access = LinkSpec::new(100e6, time::micros(10), 1 << 20);
    for f in 0..FLOWS {
        let (src, dst) = (sim.add_node(), sim.add_node());
        for (host, router) in [(src, left), (dst, right)] {
            let (up, down) = sim.add_duplex_link(host, router, access.clone());
            links.extend([up, down]);
        }
        sim.add_agent(
            src,
            1,
            Box::new(Source {
                dst: Addr::new(dst, 1),
                flow: FlowId(f),
                count: 200,
            }),
        );
        sim.add_agent(dst, 1, Box::new(Sink));
    }
    sim.run_to_completion();

    let bus = bus.lock().unwrap();
    let truth: Vec<TelemetryReport> = (0..FLOWS)
        .map(|f| TelemetryReport::from_records(&bus.flow_records(u64::from(f))))
        .collect();
    let fold = |total: fn(&TelemetryReport) -> u64| truth.iter().map(total).sum::<u64>();
    let stats: Vec<_> = links.iter().map(|&l| sim.link_stats(l)).collect();
    let links_sum = |total: fn(&LinkStats) -> u64| stats.iter().map(total).sum::<u64>();
    let c = sim.counters();
    let case = format!("seed {seed}, red {red}");

    assert_eq!(fold(|t| t.sent_packets), c.packets_sent, "{case}");
    assert_eq!(fold(|t| t.delivered_packets), c.packets_delivered, "{case}");
    // A RED early drop counts in `red_drops` and in `dropped_packets`.
    assert_eq!(
        fold(|t| t.dropped_packets),
        links_sum(|l| l.dropped_packets),
        "{case}"
    );
    assert_eq!(
        fold(|t| t.random_losses),
        links_sum(|l| l.random_losses),
        "{case}"
    );
    for t in &truth {
        assert_eq!(
            t.sent_packets,
            t.delivered_packets + t.dropped_packets + t.random_losses,
            "{case}"
        );
    }
    // Every count above is one that moved.
    assert!(
        fold(|t| t.dropped_packets) > 0 && fold(|t| t.random_losses) > 0,
        "{case}"
    );
    assert_eq!(links_sum(|l| l.red_drops) > 0, red, "{case}");
}

#[test]
fn the_packet_fold_agrees_with_the_counters_and_link_stats() {
    for seed in 1..=4 {
        for red in [false, true] {
            check(seed, red);
        }
    }
}
