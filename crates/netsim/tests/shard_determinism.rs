//! Cross-shard determinism: a randomized multi-leg topology must produce
//! byte-identical results — delivery logs, counters, and the merged
//! telemetry JSONL, whose `packet` records are every flow's ground truth
//! — no matter how many OS threads execute the fixed shard partition.
//! This mirrors the runner's `-j` determinism
//! test one level down, at the engine itself. And a world of one shard
//! must be the serial `Simulator`, which is what lets every experiment
//! run on the sharded engine.

use std::sync::{Arc, Mutex};

use iq_netsim::agent::{Agent, Ctx};
use iq_netsim::{
    payload, Addr, FlowId, LinkSpec, NodeId, Packet, ShardAgentId, ShardedSim,
    SimCounters, Simulator, Time,
};
use iq_telemetry::{parse_jsonl, to_jsonl, TelemetryBus, TelemetryReport, TelemetrySink};
use proptest::{proptest, ProptestConfig};

const MS: u64 = 1_000_000;

/// Sends `count` packets, one per `gap` ns, and logs every echo.
struct Pinger {
    dst: Addr,
    flow: FlowId,
    count: u32,
    gap: u64,
    sent: u32,
    echoes: Vec<(Time, u32)>,
}
impl Agent for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(0, 0);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let v = *pkt.payload_as::<u32>().unwrap();
        self.echoes.push((ctx.now(), v));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.sent < self.count {
            ctx.send(self.dst, 300, self.flow, payload(self.sent));
            self.sent += 1;
            ctx.set_timer(self.gap, 0);
        }
    }
}

/// Echoes every packet back to its source on the same flow.
struct Echoer {
    flow: FlowId,
}
impl Agent for Echoer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let v = *pkt.payload_as::<u32>().unwrap();
        ctx.send(pkt.src, 300, self.flow, payload(v));
    }
}

/// Topology knobs drawn by the proptest.
#[derive(Clone, Debug)]
struct Params {
    seed: u64,
    legs: usize,
    pairs_per_leg: usize,
    pings: u32,
    /// Nanoseconds between a pinger's sends.
    gap: u64,
    delay_ms: u64,
    loss_pct: u64,
    jitter_us: u64,
    /// Narrow RED bottleneck instead of the loss/jitter one: RED's drop
    /// draw is the only RNG consumer the paper's scenarios have.
    red: bool,
}

/// Everything a run exposes: per-pinger echo logs, the counters, and the
/// merged telemetry JSONL.
type Observed = (Vec<Vec<(Time, u32)>>, Vec<u64>, String);

/// The construction and inspection surface the serial and the sharded
/// engine share, so one `build`/`observe` serves both.
trait Net {
    fn node(&mut self, shard: usize) -> NodeId;
    fn duplex(&mut self, a: NodeId, b: NodeId, spec: LinkSpec);
    fn agent(&mut self, node: NodeId, port: u16, agent: Box<dyn Agent>) -> ShardAgentId;
    fn pinger(&self, id: ShardAgentId) -> &Pinger;
    fn counters(&self) -> SimCounters;
}

impl Net for ShardedSim {
    fn node(&mut self, shard: usize) -> NodeId {
        self.add_node(shard)
    }
    fn duplex(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.add_duplex_link(a, b, spec);
    }
    fn agent(&mut self, node: NodeId, port: u16, agent: Box<dyn Agent>) -> ShardAgentId {
        self.add_agent(node, port, agent)
    }
    fn pinger(&self, id: ShardAgentId) -> &Pinger {
        self.agent(id).unwrap()
    }
    fn counters(&self) -> SimCounters {
        self.counters()
    }
}

impl Net for Simulator {
    fn node(&mut self, _shard: usize) -> NodeId {
        self.add_node()
    }
    fn duplex(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.add_duplex_link(a, b, spec);
    }
    fn agent(&mut self, node: NodeId, port: u16, agent: Box<dyn Agent>) -> ShardAgentId {
        let agent = self.add_agent(node, port, agent);
        ShardAgentId { shard: 0, agent }
    }
    fn pinger(&self, id: ShardAgentId) -> &Pinger {
        self.agent(id.agent).unwrap()
    }
    fn counters(&self) -> SimCounters {
        self.counters()
    }
}

/// Builds one dumbbell leg per `(left, right)` shard pair, joined by one
/// duplex bottleneck, with an echo workload on every host pair. Returns
/// the pingers.
fn build(net: &mut impl Net, p: &Params, legs: &[(usize, usize)]) -> Vec<ShardAgentId> {
    let bottleneck = if p.red {
        LinkSpec::new(1e6, p.delay_ms * MS, 20_000).with_red()
    } else {
        // jitter knob: 0 → none, 1 → 200 µs, 2 → 1.5 ms.
        let jitter = [0, 200_000, 1_500_000][p.jitter_us as usize % 3];
        LinkSpec::new(20e6, p.delay_ms * MS, 50_000)
            .with_random_loss(p.loss_pct as f64 / 100.0)
            .with_jitter(jitter)
    };
    let access = LinkSpec::new(100e6, MS / 2, 256_000);

    let mut pingers = Vec::new();
    let mut flow = 0u32;
    for &(left, right) in legs {
        let lr = net.node(left);
        let rr = net.node(right);
        net.duplex(lr, rr, bottleneck.clone());
        for pair in 0..p.pairs_per_leg {
            let src = net.node(left);
            let dst = net.node(right);
            net.duplex(src, lr, access.clone());
            net.duplex(dst, rr, access.clone());
            let port = 1 + pair as u16;
            let id = net.agent(
                src,
                port,
                Box::new(Pinger {
                    dst: Addr::new(dst, port),
                    flow: FlowId(flow),
                    count: p.pings,
                    gap: p.gap,
                    sent: 0,
                    echoes: Vec::new(),
                }),
            );
            net.agent(dst, port, Box::new(Echoer { flow: FlowId(flow + 1) }));
            pingers.push(id);
            flow += 2;
        }
    }
    pingers
}

/// Every observable surface of a finished run as one comparable bundle;
/// `telemetry` lists the buses in shard-index order — the declaration-
/// order merge discipline the runner uses for `-j`.
fn observe(
    net: &impl Net,
    pingers: &[ShardAgentId],
    telemetry: &[Arc<Mutex<TelemetryBus>>],
) -> Observed {
    let logs = pingers.iter().map(|&id| net.pinger(id).echoes.clone()).collect();
    let c = net.counters();
    let scalars = vec![
        c.packets_sent,
        c.packets_delivered,
        c.packets_unroutable,
        c.events_processed,
        c.timers_fired,
        c.timers_cancelled,
    ];
    let mut jsonl = String::new();
    for bus in telemetry {
        jsonl.push_str(&to_jsonl(&bus.lock().unwrap().records()));
    }
    // Two runs that recorded nothing would compare equal.
    assert!(jsonl.contains("\"kind\":\"sent\""), "the buses hold no packet sent");
    (logs, scalars, jsonl)
}

/// Builds `legs` independent dumbbell legs — each leg a left shard and a
/// right shard joined by one duplex boundary bottleneck — runs the echo
/// workload with `threads` OS threads, and returns every observable
/// surface as one comparable bundle.
fn run(p: &Params, threads: usize, perturb: Option<u64>) -> Observed {
    let mut sim = ShardedSim::new(p.seed);
    let legs: Vec<(usize, usize)> = (0..p.legs)
        .map(|_| (sim.add_shard(), sim.add_shard()))
        .collect();
    sim.set_threads(threads);
    sim.set_perturbation(perturb);

    let mut telemetry = Vec::new();
    for shard in 0..sim.num_shards() {
        let (sink, bus) = TelemetrySink::new_bus(0);
        sim.attach_telemetry(shard, sink);
        telemetry.push(bus);
    }
    let pingers = build(&mut sim, p, &legs);
    sim.run_until(500 * MS);
    observe(&sim, &pingers, &telemetry)
}

/// The world every single-leg experiment rests on: all `p.legs` legs on
/// the one shard of a `ShardedSim`, run in 1 s slices — or, with
/// `serial`, the same build on a bare `Simulator` under `run_for(1 s)`
/// in a loop. The two must be the same simulation.
fn run_one_shard(p: &Params, serial: bool) -> Observed {
    let (sink, bus) = TelemetrySink::new_bus(0);
    let legs = vec![(0, 0); p.legs];
    if serial {
        let mut sim = Simulator::new(p.seed);
        sim.attach_telemetry(sink);
        let pingers = build(&mut sim, p, &legs);
        for _ in 0..3 {
            sim.run_for(1000 * MS);
        }
        observe(&sim, &pingers, &[bus])
    } else {
        let mut sim = ShardedSim::new(p.seed);
        sim.add_shard();
        sim.attach_telemetry(0, sink);
        let pingers = build(&mut sim, p, &legs);
        sim.run_slices(3000 * MS, 1000 * MS, |_| false);
        observe(&sim, &pingers, &[bus])
    }
}

#[test]
fn one_shard_world_is_the_serial_simulator_under_red() {
    // Three pingers overload the 1 Mb/s RED bottleneck, so the average
    // queue sits between the thresholds and every enqueue draws.
    let p = Params {
        seed: 0x5eed_cafe,
        legs: 1,
        pairs_per_leg: 3,
        pings: 400,
        gap: 5 * MS,
        delay_ms: 8,
        loss_pct: 0,
        jitter_us: 0,
        red: true,
    };
    let serial = run_one_shard(&p, true);
    assert_eq!(run_one_shard(&p, false), serial);
    let records = parse_jsonl(&serial.2).expect("the merged stream parses");
    let dropped = TelemetryReport::from_records(&records).dropped_packets;
    assert!(dropped > 0, "RED never dropped, so the RNG stream went untested");
    assert!(serial.0.iter().all(|log| !log.is_empty()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn outputs_are_byte_identical_across_thread_counts(
        seed in proptest::any::<u64>(),
        legs in 1usize..3,
        pairs_per_leg in 1usize..4,
        pings in 5u32..40,
        delay_ms in 1u64..20,
        loss_pct in 0u64..10,
        jitter_us in 0u64..3,
    ) {
        let p = Params {
            seed, legs, pairs_per_leg, pings, gap: 2 * MS, delay_ms, loss_pct, jitter_us,
            red: false,
        };
        let base = run(&p, 1, None);
        for threads in [2, 4] {
            let got = run(&p, threads, None);
            assert_eq!(got.0, base.0, "echo logs differ at {threads} threads ({p:?})");
            assert_eq!(got.1, base.1, "counters differ at {threads} threads ({p:?})");
            assert_eq!(got.2, base.2, "telemetry differs at {threads} threads ({p:?})");
        }
        // Sanity: the workload actually crossed shards.
        assert!(base.1[1] > 0, "nothing was delivered ({p:?})");
    }

    /// Same byte-equality bar, but against an adversarial scheduler:
    /// random worker counts *and* injected scheduling perturbations
    /// (shuffled claim order, forced preemptions — see
    /// `ShardedSim::set_perturbation`), so steal orders and parks the
    /// normal schedule would rarely produce still change nothing.
    #[test]
    fn outputs_survive_scheduling_perturbations(
        seed in proptest::any::<u64>(),
        legs in 1usize..3,
        pairs_per_leg in 1usize..4,
        pings in 5u32..40,
        delay_ms in 1u64..20,
        loss_pct in 0u64..10,
        jitter_us in 0u64..3,
        threads in 1usize..6,
        perturb_seed in proptest::any::<u64>(),
    ) {
        let p = Params {
            seed, legs, pairs_per_leg, pings, gap: 2 * MS, delay_ms, loss_pct, jitter_us,
            red: false,
        };
        let base = run(&p, 1, None);
        let got = run(&p, threads, Some(perturb_seed));
        assert_eq!(
            got.0, base.0,
            "echo logs differ at {threads} threads, perturbation {perturb_seed} ({p:?})"
        );
        assert_eq!(
            got.1, base.1,
            "counters differ at {threads} threads, perturbation {perturb_seed} ({p:?})"
        );
        assert_eq!(
            got.2, base.2,
            "telemetry differs at {threads} threads, perturbation {perturb_seed} ({p:?})"
        );
        assert!(base.1[1] > 0, "nothing was delivered ({p:?})");
    }

    /// Shard 0 draws the caller's seed and a lone shard has no boundary,
    /// so a 1-shard world must reproduce the serial simulator bit for
    /// bit — loss and jitter draws included — with the pings spread over
    /// all three 1 s slices.
    #[test]
    fn one_shard_world_is_the_serial_simulator(
        seed in proptest::any::<u64>(),
        legs in 1usize..3,
        pairs_per_leg in 1usize..4,
        pings in 5u32..40,
        delay_ms in 1u64..20,
        loss_pct in 0u64..10,
        jitter_us in 0u64..3,
    ) {
        let p = Params {
            seed, legs, pairs_per_leg, pings, gap: 70 * MS, delay_ms, loss_pct, jitter_us,
            red: false,
        };
        let serial = run_one_shard(&p, true);
        let world = run_one_shard(&p, false);
        assert_eq!(world.0, serial.0, "echo logs differ ({p:?})");
        assert_eq!(world.1, serial.1, "counters differ ({p:?})");
        assert_eq!(world.2, serial.2, "telemetry differs ({p:?})");
        assert!(serial.1[1] > 0, "nothing was delivered ({p:?})");
    }
}
