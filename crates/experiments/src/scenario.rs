//! Generic experiment scenarios: adaptive application flows over the
//! paper's dumbbell, with configurable cross traffic and transport
//! scheme — one flow for the paper's tables, a fleet of them for the
//! many-flow scenarios. One driver ([`run_scenario_with`]) builds, runs
//! and harvests every kind; every table module builds on it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use iq_core::{CoordinationLog, CoordinationMode};
use iq_echo::{
    AdaptiveSourceAgent, DeferredResolution, MarkingAdapter, Policy, ResolutionAdapter,
    SourceConfig,
};
use iq_metrics::{flow::ArrivalLog, FlowMetrics, TimeSeries};
use iq_netsim::{
    build_dumbbell_leg, time, Addr, Agent, AgentId, BulkSender, DumbbellSpec, FlowId,
    ReceiverDriver, SenderDriver, ShardAgentId, ShardedSim,
};
use iq_obs::{Plane, Registry};
use iq_rudp::{CcAlgorithm, ConnBuilder, RudpConfig, RudpSinkAgent, SenderConn};
use iq_tcp::{TcpConfig, TcpReceiverConn, TcpSenderConn, TcpSinkAgent};
use iq_telemetry::{to_jsonl, TelemetryBus, TelemetrySink};
use iq_trace::{MembershipConfig, MembershipTrace};
use iq_workload::{CbrSource, VbrSource};

/// Which transport/adaptation scheme the application flow runs — the
/// row label of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// TCP Reno baseline.
    Tcp,
    /// RUDP with congestion control, no application adaptation, no
    /// coordination (the "IQ-RUDP" transport-only row of Table 1).
    RudpPlain,
    /// RUDP with application adaptation but congestion control disabled
    /// (Table 1 row 3, "App adaptation only").
    AppAdaptOnly,
    /// Application adaptation + transport adaptation, uncoordinated
    /// (the "RUDP" rows of Tables 3-8).
    Uncoordinated,
    /// Application adaptation + transport adaptation, coordinated
    /// ("IQ-RUDP" rows; "w/o ADAPT_COND" in Table 8's terms).
    Coordinated,
    /// Coordinated plus the Eq. (1) obsolete-information correction
    /// ("IQ-RUDP w/ ADAPT_COND").
    CoordinatedWithCond,
}

impl Scheme {
    /// The coordination mode a scheme maps to (RUDP-based schemes only).
    pub fn mode(self) -> CoordinationMode {
        match self {
            Scheme::Coordinated => CoordinationMode::Coordinated,
            Scheme::CoordinatedWithCond => CoordinationMode::CoordinatedWithCond,
            _ => CoordinationMode::Uncoordinated,
        }
    }

    /// Human-readable row label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Tcp => "TCP",
            Scheme::RudpPlain => "IQ-RUDP",
            Scheme::AppAdaptOnly => "App adaptation only",
            Scheme::Uncoordinated => "RUDP",
            Scheme::Coordinated => "IQ-RUDP",
            Scheme::CoordinatedWithCond => "IQ-RUDP w/ ADAPT_COND",
        }
    }
}

/// The application adaptation policy a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// No application adaptation.
    None,
    /// §3.3 marking (reliability) adaptation.
    Marking,
    /// §3.4 resolution (down-sampling) adaptation.
    Resolution,
    /// Frequency adaptation (send the same frames, less often).
    Frequency,
    /// §3.5 deferred resolution with the given frame granularity.
    Deferred {
        /// Frames between permissible adaptations (paper: 20).
        granularity: u64,
    },
}

impl PolicySpec {
    fn build(self, scheme: Scheme) -> Policy {
        match self {
            PolicySpec::None => Policy::None,
            PolicySpec::Marking => Policy::Marking(MarkingAdapter::default()),
            PolicySpec::Resolution => Policy::Resolution(ResolutionAdapter::default()),
            PolicySpec::Frequency => Policy::Frequency(iq_echo::FrequencyAdapter::default()),
            PolicySpec::Deferred { granularity } => Policy::Deferred(DeferredResolution::new(
                granularity,
                scheme == Scheme::CoordinatedWithCond,
            )),
        }
    }
}

/// VBR cross-traffic specification.
#[derive(Debug, Clone)]
pub struct VbrSpec {
    /// Frames per second (paper: 500).
    pub fps: f64,
    /// Target mean offered rate in bits/second; the MBone trace is
    /// scaled to hit it.
    pub mean_bps: f64,
    /// Trace seed.
    pub seed: u64,
}

impl VbrSpec {
    /// Materializes the per-frame sizes.
    pub fn frame_sizes(&self) -> Vec<u32> {
        let trace = MembershipTrace::generate(&MembershipConfig {
            seed: self.seed,
            len: 4000,
            ..MembershipConfig::default()
        });
        let mean_group =
            trace.samples.iter().map(|&g| f64::from(g)).sum::<f64>() / trace.samples.len() as f64;
        let bytes_per_member = self.mean_bps / (8.0 * self.fps * mean_group);
        trace
            .samples
            .iter()
            .map(|&g| ((f64::from(g) * bytes_per_member) as u32).max(200))
            .collect()
    }
}

/// Cross traffic sharing the bottleneck with the application flow.
#[derive(Debug, Clone, Default)]
pub struct CrossTraffic {
    /// iperf-style CBR UDP rate in bits/second.
    pub cbr_bps: Option<f64>,
    /// VBR UDP (the changing-network workload).
    pub vbr: Option<VbrSpec>,
    /// A competing TCP bulk flow (the fairness test).
    pub tcp_bulk: bool,
}

/// A complete experiment: a single flow, or a fleet when
/// [`Self::incast_flows`] is set.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Simulation seed.
    pub seed: u64,
    /// Topology (defaults to the paper's 20 Mb / 30 ms dumbbell).
    pub dumbbell: DumbbellSpec,
    /// Row scheme.
    pub scheme: Scheme,
    /// Application adaptation policy.
    pub policy: PolicySpec,
    /// Frame schedule for the application flow.
    pub frame_sizes: Vec<u32>,
    /// `Some(fps)` = rate-based application, `None` = greedy.
    pub fps: Option<f64>,
    /// Split frames into individually markable datagrams.
    pub datagram_mode: bool,
    /// Receiver loss tolerance.
    pub loss_tolerance: f64,
    /// Error-ratio callback thresholds (upper, lower).
    pub thresholds: (Option<f64>, Option<f64>),
    /// Congestion-control algorithm for the transport schemes. Ignored
    /// by [`Scheme::AppAdaptOnly`], which always pins the window at
    /// `APP_ADAPT_ONLY_CWND` (32 segments), and by [`Scheme::Tcp`].
    pub cc: CcAlgorithm,
    /// Override for the transport's measuring period (long-RTT paths
    /// need a period that spans at least one RTT).
    pub measure_period: Option<iq_netsim::TimeDelta>,
    /// Cadence limit for lower-threshold (recovery) adaptations, seconds.
    pub min_lower_gap_s: f64,
    /// Run the bottleneck queue under RED instead of drop-tail
    /// (queue-discipline ablation; the paper's testbed was drop-tail).
    pub red_bottleneck: bool,
    /// Cross traffic.
    pub cross: CrossTraffic,
    /// Simulated-time budget in seconds.
    pub deadline_s: f64,
    /// When non-zero, run a many-flow incast instead of the single-flow
    /// experiment: this many RUDP flows (a deterministic mix of marked,
    /// partially unmarked, coordinated-adaptive and sparse-ACK senders)
    /// share the bottleneck, spread round-robin over
    /// `dumbbell.pairs` host pairs. `frame_sizes.len()` messages of
    /// `frame_sizes[0]` bytes are offered per flow.
    pub incast_flows: u32,
    /// When non-zero, run the sharded `mega_flows` population instead:
    /// this many independent dumbbell legs, each one left-side and one
    /// right-side shard of a [`ShardedSim`], carrying
    /// [`Self::incast_flows`] flows per leg (reused as flows-per-leg
    /// here). Flows cycle through the incast sender classes by global
    /// index, each bulk class pinned to its own congestion controller.
    /// Zero means one leg on one shard.
    pub mega_legs: u32,
}

impl Scenario {
    /// A scenario skeleton with the paper's defaults.
    pub fn new(scheme: Scheme, policy: PolicySpec, frame_sizes: Vec<u32>) -> Self {
        Self {
            seed: 42,
            dumbbell: DumbbellSpec::paper_default(3),
            scheme,
            policy,
            frame_sizes,
            fps: None,
            datagram_mode: false,
            loss_tolerance: 0.0,
            thresholds: (None, None),
            cc: CcAlgorithm::default(),
            measure_period: None,
            min_lower_gap_s: 0.4,
            red_bottleneck: false,
            cross: CrossTraffic::default(),
            deadline_s: 600.0,
            incast_flows: 0,
            mega_legs: 0,
        }
    }

    /// A many-flow incast: `flows` RUDP senders, each offering
    /// `msgs_per_flow` messages of `msg_size` bytes, converging on one
    /// widened bottleneck (the per-flow fair share stays small so the
    /// congestion machinery is exercised, not idled).
    pub fn incast(flows: u32, msgs_per_flow: usize, msg_size: u32) -> Self {
        let mut sc = Self::new(
            Scheme::Coordinated,
            PolicySpec::Marking,
            vec![msg_size; msgs_per_flow],
        );
        sc.incast_flows = flows;
        sc.dumbbell = DumbbellSpec::paper_default(8);
        sc.dumbbell.bottleneck_bps = 200e6;
        sc.dumbbell.queue_bytes = 1_500_000;
        sc.thresholds = (Some(0.10), Some(0.02));
        sc.loss_tolerance = 0.40;
        sc.deadline_s = 120.0;
        sc
    }

    /// The sharded many-leg population: `legs` independent dumbbell legs
    /// (each leg = one left shard + one right shard of a [`ShardedSim`],
    /// joined by its bottleneck boundary link), `flows_per_leg` RUDP
    /// flows per leg — spread over up to 32 host pairs — offering
    /// `msgs_per_flow` messages of `msg_size` bytes each. Flows cycle
    /// through the incast sender classes and the four congestion
    /// controllers (LDA / CUBIC / BBR / RRR), so the population is
    /// heterogeneous in both reliability handling and transport dynamics. `mega(8, 12_800, ..)` is the 102 400-flow
    /// `mega_flows` benchmark scenario.
    pub fn mega(legs: u32, flows_per_leg: u32, msgs_per_flow: usize, msg_size: u32) -> Self {
        let mut sc = Self::new(
            Scheme::Coordinated,
            PolicySpec::Marking,
            vec![msg_size; msgs_per_flow],
        );
        sc.mega_legs = legs;
        sc.incast_flows = flows_per_leg;
        sc.dumbbell.pairs = (flows_per_leg as usize).clamp(1, 32);
        // Per-leg bottleneck: wide enough that the population drains,
        // narrow enough that the fleet contends (incast-style).
        sc.dumbbell.bottleneck_bps = 200e6;
        sc.dumbbell.queue_bytes = 4_000_000;
        sc.thresholds = (Some(0.10), Some(0.02));
        sc.loss_tolerance = 0.40;
        sc.deadline_s = 120.0;
        sc
    }
}

/// What a run measured — the superset of every table's columns.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Row label.
    pub label: &'static str,
    /// Application-level transfer duration (first → last arrival), s.
    pub duration_s: f64,
    /// Receiver goodput, KB/s.
    pub throughput_kbps: f64,
    /// Mean message inter-arrival, s.
    pub inter_arrival_s: f64,
    /// Std-dev of message inter-arrival, s.
    pub jitter_s: f64,
    /// Mean inter-arrival of tagged messages, ms.
    pub tagged_delay_ms: f64,
    /// Std-dev of tagged inter-arrival, ms.
    pub tagged_jitter_ms: f64,
    /// Messages the application offered.
    pub msgs_offered: u64,
    /// Messages delivered to the receiving application.
    pub msgs_delivered: u64,
    /// Delivered percentage.
    pub delivered_pct: f64,
    /// Per-message jitter series (Figures 2/3).
    pub jitter_series: TimeSeries,
    /// Whether the transfer finished before the deadline.
    pub finished: bool,
    /// Coordination counters (RUDP schemes).
    pub coordination: Option<CoordinationLog>,
    /// Upper/lower callbacks fired at the application.
    pub callbacks: (u64, u64),
    /// Sender-side transport counters (RUDP schemes).
    pub sender_stats: Option<iq_rudp::SenderStats>,
    /// Simulator events processed during the run (for events/sec
    /// throughput reporting; not a paper metric).
    pub events_processed: u64,
    /// Structured telemetry captured during the run, serialized as
    /// JSONL (one record per line). Empty unless the run was handed
    /// [`RunConfig::telemetry`].
    pub telemetry: String,
    /// Worker-pool size requested for intra-scenario sharded execution:
    /// [`RunConfig::threads`] capped at the shard count of the world (1 for the
    /// one-shard scenarios), so the same on every host. The threads that
    /// ran — the engine also caps the pool at the host's cores — are
    /// `sched.workers`. Informational: never part of the determinism
    /// fingerprint, because results are identical for any value.
    pub shards_used: u32,
    /// The run's metric registry. Sim-plane entries (simulator counters,
    /// delivery-latency histogram, transport counters, telemetry
    /// evictions) are deterministic sim-time facts whose canonical
    /// rendering is folded into the determinism fingerprint; engine-
    /// plane entries (scheduler placement, payload-pool hit rates,
    /// shard-loop stats, phase times) legitimately vary with thread
    /// scheduling and are never fingerprinted.
    pub obs: Registry,
    /// Wall-clock phase breakdown per shard (engine plane; a single
    /// entry for the one-shard scenarios, index = shard otherwise).
    pub phase_profile: Vec<iq_obs::PhaseSnapshot>,
    /// Shard-scheduler totals (engine plane; all zero for the
    /// one-shard scenarios, whose scheduler has nothing to arbitrate).
    pub sched: iq_netsim::SchedTotals,
    /// Telemetry records lost to ring-buffer overflow during the run
    /// (0 when capture is off). Nonzero means the captured JSONL is
    /// incomplete; the runner warns on stderr.
    pub telemetry_evicted: u64,
}

/// How a scenario is executed — never what it computes: every field may
/// take any value without moving a result bit. Handed to
/// [`run_scenario_with`] with the scenario, the way the paper hands
/// quality attributes to the transport with the data (`CMwritev_attr`)
/// instead of through state both sides happen to share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// OS threads executing the world's fixed shard partition (`--shards
    /// N`; 0 = one per available core). Capped at the partition's size,
    /// so only `mega_flows` ever uses more than one.
    pub threads: usize,
    /// Attach a telemetry bus to the simulator and transport stack and
    /// serialize its records into [`RunResult::telemetry`]. The disabled
    /// sink costs one branch per would-be event, and the rendered tables
    /// are byte-identical either way.
    pub telemetry: bool,
    /// Per-flow telemetry ring capacity (0 = the bus default,
    /// [`iq_telemetry::bus::DEFAULT_RING_CAPACITY`]). Small values force
    /// eviction, which the runner surfaces as a stderr warning and the
    /// `iq_telemetry_evicted_total` counter.
    pub telemetry_ring: usize,
}

impl Default for RunConfig {
    /// One thread, no capture, the bus-default ring. Written out, not
    /// derived: 0 threads means one per core.
    fn default() -> Self {
        Self {
            threads: 1,
            telemetry: false,
            telemetry_ring: 0,
        }
    }
}

/// `n`, with 0 resolved to one per available core.
pub(crate) fn or_one_per_core(n: usize) -> usize {
    match n {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// One row of the sender-class table: what a flow of the class sends
/// with, over the transport configuration both of its endpoints share.
enum FlowClass {
    /// The scenario's adaptive application source (its scheme, policy
    /// and frame schedule) over RUDP.
    Adaptive(ConnBuilder),
    /// A greedy RUDP bulk sender offering `frame_sizes.len()` messages of
    /// `frame_sizes[0]` bytes, every `unmark_every`-th one unmarked
    /// (0 = all marked).
    Bulk {
        builder: ConnBuilder,
        unmark_every: u64,
    },
    /// A greedy TCP Reno bulk sender over the same byte volume (TCP has
    /// no application adaptation path).
    TcpBulk,
}

impl FlowClass {
    /// Whether a flow of the class ends at a [`TcpSinkAgent`] (else at a
    /// [`RudpSinkAgent`]): the one rule both the stop test and harvest
    /// probe a sink by.
    fn tcp_sink(&self) -> bool {
        matches!(self, FlowClass::TcpBulk)
    }
}

/// The sender-class table; flow `g` of a world is of class `g % len`.
///
/// A single-flow scenario has one class: the TCP bulk sender for
/// [`Scheme::Tcp`], the adaptive source otherwise. A fleet
/// ([`Scenario::incast_flows`]) cycles through four: `0` fully marked
/// reliable bulk, `1` the adaptive source, `2` bulk with every 4th
/// message unmarked against a loss-tolerant receiver and
/// `discard_unmarked` coordination, `3` fully marked bulk with 4:1 ACK
/// decimation. The `mega` fleet additionally pins each bulk class to its
/// own congestion controller (CUBIC / BBR / RRR; the adaptive source
/// stays on `sc.cc`), so every bottleneck carries a heterogeneous mix.
/// Flows of a class share one `Arc<RudpConfig>` (see
/// [`iq_rudp::ConnBuilder::for_conn`]).
fn flow_classes(sc: &Scenario, base: &RudpConfig) -> Vec<FlowClass> {
    let adaptive = FlowClass::Adaptive(base.builder(0, FlowId(0)));
    if sc.incast_flows == 0 {
        return vec![if sc.scheme == Scheme::Tcp {
            FlowClass::TcpBulk
        } else {
            adaptive
        }];
    }
    let bulk = |mut cfg: RudpConfig, mega_cc: CcAlgorithm, unmark_every: u64| {
        if sc.mega_legs > 0 {
            cfg.cc.algorithm = mega_cc;
        }
        FlowClass::Bulk {
            builder: cfg.builder(0, FlowId(0)),
            unmark_every,
        }
    };
    let marked = RudpConfig {
        loss_tolerance: 0.0,
        ..base.clone()
    };
    let unmarked = RudpConfig {
        discard_unmarked: true,
        ..base.clone()
    };
    let sparse_ack = RudpConfig {
        loss_tolerance: 0.0,
        ack_every: 4,
        ..base.clone()
    };
    vec![
        bulk(marked, CcAlgorithm::Cubic, 0),
        adaptive,
        bulk(unmarked, CcAlgorithm::BbrLike, 4),
        bulk(sparse_ack, CcAlgorithm::Rrr, 0),
    ]
}

/// The TCP row's schedule: the scenario's byte volume as `(messages,
/// message size)` of equal-sized messages.
fn tcp_schedule(sc: &Scenario) -> (u64, u32) {
    let total: u64 = sc.frame_sizes.iter().map(|&s| u64::from(s)).sum();
    let msg_size = (total / sc.frame_sizes.len().max(1) as u64).clamp(200, 64_000) as u32;
    (total / u64::from(msg_size), msg_size)
}

/// The pinned window of [`Scheme::AppAdaptOnly`], segments.
const APP_ADAPT_ONLY_CWND: f64 = 32.0;

fn rudp_config(sc: &Scenario) -> RudpConfig {
    let mut cfg = RudpConfig {
        loss_tolerance: sc.loss_tolerance,
        upper_threshold: sc.thresholds.0,
        lower_threshold: sc.thresholds.1,
        ..RudpConfig::default()
    };
    if let Some(p) = sc.measure_period {
        cfg.measure_period = p;
    }
    cfg.cc.algorithm = if sc.scheme == Scheme::AppAdaptOnly {
        // "Application adaptation only": no transport adaptation, the
        // window stays pinned (the old `enabled: false` mode).
        CcAlgorithm::Fixed {
            cwnd: APP_ADAPT_ONLY_CWND,
        }
    } else {
        sc.cc.clone()
    };
    cfg
}

/// The two endpoints of one flow, kept for the stop test and harvest.
struct Flow {
    tx: Handle,
    rx: Handle,
}

/// A [`ShardAgentId`] with the shard as a `u32`: 8 B for 16, which
/// halves the one table a world keeps per flow.
#[derive(Clone, Copy)]
struct Handle {
    shard: u32,
    agent: AgentId,
}

impl From<ShardAgentId> for Handle {
    fn from(id: ShardAgentId) -> Self {
        Self {
            shard: id.shard as u32,
            agent: id.agent,
        }
    }
}

impl Handle {
    fn id(self) -> ShardAgentId {
        ShardAgentId {
            shard: self.shard as usize,
            agent: self.agent,
        }
    }
}

/// A built scenario: the sharded world plus the handles harvest needs.
struct World {
    sim: ShardedSim,
    /// One telemetry bus per shard when capture is on, else empty.
    buses: Vec<Arc<Mutex<TelemetryBus>>>,
    classes: Vec<FlowClass>,
    /// Every flow in global order (leg-major).
    flows: Vec<Flow>,
}

impl World {
    /// Builds the world a scenario describes: `max(mega_legs, 1)`
    /// dumbbell legs — each on one shard, or split left/right across two
    /// (the bottleneck is the boundary, its propagation delay the
    /// lookahead) when [`Scenario::mega_legs`] is set — each carrying the
    /// cross traffic and `max(incast_flows, 1)` flows cycling through
    /// [`flow_classes`] by global flow index.
    ///
    /// A fleet spreads its flows round-robin over the leg's host pairs,
    /// flow `i` of a leg on pair `i % pairs`, port `1000 + i / pairs`,
    /// with conn/flow id `1000 + g`; the single flow is conn 1 on port 1
    /// of pair 0. Pair 1 carries CBR, pair 2 VBR or the TCP bulk flow.
    fn build(sc: &Scenario, cfg: RunConfig) -> Self {
        let fleet = sc.incast_flows > 0;
        let flows_per_leg = sc.incast_flows.max(1);
        let pairs = sc.dumbbell.pairs;
        let cross = &sc.cross;
        assert!(
            pairs >= 2 || cross.cbr_bps.is_none(),
            "Scenario::cross.cbr_bps runs on host pair 1, but Scenario::dumbbell.pairs = {pairs}"
        );
        assert!(
            pairs >= 3 || (cross.vbr.is_none() && !cross.tcp_bulk),
            "Scenario::cross.vbr / cross.tcp_bulk run on host pair 2, but \
             Scenario::dumbbell.pairs = {pairs}"
        );
        let (first_id, first_port) = if fleet { (1000, 1000) } else { (1, 1) };
        let last_port = first_port + (flows_per_leg - 1) / pairs.max(1) as u32;
        assert!(
            last_port <= u32::from(u16::MAX),
            "Scenario::incast_flows = {flows_per_leg} over Scenario::dumbbell.pairs = {pairs} \
             needs port {last_port}, past u16::MAX; widen the dumbbell"
        );

        let base = rudp_config(sc);
        let classes = flow_classes(sc, &base);
        let mut sim = ShardedSim::new(sc.seed);
        let legs: Vec<(usize, usize)> = (0..sc.mega_legs.max(1))
            .map(|_| {
                let left = sim.add_shard();
                let right = if sc.mega_legs > 0 {
                    sim.add_shard()
                } else {
                    left
                };
                (left, right)
            })
            .collect();
        sim.set_threads(or_one_per_core(cfg.threads));

        // The bus is the RUDP stack's: a world with no RUDP endpoint (the
        // TCP row) attaches none. Only the single paper flow hands its
        // shard's sink to its own endpoints; fleets observe the network.
        let capture = cfg.telemetry && !matches!(classes[..], [FlowClass::TcpBulk]);
        let mut buses = Vec::new();
        // What a flow's own endpoints on each shard emit into.
        let mut flow_sinks = vec![TelemetrySink::disabled(); sim.num_shards()];
        if capture {
            for (shard, flow_sink) in flow_sinks.iter_mut().enumerate() {
                let (sink, bus) = TelemetrySink::new_bus(cfg.telemetry_ring);
                sim.attach_telemetry(shard, sink.clone());
                buses.push(bus);
                if !fleet {
                    *flow_sink = sink;
                }
            }
        }

        let mut dspec = sc.dumbbell.clone();
        dspec.red_bottleneck = sc.red_bottleneck;
        let msgs_per_flow = sc.frame_sizes.len() as u64;
        let msg_size = sc.frame_sizes.first().copied().unwrap_or(1400);
        let mut flows = Vec::with_capacity(legs.len() * flows_per_leg as usize);
        for &(left, right) in &legs {
            let db = build_dumbbell_leg(&mut sim, left, right, &dspec);
            let (lh, rh) = (&db.left_hosts, &db.right_hosts);

            if let Some(bps) = cross.cbr_bps {
                let src = CbrSource::new(Addr::new(rh[1], 10), FlowId(100), bps, 972);
                sim.add_agent(lh[1], 10, Box::new(src));
                sim.add_agent(rh[1], 10, Box::new(iq_workload::UdpSink::new()));
            }
            if let Some(vbr) = &cross.vbr {
                let peer = Addr::new(rh[2], 11);
                let src = VbrSource::new(peer, FlowId(101), vbr.fps, vbr.frame_sizes());
                sim.add_agent(lh[2], 11, Box::new(src));
                sim.add_agent(rh[2], 11, Box::new(iq_workload::UdpSink::new()));
            }
            if cross.tcp_bulk {
                // Enough volume to outlast the run.
                let msgs = (sc.deadline_s * 2.5e6 / 1400.0) as u64;
                let (peer, flow) = (Addr::new(rh[2], 12), FlowId(102));
                let tx = SenderDriver::new(TcpSenderConn::new(900, TcpConfig), peer, flow);
                sim.add_agent(lh[2], 12, Box::new(BulkSender::new(tx, msgs, 1400)));
                let rx = ReceiverDriver::new(TcpReceiverConn::new(900, TcpConfig), flow);
                let sink = TcpSinkAgent::new(rx, FlowMetrics::volume_only());
                sim.add_agent(rh[2], 12, Box::new(sink));
            }

            for i in 0..flows_per_leg {
                let g = flows.len() as u32;
                let pair = i as usize % pairs;
                let port = (first_port + i / pairs as u32) as u16;
                let id = first_id + g;
                let flow = FlowId(id);
                let peer = Addr::new(rh[pair], port);
                let class = &classes[g as usize % classes.len()];
                let sender: Box<dyn Agent> = match class {
                    FlowClass::Adaptive(builder) => {
                        let driver = builder
                            .for_conn(id, flow)
                            .telemetry(flow_sinks[left].clone())
                            .build_sender(peer);
                        let mut cfg = SourceConfig::new(sc.frame_sizes.clone());
                        cfg.mode = sc.scheme.mode();
                        cfg.fps = sc.fps;
                        cfg.datagram_mode = sc.datagram_mode;
                        cfg.min_lower_gap = time::secs(sc.min_lower_gap_s);
                        cfg.seed = sc.seed ^ u64::from(g) ^ 0x5eed;
                        let policy = sc.policy.build(sc.scheme);
                        Box::new(AdaptiveSourceAgent::from_driver(driver, cfg, policy))
                    }
                    FlowClass::Bulk {
                        builder,
                        unmark_every,
                    } => {
                        let driver = builder.for_conn(id, flow).build_sender(peer);
                        Box::new(
                            BulkSender::new(driver, msgs_per_flow, msg_size)
                                .unmark_every(*unmark_every),
                        )
                    }
                    FlowClass::TcpBulk => {
                        let (msgs, size) = tcp_schedule(sc);
                        let conn = TcpSenderConn::new(id, TcpConfig);
                        Box::new(BulkSender::new(
                            SenderDriver::new(conn, peer, flow),
                            msgs,
                            size,
                        ))
                    }
                };
                let tx = sim.add_agent(lh[pair], port, sender);
                // A recorder exists where a reader exists: `harvest`
                // reports the arrival shape of flow 0 and sums volume
                // over the rest.
                let metrics = if g == 0 {
                    FlowMetrics::new()
                } else {
                    FlowMetrics::volume_only()
                };
                let receiver: Box<dyn Agent> = match class {
                    FlowClass::Adaptive(builder) | FlowClass::Bulk { builder, .. } => {
                        let builder = builder
                            .for_conn(id, flow)
                            .telemetry(flow_sinks[right].clone());
                        Box::new(RudpSinkAgent::new(builder.build_receiver(), metrics))
                    }
                    FlowClass::TcpBulk => {
                        let conn = TcpReceiverConn::new(id, TcpConfig);
                        Box::new(TcpSinkAgent::new(ReceiverDriver::new(conn, flow), metrics))
                    }
                };
                let rx = sim.add_agent(rh[pair], port, receiver);
                flows.push(Flow {
                    tx: tx.into(),
                    rx: rx.into(),
                });
            }
        }
        Self {
            sim,
            buses,
            classes,
            flows,
        }
    }

    /// Folds every flow into one [`RunResult`]: sums for volume metrics
    /// and counters (each counter type sums itself), the max for
    /// duration, flow 0's arrivals for delay, jitter and its series; a
    /// single flow is a fleet of one. Everything is read from the world
    /// before it is dropped but what flow 0's arrival log gives, which
    /// one replay derives after: the world and the series are never live
    /// at once, and the log (≈ 3 B an arrival) goes as soon as the
    /// replay ends.
    fn harvest(
        self,
        sc: &Scenario,
        cfg: RunConfig,
        pool_before: iq_netsim::PoolStats,
    ) -> RunResult {
        let Self {
            mut sim,
            buses,
            classes,
            flows,
        } = self;
        // Merge per-shard telemetry in shard-index order — the same
        // declaration-order discipline the runner uses for `-j`, so the
        // JSONL is independent of the thread count.
        let mut telemetry = String::new();
        let mut telemetry_evicted = 0u64;
        for bus in buses {
            let bus = bus.lock().unwrap_or_else(|e| e.into_inner());
            telemetry.push_str(&to_jsonl(&bus.records()));
            telemetry_evicted += bus.total_evicted();
        }

        let mut offered = 0u64;
        let mut callbacks = (0u64, 0u64);
        let mut sender_stats: Option<iq_rudp::SenderStats> = None;
        let mut receiver_stats: Option<iq_rudp::ReceiverStats> = None;
        let mut coordination: Option<CoordinationLog> = None;
        let mut delivered = 0u64;
        let mut throughput = 0.0f64;
        let mut duration = 0.0f64;
        let mut finished = true;
        // Flow 0's tagged columns (seconds) and arrival times.
        let mut tagged = (0.0, 0.0);
        let mut arrivals = ArrivalLog::default();
        for (g, flow) in flows.iter().enumerate() {
            let class = &classes[g % classes.len()];
            match class {
                FlowClass::Adaptive(_) => {
                    let a = sim
                        .agent::<AdaptiveSourceAgent>(flow.tx.id())
                        .expect("adaptive source");
                    offered += a.offered_msgs;
                    callbacks.0 += a.callbacks.0;
                    callbacks.1 += a.callbacks.1;
                    *sender_stats.get_or_insert_default() += a.conn().stats();
                    let log = a.coordination_log();
                    match &mut coordination {
                        None => coordination = Some(log),
                        Some(agg) => *agg += log,
                    }
                }
                FlowClass::Bulk { .. } => {
                    let a = sim
                        .agent::<BulkSender<SenderConn>>(flow.tx.id())
                        .expect("bulk sender");
                    offered += a.offered_msgs();
                    *sender_stats.get_or_insert_default() += a.conn().stats();
                }
                FlowClass::TcpBulk => offered += tcp_schedule(sc).0,
            }
            let rx = flow.rx.id();
            let (done, m) = if class.tcp_sink() {
                let s = sim.agent_mut::<TcpSinkAgent>(rx).expect("TCP sink");
                (s.is_finished(), &mut s.metrics)
            } else {
                let s = sim.agent_mut::<RudpSinkAgent>(rx).expect("RUDP sink");
                *receiver_stats.get_or_insert_default() += s.conn().stats();
                (s.is_finished(), &mut s.metrics)
            };
            delivered += m.messages();
            throughput += m.throughput_kbps();
            duration = duration.max(m.duration_s());
            finished &= done;
            if g == 0 {
                tagged = (m.tagged_inter_arrival_s(), m.tagged_jitter_s());
                arrivals = m.take_arrivals();
            }
        }
        let mut obs = Registry::new();
        sim.collect_obs(&mut obs);
        collect_run_obs(
            &mut obs,
            sender_stats.as_ref(),
            receiver_stats.as_ref(),
            // This thread's traffic (all of it when the epochs ran
            // inline) plus what the pool's workers handed back.
            iq_netsim::pool_stats()
                .since(pool_before)
                .plus(sim.worker_pool_stats()),
            telemetry_evicted,
        );
        // The TCP sink tags every message; the tagged columns are RUDP's.
        let tagged_ms = |s: f64| {
            if receiver_stats.is_some() {
                s * 1e3
            } else {
                0.0
            }
        };
        let (tagged_delay_ms, tagged_jitter_ms) = (tagged_ms(tagged.0), tagged_ms(tagged.1));
        let events_processed = sim.counters().events_processed;
        let shards_used = or_one_per_core(cfg.threads).min(sim.num_shards()) as u32;
        let phase_profile = sim.phase_snapshots();
        let sched = sim.sched_totals();
        drop(sim);
        let (jitter_series, gaps) = iq_metrics::jitter_series(arrivals.iter());
        drop(arrivals);
        RunResult {
            label: if sc.mega_legs > 0 {
                "mega flows"
            } else if sc.incast_flows > 0 {
                "many-flow incast"
            } else {
                sc.scheme.label()
            },
            duration_s: duration,
            throughput_kbps: throughput,
            inter_arrival_s: gaps.mean(),
            jitter_s: gaps.stddev(),
            tagged_delay_ms,
            tagged_jitter_ms,
            msgs_offered: offered,
            msgs_delivered: delivered,
            delivered_pct: if offered > 0 {
                100.0 * delivered as f64 / offered as f64
            } else {
                0.0
            },
            jitter_series,
            finished,
            coordination,
            callbacks,
            sender_stats,
            events_processed,
            telemetry,
            shards_used,
            phase_profile,
            sched,
            obs,
            telemetry_evicted,
        }
    }
}

/// Runs one scenario to completion (or its deadline) and reports.
///
/// Every scenario is a [`ShardedSim`] world built once, run in
/// one-second slices on one persistent worker pool
/// ([`RunConfig::threads`] of them; any count gives identical bytes)
/// until every sink finished or the deadline elapses (cross traffic
/// would otherwise keep the queue busy forever), and harvested once. A
/// deadline of zero runs no slice — not even the time-0 `on_start`s.
pub fn run_scenario_with(sc: &Scenario, cfg: RunConfig) -> RunResult {
    let pool_before = iq_netsim::pool_stats();
    let mut world = World::build(sc, cfg);
    let deadline = time::secs(sc.deadline_s);
    if deadline > world.sim.now() {
        let (flows, classes) = (&world.flows, &world.classes);
        world.sim.run_slices(deadline, time::secs(1.0), |view| {
            flows.iter().enumerate().all(|(g, f)| {
                let rx = f.rx.id();
                if classes[g % classes.len()].tcp_sink() {
                    view.with_agent::<TcpSinkAgent, _>(rx, |s| s.is_finished())
                } else {
                    view.with_agent::<RudpSinkAgent, _>(rx, |s| s.is_finished())
                }
                .expect("a flow's sink is of its class's type")
            })
        });
    }
    world.harvest(sc, cfg, pool_before)
}

// The repo benchmark's entry point. `benchmark/` may be edited only by a
// `[benchmark]` issue, and such an issue may alter no product code, so
// the API it is to be re-pointed to ([`run_scenario_with`]) had to exist
// first; until it is, the harness keeps telling [`run_scenario`] how to
// run through these two process-wide values. Nothing else in the
// workspace writes or reads them (CI greps for a third static).
static SHARDS: AtomicUsize = AtomicUsize::new(1);
static TELEMETRY_CAPTURE: AtomicBool = AtomicBool::new(false);

/// Sets [`RunConfig::threads`] for later [`run_scenario`] calls
/// (default 1; 0 = one per available core).
pub fn set_shards(n: usize) {
    SHARDS.store(n, Ordering::Relaxed);
}

/// Sets [`RunConfig::telemetry`] for later [`run_scenario`] calls
/// (default off).
pub fn set_telemetry_capture(on: bool) {
    TELEMETRY_CAPTURE.store(on, Ordering::Relaxed);
}

/// [`run_scenario_with`] under the process-wide [`set_shards`] and
/// [`set_telemetry_capture`] values and the bus-default ring.
pub fn run_scenario(sc: &Scenario) -> RunResult {
    let cfg = RunConfig {
        threads: SHARDS.load(Ordering::Relaxed),
        telemetry: TELEMETRY_CAPTURE.load(Ordering::Relaxed),
        ..RunConfig::default()
    };
    run_scenario_with(sc, cfg)
}

/// Reports run-level metrics into `reg`: aggregated RUDP endpoint
/// counters and telemetry evictions on the sim plane (deterministic,
/// fingerprinted), payload-pool deltas on the engine plane (the pool is
/// thread-local, so the caller sums the run's threads, and the split
/// depends on which worker executed what).
/// Sorts the registry into canonical order.
fn collect_run_obs(
    reg: &mut Registry,
    tx: Option<&iq_rudp::SenderStats>,
    rx: Option<&iq_rudp::ReceiverStats>,
    pool: iq_netsim::PoolStats,
    telemetry_evicted: u64,
) {
    let tx = tx.into_iter().flat_map(iq_rudp::SenderStats::counters);
    let rx = rx.into_iter().flat_map(iq_rudp::ReceiverStats::counters);
    for (name, value) in tx.chain(rx) {
        reg.counter(Plane::Sim, name, &[], value);
    }
    reg.counter(
        Plane::Sim,
        "iq_telemetry_evicted_total",
        &[],
        telemetry_evicted,
    );
    reg.counter(Plane::Engine, "iq_pool_hits_total", &[], pool.hits);
    reg.counter(Plane::Engine, "iq_pool_misses_total", &[], pool.misses);
    reg.counter(Plane::Engine, "iq_pool_returns_total", &[], pool.returns);
    reg.counter(Plane::Engine, "iq_pool_drops_total", &[], pool.drops);
    reg.sort();
}

/// The paper's default application trace: MBone group dynamics at
/// 3000 bytes/member (§3.1).
pub fn app_frame_sizes(len: usize, seed: u64) -> Vec<u32> {
    let trace = MembershipTrace::generate(&MembershipConfig {
        seed,
        len,
        base: 3.0,
        burst_scale: 3.0,
        max: 10,
    });
    trace.frame_sizes(3000)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run under the default configuration.
    fn run(sc: &Scenario) -> RunResult {
        run_scenario_with(sc, RunConfig::default())
    }

    fn small_scenario(scheme: Scheme) -> Scenario {
        let mut sc = Scenario::new(scheme, PolicySpec::None, vec![1400; 150]);
        sc.cross.cbr_bps = Some(10e6);
        sc.deadline_s = 120.0;
        sc
    }

    #[test]
    fn rudp_scenario_completes_and_reports() {
        let r = run(&small_scenario(Scheme::RudpPlain));
        assert!(r.finished, "did not finish: {r:?}");
        assert_eq!(r.msgs_delivered, 150);
        assert!(r.throughput_kbps > 0.0);
        assert!(r.duration_s > 0.0);
    }

    #[test]
    fn tcp_scenario_completes_and_reports() {
        let r = run(&small_scenario(Scheme::Tcp));
        assert!(r.finished, "did not finish: {r:?}");
        assert!(r.msgs_delivered > 0);
        assert!(r.throughput_kbps > 0.0);
    }

    #[test]
    fn cc_disabled_scheme_uses_fixed_window() {
        let r = run(&small_scenario(Scheme::AppAdaptOnly));
        assert!(r.finished);
        assert_eq!(r.msgs_delivered, 150);
    }

    #[test]
    fn identical_seeds_reproduce_results() {
        let sc = small_scenario(Scheme::RudpPlain);
        let a = run(&sc);
        let b = run(&sc);
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.msgs_delivered, b.msgs_delivered);
        assert_eq!(a.jitter_s, b.jitter_s);
    }

    /// `harvest` reads the arrival shape of flow 0 and of nothing else,
    /// so that is the one recorder of a world that keeps one.
    #[test]
    fn only_the_reported_flow_records_arrival_shape() {
        let mut sc = Scenario::incast(6, 5, 1400);
        sc.cross.tcp_bulk = true;
        let world = World::build(&sc, RunConfig::default());
        for (g, flow) in world.flows.iter().enumerate() {
            let sink = world
                .sim
                .agent::<RudpSinkAgent>(flow.rx.id())
                .expect("fleet sink");
            assert_eq!(sink.metrics.records_shape(), g == 0, "flow {g}");
        }
        // The cross traffic is added first: its source, then its sink.
        let cross = ShardAgentId {
            shard: 0,
            agent: AgentId(1),
        };
        let sink = world
            .sim
            .agent::<TcpSinkAgent>(cross)
            .expect("cross.tcp_bulk sink");
        assert!(!sink.metrics.records_shape());

        // A TCP row's one flow is the reported one too.
        let world = World::build(&small_scenario(Scheme::Tcp), RunConfig::default());
        let sink = world
            .sim
            .agent::<TcpSinkAgent>(world.flows[0].rx.id())
            .expect("TCP sink");
        assert!(sink.metrics.records_shape());
    }

    #[test]
    fn vbr_spec_hits_target_rate() {
        let v = VbrSpec {
            fps: 500.0,
            mean_bps: 8e6,
            seed: 3,
        };
        let sizes = v.frame_sizes();
        let mean = sizes.iter().map(|&s| f64::from(s)).sum::<f64>() / sizes.len() as f64;
        let rate = mean * 8.0 * 500.0;
        assert!((rate - 8e6).abs() / 8e6 < 0.15, "rate = {rate}");
    }

    #[test]
    fn incast_runs_a_mixed_fleet_to_completion() {
        let mut sc = Scenario::incast(24, 40, 1400);
        sc.deadline_s = 60.0;
        let r = run(&sc);
        assert!(r.finished, "incast did not finish: {r:?}");
        assert_eq!(r.msgs_offered, 24 * 40);
        // Unmarked-discard flows lose some messages by design; most of
        // the fleet is reliable.
        assert!(r.msgs_delivered > 24 * 40 * 8 / 10, "{}", r.msgs_delivered);
        assert!(r.throughput_kbps > 0.0);
        let stats = r.sender_stats.expect("aggregated sender stats");
        assert!(stats.segments_acked > 0);
        assert!(
            r.coordination.is_some(),
            "adaptive flows report coordination"
        );
    }

    #[test]
    fn incast_is_deterministic_across_runs() {
        let sc = Scenario::incast(12, 30, 1400);
        let a = run(&sc);
        let b = run(&sc);
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.msgs_delivered, b.msgs_delivered);
        assert_eq!(a.jitter_s, b.jitter_s);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn mega_runs_a_sharded_fleet_to_completion() {
        let mut sc = Scenario::mega(2, 24, 3, 1400);
        sc.deadline_s = 60.0;
        let r = run(&sc);
        assert!(r.finished, "mega did not finish: {r:?}");
        assert_eq!(r.msgs_offered, 2 * 24 * 3);
        // Unmarked-discard flows lose some messages by design; most of
        // the fleet is reliable.
        assert!(
            r.msgs_delivered > 2 * 24 * 3 * 8 / 10,
            "{}",
            r.msgs_delivered
        );
        assert!(r.throughput_kbps > 0.0);
        let stats = r.sender_stats.expect("aggregated sender stats");
        assert!(stats.segments_acked > 0);
        assert!(
            r.coordination.is_some(),
            "adaptive flows report coordination"
        );
        assert_eq!(r.shards_used, 1, "default shard thread count");
    }

    /// The event queue's cursor stops at a shard's window: what the rest
    /// of the window pushes before the next pending bucket takes the
    /// ring, and `near_over` keeps only pushes into a resident bucket's
    /// span. One thread, so placement is deterministic.
    #[test]
    fn mega_pushes_rarely_take_the_near_overflow_heap() {
        let r = run(&Scenario::mega(2, 256, 4, 1400));
        assert!(r.finished, "mega did not finish");
        let total = |name| r.obs.counter_total(name);
        let inserts = total("iq_sched_near_inserts_total");
        let pushes = total("iq_sched_near_hits_total")
            + inserts
            + total("iq_sched_wheel_pushes_total")
            + total("iq_sched_far_spills_total");
        let share = inserts as f64 / pushes as f64;
        assert!(
            share < 0.20,
            "{inserts} of {pushes} pushes ({:.1} %) went to near_over: \
             the cursor ran past a window",
            100.0 * share
        );
    }

    #[test]
    fn every_kind_is_identical_for_any_shard_thread_count() {
        let mut mega = Scenario::mega(3, 17, 3, 1400);
        mega.deadline_s = 60.0;
        let kinds = [
            ("single", small_scenario(Scheme::Coordinated), 1),
            ("tcp", small_scenario(Scheme::Tcp), 1),
            ("incast", Scenario::incast(12, 30, 1400), 1),
            ("mega", mega, 6),
        ];
        for (kind, sc, shards) in &kinds {
            let runs: Vec<RunResult> = [1usize, 2, 4]
                .iter()
                .map(|&threads| {
                    let cfg = RunConfig {
                        threads,
                        telemetry: true,
                        ..RunConfig::default()
                    };
                    run_scenario_with(sc, cfg)
                })
                .collect();
            let a = &runs[0];
            assert!(a.finished, "{kind} did not finish");
            // The TCP row attaches no bus.
            assert_eq!(
                a.telemetry.is_empty(),
                *kind == "tcp",
                "{kind}: capture was on"
            );
            for (b, threads) in runs.iter().zip([1u32, 2, 4]) {
                assert_eq!(
                    crate::runner::result_fingerprint(a),
                    crate::runner::result_fingerprint(b),
                    "{kind} diverged at {threads} shard threads"
                );
                assert_eq!(a.telemetry, b.telemetry, "{kind}: telemetry JSONL diverged");
                assert_eq!(b.shards_used, threads.min(*shards), "{kind}");
                assert_eq!(b.phase_profile.len(), *shards as usize, "{kind}");
                if *kind == "mega" && threads > 1 {
                    // The payload pool is thread-local: each pool worker
                    // folds its counters into the world as it exits.
                    let hits = b.obs.counter_total("iq_pool_hits_total");
                    assert!(
                        hits > 0,
                        "mega: no pool hits folded in at {threads} shard threads"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_deadline_builds_every_kind_and_runs_no_slice() {
        let kinds = [
            small_scenario(Scheme::RudpPlain),
            small_scenario(Scheme::Tcp),
            Scenario::incast(12, 30, 1400),
            Scenario::mega(2, 12, 2, 1400),
        ];
        for mut sc in kinds {
            sc.deadline_s = 0.0;
            let r = run(&sc);
            assert_eq!(
                r.events_processed, 0,
                "{}: not even an on_start ran",
                r.label
            );
            assert!(!r.finished);
            assert_eq!(r.msgs_delivered, 0);
        }
    }

    #[test]
    #[should_panic(expected = "Scenario::incast_flows = 70000 over Scenario::dumbbell.pairs = 1")]
    fn fleet_port_past_u16_names_the_scenario_fields() {
        let mut sc = Scenario::incast(70_000, 1, 1400);
        sc.dumbbell.pairs = 1;
        sc.deadline_s = 0.0;
        run(&sc);
    }

    #[test]
    #[should_panic(expected = "host pair 2, but Scenario::dumbbell.pairs = 2")]
    fn cross_traffic_on_a_missing_host_pair_names_the_scenario_fields() {
        let mut sc = small_scenario(Scheme::RudpPlain);
        sc.dumbbell.pairs = 2;
        sc.cross.tcp_bulk = true;
        run(&sc);
    }

    #[test]
    fn runs_report_observability_registries() {
        let r = run(&small_scenario(Scheme::RudpPlain));
        assert!(!r.obs.is_empty());
        assert_eq!(
            r.obs.counter_total("iq_sim_events_total"),
            r.events_processed
        );
        assert!(r.obs.counter_total("iq_rudp_segments_sent_total") > 0);
        assert!(r.obs.counter_total("iq_rudp_msgs_delivered_total") > 0);
        let mut sorted = r.obs.clone();
        sorted.sort();
        let text = iq_obs::expo::render_prom(&sorted, None);
        // The samples a `--metrics` dump is read for: CI's pool-fold
        // check, the shard windows and stalls, the latency summary.
        for sample in [
            "\niq_pool_hits_total ",
            "\niq_shard_windows_total{shard=\"0\"} ",
            "\niq_shard_stalls_total{shard=\"0\"} ",
            "\niq_sim_events_total{shard=\"0\"} ",
            "\niq_sim_delivery_latency_ns{shard=\"0\",quantile=\"0.99\"} ",
            "\niq_sim_delivery_latency_ns_count{shard=\"0\"} ",
        ] {
            assert!(text.contains(sample), "no `{}` in:\n{text}", sample.trim());
        }
        // One leg on one shard: one profile, and the shard loop's
        // ingress/flush bookkeeping is small next to executing events.
        assert_eq!(r.phase_profile.len(), 1);
        assert!(r.phase_profile[0].total_nanos() > 0);
        assert!(r.phase_profile[0].percent(iq_obs::Phase::Execute) > 50.0);

        // TCP runs carry simulator metrics but no transport counters.
        let t = run(&small_scenario(Scheme::Tcp));
        assert!(t.obs.counter_total("iq_sim_events_total") > 0);
        assert_eq!(t.obs.counter_total("iq_rudp_segments_sent_total"), 0);
    }

    #[test]
    fn app_frame_sizes_are_multiples_of_3000() {
        let sizes = app_frame_sizes(100, 1);
        assert_eq!(sizes.len(), 100);
        assert!(sizes.iter().all(|&s| s % 3000 == 0 && s >= 3000));
    }
}
