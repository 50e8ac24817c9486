//! The simulator: topology construction, event loop, and dispatch.
//!
//! ## Hot-path layout
//!
//! The event loop is built around three structures chosen for per-event
//! cost (see `DESIGN.md` § "Scheduler internals"):
//!
//! * an [`EventQueue`] (bucket ring + overflow heap) instead of one big
//!   binary heap;
//! * a `PacketSlab` that owns every in-flight packet, so events and
//!   link queues move 4-byte keys, not ~100-byte packets;
//! * a `TimerSlab` with generation-checked slots, so cancellation is
//!   O(1) and leaves no residue (the old `cancelled_timers: HashSet`
//!   grew forever);
//! * per-node port tables: the destination agent is resolved once
//!   at send time and carried with the packet, instead of a
//!   `HashMap<Addr, AgentId>` probe on every hop.

use std::sync::Arc;

use iq_telemetry::{PacketKind, TelemetryEvent, TelemetrySink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::agent::{Agent, Ctx, TimerId};
use crate::event::{Event, EventKind};
use crate::link::{Enqueue, LinkSpec, LinkState, LinkStats};
use crate::packet::{Addr, AgentId, FlowId, LinkId, NodeId, Packet, Payload};
use crate::routing::RoutingTable;
use crate::sched::EventQueue;
use crate::shard::{boundary_seq, WireMsg};
use crate::slab::{PacketKey, PacketSlab, TimerKey, TimerSlab};
use crate::time::{Time, TimeDelta};

/// Simulation-wide counters, mostly for tests and sanity checks.
///
/// These are *sim-plane* counters: they are functions of the logical
/// event execution only, so they must come out byte-identical across
/// `-j` worker counts and `--shards N` (per shard, the executed event
/// set is fixed by the partition). They feed the counter fingerprint.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounters {
    /// Packets injected by agents.
    pub packets_sent: u64,
    /// Packets handed to a destination agent.
    pub packets_delivered: u64,
    /// Packets that arrived at a node with no agent on the destination port.
    pub packets_unroutable: u64,
    /// Total events executed.
    pub events_processed: u64,
    /// Timer events that fired (cancelled ones excluded).
    pub timers_fired: u64,
    /// Timers cancelled by agents before firing.
    pub timers_cancelled: u64,
}

/// Everything the simulator owns except the agent table. Split out so a
/// [`Ctx`] can borrow the world mutably while one agent is being invoked.
pub struct SimCore {
    pub(crate) now: Time,
    queue: EventQueue,
    next_seq: u64,
    next_packet_id: u64,
    timers: TimerSlab,
    packets: PacketSlab,
    /// State of the links this simulator transmits on, in the order they
    /// were added. A serial simulation owns every link; a shard of a
    /// [`ShardedSim`](crate::shard::ShardedSim) owns those whose sending
    /// node it hosts and holds one `link_slot` entry for each of the
    /// rest, nothing more.
    links: Vec<LinkState>,
    /// Link id → index into `links`; [`NOT_OWNED`] for a link another
    /// shard transmits on.
    link_slot: Vec<u32>,
    /// `(from, to)` of every link of the topology, by link id: what
    /// route computation reads, and where an arrival learns which node
    /// it reached. Behind an `Arc` because the shards of a `ShardedSim`
    /// all see one topology and share one table.
    endpoints: Arc<Vec<(NodeId, NodeId)>>,
    num_nodes: u32,
    /// Next-hop table for the whole topology, shared between the shards
    /// of a world like `endpoints`.
    routes: Arc<RoutingTable>,
    routes_dirty: bool,
    /// Port tables of the nodes that host an agent here, each sorted by
    /// port for binary search, in the order the nodes got their first
    /// agent.
    ports: Vec<Vec<(u16, AgentId)>>,
    /// Node id → index into `ports`, [`NO_PORTS`] for a node with no
    /// agent on this simulator — in a shard of a
    /// [`ShardedSim`](crate::shard::ShardedSim), most nodes of the world.
    /// Grown to the highest node that has an agent.
    port_slot: Vec<u32>,
    pub(crate) rng: SmallRng,
    /// Running counters.
    pub counters: SimCounters,
    /// Where packet outcomes and queue depths go — the network's ground
    /// truth, folded per flow by the bus's reader (disabled: nowhere).
    pub(crate) telemetry: TelemetrySink,
    /// One outbox per egress link, in [`Simulator::mark_egress`] order:
    /// the boundary arrivals produced since the shard engine last took
    /// them. Per link so a window's output is handed to each boundary
    /// mailbox as it stands, without re-sorting by destination.
    outboxes: Vec<Vec<WireMsg>>,
    /// Sim-plane delivery-latency histogram (send to agent hand-off,
    /// in sim nanoseconds). Deterministic: recorded per executed
    /// Deliver event from sim timestamps only.
    pub(crate) delivery_latency: iq_obs::Hist,
    /// Wall-clock phase profiler for this simulator's slice of the run
    /// (engine plane; driven by the shard worker loop, or wrapped
    /// around the serial run loop).
    pub(crate) profiler: iq_obs::PhaseProfiler,
    /// Engine-plane counters maintained by the shard worker loop (all
    /// zero in serial runs).
    pub(crate) shard_stats: crate::shard::ShardStats,
}

/// `link_slot` entry of a link this simulator does not transmit on.
const NOT_OWNED: u32 = u32::MAX;

/// `port_slot` entry of a node with no agent on this simulator.
const NO_PORTS: u32 = u32::MAX;

impl SimCore {
    fn schedule(&mut self, at: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Event { at, seq, kind });
    }

    /// Agent registered at `addr`, via its node's port table.
    fn resolve_port(&self, addr: Addr) -> Option<AgentId> {
        let &slot = self.port_slot.get(addr.node.0 as usize)?;
        // `NO_PORTS` is past the end of any table of tables.
        let table = self.ports.get(slot as usize)?;
        table
            .binary_search_by_key(&addr.port, |&(p, _)| p)
            .ok()
            .map(|i| table[i].1)
    }

    pub(crate) fn set_timer(&mut self, agent: AgentId, delay: TimeDelta, token: u64) -> TimerId {
        let key = self.timers.insert(agent, token);
        self.schedule(self.now.saturating_add(delay), EventKind::Timer { key });
        TimerId(key.0)
    }

    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        self.counters.timers_cancelled += 1;
        self.timers.cancel(TimerKey(id.0));
    }

    /// Puts one packet outcome on the bus; `link` is where a drop or loss
    /// happened.
    #[inline]
    fn emit_packet(
        &self,
        packet_id: u64,
        flow: FlowId,
        size: u32,
        kind: PacketKind,
        link: Option<LinkId>,
    ) {
        self.telemetry
            .emit_with(self.now, u64::from(flow.0), || TelemetryEvent::Packet {
                packet_id,
                size,
                kind,
                link: link.map_or(-1, |l| i64::from(l.0)),
            });
    }

    /// Injects a packet from `src` toward `dst`, routing it over the
    /// topology (or looping back locally when both are on the same node).
    pub(crate) fn send_from(
        &mut self,
        src: Addr,
        dst: Addr,
        size: u32,
        flow: FlowId,
        payload: Payload,
    ) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        self.counters.packets_sent += 1;
        self.emit_packet(id, flow, size, PacketKind::Sent, None);
        // Resolve the destination agent once, here; every hop after this
        // is pure index arithmetic.
        let dst_agent = self.resolve_port(dst);
        let key = self.packets.insert(
            Packet {
                id,
                src,
                dst,
                size,
                flow,
                sent_at: self.now,
                payload,
            },
            dst_agent,
        );
        self.route_packet(src.node, key);
        id
    }

    /// Routes the packet behind `key`, sitting at `node`: local delivery
    /// or next-hop enqueue. Consumes the key on drop/loss paths.
    fn route_packet(&mut self, node: NodeId, key: PacketKey) {
        let (dst, id, flow, size) = {
            let pkt = self.packets.get(key);
            (pkt.dst, pkt.id, pkt.flow, pkt.size)
        };
        if dst.node == node {
            // Send-time resolution, with a lookup fallback so an agent
            // registered while the packet was in flight still receives it
            // (matching the old resolve-at-arrival semantics).
            match self
                .packets
                .dst_agent(key)
                .or_else(|| self.resolve_port(dst))
            {
                Some(agent) => {
                    self.emit_packet(id, flow, size, PacketKind::Delivered, None);
                    self.schedule(self.now, EventKind::Deliver { agent, packet: key })
                }
                None => {
                    self.counters.packets_unroutable += 1;
                    self.packets.take(key);
                }
            }
            return;
        }
        match self.routes.next_hop(node, dst.node) {
            Some(link_id) => {
                // The next hop out of a node this simulator hosts is a
                // link it transmits on, so the slot is never `NOT_OWNED`.
                let link = &mut self.links[self.link_slot[link_id.0 as usize] as usize];
                let outcome = link.enqueue(key, size, &mut self.rng);
                if self.telemetry.is_enabled() {
                    // Fast exit: with the bus detached this block (and its
                    // queue-depth math) costs one branch.
                    let (queued_bytes, queue_len) = (link.queued_bytes(), link.queue_len());
                    self.telemetry.emit_with(self.now, u64::from(flow.0), || {
                        TelemetryEvent::QueueDepth {
                            link: u64::from(link_id.0),
                            queued_bytes: u64::from(queued_bytes),
                            queue_len: queue_len as u64,
                            dropped: matches!(outcome, Enqueue::Dropped),
                        }
                    });
                }
                match outcome {
                    Enqueue::StartTx => self.start_next_tx(link_id),
                    Enqueue::Queued => {}
                    Enqueue::Dropped => {
                        self.emit_packet(id, flow, size, PacketKind::DroppedQueue, Some(link_id));
                        self.packets.take(key);
                    }
                }
            }
            None => {
                self.counters.packets_unroutable += 1;
                self.packets.take(key);
            }
        }
    }

    /// Pops the head of `link`'s queue and schedules its serialization
    /// and far-end arrival, applying the link's loss/jitter model.
    fn start_next_tx(&mut self, link_id: LinkId) {
        let link = &mut self.links[self.link_slot[link_id.0 as usize] as usize];
        let Some(q) = link.begin_tx() else {
            return; // transmitter went idle
        };
        let tx_done = self.now.saturating_add(link.tx_time_cached(q.size));
        let mut arrival = link.arrival_time(tx_done);
        let lost = link.spec.random_loss > 0.0 && self.rng.gen::<f64>() < link.spec.random_loss;
        if link.spec.jitter > 0 {
            arrival = arrival.saturating_add(self.rng.gen_range(0..=link.spec.jitter));
        }
        if lost {
            link.stats.random_losses += 1;
            let pkt = self.packets.take(q.key);
            self.emit_packet(
                pkt.id,
                pkt.flow,
                pkt.size,
                PacketKind::LostRandom,
                Some(link_id),
            );
        } else if let Some(outbox) = link.egress {
            // The far end lives on another shard: the arrival leaves via
            // the link's outbox with a content-derived sequence number
            // instead of the local queue (see `crate::shard`).
            let counter = link.egress_seq;
            link.egress_seq = counter + 1;
            let pkt = self.packets.take(q.key);
            self.outboxes[outbox as usize].push(WireMsg {
                link: link_id,
                at: arrival,
                seq: boundary_seq(link_id, counter),
                pkt,
            });
        } else {
            self.schedule(
                arrival,
                EventKind::LinkArrival {
                    link: link_id,
                    packet: q.key,
                },
            );
        }
        self.schedule(tx_done, EventKind::LinkTxDone { link: link_id });
    }
}

/// A discrete-event network simulation: topology + agents + event loop.
pub struct Simulator {
    core: SimCore,
    /// Agent table; entries are `None` only while the agent is being
    /// invoked (its `Box` is temporarily moved out to satisfy borrowck).
    agents: Vec<Option<Box<dyn Agent>>>,
    agent_addrs: Vec<Addr>,
}

impl Simulator {
    /// Creates an empty simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            core: SimCore {
                now: 0,
                queue: EventQueue::new(),
                next_seq: 0,
                next_packet_id: 0,
                timers: TimerSlab::default(),
                packets: PacketSlab::default(),
                links: Vec::new(),
                link_slot: Vec::new(),
                endpoints: Arc::default(),
                num_nodes: 0,
                routes: Arc::default(),
                routes_dirty: false,
                ports: Vec::new(),
                port_slot: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
                counters: SimCounters::default(),
                telemetry: TelemetrySink::disabled(),
                outboxes: Vec::new(),
                delivery_latency: iq_obs::Hist::new(),
                profiler: iq_obs::PhaseProfiler::new(),
                shard_stats: crate::shard::ShardStats::default(),
            },
            agents: Vec::new(),
            agent_addrs: Vec::new(),
        }
    }

    /// Adds a node (host or router) and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.core.num_nodes);
        self.core.num_nodes += 1;
        self.core.routes_dirty = true;
        id
    }

    /// Adds a unidirectional link.
    ///
    /// # Panics
    /// Panics if either endpoint was not created with [`Self::add_node`];
    /// a dangling endpoint would otherwise surface later as an opaque
    /// index error inside route computation.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.core.link_slot.len() as u32);
        for end in [from, to] {
            assert!(
                end.0 < self.core.num_nodes,
                "link L{} references unknown node {end} (only {} nodes exist; \
                 create nodes with add_node first)",
                id.0,
                self.core.num_nodes
            );
        }
        Arc::make_mut(&mut self.core.endpoints).push((from, to));
        self.mirror_link(Some(spec))
    }

    /// Adds a pair of unidirectional links with identical characteristics.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, spec.clone());
        let ba = self.add_link(b, a, spec);
        (ab, ba)
    }

    /// Registers an agent at `(node, port)` and schedules its start.
    ///
    /// # Panics
    /// Panics if `node` does not exist or the address is already taken.
    pub fn add_agent(&mut self, node: NodeId, port: u16, agent: Box<dyn Agent>) -> AgentId {
        let addr = Addr::new(node, port);
        assert!(
            node.0 < self.core.num_nodes,
            "agent registered at {addr}, but node {node} does not exist \
             (only {} nodes; create it with add_node first)",
            self.core.num_nodes
        );
        let id = AgentId(self.agents.len() as u32);
        let slots = &mut self.core.port_slot;
        if slots.len() <= node.0 as usize {
            slots.resize(node.0 as usize + 1, NO_PORTS);
        }
        let slot = &mut slots[node.0 as usize];
        if *slot == NO_PORTS {
            *slot = self.core.ports.len() as u32;
            self.core.ports.push(Vec::new());
        }
        let table = &mut self.core.ports[*slot as usize];
        match table.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(_) => panic!("address {addr} already has an agent"),
            Err(pos) => table.insert(pos, (port, id)),
        }
        self.agents.push(Some(agent));
        self.agent_addrs.push(addr);
        self.core
            .schedule(self.core.now, EventKind::Start { agent: id });
        id
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// Simulation-wide counters.
    pub fn counters(&self) -> SimCounters {
        self.core.counters
    }

    /// Wall-clock phase breakdown accumulated so far (engine plane).
    pub fn phase_snapshot(&self) -> iq_obs::PhaseSnapshot {
        self.core.profiler.snapshot()
    }

    /// Sim-plane delivery-latency histogram.
    pub fn delivery_latency(&self) -> &iq_obs::Hist {
        &self.core.delivery_latency
    }

    /// Mutable profiler handle for the driving loop (shard worker or a
    /// serial wrapper).
    pub fn profiler(&mut self) -> &mut iq_obs::PhaseProfiler {
        &mut self.core.profiler
    }

    /// Mutable shard-loop counters (maintained by `crate::shard`).
    pub(crate) fn shard_stats_mut(&mut self) -> &mut crate::shard::ShardStats {
        &mut self.core.shard_stats
    }

    /// Shard-loop counter snapshot (engine plane).
    pub(crate) fn shard_stats(&self) -> crate::shard::ShardStats {
        self.core.shard_stats
    }

    /// Reports this simulator's metrics into `reg`, labelled with
    /// `shard`. Sim-plane counters and the delivery-latency histogram
    /// are deterministic; scheduler placement stats, occupancy gauges,
    /// and shard-loop counters go on the engine plane.
    pub fn collect_obs(&self, reg: &mut iq_obs::Registry, shard: &str) {
        use iq_obs::Plane;
        let c = self.core.counters;
        let l = [("shard", shard)];
        reg.counter(Plane::Sim, "iq_sim_events_total", &l, c.events_processed);
        reg.counter(Plane::Sim, "iq_sim_packets_sent_total", &l, c.packets_sent);
        reg.counter(
            Plane::Sim,
            "iq_sim_packets_delivered_total",
            &l,
            c.packets_delivered,
        );
        reg.counter(
            Plane::Sim,
            "iq_sim_packets_unroutable_total",
            &l,
            c.packets_unroutable,
        );
        reg.counter(Plane::Sim, "iq_sim_timers_fired_total", &l, c.timers_fired);
        reg.counter(
            Plane::Sim,
            "iq_sim_timers_cancelled_total",
            &l,
            c.timers_cancelled,
        );
        reg.hist(
            Plane::Sim,
            "iq_sim_delivery_latency_ns",
            &l,
            &self.core.delivery_latency,
        );

        let s = self.core.queue.stats();
        reg.counter(Plane::Engine, "iq_sched_near_hits_total", &l, s.near_hits);
        reg.counter(
            Plane::Engine,
            "iq_sched_near_inserts_total",
            &l,
            s.near_inserts,
        );
        reg.counter(
            Plane::Engine,
            "iq_sched_wheel_pushes_total",
            &l,
            s.wheel_pushes,
        );
        reg.counter(Plane::Engine, "iq_sched_far_spills_total", &l, s.far_spills);
        reg.counter(
            Plane::Engine,
            "iq_sched_bucket_drains_total",
            &l,
            s.bucket_drains,
        );
        let (ring, far, near) = self.core.queue.occupancy();
        reg.gauge(Plane::Engine, "iq_sched_wheel_events", &l, ring as f64);
        reg.gauge(Plane::Engine, "iq_sched_far_events", &l, far as f64);
        reg.gauge(Plane::Engine, "iq_sched_near_events", &l, near as f64);

        let sh = self.core.shard_stats;
        reg.counter(Plane::Engine, "iq_shard_windows_total", &l, sh.windows);
        reg.counter(Plane::Engine, "iq_shard_stalls_total", &l, sh.stalls);
        reg.counter(
            Plane::Engine,
            "iq_shard_ingress_msgs_total",
            &l,
            sh.ingress_msgs,
        );
        reg.counter(Plane::Engine, "iq_shard_steals_total", &l, sh.steals);
        reg.counter(Plane::Engine, "iq_shard_parks_total", &l, sh.parks);
        reg.counter(Plane::Engine, "iq_shard_wakes_total", &l, sh.wakes);
        let phases = self.core.profiler.snapshot();
        for (i, name) in iq_obs::profile::PHASE_NAMES.iter().enumerate() {
            reg.gauge(
                Plane::Engine,
                "iq_shard_phase_seconds",
                &[("shard", shard), ("phase", name)],
                phases.nanos[i] as f64 / 1e9,
            );
        }
    }

    /// Stats for one link. A shard of a
    /// [`ShardedSim`](crate::shard::ShardedSim) answers with all zeroes
    /// for a link another shard transmits on: queueing, serialization
    /// and loss all happen on the sending side.
    ///
    /// # Panics
    /// Panics (naming the link) if `id` was not returned by
    /// [`Self::add_link`] on this simulator.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        match self.core.link_slot.get(id.0 as usize) {
            Some(&NOT_OWNED) => LinkStats::default(),
            Some(&slot) => self.core.links[slot as usize].stats,
            None => panic!(
                "no such link L{} (only {} links exist)",
                id.0,
                self.core.link_slot.len()
            ),
        }
    }

    /// Attaches a telemetry sink: packet outcomes and queue depth
    /// snapshots go onto the bus from here on, and a flow's `packet`
    /// records are its ground truth
    /// ([`iq_telemetry::TelemetryBus::flow_records`]). A disabled sink
    /// detaches.
    pub fn attach_telemetry(&mut self, sink: TelemetrySink) {
        self.core.telemetry = sink;
    }

    /// Immutable access to a concrete agent type (post-run inspection).
    ///
    /// Returns `None` when the agent is not of type `T`. Panics (naming
    /// the id) when `id` was never returned by [`Self::add_agent`], which
    /// indicates a handle from a different simulator instance.
    pub fn agent<T: Agent>(&self, id: AgentId) -> Option<&T> {
        let slot = self.agents.get(id.0 as usize).unwrap_or_else(|| {
            panic!(
                "no such agent A{} (only {} agents registered)",
                id.0,
                self.agents.len()
            )
        });
        let boxed = slot.as_ref()?;
        (boxed.as_ref() as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Mutable access to a concrete agent type.
    ///
    /// Same lookup contract as [`Self::agent`].
    pub fn agent_mut<T: Agent>(&mut self, id: AgentId) -> Option<&mut T> {
        let len = self.agents.len();
        let slot = self
            .agents
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("no such agent A{} (only {len} agents registered)", id.0));
        let boxed = slot.as_mut()?;
        (boxed.as_mut() as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    fn ensure_routes(&mut self) {
        if self.core.routes_dirty {
            self.core.routes = Arc::new(RoutingTable::compute(
                self.core.num_nodes as usize,
                &self.core.endpoints,
            ));
            self.core.routes_dirty = false;
        }
    }

    fn dispatch(&mut self, agent: AgentId, f: impl FnOnce(&mut dyn Agent, &mut Ctx<'_>)) {
        // Split borrow: the agent box and `self.core` are disjoint
        // fields, and a handler only sees `Ctx` (built from `core`), so
        // it can never reach its own slot. A `None` slot means the agent
        // was removed.
        let Some(boxed) = &mut self.agents[agent.0 as usize] else {
            return;
        };
        let mut ctx = Ctx {
            core: &mut self.core,
            addr: self.agent_addrs[agent.0 as usize],
            agent,
        };
        f(boxed.as_mut(), &mut ctx);
    }

    /// Executes a single event. Returns `false` when the queue is empty.
    fn step(&mut self) -> bool {
        match self.core.queue.pop() {
            Some(ev) => {
                self.exec_event(ev);
                true
            }
            None => false,
        }
    }

    /// Advances the clock to `ev.at` and runs its handler.
    fn exec_event(&mut self, ev: Event) {
        debug_assert!(ev.at >= self.core.now, "time went backwards");
        self.core.now = ev.at;
        self.core.counters.events_processed += 1;
        match ev.kind {
            EventKind::Start { agent } => {
                self.dispatch(agent, |a, ctx| a.on_start(ctx));
            }
            EventKind::Deliver { agent, packet } => {
                self.core.counters.packets_delivered += 1;
                let pkt = self.core.packets.take(packet);
                self.core
                    .delivery_latency
                    .record(self.core.now.saturating_sub(pkt.sent_at));
                self.dispatch(agent, |a, ctx| a.on_packet(ctx, pkt));
            }
            EventKind::Timer { key } => {
                // Ghost events from cancelled timers resolve to None.
                if let Some((agent, token)) = self.core.timers.fire(key) {
                    self.core.counters.timers_fired += 1;
                    self.dispatch(agent, |a, ctx| a.on_timer(ctx, token));
                }
            }
            EventKind::LinkTxDone { link } => {
                self.core.start_next_tx(link);
            }
            EventKind::LinkArrival { link, packet } => {
                let (_, node) = self.core.endpoints[link.0 as usize];
                self.core.route_packet(node, packet);
            }
        }
    }

    /// Runs until the event queue drains or `deadline` passes. Returns
    /// the time the loop stopped at.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        self.ensure_routes();
        while let Some(ev) = self.core.queue.pop_before(deadline) {
            self.exec_event(ev);
        }
        // All remaining events lie beyond the deadline, so the clock can
        // jump straight to it.
        self.core.now = self.core.now.max(deadline);
        self.core.now
    }

    /// Runs for an additional `delta` of simulated time.
    pub fn run_for(&mut self, delta: TimeDelta) -> Time {
        let deadline = self.core.now.saturating_add(delta);
        self.run_until(deadline)
    }

    /// Runs until the event queue is exhausted (useful for closed
    /// workloads that terminate).
    pub fn run_to_completion(&mut self) -> Time {
        self.ensure_routes();
        while self.step() {}
        self.core.now
    }

    // ---- shard-engine hooks (see `crate::shard`) -----------------------

    /// [`Self::add_link`] as the shard engine calls it, on every shard
    /// for every link of the world: the link takes the next id here too,
    /// and this simulator holds state for it only when given its `spec`,
    /// which makes it the one that transmits on it. The endpoints are
    /// the caller's to keep (see [`Self::share_endpoints`]).
    pub(crate) fn mirror_link(&mut self, spec: Option<LinkSpec>) -> LinkId {
        let id = LinkId(self.core.link_slot.len() as u32);
        self.core.link_slot.push(match spec {
            Some(spec) => {
                self.core.links.push(LinkState::new(spec));
                (self.core.links.len() - 1) as u32
            }
            None => NOT_OWNED,
        });
        self.core.routes_dirty = true;
        id
    }

    /// Adopts `endpoints`, the `(from, to)` of every link mirrored into
    /// this simulator so far, as current (see `ShardedSim::run_slices`).
    /// The topology is complete for the run about to start, so the slack
    /// that growing by doubling left in this shard's own link tables goes
    /// back too (nothing to do on later calls).
    pub(crate) fn share_endpoints(&mut self, endpoints: &Arc<Vec<(NodeId, NodeId)>>) {
        debug_assert_eq!(endpoints.len(), self.core.link_slot.len());
        self.core.endpoints = Arc::clone(endpoints);
        self.core.links.shrink_to_fit();
        self.core.link_slot.shrink_to_fit();
    }

    /// Marks `link`, which this simulator transmits on, as crossing out
    /// of this shard: its arrivals go to an outbox of its own instead of
    /// the local event queue. Returns the outbox's index for
    /// [`Self::outbox_mut`] (0, 1, … in call order).
    pub(crate) fn mark_egress(&mut self, link: LinkId) -> usize {
        let outbox = self.core.outboxes.len();
        let slot = self.core.link_slot[link.0 as usize];
        self.core.links[slot as usize].egress = Some(outbox as u32);
        self.core.outboxes.push(Vec::new());
        outbox
    }

    /// This simulator's route table, recomputed first if the topology
    /// changed since the last computation.
    pub(crate) fn current_routes(&mut self) -> &Arc<RoutingTable> {
        self.ensure_routes();
        &self.core.routes
    }

    /// Adopts `routes`, computed by a simulator holding the same
    /// topology, as current (see `ShardedSim::run_slices`).
    pub(crate) fn share_routes(&mut self, routes: &Arc<RoutingTable>) {
        self.core.routes = Arc::clone(routes);
        self.core.routes_dirty = false;
    }

    /// The route table as last computed or adopted.
    #[cfg(test)]
    pub(crate) fn routes(&self) -> &Arc<RoutingTable> {
        &self.core.routes
    }

    /// The endpoints table as last built or adopted.
    #[cfg(test)]
    pub(crate) fn endpoints(&self) -> &Arc<Vec<(NodeId, NodeId)>> {
        &self.core.endpoints
    }

    /// Ids of the links this simulator holds state for, ascending.
    #[cfg(test)]
    pub(crate) fn owned_links(&self) -> Vec<LinkId> {
        let ids = (0u32..).zip(&self.core.link_slot);
        let owned: Vec<LinkId> = ids
            .filter(|&(_, &slot)| slot != NOT_OWNED)
            .map(|(id, _)| LinkId(id))
            .collect();
        assert_eq!(
            owned.len(),
            self.core.links.len(),
            "a slot without a state or the reverse"
        );
        owned
    }

    /// Offsets this shard's packet-id space so ids stay globally unique
    /// across shards (ids surface in telemetry).
    pub(crate) fn set_packet_id_base(&mut self, base: u64) {
        debug_assert_eq!(self.core.next_packet_id, 0);
        self.core.next_packet_id = base;
    }

    /// Accepts a boundary arrival from another shard: the packet enters
    /// this shard's slab and its `LinkArrival` is queued under the
    /// message's content-derived sequence number (never touching
    /// `next_seq`, so local sequencing stays independent of drain
    /// timing).
    pub(crate) fn inject_arrival(&mut self, msg: WireMsg) {
        let dst_agent = self.core.resolve_port(msg.pkt.dst);
        let key = self.core.packets.insert(msg.pkt, dst_agent);
        self.core.queue.push(Event {
            at: msg.at,
            seq: msg.seq,
            kind: EventKind::LinkArrival {
                link: msg.link,
                packet: key,
            },
        });
    }

    /// Executes every pending event with timestamp strictly below
    /// `limit_excl` (one conservative-lookahead window).
    pub(crate) fn run_window(&mut self, limit_excl: Time) {
        self.ensure_routes();
        if let Some(last) = limit_excl.checked_sub(1) {
            while let Some(ev) = self.core.queue.pop_before(last) {
                self.exec_event(ev);
            }
            // As after a serial `run_until`: the clock stands at the end
            // of what has run, not at this shard's last event, so an
            // agent added between two runs starts when the world has got
            // to and not in some shard's past.
            self.core.now = self.core.now.max(last);
        }
    }

    /// The boundary arrivals egress link `outbox` (a
    /// [`Self::mark_egress`] index) produced since the caller last
    /// emptied this buffer.
    pub(crate) fn outbox_mut(&mut self, outbox: usize) -> &mut Vec<WireMsg> {
        &mut self.core.outboxes[outbox]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::packet::payload;
    use crate::time::{millis, MILLISECOND};

    /// Sends `count` packets to a destination at start, one per ms.
    struct Blaster {
        dst: Addr,
        count: u32,
        size: u32,
        sent: u32,
    }
    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(0, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent < self.count {
                ctx.send(self.dst, self.size, FlowId(1), payload(self.sent));
                self.sent += 1;
                ctx.set_timer(MILLISECOND, 0);
            }
        }
    }

    /// Records arrival times and payload order.
    #[derive(Default)]
    struct Recorder {
        arrivals: Vec<(Time, u32)>,
    }
    impl Agent for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            let v = *pkt.payload_as::<u32>().unwrap();
            self.arrivals.push((ctx.now(), v));
        }
    }

    fn two_node_sim(spec: LinkSpec) -> (Simulator, AgentId, AgentId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, spec);
        let tx = sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                dst: Addr::new(b, 2),
                count: 10,
                size: 1000,
                sent: 0,
            }),
        );
        let rx = sim.add_agent(b, 2, Box::new(Recorder::default()));
        (sim, tx, rx)
    }

    #[test]
    fn packets_arrive_in_order_with_correct_latency() {
        // 8 Mb/s, 5 ms delay: 1000 B takes 1 ms to serialize, arrives 6 ms
        // after send.
        let (mut sim, _tx, rx) = two_node_sim(LinkSpec::new(8e6, millis(5), 100_000));
        sim.run_until(millis(100));
        let rec = sim.agent::<Recorder>(rx).unwrap();
        assert_eq!(rec.arrivals.len(), 10);
        assert_eq!(rec.arrivals[0].0, millis(6));
        // Sent 1 ms apart, serialization is exactly 1 ms: no queueing.
        assert_eq!(rec.arrivals[1].0, millis(7));
        let order: Vec<u32> = rec.arrivals.iter().map(|&(_, v)| v).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn queueing_delay_accumulates_when_oversubscribed() {
        // 4 Mb/s: 1000 B takes 2 ms to serialize but packets arrive every
        // 1 ms, so queueing builds up linearly.
        let (mut sim, _tx, rx) = two_node_sim(LinkSpec::new(4e6, millis(5), 100_000));
        sim.run_until(millis(200));
        let rec = sim.agent::<Recorder>(rx).unwrap();
        assert_eq!(rec.arrivals.len(), 10);
        // Packet i departs the sender at i ms, but serialization slots are
        // back-to-back every 2 ms: arrival_i = (i+1)*2 + 5.
        for (i, &(t, _)) in rec.arrivals.iter().enumerate() {
            assert_eq!(t, millis((i as u64 + 1) * 2 + 5));
        }
    }

    #[test]
    fn drop_tail_loses_excess_packets() {
        // Queue fits only 2 packets; 10 arrive nearly back-to-back.
        let (mut sim, _tx, rx) = two_node_sim(LinkSpec::new(1e6, millis(5), 2000));
        sim.run_until(millis(500));
        let rec = sim.agent::<Recorder>(rx).unwrap();
        assert!(rec.arrivals.len() < 10, "expected drops");
        let stats = sim.link_stats(LinkId(0));
        assert_eq!(
            stats.dropped_packets + rec.arrivals.len() as u64,
            10,
            "dropped + delivered = sent"
        );
    }

    #[test]
    fn random_loss_drops_roughly_the_configured_fraction() {
        let mut sim = Simulator::new(42);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(
            a,
            b,
            LinkSpec::new(100e6, millis(1), 1_000_000).with_random_loss(0.3),
        );
        let _tx = sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                dst: Addr::new(b, 2),
                count: 1000,
                size: 100,
                sent: 0,
            }),
        );
        let rx = sim.add_agent(b, 2, Box::new(Recorder::default()));
        sim.run_until(crate::time::secs(5.0));
        let got = sim.agent::<Recorder>(rx).unwrap().arrivals.len();
        assert!((600..=800).contains(&got), "got {got}, expected ~700");
    }

    #[test]
    fn local_delivery_loops_back_without_links() {
        struct SelfSender;
        impl Agent for SelfSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.addr();
                ctx.send(Addr::new(me.node, 99), 10, FlowId::ANON, payload(7u32));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        }
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        sim.add_agent(n, 1, Box::new(SelfSender));
        let rx = sim.add_agent(n, 99, Box::new(Recorder::default()));
        sim.run_until(millis(1));
        assert_eq!(sim.agent::<Recorder>(rx).unwrap().arrivals.len(), 1);
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        struct Canceller {
            fired: u32,
        }
        impl Agent for Canceller {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let t = ctx.set_timer(millis(10), 1);
                ctx.set_timer(millis(20), 2);
                ctx.cancel_timer(t);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                assert_eq!(token, 2, "cancelled timer fired");
                self.fired += 1;
            }
        }
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        let a = sim.add_agent(n, 1, Box::new(Canceller { fired: 0 }));
        sim.run_until(millis(100));
        assert_eq!(sim.agent::<Canceller>(a).unwrap().fired, 1);
    }

    #[test]
    fn timer_state_stays_bounded_across_set_cancel_fire_cycles() {
        // Regression test for the old `cancelled_timers: HashSet<u64>`
        // leak: ids of cancelled (or never-firing) timers accumulated
        // forever. The slab recycles slots, so memory tracks *concurrent*
        // timers, not total ever armed.
        struct Churner {
            cycles: u32,
            pending: Option<TimerId>,
        }
        impl Agent for Churner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(MILLISECOND, 0);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                if token == 0 && self.cycles > 0 {
                    self.cycles -= 1;
                    // One timer that fires, one that is always cancelled.
                    if let Some(t) = self.pending.take() {
                        ctx.cancel_timer(t);
                    }
                    self.pending = Some(ctx.set_timer(millis(500), 1));
                    ctx.set_timer(MILLISECOND, 0);
                }
            }
        }
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        sim.add_agent(
            n,
            1,
            Box::new(Churner {
                cycles: 5_000,
                pending: None,
            }),
        );
        sim.run_to_completion();
        assert!(
            sim.core.timers.capacity() <= 4,
            "timer slab grew to {} slots over 10k set/cancel/fire cycles",
            sim.core.timers.capacity()
        );
    }

    #[test]
    fn packet_slab_recycles_and_ids_stay_unique() {
        // 50 sequential packets through a 2-node link: the slab should
        // reuse a handful of slots while packet ids keep incrementing.
        let mut sim = Simulator::new(3);
        let (sink, bus) = TelemetrySink::new_bus(0);
        sim.attach_telemetry(sink);
        let (mut sim, _tx, rx) = {
            let a = sim.add_node();
            let b = sim.add_node();
            sim.add_duplex_link(a, b, LinkSpec::new(8e6, millis(1), 100_000));
            let tx = sim.add_agent(
                a,
                1,
                Box::new(Blaster {
                    dst: Addr::new(b, 2),
                    count: 50,
                    size: 1000,
                    sent: 0,
                }),
            );
            let rx = sim.add_agent(b, 2, Box::new(Recorder::default()));
            (sim, tx, rx)
        };
        sim.run_to_completion();
        assert_eq!(sim.agent::<Recorder>(rx).unwrap().arrivals.len(), 50);
        // Slab bounded by peak in-flight, not total sent.
        assert!(
            sim.core.packets.capacity() < 10,
            "packet slab grew to {} slots for 50 sequential sends",
            sim.core.packets.capacity()
        );
        assert_eq!(sim.core.packets.live(), 0, "all slots released");
        // Ids remain unique across slot reuse, and the bus saw every send
        // exactly once.
        let mut sent_ids: Vec<u64> = bus
            .lock()
            .unwrap()
            .flow_records(1)
            .into_iter()
            .filter_map(|r| match r.event {
                TelemetryEvent::Packet {
                    packet_id,
                    kind: PacketKind::Sent,
                    ..
                } => Some(packet_id),
                _ => None,
            })
            .collect();
        assert_eq!(sent_ids.len(), 50);
        sent_ids.sort_unstable();
        sent_ids.dedup();
        assert_eq!(sent_ids.len(), 50, "packet ids reused");
    }

    #[test]
    fn delivered_payload_is_shared_not_copied() {
        // The slab parks packets by value; delivery must hand back the
        // same Arc the sender supplied (and clones keep sharing it).
        use std::sync::Arc;

        struct ArcSender {
            dst: Addr,
            sent: Option<Payload>,
        }
        impl Agent for ArcSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let p = Payload::from_arc(Arc::new(String::from("shared")));
                self.sent = Some(p.clone());
                ctx.send(self.dst, 500, FlowId(1), p);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        }
        #[derive(Default)]
        struct Keeper {
            got: Option<Packet>,
        }
        impl Agent for Keeper {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
                let dup = pkt.clone();
                assert!(Payload::ptr_eq(&pkt.payload, &dup.payload));
                self.got = Some(pkt);
            }
        }
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(8e6, millis(1), 100_000));
        let tx = sim.add_agent(
            a,
            1,
            Box::new(ArcSender {
                dst: Addr::new(b, 2),
                sent: None,
            }),
        );
        let rx = sim.add_agent(b, 2, Box::new(Keeper::default()));
        sim.run_to_completion();
        let sent = sim.agent::<ArcSender>(tx).unwrap().sent.clone().unwrap();
        let got = sim.agent::<Keeper>(rx).unwrap().got.as_ref().unwrap();
        assert!(
            Payload::ptr_eq(&sent, &got.payload),
            "payload was copied somewhere between send and delivery"
        );
        assert_eq!(got.payload_as::<String>().unwrap(), "shared");
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node();
            let b = sim.add_node();
            sim.add_duplex_link(
                a,
                b,
                LinkSpec::new(10e6, millis(3), 20_000).with_random_loss(0.1),
            );
            sim.add_agent(
                a,
                1,
                Box::new(Blaster {
                    dst: Addr::new(b, 2),
                    count: 200,
                    size: 500,
                    sent: 0,
                }),
            );
            let rx = sim.add_agent(b, 2, Box::new(Recorder::default()));
            sim.run_until(crate::time::secs(2.0));
            sim.agent::<Recorder>(rx).unwrap().arrivals.clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn run_for_advances_clock_even_when_idle() {
        let mut sim = Simulator::new(0);
        sim.add_node();
        sim.run_for(millis(50));
        assert_eq!(sim.now(), millis(50));
    }

    #[test]
    fn link_too_slow_for_the_clock_saturates_instead_of_wrapping() {
        // At 1e-9 bit/s, serializing 1,400 B takes longer than `Time`
        // can hold: the packet must never arrive, not wrap into the past.
        struct LateSender {
            dst: Addr,
        }
        impl Agent for LateSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(MILLISECOND, 0);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                ctx.send(self.dst, 1400, FlowId(1), payload(0u32));
            }
        }
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        let b = sim.add_node();
        let spec = LinkSpec::new(1e-9, millis(5), 100_000).with_jitter(MILLISECOND);
        sim.add_duplex_link(a, b, spec);
        sim.add_agent(
            a,
            1,
            Box::new(LateSender {
                dst: Addr::new(b, 2),
            }),
        );
        let rx = sim.add_agent(b, 2, Box::new(Recorder::default()));
        let deadline = crate::time::secs(1.0);
        assert_eq!(sim.run_until(deadline), deadline);
        assert_eq!(sim.counters().packets_sent, 1);
        assert!(sim.agent::<Recorder>(rx).unwrap().arrivals.is_empty());
    }

    #[test]
    fn run_window_runs_only_events_strictly_below_its_limit() {
        #[derive(Default)]
        struct Timers {
            fired: Vec<(Time, u64)>,
        }
        impl Agent for Timers {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for (token, delay) in (0..).zip([millis(10), millis(30) - 1, millis(30), Time::MAX])
                {
                    ctx.set_timer(delay, token);
                }
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push((ctx.now(), token));
            }
        }
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        let a = sim.add_agent(n, 1, Box::new(Timers::default()));
        let fired = |sim: &Simulator| sim.agent::<Timers>(a).unwrap().fired.clone();

        sim.run_window(0);
        assert_eq!(
            sim.counters().events_processed,
            0,
            "not even the Start at 0"
        );
        sim.run_window(millis(30));
        assert_eq!(fired(&sim), [(millis(10), 0), (millis(30) - 1, 1)]);
        // The event exactly at the limit stayed pending; a later window
        // runs it.
        sim.run_window(millis(30) + 1);
        assert_eq!(fired(&sim).last(), Some(&(millis(30), 2)));
        // `Time::MAX` is below no limit.
        sim.run_window(Time::MAX);
        assert_eq!(fired(&sim).len(), 3);
        sim.run_to_completion();
        assert_eq!(fired(&sim).last(), Some(&(Time::MAX, 3)));
    }

    #[test]
    #[should_panic(expected = "already has an agent")]
    fn duplicate_address_panics() {
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        sim.add_agent(n, 1, Box::new(Recorder::default()));
        sim.add_agent(n, 1, Box::new(Recorder::default()));
    }

    #[test]
    fn multi_hop_chain_forwards_with_summed_latency() {
        // a - r1 - r2 - b : three store-and-forward hops.
        let mut sim = Simulator::new(2);
        let a = sim.add_node();
        let r1 = sim.add_node();
        let r2 = sim.add_node();
        let b = sim.add_node();
        for (x, y) in [(a, r1), (r1, r2), (r2, b)] {
            sim.add_duplex_link(x, y, LinkSpec::new(8e6, millis(4), 64_000));
        }
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                dst: Addr::new(b, 2),
                count: 3,
                size: 1000,
                sent: 0,
            }),
        );
        let rx = sim.add_agent(b, 2, Box::new(Recorder::default()));
        sim.run_until(crate::time::secs(1.0));
        let rec = sim.agent::<Recorder>(rx).unwrap();
        assert_eq!(rec.arrivals.len(), 3);
        // Each hop: 1 ms serialization + 4 ms propagation = 5 ms; three
        // hops = 15 ms for the first packet.
        assert_eq!(rec.arrivals[0].0, millis(15));
    }

    #[test]
    fn flow_stats_and_packet_log_track_ground_truth() {
        let mut sim = Simulator::new(8);
        let (sink, bus) = TelemetrySink::new_bus(0);
        sim.attach_telemetry(sink);
        let a = sim.add_node();
        let b = sim.add_node();
        // Tight queue: some drops guaranteed.
        sim.add_duplex_link(a, b, LinkSpec::new(1e6, millis(2), 2500));
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                dst: Addr::new(b, 2),
                count: 50,
                size: 1000,
                sent: 0,
            }),
        );
        let rx = sim.add_agent(b, 2, Box::new(Recorder::default()));
        sim.run_until(crate::time::secs(5.0));
        let fs = iq_telemetry::TelemetryReport::from_records(&bus.lock().unwrap().flow_records(1));
        let delivered = sim.agent::<Recorder>(rx).unwrap().arrivals.len() as u64;
        assert_eq!(fs.sent_packets, 50);
        assert_eq!(fs.sent_bytes, 50_000);
        assert_eq!(fs.delivered_packets, delivered);
        assert_eq!(fs.delivered_bytes, 1000 * delivered);
        assert!(fs.dropped_packets > 0);
        assert_eq!(fs.delivered_packets + fs.dropped_packets, 50);
        assert!(fs.loss_ratio() > 0.0);
    }

    #[test]
    fn unroutable_packets_are_counted() {
        struct SendToNowhere;
        impl Agent for SendToNowhere {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.addr();
                // Port with no listener.
                ctx.send(Addr::new(me.node, 77), 10, FlowId::ANON, payload(()));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        }
        let mut sim = Simulator::new(0);
        let n = sim.add_node();
        sim.add_agent(n, 1, Box::new(SendToNowhere));
        sim.run_until(millis(1));
        assert_eq!(sim.counters().packets_unroutable, 1);
        assert_eq!(sim.core.packets.live(), 0, "unroutable packet leaked");
    }

    #[test]
    #[should_panic(expected = "link L0 references unknown node n7")]
    fn link_to_unknown_node_names_the_offender() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node();
        sim.add_link(a, crate::packet::NodeId(7), LinkSpec::new(1e6, 0, 1000));
    }

    #[test]
    #[should_panic(expected = "node n3 does not exist")]
    fn agent_on_unknown_node_names_the_offender() {
        let mut sim = Simulator::new(0);
        sim.add_node();
        sim.add_agent(crate::packet::NodeId(3), 1, Box::new(SinkOnly));
    }

    #[test]
    fn a_serial_simulator_owns_every_link_and_a_mirror_only_its_own() {
        let (mut sim, _tx, _rx) = two_node_sim(LinkSpec::new(8e6, millis(5), 100_000));
        assert_eq!(sim.owned_links(), [LinkId(0), LinkId(1)]);
        assert_eq!(
            **sim.endpoints(),
            [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]
        );
        sim.run_until(millis(100));
        assert_eq!(sim.link_stats(LinkId(0)).transmitted_packets, 10);

        // The shard engine's form: every link takes an id, only those
        // given a spec take state; the others answer with zeroes.
        let mut shard = Simulator::new(1);
        assert_eq!(shard.mirror_link(None), LinkId(0));
        assert_eq!(
            shard.mirror_link(Some(LinkSpec::new(8e6, millis(5), 1000))),
            LinkId(1)
        );
        assert_eq!(shard.mirror_link(None), LinkId(2));
        assert_eq!(shard.owned_links(), [LinkId(1)]);
        for id in 0..3 {
            assert_eq!(shard.link_stats(LinkId(id)).enqueued_packets, 0);
        }
    }

    #[test]
    #[should_panic(expected = "no such link L3 (only 3 links exist)")]
    fn link_stats_of_a_mirror_still_rejects_ids_nobody_knows() {
        let mut shard = Simulator::new(1);
        for spec in [None, Some(LinkSpec::new(8e6, millis(5), 1000)), None] {
            shard.mirror_link(spec);
        }
        shard.link_stats(LinkId(3));
    }

    #[test]
    #[should_panic(expected = "no such link L9")]
    fn link_stats_for_unknown_link_names_the_offender() {
        let sim = Simulator::new(0);
        sim.link_stats(LinkId(9));
    }

    #[test]
    #[should_panic(expected = "no such agent A5")]
    fn agent_lookup_with_foreign_handle_names_the_offender() {
        let sim = Simulator::new(0);
        sim.agent::<Recorder>(crate::packet::AgentId(5));
    }

    struct SinkOnly;
    impl Agent for SinkOnly {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    }
}
