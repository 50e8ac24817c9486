//! Canonical topologies used by the IQ-RUDP experiments.
//!
//! All of the paper's EMULAB scenarios reduce to a dumbbell: a number of
//! sender hosts on the left, a number of receiver hosts on the right, and
//! a single shared bottleneck between two routers. Access links are fast
//! enough never to be the constraint; the bottleneck carries the paper's
//! "emulated 20 Mb physical links with a path RTT of 30 ms".

use crate::link::LinkSpec;
use crate::packet::{LinkId, NodeId};
use crate::shard::ShardedSim;
use crate::sim::Simulator;
use crate::time::{millis, TimeDelta};

/// Access link rate: fast enough never to be the constraint.
const ACCESS_BPS: f64 = 1e9;

/// Handles to the pieces of a dumbbell topology.
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// Hosts on the sending side, index-aligned with `right_hosts`.
    pub left_hosts: Vec<NodeId>,
    /// Hosts on the receiving side.
    pub right_hosts: Vec<NodeId>,
    /// Router aggregating the sending side.
    pub left_router: NodeId,
    /// Router aggregating the receiving side.
    pub right_router: NodeId,
    /// Left-to-right direction of the shared bottleneck.
    pub bottleneck: LinkId,
    /// Right-to-left direction (carries ACKs).
    pub bottleneck_back: LinkId,
}

/// Configuration for [`build_dumbbell`].
#[derive(Debug, Clone)]
pub struct DumbbellSpec {
    /// Number of host pairs (flows that can traverse the bottleneck).
    pub pairs: usize,
    /// Bottleneck rate in bits/second (paper: 20 Mb/s).
    pub bottleneck_bps: f64,
    /// One-way propagation of the bottleneck. The paper's 30 ms *path
    /// RTT* means 15 ms one way here (access links add negligible delay).
    pub one_way_delay: TimeDelta,
    /// Bottleneck queue size in bytes; by convention one RTT worth of the
    /// bottleneck rate.
    pub queue_bytes: u32,
    /// Run the bottleneck queue under RED instead of drop-tail.
    pub red_bottleneck: bool,
}

impl DumbbellSpec {
    /// The paper's default: 20 Mb bottleneck, 30 ms RTT, BDP queue.
    pub fn paper_default(pairs: usize) -> Self {
        let bottleneck_bps = 20e6;
        let rtt = millis(30);
        let bdp = (bottleneck_bps * (rtt as f64 / 1e9) / 8.0) as u32;
        Self {
            pairs,
            bottleneck_bps,
            one_way_delay: millis(15),
            queue_bytes: bdp,
            red_bottleneck: false,
        }
    }

    /// The §3.5 changing-network variant: 125 ms one-way delay.
    pub fn long_rtt(pairs: usize) -> Self {
        let mut s = Self::paper_default(pairs);
        s.one_way_delay = millis(125);
        // Queue still sized to the paper-default RTT; EMULAB used the
        // same router buffers when the path delay changed.
        s
    }
}

/// Builds the dumbbell into `sim` and returns the handles.
///
/// # Panics
/// Panics on a degenerate spec: zero host pairs (the returned host lists
/// would be empty and every caller indexes them) or a non-positive /
/// non-finite bottleneck rate (the bottleneck would silently become
/// infinitely fast, which is never what an experiment means).
pub fn build_dumbbell(sim: &mut Simulator, spec: &DumbbellSpec) -> Dumbbell {
    dumbbell(sim, spec, |sim, _| sim.add_node(), Simulator::add_duplex_link)
}

/// Builds the dumbbell as one leg of a sharded world: the sending hosts
/// and their router live on shard `left`, the receiving side on shard
/// `right`. With `left != right` the bottleneck is the shard boundary
/// and its propagation delay the conservative lookahead; `left == right`
/// keeps the whole leg on one shard. Same node and link order, and the
/// same panics, as [`build_dumbbell`].
pub fn build_dumbbell_leg(
    sim: &mut ShardedSim,
    left: usize,
    right: usize,
    spec: &DumbbellSpec,
) -> Dumbbell {
    dumbbell(
        sim,
        spec,
        |sim, right_side| sim.add_node(if right_side { right } else { left }),
        ShardedSim::add_duplex_link,
    )
}

/// The one dumbbell body. `add_node` is told whether the node belongs to
/// the receiving (right) side.
fn dumbbell<S>(
    sim: &mut S,
    spec: &DumbbellSpec,
    add_node: impl Fn(&mut S, bool) -> NodeId,
    add_duplex_link: impl Fn(&mut S, NodeId, NodeId, LinkSpec) -> (LinkId, LinkId),
) -> Dumbbell {
    assert!(
        spec.pairs > 0,
        "dumbbell spec has 0 host pairs; at least one sender/receiver pair is required"
    );
    assert!(
        spec.bottleneck_bps.is_finite() && spec.bottleneck_bps > 0.0,
        "dumbbell bottleneck rate must be a positive finite bit rate, got {} b/s",
        spec.bottleneck_bps
    );
    let left_router = add_node(sim, false);
    let right_router = add_node(sim, true);

    // Nearly all of the one-way delay lives on the bottleneck; access
    // links contribute a symbolic 10 us so serialization ordering at the
    // routers stays realistic.
    let access_delay = crate::time::micros(10);
    let bottleneck_delay = spec.one_way_delay.saturating_sub(2 * access_delay);

    let mut bn_spec = LinkSpec::new(spec.bottleneck_bps, bottleneck_delay, spec.queue_bytes);
    if spec.red_bottleneck {
        bn_spec = bn_spec.with_red();
    }
    let (bottleneck, bottleneck_back) = add_duplex_link(sim, left_router, right_router, bn_spec);

    let mut left_hosts = Vec::with_capacity(spec.pairs);
    let mut right_hosts = Vec::with_capacity(spec.pairs);
    // Access queues are generous: the bottleneck is the only loss point.
    let access_spec = LinkSpec::new(ACCESS_BPS, access_delay, 16 * 1024 * 1024);
    for _ in 0..spec.pairs {
        let l = add_node(sim, false);
        let r = add_node(sim, true);
        add_duplex_link(sim, l, left_router, access_spec.clone());
        add_duplex_link(sim, r, right_router, access_spec.clone());
        left_hosts.push(l);
        right_hosts.push(r);
    }

    Dumbbell {
        left_hosts,
        right_hosts,
        left_router,
        right_router,
        bottleneck,
        bottleneck_back,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, Ctx};
    use crate::packet::{payload, Addr, FlowId, Packet};
    use crate::time::{as_millis, millis, secs};

    struct Ping {
        dst: Addr,
    }
    impl Agent for Ping {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.dst, 100, FlowId(1), payload(0u32));
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            // Echo once: reply to a ping, ignore the reply to our reply.
            if *pkt.payload_as::<u32>().unwrap() == 0 {
                ctx.send(pkt.src, 100, FlowId(1), payload(1u32));
            }
        }
    }

    struct PongTimer {
        rtt_ms: Option<f64>,
        sent_at: u64,
        dst: Addr,
    }
    impl Agent for PongTimer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.sent_at = ctx.now();
            ctx.send(self.dst, 100, FlowId(1), payload(0u32));
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.rtt_ms = Some(as_millis(ctx.now() - self.sent_at));
        }
    }

    #[test]
    fn paper_dumbbell_rtt_is_about_30ms() {
        let mut sim = Simulator::new(1);
        let spec = DumbbellSpec::paper_default(1);
        let db = build_dumbbell(&mut sim, &spec);
        let ponger = PongTimer {
            rtt_ms: None,
            sent_at: 0,
            dst: Addr::new(db.right_hosts[0], 5),
        };
        let p = sim.add_agent(db.left_hosts[0], 5, Box::new(ponger));
        sim.add_agent(
            db.right_hosts[0],
            5,
            Box::new(Ping {
                // unused as responder
                dst: Addr::new(db.left_hosts[0], 5),
            }),
        );
        sim.run_until(secs(1.0));
        let rtt = sim.agent::<PongTimer>(p).unwrap().rtt_ms.expect("no pong");
        // 30 ms propagation plus small serialization; must be close.
        assert!((29.0..32.0).contains(&rtt), "rtt = {rtt} ms");
    }

    #[test]
    fn a_leg_is_the_serial_dumbbell_on_one_shard_or_two() {
        let spec = DumbbellSpec::paper_default(2);
        let serial = format!("{:?}", build_dumbbell(&mut Simulator::new(1), &spec));
        for split in [false, true] {
            let mut sim = ShardedSim::new(1);
            let left = sim.add_shard();
            let right = if split { sim.add_shard() } else { left };
            let db = build_dumbbell_leg(&mut sim, left, right, &spec);
            assert_eq!(format!("{db:?}"), serial, "same node and link ids");
            let ponger = PongTimer {
                rtt_ms: None,
                sent_at: 0,
                dst: Addr::new(db.right_hosts[1], 5),
            };
            let p = sim.add_agent(db.left_hosts[1], 5, Box::new(ponger));
            let responder = Ping {
                dst: Addr::new(db.left_hosts[1], 5),
            };
            sim.add_agent(db.right_hosts[1], 5, Box::new(responder));
            sim.run_until(secs(1.0));
            let rtt = sim.agent::<PongTimer>(p).unwrap().rtt_ms.expect("no pong");
            assert!((29.0..32.0).contains(&rtt), "split {split}: rtt = {rtt} ms");
        }
    }

    #[test]
    fn queue_defaults_to_bdp() {
        let spec = DumbbellSpec::paper_default(2);
        assert_eq!(spec.queue_bytes, 75_000);
        assert_eq!(spec.pairs, 2);
    }

    #[test]
    fn long_rtt_variant_has_125ms_one_way() {
        let spec = DumbbellSpec::long_rtt(1);
        assert_eq!(spec.one_way_delay, millis(125));
    }

    #[test]
    #[should_panic(expected = "0 host pairs")]
    fn zero_pair_dumbbell_is_rejected() {
        let mut sim = Simulator::new(0);
        build_dumbbell(&mut sim, &DumbbellSpec::paper_default(0));
    }

    #[test]
    #[should_panic(expected = "positive finite bit rate")]
    fn non_finite_bottleneck_rate_is_rejected() {
        let mut sim = Simulator::new(0);
        let mut spec = DumbbellSpec::paper_default(1);
        spec.bottleneck_bps = f64::NAN;
        build_dumbbell(&mut sim, &spec);
    }
}
