//! # iq-netsim
//!
//! A deterministic, discrete-event, packet-level network simulator — the
//! substrate on which the IQ-RUDP reproduction runs its transports and
//! experiments (standing in for the paper's EMULAB testbed).
//!
//! ## Model
//!
//! * **Nodes** are hosts or routers; **links** are unidirectional with a
//!   rate, a propagation delay, and a bounded drop-tail FIFO queue
//!   (optionally with random loss / jitter for failure injection).
//! * **Agents** — protocol endpoints and traffic generators — attach to
//!   `(node, port)` addresses and react to packet deliveries and timers.
//! * **Routing** is static shortest-path, recomputed when topology
//!   changes.
//! * Time is integer nanoseconds; runs with equal seeds are bit-for-bit
//!   reproducible.
//!
//! ## Quick example
//!
//! ```
//! use iq_netsim::{
//!     Addr, Agent, Ctx, FlowId, LinkSpec, Packet, Simulator, payload, time,
//! };
//!
//! struct Hello { dst: Addr }
//! impl Agent for Hello {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(self.dst, 100, FlowId(1), payload("hi"));
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
//! }
//!
//! #[derive(Default)]
//! struct Count(u32);
//! impl Agent for Count {
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) { self.0 += 1; }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node();
//! let b = sim.add_node();
//! sim.add_duplex_link(a, b, LinkSpec::new(10e6, time::millis(5), 64_000));
//! sim.add_agent(a, 1, Box::new(Hello { dst: Addr::new(b, 2) }));
//! let rx = sim.add_agent(b, 2, Box::new(Count::default()));
//! sim.run_until(time::secs(1.0));
//! assert_eq!(sim.agent::<Count>(rx).unwrap().0, 1);
//! ```
//!
//! A transport's sans-io connection becomes an agent through the one
//! [`endpoint`] layer, whatever the protocol.

#![warn(missing_docs)]
#![allow(clippy::new_without_default)]

pub mod agent;
pub mod endpoint;
pub mod event;
pub mod link;
pub mod packet;
pub mod routing;
mod rtt;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod slab;
pub mod time;
pub mod topology;

pub use agent::{Agent, Ctx, TimerId};
pub use endpoint::{BulkSender, Conn, ReceiverDriver, RttEstimator, SendConn, SenderDriver, Wire};
pub use link::{LinkSpec, LinkStats, QueueDiscipline};
pub use packet::{
    payload, pool_stats, Addr, AgentId, FlowId, LinkId, NodeId, Packet, Payload, PoolStats,
};
pub use routing::RoutingTable;
pub use sched::{EventQueue, SchedStats};
pub use shard::{SchedTotals, ShardAgentId, ShardStats, ShardView, ShardedSim};
pub use sim::{SimCounters, Simulator};
pub use slab::{PacketKey, TimerKey};
pub use time::{Time, TimeDelta};
pub use topology::{build_dumbbell, build_dumbbell_leg, Dumbbell, DumbbellSpec};
