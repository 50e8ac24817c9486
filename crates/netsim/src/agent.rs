//! The [`Agent`] trait and its execution context.
//!
//! Agents are the active entities of a simulation: protocol endpoints,
//! traffic sources, sinks. Each agent is bound to a `(node, port)` address
//! and reacts to packet deliveries and timers through a [`Ctx`] that lets
//! it read the clock, send packets, and (re)arm timers.

use std::any::Any;

use crate::packet::{Addr, AgentId, FlowId, Packet, Payload};
use crate::sim::SimCore;
use crate::time::{Time, TimeDelta};
use rand::rngs::SmallRng;

/// Handle to a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

/// Behaviour attached to a `(node, port)` address.
///
/// The `Any` supertrait lets callers recover concrete agent types after a
/// run (e.g. to read collected metrics) via [`crate::Simulator::agent`].
/// The `Send` supertrait lets whole simulations move across threads, so
/// independent scenarios can run on a worker pool.
pub trait Agent: Any + Send {
    /// Called once when the simulation starts (or when the agent is added
    /// to an already-running simulation).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a packet addressed to this agent arrives.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet);

    /// Called when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// Execution context handed to agent callbacks.
///
/// Borrows the simulator core (everything except the agent table), so an
/// agent can interact with the world while the simulator retains unique
/// ownership of all other agents.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) addr: Addr,
    pub(crate) agent: AgentId,
}

impl Ctx<'_> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// This agent's own address.
    #[inline]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Deterministic simulation-wide random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.core.rng
    }

    /// Sends a packet of `size` wire bytes to `dst`. Returns the packet id
    /// assigned by the simulator.
    pub fn send(&mut self, dst: Addr, size: u32, flow: FlowId, payload: Payload) -> u64 {
        self.core.send_from(self.addr, dst, size, flow, payload)
    }

    /// Arms a timer to fire after `delay`; `token` is echoed back to
    /// [`Agent::on_timer`] so one agent can multiplex timers.
    pub fn set_timer(&mut self, delay: TimeDelta, token: u64) -> TimerId {
        self.core.set_timer(self.agent, delay, token)
    }

    /// Cancels a timer if it has not fired yet. Cancelling an already
    /// fired or unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancel_timer(id);
    }
}
