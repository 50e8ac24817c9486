//! A worker that panics mid-window must surface the panic from
//! `run_until`, not hang the pool: the panicking thread's `PanicGuard`
//! flags shutdown and zeroes the epoch count, which lets the main thread
//! and the sibling workers go, and `thread::scope` re-raises. Without
//! the guard the main thread waits on its condvar for a crossing that
//! never comes and this test fails by timeout (checked by hand: with
//! the guard's `drop` body emptied it never returns).

use iq_netsim::agent::{Agent, Ctx};
use iq_netsim::time::{millis, secs};
use iq_netsim::{payload, Addr, FlowId, LinkSpec, Packet, ShardedSim};

/// Sends one packet to `dst` at time zero.
struct Sender {
    dst: Addr,
}
impl Agent for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.dst, 400, FlowId(1), payload(0u32));
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
}

struct Bomb;
impl Agent for Bomb {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
        panic!("agent panicked inside a window");
    }
}

#[test]
#[should_panic(expected = "a scoped thread panicked")]
fn a_worker_panic_surfaces_from_run_until() {
    // Three shards in a chain, a -> r -> b; the far end blows up.
    let mut sim = ShardedSim::new(1);
    let (s0, s1, s2) = (sim.add_shard(), sim.add_shard(), sim.add_shard());
    sim.set_threads(3);
    // Perturbation skips the core-count cap, so the pool exists on any host.
    sim.set_perturbation(Some(1));
    let a = sim.add_node(s0);
    let r = sim.add_node(s1);
    let b = sim.add_node(s2);
    sim.add_duplex_link(a, r, LinkSpec::new(10e6, millis(2), 64_000));
    sim.add_duplex_link(r, b, LinkSpec::new(10e6, millis(2), 64_000));
    sim.add_agent(
        a,
        1,
        Box::new(Sender {
            dst: Addr::new(b, 2),
        }),
    );
    sim.add_agent(b, 2, Box::new(Bomb));
    sim.run_until(secs(1.0));
}
