//! Drives for `iq-netsim`: bare forwarding, timer churn, the event
//! queue's hold model and payload construction.

use std::hint::black_box;

use iq_netsim::event::{Event, EventKind};
use iq_netsim::{
    build_dumbbell, payload, time, Addr, Agent, AgentId, Ctx, DumbbellSpec, EventQueue, FlowId,
    Packet, Simulator, TimerId,
};
use iq_workload::{CbrSource, UdpSink, UDP_HEADER_BYTES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{ns_per_op, Budget};

/// Nanoseconds per simulator event when a CBR source feeds a UDP sink
/// across the paper dumbbell at the smallest packet size (64 B on the
/// wire, payload stored inline): the per-event floor, with no transport.
/// `offered` is the offered load as a share of the bottleneck rate; at
/// 2.0 half the packets take the bottleneck's drop path.
pub fn forward_ns(budget: Budget, offered: f64) -> f64 {
    let spec = DumbbellSpec::paper_default(1);
    ns_per_op(
        budget,
        || {
            let mut sim = Simulator::new(1);
            let db = build_dumbbell(&mut sim, &spec);
            let dst = Addr::new(db.right_hosts[0], 10);
            sim.add_agent(
                db.left_hosts[0],
                10,
                Box::new(CbrSource::new(
                    dst,
                    FlowId(1),
                    offered * spec.bottleneck_bps,
                    64 - UDP_HEADER_BYTES,
                )),
            );
            sim.add_agent(db.right_hosts[0], 10, Box::new(UdpSink::new()));
            sim
        },
        |sim| {
            let before = sim.counters().events_processed;
            sim.run_for(time::millis(100));
            sim.counters().events_processed - before
        },
    )
}

/// Re-arms a 1 ms tick forever; every tick also cancels a far decoy
/// timer and sets a new one, as a transport re-arming its RTO does.
struct TimerChurn {
    decoy: Option<TimerId>,
}

impl Agent for TimerChurn {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(time::millis(1), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let Some(id) = self.decoy.take() {
            ctx.cancel_timer(id);
        }
        self.decoy = Some(ctx.set_timer(time::millis(200), 1));
        ctx.set_timer(time::millis(1), 0);
    }
}

/// Nanoseconds per timer round (two sets, one cancel, one fire) through
/// `Ctx`, over 64 agents.
pub fn timer_ns(budget: Budget) -> f64 {
    ns_per_op(
        budget,
        || {
            let mut sim = Simulator::new(1);
            let node = sim.add_node();
            for port in 0..64 {
                sim.add_agent(node, port, Box::new(TimerChurn { decoy: None }));
            }
            sim
        },
        |sim| {
            let before = sim.counters().timers_fired;
            sim.run_for(time::millis(50));
            sim.counters().timers_fired - before
        },
    )
}

/// The delta mix of the hold model, fixed by a seed: 65 % local
/// deliveries and access-link steps (1–50 µs), 10 % bottleneck
/// serialisation (100–600 µs), 20 % propagation (15 ms), 5 % timer
/// deadlines (100–500 ms) — close to where `paper_sweep`'s pushes land
/// (`netsim.sched.near_hit_share`, `.wheel_share`).
fn hold_deltas() -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(0x686f_6c64);
    (0..4096)
        .map(|_| match rng.gen_range(0..20u32) {
            0..=12 => rng.gen_range(time::micros(1)..time::micros(50)),
            13..=14 => rng.gen_range(time::micros(100)..time::micros(600)),
            15..=18 => time::millis(15),
            _ => rng.gen_range(time::millis(100)..time::millis(500)),
        })
        .collect()
}

struct Hold {
    queue: EventQueue,
    deltas: Vec<u64>,
    seq: u64,
}

impl Hold {
    fn push(&mut self, at: u64) {
        self.queue.push(Event {
            at,
            seq: self.seq,
            kind: EventKind::Start { agent: AgentId(0) },
        });
        self.seq += 1;
    }
}

/// Nanoseconds per hold (pop the minimum, push one successor) on an
/// [`EventQueue`] holding `pending` events.
pub fn hold_ns(budget: Budget, pending: usize) -> f64 {
    const BATCH: u64 = 4096;
    ns_per_op(
        budget,
        || {
            let mut hold = Hold {
                queue: EventQueue::new(),
                deltas: hold_deltas(),
                seq: 0,
            };
            for i in 0..pending {
                hold.push(hold.deltas[i % hold.deltas.len()]);
            }
            hold
        },
        |hold| {
            for _ in 0..BATCH {
                let ev = hold.queue.pop().expect("the hold model never drains");
                let delta = hold.deltas[(hold.seq % hold.deltas.len() as u64) as usize];
                hold.push(ev.at + delta);
            }
            BATCH
        },
    )
}

/// A plain 192-byte value, the size of the largest transport segment
/// wrapper: it takes the pooled tier of `Payload`.
#[derive(Clone, Copy)]
struct Pooled(#[allow(dead_code)] [u64; 24]);

/// Nanoseconds to create and drop an inline (≤16 B) payload.
pub fn payload_ns_inline(budget: Budget) -> f64 {
    const BATCH: u64 = 4096;
    ns_per_op(
        budget,
        || (),
        |_| {
            for i in 0..BATCH {
                drop(black_box(payload(black_box((i, i)))));
            }
            BATCH
        },
    )
}

/// Nanoseconds to create and drop a pooled (≤192 B) payload.
pub fn payload_ns_pooled(budget: Budget) -> f64 {
    const BATCH: u64 = 4096;
    ns_per_op(
        budget,
        || (),
        |_| {
            for i in 0..BATCH {
                drop(black_box(payload(black_box(Pooled([i; 24])))));
            }
            BATCH
        },
    )
}
