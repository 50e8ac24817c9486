//! Drives for the sans-io transports: the `SenderConn`↔`ReceiverConn`
//! data/ACK cycle on one hot pair, round-robin over a fleet, and under
//! loss; connection set-up, size and clone cost; the TCP cycle.

use std::hint::black_box;
use std::sync::Arc;

use iq_netsim::{Addr, FlowId, NodeId};
use iq_rudp::{CcAlgorithm, DeliveredMsg, ReceiverConn, RudpConfig, Segment, SenderConn};
use iq_tcp::{TcpConfig, TcpReceiverConn, TcpSenderConn};

use super::{ns_per_op, Budget};
use crate::host::AllocMark;

/// Cycles a warm pair runs before it counts as steady: rings, outboxes
/// and event vectors have reached their final sizes (`alloc_smoke.rs`).
const WARM_CYCLES: usize = 300;
/// Cycles per timed batch on one pair.
pub const BATCH_CYCLES: usize = 64;
/// Bytes per message of the cycle: below the MSS, so one segment each.
pub const MSG_BYTES: u32 = 1000;

/// One connection and its clock.
#[derive(Clone)]
pub struct Pair {
    pub sender: SenderConn,
    pub receiver: ReceiverConn,
    now: u64,
    /// Data segments polled from the sender so far.
    polled: u64,
}

impl Pair {
    /// A handshaken pair sharing `cfg`, as `ConnBuilder` builds them.
    pub fn new(conn_id: u32, cfg: &Arc<RudpConfig>) -> Self {
        let mut sender = SenderConn::from_shared(conn_id, Arc::clone(cfg));
        let mut receiver = ReceiverConn::from_shared(conn_id, Arc::clone(cfg));
        let syn = sender
            .poll_transmit(0)
            .expect("a new sender offers its SYN");
        receiver.on_segment(0, &syn);
        let synack = receiver
            .poll_transmit(0)
            .expect("the receiver answers the SYN");
        sender.on_segment(0, &synack);
        Self {
            sender,
            receiver,
            now: 0,
            polled: 0,
        }
    }

    /// One steady-state cycle (the `alloc_smoke.rs` loop): submit four
    /// messages unless the window has fallen behind, ship the segments
    /// (losing those `lose` selects), return the ACKs 2 ms later, drain
    /// through reused scratch. Returns the data segments it moved.
    pub fn cycle(&mut self, msgs: &mut Vec<DeliveredMsg>, lose: impl FnMut(u64) -> bool) -> u64 {
        self.cycle_with(msgs, lose, |sender, now| {
            let _ = sender.send_message(now, MSG_BYTES, true);
        })
    }

    /// [`Pair::cycle`] with the application's send call supplied by the
    /// caller, so the coordinator's send path can be driven through the
    /// same loop.
    pub fn cycle_with(
        &mut self,
        msgs: &mut Vec<DeliveredMsg>,
        mut lose: impl FnMut(u64) -> bool,
        mut submit: impl FnMut(&mut SenderConn, u64),
    ) -> u64 {
        if self.sender.backlog_segments() < 16 {
            for _ in 0..4 {
                submit(&mut self.sender, self.now);
            }
        }
        self.sender.on_tick(self.now);
        let before = self.polled;
        while let Some(seg) = self.sender.poll_transmit(self.now) {
            if matches!(seg, Segment::Data(_)) {
                self.polled += 1;
                if lose(self.polled) {
                    continue;
                }
            }
            self.receiver.on_segment(self.now, &seg);
        }
        self.now += 2_000_000;
        while let Some(seg) = self.receiver.poll_transmit(self.now) {
            self.sender.on_segment(self.now, &seg);
        }
        self.receiver.take_messages_into(msgs);
        self.receiver.clear_events();
        self.sender.clear_events();
        self.now += 3_000_000;
        self.polled - before
    }

    /// A pair that has run [`WARM_CYCLES`] cycles, and its scratch.
    pub fn warm(conn_id: u32, cfg: &Arc<RudpConfig>) -> (Self, Vec<DeliveredMsg>) {
        let mut pair = Self::new(conn_id, cfg);
        let mut msgs = Vec::new();
        for _ in 0..WARM_CYCLES {
            pair.cycle(&mut msgs, |_| false);
        }
        (pair, msgs)
    }
}

/// The default configuration under controller `cc`.
pub fn config(cc: &str) -> Arc<RudpConfig> {
    let mut cfg = RudpConfig::default();
    cfg.cc.algorithm = CcAlgorithm::from_name(cc).expect("known controller name");
    Arc::new(cfg)
}

/// The four sender classes of the mega world, each pinned to its
/// controller (see `run_mega`): marked bulk on CUBIC, the adaptive
/// source on LDA, unmarked-discard on BBR, sparse-ACK on RRR.
fn mega_classes() -> [Arc<RudpConfig>; 4] {
    let base = RudpConfig {
        loss_tolerance: 0.40,
        upper_threshold: Some(0.10),
        lower_threshold: Some(0.02),
        ..RudpConfig::default()
    };
    let with = |cc: &str, mut cfg: RudpConfig| {
        cfg.cc.algorithm = CcAlgorithm::from_name(cc).expect("known controller name");
        Arc::new(cfg)
    };
    [
        with(
            "cubic",
            RudpConfig {
                loss_tolerance: 0.0,
                ..base.clone()
            },
        ),
        with("lda", base.clone()),
        with(
            "bbr",
            RudpConfig {
                discard_unmarked: true,
                ..base.clone()
            },
        ),
        with(
            "rrr",
            RudpConfig {
                loss_tolerance: 0.0,
                ack_every: 4,
                ..base
            },
        ),
    ]
}

/// Nanoseconds per data segment of the cycle on one warm pair under
/// controller `cc`, and the heap allocations the timed cycles made
/// (counted only in traced runs; must be 0).
pub fn cycle_ns_hot(budget: Budget, cc: &str) -> (f64, u64) {
    let cfg = config(cc);
    let mut allocs = 0;
    let ns = ns_per_op(
        budget,
        || Pair::warm(7, &cfg),
        |(pair, msgs)| {
            let mark = AllocMark::now();
            let moved = (0..BATCH_CYCLES).map(|_| pair.cycle(msgs, |_| false)).sum();
            allocs += mark.since().0;
            moved
        },
    );
    (ns, allocs)
}

/// The same cycle with every 20th data segment lost: SACK, fast
/// retransmit and RTO paths.
pub fn cycle_ns_lossy(budget: Budget) -> f64 {
    let cfg = config("lda");
    ns_per_op(
        budget,
        || Pair::warm(7, &cfg),
        |(pair, msgs)| {
            (0..BATCH_CYCLES)
                .map(|_| pair.cycle(msgs, |n| n % 20 == 0))
                .sum()
        },
    )
}

/// The same cycle round-robin over `pairs` connections with the mega
/// world's class and controller mix: every cycle finds its connection
/// cache-cold, as a fleet simulation does.
pub fn cycle_ns_fleet(budget: Budget, pairs: u32) -> f64 {
    let classes = mega_classes();
    let mut msgs = Vec::new();
    let mut fleet: Vec<Pair> = (0..pairs)
        .map(|i| Pair::new(1000 + i, &classes[i as usize % 4]))
        .collect();
    // Two rounds size every pair's rings; the fleet is built once and
    // shared by the samples, because building it is not what is timed.
    for _ in 0..2 {
        for pair in &mut fleet {
            pair.cycle(&mut msgs, |_| false);
        }
    }
    let mut next = 0usize;
    ns_per_op(
        budget,
        || (),
        |_| {
            let mut moved = 0;
            for _ in 0..1024 {
                moved += fleet[next].cycle(&mut msgs, |_| false);
                next = (next + 1) % fleet.len();
            }
            moved
        },
    )
}

/// Nanoseconds to build and drop both halves of a connection through
/// `ConnBuilder::for_conn`, as the world builders do per flow.
pub fn conn_setup_ns(budget: Budget) -> f64 {
    let builder = RudpConfig::default().builder(0, FlowId(0));
    let peer = Addr::new(NodeId(1), 1000);
    let mut id = 0u32;
    ns_per_op(
        budget,
        || (),
        |_| {
            for _ in 0..256 {
                id = id.wrapping_add(1);
                let b = builder.for_conn(id, FlowId(id));
                black_box((b.build_sender(peer), b.build_receiver()));
            }
            256
        },
    )
}

/// Live heap bytes per connection pair, `(idle, active)`: handshaken
/// with no message sent, and after [`WARM_CYCLES`] cycles. Read from
/// the allocator wrapper, so meaningful only in traced runs; the pairs
/// sit in a `Vec`, so their inline size is part of the figure.
pub fn conn_bytes() -> (f64, f64) {
    const PAIRS: u32 = 512;
    let classes = mega_classes();
    let mark = AllocMark::now();
    let mut fleet = Vec::with_capacity(PAIRS as usize);
    for i in 0..PAIRS {
        fleet.push(Pair::new(1000 + i, &classes[i as usize % 4]));
    }
    let idle = mark.since().1 as f64 / f64::from(PAIRS);
    let mut msgs = Vec::new();
    for pair in &mut fleet {
        for _ in 0..WARM_CYCLES {
            pair.cycle(&mut msgs, |_| false);
        }
    }
    msgs.shrink_to(0);
    let active = mark.since().1 as f64 / f64::from(PAIRS);
    black_box(&fleet);
    (idle, active)
}

/// Nanoseconds to clone and drop a warm sender/receiver pair — what
/// every model-checker transition pays.
pub fn clone_ns(budget: Budget) -> f64 {
    let cfg = config("lda");
    ns_per_op(
        budget,
        || Pair::warm(7, &cfg).0,
        |pair| {
            for _ in 0..256 {
                black_box(pair.clone());
            }
            256
        },
    )
}

/// Nanoseconds per data segment of the same cycle between a
/// `TcpSenderConn` and a `TcpReceiverConn`.
pub fn tcp_cycle_ns(budget: Budget) -> f64 {
    struct Tcp {
        sender: TcpSenderConn,
        receiver: TcpReceiverConn,
        now: u64,
    }
    fn cycle(t: &mut Tcp) -> u64 {
        if t.sender.backlog_segments() < 16 {
            for _ in 0..4 {
                t.sender.send_message(t.now, MSG_BYTES);
            }
        }
        t.sender.on_tick(t.now);
        let mut moved = 0;
        while let Some(seg) = t.sender.poll_transmit(t.now) {
            moved += u64::from(matches!(seg, iq_tcp::TcpSegment::Data(_)));
            t.receiver.on_segment(t.now, &seg);
        }
        t.now += 2_000_000;
        while let Some(seg) = t.receiver.poll_transmit(t.now) {
            t.sender.on_segment(t.now, &seg);
        }
        black_box(t.receiver.take_messages());
        black_box(t.receiver.take_events());
        black_box(t.sender.take_events());
        t.now += 3_000_000;
        moved
    }
    ns_per_op(
        budget,
        || {
            let mut t = Tcp {
                sender: TcpSenderConn::new(7, TcpConfig::default()),
                receiver: TcpReceiverConn::new(7, TcpConfig::default()),
                now: 0,
            };
            for _ in 0..WARM_CYCLES {
                cycle(&mut t);
            }
            t
        },
        |t| (0..BATCH_CYCLES).map(|_| cycle(t)).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_moves_segments_and_delivers_them() {
        let (mut pair, mut msgs) = Pair::warm(1, &config("lda"));
        let delivered_before = pair.receiver.stats().msgs_delivered;
        let moved: u64 = (0..10).map(|_| pair.cycle(&mut msgs, |_| false)).sum();
        assert!(
            moved >= 10,
            "a warm pair moves segments every cycle, moved {moved}"
        );
        assert!(pair.receiver.stats().msgs_delivered > delivered_before);
        assert_eq!(pair.sender.stats().retransmits, 0);
    }

    #[test]
    fn the_lossy_cycle_retransmits_and_keeps_delivering() {
        let (mut pair, mut msgs) = Pair::warm(1, &config("lda"));
        for _ in 0..400 {
            pair.cycle(&mut msgs, |n| n % 20 == 0);
        }
        let s = pair.sender.stats();
        assert!(s.retransmits > 0, "losses must be repaired");
        assert!(
            pair.sender.backlog_segments() < 64,
            "the backlog stays bounded"
        );
        assert!(pair.receiver.stats().msgs_delivered > 400);
    }

    #[test]
    fn every_mega_class_cycles() {
        let classes = mega_classes();
        let mut msgs = Vec::new();
        for (i, cfg) in classes.iter().enumerate() {
            let mut pair = Pair::new(i as u32, cfg);
            let moved: u64 = (0..50).map(|_| pair.cycle(&mut msgs, |_| false)).sum();
            assert!(moved > 0, "class {i}");
        }
    }
}
