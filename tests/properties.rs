//! Property-based tests (proptest) for the core invariants of the
//! reproduction: protocol reliability under arbitrary loss, conservation
//! laws in the simulator, statistics correctness, and attribute/window
//! math.

use proptest::prelude::*;

use iq_attrs::{AttrList, AttrValue};
use iq_core::{cond_window_factor, resolution_window_factor};
use iq_metrics::Welford;
use iq_netsim::time::millis;
use iq_rudp::{ReceiverConn, RudpConfig, Segment, SenderConn};
use iq_trace::{MembershipConfig, MembershipTrace};

/// Drives a sender/receiver pair over an in-memory "wire" where the
/// given boolean pattern decides whether each transmission survives.
/// Returns (delivered message ids, sender stats, receiver stats).
fn run_lossy_pipe(
    messages: &[(u32, bool)],
    drops: &[bool],
    tolerance: f64,
) -> (Vec<(u64, bool)>, iq_rudp::SenderStats, iq_rudp::ReceiverStats) {
    let cfg = RudpConfig {
        loss_tolerance: tolerance,
        ..RudpConfig::default()
    };
    let mut tx = SenderConn::new(1, cfg.clone());
    let mut rx = ReceiverConn::new(1, cfg);
    let mut now: u64 = 0;
    let mut drop_iter = drops.iter().cycle();
    for &(size, marked) in messages {
        tx.send_message(now, size.max(1), marked);
    }
    tx.finish();

    let mut delivered = Vec::new();
    // Generous upper bound on exchanges; the protocol must terminate
    // well before this.
    for _ in 0..200_000 {
        if tx.is_closed() {
            break;
        }
        let mut progressed = false;
        while let Some(seg) = tx.poll_transmit(now) {
            progressed = true;
            // Data may be dropped by the pattern; control segments too.
            let dropped = *drop_iter.next().unwrap();
            if !dropped {
                rx.on_segment(now + millis(10), &seg);
            }
        }
        while let Some(seg) = rx.poll_transmit(now + millis(10)) {
            progressed = true;
            let dropped = matches!(seg, Segment::Ack(_)) && *drop_iter.next().unwrap();
            if !dropped {
                tx.on_segment(now + millis(20), &seg);
            }
        }
        for m in rx.take_messages() {
            delivered.push((m.msg_id, m.marked));
        }
        now += millis(25);
        tx.on_tick(now);
        if !progressed {
            // Idle: jump to the next timeout.
            if let Some(t) = tx.next_timeout(now) {
                now = now.max(t) + 1;
                tx.on_tick(now);
            }
        }
    }
    for m in rx.take_messages() {
        delivered.push((m.msg_id, m.marked));
    }
    (delivered, tx.stats(), rx.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every marked message is delivered exactly once, in order, for any
    /// loss pattern; unmarked losses never exceed the tolerance.
    #[test]
    fn rudp_delivers_marked_messages_under_any_loss(
        messages in prop::collection::vec((1u32..4000, any::<bool>()), 1..40),
        drops in prop::collection::vec(prop::bool::weighted(0.25), 16..128),
        tolerance in 0.0f64..0.6,
    ) {
        let (delivered, _txs, _rxs) = run_lossy_pipe(&messages, &drops, tolerance);
        // Marked messages: all delivered.
        let marked_sent: Vec<u64> = messages
            .iter()
            .enumerate()
            .filter(|(_, &(_, m))| m)
            .map(|(i, _)| i as u64)
            .collect();
        let marked_got: Vec<u64> = delivered
            .iter()
            .filter(|&&(_, m)| m)
            .map(|&(id, _)| id)
            .collect();
        prop_assert_eq!(&marked_got, &marked_sent, "marked messages lost or reordered");
        // All deliveries strictly increasing (in-order, no duplicates).
        prop_assert!(delivered.windows(2).all(|w| w[0].0 < w[1].0));
        // Tolerance is enforced at segment granularity: abandonments
        // never exceed the tolerated share of completed segments.
        let completed = _txs.segments_acked + _txs.segments_abandoned;
        if completed > 0 {
            let share = _txs.segments_abandoned as f64 / completed as f64;
            prop_assert!(
                share <= tolerance + 2.0 / completed as f64,
                "abandoned share {} > tolerance {}", share, tolerance
            );
        }
        // A message only goes missing if at least one of its fragments
        // was abandoned.
        let undelivered = (messages.len() - delivered.len()) as u64;
        prop_assert!(
            undelivered <= _txs.segments_abandoned,
            "{} missing messages but only {} abandoned segments",
            undelivered, _txs.segments_abandoned
        );
    }

    /// With zero tolerance, everything is delivered regardless of marks.
    #[test]
    fn rudp_zero_tolerance_is_fully_reliable(
        messages in prop::collection::vec((1u32..3000, any::<bool>()), 1..30),
        drops in prop::collection::vec(prop::bool::weighted(0.3), 16..128),
    ) {
        let (delivered, _txs, _rxs) = run_lossy_pipe(&messages, &drops, 0.0);
        prop_assert_eq!(delivered.len(), messages.len());
        prop_assert!(delivered.windows(2).all(|w| w[0].0 + 1 == w[1].0));
    }

    /// Welford statistics match the naive two-pass formulas.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((w.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
    }

    /// Welford merge is equivalent to pushing everything sequentially.
    #[test]
    fn welford_merge_associative(
        xs in prop::collection::vec(-1e3f64..1e3, 0..80),
        ys in prop::collection::vec(-1e3f64..1e3, 0..80),
    ) {
        let mut a = Welford::new();
        for &x in &xs { a.push(x); }
        let mut b = Welford::new();
        for &y in &ys { b.push(y); }
        a.merge(&b);
        let mut all = Welford::new();
        for &v in xs.iter().chain(&ys) { all.push(v); }
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-9 * all.mean().abs().max(1.0));
        prop_assert!((a.variance() - all.variance()).abs() < 1e-6 * all.variance().max(1.0));
    }

    /// AttrList behaves like a map with last-write-wins semantics.
    #[test]
    fn attrlist_is_a_last_write_wins_map(
        ops in prop::collection::vec((0u8..6, -100i64..100), 1..60),
    ) {
        use std::collections::HashMap;
        let keys = ["a", "b", "c", "d", "e", "f"];
        let mut list = AttrList::new();
        let mut model: HashMap<&str, i64> = HashMap::new();
        for (k, v) in ops {
            let key = keys[k as usize];
            list.set(key, v);
            model.insert(key, v);
        }
        prop_assert_eq!(list.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(list.get_int(k), Some(*v));
        }
    }

    /// Attribute values round-trip through float/int views coherently.
    #[test]
    fn attr_value_views(v in -1e9f64..1e9) {
        let a = AttrValue::Float(v);
        prop_assert_eq!(a.as_float(), Some(v));
        let i = AttrValue::Int(v as i64);
        prop_assert_eq!(i.as_float(), Some((v as i64) as f64));
    }

    /// Membership traces always respect their configured bounds and
    /// length, whatever the knobs.
    #[test]
    fn membership_trace_bounds(
        seed in any::<u64>(),
        len in 1usize..600,
        base in 1.0f64..30.0,
        burst in 0.0f64..20.0,
        min in 1u32..5,
        spread in 0u32..40,
    ) {
        let cfg = MembershipConfig {
            seed,
            len,
            base,
            burst_scale: burst,
            min,
            max: min + spread,
            ..MembershipConfig::default()
        };
        let t = MembershipTrace::generate(&cfg);
        prop_assert_eq!(t.len(), len);
        prop_assert!(t.samples.iter().all(|&g| g >= min && g <= min + spread));
        // Determinism.
        prop_assert_eq!(t, MembershipTrace::generate(&cfg));
    }

    /// The §3.4 window factor is the exact bit-rate compensation: the
    /// shrunken frames times the inflated window restore the original
    /// bit volume per window.
    #[test]
    fn resolution_factor_restores_bit_rate(rate_chg in 0.0f64..0.9) {
        let factor = resolution_window_factor(rate_chg);
        let restored = (1.0 - rate_chg) * factor;
        prop_assert!((restored - 1.0).abs() < 1e-9);
    }

    /// Eq. (1) is monotone in the network drift: more congestion now
    /// than at decision time means a smaller window factor.
    #[test]
    fn cond_factor_monotone_in_drift(
        rate_chg in 0.0f64..0.8,
        then in 0.0f64..0.8,
        d in 0.01f64..0.2,
    ) {
        let worse = cond_window_factor(rate_chg, then, (then + d).min(0.95));
        let same = cond_window_factor(rate_chg, then, then);
        let better = cond_window_factor(rate_chg, then, (then - d).max(0.0));
        prop_assert!(worse <= same + 1e-12);
        prop_assert!(better >= same - 1e-12);
    }
}

/// Conservation and TCP-order properties over the simulator itself.
mod sim_properties {
    use super::*;
    use iq_netsim::{payload, Agent, Ctx, LinkSpec, Packet, Simulator};
    use iq_tcp::{TcpConfig, TcpReceiverConn, TcpSegment, TcpSenderConn};

    struct Pusher {
        dst: iq_netsim::Addr,
        n: u32,
        size: u32,
        gap_us: u64,
        sent: u32,
    }
    impl Agent for Pusher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(0, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent < self.n {
                ctx.send(self.dst, self.size, iq_netsim::FlowId(1), payload(self.sent));
                self.sent += 1;
                ctx.set_timer(iq_netsim::time::micros(self.gap_us), 0);
            }
        }
    }

    #[derive(Default)]
    struct Counter(u64);
    impl Agent for Counter {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.0 += 1;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Packet conservation on a single link: enqueued = delivered +
        /// drop-tail drops + random losses, for arbitrary link shapes
        /// and offered loads.
        #[test]
        fn link_conserves_packets(
            rate_mbps in 1.0f64..100.0,
            delay_ms in 1u64..50,
            queue_kb in 2u32..128,
            loss in 0.0f64..0.3,
            n in 1u32..400,
            size in 100u32..1500,
            gap_us in 10u64..2000,
            seed in any::<u64>(),
        ) {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node();
            let b = sim.add_node();
            let (fwd, _back) = sim.add_duplex_link(
                a,
                b,
                LinkSpec::new(rate_mbps * 1e6, millis(delay_ms), queue_kb * 1024)
                    .with_random_loss(loss),
            );
            sim.add_agent(a, 1, Box::new(Pusher {
                dst: iq_netsim::Addr::new(b, 2),
                n,
                size,
                gap_us,
                sent: 0,
            }));
            let rx = sim.add_agent(b, 2, Box::new(Counter::default()));
            sim.run_until(iq_netsim::time::secs(600.0));
            let stats = sim.link_stats(fwd);
            let delivered = sim.agent::<Counter>(rx).unwrap().0;
            // Everything offered to the link is accounted for.
            prop_assert_eq!(
                stats.enqueued_packets + stats.dropped_packets,
                u64::from(n),
                "offered packets unaccounted"
            );
            prop_assert_eq!(
                stats.transmitted_packets,
                stats.enqueued_packets,
                "packets stuck in queue after drain"
            );
            prop_assert_eq!(
                delivered + stats.random_losses,
                stats.transmitted_packets,
                "transmitted packets unaccounted"
            );
        }

        /// TCP delivers every message exactly once, in order, for any
        /// loss pattern on the in-memory pipe.
        #[test]
        fn tcp_total_order_under_any_loss(
            sizes in prop::collection::vec(1u32..4000, 1..30),
            drops in prop::collection::vec(prop::bool::weighted(0.25), 16..128),
        ) {
            let mut tx = TcpSenderConn::new(1, TcpConfig);
            let mut rx = TcpReceiverConn::new(1, TcpConfig);
            for &s in &sizes {
                tx.send_message(0, s);
            }
            tx.finish();
            let mut now: u64 = 0;
            let mut drop_iter = drops.iter().cycle();
            let mut got = Vec::new();
            for _ in 0..200_000 {
                if tx.is_closed() {
                    break;
                }
                let mut progressed = false;
                while let Some(seg) = tx.poll_transmit(now) {
                    progressed = true;
                    if !*drop_iter.next().unwrap() {
                        rx.on_segment(now + millis(10), &seg);
                    }
                }
                while let Some(seg) = rx.poll_transmit(now + millis(10)) {
                    progressed = true;
                    let dropped =
                        matches!(seg, TcpSegment::Ack(_)) && *drop_iter.next().unwrap();
                    if !dropped {
                        tx.on_segment(now + millis(20), &seg);
                    }
                }
                got.extend(rx.take_messages());
                now += millis(25);
                tx.on_tick(now);
                if !progressed {
                    if let Some(t) = tx.next_timeout(now) {
                        now = now.max(t) + 1;
                        tx.on_tick(now);
                    }
                }
            }
            got.extend(rx.take_messages());
            prop_assert_eq!(got.len(), sizes.len(), "message count mismatch");
            for (i, m) in got.iter().enumerate() {
                prop_assert_eq!(m.msg_id, i as u64);
                prop_assert_eq!(m.size, sizes[i]);
            }
        }
    }
}
