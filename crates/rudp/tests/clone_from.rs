//! `SenderConn` and `ReceiverConn` clone by hand so that `clone_from`
//! can refill a scratch connection without reallocating (the model
//! checker does it once per transition). A hand-written `clone_from`
//! can forget a field, so this holds it to `clone()`: refilling a fresh
//! connection (every container on its inline storage), or a dirtier
//! one with spilled queues and rings on large heap slabs, must give a
//! value whose `Debug` rendering — every field, the rings' physical
//! layout included — equals the clone's, and which behaves identically
//! from there on.

use iq_rudp::{AckSeg, CcAlgorithm, ReceiverConn, RudpConfig, Segment, SenderConn};

const MS: u64 = 1_000_000;

fn established(conn_id: u32, cfg: RudpConfig) -> (SenderConn, ReceiverConn) {
    let mut s = SenderConn::new(conn_id, cfg.clone());
    let mut r = ReceiverConn::new(conn_id, cfg);
    let syn = s.poll_transmit(0).expect("syn");
    r.on_segment(0, &syn);
    let synack = r.poll_transmit(0).expect("synack");
    s.on_segment(0, &synack);
    (s, r)
}

fn drain_sender(s: &mut SenderConn, now: u64) -> Vec<Segment> {
    std::iter::from_fn(|| s.poll_transmit(now)).collect()
}

fn drain_receiver(r: &mut ReceiverConn, now: u64) -> Vec<Segment> {
    std::iter::from_fn(|| r.poll_transmit(now)).collect()
}

/// A pair mid-transfer: one segment delivered and acknowledged, the
/// next lost, the one after it buffered out of order and SACKed; the
/// sender still holds unsent fragments and events, the receiver an
/// unsent ACK, a delivered message and a reorder-buffer entry. Also
/// returns the lost segment.
fn worn_pair() -> (SenderConn, ReceiverConn, Segment) {
    let (mut s, mut r) = established(1, RudpConfig::default());
    for _ in 0..5 {
        let _ = s.send_message(MS, 1000, true);
    }
    let first = drain_sender(&mut s, MS);
    assert_eq!(first.len(), 2, "the initial window is two segments");
    r.on_segment(2 * MS, &first[0]);
    for ack in drain_receiver(&mut r, 2 * MS) {
        s.on_segment(3 * MS, &ack);
    }
    let lost = first[1].clone();
    let more = drain_sender(&mut s, 3 * MS);
    assert!(!more.is_empty(), "the ACK opened the window");
    r.on_segment(4 * MS, &more[0]);
    let sack = r
        .poll_transmit(4 * MS)
        .expect("an out-of-order arrival is ACKed at once");
    assert!(
        matches!(&sack, Segment::Ack(AckSeg { sack, .. }) if !sack.is_empty()),
        "{sack:?}"
    );
    s.on_segment(5 * MS, &sack);
    // Leave a second ACK unsent in the receiver's outbox.
    r.on_segment(5 * MS, &more[0]);
    (s, r, lost)
}

/// A pair under a different configuration with far more outstanding:
/// 48 segments in flight and as many again unsent (a 128-slot fragment
/// ring on the heap), and a 64-slot reorder buffer behind a hole at
/// sequence 0, its 47 ACKs spilled from the outbox.
fn dirtier_pair() -> (SenderConn, ReceiverConn) {
    let mut cfg = RudpConfig::default();
    cfg.cc.algorithm = CcAlgorithm::Fixed { cwnd: 48.0 };
    cfg.loss_tolerance = 0.25;
    let (mut s, mut r) = established(9, cfg);
    for _ in 0..96 {
        let _ = s.send_message(MS, 1400, false);
    }
    let flight = drain_sender(&mut s, MS);
    assert_eq!(flight.len(), 48);
    for seg in &flight[1..] {
        r.on_segment(2 * MS, seg);
    }
    (s, r)
}

fn same_debug<T: std::fmt::Debug>(got: &T, want: &T) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

#[test]
fn sender_clone_from_equals_clone() {
    let (src, _, _) = worn_pair();
    let want = src.clone();
    same_debug(&want, &src);
    let fresh = SenderConn::new(3, RudpConfig::default());
    let (dirtier, _) = dirtier_pair();
    for mut dst in [fresh, dirtier] {
        dst.clone_from(&src);
        same_debug(&dst, &want);
        // Same future: the retransmission timer fires, the hole is
        // resent, the rest of the window follows.
        let mut reference = want.clone();
        let at = 5_000 * MS;
        dst.on_tick(at);
        reference.on_tick(at);
        let sent = drain_sender(&mut dst, at);
        assert!(sent
            .iter()
            .any(|s| matches!(s, Segment::Data(d) if d.retransmit)));
        assert_eq!(sent, drain_sender(&mut reference, at));
        same_debug(&dst, &reference);
    }
    same_debug(&src, &want);
}

#[test]
fn receiver_clone_from_equals_clone() {
    let (_, src, lost) = worn_pair();
    let want = src.clone();
    same_debug(&want, &src);
    let fresh = ReceiverConn::new(3, RudpConfig::default());
    let (_, dirtier) = dirtier_pair();
    for mut dst in [fresh, dirtier] {
        dst.clone_from(&src);
        same_debug(&dst, &want);
        // Same future: the pending ACK goes out, the lost segment
        // arrives, the buffered one is released behind it.
        let mut reference = want.clone();
        let at = 9 * MS;
        dst.on_segment(at, &lost);
        reference.on_segment(at, &lost);
        let sent = drain_receiver(&mut dst, at);
        assert!(sent.len() >= 2, "{sent:?}");
        assert_eq!(sent, drain_receiver(&mut reference, at));
        assert_eq!(dst.take_messages(), reference.take_messages());
        same_debug(&dst, &reference);
    }
    same_debug(&src, &want);
}
