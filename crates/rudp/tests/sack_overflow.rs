//! Regression tests for SACK-range truncation (> [`MAX_SACK_RANGES`]
//! reassembly holes).
//!
//! An ACK carries at most 8 SACK ranges. With more than 8 holes the
//! receiver silently truncates the tail, so segments it *does* hold can
//! go unreported. The duplicate-evidence sweep used to run all the way
//! up to `highest_seen`, counting those held-but-unreported segments as
//! missing and fast-retransmitting them spuriously. The fix clamps the
//! sweep to the end of the last *reported* range whenever the SACK list
//! is full. These tests pin that: with a 10-hole loss pattern the
//! sender fast-retransmits exactly the genuinely-lost segments below
//! the horizon, and a full recovery loop completes without ever
//! retransmitting a segment the receiver already holds.

use iq_rudp::{ReceiverConn, RudpConfig, Segment, SenderConn, MAX_SACK_RANGES};

/// Handshakes a directly-driven sender/receiver pair at t = 0 and opens
/// the congestion window wide enough for a 20-segment burst.
fn establish(cfg: &RudpConfig) -> (SenderConn, ReceiverConn) {
    let mut s = SenderConn::new(7, cfg.clone());
    let mut r = ReceiverConn::new(7, cfg.clone());
    let syn = s.poll_transmit(0).expect("syn");
    r.on_segment(0, &syn);
    let synack = r.poll_transmit(0).expect("synack");
    s.on_segment(0, &synack);
    s.scale_cwnd(16.0); // initial cwnd 2 -> 32 segments
    (s, r)
}

/// Sends `n` one-fragment messages and returns the polled data segments.
fn burst(s: &mut SenderConn, now: u64, n: usize) -> Vec<Segment> {
    for _ in 0..n {
        let _ = s.send_message(now, 1000, true);
    }
    let mut out = Vec::new();
    while let Some(seg) = s.poll_transmit(now) {
        out.push(seg);
    }
    assert_eq!(out.len(), n, "window too small for the burst");
    out
}

/// Ten interleaved holes (all even seqs of 0..20 lost) produce more
/// ranges than an ACK can carry. The sender must fast-retransmit only
/// the genuine holes below the reported horizon — never the odd
/// segments the receiver holds but could not report (seqs 17, 19), and
/// not the unreported tail holes (16, 18; those are RTO territory).
#[test]
fn truncated_sack_does_not_trigger_spurious_retransmits() {
    let cfg = RudpConfig::default();
    let (mut s, mut r) = establish(&cfg);
    let segs = burst(&mut s, 0, 20);

    // Deliver only the odd seqs, in order: 10 holes > MAX_SACK_RANGES.
    let mut acks = Vec::new();
    for seg in &segs {
        let Segment::Data(d) = seg else {
            unreachable!()
        };
        if d.seq % 2 == 1 {
            r.on_segment(1_000_000, seg);
            let ack = r
                .poll_transmit(1_000_000)
                .expect("ooo data acks immediately");
            acks.push(ack);
        }
    }
    // The final ACK really is truncated.
    let Segment::Ack(last) = acks.last().unwrap() else {
        unreachable!()
    };
    assert_eq!(last.sack.len(), MAX_SACK_RANGES);
    assert_eq!(
        last.highest_seen, 20,
        "highest_seen is one past the top seq"
    );
    assert!(r.has_segment(17) && r.has_segment(19));

    for ack in &acks {
        s.on_segment(2_000_000, ack);
    }
    let mut retx = Vec::new();
    while let Some(seg) = s.poll_transmit(2_000_000) {
        let Segment::Data(d) = seg else { continue };
        assert!(d.retransmit);
        assert!(
            !r.has_segment(d.seq),
            "spurious retransmit of seq {} the receiver already holds",
            d.seq
        );
        retx.push(d.seq);
    }
    retx.sort_unstable();
    // Exactly the lost even seqs below the horizon (end of the last
    // reported range, 16). 16 and 18 sit above it, unreported: they are
    // recovered by the RTO backstop or a later SACK slide, not by
    // fabricated duplicate evidence.
    assert_eq!(retx, vec![0, 2, 4, 6, 8, 10, 12, 14]);
}

/// Driving the same loss pattern to full recovery: every hole is
/// eventually repaired, all 20 messages are delivered, and no
/// retransmission ever duplicates a segment the receiver holds.
#[test]
fn many_hole_recovery_completes_without_duplicate_retransmits() {
    let cfg = RudpConfig::default();
    let (mut s, mut r) = establish(&cfg);
    let mut wire = burst(&mut s, 0, 20);

    let mut now = 0u64;
    let mut first_pass = true;
    for _round in 0..50 {
        if r.stats().msgs_delivered == 20 {
            break;
        }
        now += 2_000_000;
        // Sender -> receiver; the first transmission of every even seq
        // is lost.
        for seg in wire.drain(..) {
            if let Segment::Data(d) = &seg {
                if first_pass && d.seq % 2 == 0 && !d.retransmit {
                    continue;
                }
                assert!(
                    !(d.retransmit && r.has_segment(d.seq)),
                    "retransmit of seq {} the receiver already holds",
                    d.seq
                );
            }
            r.on_segment(now, &seg);
        }
        first_pass = false;
        // Receiver -> sender.
        now += 2_000_000;
        while let Some(ack) = r.poll_transmit(now) {
            s.on_segment(now, &ack);
        }
        s.on_tick(now);
        while let Some(seg) = s.poll_transmit(now) {
            wire.push(seg);
        }
    }
    assert_eq!(r.stats().msgs_delivered, 20, "recovery did not complete");
    assert_eq!(r.stats().duplicates, 0, "receiver saw duplicate segments");
}
