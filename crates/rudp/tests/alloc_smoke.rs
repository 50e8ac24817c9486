//! Zero-allocation smoke tests for the transport state machines.
//!
//! A counting global allocator wraps `System`. *Warm*: after a warm-up
//! phase that sizes every ring, queue, and scratch buffer, a sustained
//! data → ACK → drain cycle between a [`SenderConn`] and a
//! [`ReceiverConn`] must perform **zero** heap allocations (inline SACK
//! storage in `AckSeg`, ring-buffer transport state, the `take_*_into`
//! / `clear_events` drain APIs). *Cold*: so must the whole short life
//! of a freshly built pair — handshake, four messages, a loss and its
//! retransmission, close — because every container of a connection
//! starts on inline storage (DESIGN.md §12); in a fleet of such flows
//! the first touch of each used to be an allocator call, and under one
//! malloc arena an allocator call on a pool worker is a global lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use iq_rudp::{CcAlgorithm, ReceiverConn, RudpConfig, Segment, SenderConn};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// The counter is process-global and libtest runs tests on parallel
/// threads: each test holds this while it measures.
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One-segment messages a cycle keeps queued or in flight. Each cycle
/// tops the backlog up to this many, putting in what the last one took
/// out, so the sender's fragment ring holds the same window whatever
/// the controller's: a fixed number per cycle would outrun a window
/// that sends fewer (BBR's sits at one segment here) and the backlog
/// would grow without end.
const BACKLOG: usize = 16;

/// One steady-state cycle: top up the backlog, ship segments to the
/// receiver, return its ACKs, drain messages and events through reused
/// scratch.
fn cycle(
    now: &mut u64,
    s: &mut SenderConn,
    r: &mut ReceiverConn,
    msgs: &mut Vec<iq_rudp::DeliveredMsg>,
) {
    while s.backlog_segments() < BACKLOG {
        let _ = s.send_message(*now, 1000, true);
    }
    s.on_tick(*now);
    while let Some(seg) = s.poll_transmit(*now) {
        r.on_segment(*now, &seg);
    }
    *now += 2_000_000; // 2 ms one-way
    while let Some(seg) = r.poll_transmit(*now) {
        s.on_segment(*now, &seg);
    }
    r.take_messages_into(msgs);
    r.clear_events();
    s.clear_events();
    *now += 3_000_000;
}

/// Runs the steady-state measurement under one congestion controller
/// and returns the best (lowest) allocation delta over three attempts.
///
/// # Panics
/// Panics if the sender's backlog at the end of an attempt differs from
/// its backlog at the start: the cycle is then not a steady state.
fn measure(algorithm: CcAlgorithm) -> u64 {
    let name = algorithm.name();
    let mut cfg = RudpConfig::default();
    cfg.cc.algorithm = algorithm;
    let mut s = SenderConn::new(7, cfg.clone());
    let mut r = ReceiverConn::new(7, cfg);
    let mut now = 0u64;

    // Handshake.
    let syn = s.poll_transmit(now).expect("syn");
    assert!(matches!(syn, Segment::Syn { .. }));
    r.on_segment(now, &syn);
    let synack = r.poll_transmit(now).expect("synack");
    s.on_segment(now, &synack);

    // Warm up: grow the inflight/reorder rings, outboxes, event vecs,
    // and the caller-side message scratch to their steady-state sizes.
    let mut msgs = Vec::new();
    for _ in 0..300 {
        cycle(&mut now, &mut s, &mut r, &mut msgs);
    }

    // The counter is process-global, so a libtest harness thread that
    // happens to allocate mid-measurement (its slow-test machinery, on
    // a loaded machine) can taint an attempt. A real regression in the
    // cycle allocates on every attempt, so requiring one clean attempt
    // out of three keeps the gate sound while shedding harness noise.
    let mut delta = u64::MAX;
    for _ in 0..3 {
        let backlog = s.backlog_segments();
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for _ in 0..200 {
            cycle(&mut now, &mut s, &mut r, &mut msgs);
        }
        delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
        assert_eq!(
            s.backlog_segments(),
            backlog,
            "the backlog moved across 200 cycles under {name}: not a steady state"
        );
        if delta == 0 {
            break;
        }
    }
    delta
}

/// The whole life of a short flow on a freshly built pair, in-place
/// drains included; returns the allocator calls it made once both
/// halves existed.
fn cold_flow(algorithm: CcAlgorithm) -> u64 {
    const MS: u64 = 1_000_000;
    let mut cfg = RudpConfig::default();
    cfg.cc.algorithm = algorithm;
    let mut s = SenderConn::new(7, cfg.clone());
    let mut r = ReceiverConn::new(7, cfg);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    // Handshake.
    let syn = s.poll_transmit(0).expect("syn");
    r.on_segment(0, &syn);
    let synack = r.poll_transmit(0).expect("synack");
    s.on_segment(MS, &synack);
    assert!(matches!(s.pop_event(), Some(iq_rudp::ConnEvent::Connected)));
    r.clear_events();
    // Four one-segment messages; the initial window carries two.
    for _ in 0..4 {
        let _ = s.send_message(MS, 1000, true);
    }
    let _lost = s.poll_transmit(MS).expect("seq 0");
    let second = s.poll_transmit(MS).expect("seq 1");
    assert!(
        s.poll_transmit(MS).is_none(),
        "the initial window is two segments"
    );
    // Seq 0 never arrives; seq 1 is buffered out of order and SACKed.
    r.on_segment(2 * MS, &second);
    let sack = r
        .poll_transmit(2 * MS)
        .expect("an out-of-order arrival is ACKed at once");
    s.on_segment(3 * MS, &sack);
    // The retransmission timer recovers it.
    let mut now = 1_200 * MS;
    s.on_tick(now);
    let resent = s.poll_transmit(now).expect("the RTO resends seq 0");
    assert!(matches!(&resent, Segment::Data(d) if d.seq == 0 && d.retransmit));
    // From here on, ship whatever either side has until both close,
    // the way the agents do: after every segment the sink drains
    // its messages and events and its replies leave.
    let mut delivered = 0;
    let mut arrive = |s: &mut SenderConn, r: &mut ReceiverConn, now: u64, seg: &Segment| {
        r.on_segment(now, seg);
        while r.pop_message().is_some() {
            delivered += 1;
        }
        r.clear_events();
        while let Some(reply) = r.poll_transmit(now) {
            s.on_segment(now, &reply);
        }
    };
    arrive(&mut s, &mut r, now, &resent);
    s.finish();
    for _ in 0..20 {
        now += 5 * MS;
        s.on_tick(now);
        while let Some(seg) = s.poll_transmit(now) {
            arrive(&mut s, &mut r, now, &seg);
        }
        while s.pop_event().is_some() {}
    }
    assert_eq!(delivered, 4);
    assert!(s.is_closed() && r.is_finished());
    assert_eq!(s.stats().retransmits, 1);
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn a_short_flow_on_a_fresh_pair_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The adaptive controllers, which all open with a two-segment
    // window (a pinned 64-segment one would put three segments behind
    // the hole, one more than the reorder ring holds inline).
    let adaptive = CcAlgorithm::ALL
        .into_iter()
        .filter(|a| !matches!(a, CcAlgorithm::Fixed { .. }));
    for alg in adaptive {
        let name = alg.name();
        // Best of three, for the reason given in `measure`.
        let calls = (0..3).map(|_| cold_flow(alg.clone())).min().unwrap();
        assert_eq!(
            calls, 0,
            "a four-message flow with one loss made {calls} allocator calls under {name}"
        );
    }
}

#[test]
fn a_segment_far_past_the_window_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The hostile pair: a buffered segment, then one 2⁴⁰ sequence
    // numbers on. Buffering it would grow the reorder ring to span the
    // distance (a 32-TB slab: the process aborts); it is outside any
    // window the receiver advertised and must be dropped untouched.
    let run = || {
        let mut r = ReceiverConn::new(7, RudpConfig::default());
        r.on_segment(0, &Segment::Syn { init_seq: 0 });
        while r.poll_transmit(0).is_some() {}
        let data = |seq: u64| {
            Segment::Data(iq_rudp::DataSeg {
                seq,
                msg_id: seq,
                frag_idx: 0,
                frag_count: 1,
                len: 1000,
                marked: true,
                fwd_seq: 0,
                msg_sent_at: 0,
                tx_at: 0,
                retransmit: false,
            })
        };
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        r.on_segment(1, &data(5)); // behind a hole: buffered inline
        r.on_segment(2, &data(1 << 40));
        let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
        assert!(r.has_segment(5) && !r.has_segment(1 << 40));
        assert_eq!(r.stats().segments_received, 2);
        calls
    };
    // Best of three, for the reason given in `measure`.
    let calls = (0..3).map(|_| run()).min().unwrap();
    assert_eq!(calls, 0, "the far segment made {calls} allocator calls");
}

#[test]
fn steady_state_ack_path_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Every controller must hold the zero-alloc line: the trait seam is
    // enum dispatch stored inline in the sender (no `Box<dyn>`), and
    // the controllers themselves keep their state in fixed arrays.
    for alg in CcAlgorithm::ALL {
        let name = alg.name();
        let delta = measure(alg);
        assert_eq!(
            delta, 0,
            "steady-state data/ACK cycles performed {delta} heap allocations under {name}"
        );
    }
}
