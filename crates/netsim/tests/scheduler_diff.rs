//! Differential test of the scheduler against the reference design: a
//! single `BinaryHeap<Event>`.
//!
//! The simulator's determinism guarantee rests on [`EventQueue`] popping
//! in exactly ascending `(time, seq)` order — the order the heap
//! produces. This drives both structures with identical randomized op
//! streams and requires bit-identical behavior, including the final
//! drain.
//!
//! The streams carry bursts — hundreds of events into one bucket — so
//! that they keep crossing the queue's retention rule (a buffer a burst
//! grew is shrunk when it is next found empty): capacity is not content,
//! and the order must not know the difference.
//!
//! They also carry pops bounded just past the clock, which find nothing
//! due while the next event waits a bucket or more ahead: the queue
//! keeps its cursor short of that bucket, and what is pushed in between
//! must still pop first.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

use iq_netsim::event::{Event, EventKind};
use iq_netsim::{AgentId, EventQueue};
use proptest::{prop, prop_assert_eq, proptest, ProptestConfig};

/// Events a burst op pushes into one bucket: four times the 128 an
/// empty `near` may keep room for (`sched.rs`, `BUCKET_FLOOR`).
const BURST: u64 = 512;
/// log2 of a bucket's width in nanoseconds (`sched.rs`, `BUCKET_BITS`).
const BUCKET_BITS: u32 = 20;

/// Bursts the streams have drained with more still pending behind them.
/// `EventQueue` shows no capacity to an outside test, so this is
/// counted from the op stream: a burst's bucket becomes `near` whole,
/// and the first pop from a later bucket is a refill that found `near`
/// empty at burst size — the shrink path. (`sched.rs`'s own tests look
/// at the capacity.)
static SHRINKS_CROSSED: AtomicUsize = AtomicUsize::new(0);

/// Short-deadline pops that found nothing due while the earliest pending
/// event's bucket started past the deadline: the queue must leave its
/// cursor short of that bucket, and the op then pushes an event between
/// the deadline and the head — the shard engine's pattern at the end of
/// a lookahead window. Counted from the op stream, like
/// [`SHRINKS_CROSSED`].
static CURSORS_HELD: AtomicUsize = AtomicUsize::new(0);

/// Notes a pop at time `at`: every burst in an earlier bucket has been
/// drained and refilled past. Returns `at`.
fn popped(burst_buckets: &mut Vec<u64>, at: u64) -> u64 {
    let before = burst_buckets.len();
    burst_buckets.retain(|&b| b >= at >> BUCKET_BITS);
    SHRINKS_CROSSED.fetch_add(before - burst_buckets.len(), Ordering::Relaxed);
    at
}

fn ev(at: u64, seq: u64) -> Event {
    Event {
        at,
        seq,
        kind: EventKind::Start { agent: AgentId(0) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cases behind [`event_queue_conforms_to_the_source_contract`].
    fn source_contract_cases(
        ops in prop::collection::vec((0u32..32, proptest::any::<u64>()), 1..400),
    ) {
        let mut queue = EventQueue::new();
        let mut model: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64; // last popped time: pushes never go to the past
        // Buckets holding a burst that has not been popped past yet.
        let mut burst_buckets: Vec<u64> = Vec::new();

        for &(kind, raw) in &ops {
            // One op in 32 is a burst and one a window's-end pop; the
            // rest are the six plain kinds.
            match match kind { 31 => 6, 30 => 7, k => k % 6 } {
                // Pop from both, compare, and advance the clock.
                4 => {
                    let got = queue.pop().map(|e| (e.at, e.seq));
                    let want = model.pop().map(|e| (e.at, e.seq));
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = want {
                        now = popped(&mut burst_buckets, at);
                    }
                }
                // Deadline-bounded pop at a random horizon past the clock.
                5 => {
                    let deadline = now.saturating_add(raw % 2_000_000_000);
                    let got = queue.pop_before(deadline).map(|e| (e.at, e.seq));
                    let want = match model.peek() {
                        Some(e) if e.at <= deadline => model.pop().map(|e| (e.at, e.seq)),
                        _ => None,
                    };
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = want {
                        now = popped(&mut burst_buckets, at);
                    }
                }
                // A pop bounded at most 1 ms past the clock, as a shard
                // ends its lookahead window; when nothing was due and the
                // head's bucket starts past the deadline, a push lands
                // between the two.
                7 => {
                    let deadline = now.saturating_add(raw % 1_000_001);
                    let got = queue.pop_before(deadline).map(|e| (e.at, e.seq));
                    let head = model.peek().map(|e| e.at);
                    let want = match head {
                        Some(at) if at <= deadline => model.pop().map(|e| (e.at, e.seq)),
                        _ => None,
                    };
                    prop_assert_eq!(got, want);
                    match (want, head) {
                        (Some((at, _)), _) => now = popped(&mut burst_buckets, at),
                        (None, Some(head)) if head >> BUCKET_BITS << BUCKET_BITS > deadline => {
                            CURSORS_HELD.fetch_add(1, Ordering::Relaxed);
                            let at = deadline + 1 + (raw >> 20) % (head - deadline);
                            queue.push(ev(at, seq));
                            model.push(ev(at, seq));
                            seq += 1;
                        }
                        _ => {}
                    }
                }
                // A burst into one bucket, up to 400 ms ahead (either
                // side of the ring's horizon), on a handful of
                // timestamps so that `seq` breaks most ties.
                6 => {
                    let bucket = now.saturating_add(raw % 400_000_000) >> BUCKET_BITS;
                    for i in 0..BURST {
                        let at = ((bucket << BUCKET_BITS) + i.wrapping_mul(raw | 1) % 7 * 1000).max(now);
                        queue.push(ev(at, seq));
                        model.push(ev(at, seq));
                        seq += 1;
                    }
                    // A burst into the clock's own bucket may find it
                    // resident and be split between `near` and
                    // `near_over`: pushed, not counted.
                    if bucket > now >> BUCKET_BITS {
                        burst_buckets.push(bucket);
                    }
                }
                // Push at a near / mid / far offset from the clock.
                k => {
                    let dt = match k {
                        0 => raw % 1_000_000,     // ≤ 1 ms: the ring's first buckets
                        1 => raw % 2_000_000_000, // ≤ 2 s: straddles the 268 ms ring horizon
                        _ => raw,                 // anything: the far heap
                    };
                    let at = now.saturating_add(dt);
                    queue.push(ev(at, seq));
                    model.push(ev(at, seq));
                    seq += 1;
                }
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.peek_time(), model.peek().map(|e| e.at));
        }

        // Drain both completely: the tails must match too.
        loop {
            let got = queue.pop().map(|e| (e.at, e.seq));
            let want = model.pop().map(|e| (e.at, e.seq));
            prop_assert_eq!(got, want);
            match want {
                Some((at, _)) => popped(&mut burst_buckets, at),
                None => break,
            };
        }
        prop_assert_eq!(queue.len(), 0);
    }

    #[test]
    fn burst_of_simultaneous_events_pops_in_schedule_order(
        times in prop::collection::vec(0u64..50_000, 2..64),
    ) {
        // Many events on few distinct timestamps: tie-breaking by seq is
        // where an unordered bucket drain would betray itself.
        let mut queue = EventQueue::new();
        let mut model: BinaryHeap<Event> = BinaryHeap::new();
        for (seq, &t) in times.iter().enumerate() {
            let at = (t / 10_000) * 10_000; // collapse onto ~5 timestamps
            queue.push(ev(at, seq as u64));
            model.push(ev(at, seq as u64));
        }
        while let Some(want) = model.pop() {
            let got = queue.pop().expect("queue drained early");
            prop_assert_eq!((got.at, got.seq), (want.at, want.seq));
        }
        prop_assert_eq!(queue.pop().map(|e| e.at), None);
    }
}

#[test]
fn event_queue_conforms_to_the_source_contract() {
    source_contract_cases();
    // The streams are seeded, so this is a fact about them, not luck.
    let crossed = SHRINKS_CROSSED.load(Ordering::Relaxed);
    assert!(
        crossed >= 32,
        "only {crossed} bursts were drained and shrunk behind"
    );
    let held = CURSORS_HELD.load(Ordering::Relaxed);
    assert!(
        held >= 32,
        "only {held} short-deadline pops left the cursor before the head"
    );
}
