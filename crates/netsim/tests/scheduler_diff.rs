//! Differential test of the scheduler against the reference design: a
//! single `BinaryHeap<Event>`.
//!
//! The simulator's determinism guarantee rests on [`EventQueue`] popping
//! in exactly ascending `(time, seq)` order — the order the heap
//! produces. This drives both structures with identical randomized op
//! streams and requires bit-identical behavior, including the final
//! drain.

use std::collections::BinaryHeap;

use iq_netsim::event::{Event, EventKind};
use iq_netsim::{AgentId, EventQueue};
use proptest::{prop, prop_assert_eq, proptest, ProptestConfig};

fn ev(at: u64, seq: u64) -> Event {
    Event {
        at,
        seq,
        kind: EventKind::Start { agent: AgentId(0) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn event_queue_conforms_to_the_source_contract(
        ops in prop::collection::vec((0u32..6, proptest::any::<u64>()), 1..400),
    ) {
        let mut queue = EventQueue::new();
        let mut model: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64; // last popped time: pushes never go to the past

        for &(kind, raw) in &ops {
            match kind {
                // Pop from both, compare, and advance the clock.
                4 => {
                    let got = queue.pop().map(|e| (e.at, e.seq));
                    let want = model.pop().map(|e| (e.at, e.seq));
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = want {
                        now = at;
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
                        now = at;
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
            if want.is_none() {
                break;
            }
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
